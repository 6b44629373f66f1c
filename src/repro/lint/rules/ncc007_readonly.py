"""NCC007 — exchange results are read-only.

Guards the ROADMAP "Engine parity" invariant across result types: what
``NCCNetwork.exchange`` returns depends on the round.  The reference
engine and small object rounds return a plain dict; a clean bulk round of
the batched or sharded engine returns a frozen
:class:`~repro.ncc.message.RoundInbox`.  A consumer that mutates the
result passes on small inputs and fails at scale, so library code treats
every exchange result as read-only and copies it before editing.

Scope: ``src/repro/``.  Within one function (or the module body), a name
bound directly from a ``.exchange(...)`` call — ``inbox = net.exchange(out)``
or ``(inbox := net.exchange(out))`` — must not be

* the target of ``del inbox[...]``, ``inbox[...] = ...`` or
  ``inbox[...] += ...`` (any augmented operator);
* the receiver of a ``pop``, ``popitem``, ``setdefault``, ``update`` or
  ``clear`` call.

The name counts as an exchange result throughout that function, so an
editable copy gets a name of its own (``mine = dict(inbox)``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from . import FileContext, Finding, Rule, register_rule

MUTATORS = frozenset({"pop", "popitem", "setdefault", "update", "clear"})

_NESTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Every node of one scope, nested function/class bodies excluded."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _NESTED):
            stack.extend(ast.iter_child_nodes(node))


def _exchange_names(nodes: list[ast.AST]) -> set[str]:
    names = set()
    for node in nodes:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
            value = node.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "exchange"
            ):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _mutated(node: ast.AST) -> Iterator[ast.expr]:
    """The containers ``node`` mutates in place, as written."""
    if isinstance(node, (ast.Delete, ast.Assign)):
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                yield target.value
    elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Subscript):
        yield node.target.value
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in MUTATORS
    ):
        yield node.func.value


@register_rule
class NCC007ReadOnlyExchange(Rule):
    id = "NCC007"
    name = "readonly-exchange"
    invariant = (
        "engine parity: an exchange result is read-only on every engine — "
        "clean bulk rounds return a frozen RoundInbox, so consumers copy "
        "before they edit"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_library:
            return
        scopes = [ctx.tree] + [
            node for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in scopes:
            nodes = list(_scope_nodes(scope))
            names = _exchange_names(nodes)
            if not names:
                continue
            for node in nodes:
                for target in _mutated(node):
                    if isinstance(target, ast.Name) and target.id in names:
                        yield self.finding(
                            ctx, node,
                            f"{target.id!r} holds an exchange result, which "
                            "is read-only (a clean bulk round returns a "
                            "frozen RoundInbox); copy it with dict(...) "
                            "into a name of its own before mutating",
                        )
