"""NCC006 — pool fork-safety: no ambient state in the worker surface.

Guards the persistent-pool determinism story (ROADMAP "Experiment
surface"; docs/OPERATIONS.md): workers are forked once per pool and live
across tasks — sweep workers across ``run_many`` calls, shard workers
across rounds.  A mutable module-level container in a worker-imported
module is state that (a) diverges between parent and child after fork,
and (b) survives across tasks inside one worker — either way a run stops
being a pure function of its spec.  A lazily-opened module-level handle
(``open(...)`` at import time) is worse: after fork, parent and child
share one file offset.

Scope: the worker core (``repro/workers.py``) and its two front-ends'
packages — ``repro/api/`` (the surface every sweep worker imports) and
``repro/ncc/sharded/`` (the shard-pool parent/worker surface).  Flags
module-level assignments of mutable containers (list/dict/set displays
and comprehensions, ``list()``/``dict()``/``set()``/``defaultdict()``/
``deque()``/``Counter()``/``OrderedDict()`` calls) and module-level
``open(...)`` calls.  Scalars and immutable tuples are fine
(``MAX_REQUEUES = 2``, ``_POOL = None``); worker-local *instance* state
lives on objects constructed after fork.  Dunder names (``__all__``) and
ALL_CAPS constant-convention names (``FIELDS = {...}`` lookup tables,
written once at import and only ever read) are exempt — the rule targets
*accumulating* state, not frozen tables that merely lack a frozen
spelling.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from . import FileContext, Finding, Rule, register_rule

MUTABLE_CONSTRUCTORS = frozenset({
    "Counter", "OrderedDict", "defaultdict", "deque", "dict", "list", "set",
})

#: constant-convention names: write-once lookup tables, not ambient state.
CONSTANT_NAME = re.compile(r"^_?[A-Z][A-Z0-9_]*$")


@register_rule
class NCC006PoolForkSafety(Rule):
    id = "NCC006"
    name = "pool-fork-safety"
    invariant = (
        "worker pools: a run is a pure function of its spec — worker "
        "processes hold no ambient module-level state or shared handles"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        path = "/" + ctx.effective_path
        if (
            not ctx.path_is("repro/workers.py")
            and "/repro/api/" not in path
            and "/repro/ncc/sharded/" not in path
        ):
            return
        yield from self._module_level(ctx, ctx.tree.body)

    # ------------------------------------------------------------------
    def _module_level(
        self, ctx: FileContext, body: list[ast.stmt]
    ) -> Iterator[Finding]:
        for stmt in body:
            if isinstance(stmt, (ast.If, ast.Try)):
                for inner in ast.iter_child_nodes(stmt):
                    if isinstance(inner, ast.stmt):
                        yield from self._module_level(ctx, [inner])
                continue
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                if all(self._is_exempt_name(t) for t in targets):
                    continue
                value = stmt.value
                if value is not None and self._is_mutable_container(value):
                    yield self.finding(
                        ctx, stmt,
                        "mutable module-level container in the worker import "
                        "surface; fork/persistent workers would share or "
                        "diverge on it — hold state on per-run objects",
                    )
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.Expr)):
                value = getattr(stmt, "value", None)
                if (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id == "open"
                ):
                    yield self.finding(
                        ctx, stmt,
                        "module-level open() in the worker import surface; "
                        "after fork, parent and workers share one file "
                        "offset — open handles per run instead",
                    )

    @staticmethod
    def _is_exempt_name(target: ast.expr) -> bool:
        if not isinstance(target, ast.Name):
            return False
        name = target.id
        is_dunder = name.startswith("__") and name.endswith("__")
        return is_dunder or CONSTANT_NAME.match(name) is not None

    @staticmethod
    def _is_mutable_container(value: ast.expr) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set,
                              ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            func = value.func
            name = (
                func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else None
            )
            return name in MUTABLE_CONSTRUCTORS
        return False
