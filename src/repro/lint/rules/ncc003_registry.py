"""NCC003 — registry discipline: one source of truth for algorithms.

Guards the ROADMAP "Experiment surface" invariant: all algorithm
consumers resolve through :mod:`repro.registry`.  Every module under
``repro/algorithms/`` (and the scenario family catalog
``repro/scenarios/families.py``) must self-register via the
``@register_algorithm`` / ``register_scenario`` decorators — an algorithm
module that forgets is silently invisible to the CLI, the sweep driver,
the parity harness, and the oracle-check suite.
"""

from __future__ import annotations

import ast
from typing import Iterator

from . import FileContext, Finding, Rule, register_rule

#: (path predicate suffix-dir, required registration callable)
SELF_REGISTERING = (
    ("repro/algorithms/", "register_algorithm"),
    ("repro/scenarios/families.py", "register_scenario"),
)


@register_rule
class NCC003RegistryDiscipline(Rule):
    id = "NCC003"
    name = "registry-discipline"
    invariant = (
        "experiment surface: algorithm and scenario modules self-register, "
        "so consumers resolve them through the registries"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        p = ctx.effective_path
        if p.endswith("__init__.py"):
            return
        for marker, register_fn in SELF_REGISTERING:
            if marker.endswith("/"):
                applies = ("/" + marker) in ("/" + p) and p.endswith(".py")
            else:
                applies = ctx.path_is(marker)
            if not applies:
                continue
            names = {
                node.id for node in ast.walk(ctx.tree)
                if isinstance(node, ast.Name)
            } | {
                node.attr for node in ast.walk(ctx.tree)
                if isinstance(node, ast.Attribute)
            }
            if register_fn not in names:
                yield self.finding(
                    ctx, None,
                    f"module does not self-register via @{register_fn}; "
                    "unregistered entries are invisible to the CLI, sweeps, "
                    "the parity harness, and the oracle-check suite",
                    line=1,
                )
            return
