"""The reprolint rule registry: plugin AST visitors over one shared parse.

Mirrors :mod:`repro.registry`: every rule module registers itself on
import via the :func:`register_rule` decorator, and every consumer — the
runner, the CLI's ``--select``/``--list-rules``, the docs generator in
``docs/STATIC_ANALYSIS.md`` — resolves rules through :func:`iter_rules` /
:func:`get_rule`.  A rule is a class with

* ``id`` — the stable finding code (``"NCC001"``…), used by baselines and
  ``# reprolint: disable=`` suppressions;
* ``name`` / ``invariant`` — a short slug and the ROADMAP invariant the
  rule guards (printed by ``--list-rules`` and the docs);
* ``check(ctx)`` — yields :class:`Finding`\\ s for one parsed file.

Rules never parse source themselves: the runner parses each file exactly
once into a :class:`FileContext` (AST + source lines + import map) and
hands the same context to every rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from importlib import import_module
from typing import Iterator

from ...errors import ConfigurationError

#: Rule modules that self-register on import (registration order fixes the
#: ``--list-rules`` order; finding order is position-sorted regardless).
_RULE_MODULES = (
    "repro.lint.rules.ncc001_determinism",
    "repro.lint.rules.ncc002_hotpath",
    "repro.lint.rules.ncc003_registry",
    "repro.lint.rules.ncc004_schema",
    "repro.lint.rules.ncc005_engine",
    "repro.lint.rules.ncc006_forksafety",
    "repro.lint.rules.ncc007_readonly",
)

_RULES: dict[str, "Rule"] = {}
_loaded = False


class UnknownRuleError(ConfigurationError):
    """Raised when a ``--select`` name resolves to no registered rule."""


# ----------------------------------------------------------------------
# Findings and per-file context
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Finding:
    """One rule violation at a source position."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    @property
    def baseline_key(self) -> str:
        """Baseline bucket: findings are grandfathered per (file, rule),
        not per line, so unrelated edits moving a violation do not churn
        the baseline file."""
        return f"{self.path}::{self.rule}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


#: first-lines directive letting a fixture snippet be linted *as if* it
#: lived at a library path (rule scoping is path-based; the corpus under
#: ``tests/lint_fixtures/`` uses this to exercise path-scoped rules).
PATH_DIRECTIVE = "# reprolint: path="


@dataclass
class FileContext:
    """One parsed file, shared by every rule (single parse per file)."""

    #: path as discovered/given (repo-relative in normal runs).
    path: str
    #: path used for rule scoping — differs from ``path`` only when the
    #: file carries a ``# reprolint: path=`` fixture directive.
    effective_path: str
    tree: ast.Module
    lines: list[str]
    _imports: dict[str, str] | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    @property
    def imports(self) -> dict[str, str]:
        """Local name -> dotted origin, for module aliases and from-imports.

        ``import random`` -> ``{"random": "random"}``;
        ``import numpy as np`` -> ``{"np": "numpy"}``;
        ``from random import Random as R`` -> ``{"R": "random.Random"}``.
        Relative imports keep their leading dots (``from ..rng import x``
        -> ``{"x": "..rng.x"}``), enough for suffix matching.
        """
        if self._imports is None:
            mapping: dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        mapping[alias.asname or alias.name.split(".")[0]] = (
                            alias.name if alias.asname else alias.name.split(".")[0]
                        )
                elif isinstance(node, ast.ImportFrom):
                    prefix = "." * node.level + (node.module or "")
                    for alias in node.names:
                        if alias.name == "*":
                            continue
                        mapping[alias.asname or alias.name] = (
                            f"{prefix}.{alias.name}" if prefix else alias.name
                        )
            self._imports = mapping
        return self._imports

    # ------------------------------------------------------------------
    def path_is(self, *suffixes: str) -> bool:
        """True when the effective path ends with any given posix suffix
        (matched at a path-component boundary)."""
        p = self.effective_path
        for suffix in suffixes:
            if p == suffix or p.endswith("/" + suffix):
                return True
        return False

    def under(self, *dirnames: str) -> bool:
        """True when any path component equals one of ``dirnames``."""
        parts = self.effective_path.split("/")
        return any(d in parts for d in dirnames)

    @property
    def in_library(self) -> bool:
        """True for files in the installed library (``src/repro/...``)."""
        return "repro" in self.effective_path.split("/") and not self.under(
            "tests", "benchmarks", "examples"
        )

    def resolves_to(self, node: ast.expr, dotted: str) -> bool:
        """True when ``node`` is a reference to ``dotted`` (alias-aware).

        Handles ``Name`` (from-imports / module aliases) and one-level
        ``Attribute`` chains (``module.attr``), which covers every pattern
        the rules care about (``random.Random``, ``json.dumps``, ...).
        """
        want_module, _, want_attr = dotted.rpartition(".")
        if isinstance(node, ast.Name):
            origin = self.imports.get(node.id)
            return origin is not None and (
                origin == dotted or origin.endswith("." + dotted)
            )
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.attr != want_attr:
                return False
            origin = self.imports.get(node.value.id)
            return origin is not None and (
                origin == want_module or origin.endswith("." + want_module)
            )
        return False


# ----------------------------------------------------------------------
# The rule protocol and registration
# ----------------------------------------------------------------------
class Rule:
    """Base class: subclasses set the metadata and implement :meth:`check`."""

    id: str = ""
    name: str = ""
    #: the ROADMAP invariant this rule makes statically checkable.
    invariant: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError

    # Convenience for subclasses.
    def finding(
        self, ctx: FileContext, node: ast.AST | None, message: str,
        *, line: int | None = None,
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=ctx.path,
            line=line if line is not None else getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding one rule instance to the registry (latest
    registration wins, so rule modules are reload-safe)."""
    if not cls.id or not cls.id.startswith("NCC"):
        raise ConfigurationError(f"rule {cls.__name__} needs a stable NCCxxx id")
    _RULES[cls.id] = cls()
    return cls


def _ensure_loaded() -> None:
    global _loaded
    if _loaded:
        return
    _loaded = True  # set first so a lookup during the imports cannot recurse
    try:
        for module in _RULE_MODULES:
            import_module(module)
    except Exception:
        _loaded = False
        raise


def get_rule(rule_id: str) -> Rule:
    _ensure_loaded()
    rule = _RULES.get(rule_id.strip().upper())
    if rule is None:
        raise UnknownRuleError(
            f"unknown rule {rule_id!r}; known rules: {', '.join(sorted(_RULES))}"
        )
    return rule


def iter_rules() -> Iterator[Rule]:
    """All registered rules in id order."""
    _ensure_loaded()
    for rule_id in sorted(_RULES):
        yield _RULES[rule_id]


def rule_ids() -> tuple[str, ...]:
    _ensure_loaded()
    return tuple(sorted(_RULES))
