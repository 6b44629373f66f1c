"""Algorithm registry: one source of truth for runnable experiments.

Every algorithm module registers itself once::

    from ..registry import register_algorithm

    @register_algorithm(
        "mst",
        aliases=("MST",),
        bound="O(log^4 n)",
        table1_key="MST",
        default_scenario="forest-union-random-weights",
        check=_check,
        describe=_describe,
    )
    def _run(rt, g):
        return MSTAlgorithm(rt, g).run()

and every consumer — the CLI dispatch, ``tests/test_engine_parity.py``,
the benchmarks, and the :class:`repro.api.Session` sweep driver —
resolves algorithms through :func:`get_algorithm` /
:func:`iter_algorithms`.

An :class:`AlgorithmSpec` decomposes a Table 1 row into

* ``default_scenario`` — the :mod:`repro.scenarios` entry that builds the
  standard input instance;
* ``run(rt, g, **options)`` — the distributed execution;
* ``check(g, output, params)`` — the sequential oracle;
* ``describe(g, output, rt, params)`` — the row descriptors (everything
  before the ``correct`` column).

:meth:`AlgorithmSpec.execute` recomposes them into the Table 1 row dict
(same keys, same insertion order), which is pinned by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import TYPE_CHECKING, Any, Callable, Iterator

from .config import Enforcement, NCCConfig
from .errors import ConfigurationError
from .ncc.graph_input import InputGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .butterfly.topology import ButterflyGrid
    from .runtime import NCCRuntime


# ----------------------------------------------------------------------
# Shared experiment profile and workload helpers
# ----------------------------------------------------------------------
def bench_config(seed: int = 0, **overrides: Any) -> NCCConfig:
    """The benchmark simulation profile.

    ``lightweight_sync`` keeps the round accounting of barriers and token
    waves without materializing their messages, because the sweeps run
    hundreds of executions; fidelity tests elsewhere pin the full
    message-level mode.
    """
    base = dict(
        seed=seed,
        enforcement=Enforcement.COUNT,
        extras={"lightweight_sync": True},
    )
    base.update(overrides)
    return NCCConfig(**base)


def describe_workload(
    g: InputGraph, *, with_diameter: bool = False, a_known: int | None = None
) -> dict[str, Any]:
    """The workload-descriptor columns every Table 1 row starts with."""
    from .graphs import arboricity, properties

    lo, hi = arboricity.arboricity_bounds(g)
    # A construction-time bound (e.g. forest_union(k) has a ≤ k) beats the
    # greedy estimate, which can overshoot by a constant factor.
    a_label = min(hi, a_known) if a_known is not None else hi
    row: dict[str, Any] = {
        "n": g.n,
        "m": g.m,
        "a": max(lo, a_label),
        "a_lower": lo,
        "a_greedy": hi,
        "max_degree": g.max_degree,
    }
    if with_diameter:
        row["D"] = properties.diameter(g)
    return row


# ----------------------------------------------------------------------
# The spec
# ----------------------------------------------------------------------
Runner = Callable[..., Any]
OracleCheck = Callable[[InputGraph, Any, dict], bool]
RowDescriber = Callable[[InputGraph, Any, "NCCRuntime", dict], dict]


@dataclass(frozen=True)
class Execution:
    """One completed algorithm execution with everything observable."""

    #: the Table 1 row dict (descriptors + outputs + correct).
    row: dict[str, Any]
    #: the algorithm's native result object.
    output: Any
    #: the runtime the execution ran on (stats, config, round counter).
    runtime: "NCCRuntime"
    #: the input instance.
    graph: InputGraph


@dataclass(frozen=True)
class AlgorithmSpec:
    """Everything the repo knows about one registered algorithm."""

    name: str
    run: Runner | None = None
    aliases: tuple[str, ...] = ()
    summary: str = ""
    #: the paper's round bound, e.g. ``"O(log^4 n)"``.
    bound: str | None = None
    #: Table 1 row key (``"MST"``…); ``None`` for non-Table-1 entries.
    table1_key: str | None = None
    #: sequential oracle: ``(g, output, params) -> bool``.
    check: OracleCheck | None = None
    #: row descriptors: ``(g, output, rt, params) -> dict`` — every column
    #: *before* ``correct`` (``messages``/``violations`` are appended by
    #: :meth:`execute`), in a fixed insertion order.
    describe: RowDescriber | None = None
    #: engine-parity observable override: ``(rt, g) -> comparable``.
    #: Defaults to ``run`` (results are value-comparable dataclasses).
    parity: Callable[..., Any] | None = None
    #: ``"algorithm"`` or ``"subroutine"`` (registered for discovery/docs
    #: but not independently runnable).
    kind: str = "algorithm"
    #: scenario-registry name of the default workload, built for every
    #: run whose spec names no scenario (e.g. ``"forest-union"``).
    default_scenario: str | None = None
    #: workload guarantees this algorithm needs from a scenario, drawn
    #: from :data:`repro.scenarios.KNOWN_REQUIREMENTS` (e.g.
    #: ``("weights",)`` for MST).  Scenario resolution validates them.
    requires: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    @property
    def runnable(self) -> bool:
        """True when the spec can produce Table-1-style rows."""
        return (
            self.run is not None
            and self.default_scenario is not None
            and self.check is not None
            and self.describe is not None
        )

    @property
    def supports_parity(self) -> bool:
        """True when the differential engine-parity harness can replay it."""
        return self.default_scenario is not None and (
            self.parity is not None or self.run is not None
        )

    def require_runnable(self) -> None:
        """Raise :class:`ConfigurationError` unless :attr:`runnable`."""
        if not self.runnable:
            raise ConfigurationError(
                f"algorithm {self.name!r} ({self.kind}) is not independently "
                "runnable; it has no complete workload/run/check/describe entry"
            )

    # ------------------------------------------------------------------
    def workload(self, n: int, a: int = 2, seed: int = 0) -> InputGraph:
        """Build the standard input instance: the default scenario."""
        if self.default_scenario is None:
            raise ConfigurationError(f"algorithm {self.name!r} has no default scenario")
        from .scenarios import get_scenario

        return get_scenario(self.default_scenario).build(n, a, seed)

    def execute(
        self,
        n: int,
        *,
        a: int = 2,
        seed: int = 0,
        config: NCCConfig | None = None,
        graph: InputGraph | None = None,
        bf: "ButterflyGrid | None" = None,
        **options: Any,
    ) -> Execution:
        """Run the full workload→run→oracle→describe pipeline once.

        ``graph`` / ``bf`` allow a driver (:class:`repro.api.Session`) to
        inject cached instances; when omitted the default scenario and the
        runtime's own butterfly are built here.  ``options`` go to the run
        callable (e.g. BFS's ``source``).
        """
        from .runtime import NCCRuntime

        self.require_runnable()
        g = graph if graph is not None else self.workload(n, a, seed)
        rt = NCCRuntime(g.n, config or bench_config(seed), bf=bf)
        output = self.run(rt, g, **options)
        params = {"n": n, "a": a, "seed": seed, **options}
        row = self.describe(g, output, rt, params)
        row["correct"] = self.check(g, output, params)
        row["messages"] = rt.net.stats.messages
        row["violations"] = rt.net.stats.violation_count
        return Execution(row=row, output=output, runtime=rt, graph=g)

    def parity_run(self, rt: "NCCRuntime", *, n: int, a: int = 2, seed: int = 0) -> Any:
        """Run the algorithm on its parity-harness instance and return the
        comparable observable (used by ``tests/test_engine_parity.py``)."""
        if not self.supports_parity:
            raise ConfigurationError(f"algorithm {self.name!r} has no parity runner")
        g = self.workload(n, a, seed)
        fn = self.parity if self.parity is not None else self.run
        return fn(rt, g)


# ----------------------------------------------------------------------
# Registration and lookup
# ----------------------------------------------------------------------
#: Algorithm modules that self-register on import, in the registration
#: order that fixes the Table 1 row order (MST, BFS, MIS, MM, COL first).
_REGISTRY_MODULES = (
    "repro.algorithms.mst",
    "repro.algorithms.bfs",
    "repro.algorithms.mis",
    "repro.algorithms.matching",
    "repro.algorithms.coloring",
    "repro.algorithms.components",
    "repro.algorithms.orientation",
    "repro.algorithms.broadcast_trees",
    "repro.algorithms.identification",
    "repro.algorithms.findmin",
)

_SPECS: dict[str, AlgorithmSpec] = {}
_ALIASES: dict[str, str] = {}
_loaded = False


class UnknownAlgorithmError(ConfigurationError):
    """Raised when a name resolves to no registered algorithm."""


def register_algorithm(
    name: str,
    *,
    aliases: tuple[str, ...] = (),
    summary: str = "",
    bound: str | None = None,
    table1_key: str | None = None,
    check: OracleCheck | None = None,
    describe: RowDescriber | None = None,
    parity: Callable[..., Any] | None = None,
    kind: str = "algorithm",
    default_scenario: str | None = None,
    requires: tuple[str, ...] = (),
) -> Callable[[Runner | None], Runner | None]:
    """Class/function decorator registering an algorithm's run callable.

    The decorated callable (``(rt, g, **options) -> result``) is returned
    unchanged; the registry keeps an :class:`AlgorithmSpec` built from it
    plus the declared pieces.  Its keyword parameters are the options a
    ``RunSpec.extras`` may set (anything else is rejected at
    canonicalization).  Registering the same canonical name twice
    replaces the entry (latest wins), so modules are reload-safe.

    Registration is the integration point: a registered (runnable)
    algorithm is automatically runnable by name through ``RunSpec`` /
    ``Session``, every CLI subcommand (``run``/``sweep``/``matrix``),
    the engine-parity harness, and the oracle-check suite — no other
    wiring needed.

    Parameters
    ----------
    name / aliases:
        Canonical lookup name (lowercased) plus alternate spellings
        (``"MM"`` → ``matching``); all resolve via :func:`get_algorithm`.
    summary / bound / table1_key:
        Human-facing description, the paper's round bound (printed next
        to rows), and the Table 1 row key when the algorithm appears
        there.
    check / describe:
        Sequential-oracle correctness check and row describer — these
        are what make the algorithm's results *verifiable* in sweeps.
    parity:
        Optional callable exercised by the differential engine-parity
        harness.
    kind:
        ``"algorithm"`` (runnable) or ``"subroutine"`` (resolvable but
        not independently runnable, e.g. ``findmin``).
    default_scenario / requires:
        The scenario every spec without one runs on, and the guarantee
        names a scenario must provide (``"weights"``, ``"connected"``) — checked by the
        scenario compatibility layer before any run.
    """

    def _register(run: Runner | None) -> Runner | None:
        spec = AlgorithmSpec(
            name=name.lower(),
            run=run,
            aliases=tuple(aliases),
            summary=summary,
            bound=bound,
            table1_key=table1_key,
            check=check,
            describe=describe,
            parity=parity,
            kind=kind,
            default_scenario=default_scenario,
            requires=tuple(requires),
        )
        _add_spec(spec)
        return run

    return _register


def _add_spec(spec: AlgorithmSpec) -> None:
    _SPECS[spec.name] = spec
    _ALIASES[spec.name] = spec.name
    for alias in spec.aliases:
        _ALIASES[alias.lower()] = spec.name
    if spec.table1_key:
        _ALIASES.setdefault(spec.table1_key.lower(), spec.name)


def _ensure_loaded() -> None:
    """Import every self-registering algorithm module exactly once."""
    global _loaded
    if _loaded:
        return
    _loaded = True  # set first so a lookup during the imports cannot recurse
    try:
        for module in _REGISTRY_MODULES:
            import_module(module)
    except Exception:
        # Leave the registry retryable and the real ImportError visible —
        # a sticky half-populated registry would surface as misleading
        # UnknownAlgorithmErrors on every later lookup.
        _loaded = False
        raise


def canonical_name(name: str) -> str:
    """Resolve a name or alias (case-insensitive) to the canonical key."""
    _ensure_loaded()
    key = _ALIASES.get(name.strip().lower())
    if key is None:
        # Suggest only runnable entries, sorted: registration order follows
        # transitive imports, and offering e.g. the findmin subroutine would
        # just set up a second error.
        raise UnknownAlgorithmError(
            f"unknown algorithm {name!r}; known algorithms: "
            f"{', '.join(sorted(algorithm_names(runnable_only=True)))}"
        )
    return key


def get_algorithm(name: str) -> AlgorithmSpec:
    """Look up a registered algorithm by canonical name or alias."""
    return _SPECS[canonical_name(name)]


def algorithm_names(*, runnable_only: bool = False) -> tuple[str, ...]:
    """Canonical names in registration order."""
    _ensure_loaded()
    return tuple(
        s.name for s in _SPECS.values() if s.runnable or not runnable_only
    )


def iter_algorithms() -> Iterator[AlgorithmSpec]:
    """All registered specs in registration order."""
    _ensure_loaded()
    yield from _SPECS.values()


#: the paper's Table 1 row order (registration order can't pin it: any
#: direct ``import repro.algorithms.<x>`` before first registry use would
#: reorder the dict).
_TABLE1_ORDER = ("MST", "BFS", "MIS", "MM", "COL")


def table1_specs() -> tuple[AlgorithmSpec, ...]:
    """The Table 1 rows in the paper's row order (future rows with keys
    outside :data:`_TABLE1_ORDER` follow in registration order)."""
    _ensure_loaded()
    specs = [s for s in _SPECS.values() if s.table1_key]
    known = len(_TABLE1_ORDER)
    return tuple(
        sorted(
            specs,
            key=lambda s: (
                _TABLE1_ORDER.index(s.table1_key)
                if s.table1_key in _TABLE1_ORDER
                else known
            ),
        )
    )
