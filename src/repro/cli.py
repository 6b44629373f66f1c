"""Command-line interface: run algorithms, regenerate Table 1, drive sweeps.

Usage::

    python -m repro info --n 64
    python -m repro scenarios
    python -m repro run mst --n 48 --a 2 --seed 1
    python -m repro run mis --n 64 --scenario pa-heavy-tail
    python -m repro run mst --n 48 --engine batched
    python -m repro table1 --rows MIS,MM --ns 32,64 --a 2
    python -m repro separation --ns 32,64,128
    python -m repro sweep --algos mst,mis --ns 64,128 --seeds 0:5 \
        --jobs 8 --out results.jsonl
    python -m repro sweep --algos mis --ns 64 --scenarios grid,star,ring-of-chords
    python -m repro sweep --algos mis --ns 32 --seeds 0:500 --jobs 8 \
        --store sweep_store          # durable + resumable (manifest inside)
    python -m repro sweep --resume sweep_store/manifest.jsonl --jobs 8
    python -m repro query sweep_store --where correct=false
    python -m repro query sweep_store --group-by algorithm,n \
        --agg count --agg mean:rounds
    python -m repro matrix --algos mis,matching,components \
        --scenarios forest-union,grid,star,cycle,pa-heavy-tail,ring-of-chords \
        --n 32 --jobs 4 --out MATRIX_results.jsonl
    python -m repro lint src tests benchmarks --strict

``run`` and ``table1`` are thin wrappers over :class:`repro.api.Session`
and print the same row structure the benchmarks and EXPERIMENTS.md use;
``sweep`` fans a whole scenario grid out over worker processes and writes
canonical :class:`~repro.api.RunReport` JSONL (``--out -`` streams the
JSONL to stdout and the human summary to stderr).  With ``--store`` the
sweep also persists every row to a sharded append-only result store the
moment it completes and journals progress to a manifest, so an
interrupted sweep restarts from where it stopped via ``--resume`` —
see docs/OPERATIONS.md.  ``query`` filters/aggregates a store (or a flat
``--out`` JSONL) without pandas.  Algorithms are resolved through
:mod:`repro.registry`, so anything registered there — including
non-Table-1 entries like ``components`` — is runnable by name or alias.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .analysis.reporting import format_table
from .api import (
    Manifest,
    RunSpec,
    Session,
    WorkerCrashError,
    matrix_grid,
    sweep_grid,
)
from .config import NCCConfig, known_engines
from .errors import ConfigurationError
from .lint import add_lint_arguments
from .lint import run_from_args as _lint_from_args
from .registry import (
    UnknownAlgorithmError,
    algorithm_names,
    bench_config,
    get_algorithm,
    table1_specs,
)
from .scenarios import (
    UnknownScenarioError,
    canonical_scenario_name,
    scenario_names,
)


def _engine_config(args: argparse.Namespace) -> NCCConfig | None:
    """Benchmark-profile config honoring ``--engine`` (None = runner default)."""
    if getattr(args, "engine", None) is None:
        return None
    return bench_config(args.seed, engine=args.engine)


# ----------------------------------------------------------------------
# argparse value parsers (argument errors exit with code 2, no tracebacks)
# ----------------------------------------------------------------------
def _dedup_values(values: list, what: str) -> list:
    """Order-preserving dedupe of one axis list, noting drops on stderr.

    A repeated axis value (``--ns 64,64``) used to multiply the sweep grid
    with identical rows; the grid builder now dedupes too, but the note
    belongs here where the user's literal input is still visible.
    """
    seen: set = set()
    out: list = []
    dropped = 0
    for v in values:
        if v in seen:
            dropped += 1
        else:
            seen.add(v)
            out.append(v)
    if dropped:
        print(
            f"note: ignoring {dropped} duplicate {what} value(s)",
            file=sys.stderr,
        )
    return out


def _ints_arg(text: str) -> list[int]:
    """Comma-separated ints, e.g. ``32,64,128``."""
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of integers, got {text!r}"
        ) from None
    return _dedup_values(values, "size")


def _seeds_arg(text: str) -> list[int]:
    """Seed list: ``0:5`` (half-open range) or ``0,1,4``."""
    try:
        if ":" in text:
            lo_text, _, hi_text = text.partition(":")
            lo, hi = int(lo_text or 0), int(hi_text)
            if hi <= lo:
                raise argparse.ArgumentTypeError(
                    f"empty seed range {text!r} (want lo:hi with hi > lo)"
                )
            return list(range(lo, hi))
        return _dedup_values(
            [int(x) for x in text.split(",") if x.strip()], "seed"
        )
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected seeds as 'lo:hi' or a comma-separated list, got {text!r}"
        ) from None


def _shards_arg(text: str) -> int:
    """Shard-worker count for the sharded engine: an integer >= 1.
    Validated here so ``--shards banana`` and ``--shards 0`` are argparse
    errors (exit 2), same as every other axis flag."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer shard count, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"shard count must be >= 1, got {value}"
        )
    return value


def _rows_arg(text: str) -> list[str]:
    """Comma-separated Table 1 row keys, e.g. ``MIS,MM``."""
    rows = [r.strip().upper() for r in text.split(",")]
    if text.strip() and any(not r for r in rows):
        raise argparse.ArgumentTypeError(
            f"empty row name in {text!r}; expected e.g. MIS,MM"
        )
    return [r for r in rows if r]


def _names_arg(what: str):
    """Parser factory for a comma-separated name list (the error message
    names the right domain: algorithms for --algos, engines for --engines)."""

    def parse(text: str) -> list[str]:
        names = [x.strip() for x in text.split(",") if x.strip()]
        if not names:
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated list of {what}, got {text!r}"
            )
        return _dedup_values(names, what.rstrip("s"))

    return parse


def _runnable_algorithm(name: str):
    """Resolve a CLI algorithm name to a *runnable* spec or raise
    :class:`UnknownAlgorithmError` with the pick-one-of message (registry
    entries like the ``findmin`` subroutine resolve but cannot run)."""
    alg = get_algorithm(name)  # raises UnknownAlgorithmError with the list
    if not alg.runnable:
        raise UnknownAlgorithmError(
            f"algorithm {name!r} is a {alg.kind}, not independently runnable; "
            f"pick one of {', '.join(sorted(algorithm_names(runnable_only=True)))}"
        )
    return alg


def _print_incidents(command: str, incidents: Sequence[dict]) -> None:
    """Stderr one-liner when a run survived worker crashes (sharded shard
    workers or sweep pool workers).  The canonical outputs stay silent
    about recovery by design — this is the operator-facing surface."""
    if not incidents:
        return
    kinds: dict[str, int] = {}
    for inc in incidents:
        kind = str(inc.get("kind", "incident"))
        kinds[kind] = kinds.get(kind, 0) + 1
    detail = ", ".join(f"{k} x{v}" for k, v in sorted(kinds.items()))
    print(
        f"{command}: survived {len(incidents)} incident(s): {detail}",
        file=sys.stderr,
    )


def _traced_run(session: Session, spec: RunSpec, label: str, path: str):
    """Run one spec under a fresh tracer and write the Chrome trace doc."""
    from .telemetry.export import build_chrome_doc, payload_rows, write_chrome_trace
    from .telemetry.metrics import METRICS, MetricRegistry
    from .telemetry.tracer import Tracer, install_tracer, uninstall_tracer

    counters_before = METRICS.snapshot()
    tracer = Tracer(label=f"run-{label}", scope="run")
    previous = install_tracer(tracer)
    try:
        report = session.run(spec)
    finally:
        uninstall_tracer(previous)
    payload = tracer.to_payload()
    payload["counters"] = MetricRegistry.delta(counters_before, payload["counters"])
    write_chrome_trace(path, build_chrome_doc(payload_rows(payload)))
    return report


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_info(args: argparse.Namespace) -> int:
    cfg = NCCConfig()
    n = args.n
    rows = [
        ["n", n],
        ["capacity (msgs/node/round)", cfg.capacity(n)],
        ["message size (bits)", cfg.message_bits(n)],
        ["injection batch", cfg.batch_size(n)],
        ["butterfly dimension d", (n.bit_length() - 1) if n > 1 else 0],
        ["round engine", cfg.resolve_engine()],
    ]
    print(format_table(["model parameter", "value"], rows, title=f"NCC model at n={n}"))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    try:
        alg = _runnable_algorithm(args.algorithm)
    except UnknownAlgorithmError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    session = Session()
    try:
        spec = RunSpec(
            alg.name, args.n, a=args.a, seed=args.seed, engine=args.engine,
            scenario=args.scenario, shards=args.shards,
        )
        if args.trace:
            report = _traced_run(session, spec, alg.name, args.trace)
        else:
            report = session.run(spec)
    except ConfigurationError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 2
    _print_incidents("run", session.last_incidents)
    if args.trace:
        print(
            f"run: trace written to {args.trace} "
            f"(summarize with `python -m repro trace {args.trace}`)",
            file=sys.stderr,
        )
    row = report.row
    key = alg.table1_key or alg.name
    bound = f" (bound {alg.bound})" if alg.bound else ""
    where = f"{report.spec.scenario} " if report.spec.scenario else ""
    print(
        format_table(
            list(row.keys()),
            [list(row.values())],
            title=f"{key} on {where}n={args.n}{bound}",
        )
    )
    return 0 if row["correct"] else 1


def cmd_table1(args: argparse.Namespace) -> int:
    bounds = {s.table1_key: s.bound for s in table1_specs()}
    rows_req = args.rows if args.rows else list(bounds)
    session = Session()
    exit_code = 0
    for name in rows_req:
        if name not in bounds:
            print(f"skipping unknown row {name!r}", file=sys.stderr)
            exit_code = 2
            continue
        try:
            specs = [
                RunSpec(name, n, a=args.a, seed=args.seed, engine=args.engine)
                for n in args.ns
            ]
        except ConfigurationError as exc:
            print(f"table1: {exc}", file=sys.stderr)
            return 2
        results = [session.run(spec).row for spec in specs]
        # Columns in the describers' order (first occurrence across rows),
        # as `run` prints them.
        headers = list(dict.fromkeys(k for r in results for k in r))
        print(
            format_table(
                headers,
                [[r.get(h, "") for h in headers] for r in results],
                title=f"T1-{name}  (bound {bounds[name]})",
            )
        )
        print()
        if not all(r["correct"] for r in results):
            exit_code = 1
    return exit_code


def _resolve_scenarios(names: Sequence[str] | None, command: str) -> list[str] | None:
    """Resolve ``--scenarios`` names/aliases (``all`` = every registered
    scenario); prints the clean pick-one-of error and returns None on
    failure."""
    if names is None:
        return None
    if list(names) == ["all"]:
        return list(scenario_names())
    try:
        return [canonical_scenario_name(name) for name in names]
    except UnknownScenarioError as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return None


def cmd_sweep(args: argparse.Namespace) -> int:
    manifest: "Manifest | str | None"
    if args.resume is not None:
        # The manifest journals the canonical grid, store path, and shard
        # count; the axis flags describe a *new* grid and would silently
        # disagree with it, so reject the telltale one.
        if args.algos is not None:
            print(
                "sweep: --resume reconstructs the grid from the manifest; "
                "drop --algos (and the other axis flags)",
                file=sys.stderr,
            )
            return 2
        try:
            mani = Manifest.load(args.resume)
        except ConfigurationError as exc:
            print(f"sweep: {exc}", file=sys.stderr)
            return 2
        if mani.store is None:
            print(
                f"sweep: manifest {args.resume!r} records no result store; "
                "it cannot be resumed",
                file=sys.stderr,
            )
            return 2
        specs = list(mani.specs)
        store, manifest, shards = mani.store, mani, mani.shards
    else:
        if args.algos is None:
            print(
                "sweep: provide --algos for a new sweep, or "
                "--resume MANIFEST to continue one",
                file=sys.stderr,
            )
            return 2
        try:
            algos = [_runnable_algorithm(name).name for name in args.algos]
        except UnknownAlgorithmError as exc:
            print(f"sweep: {exc}", file=sys.stderr)
            return 2
        for engine in args.engines or ():
            if engine not in known_engines():
                print(
                    f"sweep: unknown engine {engine!r}; choose from "
                    f"{', '.join(sorted(known_engines()))}",
                    file=sys.stderr,
                )
                return 2
        scenarios = _resolve_scenarios(args.scenarios, "sweep")
        if args.scenarios is not None and scenarios is None:
            return 2
        try:
            specs = sweep_grid(
                algos,
                args.ns,
                a=args.a,
                seeds=args.seeds,
                engines=args.engines or [args.engine],
                enforcement=args.enforcement,
                scenarios=scenarios or [None],
                engine_shards=args.engine_shards,
            )
        except ConfigurationError as exc:
            print(f"sweep: {exc}", file=sys.stderr)
            return 2
        if not specs:
            print("sweep: empty grid (no sizes or no seeds)", file=sys.stderr)
            return 2
        store, shards = args.store, args.shards
        manifest = args.manifest
        if manifest is None and store is not None:
            manifest = os.path.join(store, "manifest.jsonl")
        if manifest is not None and store is None:
            print("sweep: --manifest requires --store", file=sys.stderr)
            return 2
    summary_out = sys.stderr if args.out == "-" else sys.stdout
    telemetry = None
    if args.telemetry is not None:
        from .telemetry.sweep import SweepTelemetry

        telemetry = SweepTelemetry(args.telemetry)
    try:
        with Session() as session:
            reports = session.run_many(
                specs,
                jobs=args.jobs,
                out=args.out,
                store=store,
                manifest=manifest,
                shards=shards,
                max_rows=args.max_rows,
                telemetry=telemetry,
            )
    except WorkerCrashError as exc:
        # The manifest (if any) journaled every completed row; resuming
        # after fixing the cause recomputes nothing already done.
        print(f"sweep: {exc}", file=sys.stderr)
        return 1
    except ConfigurationError as exc:
        # e.g. an algorithm×scenario pairing the registry rejects — a
        # clean error, not a traceback (`matrix` skips such cells instead).
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    _print_incidents("sweep", session.last_sweep_incidents)
    if telemetry is not None:
        paths = telemetry.finalize()
        print(
            f"sweep: telemetry written to {args.telemetry} "
            f"(summarize with `python -m repro trace {paths['trace']}`)",
            file=sys.stderr,
        )
    if store is not None:
        # Store-backed sweeps are the 10^3..10^4-run path: a per-row table
        # would be unreadable, so print an aggregate status line instead
        # (`repro query` is the drill-down).
        mani_path = manifest.path if isinstance(manifest, Manifest) else manifest
        done, total = len(reports), len(specs)
        failed = sum(1 for r in reports if not r.correct)
        print(
            f"sweep: {done}/{total} runs done ({args.jobs} jobs), "
            f"{failed} incorrect; store {store}",
            file=summary_out,
        )
        if done < total:
            print(
                f"sweep: resume with: python -m repro sweep "
                f"--resume {mani_path}",
                file=summary_out,
            )
    else:
        show_scenario = any(r.spec.scenario for r in reports)
        headers = ["algorithm", "n", "a", "seed", "engine", "rounds",
                   "messages", "correct"]
        if show_scenario:
            headers.insert(1, "scenario")
        print(
            format_table(
                headers,
                [
                    [
                        r.spec.algorithm,
                        *([r.spec.scenario] if show_scenario else []),
                        r.spec.n,
                        r.spec.a,
                        r.spec.seed,
                        r.engine,
                        r.rounds,
                        r.messages,
                        r.correct,
                    ]
                    for r in reports
                ],
                title=f"sweep: {len(reports)} runs ({args.jobs} jobs)",
            ),
            file=summary_out,
        )
    if args.out and args.out != "-":
        print(f"wrote {len(reports)} reports to {args.out}", file=summary_out)
    return 0 if all(r.correct for r in reports) else 1


def cmd_query(args: argparse.Namespace) -> int:
    from .api.store import (
        FIELDS,
        StoreError,
        aggregate,
        field_value,
        filter_reports,
        load_any,
        parse_aggs,
        parse_where,
    )

    try:
        where = parse_where(args.where or [])
        reports = list(filter_reports(load_any(args.path), where))
        if args.jsonl:
            for r in reports:
                print(r.to_json_line())
            return 0
        if args.group_by is not None or args.agg:
            group_by = args.group_by or []
            aggs = parse_aggs(args.agg or ["count"])
            headers, rows = aggregate(reports, group_by, aggs)
            title = f"query: {len(reports)} reports"
        else:
            headers = args.select or [
                "algorithm", "scenario", "n", "seed", "engine",
                "rounds", "messages", "correct",
            ]
            for h in headers:
                if h not in FIELDS:
                    raise StoreError(
                        f"unknown query field {h!r}; known fields: "
                        f"{', '.join(sorted(FIELDS))}"
                    )
            shown = reports if args.limit is None else reports[: args.limit]
            rows = [[field_value(r, h) for h in headers] for r in shown]
            title = f"query: {len(shown)} of {len(reports)} reports"
    except ConfigurationError as exc:
        print(f"query: {exc}", file=sys.stderr)
        return 2
    print(format_table(headers, rows, title=title))
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    try:
        if args.algos:
            algos = [_runnable_algorithm(name).name for name in args.algos]
        else:
            algos = list(algorithm_names(runnable_only=True))
    except UnknownAlgorithmError as exc:
        print(f"matrix: {exc}", file=sys.stderr)
        return 2
    scenarios = _resolve_scenarios(args.scenarios or ["all"], "matrix")
    if scenarios is None:
        return 2
    try:
        specs, skipped = matrix_grid(
            algos,
            scenarios,
            n=args.n,
            a=args.a,
            seed=args.seed,
            engine=args.engine,
            enforcement=args.enforcement,
        )
    except ConfigurationError as exc:
        print(f"matrix: {exc}", file=sys.stderr)
        return 2
    if not specs:
        print("matrix: empty grid (every cell incompatible?)", file=sys.stderr)
        return 2
    summary_out = sys.stderr if args.out == "-" else sys.stdout
    reports = Session().run_many(specs, jobs=args.jobs, out=args.out)
    by_cell = {(r.spec.algorithm, r.spec.scenario): r for r in reports}
    rows = []
    for alg in algos:
        cells: list[str] = [alg]
        for scn in scenarios:
            if (alg, scn) in by_cell:
                r = by_cell[(alg, scn)]
                cells.append(str(r.rounds) if r.correct else f"!{r.rounds}")
            else:
                cells.append("-")
        rows.append(cells)
    print(
        format_table(
            ["algorithm \\ scenario", *scenarios],
            rows,
            title=(
                f"matrix: {len(reports)} runs at n={args.n} "
                f"(rounds; '!' = incorrect, '-' = incompatible)"
            ),
        ),
        file=summary_out,
    )
    if skipped:
        print(
            "matrix: skipped incompatible cells: "
            + ", ".join(f"{a}x{s}" for a, s in skipped),
            file=summary_out,
        )
    if args.out and args.out != "-":
        print(f"wrote {len(reports)} reports to {args.out}", file=summary_out)
    return 0 if all(r.correct for r in reports) else 1


def cmd_scenarios(args: argparse.Namespace) -> int:
    from .scenarios import iter_scenarios

    rows = []
    for s in iter_scenarios():
        g = s.guarantees(args.n)
        rows.append([
            s.name,
            g["arboricity"],
            "yes" if g["connected"] else "no",
            "yes" if g["weighted"] else "no",
            g["diameter"],
            g["degrees"],
            s.summary,
        ])
    print(
        format_table(
            ["scenario", f"a<= (n={args.n})", "connected", "weighted",
             "diameter", "degrees", "summary"],
            rows,
            title=f"{len(rows)} registered scenarios",
        )
    )
    return 0


def cmd_separation(args: argparse.Namespace) -> int:
    from .baselines.congested_clique import gossip_congested_clique, gossip_ncc
    from .runtime import NCCRuntime

    rows = []
    for n in args.ns:
        cc = gossip_congested_clique(n)
        rt = NCCRuntime(n, _engine_config(args) or bench_config(args.seed))
        ncc_rounds = gossip_ncc(rt)
        rows.append([n, cc.rounds, int(cc.bits), ncc_rounds, int(rt.net.stats.bits)])
    print(
        format_table(
            ["n", "CC rounds", "CC bits", "NCC rounds", "NCC bits"],
            rows,
            title="Gossip: Congested Clique vs Node-Capacitated Clique",
        )
    )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .telemetry.export import load_trace, summarize

    try:
        doc = load_trace(args.path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 2
    print(summarize(doc))
    if args.bounds:
        from .telemetry.bounds import render_bounds

        print()
        print(render_bounds(doc))
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    # Derived at parse time so engines added via register_engine are
    # selectable (the static ENGINE_CHOICES tuple only knows the built-ins).
    engines = sorted(known_engines())

    p = argparse.ArgumentParser(
        prog="repro",
        description="Node-Capacitated Clique reproduction (SPAA 2019)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="print the model parameters for a given n")
    p_info.add_argument("--n", type=int, default=64)
    p_info.set_defaults(fn=cmd_info)

    p_run = sub.add_parser("run", help="run one algorithm and print its row")
    p_run.add_argument("algorithm", help="mst | bfs | mis | matching | coloring | ...")
    p_run.add_argument("--n", type=int, default=48)
    p_run.add_argument("--a", type=int, default=2)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--scenario", default=None,
                       help="workload scenario (see `repro scenarios`), "
                            "e.g. grid, pa-heavy-tail, grid-unique-weights")
    p_run.add_argument("--engine", choices=engines, default=None,
                       help="round engine (default: config default)")
    p_run.add_argument("--shards", type=_shards_arg, default=None,
                       help="shard-worker count (implies --engine sharded; "
                            "never changes the run's output — a pure "
                            "performance knob)")
    p_run.add_argument("--trace", default=None, metavar="PATH",
                       help="record a telemetry trace of the run to PATH "
                            "(Chrome trace-event JSON; never changes the "
                            "run's output — view in Perfetto or summarize "
                            "with `repro trace PATH`)")
    p_run.set_defaults(fn=cmd_run)

    p_t1 = sub.add_parser("table1", help="regenerate Table 1 rows")
    p_t1.add_argument("--rows", type=_rows_arg, default=None,
                      help="comma list, e.g. MIS,MM (default all)")
    p_t1.add_argument("--ns", type=_ints_arg, default="32,64",
                      help="comma list of sizes")
    p_t1.add_argument("--a", type=int, default=2)
    p_t1.add_argument("--seed", type=int, default=0)
    p_t1.add_argument("--engine", choices=engines, default=None,
                      help="round engine (default: config default)")
    p_t1.set_defaults(fn=cmd_table1)

    p_sw = sub.add_parser(
        "sweep", help="run a scenario grid in parallel, emit RunReport JSONL"
    )
    p_sw.add_argument("--algos", type=_names_arg("algorithms"), default=None,
                      help="comma list of algorithms, e.g. mst,mis "
                           "(required unless --resume)")
    p_sw.add_argument("--ns", type=_ints_arg, default="32,64",
                      help="comma list of sizes")
    p_sw.add_argument("--a", type=int, default=2)
    p_sw.add_argument("--seeds", type=_seeds_arg, default="0",
                      help="seed range lo:hi (half-open) or comma list")
    p_sw.add_argument("--engine", choices=engines, default=None,
                      help="round engine for every run (default: config default)")
    p_sw.add_argument("--engines", type=_names_arg("engines"), default=None,
                      help="comma list of engines — the grid runs each spec "
                           "under each (overrides --engine)")
    p_sw.add_argument("--scenarios", type=_names_arg("scenarios"), default=None,
                      help="comma list of workload scenarios ('all' = every "
                           "registered family); omit for each algorithm's "
                           "default workload")
    p_sw.add_argument("--engine-shards", type=_shards_arg, default=None,
                      metavar="K",
                      help="shard-worker count for the sharded engine "
                           "(implies --engine sharded for every run; "
                           "distinct from --shards, the store partition "
                           "count)")
    p_sw.add_argument("--enforcement", choices=["strict", "count", "drop"],
                      default=None, help="capacity enforcement (default: count)")
    p_sw.add_argument("--jobs", type=int, default=1,
                      help="worker processes (default 1 = serial)")
    p_sw.add_argument("--out", default=None,
                      help="JSONL output path ('-' = stdout)")
    p_sw.add_argument("--store", default=None, metavar="DIR",
                      help="persist each completed run to a sharded "
                           "append-only result store (durable + resumable; "
                           "query it with `repro query DIR`)")
    p_sw.add_argument("--shards", type=int, default=1,
                      help="store partition count when creating DIR "
                           "(an existing store's count wins; default 1)")
    p_sw.add_argument("--manifest", default=None, metavar="PATH",
                      help="progress journal path (default: "
                           "DIR/manifest.jsonl inside --store)")
    p_sw.add_argument("--resume", default=None, metavar="MANIFEST",
                      help="continue an interrupted sweep: grid, store, and "
                           "completed prefix all come from the manifest")
    p_sw.add_argument("--max-rows", type=int, default=None, metavar="N",
                      help="run at most N rows this invocation, then stop "
                           "(the manifest stays resumable)")
    p_sw.add_argument("--telemetry", default=None, metavar="DIR",
                      help="record per-row telemetry and write a merged "
                           "trace.json / events.jsonl / summary.txt into "
                           "DIR (sidecar only — the canonical JSONL output "
                           "is byte-identical with or without it)")
    p_sw.set_defaults(fn=cmd_sweep)

    p_tr = sub.add_parser(
        "trace",
        help="summarize a telemetry trace (from `run --trace` or "
             "`sweep --telemetry`)",
    )
    p_tr.add_argument("path", help="Chrome trace-event JSON file, e.g. "
                                   "out.json or DIR/trace.json")
    p_tr.add_argument("--bounds", action="store_true",
                      help="compare measured rounds against each "
                           "algorithm's registered Table 1 bound")
    p_tr.set_defaults(fn=cmd_trace)

    p_q = sub.add_parser(
        "query",
        help="filter/aggregate a result store or RunReport JSONL file",
    )
    p_q.add_argument("path", help="store directory (from sweep --store) or "
                                  "flat JSONL file (from sweep --out)")
    p_q.add_argument("--where", action="append", default=None,
                     metavar="FIELD=VALUE",
                     help="keep reports where FIELD equals VALUE (JSON "
                          "scalar or string; repeatable, terms AND)")
    p_q.add_argument("--select", type=_names_arg("fields"), default=None,
                     help="comma list of columns for the per-report table")
    p_q.add_argument("--group-by", type=_names_arg("fields"), default=None,
                     help="comma list of fields to group aggregates by")
    p_q.add_argument("--agg", action="append", default=None,
                     metavar="FN:FIELD",
                     help="aggregate per group: count, or fn:field with fn "
                          "in sum,min,max,mean (repeatable; default count)")
    p_q.add_argument("--limit", type=int, default=None,
                     help="cap the per-report table at N rows")
    p_q.add_argument("--jsonl", action="store_true",
                     help="emit matching reports as canonical JSONL instead "
                          "of a table")
    p_q.set_defaults(fn=cmd_query)

    p_mx = sub.add_parser(
        "matrix",
        help="run an algorithm x scenario grid at one n, emit RunReport JSONL",
    )
    p_mx.add_argument("--algos", type=_names_arg("algorithms"), default=None,
                      help="comma list of algorithms (default: all runnable)")
    p_mx.add_argument("--scenarios", type=_names_arg("scenarios"), default=None,
                      help="comma list of scenarios (default: all registered)")
    p_mx.add_argument("--n", type=int, default=32)
    p_mx.add_argument("--a", type=int, default=2)
    p_mx.add_argument("--seed", type=int, default=0)
    p_mx.add_argument("--engine", choices=engines, default=None,
                      help="round engine for every run (default: config default)")
    p_mx.add_argument("--enforcement", choices=["strict", "count", "drop"],
                      default=None, help="capacity enforcement (default: count)")
    p_mx.add_argument("--jobs", type=int, default=1,
                      help="worker processes (default 1 = serial)")
    p_mx.add_argument("--out", default=None,
                      help="JSONL output path ('-' = stdout)")
    p_mx.set_defaults(fn=cmd_matrix)

    p_sc = sub.add_parser(
        "scenarios", help="list registered scenarios and their guarantees"
    )
    p_sc.add_argument("--n", type=int, default=64,
                      help="reference n for the displayed arboricity bounds")
    p_sc.set_defaults(fn=cmd_scenarios)

    p_lint = sub.add_parser(
        "lint",
        help="reprolint: statically check the repo's determinism, "
             "hot-path, and registry invariants",
    )
    add_lint_arguments(p_lint)
    p_lint.set_defaults(fn=_lint_from_args)

    p_sep = sub.add_parser("separation", help="gossip model-separation table")
    p_sep.add_argument("--ns", type=_ints_arg, default="32,64,128")
    p_sep.add_argument("--seed", type=int, default=0)
    p_sep.add_argument("--engine", choices=engines, default=None,
                       help="round engine (default: config default)")
    p_sep.set_defaults(fn=cmd_separation)

    return p


def main(argv: Sequence[str] | None = None) -> int:
    # argparse runs type= converters on string defaults too, so the
    # "32,64"-style defaults above arrive here already parsed.
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Downstream pager/head closed stdout; this is a normal way to
        # consume table output, not an error.  Point stdout at devnull so
        # the interpreter's exit-time flush doesn't raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
