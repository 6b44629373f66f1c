"""Experiments P-AB, P-AGG, P-MTS, P-MC, P-MAGG, P-COL — Theorems 2.2–2.6.

Round/congestion measurements for each communication primitive against its
theorem's bound:

* P-AB   — Aggregate-and-Broadcast is *exactly* 2d+2 rounds (Theorem 2.2's
  O(log n) with the constant visible);
* P-AGG  — Aggregation rounds track O(L/n + (ℓ₁+ℓ̂₂)/log n + log n) over a
  load sweep (Theorem 2.3);
* P-MTS  — tree congestion stays O(L/n + log n) (Theorem 2.4);
* P-MC   — Multicast rounds track O(C + ℓ̂/log n + log n) (Theorem 2.5);
* P-MAGG — Multi-Aggregation rounds track O(C + log n) (Theorem 2.6);
* P-COL  — before/after gate for the columnar-submission conversion: the
  per-message submission the primitives used before the conversion vs the
  ``BatchBuilder`` columnar form they use now, end-to-end through
  ``NCCNetwork.exchange`` on aggregation traffic at n = 1024;
* P-LAZY — the lazy-inbox whole-run gate: a full Aggregation Algorithm run
  at n = 1024 on the shipped pipeline (``BatchBuilder`` + ``InboxBatch``
  delivery + column-reading consumers) must be >= 2x faster than the PR 2
  pipeline, with the PR 2 baseline frozen as a machine-independent multiple
  of a reference-engine probe (see the test's docstring);
* P-TYPED — the typed-payload-column gate and scale ladder: a full
  Aggregation run at n = 4096 with declared payload dtypes must beat the
  object-column pipeline while constructing zero ``Message`` objects *and*
  zero Python payload boxes, and the same comparison is recorded at
  n = 4096 / 16384 / 65536 in BENCH_engine.json;
* P-TELEM — the disabled-telemetry overhead gate: the tracer hooks wired
  through the engines must cost <= 3% of the P-TYPED whole-run wall time
  when no tracer is installed (hook-firing count x microbenchmarked
  disabled-guard cost, see the test's docstring).
"""

import math
import random
import time

from repro import Enforcement, NCCConfig, NCCNetwork, NCCRuntime
from repro.analysis.reporting import format_table
from repro.analysis.tables import bench_config
from repro.ncc.message import (
    BatchBuilder,
    Message,
    message_construction_count,
    payload_box_count,
    set_typed_payloads,
)
from repro.primitives import MIN, SUM, AggregationProblem

from .conftest import emit_bench_json, run_once

SEED = 3


def rt_for(n):
    return NCCRuntime(n, bench_config(SEED))


def test_aggregate_and_broadcast_rounds(benchmark, report):
    """P-AB: exactly 2⌊log n⌋ + 2 rounds at every size."""
    rows = []
    for n in (16, 64, 256, 1024):
        rt = rt_for(n)
        before = rt.net.round_index
        total = rt.aggregate_and_broadcast({u: 1 for u in range(n)}, SUM)
        rounds = rt.net.round_index - before
        d = rt.bf.d
        assert total == n
        assert rounds == 2 * d + 2
        rows.append([n, d, rounds, rt.net.stats.messages])
    report(
        format_table(
            ["n", "d", "rounds", "messages"],
            rows,
            title="P-AB  Aggregate-and-Broadcast (Theorem 2.2: O(log n); measured exactly 2d+2)",
        )
    )
    run_once(benchmark, lambda: rt_for(256).aggregate_and_broadcast({u: 1 for u in range(256)}, SUM))


def test_aggregation_load_sweep(benchmark, report):
    """P-AGG: rounds vs global load L at fixed n — linear in L/n after the
    log n floor."""
    n = 128
    rows = []
    rng = random.Random(7)
    for per_node in (1, 2, 4, 8, 16):
        rt = rt_for(n)
        memberships = {
            u: {g: 1 for g in rng.sample(range(n), per_node)} for u in range(n)
        }
        prob = AggregationProblem(
            memberships=memberships,
            targets={g: g for g in range(n)},
            fn=SUM,
        )
        out = rt.aggregation(prob)
        L = prob.global_load()
        bound_term = L / n + (prob.ell1() + prob.ell2()) / rt.log2n + rt.log2n
        rows.append([per_node, L, out.rounds, round(bound_term, 1), round(out.rounds / bound_term, 1)])
        # correctness: every group got its count
        assert all(v == per_node * n // n or v >= 1 for v in out.values.values())
    ratios = [r[4] for r in rows]
    # The rounds/bound ratio must stay within a constant band: that IS the
    # theorem's statement.
    assert max(ratios) <= 4 * min(ratios)
    report(
        format_table(
            ["packets/node", "L", "rounds", "L/n+(ℓ1+ℓ2)/log n+log n", "ratio"],
            rows,
            title="P-AGG  Aggregation load sweep at n=128 (Theorem 2.3)",
        )
    )
    run_once(benchmark, lambda: None)


def test_aggregation_n_sweep(benchmark, report):
    """P-AGG: constant per-node load, growing n — rounds must stay ~log n."""
    rows = []
    for n in (32, 128, 512):
        rt = rt_for(n)
        prob = AggregationProblem(
            memberships={u: {u % 8: u} for u in range(n)},
            targets={g: g for g in range(8)},
            fn=SUM,
        )
        out = rt.aggregation(prob)
        rows.append([n, out.rounds])
    assert rows[-1][1] < 4 * rows[0][1]  # 16x n, < 4x rounds
    report(
        format_table(["n", "rounds"], rows, title="P-AGG  n-sweep at constant load")
    )
    run_once(benchmark, lambda: None)


def test_multicast_setup_congestion(benchmark, report):
    """P-MTS: measured tree congestion vs the O(L/n + log n) bound."""
    rows = []
    rng = random.Random(11)
    for n, per_node in [(64, 1), (64, 4), (256, 2), (256, 8)]:
        rt = rt_for(n)
        memberships = {u: rng.sample(range(n // 4), per_node) for u in range(n)}
        trees = rt.multicast_setup(memberships)
        L = n * per_node
        bound = L / n + math.log2(n)
        c = trees.congestion()
        rows.append([n, per_node, L, c, round(bound, 1), round(c / bound, 2)])
        assert c <= 8 * bound
    report(
        format_table(
            ["n", "joins/node", "L", "congestion", "L/n + log n", "ratio"],
            rows,
            title="P-MTS  Multicast Tree Setup congestion (Theorem 2.4: O(L/n + log n))",
        )
    )
    run_once(benchmark, lambda: None)


def test_multicast_rounds(benchmark, report):
    """P-MC: multicast rounds vs O(C + ℓ̂/log n + log n)."""
    rows = []
    rng = random.Random(13)
    for n, groups, per_node in [(64, 8, 2), (128, 16, 4), (256, 8, 1)]:
        rt = rt_for(n)
        memberships = {u: rng.sample(range(groups), per_node) for u in range(n)}
        trees = rt.multicast_setup(memberships)
        out = rt.multicast(
            trees,
            {g: g for g in range(groups)},
            {g: g for g in range(groups)},
            ell_bound=per_node,
        )
        c = trees.congestion()
        bound = c + per_node / rt.log2n + rt.log2n
        rows.append([n, groups, c, out.rounds, round(bound, 1), round(out.rounds / bound, 1)])
    ratios = [r[5] for r in rows]
    assert max(ratios) <= 5 * min(ratios)
    report(
        format_table(
            ["n", "groups", "congestion C", "rounds", "C + ℓ/log n + log n", "ratio"],
            rows,
            title="P-MC  Multicast (Theorem 2.5: O(C + ℓ̂/log n + log n))",
        )
    )
    run_once(benchmark, lambda: None)


COLUMNAR_TARGET = 1.5  # batched engine, plain vs columnar submission
CROSS_ENGINE_TARGET = 1.25  # reference+plain (the pre-conversion pipeline)


def _delivery_round(n: int):
    """One aggregation-delivery round at the model's full per-round budget:
    every level-d host forwards ``capacity`` group results ``("R", g, v)``
    to their targets (the postprocessing window of Theorem 2.3, which is
    the heaviest per-round shape an aggregation run produces).  Returned
    as ``(src, dst, payload)`` triples so both submission forms are built
    from identical traffic."""
    cap = NCCConfig().capacity(n)
    return [
        (u, (u + 17 * i + 1) % n, ("R", (u * cap + i) % (4 * n), i))
        for u in range(n)
        for i in range(cap)
    ]


def _plain_form(triples, kind):
    """The submission form every primitive used before the conversion."""
    return [Message(s, d, p, kind) for s, d, p in triples]


def _columnar_form(triples, kind):
    """The submission form the primitives produce now, as a factory: a
    builder is single-shot, so every round needs a fresh one."""

    def fresh_builder():
        out = BatchBuilder(kind=kind)
        for s, d, p in triples:
            out.add(s, d, p)
        return out

    return fresh_builder


def _time_exchange(engine, n, submission, rounds=5, repeats=5):
    """Best-of-repeats seconds per ``exchange`` call (the full network
    stack: normalization, engine enforcement/accounting, delivery).

    ``submission`` is a prebuilt message list, replayed every round, or a
    builder factory: each round then submits a fresh builder, built
    before the clock starts."""
    best = float("inf")
    for _ in range(repeats):
        net = NCCNetwork(
            n, NCCConfig(seed=0, enforcement=Enforcement.COUNT, engine=engine)
        )
        if callable(submission):
            warmup, *subs = [submission() for _ in range(rounds + 1)]
        else:
            warmup, subs = submission, [submission] * rounds
        net.exchange(warmup)  # first-touch allocations
        t0 = time.perf_counter()
        for sub in subs:
            net.exchange(sub)
        best = min(best, (time.perf_counter() - t0) / rounds)
    return best


def test_columnar_submission_speedup(benchmark, report):
    """P-COL: the columnar conversion's before/after gate.

    Before this PR every butterfly-routed primitive submitted per-message
    ``Message`` lists; now they submit ``BatchBuilder`` columns.  On the
    aggregation-heavy delivery shape at n = 1024 the columnar form must be
    >= 1.5x faster end-to-end through ``exchange`` under the batched
    engine, and >= 1.25x against the full pre-conversion pipeline
    (reference engine + per-message submission).  Submission building is
    engine-independent and therefore happens outside the timed region,
    mirroring bench_engine_fastpath: the message list is built once and
    replayed, and every columnar round gets a fresh builder (a builder is
    single-shot).  Inboxes must be identical across all four
    engine x submission combinations — the speedup can never come from
    skipped work.
    """
    rows = []
    gate = {}
    for n in (256, 1024):
        triples = _delivery_round(n)
        plain = _plain_form(triples, "aggregation")
        columnar = _columnar_form(triples, "aggregation")

        observed = {}
        for engine in ("reference", "batched"):
            for label, sub in (("plain", plain), ("columnar", columnar())):
                net = NCCNetwork(
                    n,
                    NCCConfig(seed=0, enforcement=Enforcement.COUNT, engine=engine),
                )
                inbox = net.exchange(sub)
                observed[(engine, label)] = (
                    list(inbox.items()),
                    net.stats.comparable(),
                )
        baseline = observed[("reference", "plain")]
        assert all(o == baseline for o in observed.values()), (
            "submission forms diverged — parity violated"
        )

        # Shared CI runners jitter; on a threshold miss at the gated size,
        # re-measure once and keep the better ratios before failing the
        # build (a genuine regression fails both attempts).
        for attempt in range(2):
            t_ref_plain = _time_exchange("reference", n, plain)
            t_bat_plain = _time_exchange("batched", n, plain)
            t_bat_col = _time_exchange("batched", n, columnar)
            submission_speedup = t_bat_plain / t_bat_col
            pipeline_speedup = t_ref_plain / t_bat_col
            if n != 1024 or (
                submission_speedup >= COLUMNAR_TARGET
                and pipeline_speedup >= CROSS_ENGINE_TARGET
            ):
                break
        rows.append(
            [n, len(triples),
             round(t_ref_plain * 1e3, 2), round(t_bat_plain * 1e3, 2),
             round(t_bat_col * 1e3, 2),
             round(submission_speedup, 2), round(pipeline_speedup, 2)]
        )
        if n == 1024:
            gate = {
                "submission_speedup": submission_speedup,
                "pipeline_speedup": pipeline_speedup,
            }
            assert submission_speedup >= COLUMNAR_TARGET, (
                f"columnar submission {submission_speedup:.2f}x below "
                f"{COLUMNAR_TARGET}x target at n={n}"
            )
            assert pipeline_speedup >= CROSS_ENGINE_TARGET, (
                f"end-to-end pipeline {pipeline_speedup:.2f}x below "
                f"{CROSS_ENGINE_TARGET}x target at n={n}"
            )
    report(
        format_table(
            ["n", "msgs/round", "ref+plain ms", "bat+plain ms", "bat+col ms",
             "columnar speedup", "pipeline speedup"],
            rows,
            title=(
                "P-COL  Columnar submission end-to-end (acceptance: >= "
                f"{COLUMNAR_TARGET}x at n=1024; measured "
                f"{gate['submission_speedup']:.2f}x submission, "
                f"{gate['pipeline_speedup']:.2f}x vs pre-conversion pipeline)"
            ),
        )
    )
    emit_bench_json(
        "primitives_columnar",
        {
            "submission_speedup_n1024": round(gate["submission_speedup"], 3),
            "pipeline_speedup_n1024": round(gate["pipeline_speedup"], 3),
            "targets": {
                "submission": COLUMNAR_TARGET,
                "pipeline": CROSS_ENGINE_TARGET,
            },
            "columns": ["n", "msgs_per_round", "ref_plain_ms", "bat_plain_ms",
                        "bat_col_ms", "submission_speedup", "pipeline_speedup"],
            "rows": rows,
        },
    )
    triples = _delivery_round(1024)
    columnar = _columnar_form(triples, "aggregation")
    run_once(benchmark, lambda: _time_exchange("batched", 1024, columnar, repeats=1))


def test_aggregation_run_no_regression(benchmark, report):
    """P-COL-E2E: a full Aggregation Algorithm run (Theorem 2.3) at
    n = 1024 under both engines: identical outcomes, and the batched
    engine must not regress end-to-end wall time.  Informational — the
    router and message construction dominate whole-run wall time, so the
    engine gap here is structurally small; the 1.5x gate lives on the
    exchange pipeline above."""
    n = 1024
    rng = random.Random(SEED)
    memberships = {
        u: {g: 1 for g in rng.sample(range(512), 8)} for u in range(n)
    }
    times = {}
    outcomes = {}

    def measure(engine, repeats=2):
        cfg = NCCConfig(
            seed=0,
            enforcement=Enforcement.COUNT,
            engine=engine,
            extras={"lightweight_sync": True},
        )
        best = float("inf")
        for _ in range(repeats):
            rt = NCCRuntime(n, cfg)
            prob = AggregationProblem(
                memberships=memberships,
                targets={g: g % n for g in range(512)},
                fn=SUM,
            )
            t0 = time.perf_counter()
            out = rt.aggregation(prob)
            best = min(best, time.perf_counter() - t0)
            outcomes[engine] = (out.values, out.rounds, rt.net.stats.comparable())
        return best

    for engine in ("reference", "batched"):
        times[engine] = measure(engine)
    assert outcomes["reference"] == outcomes["batched"]
    speedup = times["reference"] / times["batched"]
    if speedup < 0.85:  # shared-runner jitter: re-measure once before failing
        for engine in ("reference", "batched"):
            times[engine] = min(times[engine], measure(engine))
        speedup = times["reference"] / times["batched"]
    assert speedup >= 0.85, f"batched engine regressed a full run: {speedup:.2f}x"
    report(
        format_table(
            ["engine", "wall s"],
            [[e, round(t, 3)] for e, t in times.items()],
            title=(
                "P-COL-E2E  Full aggregation run at n=1024 "
                f"(batched/reference = {speedup:.2f}x, identical outcomes)"
            ),
        )
    )
    run_once(benchmark, lambda: None)


# The PR 2 whole-run baseline, frozen as a machine-independent ratio: the
# full aggregation run below, executed on the PR 2 tree (commit 2dccfd0,
# batched engine — the fastest pipeline PR 2 shipped), took 40.3-41.5x the
# wall time of `_lazy_gate_probe()` measured in the same process (3
# trials, best-of-5 each; recorded in BENCH_engine.json).  The probe is a
# reference-engine per-message exchange whose code path predates PR 2 and
# is not touched by the lazy-inbox work, so `run / probe` is stable across
# machine speeds and the baseline survives CI-runner changes.  40.0 is the
# conservative floor of the observed band.
PR2_RUN_PER_PROBE = 40.0
LAZY_WHOLE_RUN_TARGET = 2.0


def _lazy_gate_memberships(n):
    rng = random.Random(SEED)
    return {u: {g: 1 for g in rng.sample(range(512), 8)} for u in range(n)}


def _lazy_gate_probe(n=1024, rounds=3, repeats=5):
    """Machine-speed probe: reference-engine exchange on the P-COL
    delivery workload (prebuilt per-message submission)."""
    plain = _plain_form(_delivery_round(n), "probe")
    return _time_exchange("reference", n, plain, rounds=rounds, repeats=repeats)


def _lazy_gate_run(n=1024, *, engine="batched", repeats=4):
    """Best-of-repeats wall seconds for one full aggregation run at n,
    plus its observables and the number of Message objects constructed."""
    memberships = _lazy_gate_memberships(n)
    best = float("inf")
    outcome = constructed = None
    for _ in range(repeats):
        cfg = NCCConfig(
            seed=0,
            enforcement=Enforcement.COUNT,
            engine=engine,
            extras={"lightweight_sync": True},
        )
        rt = NCCRuntime(n, cfg)
        prob = AggregationProblem(
            memberships=memberships,
            targets={g: g % n for g in range(512)},
            fn=SUM,
        )
        before = message_construction_count()
        t0 = time.perf_counter()
        out = rt.aggregation(prob)
        best = min(best, time.perf_counter() - t0)
        constructed = message_construction_count() - before
        outcome = (out.values, out.rounds, rt.net.stats.comparable())
    return best, outcome, constructed


def test_lazy_inbox_whole_run_speedup(benchmark, report):
    """P-LAZY: the lazy-inbox whole-run gate (>= 2x vs the PR 2 baseline).

    A full Aggregation Algorithm run at n = 1024 under the shipped
    pipeline — columnar ``BatchBuilder`` submission, ``InboxBatch``
    delivery, column-reading routers/primitives — must be at least
    ``LAZY_WHOLE_RUN_TARGET`` times faster than the same run under the
    PR 2 pipeline.  The PR 2 side cannot be re-executed here (its router
    and engine code no longer exist in this tree), so its wall time is
    frozen as ``PR2_RUN_PER_PROBE`` multiples of an in-process
    reference-engine probe (see the constant's comment): the gate passes
    iff ``PR2_RUN_PER_PROBE * probe / run >= 2``.

    Two hard side conditions keep the speedup honest:

    * the run must construct **zero** ``Message`` objects (the clean
      lazy-round guarantee, asserted via the construction counter);
    * the run's outcome and statistics must be identical to the same
      aggregation on the reference engine, executed in-process.
    """
    # Shared CI runners jitter; re-measure once before failing the build.
    for attempt in range(2):
        probe = _lazy_gate_probe()
        t_lazy, out_lazy, constructed = _lazy_gate_run()
        speedup = PR2_RUN_PER_PROBE * probe / t_lazy
        if speedup >= LAZY_WHOLE_RUN_TARGET:
            break
    assert constructed == 0, (
        f"clean lazy run constructed {constructed} Message objects"
    )
    t_ref, out_ref, _ = _lazy_gate_run(engine="reference", repeats=1)
    assert out_lazy == out_ref, "batched run diverged from the reference engine"
    report(
        format_table(
            ["pipeline", "wall s", "run/probe"],
            [
                ["PR 2 (frozen baseline)", round(PR2_RUN_PER_PROBE * probe, 3),
                 PR2_RUN_PER_PROBE],
                ["reference engine (in-process)", round(t_ref, 3),
                 round(t_ref / probe, 1)],
                ["lazy inboxes (shipped)", round(t_lazy, 3),
                 round(t_lazy / probe, 1)],
            ],
            title=(
                "P-LAZY  Whole aggregation run at n=1024 (acceptance: >= "
                f"{LAZY_WHOLE_RUN_TARGET}x vs the PR 2 baseline; measured "
                f"{speedup:.2f}x, zero Message objects constructed)"
            ),
        )
    )
    emit_bench_json(
        "primitives_lazy_inbox",
        {
            "whole_run_speedup_vs_pr2": round(speedup, 3),
            "target": LAZY_WHOLE_RUN_TARGET,
            "lazy_run_s": round(t_lazy, 4),
            "reference_run_s": round(t_ref, 4),
            "probe_s": round(probe, 5),
            "lazy_run_per_probe": round(t_lazy / probe, 2),
            "pr2_run_per_probe_frozen": PR2_RUN_PER_PROBE,
            "messages_constructed_clean_run": constructed,
        },
    )
    assert speedup >= LAZY_WHOLE_RUN_TARGET, (
        f"lazy whole-run speedup {speedup:.2f}x below "
        f"{LAZY_WHOLE_RUN_TARGET}x vs the PR 2 baseline "
        f"(run {t_lazy:.3f}s, probe {probe:.4f}s)"
    )
    run_once(benchmark, lambda: None)


# Typed payload columns vs the object-column pipeline, whole-run.  The
# observed band on this workload is 4.1-6.9x at n = 4096 on a 2-vCPU x86
# host (the ladder below records 4.0-7.9x across n = 4096-65536); 1.3 is
# the conservative floor the gate enforces.
TYPED_WHOLE_RUN_TARGET = 1.3
TYPED_LADDER = (4096, 16384, 65536)


def _typed_gate_problem(n):
    """Aggregation load that scales with n: max(512, n/2) groups, eight
    memberships per node, targets striped across the hosts."""
    rng = random.Random(SEED)
    groups = max(512, n // 2)
    return AggregationProblem(
        memberships={
            u: {g: 1 for g in rng.sample(range(groups), 8)} for u in range(n)
        },
        targets={g: g % n for g in range(groups)},
        fn=SUM,
    )


def _typed_gate_run(n, *, typed, repeats=3):
    """Best-of-repeats wall seconds for one full aggregation run at n with
    typed payload columns on or off, plus the observables and the Message /
    payload-box construction counts for the best run's pipeline."""
    prob = _typed_gate_problem(n)
    previous = set_typed_payloads(typed)
    try:
        best = float("inf")
        outcome = constructed = boxed = None
        for _ in range(repeats):
            cfg = NCCConfig(
                seed=0,
                enforcement=Enforcement.COUNT,
                engine="batched",
                extras={"lightweight_sync": True},
            )
            rt = NCCRuntime(n, cfg)
            before_msgs = message_construction_count()
            before_boxes = payload_box_count()
            t0 = time.perf_counter()
            out = rt.aggregation(prob)
            best = min(best, time.perf_counter() - t0)
            constructed = message_construction_count() - before_msgs
            boxed = payload_box_count() - before_boxes
            outcome = (out.values, out.rounds, rt.net.stats.comparable())
    finally:
        set_typed_payloads(previous)
    return best, outcome, constructed, boxed


def test_typed_columns_whole_run_speedup(benchmark, report):
    """P-TYPED: the typed-payload-column whole-run gate at n = 4096.

    A full Aggregation run whose wire traffic declares its payload dtype
    (the router's (tag, lvl, g, val) struct, submitted and delivered as
    numpy columns end-to-end) must be at least ``TYPED_WHOLE_RUN_TARGET``
    times faster than the identical run on the object-column pipeline.

    Two hard side conditions keep the speedup honest:

    * the typed run must construct **zero** ``Message`` objects and
      **zero** Python payload boxes — a clean typed round never leaves
      numpy (the per-group results are folded from columns, so even the
      final answers never pass through per-packet objects);
    * its outcome and statistics must be identical to the object run's.
    """
    n = 4096
    # Shared CI runners jitter; re-measure once before failing the build.
    for attempt in range(2):
        t_typed, out_typed, constructed, boxed = _typed_gate_run(n, typed=True)
        t_object, out_object, _, _ = _typed_gate_run(n, typed=False, repeats=2)
        speedup = t_object / t_typed
        if speedup >= TYPED_WHOLE_RUN_TARGET:
            break
    assert constructed == 0, (
        f"clean typed run constructed {constructed} Message objects"
    )
    assert boxed == 0, f"clean typed run boxed {boxed} payloads"
    assert out_typed == out_object, "payload representations diverged"
    report(
        format_table(
            ["pipeline", "wall s", "Messages", "payload boxes"],
            [
                ["object columns", round(t_object, 3), 0, "per packet"],
                ["typed columns", round(t_typed, 3), constructed, boxed],
            ],
            title=(
                f"P-TYPED  Whole aggregation run at n={n} (acceptance: >= "
                f"{TYPED_WHOLE_RUN_TARGET}x vs object columns; measured "
                f"{speedup:.2f}x, identical outcomes)"
            ),
        )
    )
    emit_bench_json(
        "typed_columns",
        {
            "whole_run_speedup": round(speedup, 3),
            "target": TYPED_WHOLE_RUN_TARGET,
            "typed_run_s": round(t_typed, 4),
            "object_run_s": round(t_object, 4),
            "n": n,
            "messages_constructed_typed_run": constructed,
            "payload_boxes_typed_run": boxed,
        },
    )
    assert speedup >= TYPED_WHOLE_RUN_TARGET, (
        f"typed whole-run speedup {speedup:.2f}x below "
        f"{TYPED_WHOLE_RUN_TARGET}x (typed {t_typed:.3f}s, "
        f"object {t_object:.3f}s)"
    )
    run_once(benchmark, lambda: None)


def test_typed_columns_scale_ladder(benchmark, report):
    """P-TYPED ladder: typed vs object whole runs at n = 4096/16384/65536.

    Informational (the acceptance gate lives at n = 4096 above): records
    how the typed-column advantage scales, and asserts the structural
    invariant — zero Messages, zero payload boxes, identical outcomes —
    at every rung.  Single measurement per rung; the top one is a ~100 s
    pair of runs, so repetition is deliberately left to the CI trajectory
    across builds.
    """
    rows = []
    ladder = {}
    for n in TYPED_LADDER:
        t_typed, out_typed, constructed, boxed = _typed_gate_run(
            n, typed=True, repeats=1
        )
        t_object, out_object, _, _ = _typed_gate_run(n, typed=False, repeats=1)
        assert constructed == 0 and boxed == 0
        assert out_typed == out_object
        rounds = out_typed[1]
        rows.append([
            n, rounds, round(t_typed, 2), round(t_object, 2),
            round(t_object / t_typed, 2),
        ])
        ladder[str(n)] = {
            "typed_run_s": round(t_typed, 4),
            "object_run_s": round(t_object, 4),
            "speedup": round(t_object / t_typed, 3),
            "rounds": rounds,
        }
    report(
        format_table(
            ["n", "rounds", "typed s", "object s", "speedup"],
            rows,
            title=(
                "P-TYPED  Scale ladder (typed vs object whole aggregation "
                "runs; zero Messages / zero payload boxes at every size)"
            ),
        )
    )
    emit_bench_json("typed_columns_ladder", ladder)
    run_once(benchmark, lambda: None)


TELEMETRY_OVERHEAD_BUDGET = 0.03


def _disabled_guard_cost(iters=2_000_000):
    """Per-firing cost of the disabled tracer hook: one module-attribute
    load plus an ``is None`` test (loop overhead included, which only
    overstates the cost — the gate stays conservative)."""
    from repro.telemetry import tracer as _tracer

    assert _tracer.CURRENT is None
    t0 = time.perf_counter()
    for _ in range(iters):
        if _tracer.CURRENT is not None:  # pragma: no cover - tracing is off
            raise AssertionError("tracer installed during guard benchmark")
    return (time.perf_counter() - t0) / iters


def test_telemetry_disabled_overhead(benchmark, report):
    """P-TELEM: disabled tracer hooks cost <= 3% of a typed whole run.

    The hooks are compiled into the engines, so "before instrumentation"
    cannot be timed directly; the gate is arithmetic instead.  A traced
    run of the P-TYPED workload counts how often the instrumented sites
    fire (every span is a begin/end or stamp pair, every event one call),
    a microbenchmark prices the disabled-path guard (one module-attribute
    load + ``is None`` test), and the product must stay under
    ``TELEMETRY_OVERHEAD_BUDGET`` of the untraced wall time.  The traced
    wall time rides along in BENCH_engine.json for context (it is *not*
    the gate: tracing on pays for real record-keeping by design).
    """
    from repro.telemetry import tracing

    n = 4096
    t_off, _, _, _ = _typed_gate_run(n, typed=True, repeats=2)

    prob = _typed_gate_problem(n)
    previous = set_typed_payloads(True)
    try:
        cfg = NCCConfig(
            seed=0,
            enforcement=Enforcement.COUNT,
            engine="batched",
            extras={"lightweight_sync": True},
        )
        rt = NCCRuntime(n, cfg)
        with tracing(label="overhead-gate") as tr:
            t0 = time.perf_counter()
            rt.aggregation(prob)
            t_on = time.perf_counter() - t0
    finally:
        set_typed_payloads(previous)

    spans = sum(1 for kind, _, _ in tr.structure() if kind == "span")
    events = len(tr.records) - spans
    firings = 2 * spans + events
    guard_s = _disabled_guard_cost()
    overhead_frac = (firings * guard_s) / t_off

    report(
        format_table(
            ["quantity", "value"],
            [
                ["untraced wall s", round(t_off, 4)],
                ["traced wall s", round(t_on, 4)],
                ["hook firings", firings],
                ["guard cost ns", round(guard_s * 1e9, 2)],
                ["disabled overhead", f"{overhead_frac:.5%}"],
            ],
            title=(
                f"P-TELEM  Disabled-telemetry overhead at n={n} "
                f"(acceptance: <= {TELEMETRY_OVERHEAD_BUDGET:.0%} of the "
                "untraced run)"
            ),
        )
    )
    emit_bench_json(
        "telemetry_overhead",
        {
            "budget": TELEMETRY_OVERHEAD_BUDGET,
            "disabled_overhead_frac": round(overhead_frac, 6),
            "guard_cost_ns": round(guard_s * 1e9, 3),
            "hook_firings": firings,
            "n": n,
            "traced_run_s": round(t_on, 4),
            "untraced_run_s": round(t_off, 4),
        },
    )
    assert overhead_frac <= TELEMETRY_OVERHEAD_BUDGET, (
        f"disabled telemetry hooks cost {overhead_frac:.3%} of the typed "
        f"run at n={n} ({firings} firings x {guard_s * 1e9:.1f} ns), over "
        f"the {TELEMETRY_OVERHEAD_BUDGET:.0%} budget"
    )
    run_once(benchmark, lambda: None)


def test_multi_aggregation_rounds(benchmark, report):
    """P-MAGG: rounds vs O(C + log n) across sizes."""
    rows = []
    for n in (32, 128, 512):
        rt = rt_for(n)
        # ring neighbourhoods: group u = {u-1, u+1}
        memberships = {}
        for u in range(n):
            memberships.setdefault((u - 1) % n, []).append(u)
            memberships.setdefault((u + 1) % n, []).append(u)
        trees = rt.multicast_setup(memberships)
        out = rt.multi_aggregation(
            trees,
            {u: u for u in range(n)},
            {u: u for u in range(n)},
            MIN,
        )
        c = trees.congestion()
        bound = c + rt.log2n
        rows.append([n, c, out.rounds, round(out.rounds / bound, 1)])
        # each node receives the min over its two "neighbours"
        for v in range(n):
            assert out.values[v] == min((v - 1) % n, (v + 1) % n)
    ratios = [r[3] for r in rows]
    assert max(ratios) <= 4 * min(ratios)
    report(
        format_table(
            ["n", "congestion C", "rounds", "rounds/(C+log n)"],
            rows,
            title="P-MAGG  Multi-Aggregation (Theorem 2.6: O(C + log n))",
        )
    )
    run_once(benchmark, lambda: None)
