"""Experiment E-ENG — batched vs reference round-engine wall time.

The engines are certified observably identical (``tests/test_engine_parity.py``),
so this benchmark measures the one thing allowed to differ: wall time.  The
workload is the message-heaviest primitive pattern in the repository —
direct clique-edge exchange (``primitives.direct``) at full send/receive
capacity, i.e. every node sends ``capacity`` messages per round along
shifted permutations so every node also receives exactly ``capacity``.
That is the per-round traffic shape of Stage 3 orientation deliveries and
multicast leaf deliveries, scaled to the budget.

Two submissions of the same traffic are measured:

* ``columnar`` — a :class:`~repro.ncc.message.BatchBuilder`, the form every
  primitive submits, through ``RoundEngine.run_builder`` (what ``exchange``
  calls): the batched engine reads the send-side facts off the builder's
  tracked metadata and delivers column spans without constructing a
  ``Message``; the reference engine cuts ``batches()`` and walks it.
  **Acceptance: >= 2x faster than the reference engine at n = 1024
  (>= 1.5x at n = 256).**
* ``plain`` — ordinary ``list[Message]`` groups through
  ``RoundEngine.run_round``: both engines run the same canonical walks, so
  this row is reported, not gated.

Submissions are prebuilt outside the timed region (message *construction*
is engine-independent).  A builder is single-shot, so every timed round
gets a fresh one; the plain mapping is replayed.  The gate times the
engine interface itself, so the shared ``exchange`` bookkeeping (phase
attribution, the round span, statistics) cannot dilute the
engine-vs-engine comparison; end-to-end ``exchange`` rows are reported
alongside.  Each timed sample runs ``ROUNDS`` rounds and the per-engine
result is the best of ``REPEATS`` samples.  Stats parity is asserted on
every run so the speedup can never come from skipped work.
"""

from __future__ import annotations

import time

from repro import Enforcement, NCCConfig, NCCNetwork
from repro.analysis.reporting import format_table
from repro.ncc.message import BatchBuilder, Message

from .conftest import emit_bench_json, run_once

ROUNDS = 15
REPEATS = 5
SPEEDUP_TARGET = 2.0


def permutation_workload(n: int, *, columnar: bool):
    """Full-capacity clean traffic: node u sends to u+1, ..., u+capacity
    (mod n) — a union of shift permutations, so send and receive loads are
    both exactly ``capacity`` and no enforcement branch fires.

    Returns a zero-argument factory of one round's submission: a fresh
    ``BatchBuilder`` per call when ``columnar``, else one prebuilt
    ``sender -> list[Message]`` mapping, returned by every call."""
    cap = NCCConfig().capacity(n)
    traffic = [
        (u, [(u + i + 1) % n for i in range(cap)], [(u, i) for i in range(cap)])
        for u in range(n)
    ]
    if columnar:

        def fresh_builder() -> BatchBuilder:
            builder = BatchBuilder(kind="bench")
            for u, dsts, payloads in traffic:
                builder.add_many(u, dsts, payloads)
            return builder

        return fresh_builder
    out = {
        u: [Message(u, d, p, kind="bench") for d, p in zip(dsts, payloads)]
        for u, dsts, payloads in traffic
    }
    return lambda: out


def _fresh_net(engine: str, n: int) -> NCCNetwork:
    return NCCNetwork(
        n, NCCConfig(seed=0, enforcement=Enforcement.COUNT, engine=engine)
    )


def _submissions(make_round) -> list:
    """One warmup round plus ``ROUNDS`` timed rounds, built up front."""
    return [make_round() for _ in range(ROUNDS + 1)]


def time_engine(engine: str, n: int, make_round) -> tuple[float, tuple]:
    """Best-of-REPEATS seconds per engine call — ``run_builder`` on a
    builder, ``run_round`` on a mapping — plus every observable the round
    produced."""
    best = float("inf")
    observed = None
    for _ in range(REPEATS):
        net = _fresh_net(engine, n)
        warmup, *rounds = _submissions(make_round)
        run = (
            net.engine.run_builder
            if isinstance(warmup, BatchBuilder)
            else net.engine.run_round
        )
        run(warmup)  # first-touch allocations
        t0 = time.perf_counter()
        for out in rounds:
            delivered, sent_messages, sent_bits = run(out)
        best = min(best, (time.perf_counter() - t0) / ROUNDS)
        observed = (
            sent_messages,
            sent_bits,
            list(delivered.items()),
            net.stats.comparable(),
        )
    return best, observed


def time_exchange(engine: str, n: int, make_round) -> float:
    """End-to-end ``exchange`` seconds per round (best of REPEATS)."""
    best = float("inf")
    for _ in range(REPEATS):
        net = _fresh_net(engine, n)
        warmup, *rounds = _submissions(make_round)
        net.exchange(warmup)
        t0 = time.perf_counter()
        for out in rounds:
            net.exchange(out)
        best = min(best, (time.perf_counter() - t0) / ROUNDS)
    return best


def test_engine_fastpath_speedup(benchmark, report):
    """E-ENG: columnar submission must be >= 2x at n = 1024; plain lists
    are reported only.  Both engines must produce identical observables."""
    rows = []
    headline_speedup = None
    for n in (256, 1024):
        for label, columnar in (("columnar", True), ("plain", False)):
            make_round = permutation_workload(n, columnar=columnar)
            t_ref, o_ref = time_engine("reference", n, make_round)
            t_bat, o_bat = time_engine("batched", n, make_round)
            assert o_ref == o_bat, "engines diverged — parity violated"
            x_ref = time_exchange("reference", n, make_round)
            x_bat = time_exchange("batched", n, make_round)
            speedup = t_ref / t_bat
            msgs = n * NCCConfig().capacity(n)
            rows.append(
                [n, label, msgs,
                 round(t_ref * 1e3, 2), round(t_bat * 1e3, 2), round(speedup, 2),
                 round(x_ref * 1e3, 2), round(x_bat * 1e3, 2),
                 round(x_ref / x_bat, 2)]
            )
            if n == 1024 and columnar:
                headline_speedup = speedup
            if columnar:
                assert speedup >= (SPEEDUP_TARGET if n == 1024 else 1.5), (
                    f"columnar speedup {speedup:.2f}x below target at n={n}"
                )
    report(
        format_table(
            ["n", "submission", "msgs/round",
             "engine ref ms", "engine bat ms", "engine speedup",
             "exchange ref ms", "exchange bat ms", "exchange speedup"],
            rows,
            title=(
                "E-ENG  Round-engine fast path (acceptance: >= "
                f"{SPEEDUP_TARGET}x columnar engine time at n=1024; measured "
                f"{headline_speedup:.2f}x)"
            ),
        )
    )
    # Persist the timings for the CI perf-trajectory artifact.
    emit_bench_json(
        "engine_fastpath",
        {
            "headline_speedup_n1024_columnar": round(headline_speedup, 3),
            "speedup_target": SPEEDUP_TARGET,
            "columns": [
                "n", "submission", "msgs_per_round",
                "engine_ref_ms", "engine_bat_ms", "engine_speedup",
                "exchange_ref_ms", "exchange_bat_ms", "exchange_speedup",
            ],
            "rows": rows,
        },
    )
    make_round = permutation_workload(1024, columnar=True)
    run_once(benchmark, lambda: time_engine("batched", 1024, make_round))


def test_engine_fastpath_violating_round_parity(benchmark, report):
    """E-ENG-V: overloaded DROP rounds take the bucketed slow path — time
    it and re-assert the engines draw identical random drops."""
    n = 1024
    results = {}
    for engine in ("reference", "batched"):
        net = NCCNetwork(
            n, NCCConfig(seed=0, enforcement=Enforcement.DROP, engine=engine)
        )
        hot = [Message(s, 0, (s,), kind="hot") for s in range(net.capacity + 50)]
        inbox = net.exchange(hot)
        results[engine] = (
            sorted(m.payload[0] for m in inbox[0]),
            net.stats.comparable(),
        )
    assert results["reference"] == results["batched"]
    report(
        format_table(
            ["property", "value"],
            [["identical drop selection", "yes"],
             ["identical violation ledger", "yes"]],
            title="E-ENG-V  DROP-mode slow-path parity at n=1024",
        )
    )
    run_once(benchmark, lambda: None)
