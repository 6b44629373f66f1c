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

* ``columnar`` — one :class:`~repro.ncc.message.BatchBuilder` finalized
  into its per-sender ``InboxBatch`` mapping (``batches()``, the form every
  primitive produces): the batched engine reads the send-side facts off
  the builder's tracked metadata and delivers column spans without
  constructing a ``Message``.  **Acceptance: >= 2x faster than the
  reference engine at n = 1024 (>= 1.5x at n = 256).**
* ``plain`` — ordinary ``list[Message]`` groups: both engines run the same
  canonical walks, so this row is reported, not gated.

Submissions are prebuilt outside the timed region (message *construction*
is engine-independent), and the gate times the engine interface itself —
``RoundEngine.run_round`` on normalized per-sender traffic — so the shared
``exchange`` bookkeeping (normalization, observer, phase attribution)
cannot dilute the engine-vs-engine comparison; end-to-end ``exchange``
rows are reported alongside.  Each timed sample runs ``ROUNDS`` rounds and
the per-engine result is the best of ``REPEATS`` samples.  Stats parity is
asserted on every run so the speedup can never come from skipped work.
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
    both exactly ``capacity`` and no enforcement branch fires."""
    cap = NCCConfig().capacity(n)
    builder = BatchBuilder(kind="bench")
    out = {}
    for u in range(n):
        dsts = [(u + i + 1) % n for i in range(cap)]
        payloads = [(u, i) for i in range(cap)]
        if columnar:
            builder.add_many(u, dsts, payloads)
        else:
            out[u] = [
                Message(u, d, p, kind="bench") for d, p in zip(dsts, payloads)
            ]
    # The finalized mapping is frozen, so the same columns replay every
    # round.  Fresh-builder submission (new columns every round) is
    # measured end-to-end by bench_primitives.
    return builder.batches() if columnar else out


def _fresh_net(engine: str, n: int) -> NCCNetwork:
    return NCCNetwork(
        n, NCCConfig(seed=0, enforcement=Enforcement.COUNT, engine=engine)
    )


def time_engine(engine: str, n: int, per_sender) -> tuple[float, tuple]:
    """Best-of-REPEATS seconds per ``run_round`` call on normalized
    per-sender traffic, plus every observable the round produced."""
    best = float("inf")
    observed = None
    for _ in range(REPEATS):
        net = _fresh_net(engine, n)
        eng = net.engine
        eng.run_round(per_sender)  # warmup: first-touch allocations
        t0 = time.perf_counter()
        for _ in range(ROUNDS):
            delivered, sent_messages, sent_bits = eng.run_round(per_sender)
        best = min(best, (time.perf_counter() - t0) / ROUNDS)
        observed = (
            sent_messages,
            sent_bits,
            list(delivered.items()),
            net.stats.comparable(),
        )
    return best, observed


def time_exchange(engine: str, n: int, outgoing) -> float:
    """End-to-end ``exchange`` seconds per round (best of REPEATS)."""
    best = float("inf")
    for _ in range(REPEATS):
        net = _fresh_net(engine, n)
        net.exchange(outgoing)
        t0 = time.perf_counter()
        for _ in range(ROUNDS):
            net.exchange(outgoing)
        best = min(best, (time.perf_counter() - t0) / ROUNDS)
    return best


def test_engine_fastpath_speedup(benchmark, report):
    """E-ENG: columnar submission must be >= 2x at n = 1024; plain lists
    are reported only.  Both engines must produce identical observables."""
    rows = []
    headline_speedup = None
    for n in (256, 1024):
        for label, columnar in (("columnar", True), ("plain", False)):
            out = permutation_workload(n, columnar=columnar)
            t_ref, o_ref = time_engine("reference", n, out)
            t_bat, o_bat = time_engine("batched", n, out)
            assert o_ref == o_bat, "engines diverged — parity violated"
            x_ref = time_exchange("reference", n, out)
            x_bat = time_exchange("batched", n, out)
            speedup = t_ref / t_bat
            msgs = sum(len(v) for v in out.values())
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
    out = permutation_workload(1024, columnar=True)
    run_once(benchmark, lambda: time_engine("batched", 1024, out))


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
