"""Experiment SEP-1 — the introduction's model-separation claims.

* gossip: 1 round in the Congested Clique vs Ω(n/log n) in the NCC;
* broadcast: 1 round vs Θ(log n) (lower bound Ω(log n / log log n));
* per-round bandwidth: Θ̃(n²) bits vs Θ̃(n) bits.

Both sides are executed for real: the Congested Clique simulator counts its
messages/bits, and the NCC runs an actual round-robin gossip schedule and
the butterfly broadcast under capacity enforcement.
"""

import math

import pytest

from repro import NCCRuntime
from repro.analysis.reporting import format_table
from repro.registry import bench_config
from repro.baselines.congested_clique import (
    broadcast_congested_clique,
    broadcast_ncc,
    gossip_congested_clique,
    gossip_ncc,
)

from .conftest import run_once

SEED = 5


def test_gossip_separation(benchmark, report):
    rows = []
    for n in (32, 64, 128, 256):
        cc = gossip_congested_clique(n)
        rt = NCCRuntime(n, bench_config(SEED))
        ncc_rounds = gossip_ncc(rt)
        rows.append(
            [
                n,
                cc.rounds,
                ncc_rounds,
                math.ceil((n - 1) / rt.net.capacity),
                round(n / math.log2(n), 1),
            ]
        )
        assert cc.rounds == 1
        assert ncc_rounds == math.ceil((n - 1) / rt.net.capacity)
    # NCC gossip grows ~n/log n while CC stays at 1: the gap must widen
    # (8x n gives ≥ 3x rounds; exactly n/log n up to capacity rounding).
    assert rows[-1][2] >= rows[0][2] * 3
    report(
        format_table(
            ["n", "CC rounds", "NCC rounds", "⌈(n−1)/cap⌉", "n/log n"],
            rows,
            title="SEP-1  Gossip: Congested Clique (1 round) vs NCC (Ω(n/log n))",
        )
    )
    run_once(benchmark, lambda: gossip_ncc(NCCRuntime(128, bench_config(SEED))))


def test_broadcast_separation(benchmark, report):
    rows = []
    for n in (32, 128, 512):
        cc = broadcast_congested_clique(n)
        rt = NCCRuntime(n, bench_config(SEED))
        ncc_rounds = broadcast_ncc(rt)
        rows.append([n, cc.rounds, ncc_rounds, round(math.log2(n), 1)])
        assert cc.rounds == 1
        assert ncc_rounds <= 5 * math.log2(n)
    report(
        format_table(
            ["n", "CC rounds", "NCC rounds", "log n"],
            rows,
            title="SEP-1  Broadcast: 1 round vs Θ(log n) in the NCC",
        )
    )
    run_once(benchmark, lambda: None)


def test_per_round_bandwidth(benchmark, report):
    """Θ̃(n²) vs Θ̃(n) bits per round."""
    rows = []
    for n in (32, 128, 512):
        cc = gossip_congested_clique(n)
        cc_bits_per_round = cc.bits / cc.rounds
        rt = NCCRuntime(n, bench_config(SEED))
        gossip_ncc(rt)
        ncc_bits_per_round = rt.net.stats.bits / max(1, rt.net.stats.rounds)
        rows.append(
            [
                n,
                int(cc_bits_per_round),
                int(ncc_bits_per_round),
                round(cc_bits_per_round / max(1, ncc_bits_per_round), 1),
            ]
        )
    # quadratic vs quasi-linear: the ratio must grow roughly like n/log² n.
    assert rows[-1][3] > rows[0][3] * 3
    report(
        format_table(
            ["n", "CC bits/round", "NCC bits/round", "ratio"],
            rows,
            title="SEP-1  Per-round bandwidth: Θ̃(n²) vs Θ̃(n) bits",
        )
    )
    run_once(benchmark, lambda: None)
