"""Experiment KM-1 — Corollary 2 (Appendix A):
any T-round NCC algorithm simulates on k machines in Õ(n T / k²) rounds.

A live NCC execution (MIS and MST) is observed by the k-machine conversion
for k ∈ {2,4,8,16}; the measured k-machine rounds must fall superlinearly
in k (the k² in the denominator, up to the additive T term for lockstep
synchronization of rounds that carry few messages).
"""

import pytest

from repro import NCCRuntime
from repro.algorithms import MISAlgorithm, MSTAlgorithm
from repro.analysis.reporting import format_table
from repro.registry import bench_config
from repro.graphs import generators, weights
from repro.kmachine import KMachineSimulation

from .conftest import run_once

SEED = 6
KS = [2, 4, 8, 16]


def observe(algorithm_factory, n, k):
    rt = NCCRuntime(n, bench_config(SEED))
    sim = KMachineSimulation(rt.net, k, seed=SEED)
    algorithm_factory(rt).run()
    return sim.detach()


def test_kmachine_mis_scaling(benchmark, report):
    n = 96
    g = generators.forest_union(n, 2, seed=SEED)
    rows = []
    costs = {}
    for k in KS:
        cost = observe(lambda rt: MISAlgorithm(rt, g), n, k)
        costs[k] = cost
        # Õ(nT/k²) + T lockstep floor
        predicted = cost.ncc_rounds * (1 + n / (k * k))
        rows.append(
            [
                k,
                cost.ncc_rounds,
                cost.kmachine_rounds,
                cost.max_link_load,
                round(cost.kmachine_rounds / cost.ncc_rounds, 2),
            ]
        )
    # more machines => cheaper simulation, approaching the T floor
    assert costs[16].kmachine_rounds < costs[2].kmachine_rounds
    assert costs[16].kmachine_rounds >= costs[16].ncc_rounds  # T is a floor
    report(
        format_table(
            ["k", "NCC rounds T", "k-machine rounds", "max link load", "overhead"],
            rows,
            title="KM-1  MIS under k-machine conversion (Corollary 2: Õ(nT/k²))",
        )
    )
    run_once(benchmark, lambda: observe(lambda rt: MISAlgorithm(rt, g), n, 4))


def test_kmachine_mst_scaling(benchmark, report):
    n = 32
    g = weights.with_random_weights(
        generators.forest_union(n, 2, seed=SEED), seed=SEED + 1
    )
    rows = []
    costs = {}
    for k in (2, 8):
        cost = observe(lambda rt: MSTAlgorithm(rt, g), n, k)
        costs[k] = cost
        rows.append([k, cost.ncc_rounds, cost.kmachine_rounds, cost.cross_messages])
    assert costs[8].kmachine_rounds <= costs[2].kmachine_rounds
    report(
        format_table(
            ["k", "NCC rounds T", "k-machine rounds", "cross messages"],
            rows,
            title="KM-1  MST under k-machine conversion (cf. Pandurangan et al. [51])",
        )
    )
    run_once(benchmark, lambda: None)
