"""Experiment OV-1 — Section 6's closing remark: the aggregation backbone
from Θ(log n) random contacts.

The paper: "all of our algorithms still achieve the presented runtimes if
… they initially only know Θ(log n) random nodes."  The bootstrap
(min-flooding over the contact digraph under the introduction rule) must
converge in O(log n) rounds with an O(log n)-depth tree, and the resulting
knowledge-free Aggregate-and-Broadcast must land in the same regime as the
full-knowledge butterfly version of Theorem 2.2.
"""

import math

import pytest

from repro import NCCRuntime
from repro.analysis.reporting import format_table
from repro.registry import bench_config
from repro.overlay import (
    bootstrap_aggregation_tree,
    random_contact_lists,
    tree_aggregate_broadcast,
)
from repro.primitives import SUM

from .conftest import run_once

SEED = 8


def test_bootstrap_scaling(benchmark, report):
    rows = []
    for n in (32, 64, 128, 256, 512):
        rt = NCCRuntime(n, bench_config(SEED))
        contacts = random_contact_lists(n, 2.0, seed=SEED)
        res = bootstrap_aggregation_tree(rt, contacts)
        assert res.leader == 0
        rows.append(
            [n, res.converged_round, res.depth, round(math.log2(n), 1), res.rounds]
        )
        assert res.converged_round <= 3 * math.log2(n)
        assert res.depth <= 3 * math.log2(n)
    report(
        format_table(
            ["n", "flood converged", "tree depth", "log n", "window rounds"],
            rows,
            title="OV-1  Bootstrap from 2·log n random contacts (Section 6 remark)",
        )
    )
    run_once(benchmark, lambda: None)


def test_knowledge_free_ab_vs_butterfly(benchmark, report):
    rows = []
    for n in (64, 256):
        rt = NCCRuntime(n, bench_config(SEED))
        contacts = random_contact_lists(n, 2.0, seed=SEED)
        tree = bootstrap_aggregation_tree(rt, contacts)
        before = rt.net.round_index
        total = tree_aggregate_broadcast(rt, tree, {u: 1 for u in range(n)}, SUM)
        tree_rounds = rt.net.round_index - before
        assert total == n

        rt2 = NCCRuntime(n, bench_config(SEED))
        before = rt2.net.round_index
        rt2.aggregate_and_broadcast({u: 1 for u in range(n)}, SUM)
        bf_rounds = rt2.net.round_index - before
        rows.append([n, tree_rounds, bf_rounds, tree.rounds])
        assert tree_rounds <= 4 * bf_rounds
    report(
        format_table(
            ["n", "tree A&B rounds", "butterfly A&B rounds", "bootstrap (once)"],
            rows,
            title="OV-1  Knowledge-free A&B vs Theorem 2.2 butterfly A&B",
        )
    )
    run_once(benchmark, lambda: None)
