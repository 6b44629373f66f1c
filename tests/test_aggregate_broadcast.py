"""Aggregate-and-Broadcast (Theorem 2.2), barrier, pipelined broadcast,
gather-to-root."""

import pytest

from repro import NCCRuntime
from repro.primitives import MAX, MIN, SUM, aggregate_and_broadcast, barrier, gather_to_root
from tests.conftest import make_runtime


class TestAggregateAndBroadcast:
    def test_sum_over_all_nodes(self, rt20):
        total = rt20.aggregate_and_broadcast({u: u for u in range(20)}, SUM)
        assert total == sum(range(20))

    def test_min_max(self, rt16):
        assert rt16.aggregate_and_broadcast({3: 7, 9: 2, 15: 11}, MIN) == 2
        assert rt16.aggregate_and_broadcast({3: 7, 9: 2, 15: 11}, MAX) == 11

    def test_subset_of_inputs(self, rt32):
        assert rt32.aggregate_and_broadcast({31: 5}, SUM) == 5

    def test_empty_returns_none(self, rt16):
        assert rt16.aggregate_and_broadcast({}, SUM) is None

    def test_rounds_exactly_2d_plus_2(self, strict_config):
        for n, d in [(16, 4), (20, 4), (64, 6)]:
            rt = NCCRuntime(n, strict_config)
            before = rt.net.round_index
            rt.aggregate_and_broadcast({u: 1 for u in range(n)}, SUM)
            assert rt.net.round_index - before == 2 * d + 2

    def test_non_power_of_two_partners_participate(self, strict_config):
        # nodes >= 2^d contribute through partners; their values must count.
        rt = NCCRuntime(20, strict_config)
        total = rt.aggregate_and_broadcast({u: 1 for u in range(16, 20)}, SUM)
        assert total == 4

    def test_single_node(self, strict_config):
        rt = NCCRuntime(1, strict_config)
        assert rt.aggregate_and_broadcast({0: 9}, SUM) == 9

    def test_strict_no_violations(self, rt32):
        rt32.aggregate_and_broadcast({u: u * u for u in range(32)}, SUM)
        assert rt32.net.stats.violation_count == 0


class TestBarrier:
    def test_barrier_costs_2d_plus_2(self, rt16):
        before = rt16.net.round_index
        rt16.barrier()
        assert rt16.net.round_index - before == 2 * 4 + 2

    def test_lightweight_barrier_same_rounds_no_messages(self):
        rt = make_runtime(16, lightweight_sync=True)
        before_r = rt.net.round_index
        before_m = rt.net.stats.messages
        rt.barrier()
        assert rt.net.round_index - before_r == 10
        assert rt.net.stats.messages == before_m


class TestPipelinedBroadcast:
    def test_all_nodes_receive_in_order(self, rt20):
        items = list(range(30))
        out = rt20.pipelined_broadcast(items)
        assert all(out[u] == items for u in range(20))

    def test_from_nonzero_source(self, rt16):
        out = rt16.pipelined_broadcast([7, 8], src=5)
        assert all(out[u] == [7, 8] for u in range(16))

    def test_empty_broadcast(self, rt16):
        out = rt16.pipelined_broadcast([])
        assert all(v == [] for v in out.values())

    def test_single_node_network(self, strict_config):
        rt = NCCRuntime(1, strict_config)
        assert rt.pipelined_broadcast([1, 2, 3])[0] == [1, 2, 3]

    def test_rounds_scale_with_items_over_rate(self, rt32):
        k = 100
        before = rt32.net.round_index
        rt32.pipelined_broadcast([0] * k)
        rounds = rt32.net.round_index - before
        rate = max(1, rt32.net.capacity // 2)
        # depth + k/rate with modest slack
        assert rounds <= 5 + k // rate + k  # loose upper guard
        assert rounds >= k // rate  # pipelining cannot beat the link rate

    def test_strict_capacity(self, rt32):
        rt32.pipelined_broadcast(list(range(64)))
        assert rt32.net.stats.violation_count == 0

    @pytest.mark.parametrize("n", [2, 7, 32, 256])
    def test_identical_items_replay_the_generic_loop(self, n, strict_config):
        """``[x] * k`` takes the closed-form broadcast (typed columns for
        its bulk rounds); ``k`` equal but distinct ints take the generic
        FIFO loop.  Both submit the same rounds, message for message."""
        item, k = 1000, 40

        def record(items):
            rt = NCCRuntime(n, strict_config)
            rounds = []
            rt.net.round_observer = lambda _r, sub: rounds.append(
                [(s, b.dsts(), b.payloads(), b.kinds()) for s, b in sub.items()]
            )
            received = rt.pipelined_broadcast(items)
            return rounds, received, rt.net.stats.comparable()

        distinct = [int(str(item)) for _ in range(k)]
        assert distinct[0] is not distinct[1]
        assert record([item] * k) == record(distinct)


class TestGatherToRoot:
    def test_collects_all_items_sorted_by_owner(self, rt20):
        items = {u: ("v", u) for u in (3, 7, 15, 18)}
        got = rt20.gather_to_root(items)
        assert got == [("v", 3), ("v", 7), ("v", 15), ("v", 18)]

    def test_includes_node_zero_and_partners(self, rt20):
        got = rt20.gather_to_root({0: "a", 17: "b"})
        assert got == ["a", "b"]

    def test_empty(self, rt16):
        assert rt16.gather_to_root({}) == []

    def test_single_node(self, strict_config):
        rt = NCCRuntime(1, strict_config)
        assert rt.gather_to_root({0: "x"}) == ["x"]

    def test_strict_capacity(self, rt32):
        rt32.gather_to_root({u: u for u in range(32)})
        assert rt32.net.stats.violation_count == 0
