"""k-machine model and the NCC conversion (Appendix A)."""

import pytest

from repro import NCCRuntime
from repro.errors import ConfigurationError
from repro.kmachine import KMachineNetwork, KMachineSimulation, simulate_on_k_machines
from repro.kmachine.model import random_vertex_partition
from repro.graphs import generators
from tests.conftest import make_runtime


class TestKMachineNetwork:
    def test_basic_delivery(self):
        km = KMachineNetwork(4)
        km.send(0, 1, "a")
        km.send(2, 1, "b")
        inbox = km.exchange()
        assert sorted(inbox[1]) == [(0, "a"), (2, "b")]
        assert km.stats.rounds == 1

    def test_link_saturation_costs_rounds(self):
        km = KMachineNetwork(3)
        for i in range(5):
            km.send(0, 1, i)
        km.exchange()
        assert km.stats.rounds == 5  # one message per link per round
        assert km.stats.max_link_load == 5

    def test_parallel_links_share_round(self):
        km = KMachineNetwork(4)
        km.send(0, 1, "a")
        km.send(0, 2, "b")
        km.send(3, 1, "c")
        km.exchange()
        assert km.stats.rounds == 1

    def test_local_messages_free(self):
        km = KMachineNetwork(2)
        km.send(0, 0, "self")
        inbox = km.exchange()
        assert inbox == {}
        assert km.stats.messages == 0

    def test_broadcast(self):
        km = KMachineNetwork(4)
        km.broadcast(2, "hello")
        inbox = km.exchange()
        assert set(inbox) == {0, 1, 3}

    def test_messages_per_link_bandwidth(self):
        km = KMachineNetwork(2, messages_per_link=4)
        for i in range(8):
            km.send(0, 1, i)
        km.exchange()
        assert km.stats.rounds == 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            KMachineNetwork(1)
        with pytest.raises(ConfigurationError):
            KMachineNetwork(4, messages_per_link=0)
        km = KMachineNetwork(4)
        with pytest.raises(ValueError):
            km.send(0, 9, "x")


class TestPartition:
    def test_deterministic(self):
        assert random_vertex_partition(50, 4, seed=1) == random_vertex_partition(50, 4, seed=1)

    def test_range(self):
        part = random_vertex_partition(100, 8, seed=2)
        assert len(part) == 100
        assert set(part) <= set(range(8))

    def test_roughly_balanced(self):
        part = random_vertex_partition(400, 4, seed=3)
        counts = [part.count(m) for m in range(4)]
        assert all(50 < c < 150 for c in counts)


class TestConversion:
    def run_mis_under_conversion(self, n, k, seed=1):
        from repro.algorithms import MISAlgorithm

        g = generators.forest_union(n, 2, seed=4)
        rt = make_runtime(n, seed=seed, lightweight_sync=True, strict=False)
        sim = KMachineSimulation(rt.net, k, seed=seed)
        res = MISAlgorithm(rt, g).run()
        cost = sim.detach()
        return res, cost

    def test_cost_fields_consistent(self):
        res, cost = self.run_mis_under_conversion(32, 4)
        assert cost.ncc_rounds > 0
        assert cost.kmachine_rounds >= cost.ncc_rounds
        assert cost.cross_messages + cost.local_messages > 0

    def test_more_machines_fewer_rounds(self):
        """Corollary 2: cost scales ~1/k²; doubling k must help."""
        _, c2 = self.run_mis_under_conversion(48, 2)
        _, c8 = self.run_mis_under_conversion(48, 8)
        assert c8.kmachine_rounds < c2.kmachine_rounds

    def test_detach_restores_observer(self):
        rt = make_runtime(8)
        sim = KMachineSimulation(rt.net, 2)
        sim.detach()
        assert rt.net.round_observer is None

    def test_observers_chain(self):
        rt = make_runtime(8)
        seen = []
        rt.net.round_observer = lambda r, p: seen.append(r)
        sim = KMachineSimulation(rt.net, 2)
        rt.net.exchange(())
        assert seen == [0]  # previous observer still called
        sim.detach()

    def test_rejects_k_below_two(self):
        rt = make_runtime(8)
        with pytest.raises(ValueError):
            KMachineSimulation(rt.net, 1)

    def test_wrapper(self):
        from repro.algorithms import MISAlgorithm
        from repro.registry import bench_config

        g = generators.forest_union(16, 2, seed=5)
        result, cost = simulate_on_k_machines(
            lambda: NCCRuntime(16, bench_config(1)),
            lambda rt: MISAlgorithm(rt, g).run(),
            4,
        )
        assert cost.ncc_rounds > 0
        assert len(result.members) > 0
