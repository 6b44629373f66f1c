"""NCC → k-machine conversion (Appendix A, Corollary 2).

Each machine hosts the NCC nodes assigned to it by the random vertex
partition and simulates their local computation for free; every NCC message
between nodes on different machines crosses the corresponding machine link
as one O(log n)-bit k-machine message.  One NCC round therefore costs

    max(1, ⌈max_{(M₁,M₂)} #messages(M₁→M₂) / messages_per_link⌉)

k-machine rounds.  Over a T-round NCC execution with Θ̃(n) messages per
round this telescopes to the corollary's Õ(n T / k²), which the
``bench_kmachine`` experiment verifies empirically.

The conversion runs *live*: it registers itself as the NCC network's round
observer, so any unmodified NCC algorithm can be measured under conversion
regardless of which round engine executes the rounds (the observer hook is
part of the engine-independent :meth:`~repro.ncc.network.NCCNetwork.exchange`
interface).  Link-load accounting mirrors the engines' columnar idiom: each
round's traffic becomes parallel ``(src, dst)`` arrays mapped through the
vertex partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as _np

from ..ncc.message import InboxBatch
from ..ncc.network import NCCNetwork
from .model import random_vertex_partition


@dataclass
class KMachineCost:
    """Accumulated k-machine cost of an observed NCC execution."""

    kmachine_rounds: int = 0
    ncc_rounds: int = 0
    cross_messages: int = 0
    local_messages: int = 0
    max_link_load: int = 0


class KMachineSimulation:
    """Observe a live NCC run and account its k-machine simulation cost."""

    def __init__(
        self,
        net: NCCNetwork,
        k: int,
        *,
        seed: int = 0,
        messages_per_link: int = 1,
    ):
        if k < 2:
            raise ValueError("k must be >= 2")
        self.net = net
        self.k = k
        self.messages_per_link = messages_per_link
        self.assignment = random_vertex_partition(net.n, k, seed)
        self._assignment_arr = _np.asarray(self.assignment, dtype=_np.int64)
        self.cost = KMachineCost()
        self._prev_observer = net.round_observer
        net.round_observer = self._observe

    # ------------------------------------------------------------------
    def _observe(self, round_index: int, per_sender: Mapping[int, list]) -> None:
        if self._prev_observer is not None:
            self._prev_observer(round_index, per_sender)
        cross, local, max_load = self._round_load(per_sender)
        self.cost.kmachine_rounds += max(
            1, math.ceil(max_load / self.messages_per_link)
        )
        self.cost.ncc_rounds += 1
        self.cost.cross_messages += cross
        self.cost.local_messages += local
        self.cost.max_link_load = max(self.cost.max_link_load, max_load)

    def _round_load(
        self, per_sender: Mapping[int, list]
    ) -> tuple[int, int, int]:
        """One round's (cross, local, max directed link load), computed over
        parallel ``(src, dst)`` arrays mapped through the partition."""
        groups = list(per_sender.values())
        total = sum(len(msgs) for msgs in groups)
        if total == 0:
            return 0, 0, 0
        if all(type(g) is InboxBatch for g in groups):
            # Lazy columnar submissions: read the id columns straight off
            # the batches — materializing Messages here would undo the
            # whole point of the lazy round.
            src_ids = _np.fromiter(
                (s for g in groups for s in g.srcs()), _np.int64, total
            )
            dst_ids = _np.fromiter(
                (d for g in groups for d in g.dsts()), _np.int64, total
            )
        else:
            src_ids = _np.fromiter(
                (src for src, msgs in per_sender.items() for _ in msgs),
                _np.int64,
                total,
            )
            dst_ids = _np.fromiter(
                (m.dst for msgs in per_sender.values() for m in msgs),
                _np.int64,
                total,
            )
        m_src = self._assignment_arr[src_ids]
        m_dst = self._assignment_arr[dst_ids]
        cross_mask = m_src != m_dst
        cross = int(cross_mask.sum())
        if cross == 0:
            return 0, total, 0
        # Directed machine link (M1, M2) encoded as M1 * k + M2.
        codes = m_src[cross_mask] * self.k + m_dst[cross_mask]
        max_load = int(_np.bincount(codes).max())
        return cross, total - cross, max_load

    def detach(self) -> KMachineCost:
        """Stop observing; returns the accumulated cost."""
        self.net.round_observer = self._prev_observer
        return self.cost


def simulate_on_k_machines(
    make_runtime: Callable[[], "object"],
    run_algorithm: Callable[["object"], object],
    k: int,
    *,
    seed: int = 0,
) -> tuple[object, KMachineCost]:
    """Convenience wrapper: build a runtime, attach a k-machine observer,
    run the algorithm, detach, and return (algorithm result, cost)."""
    rt = make_runtime()
    sim = KMachineSimulation(rt.net, k, seed=seed)
    result = run_algorithm(rt)
    cost = sim.detach()
    return result, cost
