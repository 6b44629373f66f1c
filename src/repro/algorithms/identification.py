"""The Identification Algorithm (Section 4.1).

Learning nodes ``L`` and playing nodes ``P``: every playing node knows a
subset of its neighbours that are *potentially learning*; every learning
node must determine which of its neighbours are playing.

Mechanics (all numbers per Section 4.1):

* ``s`` shared hash functions ``h₁..h_s : arcs → [q]`` map every directed
  edge to up to ``s`` trials;
* playing node ``v`` joins, for every potentially-learning neighbour ``w``
  and every trial ``t`` the arc ``(w, v)`` participates in, the aggregation
  group ``(id(w), t)`` with input ``(id(w,v), 1)``; the aggregate XORs the
  identifiers and sums the counts;
* learning node ``u`` is the target of groups ``(id(u), t)`` for all
  ``t ∈ [q]`` and compares the received ``(X'(t), x'(t))`` against its local
  ``(X(t), x(t))`` over its candidate arcs: trials with
  ``x(t) = x'(t) + 1`` expose one *red* arc (a neighbour that is NOT
  playing) whose identifier is ``X(t) ⊕ X'(t)`` — repeated peeling
  (:class:`~repro.hashing.peeling.TrialTable`) recovers red edges until it
  stalls.

Lemma 4.2 bounds the stall probability; callers handle the ``unsuccessful``
remainder (Stage 2 of the orientation algorithm runs a second, finer pass).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..hashing.kwise import KWiseHash
from ..hashing.peeling import TrialTable, trials_of
from ..ncc.graph_input import InputGraph
from ..primitives.aggregation import AggregationProblem
from ..primitives.functions import xor_count
from ..registry import register_algorithm
from ..runtime import NCCRuntime


@dataclass
class IdentificationResult:
    """Per-learner outcome of one identification run."""

    #: learner -> red neighbours recovered (endpoints that are NOT playing)
    red_neighbors: dict[int, list[int]] = field(default_factory=dict)
    #: learners whose peeling stalled before recovering every red edge
    unsuccessful: set[int] = field(default_factory=set)
    #: rounds the pass ran (the registry's demo run also counts its
    #: family agreement)
    rounds: int = 0


def identification_family(
    rt: NCCRuntime, s: int, q: int, *, tag: object
) -> Sequence[KWiseHash]:
    """Agree on the run's ``s`` hash functions of range ``q`` (one charged
    pipelined broadcast, Section 4.2's binary-tree distribution)."""
    return rt.shared.hash_family(tag, s, q)


def run_identification(
    rt: NCCRuntime,
    graph: InputGraph,
    learners: Iterable[int],
    candidates: Mapping[int, Iterable[int]],
    player_potential: Mapping[int, Iterable[int]],
    family: Sequence[KWiseHash],
    *,
    kind: str = "identification",
) -> IdentificationResult:
    """One distributed identification pass.

    Parameters
    ----------
    learners:
        The learning set L.
    candidates:
        ``candidates[u]`` — the neighbours ``u`` considers possibly playing
        (u's local XOR side covers the arcs ``(u, v)`` for these v).
    player_potential:
        ``player_potential[v]`` — playing node v's potentially-learning
        neighbours (v contributes the arc ``(w, v)`` for each such w).
    family:
        The ``s`` shared hash functions with range ``q`` (from
        :func:`identification_family`).
    """
    q = family[0].range_size
    learners = list(learners)
    result = IdentificationResult()
    start_round = rt.net.round_index

    with rt.net.phase(kind):
        # ---- playing side: build the aggregation memberships.
        memberships: dict[int, dict[tuple[int, int], tuple[int, int]]] = {}
        targets: dict[tuple[int, int], int] = {}
        learner_set = set(learners)
        for v, potentials in player_potential.items():
            entry: dict[tuple[int, int], tuple[int, int]] = {}
            for w in potentials:
                arc = graph.arc_id(w, v)
                for t in trials_of(arc, family):
                    entry[(w, t)] = (arc, 1)
                    # Groups of non-learning "potential" targets still exist
                    # and are delivered (the paper's potential sets may
                    # include nodes that are no longer learning; they simply
                    # discard the aggregate).
                    targets[(w, t)] = w
            if entry:
                memberships[v] = entry
        problem = AggregationProblem(
            memberships=memberships,
            targets=targets,
            fn=xor_count,
            ell2_bound=q,
        )
        outcome = rt.aggregation(
            problem, tag=rt.shared.fresh_tag("ident"), kind=kind + ":agg"
        )

        # ---- learning side: fill trial tables and peel.
        for u in learners:
            table = TrialTable(q, family)
            for v in candidates.get(u, ()):
                table.add_local(graph.arc_id(u, v))
            got = outcome.by_target.get(u, {})
            for (w, t), (x_xor, x_cnt) in got.items():
                if w != u:
                    continue  # group addressed to someone else (impossible)
                table.set_remote(t, x_xor, x_cnt)
            peel = table.peel()
            reds: list[int] = []
            ok = peel.complete
            for arc in peel.identified:
                a, b = graph.arc_of_id(arc)
                if a != u or b not in set(graph.neighbors(u)):
                    # A mis-decoded arc: the trial table produced garbage,
                    # which Lemma 4.2 makes vanishingly unlikely; treat the
                    # learner as unsuccessful rather than propagate a wrong
                    # identification.
                    ok = False
                    continue
                reds.append(b)
            result.red_neighbors[u] = reds
            if not ok:
                result.unsuccessful.add(u)

    result.rounds = rt.net.round_index - start_round
    return result


# ----------------------------------------------------------------------
# Registry entry
# ----------------------------------------------------------------------
def _demo_playing(g: InputGraph) -> set[int]:
    """The canonical demo cast: every third node plays."""
    return {u for u in range(g.n) if u % 3 == 0}


def _demo_run(rt: NCCRuntime, g: InputGraph) -> IdentificationResult:
    """One identification pass on the canonical demo instance: learners are
    the non-playing nodes, candidates are all their neighbours.  Its
    ``rounds`` counts the whole run, the family agreement included."""
    start_round = rt.net.round_index
    playing = _demo_playing(g)
    fam = identification_family(rt, 7, 256, tag="parity-fam")
    learners = [u for u in range(g.n) if u not in playing]
    candidates = {u: list(g.neighbors(u)) for u in learners}
    potential = {v: [w for w in g.neighbors(v) if w not in playing] for v in playing}
    result = run_identification(rt, g, learners, candidates, potential, fam)
    result.rounds = rt.net.round_index - start_round
    return result


def _check(g: InputGraph, result: IdentificationResult, params: dict) -> bool:
    playing = _demo_playing(g)
    for u in range(g.n):
        if u in playing:
            continue
        true_red = {v for v in g.neighbors(u) if v not in playing}
        recovered = set(result.red_neighbors.get(u, ()))
        if not recovered <= true_red:
            return False  # soundness: recovered arcs must be genuinely red
        if u not in result.unsuccessful and recovered != true_red:
            return False  # completeness for successful learners
    return True


def _describe(
    g: InputGraph, result: IdentificationResult, rt: NCCRuntime, params: dict
) -> dict:
    from ..registry import describe_workload

    row = describe_workload(g, a_known=params["a"])
    row.update(
        rounds=result.rounds,
        learners=g.n - len(_demo_playing(g)),
        unsuccessful=len(result.unsuccessful),
        recovered=sum(len(v) for v in result.red_neighbors.values()),
    )
    return row


def _parity(rt: NCCRuntime, g: InputGraph):
    res = _demo_run(rt, g)
    return (sorted(res.red_neighbors.items()), sorted(res.unsuccessful), res.rounds)


@register_algorithm(
    "identification",
    aliases=("ident",),
    summary="the Identification Algorithm on its demo cast (Section 4.1)",
    bound="O(1) aggregations per pass",
    default_scenario="forest-union",
    check=_check,
    describe=_describe,
    parity=_parity,
)
def _run(rt: NCCRuntime, g: InputGraph) -> IdentificationResult:
    return _demo_run(rt, g)
