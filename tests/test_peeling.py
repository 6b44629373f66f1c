"""Trial-table peeling: the Identification Algorithm's decoder."""

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from repro.hashing.kwise import hash_family
from repro.hashing.peeling import TrialTable, simulate_identification, trials_of

Q = 64
FAM = hash_family(5, 6, Q, seed=31)


class TestTrialTableBasics:
    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            TrialTable(0, FAM)

    def test_rejects_mismatched_hash_range(self):
        other = hash_family(3, 4, Q + 1, seed=1)
        with pytest.raises(ValueError):
            TrialTable(Q, other)

    def test_counts_accumulate(self):
        t = TrialTable(Q, FAM)
        t.add_local(12345)
        total = sum(t.local_count(i) for i in range(Q))
        assert total == len(trials_of(12345, FAM))

    def test_remote_bounds_checked(self):
        t = TrialTable(Q, FAM)
        with pytest.raises(IndexError):
            t.set_remote(Q, 1, 1)
        with pytest.raises(IndexError):
            t.accumulate_remote(-1, 1, 1)


class TestPeeling:
    def test_single_red_edge_recovered(self):
        res = simulate_identification([111], [], FAM, Q)
        assert res.complete
        assert res.identified == [111]

    def test_all_blue_recovers_nothing(self):
        res = simulate_identification([5, 6, 7], [5, 6, 7], FAM, Q)
        assert res.complete
        assert res.identified == []

    def test_mixed_case(self):
        candidates = list(range(100, 120))
        blue = candidates[:15]
        res = simulate_identification(candidates, blue, FAM, Q)
        assert res.complete
        assert sorted(res.identified) == candidates[15:]

    def test_many_reds_small_q_stalls(self):
        """With q too small for the red count, peeling must report failure
        rather than fabricate identifiers."""
        tiny_q = 4
        fam = hash_family(3, 4, tiny_q, seed=5)
        candidates = list(range(1, 40))
        res = simulate_identification(candidates, [], fam, tiny_q)
        assert not res.complete
        # Everything it did identify must be genuine.
        assert set(res.identified) <= set(candidates)

    def test_zero_identifier_never_produced(self):
        res = simulate_identification([1, 2, 3], [2], FAM, Q)
        assert 0 not in res.identified

    @given(
        st.sets(st.integers(min_value=1, max_value=10**6), min_size=0, max_size=25),
        st.data(),
    )
    @settings(max_examples=120)
    def test_identified_subset_of_reds_and_complete_means_all(self, cands, data):
        """Safety: peeling never claims a blue or unknown edge is red; on
        completion it found exactly the red set."""
        cands = sorted(cands)
        blue = set(data.draw(st.sets(st.sampled_from(cands), max_size=len(cands)))) if cands else set()
        red = [c for c in cands if c not in blue]
        res = simulate_identification(cands, sorted(blue), FAM, Q)
        assert set(res.identified) <= set(red)
        if res.complete:
            assert sorted(res.identified) == red

    def test_small_red_sets_reliably_recovered(self):
        """Lemma 4.2 regime: few red edges, q >> reds — always completes
        for these fixed seeds."""
        for base in range(20):
            cands = [base * 50 + i + 1 for i in range(12)]
            blue = cands[:9]
            res = simulate_identification(cands, blue, FAM, Q)
            assert res.complete, f"stalled at base={base}"
            assert sorted(res.identified) == cands[9:]


# ----------------------------------------------------------------------
# The sparse peel against the dense decoder
# ----------------------------------------------------------------------
class DenseTable:
    """The O(q) decoder ``TrialTable`` used to be: full per-trial lists,
    a worklist seeded by scanning all q trials, ``complete`` checked over
    all q trials.  Kept as the oracle; ``stop`` records why the peel
    ended, so the tests can show which regimes the draws reach."""

    def __init__(self, q, hashes):
        self.q = q
        self.hashes = tuple(hashes)
        self.xor = [0] * q
        self.cnt = [0] * q
        self.remote_xor = [0] * q
        self.remote_cnt = [0] * q
        self.stop = None

    def add_local(self, edge_id):
        for t in trials_of(edge_id, self.hashes):
            self.xor[t] ^= edge_id
            self.cnt[t] += 1

    def set_remote(self, trial, xor_value, count):
        self.remote_xor[trial] = xor_value
        self.remote_cnt[trial] = count

    def accumulate_remote(self, trial, xor_value, count):
        self.remote_xor[trial] ^= xor_value
        self.remote_cnt[trial] += count

    def peel(self, max_iterations=None):
        xor = list(self.xor)
        cnt = list(self.cnt)
        identified = []
        limit = max_iterations if max_iterations is not None else self.q * 64 + 64
        pending = [t for t in range(self.q) if cnt[t] == self.remote_cnt[t] + 1]
        seen_ids = set()
        iterations = 0
        self.stop = "drained"
        while pending and iterations < limit:
            iterations += 1
            t = pending.pop()
            if cnt[t] != self.remote_cnt[t] + 1:
                continue
            edge_id = xor[t] ^ self.remote_xor[t]
            if edge_id == 0 or edge_id in seen_ids:
                self.stop = "zero" if edge_id == 0 else "duplicate"
                break
            seen_ids.add(edge_id)
            identified.append(edge_id)
            for t2 in trials_of(edge_id, self.hashes):
                xor[t2] ^= edge_id
                cnt[t2] -= 1
                if cnt[t2] == self.remote_cnt[t2] + 1:
                    pending.append(t2)
        if pending and iterations >= limit and self.stop == "drained":
            self.stop = "cut-short"
        complete = all(
            cnt[t] == self.remote_cnt[t] and xor[t] == self.remote_xor[t]
            for t in range(self.q)
        )
        return identified, complete


@st.composite
def table_writes(draw):
    """A family plus a fill: candidate edges (some added twice), the blue
    ones folded in remotely, then raw ``set_remote``/``accumulate_remote``
    writes aimed at candidates' trials or anywhere, with counts that may
    undercut the local side (the source of mis-decoded identifiers)."""
    q = draw(st.integers(min_value=1, max_value=160))
    s = draw(st.integers(min_value=1, max_value=4))
    fam = hash_family(s, 3, q, seed=draw(st.integers(min_value=0, max_value=2**16)))
    ids = st.integers(min_value=1, max_value=2**20)
    cands = draw(st.lists(ids, max_size=20, unique=True))
    writes = [("local", e) for e in cands]
    if cands:
        writes += [("local", e) for e in draw(st.lists(st.sampled_from(cands), max_size=3))]
        for e in sorted(draw(st.sets(st.sampled_from(cands)))):
            writes += [("acc", t, e, 1) for t in sorted(trials_of(e, fam))]
        aimed = sorted({t for e in cands for t in trials_of(e, fam)})
        trial = st.one_of(st.integers(min_value=0, max_value=q - 1), st.sampled_from(aimed))
        value = st.one_of(ids, st.sampled_from(cands))
    else:
        trial = st.integers(min_value=0, max_value=q - 1)
        value = ids
    raw = st.tuples(
        st.sampled_from(["set", "acc"]), trial, value, st.integers(min_value=-1, max_value=2)
    )
    writes += draw(st.lists(raw, max_size=6))
    limit = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=4)))
    return q, fam, writes, limit


def _fill(table, writes):
    for op, *args in writes:
        if op == "local":
            table.add_local(*args)
        elif op == "set":
            table.set_remote(*args)
        else:
            table.accumulate_remote(*args)
    return table


def _both(case):
    q, fam, writes, limit = case
    dense = _fill(DenseTable(q, fam), writes)
    sparse = _fill(TrialTable(q, fam), writes)
    return dense, dense.peel(limit), sparse.peel(limit)


def _touched(fam, writes):
    touched = set()
    for op, first, *_ in writes:
        touched |= trials_of(first, fam) if op == "local" else {first}
    return touched


def _regime(case):
    """Which stall regime a draw hits (``None`` for an ordinary peel)."""
    _q, fam, writes, _limit = case
    dense, (identified, _complete), _sparse = _both(case)
    touched = _touched(fam, writes)
    if any(trials_of(e, fam) - touched for e in identified):
        return "garbage-outside-touched"
    return dense.stop if dense.stop != "drained" else None


class TestSparsePeelMatchesDense:
    @given(table_writes())
    @settings(max_examples=300, deadline=None)
    def test_identified_and_complete_match(self, case):
        _dense, (identified, complete), got = _both(case)
        assert got.identified == identified  # order included
        assert got.complete is complete

    @pytest.mark.parametrize("regime", ["garbage-outside-touched", "duplicate", "cut-short"])
    def test_draws_reach_regime(self, regime):
        """The differential draws cover each stall regime: a mis-decoded
        identifier with trials nobody touched, a duplicate identifier,
        and a peel cut short by ``max_iterations``."""
        find(
            table_writes(),
            lambda case: _regime(case) == regime,
            settings=settings(
                max_examples=5000,
                database=None,
                deadline=None,
                derandomize=True,
                phases=[Phase.generate],
            ),
        )

    def test_mis_decoded_id_unbalances_untouched_trials(self):
        """A garbage identifier that balances the one trial it was decoded
        from still unbalances its other, untouched trials: the peel is
        incomplete, so ``complete`` must look past the touched set."""
        fam = hash_family(2, 3, Q, seed=7)
        garbage = next(e for e in range(1, 10_000) if len(trials_of(e, fam)) == 2)
        home, away = sorted(trials_of(garbage, fam))
        writes = [("set", home, garbage, -1)]  # x(t) = 0 = x'(t) + 1
        _dense, (identified, complete), got = _both((Q, fam, writes, None))
        assert identified == [garbage] and not complete
        assert away not in _touched(fam, writes)
        assert (got.identified, got.complete) == (identified, complete)
