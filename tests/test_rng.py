"""SharedRandomness: determinism, agreement caching and charging, salted
keys, and the exact private-draw helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import NCCConfig, NCCRuntime
from repro.primitives.aggregation import AggregationProblem, run_aggregation
from repro.primitives.functions import SUM
from repro.rng import SharedRandomness, randbelow_many, seeded_rng


class TestDeterminism:
    def test_same_tag_same_function(self):
        s = SharedRandomness(NCCConfig(seed=1), 64)
        assert s.hash_function("t", 100) is s.hash_function("t", 100)

    def test_two_brokers_same_seed_agree(self):
        a = SharedRandomness(NCCConfig(seed=9), 64)
        b = SharedRandomness(NCCConfig(seed=9), 64)
        fa, fb = a.hash_function("x", 50), b.hash_function("x", 50)
        assert all(fa(i) == fb(i) for i in range(100))

    def test_different_seeds_disagree(self):
        a = SharedRandomness(NCCConfig(seed=1), 64)
        b = SharedRandomness(NCCConfig(seed=2), 64)
        fa, fb = a.hash_function("x", 1 << 20), b.hash_function("x", 1 << 20)
        assert any(fa(i) != fb(i) for i in range(50))

    def test_node_rng_streams_independent(self):
        s = SharedRandomness(NCCConfig(seed=1), 64)
        r1 = s.node_rng(0, "step").random()
        r2 = s.node_rng(1, "step").random()
        r1again = s.node_rng(0, "step").random()
        assert r1 == r1again
        assert r1 != r2

    def test_fresh_tags_unique(self):
        s = SharedRandomness(NCCConfig(seed=1), 64)
        tags = {s.fresh_tag("x") for _ in range(100)}
        assert len(tags) == 100


class TestSaltedKeys:
    def test_distinct_pairs_distinct_keys(self):
        seen = set()
        for nonce in range(20):
            for key in range(50):
                seen.add(SharedRandomness.salted_key(nonce, key))
        assert len(seen) == 20 * 50

    def test_large_keys_fold(self):
        big = 1 << 100
        k1 = SharedRandomness.salted_key(1, big)
        k2 = SharedRandomness.salted_key(1, big + 1)
        assert k1 != k2

    def test_negative_keys_keep_the_nonce(self):
        salted = SharedRandomness.salted_key
        for key in (-1, -5, -(2**40), -(2**62) + 1):
            assert len({salted(nonce, key) for nonce in (1, 2, 3)}) == 3, key
        keys = [k for base in (0, 2**30, 2**62 - 20) for k in range(base - 20, base + 20)]
        keys = [k for k in keys if -(2**62) < k < 2**62]
        assert len({salted(7, k) for k in keys}) == len(set(keys))

    def test_non_negative_keys_unchanged(self):
        """Every key in [0, 2**128) salts as before negative keys were
        fixed, so no group's rank or target moves."""
        mask = (1 << 64) - 1
        keys = [0, 1, 2**62, 2**63, mask, 2**64, 2**64 + 1, 2**100, 2**128 - 1]
        keys += [(b << s) + d for b in (1, 3, 7) for s in (5, 31, 63, 64, 90) for d in (0, 1)]
        for nonce in (0, 1, 2, 12345):
            for key in keys:
                old = (nonce << 64) | (key & mask) ^ (key >> 64)
                assert SharedRandomness.salted_key(nonce, key) == old, (nonce, key)

    def test_hash_inputs_alias_modulo_the_field(self):
        """A KWiseHash reads a salted key mod 2^61 − 1: within one nonce,
        key k aliases k + (2^61 − 1), and key −j aliases the keys congruent
        to 8 − j.  The column form reproduces the aliasing."""
        import numpy as np

        from repro.hashing.kwise import MERSENNE_61

        s = SharedRandomness(NCCConfig(seed=3), 1024)
        rank, target = s.rank_function(), s.target_function(64)
        salted = SharedRandomness.salted_key
        for nonce in (1, 5, 999):
            for a, b in ((-1, 7), (-8, 0), (-(2**40), 8 - 2**40 + MERSENNE_61), (5, 5 + MERSENNE_61)):
                for fn in (rank, target):
                    assert fn(salted(nonce, a)) == fn(salted(nonce, b)), (nonce, a, b)
            x = SharedRandomness.salted_residues(nonce, np.array([-1, 7], dtype=np.int64))
            assert x[0] == x[1]
            assert rank.column(x).tolist() == [rank(salted(nonce, 7))] * 2

    def test_nonce_counter_advances(self):
        s = SharedRandomness(NCCConfig(), 16)
        assert s.next_nonce() != s.next_nonce()


class TestAgreementCharging:
    def test_charge_called_once_per_tag(self):
        charges = []
        s = SharedRandomness(NCCConfig(seed=1), 64, charge=charges.append)
        s.hash_function("a", 100)
        s.hash_function("a", 100)
        s.hash_family("b", 4, 10)
        s.hash_family("b", 4, 10)
        assert len(charges) == 2
        assert s.agreement_bits == sum(charges)

    def test_charge_disabled_by_config(self):
        charges = []
        cfg = NCCConfig(seed=1, charge_hash_agreement=False)
        s = SharedRandomness(cfg, 64, charge=charges.append)
        s.hash_function("a", 100)
        assert charges == []
        assert s.agreement_bits > 0  # still accounted, just not charged

    def test_runtime_charges_real_broadcast_rounds(self):
        rt = NCCRuntime(32, NCCConfig(seed=1))
        before = rt.net.round_index
        rt.shared.hash_function("new-fn", 1000)
        assert rt.net.round_index > before
        assert rt.net.stats.phase("hash-agreement").rounds > 0

    def test_global_rank_function_agreed_once(self):
        rt = NCCRuntime(32, NCCConfig(seed=1))
        rt.shared.rank_function()
        rounds_after_first = rt.net.round_index
        rt.shared.rank_function()
        rt.shared.rank_function()
        assert rt.net.round_index == rounds_after_first


#: Bounds with every kind of rejection rate: powers of two and one past
#: them (about half the draws rejected), one below (almost none), and
#: widths on both sides of a 32-bit word.
DRAW_BOUNDS = (0, 1, 2, 3, 2**13, 2**13 + 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**40)


def _sequential(rng, k, count):
    return [rng.randrange(k) for _ in range(count)]


class TestPrivateDraws:
    """``node_randbelow``/``node_randbelow_many`` return exactly what the
    stream's own ``randrange`` calls return."""

    @pytest.mark.parametrize("k", DRAW_BOUNDS)
    def test_helpers_match_randrange(self, k):
        s = SharedRandomness(NCCConfig(seed=3), 64)
        for count in range(41):
            tag = ("draws", k, count)
            if k == 0 and count:
                with pytest.raises(ValueError):
                    _sequential(s.node_rng(count, tag), k, count)
                with pytest.raises(ValueError):
                    s.node_randbelow_many(count, tag, k, count)
                continue
            expected = _sequential(s.node_rng(count, tag), k, count)
            assert s.node_randbelow_many(count, tag, k, count) == expected, count
        if k == 0:
            with pytest.raises(ValueError):
                s.node_rng(5, "one").randrange(k)
            with pytest.raises(ValueError):
                s.node_randbelow(5, "one", k)
        else:
            assert s.node_randbelow(5, "one", k) == s.node_rng(5, "one").randrange(k)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        before=st.lists(st.integers(1, 2**70), max_size=6),
        k=st.one_of(st.sampled_from(DRAW_BOUNDS[1:]), st.integers(1, 2**45)),
        count=st.integers(0, 60),
    )
    def test_core_continues_a_drawn_stream(self, seed, before, k, count):
        """``randbelow_many`` on a stream that earlier draws (of any width)
        already advanced equals the sequential draws from that point."""
        a, b = seeded_rng(seed), seeded_rng(seed)
        for bound in before:
            assert a.randrange(bound) == b.randrange(bound)
        assert randbelow_many(b, k, count) == _sequential(a, k, count)

    def test_single_value_draws_seed_nothing(self, monkeypatch):
        s = SharedRandomness(NCCConfig(seed=3), 64)
        seeded = []
        real = SharedRandomness.node_rng

        def spy(self, node, tag):
            seeded.append((node, tag))
            return real(self, node, tag)

        monkeypatch.setattr(SharedRandomness, "node_rng", spy)
        assert s.node_randbelow(4, "t", 1) == 0
        assert s.node_randbelow_many(4, "t", 1, 9) == [0] * 9
        assert s.node_randbelow_many(4, "t", 10, 0) == []
        assert seeded == []
        s.node_randbelow_many(4, "t", 10, 2)
        assert seeded == [(4, "t")]


class TestSeedingGuard:
    """A delivery window of one round has one possible round per packet,
    so neither primitive seeds a stream for it."""

    @pytest.fixture
    def seeded_tags(self, monkeypatch):
        tags = []
        real = SharedRandomness.node_rng

        def spy(self, node, tag):
            tags.append(tag)
            return real(self, node, tag)

        monkeypatch.setattr(SharedRandomness, "node_rng", spy)
        return tags

    def test_window_one_aggregation_delivery(self, seeded_tags):
        n = 32
        rt = NCCRuntime(n, NCCConfig(seed=2))
        problem = AggregationProblem(
            {u: {u % 8: u, (u + 3) % 8: 1} for u in range(n)},
            {g: g for g in range(8)},
            SUM,
        )
        out = run_aggregation(rt.net, rt.bf, rt.shared, problem)
        assert len(out.values) == 8
        steps = [t[1] for t in seeded_tags if isinstance(t, tuple) and len(t) > 1]
        assert "inject" in steps  # the guard sees the primitive's draws
        assert "deliver" not in steps

    def test_window_one_multicast_leaf_delivery(self, seeded_tags):
        n = 32
        rt = NCCRuntime(n, NCCConfig(seed=2))
        trees = rt.multicast_setup({u: [u % 4] for u in range(n)})
        del seeded_tags[:]
        out = rt.multicast(trees, {g: g + 100 for g in range(4)}, {g: g for g in range(4)})
        assert all(out.at(u) == {u % 4: u % 4 + 100} for u in range(n))
        steps = [t[1] for t in seeded_tags if isinstance(t, tuple) and len(t) > 1]
        assert "leaf" not in steps
