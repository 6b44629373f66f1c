"""k-wise independent hash family: determinism, range, distribution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.kwise import MERSENNE_61, KWiseHash, hash_family


class TestDeterminism:
    def test_same_parameters_same_function(self):
        a = KWiseHash(4, 100, seed=7)
        b = KWiseHash(4, 100, seed=7)
        assert all(a(x) == b(x) for x in range(200))
        assert a == b
        assert hash(a) == hash(b)

    def test_different_seeds_differ_somewhere(self):
        a = KWiseHash(4, 1 << 20, seed=1)
        b = KWiseHash(4, 1 << 20, seed=2)
        assert any(a(x) != b(x) for x in range(50))

    def test_family_members_distinct(self):
        fam = hash_family(8, 4, 1 << 20, seed=3)
        assert len(fam) == 8
        for i in range(8):
            for j in range(i + 1, 8):
                assert any(fam[i](x) != fam[j](x) for x in range(50))


class TestRange:
    @given(st.integers(min_value=0, max_value=2**80), st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=200)
    def test_output_in_range(self, key, range_size):
        h = KWiseHash(5, range_size, seed=11)
        assert 0 <= h(key) < range_size

    def test_bit_is_binary(self):
        h = KWiseHash(5, 1000, seed=4)
        assert set(h.bit(x) for x in range(500)) <= {0, 1}

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            KWiseHash(0, 10, seed=1)
        with pytest.raises(ValueError):
            KWiseHash(2, 0, seed=1)


class TestDistribution:
    def test_roughly_uniform_buckets(self):
        h = KWiseHash(8, 16, seed=13)
        counts = [0] * 16
        samples = 4096
        for x in range(samples):
            counts[h(x)] += 1
        expected = samples / 16
        for c in counts:
            assert 0.5 * expected < c < 1.5 * expected

    def test_bits_roughly_balanced(self):
        h = KWiseHash(8, 2, seed=17)
        ones = sum(h.bit(x) for x in range(4096))
        assert 1700 < ones < 2400

    def test_pairwise_collisions_near_expected(self):
        h = KWiseHash(4, 64, seed=23)
        vals = [h(x) for x in range(512)]
        collisions = sum(
            1 for i in range(len(vals)) for j in range(i + 1, len(vals)) if vals[i] == vals[j]
        )
        expected = 512 * 511 / 2 / 64
        assert 0.6 * expected < collisions < 1.4 * expected


class TestModelHelpers:
    def test_for_model_independence_degree(self):
        h = KWiseHash.for_model(1024, 100, seed=1)
        assert h.k == 11  # ceil(log2 1024) + 1

    def test_for_model_min_degree(self):
        assert KWiseHash.for_model(2, 10, seed=1).k >= 2

    def test_random_bits_counts_coefficients(self):
        h = KWiseHash(6, 100, seed=1)
        assert h.random_bits() == 6 * 61

    def test_large_keys_reduced_mod_prime(self):
        h = KWiseHash(3, 1000, seed=5)
        assert h(MERSENNE_61) == h(0)
        assert h(MERSENNE_61 + 5) == h(5)


class TestValuePins:
    """Exact outputs, pinned: every shared-randomness decision (trial
    tables, FindMin sketches) hangs off these values, so a change to the
    evaluation loop must reproduce them bit for bit."""

    KEYS = [0, 1, MERSENNE_61 - 1, MERSENNE_61, MERSENNE_61 + 1, 2**64 - 1, 2**80]

    @pytest.mark.parametrize(
        "k, range_size, seed, values, bits",
        [
            (5, 1741, 11, [1123, 503, 623, 1123, 503, 1016, 269], [0, 0, 1, 0, 0, 0, 1]),
            (
                2,
                1 << 40,
                3,
                [
                    937213436621, 657227840597, 117687404869, 937213436621,
                    657227840597, 76825892231, 347934835940,
                ],
                [1, 1, 1, 1, 1, 1, 0],
            ),
        ],
        ids=["k5-q1741", "k2-2^40"],
    )
    def test_outputs_pinned(self, k, range_size, seed, values, bits):
        h = KWiseHash(k, range_size, seed=seed)
        assert [h(x) for x in self.KEYS] == values
        assert [h.bit(x) for x in self.KEYS] == bits
