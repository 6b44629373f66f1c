"""k-wise independent hash family: determinism, range, distribution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.kwise import MERSENNE_61, KWiseHash, hash_family
from repro.rng import SharedRandomness


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


class _U64Only(np.ndarray):
    """An array that fails every ufunc with an operand or a result that is
    not uint64 (an int64 array, a Python int, any other scalar), so the
    column form cannot lean on numpy's type promotion: uint64 with int64
    promotes to float64, which is not exact."""

    ufuncs: list[str] = []

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        for x in inputs + (out or ()):
            assert isinstance(x, (np.ndarray, np.uint64)) and x.dtype == np.uint64, (
                ufunc.__name__, type(x).__name__, getattr(x, "dtype", None)
            )
        _U64Only.ufuncs.append(ufunc.__name__)
        inputs = tuple(x.view(np.ndarray) if isinstance(x, np.ndarray) else x for x in inputs)
        if out is not None:
            kwargs["out"] = tuple(x.view(np.ndarray) for x in out)
        result = getattr(ufunc, method)(*inputs, **kwargs)
        assert result.dtype == np.uint64, (ufunc.__name__, result.dtype)
        return out[0] if out is not None else result.view(_U64Only)


#: Keys every example hashes: the ends of the typed flow's key range and
#: the keys next to the field's modulus.
EDGE_KEYS = [0, 1, -1, 2**62 - 1, -(2**62 - 1), 2**61 - 1, 2**61, 7, -7, 8, -8]


class TestColumnForm:
    """``KWiseHash.column`` over ``SharedRandomness.salted_residues`` is
    the scalar ``fn(salted_key(nonce, key))``, bit for bit."""

    @given(
        k=st.integers(min_value=1, max_value=20),
        range_size=st.sampled_from([1, 2, 3, 8192, 2**30, 2**40]),
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        nonce=st.integers(min_value=0, max_value=2**66),
        keys=st.lists(st.integers(min_value=-(2**62) + 1, max_value=2**62 - 1), max_size=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_salted_hash(self, k, range_size, seed, nonce, keys):
        keys = EDGE_KEYS + keys
        fn = KWiseHash(k, range_size, seed)
        _U64Only.ufuncs = []
        column = np.array(keys, dtype=np.int64).view(_U64Only)
        got = fn.column(SharedRandomness.salted_residues(nonce, column))
        assert got.dtype == np.int64
        assert got.tolist() == [fn(SharedRandomness.salted_key(nonce, key)) for key in keys]
        # Every step ran through the uint64-only check: at least one
        # multiply per Horner step.
        assert _U64Only.ufuncs.count("multiply") >= 3 * (k - 1)

    @given(
        k=st.integers(min_value=1, max_value=20),
        nonce=st.integers(min_value=0, max_value=2**66),
        keys=st.lists(st.integers(min_value=-(2**62) + 1, max_value=2**62 - 1), max_size=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_salted_residues_are_the_residues(self, k, nonce, keys):
        keys = EDGE_KEYS + keys
        got = SharedRandomness.salted_residues(nonce, np.array(keys, dtype=np.int64))
        assert got.dtype == np.uint64
        expected = [SharedRandomness.salted_key(nonce, key) % MERSENNE_61 for key in keys]
        assert got.tolist() == expected

    def test_unsalted_keys_across_uint64(self):
        fn = KWiseHash(7, 1741, seed=11)
        keys = [0, 1, MERSENNE_61 - 1, MERSENNE_61, MERSENNE_61 + 1, 2**63, 2**64 - 1]
        got = fn.column(np.array(keys, dtype=np.uint64))
        assert got.tolist() == [fn(key) for key in keys]

    def test_rejects_signed_keys(self):
        with pytest.raises(TypeError, match="uint64"):
            KWiseHash(3, 10, seed=1).column(np.arange(3))
        with pytest.raises(TypeError, match="int64"):
            SharedRandomness.salted_residues(1, np.arange(3, dtype=np.uint64))
