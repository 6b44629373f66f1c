"""Seeded randomized property tests for payload bit accounting.

Properties certified over randomized payload shapes:

* non-negativity — every sizeable payload costs >= 0 bits (and scalars > 0);
* container additivity — a tuple/list/frozenset costs exactly the sum of
  its parts (structure is protocol, not wire format), so the in-frame
  sizing of a tuple's int and str parts agrees with sizing each part
  alone, and every other part keeps its own rule (``IntEnum``,
  ``size_bits()``, numpy scalars, floats);
* documented rules — ``payload_bits`` equals a part-by-part restatement
  of its docstring's rules on random nested payloads.
"""

from __future__ import annotations

import enum
import random

import pytest

from repro.ncc.message import payload_bits


class Color(enum.IntEnum):
    RED = 0
    GREEN = 5
    BLUE = 200


class Sketch:
    """Stand-in for parity sketches: sizes itself via ``size_bits()``."""

    def __init__(self, bits: int):
        self._bits = bits

    def size_bits(self) -> int:
        return self._bits

    def __eq__(self, other: object) -> bool:  # equality does NOT pin size
        return isinstance(other, Sketch)

    def __hash__(self) -> int:
        return 17


def random_scalar(rng: random.Random):
    kind = rng.randrange(8)
    if kind == 0:
        return rng.randint(-(1 << 40), 1 << 40)
    if kind == 1:
        return rng.choice([True, False])
    if kind == 2:
        return None
    if kind == 3:
        return rng.random() * 1000
    if kind == 4:
        return "".join(rng.choice("abcdef") for _ in range(rng.randrange(0, 7)))
    if kind == 5:
        return "".join(rng.choice("abcdef") for _ in range(9, 20))
    if kind == 6:
        return rng.choice(list(Color))
    return Sketch(rng.randrange(1, 64))


def reference_bits(payload) -> int:
    """The documented sizing rules applied part by part, with no in-frame
    shortcut: the independent statement ``payload_bits`` must agree with."""
    if isinstance(payload, (tuple, list, frozenset)):
        return sum(reference_bits(p) for p in payload)
    if payload is None or isinstance(payload, bool):
        return 1
    if isinstance(payload, int):  # int and IntEnum
        return max(payload.bit_length(), 1) + (1 if payload < 0 else 0)
    if isinstance(payload, float):
        return 32
    if isinstance(payload, str):
        return 4 if len(payload) <= 8 else 8 * len(payload)
    return payload.size_bits()


def random_payload(rng: random.Random, depth: int = 0):
    if depth < 3 and rng.random() < 0.4:
        parts = [random_payload(rng, depth + 1) for _ in range(rng.randrange(0, 5))]
        kind = rng.randrange(3)
        if kind == 0:
            return tuple(parts)
        if kind == 1:
            return list(parts)
        try:
            return frozenset(parts)
        except TypeError:  # unhashable part (list inside)
            return tuple(parts)
    return random_scalar(rng)


@pytest.mark.parametrize("seed", range(8))
class TestRandomizedProperties:
    def test_non_negative(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            assert payload_bits(random_payload(rng)) >= 0

    def test_container_additivity(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            parts = [random_payload(rng) for _ in range(rng.randrange(0, 6))]
            total = sum(payload_bits(p) for p in parts)
            assert payload_bits(tuple(parts)) == total
            assert payload_bits(list(parts)) == total
            try:
                fs = frozenset(parts)
            except TypeError:
                continue
            # frozensets deduplicate, so compare against their own parts
            assert payload_bits(fs) == sum(payload_bits(p) for p in fs)

    def test_matches_documented_rules(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            p = random_payload(rng)
            assert payload_bits(p) == reference_bits(p), p
            # A tuple of scalars takes the in-frame path for its int and
            # str parts and the recursive one for the rest.
            parts = tuple(random_scalar(rng) for _ in range(rng.randrange(0, 6)))
            assert payload_bits(parts) == reference_bits(parts), parts


class TestScalarRules:
    def test_scalar_positive(self):
        for p in (0, 1, -1, True, False, None, 0.0, "", "tag", 1 << 60):
            assert payload_bits(p) >= 1

    def test_int_rules(self):
        assert payload_bits(0) == 1
        assert payload_bits(1) == 1
        assert payload_bits(-1) == 2  # sign bit
        assert payload_bits(255) == 8

    def test_string_rules(self):
        assert payload_bits("tag") == 4  # constant-size protocol alphabet
        assert payload_bits("x" * 9) == 72  # long strings pay per char


class TestFallbackBranches:
    def test_intenum_uses_bit_length(self):
        assert payload_bits(Color.RED) == 1
        assert payload_bits(Color.GREEN) == 3
        assert payload_bits(Color.BLUE) == 8

    def test_size_bits_protocol(self):
        assert payload_bits(Sketch(48)) == 48

    def test_unsizeable_rejected(self):
        with pytest.raises(TypeError):
            payload_bits(object())
        with pytest.raises(TypeError):
            payload_bits((1, object()))


class TestNumpyScalars:
    """Regression: numpy scalars used to raise ``TypeError`` in both sizers.

    They must size exactly like their Python counterparts (a payload read
    back off a typed column and re-submitted is a numpy scalar).
    """

    np = pytest.importorskip("numpy")

    INT_DTYPES = ("int8", "int16", "int32", "int64",
                  "uint8", "uint16", "uint32", "uint64")

    def test_integer_scalars_size_like_python_ints(self):
        np = self.np
        rng = random.Random(11)
        for name in self.INT_DTYPES:
            dt = np.dtype(name)
            info = np.iinfo(dt)
            samples = {0, 1, info.min, info.max}
            samples.update(
                rng.randint(info.min, info.max) for _ in range(50)
            )
            for v in samples:
                s = dt.type(v)
                assert payload_bits(s) == payload_bits(int(s)), (name, v)

    def test_bool_float_str_scalars(self):
        np = self.np
        assert payload_bits(np.bool_(True)) == payload_bits(True) == 1
        assert payload_bits(np.bool_(False)) == 1
        assert payload_bits(np.float64(2.5)) == payload_bits(2.5) == 32
        assert payload_bits(np.float32(0.0)) == 32
        assert payload_bits(np.str_("tag")) == payload_bits("tag") == 4
        assert payload_bits(np.str_("x" * 9)) == payload_bits("x" * 9) == 72

    def test_structured_scalar_sizes_like_tuple(self):
        np = self.np
        dt = np.dtype([("tag", "U1"), ("g", "i8"), ("val", "i8")])
        arr = np.array([("I", 7, -300)], dtype=dt)
        assert payload_bits(arr[0]) == payload_bits(("I", 7, -300))

    def test_scalars_inside_containers(self):
        np = self.np
        p = (np.int64(255), [np.bool_(True), np.float64(1.0)])
        assert payload_bits(p) == payload_bits((255, [True, 1.0]))

    def test_value_equal_scalars_sized_by_type(self):
        # np.int64(1) == 1 == 1.0 == np.float64(1.0), yet the ints are 1 bit
        # and the floats 32, alone or as tuple parts.
        np = self.np
        assert payload_bits(np.float64(1.0)) == payload_bits(1.0) == 32
        assert payload_bits(np.int64(1)) == payload_bits(1) == 1
        assert payload_bits((np.float64(1.0), np.int64(1))) == 33
        assert payload_bits((1.0, 1)) == 33

    def test_typed_column_roundtrip_accounts_identically(self):
        """Boxing a typed column and re-sizing each element reproduces the
        vectorized bits exactly, for scalar and structured dtypes."""
        np = self.np
        from repro.ncc.message import typed_payload_bits

        rng = random.Random(3)
        ints = np.asarray(
            [rng.randint(-(2**63), 2**63 - 1) for _ in range(100)]
            + [0, 1, -1, -(2**63), 2**63 - 1],
            dtype=np.int64,
        )
        assert typed_payload_bits(ints).tolist() == [
            payload_bits(v) for v in ints.tolist()
        ]
        # Re-submitting the unboxed numpy scalars sizes the same way too.
        assert [payload_bits(v) for v in ints] == [
            payload_bits(v) for v in ints.tolist()
        ]
        dt = np.dtype([("tag", "U12"), ("g", "i8"), ("ok", "?"), ("w", "f4")])
        rows = [
            ("", 0, False, 0.0),
            ("shortstr", -1, True, -2.5),
            ("longer-tag!!", 2**62, False, 7.0),
        ]
        arr = np.array(rows, dtype=dt)
        assert typed_payload_bits(arr).tolist() == [
            payload_bits(r) for r in arr.tolist()
        ]
        assert [payload_bits(s) for s in arr] == typed_payload_bits(arr).tolist()


class TestTupleParts:
    """A tuple sizes its int and str parts in its own frame; every other
    part keeps its own rule."""

    def test_equal_value_different_type_sized_by_type(self):
        # 1 == 1.0 == True, but an int is 1 bit and a float is 32.
        assert payload_bits((1,)) == 1
        assert payload_bits((1.0,)) == 32
        assert payload_bits((True,)) == 1

    def test_numpy_int_inside_a_tuple(self):
        np = pytest.importorskip("numpy")
        assert payload_bits((np.int64(255), 1)) == payload_bits((255, 1)) == 9
        assert payload_bits((np.int64(-1),)) == 2

    def test_size_bits_objects_inside_a_tuple(self):
        # Equal Sketches with different sizes size independently.
        assert payload_bits((Sketch(8),)) == 8
        assert payload_bits((Sketch(32), 3)) == 34

    def test_intenum_inside_a_tuple(self):
        assert payload_bits((Color.BLUE, "tag")) == 8 + 4

    def test_list_inside_a_tuple(self):
        # An unhashable part recurses like any other container.
        assert payload_bits((1, [2, 3])) == 1 + 2 + 2
        assert payload_bits(("tag", [255, ("x" * 9,)])) == 4 + 8 + 72
