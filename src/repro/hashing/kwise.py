"""k-wise independent hash families over the Mersenne prime 2^61 − 1.

A degree-(k−1) polynomial with uniformly random coefficients over a prime
field is a k-wise independent hash family — the standard construction the
paper appeals to (Section 2.2, citing Celis et al. [10]).  Evaluation uses
Horner's rule with Python integers (exact, no overflow), reducing each
step modulo ``p`` with one ``%`` (every operand is below ``p``, so a step
stays below ``p²``).  :meth:`KWiseHash.column` evaluates a whole uint64
column of keys with the same Horner steps in uint64 arithmetic, bit for
bit equal to the scalar form.

Two deployment notes mirror the paper:

* **Shared randomness** — all nodes must evaluate the *same* function, so a
  family is constructed from an explicit seed; the cost of agreeing on that
  seed is charged by :class:`repro.rng.SharedRandomness`, not here.
* **Independence degree** — the paper needs Θ(log n)-wise independence.
  :func:`KWiseHash.for_model` picks ``k = ceil(log2 n) + 1``.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as _np

# Imported from the seeding leaf, not repro.rng: rng.py imports this
# module, so the usual `from ..rng import derived_rng` spelling would
# be a circular import.
from ..seeding import derived_rng

MERSENNE_61 = (1 << 61) - 1

# The column form's constants.  Every operand of its arithmetic is a uint64
# array or one of these uint64 scalars, never a Python int or an int64:
# numpy promotes uint64 with int64 to float64, which is not exact.
_U64 = _np.uint64
_P = _U64(MERSENNE_61)
_LOW29 = _U64((1 << 29) - 1)
_LOW32 = _U64((1 << 32) - 1)
_SHIFT3, _SHIFT29, _SHIFT32, _SHIFT61 = (_U64(s) for s in (3, 29, 32, 61))


def _reduce_below_2p(x: Any) -> Any:
    """``x mod p`` for a uint64 column below ``2p``: ``x − p`` wraps past
    2^64 exactly when ``x < p``, so the smaller of the two is the residue."""
    return _np.minimum(x, x - _P)


def residue_column(x: Any, addend: int = 0) -> Any:
    """``(x + addend) mod p`` for a uint64 column ``x``, as uint64.

    2^61 ≡ 1 (mod p), so ``x ≡ (x & p) + (x >> 61)``, a sum below ``2p``.
    ``addend`` is any Python int, reduced here once.
    """
    r = _reduce_below_2p((x & _P) + (x >> _SHIFT61))
    addend %= MERSENNE_61
    if addend:
        r = _reduce_below_2p(r + _U64(addend))
    return r


def _mul_add(a: Any, x_hi8: Any, x_hi: Any, x_lo: Any, c: Any) -> Any:
    """One Horner step over columns: ``(a·x + c) mod p`` for ``a, x, c < p``.

    ``x`` comes split as ``x_hi = x >> 32`` (below 2^29), ``x_lo = x mod
    2^32`` and ``x_hi8 = x_hi << 3``.  With ``a`` split the same way, ``a·x =
    a_hi·x_hi·2^64 + mid·2^32 + low``.  Each part is folded below 2^61 + 2^33
    with 2^64 ≡ 8 and 2^61 ≡ 1 (mod p), so their sum with ``c`` stays
    below 2^63 + 2^34 and no step leaves uint64.
    """
    a_hi = a >> _SHIFT32
    a_lo = a & _LOW32
    mid = a_hi * x_lo  # each cross product is below 2^61 ...
    mid += a_lo * x_hi  # ... so mid is below 2^62
    low = a_lo * x_lo  # below 2^64
    s = a_hi * x_hi8  # a_hi·x_hi·2^64 ≡ 8·a_hi·x_hi, below 2^61
    s += mid >> _SHIFT29  # mid·2^32 ≡ (mid >> 29) + (mid mod 2^29)·2^32
    s += (mid & _LOW29) << _SHIFT32
    s += low & _P  # low ≡ (low mod 2^61) + (low >> 61)
    s += low >> _SHIFT61
    s += c
    return _reduce_below_2p((s & _P) + (s >> _SHIFT61))


class KWiseHash:
    """A member of a k-wise independent hash family ``h : N -> [range_size)``.

    Parameters
    ----------
    k:
        Independence degree (number of random coefficients).  ``k >= 1``.
    range_size:
        Size of the output range; outputs lie in ``{0, ..., range_size-1}``.
    seed:
        Seed deriving the coefficients.  Two instances with equal
        ``(k, range_size, seed)`` are the same function — this is how all
        simulated nodes share one hash function.

    Notes
    -----
    The output is ``(poly(x) mod p) mod range_size`` with ``p = 2^61 − 1``.
    The modular bias is at most ``range_size / p`` which is negligible for
    every range used in this repository (≤ 2^40).
    """

    __slots__ = ("k", "range_size", "seed", "_coeffs")

    def __init__(self, k: int, range_size: int, seed: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        if range_size < 1:
            raise ValueError("range_size must be >= 1")
        self.k = int(k)
        self.range_size = int(range_size)
        self.seed = int(seed)
        rng = derived_rng("kwise", k, range_size, seed)
        # Leading coefficient non-zero keeps the polynomial degree exactly
        # k-1; the family stays k-wise independent either way, but this makes
        # distinct seeds collide less in small unit tests.
        coeffs = [rng.randrange(MERSENNE_61) for _ in range(k)]
        if k > 1 and coeffs[0] == 0:
            coeffs[0] = 1 + rng.randrange(MERSENNE_61 - 1)
        self._coeffs = tuple(coeffs)

    # ------------------------------------------------------------------
    def __call__(self, key: int) -> int:
        """Evaluate the hash on a non-negative integer key."""
        x = key % MERSENNE_61
        acc = 0
        for c in self._coeffs:
            acc = (acc * x + c) % MERSENNE_61
        return acc % self.range_size

    def column(self, keys: Any) -> Any:
        """Evaluate on a uint64 column of keys, as int64.

        Bit for bit ``[self(int(k)) for k in keys]``: the same Horner steps
        over the same field, in uint64 arithmetic (see :func:`_mul_add`).
        """
        keys = _np.asanyarray(keys)
        if keys.dtype != _np.uint64:
            raise TypeError(f"KWiseHash.column needs uint64 keys, got {keys.dtype}")
        x = residue_column(keys)
        coeffs = self._coeffs
        acc = _np.full_like(x, coeffs[0])
        if len(coeffs) > 1:
            x_hi = x >> _SHIFT32
            x_lo = x & _LOW32
            x_hi8 = x_hi << _SHIFT3
            for c in coeffs[1:]:
                acc = _mul_add(acc, x_hi8, x_hi, x_lo, _U64(c))
        if self.range_size < MERSENNE_61:
            acc = acc % _U64(self.range_size)
        return acc.astype(_np.int64)

    def bit(self, key: int) -> int:
        """Evaluate as a single-bit function regardless of ``range_size``.

        Uses the low bit of the field value so that ``range_size`` does not
        have to be 2; FindMin's parity sketches use this.
        """
        x = key % MERSENNE_61
        acc = 0
        for c in self._coeffs:
            acc = (acc * x + c) % MERSENNE_61
        return acc & 1

    # ------------------------------------------------------------------
    @classmethod
    def for_model(cls, n: int, range_size: int, seed: int) -> "KWiseHash":
        """Family with the Θ(log n)-wise independence the paper requires."""
        import math

        k = max(2, math.ceil(math.log2(max(2, n))) + 1)
        return cls(k, range_size, seed)

    def random_bits(self) -> int:
        """Number of random bits this function encodes (for agreement cost)."""
        return self.k * 61

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KWiseHash(k={self.k}, range_size={self.range_size}, seed={self.seed})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, KWiseHash)
            and self.k == other.k
            and self.range_size == other.range_size
            and self.seed == other.seed
        )

    def __hash__(self) -> int:
        return hash(("KWiseHash", self.k, self.range_size, self.seed))


def hash_family(count: int, k: int, range_size: int, seed: int) -> Sequence[KWiseHash]:
    """Construct ``count`` independent members of the family.

    The Identification Algorithm (Section 4.1) uses ``s`` functions
    ``h_1..h_s``; deriving them from one seed keeps shared-randomness
    agreement to a single broadcast.
    """
    return tuple(KWiseHash(k, range_size, (seed << 20) ^ i) for i in range(count))
