"""k-wise independent hash families over the Mersenne prime 2^61 − 1.

A degree-(k−1) polynomial with uniformly random coefficients over a prime
field is a k-wise independent hash family — the standard construction the
paper appeals to (Section 2.2, citing Celis et al. [10]).  Evaluation uses
Horner's rule with Python integers (exact, no overflow), reducing each
step modulo ``p`` with one ``%`` (every operand is below ``p``, so a step
stays below ``p²``).

Two deployment notes mirror the paper:

* **Shared randomness** — all nodes must evaluate the *same* function, so a
  family is constructed from an explicit seed; the cost of agreeing on that
  seed is charged by :class:`repro.rng.SharedRandomness`, not here.
* **Independence degree** — the paper needs Θ(log n)-wise independence.
  :func:`KWiseHash.for_model` picks ``k = ceil(log2 n) + 1``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

# Imported from the seeding leaf, not repro.rng: rng.py imports this
# module, so the usual `from ..rng import derived_rng` spelling would
# be a circular import.
from ..seeding import derived_rng

MERSENNE_61 = (1 << 61) - 1


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

    def hash_many(self, keys: Iterable[int]) -> list[int]:
        """Evaluate on many keys (convenience; same results as ``__call__``)."""
        return [self(k) for k in keys]

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
