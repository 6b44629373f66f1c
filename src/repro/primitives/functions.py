"""Distributive aggregate functions (Section 2.1).

An aggregate function ``f`` is *distributive* when some ``g`` satisfies
``f(S) = g(f(S₁), …, f(S_ℓ))`` for every partition of the multiset ``S``.
For all functions used in the paper (MAX, MIN, SUM, XOR and products
thereof) ``g = f``, so an aggregate here is simply an associative,
commutative binary ``combine`` — exactly what butterfly nodes apply when two
packets of one aggregation group collide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as _np


@dataclass(frozen=True)
class Aggregate:
    """A distributive aggregate: an associative commutative binary
    ``combine``, optionally paired with the numpy ufunc computing the same
    reduction over int64 columns (``ufunc``).  The ufunc is what lets the
    typed aggregation path collapse a column of colliding packets without
    touching Python per element; aggregates without one simply keep the
    object path."""

    name: str
    combine: Callable[[Any, Any], Any]
    ufunc: Any = field(default=None, compare=False)

    def reduce(self, values: Iterable[Any]) -> Any:
        """Reference reduction (used by oracles/tests); None on empty input."""
        acc = _SENTINEL
        for v in values:
            acc = v if acc is _SENTINEL else self.combine(acc, v)
        return None if acc is _SENTINEL else acc

    def __call__(self, a: Any, b: Any) -> Any:
        return self.combine(a, b)


_SENTINEL = object()

SUM = Aggregate("SUM", lambda a, b: a + b, _np.add)
MIN = Aggregate("MIN", lambda a, b: a if a <= b else b, _np.minimum)
MAX = Aggregate("MAX", lambda a, b: a if a >= b else b, _np.maximum)
XOR = Aggregate("XOR", lambda a, b: a ^ b, _np.bitwise_xor)

#: (xor, count) pairs — the aggregate of the Identification Algorithm
#: (Section 4.1): first coordinates XOR, second coordinates add.
xor_count = Aggregate("XOR_COUNT", lambda a, b: (a[0] ^ b[0], a[1] + b[1]))


def min_by_key(name: str = "MIN_BY_KEY") -> Aggregate:
    """Keep the value whose first component (the key) is smallest.

    Ties break on the full tuple, which keeps the combiner deterministic —
    important for reproducibility of e.g. the matching algorithm's
    random-neighbour selection.
    """
    return Aggregate(name, lambda a, b: a if a <= b else b)


def tuple_of(*parts: Aggregate) -> Aggregate:
    """Componentwise product aggregate: combine position i with parts[i]."""
    name = "TUPLE(" + ",".join(p.name for p in parts) + ")"

    def combine(a: Any, b: Any) -> Any:
        if len(a) != len(parts) or len(b) != len(parts):
            raise ValueError("tuple aggregate arity mismatch")
        return tuple(p.combine(x, y) for p, x, y in zip(parts, a, b))

    return Aggregate(name, combine)


def first_wins(name: str = "ANY") -> Aggregate:
    """Arbitrary-choice aggregate (Multicast Tree Setup routes with 'an
    arbitrary aggregate function'); keeps the first operand."""
    return Aggregate(name, lambda a, b: a)
