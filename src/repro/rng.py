"""Shared and private randomness for the simulated nodes.

The paper's primitives rely on two kinds of randomness:

* **Shared (pseudo-)random hash functions** — all nodes must evaluate the
  same function.  Section 2.2: Θ(log n)-wise independence suffices, and
  agreeing on one function means broadcasting Θ(log² n) random bits from
  node 0.  :class:`SharedRandomness` derives every shared function from the
  master seed and *charges* the agreement (via a callback installed by the
  runtime, which performs a real pipelined butterfly broadcast) the first
  time a function with a given tag is requested.

* **Private randomness** — free local coin flips (random injection columns,
  Heads/Tails, MIS ranks).  ``node_rng(u, tag)`` returns a deterministic
  per-node stream so that simulations are reproducible from the master seed
  while distinct nodes and protocol steps stay independent.  A call site
  that draws from a fresh stream and then drops it goes through
  ``node_randbelow`` (one draw) or ``node_randbelow_many`` (a list of
  draws): they return exactly what ``node_rng(u, tag).randrange(k)`` would,
  but seed no stream when ``k == 1`` (the one possible value is 0), and
  take a batch of draws in one C-level pass instead of one ``randrange``
  call each.  Seeding a stream from its string costs as much as about 17
  ``randrange`` calls, so a protocol pays only for the coins a node flips.

All streams are built through the sanctioned constructors in
:mod:`repro.seeding` (re-exported here as :func:`seeded_rng` /
:func:`derived_rng`), the only module allowed to call ``random.Random``
directly — ``reprolint`` rule NCC001 checks this statically.
"""

from __future__ import annotations

import math
import random
from itertools import repeat
from typing import Any, Callable

import numpy as _np

from .config import NCCConfig
from .hashing.kwise import KWiseHash, residue_column
from .seeding import derived_rng, seeded_rng

__all__ = ["RANK_RANGE", "SharedRandomness", "derived_rng", "randbelow_many", "seeded_rng"]

#: Range for packet ranks ρ(i).  Theorem B.2 needs K ≥ 8C; congestion C is
#: O(L/n + log n) = o(2^30) for every instance this library can simulate.
RANK_RANGE = 1 << 30


def randbelow_many(rng: random.Random, k: int, count: int) -> list[int]:
    """``[rng.randrange(k) for _ in range(count)]``, drawn as one batch.

    CPython's ``randrange(k)`` draws ``getrandbits(k.bit_length())`` until
    a value falls below ``k`` (the same code in 3.11-3.13), so ``count``
    draws are the values below ``k`` among successive ``getrandbits``
    calls of that width.  One C-level ``map`` takes the expected number of
    those calls, a filter keeps the accepted ones in order, and a short
    batch is topped up one call at a time: every earlier value was already
    examined, so the list equals the sequential one for every ``k``.

    The batch may draw past the last value it returns, so the call
    *spends* the stream: use it only where nothing draws from ``rng``
    afterwards.  ``k == 1`` draws nothing; ``k <= 0`` with ``count > 0``
    raises ``randrange``'s own ``ValueError``.
    """
    if k == 1 or count <= 0:
        return [0] * count  # [] when count <= 0
    if k < 1:
        rng.randrange(k)  # raises randrange's own ValueError
    bits = k.bit_length()
    getrandbits = rng.getrandbits
    # Acceptance rate k / 2**bits > 1/2: the expected number of calls.
    tries = -(-(count << bits) // k)
    draws = [v for v in map(getrandbits, repeat(bits, tries)) if v < k]
    while len(draws) < count:
        v = getrandbits(bits)
        if v < k:
            draws.append(v)
    del draws[count:]
    return draws


class SharedRandomness:
    """Deterministic randomness broker for one simulation run."""

    def __init__(
        self,
        config: NCCConfig,
        n: int,
        charge: Callable[[int], None] | None = None,
    ):
        self.config = config
        self.n = int(n)
        self._charge = charge
        self._cache: dict[object, KWiseHash | tuple[KWiseHash, ...]] = {}
        self._counter = 0
        self.agreement_bits = 0  # total shared random bits agreed upon

    # ------------------------------------------------------------------
    # Shared hash functions
    # ------------------------------------------------------------------
    def _model_k(self) -> int:
        return max(2, math.ceil(math.log2(max(2, self.n))) + 1)

    def _seed_for(self, tag: object) -> int:
        # Stable 64-bit seed derived from (master seed, tag).
        return seeded_rng(f"{self.config.seed}|{tag!r}").getrandbits(63)

    def _account(self, bits: int) -> None:
        self.agreement_bits += bits
        if self._charge is not None and self.config.charge_hash_agreement:
            self._charge(bits)

    def hash_function(self, tag: object, range_size: int, *, k: int | None = None) -> KWiseHash:
        """The shared hash function identified by ``tag`` (cached).

        The first request for a tag charges the broadcast that lets all
        nodes agree on its ``k·61`` random bits.
        """
        key = ("fn", tag, range_size, k)
        cached = self._cache.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        kk = k if k is not None else self._model_k()
        fn = KWiseHash(kk, range_size, self._seed_for(tag))
        self._cache[key] = fn
        self._account(fn.random_bits())
        return fn

    def hash_family(
        self, tag: object, count: int, range_size: int, *, k: int | None = None
    ) -> tuple[KWiseHash, ...]:
        """``count`` independent shared functions under one agreement."""
        key = ("fam", tag, count, range_size, k)
        cached = self._cache.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        kk = k if k is not None else self._model_k()
        base = self._seed_for(tag)
        fam = tuple(KWiseHash(kk, range_size, (base << 20) ^ i) for i in range(count))
        self._cache[key] = fam
        self._account(sum(f.random_bits() for f in fam))
        return fam

    def rank_function(self, tag: object = "global") -> KWiseHash:
        """Shared rank function ρ for the random-rank routing protocol.

        One function is agreed on per tag; per-invocation freshness comes
        from salting the *keys* (see :meth:`salted_key`), mirroring the
        paper's "retrieved beforehand" setup where the Θ(log² n) shared
        random bits are broadcast once, not per primitive call.
        """
        return self.hash_function(("rank", tag), RANK_RANGE)

    def target_function(self, columns: int, tag: object = "global") -> KWiseHash:
        """Shared intermediate-target function h mapping groups to level-d
        butterfly columns (same once-per-tag agreement as ranks)."""
        return self.hash_function(("target", tag, columns), columns)

    def next_nonce(self) -> int:
        """A fresh per-invocation nonce known to all nodes (a deterministic
        counter requires no communication)."""
        self._counter += 1
        return self._counter

    @staticmethod
    def salted_key(nonce: int, key: int) -> int:
        """Combine an invocation nonce with a group key into a hash input.

        Distinct (nonce, key) pairs map to distinct integers for keys in
        [0, 2^64) and in (-2^62, 2^62), the range the typed aggregation
        flow admits.  Keys of 2^64 and up fold their high half into the
        low 64 bits; a negative key keeps its low 64 bits (two's
        complement), so its sign bits never reach the nonce's.

        Distinct integers are not distinct hash inputs: a
        :class:`KWiseHash` reads its input only modulo 2^61 − 1, where
        ``nonce·2^64`` is ``8·nonce``.  Within one invocation, key ``k``
        therefore aliases ``k + (2^61 − 1)``, and a negative key ``−j``
        aliases the keys congruent to ``8 − j``: groups −1 and 7 (or −8
        and 0) get the same rank and the same target column.
        """
        low = key & ((1 << 64) - 1)
        return (nonce << 64) | (low if key < 0 else low ^ (key >> 64))

    @staticmethod
    def salted_residues(nonce: int, keys: Any) -> Any:
        """Column form of ``salted_key(nonce, k) % MERSENNE_61`` over an
        int64 key column, as uint64.

        That residue is all a :class:`KWiseHash` reads of its input, so
        ``fn.column(salted_residues(nonce, keys))`` equals
        ``[fn(salted_key(nonce, k)) for k in keys]`` bit for bit, the
        aliasing of :meth:`salted_key` included.
        """
        keys = _np.asanyarray(keys)
        if keys.dtype != _np.int64:
            raise TypeError(f"salted_residues needs int64 keys, got {keys.dtype}")
        # For every int64 key, salted_key(nonce, key) = nonce·2^64 +
        # (key mod 2^64), and 2^64 = 8·2^61 ≡ 8 (mod 2^61 − 1).
        return residue_column(keys.view(_np.uint64), nonce << 3)

    # ------------------------------------------------------------------
    # Private per-node randomness (free)
    # ------------------------------------------------------------------
    def node_rng(self, node: int, tag: object) -> random.Random:
        """A private, reproducible stream for one node and protocol step."""
        return seeded_rng(f"{self.config.seed}|node|{node}|{tag!r}")

    def node_randbelow(self, node: int, tag: object, k: int) -> int:
        """``node_rng(node, tag).randrange(k)``; seeds no stream if ``k == 1``."""
        if k == 1:
            return 0
        return self.node_rng(node, tag).randrange(k)

    def node_randbelow_many(self, node: int, tag: object, k: int, count: int) -> list[int]:
        """``count`` successive ``randrange(k)`` draws of
        ``node_rng(node, tag)``, batched by :func:`randbelow_many`.

        Seeds no stream when ``k == 1`` or ``count <= 0``.  The stream is
        spent, so the call serves only a site that draws nothing else from
        it.
        """
        if k == 1 or count <= 0:
            return [0] * count  # [] when count <= 0
        return randbelow_many(self.node_rng(node, tag), k, count)

    def fresh_tag(self, base: str) -> tuple[str, int]:
        """A unique tag (for per-invocation hash functions)."""
        self._counter += 1
        return (base, self._counter)
