"""Messages and payload bit accounting.

The model allows ``O(log n)`` bits per message.  To keep that budget honest,
every payload is assigned a bit size via :func:`payload_bits`.  The estimate
is intentionally simple and conservative-ish: identifiers and weights count
their binary length, containers add their parts, and objects can opt in by
providing a ``size_bits()`` method (e.g. parity sketches).

:class:`InboxBatch` is the columnar companion of :class:`Message`: a lazy,
frozen, ``list[Message]``-compatible *view* over parallel ``(src, dst,
payload, bits, kind)`` columns that materializes a :class:`Message` only
when an element is actually accessed.  It serves both directions of a
round: :meth:`BatchBuilder.batches` cuts each sender's traffic into one
(a plain ``sender -> InboxBatch`` dict, for the reference engine, round
observers and anomaly replays), and the batched engine delivers a clean
bulk round as one :class:`RoundInbox`, a read-only mapping over the
round's permuted columns that cuts each receiver's view on demand — so a
clean batched-engine round never constructs a single ``Message``
end-to-end.  Consumers that only need the payload column read it via
:meth:`InboxBatch.payloads` (or the engine-agnostic :func:`payloads_of`)
without triggering materialization.
"""

from __future__ import annotations

from collections.abc import ItemsView as _ItemsView
from collections.abc import Mapping as _MappingABC
from collections.abc import Sequence as _SequenceABC
from collections.abc import ValuesView as _ValuesView
from itertools import repeat
from operator import itemgetter
from typing import Any, Iterable, Sequence

import numpy as _np

from ..telemetry import tracer as _tracer
from ..telemetry.metrics import METRICS


def payload_bits(payload: Any) -> int:
    """Estimate the wire size of a payload in bits.

    Rules:

    * ``None`` and ``bool`` — 1 bit;
    * ``int`` — its binary length (≥ 1), plus a sign bit if negative;
    * ``float`` — 32 bits (only used for annotation randomness);
    * ``str`` — 4 bits for short strings (≤ 8 chars).  Strings are used
      exclusively as protocol tags / namespaces drawn from a constant-size
      alphabet per protocol step, so they are O(1) bits on the wire; longer
      strings cost 8 bits per character to keep data out of this loophole;
    * ``tuple`` / ``list`` — sum of parts (structure is part of the protocol,
      not the wire format, mirroring how the paper counts only the content);
    * any object with a ``size_bits()`` method — whatever it reports.
    """
    # type() checks (not isinstance) keep this hot path cheap; bool must be
    # tested before int since bool subclasses int.
    t = type(payload)
    if t is int:
        return (payload.bit_length() or 1) + (1 if payload < 0 else 0)
    if t is tuple or t is list:
        total = 0
        for p in payload:
            total += payload_bits(p)
        return total
    if t is str:
        return 4 if len(payload) <= 8 else 8 * len(payload)
    if payload is None or t is bool:
        return 1
    if t is float:
        return 32
    if t is frozenset:
        total = 0
        for p in payload:
            total += payload_bits(p)
        return total
    if isinstance(payload, int):  # IntEnum and friends
        return (payload.bit_length() or 1) + (1 if payload < 0 else 0)
    if isinstance(payload, _np.generic):
        return _np_scalar_bits(payload)
    size = getattr(payload, "size_bits", None)
    if callable(size):
        return int(size())
    raise TypeError(f"cannot size payload of type {type(payload).__name__}")


def _np_scalar_bits(payload: Any) -> int:
    """Size a numpy scalar exactly like its Python counterpart.

    numpy scalars are not ``int``/``bool`` subclasses and have no
    ``size_bits()``, so without this branch a payload read back off a typed
    column and re-submitted would raise ``TypeError``.  They are *not*
    memo-safe (``np.int64(1) == 1 == 1.0``) and stay out of the value-keyed
    cache — :func:`payload_bits_memoized` excludes them structurally
    (``type() not in _MEMO_SCALARS``).
    """
    if isinstance(payload, _np.bool_):
        return 1
    if isinstance(payload, _np.integer):
        v = int(payload)
        return (v.bit_length() or 1) + (1 if v < 0 else 0)
    if isinstance(payload, _np.floating):
        return 32
    if isinstance(payload, _np.str_):
        return 4 if len(payload) <= 8 else 8 * len(payload)
    if isinstance(payload, _np.void) and payload.dtype.names is not None:
        total = 0
        for p in payload.item():  # structured scalar -> Python tuple
            total += payload_bits(p)
        return total
    raise TypeError(f"cannot size payload of type {type(payload).__name__}")


# ----------------------------------------------------------------------
# Memoized sizing for common payload shapes
# ----------------------------------------------------------------------
# Recursive container walks dominate payload sizing cost; protocols send the
# same few tuple shapes millions of times, so a value-keyed cache pays off.
# The cache relies on "equal payloads have equal sizes", so only payloads
# built from int/bool/str/None (and tuples thereof) may *look up or store*
# entries: floats break the invariant (1 == 1.0 == True, but an int 1 is
# 1 bit and a float is 32), as do objects with a custom ``size_bits()``,
# and int subclasses like IntEnum equal plain ints.  Both the store AND the
# lookup are gated on the predicate — a cached ``(1,)`` must not be served
# for ``(1.0,)``, which hashes and compares equal.  int/bool may share keys
# safely: only True == 1 and False == 0 collide, and both size to 1 bit.
_MEMO_SCALARS = frozenset((int, bool, str, type(None)))

_BITS_MEMO: dict[tuple, int] = {}
_BITS_MEMO_LIMIT = 1 << 16


def _memo_safe(payload: Any) -> bool:
    t = type(payload)
    if t in _MEMO_SCALARS:
        return True
    if t is tuple:
        # Plain loop, not all(genexpr): this runs once per cache probe on
        # the hottest path in the simulator.
        for p in payload:
            if not _memo_safe(p):
                return False
        return True
    return False


def clear_payload_bits_memo() -> None:
    """Drop all cached payload sizes (test isolation hook)."""
    _BITS_MEMO.clear()


def payload_bits_memoized(payload: Any) -> int:
    """:func:`payload_bits` with a value-keyed cache for tuple payloads.

    Agrees with :func:`payload_bits` on every input (asserted by
    ``tests/test_payload_bits_properties.py``); payloads outside the safe
    cacheable subset fall through to the plain recursive walk.
    """
    if type(payload) is not tuple:
        return payload_bits(payload)
    # Flat safety scan inlined (this is the hottest call in the simulator):
    # scalars are checked in place, only nested tuples recurse.
    scalars = _MEMO_SCALARS
    for p in payload:
        t = type(p)
        if t not in scalars and (t is not tuple or not _memo_safe(p)):
            return payload_bits(payload)
    hit = _BITS_MEMO.get(payload)
    if hit is not None:
        return hit
    # Memo miss on a safe tuple: size it in place (same rules as
    # :func:`payload_bits`, one frame instead of one per element).
    bits = 0
    for p in payload:
        t = p.__class__
        if t is int:
            bits += (p.bit_length() or 1) + (1 if p < 0 else 0)
        elif t is str:
            bits += 4 if len(p) <= 8 else 8 * len(p)
        elif t is tuple:
            bits += payload_bits_memoized(p)
        else:  # bool / None (the only remaining memo-safe scalars)
            bits += 1
    if len(_BITS_MEMO) >= _BITS_MEMO_LIMIT:
        _BITS_MEMO.clear()
    _BITS_MEMO[payload] = bits
    return bits


#: Process-wide count of ``Message.__init__`` calls — the construction
#: accounting the lazy-inbox tests assert on ("a clean batched round builds
#: zero Message objects").  A monotone counter, never reset: tests snapshot
#: it around the region under scrutiny.
_construction_count = 0


def message_construction_count() -> int:
    """Total :class:`Message` objects constructed so far (test hook)."""
    return _construction_count


#: Process-wide count of Python payload objects boxed out of typed columns
#: (``.item()`` / ``.tolist()`` reads, typed-builder degradation).  The
#: typed-column invariant — a clean typed round constructs zero Python
#: payload objects — is gated on this staying flat across a run.  Field
#: reads via :meth:`InboxBatch.payload_array` are *not* boxes.  Monotone,
#: never reset: tests snapshot it around the region under scrutiny.
_box_count = 0


def payload_box_count() -> int:
    """Total payload elements boxed out of typed columns so far (test hook)."""
    return _box_count


#: Typed builders degraded to the object layout with at least one payload
#: boxed (see :meth:`BatchBuilder._box_typed_groups`).
_TYPED_FALLBACKS = METRICS.counter("ncc.typed_fallbacks")


#: Process-wide default for typed payload submission: when True (shipped
#: default) primitives that can prove their traffic fits a declared dtype
#: (int groups/values, lightweight sync, a ufunc-backed aggregate) submit
#: typed columns; when False they keep the PR 3 object-column pipeline.
#: The benchmark gates flip this to measure typed against object on the
#: same workload.
_TYPED_DEFAULT = True


def set_typed_payloads(flag: bool) -> bool:
    """Set the process-wide typed-payload default; returns the previous
    value (benchmark/test hook — always restore)."""
    global _TYPED_DEFAULT
    previous = _TYPED_DEFAULT
    _TYPED_DEFAULT = bool(flag)
    return previous


def typed_payloads_enabled() -> bool:
    """Whether primitives should prefer typed payload columns."""
    return _TYPED_DEFAULT


#: Below this many messages a round is cheaper as object columns: the fixed
#: cost of a numpy round (building, sizing and argsort-bucketing the columns,
#: a few dozen array ops) exceeds a plain-Python pass.  The batched engine
#: buckets smaller object rounds in Python, and the producers that can choose
#: (:func:`typed_round_pays`) submit typed columns only from this size up.
SMALL_ROUND_CUTOFF = 128


def typed_round_pays(count: int) -> bool:
    """Whether a round of ``count`` messages whose payloads fit a declared
    dtype should ship as typed columns: typed payloads are on and the round
    is a bulk one (at least :data:`SMALL_ROUND_CUTOFF` messages).  A tiny
    typed round costs several times its object form: building, exchanging
    and reading a round at n = 32 on the batched engine (2-vCPU host) took
    130-144 µs typed against 11-58 µs as objects for 2-16 messages; from
    64 messages on typed was cheaper, by 4-7% up to 128 and by half at
    512.  The
    wire is a representation choice only: a producer's typed and object
    forms submit identical rounds."""
    return _TYPED_DEFAULT and count >= SMALL_ROUND_CUTOFF


# ----------------------------------------------------------------------
# Vectorized payload sizing for typed columns
# ----------------------------------------------------------------------

#: ``2**k`` for ``k = 0..63`` as uint64: a magnitude's insertion point
#: (``side="right"``) in this table is its ``bit_length``.
_POW2 = _np.uint64(1) << _np.arange(64, dtype=_np.uint64)


def _int_col_bits(v):
    """Exact :func:`payload_bits` of an int column, vectorized.

    ``(bit_length or 1) + sign`` per element: one ``searchsorted`` of the
    magnitude into :data:`_POW2` (uint64 against uint64, so no float
    rounding).  The unsigned negate handles ``-2**63`` exactly, where
    ``abs`` would wrap.
    """
    neg = v < 0
    mag = v.astype(_np.uint64)
    _np.negative(mag, out=mag, where=neg)
    return _np.maximum(_np.searchsorted(_POW2, mag, side="right"), 1) + neg


def typed_payload_bits(values):
    """Per-element :func:`payload_bits` of a typed payload column.

    Matches the scalar rules field-for-field: int fields size by binary
    length (+ sign), unicode fields by the short-string tag rule, bool
    fields at 1 bit, float fields at 32 — so a typed column and its boxed
    ``.tolist()`` form always account identical wire bits.
    """
    dt = values.dtype
    if dt.names is None:
        return _int_col_bits(values)
    total = _np.zeros(values.shape, dtype=_np.int64)
    for name in dt.names:
        col = values[name]
        k = col.dtype.kind
        if k == "i":
            total += _int_col_bits(col)
        elif k == "U":
            ln = _np.char.str_len(col)
            total += _np.where(ln <= 8, 4, 8 * ln)
        elif k == "b":
            total += 1
        elif k == "f":
            total += 32
        else:  # pragma: no cover - excluded by _typed_dtype_ok
            raise TypeError(f"cannot size typed field of kind {k!r}")
    return total


def _typed_dtype_ok(dt) -> bool:
    """Whether ``dt`` is a supported declared payload dtype: a signed-int
    scalar, or a flat structured dtype of int/str/bool/float fields (the
    shapes :func:`typed_payload_bits` can size and ``.item()`` boxes to the
    exact Python payloads the object path would carry)."""
    if dt.names is None:
        return dt.kind == "i"
    for name in dt.names:
        sub = dt.fields[name][0]
        if sub.names is not None or sub.shape != ():
            return False
        if sub.kind not in ("i", "U", "b", "f"):
            return False
    return True


class Message:
    """One message in flight: ``src -> dst`` carrying ``payload``.

    ``kind`` tags the protocol step that produced the message (for statistics
    and debugging); it is metadata, not wire content.  A plain __slots__
    class instead of a dataclass: the routers create millions of these.
    """

    __slots__ = ("src", "dst", "payload", "kind", "bits")

    def __init__(self, src: int, dst: int, payload: Any, kind: str = "", bits: int = -1):
        global _construction_count
        _construction_count += 1
        # Node identifiers are ints by model contract (0..n-1); rejecting
        # other numeric types here keeps every engine's id handling
        # identical (a float id would be a distinct inbox key to a
        # per-message walk but truncate in an int64 column).
        if not isinstance(src, int) or not isinstance(dst, int):
            raise TypeError(
                f"node ids must be ints, got "
                f"{type(src).__name__} -> {type(dst).__name__}"
            )
        self.src = src
        self.dst = dst
        self.payload = payload
        self.kind = kind
        self.bits = bits if bits >= 0 else payload_bits_memoized(payload)

    def sized(self) -> int:
        return self.bits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Message({self.src}->{self.dst}, {self.payload!r}, kind={self.kind!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Message)
            and self.src == other.src
            and self.dst == other.dst
            and self.payload == other.payload
            and self.kind == other.kind
        )

    def __hash__(self) -> int:
        # Must agree with __eq__, which compares payloads with ``==``:
        # hashing the payload itself keeps equal-but-distinct values (1,
        # True, 1.0) on one hash, where the old ``repr(payload)`` key split
        # them and broke set/dict dedup.  Unhashable payloads contribute
        # nothing to the hash — any derived key (repr included) would
        # split equal values again ([1] == [1.0], different reprs), so
        # those messages simply collide on (src, dst, kind) and equality
        # disambiguates.
        try:
            payload_key = hash(self.payload)
        except TypeError:
            payload_key = 0
        return hash((self.src, self.dst, self.kind, payload_key))


class InboxBatch(_SequenceABC):
    """A lazy, frozen ``list[Message]``-compatible view over parallel
    ``(src, dst, payload, bits, kind)`` columns.

    One column backing serves both directions of a round: the
    :class:`BatchBuilder` output (uniform ``src``, per-message ``dst``) and
    the batched engine's clean-round delivery (shared permuted round
    columns, a ``[start, end)`` span per destination, uniform ``dst``).  A
    :class:`Message` is constructed only when an element is accessed, and
    cached per index; :meth:`payloads` / :meth:`srcs` / :meth:`items` read
    the columns without constructing anything.

    The view is frozen: it has no mutators, and the scalar/list columns it
    wraps are owned by the batch (accessors return copies).  Equality is
    element-wise against any ``list[Message]`` or other ``InboxBatch`` —
    including order — without materializing; lists compare equal to it via
    the reflected operator.  Like a list it is unhashable.
    """

    __slots__ = (
        "_srcs", "_dsts", "_payloads", "_bits", "_kinds",
        "_start", "_end", "_mat",
    )

    def __init__(
        self,
        srcs: int | Sequence[int],
        dsts: int | Sequence[int],
        payloads: Sequence[Any],
        *,
        bits: Sequence[int] | None = None,
        kinds: str | Sequence[str] = "",
    ):
        k = len(payloads)
        self._srcs = _norm_id_column(srcs, k)
        self._dsts = _norm_id_column(dsts, k)
        self._payloads = list(payloads)
        if bits is None:
            self._bits = [payload_bits_memoized(p) for p in self._payloads]
        else:
            self._bits = list(bits)
            if len(self._bits) != k:
                raise ValueError("bits column length mismatch")
        if isinstance(kinds, str):
            self._kinds: str | list[str] = kinds
        else:
            self._kinds = list(kinds)
            if len(self._kinds) != k:
                raise ValueError("kind column length mismatch")
        self._start = 0
        self._end = k
        self._mat = None

    # -- trusted constructors (columns already validated) ----------------
    @classmethod
    def _over(cls, srcs, dsts, payloads, bits, kinds, start, end):
        """Span ``[start, end)`` over shared, pre-validated columns."""
        self = object.__new__(cls)
        self._srcs = srcs
        self._dsts = dsts
        self._payloads = payloads
        self._bits = bits
        self._kinds = kinds
        self._start = start
        self._end = end
        self._mat = None
        return self

    # -- sequence protocol ----------------------------------------------
    def __len__(self) -> int:
        return self._end - self._start

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        k = self._end - self._start
        if i < 0:
            i += k
        if not 0 <= i < k:
            raise IndexError("inbox index out of range")
        mat = self._mat
        if mat is None:
            mat = self._mat = [None] * k
        m = mat[i]
        if m is None:
            j = self._start + i
            s = self._srcs
            if type(s) is not int:
                s = s[j]
                if type(s) is not int:
                    s = int(s)  # int64 column (engine delivery)
            d = self._dsts
            if type(d) is not int:
                d = d[j]
                if type(d) is not int:
                    d = int(d)
            kn = self._kinds
            if type(kn) is not str:
                kn = kn[j]
            pays = self._payloads
            if type(pays) is list:
                p = pays[j]
            else:  # typed column: box one element (counted)
                global _box_count
                _box_count += 1
                p = pays.item(j)
            b = self._bits
            if b is None:
                # Deferred bits column: Message re-derives the identical
                # size (payload_bits is deterministic, and the vectorized
                # typed sizing matches it field-for-field).
                m = Message(s, d, p, kn)
            else:
                bv = b[j]
                m = Message(s, d, p, kn, bits=bv if type(bv) is int else int(bv))
            mat[i] = m
        return m

    def __iter__(self):
        for i in range(self._end - self._start):
            yield self[i]

    # -- per-index column reads (no materialization) ---------------------
    def _src_at(self, i: int) -> int:
        s = self._srcs
        if type(s) is int:
            return s
        v = s[self._start + i]
        return v if type(v) is int else int(v)

    def _dst_at(self, i: int) -> int:
        d = self._dsts
        if type(d) is int:
            return d
        v = d[self._start + i]
        return v if type(v) is int else int(v)

    def _payload_at(self, i: int) -> Any:
        pays = self._payloads
        if type(pays) is list:
            return pays[self._start + i]
        # Typed column: box one element (counted).  Boxing before any
        # observable read is mandatory — a structured numpy scalar raises
        # on ``== tuple`` instead of comparing.
        global _box_count
        _box_count += 1
        return pays.item(self._start + i)

    def _kind_at(self, i: int) -> str:
        k = self._kinds
        return k if type(k) is not list else k[self._start + i]

    # -- column accessors -------------------------------------------------
    def payloads(self) -> list[Any]:
        """The payload column (fresh list; no ``Message`` is constructed).

        On a typed column this boxes every element to its Python form
        (counted by :func:`payload_box_count`); consumers that can operate
        on the raw column should read :meth:`payload_array` instead.
        """
        pays = self._payloads
        if type(pays) is list:
            return pays[self._start:self._end]
        global _box_count
        _box_count += self._end - self._start
        return pays[self._start:self._end].tolist()

    def payload_array(self):
        """The typed payload column span as an ndarray (zero-copy view),
        or ``None`` when this inbox is object-backed.  Reading fields off
        the returned array is not a payload box."""
        pays = self._payloads
        if type(pays) is list:
            return None
        return pays[self._start:self._end]

    def srcs(self) -> list[int]:
        """The sender column (fresh list; no ``Message`` is constructed)."""
        s = self._srcs
        if type(s) is int:
            return [s] * (self._end - self._start)
        col = s[self._start:self._end]
        return col if type(col) is list else col.tolist()

    def dsts(self) -> list[int]:
        """The destination column (fresh list)."""
        d = self._dsts
        if type(d) is int:
            return [d] * (self._end - self._start)
        col = d[self._start:self._end]
        return col if type(col) is list else col.tolist()

    def kinds(self) -> list[str]:
        """The kind-tag column (fresh list)."""
        k = self._kinds
        if type(k) is not list:
            return [k] * (self._end - self._start)
        return k[self._start:self._end]

    def items(self) -> list[tuple[int, Any]]:
        """``(src, payload)`` pairs, the shape most consumers unpack."""
        return list(zip(self.srcs(), self.payloads()))

    # -- equality ---------------------------------------------------------
    __hash__ = None  # like a list

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if isinstance(other, InboxBatch):
            k = len(self)
            if len(other) != k:
                return False
            for i in range(k):
                if (
                    self._src_at(i) != other._src_at(i)
                    or self._dst_at(i) != other._dst_at(i)
                    or self._payload_at(i) != other._payload_at(i)
                    or self._kind_at(i) != other._kind_at(i)
                ):
                    return False
            return True
        if isinstance(other, list):
            k = len(self)
            if len(other) != k:
                return False
            for i, m in enumerate(other):
                if not isinstance(m, Message):
                    return NotImplemented
                if (
                    m.src != self._src_at(i)
                    or m.dst != self._dst_at(i)
                    or m.payload != self._payload_at(i)
                    or m.kind != self._kind_at(i)
                ):
                    return False
            return True
        return NotImplemented

    @classmethod
    def _concat(cls, a: "InboxBatch", b: "InboxBatch"):
        """Concatenate two batches, staying lazy (used by multi-round
        inbox merges)."""
        ka, kb = len(a), len(b)
        sa, sb = a._srcs, b._srcs
        srcs = sa if type(sa) is int and type(sb) is int and sa == sb else a.srcs() + b.srcs()
        da, db = a._dsts, b._dsts
        dsts = da if type(da) is int and type(db) is int and da == db else a.dsts() + b.dsts()
        kn_a, kn_b = a._kinds, b._kinds
        if type(kn_a) is str and type(kn_b) is str and kn_a == kn_b:
            kinds: str | list[str] = kn_a
        else:
            kinds = a.kinds() + b.kinds()
        pa, pb = a._payloads, b._payloads
        ba, bb = a._bits, b._bits
        if type(pa) is not list and type(pb) is not list and pa.dtype == pb.dtype:
            # Both typed with one dtype: the merge stays a typed column.
            pays: Any = _np.concatenate(
                [pa[a._start:a._end], pb[b._start:b._end]]
            )
            if ba is None or bb is None or type(ba) is list or type(bb) is list:
                bits = None  # re-derived vectorized on demand
            else:
                bits = _np.concatenate([ba[a._start:a._end], bb[b._start:b._end]])
            return cls._over(srcs, dsts, pays, bits, kinds, 0, ka + kb)
        # Mixed (or plain object) backings: box typed sides via payloads().
        bits = (
            None
            if ba is None or bb is None or type(ba) is not list or type(bb) is not list
            else ba[a._start:a._end] + bb[b._start:b._end]
        )
        return cls._over(
            srcs, dsts, a.payloads() + b.payloads(), bits, kinds, 0, ka + kb
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InboxBatch({list(self)!r})"


class RoundInbox(_MappingABC):
    """One delivered round as a read-only ``Mapping[int, InboxBatch]``.

    The round's columns are stored once, CSR style: receiver ``hosts[i]``
    (int64, ascending) owns messages ``offsets[i]:offsets[i + 1]`` of the
    permuted ``srcs`` (int64), ``payloads`` (an ndarray if typed, else a
    list) and ``kinds`` (one tag, or a list) columns, in submission order.
    ``arrival`` holds the positions of ``hosts`` in first-arrival order,
    the key order.  Values are :class:`InboxBatch` views cut when read and
    never cached: :meth:`items` and :meth:`values` walk ``arrival``, and
    ``inbox[v]`` uses a ``{host: span}`` dict built on first use, so
    lookups keep dict semantics (``np.int64(1)``, ``True`` and ``1.0``
    find receiver 1; ``"x"`` raises ``KeyError``).  Equality, ``keys``,
    ``get`` and ``in`` are :class:`~collections.abc.Mapping`'s; there are
    no mutators.
    """

    __slots__ = ("hosts", "offsets", "srcs", "payloads", "kinds", "arrival",
                 "_keys", "_index")

    def __init__(self, hosts, offsets, srcs, payloads, kinds, arrival):
        self.hosts = hosts
        self.offsets = offsets
        self.srcs = srcs
        self.payloads = payloads
        self.kinds = kinds
        self.arrival = arrival
        self._keys = None
        self._index = None

    def __len__(self) -> int:
        return len(self.hosts)

    def _arrival_keys(self) -> list[int]:
        keys = self._keys
        if keys is None:
            keys = self._keys = self.hosts.take(self.arrival).tolist()
        return keys

    def __iter__(self):
        return iter(self._arrival_keys())

    def __getitem__(self, key) -> InboxBatch:
        index = self._index
        if index is None:
            hosts = self.hosts.tolist()
            off = self.offsets.tolist()
            index = self._index = dict(zip(hosts, zip(hosts, off, off[1:])))
        host, start, end = index[key]
        return InboxBatch._over(
            self.srcs, host, self.payloads, None, self.kinds, start, end
        )

    def _views(self):
        """Every receiver's view in first-arrival order, each cut only when
        the iteration reaches it."""
        arrival = self.arrival
        off = self.offsets
        return map(
            InboxBatch._over, repeat(self.srcs), self._arrival_keys(),
            repeat(self.payloads), repeat(None), repeat(self.kinds),
            off[:-1].take(arrival).tolist(), off[1:].take(arrival).tolist(),
        )

    def items(self):
        return _RoundItems(self)

    def values(self):
        return _RoundValues(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoundInbox({dict(self.items())!r})"


class _RoundItems(_ItemsView):
    __slots__ = ()

    def __iter__(self):
        inbox = self._mapping
        return zip(inbox._arrival_keys(), inbox._views())


class _RoundValues(_ValuesView):
    __slots__ = ()

    def __iter__(self):
        return self._mapping._views()


def gather_typed_spans(inboxes):
    """One round's typed inboxes as whole columns: ``(dsts, payloads)``.

    For a typed :class:`RoundInbox` (a clean bulk typed round of the
    batched or sharded engine) this is the destination column, one int64
    id per message in ascending order, and the delivered payload column
    itself: no copy, no box.  Anything else (object rounds, plain dicts
    such as merged rounds or the reference engine's) gives ``None``, and
    callers keep their per-inbox loop as the fallback.
    """
    if type(inboxes) is not RoundInbox or type(inboxes.payloads) is list:
        return None
    return _np.repeat(inboxes.hosts, _np.diff(inboxes.offsets)), inboxes.payloads


def _norm_id_column(ids: int | Sequence[int], k: int) -> int | list[int]:
    """Validate and normalize a node-id column: a scalar stays scalar
    (bool normalized to int), a sequence must be ``k`` ints."""
    if isinstance(ids, int):
        return int(ids)
    col = list(ids)
    if len(col) != k:
        raise ValueError("id column length mismatch")
    for x in col:
        if not isinstance(x, int):
            raise TypeError(f"node ids must be ints, got {type(x).__name__}")
    return col


def payloads_of(inbox: Sequence[Message] | InboxBatch) -> list[Any]:
    """Payload column of one inbox, engine-agnostic.

    For an :class:`InboxBatch` this reads the column without constructing
    ``Message`` objects; for a plain list it walks the attributes.  The hot
    consumers (routers, primitives) read inboxes through this so clean
    batched-engine rounds stay object-free end-to-end.
    """
    if isinstance(inbox, InboxBatch):
        return inbox.payloads()
    return [m.payload for m in inbox]


def srcs_of(inbox: Sequence[Message] | InboxBatch) -> list[int]:
    """Sender column of one inbox, engine-agnostic (see :func:`payloads_of`)."""
    if isinstance(inbox, InboxBatch):
        return inbox.srcs()
    return [m.src for m in inbox]


def items_of(inbox: Sequence[Message] | InboxBatch) -> list[tuple[int, Any]]:
    """``(src, payload)`` pairs of one inbox, engine-agnostic."""
    if isinstance(inbox, InboxBatch):
        return inbox.items()
    return [(m.src, m.payload) for m in inbox]


def merge_round_inboxes(
    merged: dict[int, list[Message] | InboxBatch],
    inbox: dict[int, list[Message] | InboxBatch],
) -> None:
    """Fold one round's inboxes into an accumulating per-receiver dict.

    Preserves arrival order and keeps column-backed batches lazy: merging
    two ``InboxBatch``es concatenates their columns instead of
    materializing messages.  Plain lists are copied (never aliased) so the
    accumulator owns everything it holds.
    """
    for dst, msgs in inbox.items():
        cur = merged.get(dst)
        if cur is None:
            merged[dst] = msgs if isinstance(msgs, InboxBatch) else list(msgs)
        elif isinstance(cur, InboxBatch) and isinstance(msgs, InboxBatch):
            merged[dst] = InboxBatch._concat(cur, msgs)
        else:
            lst = cur if type(cur) is list else list(cur)
            lst.extend(msgs)
            merged[dst] = lst


class BatchBuilder:
    """Accumulates one round's ``(dst, payload)`` pairs per sender.

    This is the columnar submission helper every primitive uses: instead of
    materializing a flat ``list[Message]`` and letting
    :meth:`~repro.ncc.network.NCCNetwork.exchange` bucket it per sender, the
    primitive appends ``(src, dst, payload)`` triples here and submits the
    builder itself, which the engine's ``run_builder`` reads.
    :meth:`batches` groups by sender in first-occurrence order with
    per-sender append order preserved — exactly the normalization
    ``exchange`` applies to a flat iterable — so the submission form is
    observably identical under every engine.

    Only the ``(dst, payload, bits, kind)`` columns are recorded and
    :meth:`batches` cuts lazy :class:`InboxBatch` groups: no ``Message``
    object exists unless the reference walk (or a consumer) materializes
    one.

    A builder with a declared ``dtype`` keeps the round as whole-round typed
    columns instead: no per-sender Python object exists unless
    :meth:`batches` cuts one, and the batched engine delivers off them.

    A builder is single-shot: it belongs to one round.  ``kind`` set at
    construction tags every message; :meth:`add` may override it per message
    (e.g. routers mixing data and token traffic from one sender).
    """

    __slots__ = (
        "kind", "_groups", "_spent", "_bits_sum", "_bits_max", "_dtype", "_chunks",
    )

    def __init__(self, kind: str = "", *, dtype: Any = None):
        self.kind = kind
        # src -> [dsts, payloads, bits, kinds] where ``kinds`` is the scalar
        # tag until a per-message override forces a column.
        self._groups: dict[int, Any] = {}
        # Typed (``dtype`` declared): one sender-sorted ``(senders, counts,
        # dsts, values, bits)`` chunk per add_array(s) call; see _typed_round.
        self._chunks: list[tuple] = []
        self._spent = False
        # Round-level bit aggregates, tracked as messages are queued so the
        # engine's send-side accounting needs no per-group reduction.
        self._bits_sum = 0
        self._bits_max = 0
        # Declared payload dtype.  The object fallback is part of the
        # contract: with typed payloads globally disabled (the benchmark
        # kill-switch) the declaration degrades to the object layout and
        # every submission is boxed on entry.
        if dtype is not None and _TYPED_DEFAULT:
            dtype = _np.dtype(dtype)
            if not _typed_dtype_ok(dtype):
                raise TypeError(
                    f"unsupported payload dtype {dtype!r}: declare a signed "
                    "int scalar or a flat struct of int/str/bool/float fields"
                )
            self._dtype = dtype
        else:
            self._dtype = None

    def add(self, src: int, dst: int, payload: Any, kind: str | None = None) -> None:
        """Queue one ``src -> dst`` message carrying ``payload``."""
        if self._spent:
            raise TypeError(
                "BatchBuilder already finalized (its batches share the "
                "builder's columns; adding would corrupt them)"
            )
        if self._dtype is not None:
            self._box_typed_groups()
        # The same validation and sizing the Message constructor would
        # perform, minus the object.  (type() fast path; the isinstance
        # retry accepts bool/IntEnum ids like the Message constructor does,
        # but normalizes them to plain ints — a bool in a column would
        # corrupt the delivered inbox keys/scalars.)
        if type(src) is not int or type(dst) is not int:
            if not isinstance(src, int) or not isinstance(dst, int):
                raise TypeError(
                    f"node ids must be ints, got "
                    f"{type(src).__name__} -> {type(dst).__name__}"
                )
            src = int(src)
            dst = int(dst)
        bits = payload_bits_memoized(payload)
        self._bits_sum += bits
        if bits > self._bits_max:
            self._bits_max = bits
        k = self.kind if kind is None else kind
        g = self._groups.get(src)
        if g is None:
            self._groups[src] = [[dst], [payload], [bits], k]
            return
        g[0].append(dst)
        g[1].append(payload)
        g[2].append(bits)
        kinds = g[3]
        if type(kinds) is list:
            kinds.append(k)
        elif k != kinds:
            # First override in this group: expand the scalar to a column.
            g[3] = [kinds] * (len(g[0]) - 1) + [k]

    def add_many(
        self, src: int, dsts: Iterable[int], payloads: Iterable[Any]
    ) -> None:
        """Queue a run of messages from one sender (parallel columns).

        Atomic: a length mismatch queues nothing, and an empty run does not
        register the sender (``bool(builder)`` stays faithful to "has any
        message", which round loops use as their stop condition).
        """
        if self._spent:
            raise TypeError(
                "BatchBuilder already finalized (its batches share the "
                "builder's columns; adding would corrupt them)"
            )
        if self._dtype is not None:
            self._box_typed_groups()
        if type(src) is not int:
            if not isinstance(src, int):
                raise TypeError(f"node ids must be ints, got {type(src).__name__}")
            src = int(src)
        dst_l = list(dsts)
        pay_l = list(payloads)
        if len(dst_l) != len(pay_l):
            raise ValueError("add_many requires parallel columns of equal length")
        for i, d in enumerate(dst_l):
            if type(d) is not int:
                if not isinstance(d, int):
                    raise TypeError(
                        f"node ids must be ints, got "
                        f"{type(src).__name__} -> {type(d).__name__}"
                    )
                dst_l[i] = int(d)
        bits_l = [payload_bits_memoized(p) for p in pay_l]
        if not dst_l:
            return
        self._bits_sum += sum(bits_l)
        mx = max(bits_l)
        if mx > self._bits_max:
            self._bits_max = mx
        g = self._groups.get(src)
        if g is None:
            self._groups[src] = [dst_l, pay_l, bits_l, self.kind]
            return
        g[0].extend(dst_l)
        g[1].extend(pay_l)
        g[2].extend(bits_l)
        kinds = g[3]
        if type(kinds) is list:
            kinds.extend([self.kind] * len(dst_l))
        elif self.kind != kinds:
            g[3] = [kinds] * (len(g[0]) - len(dst_l)) + [self.kind] * len(dst_l)

    def add_array(self, src: int, dsts: Any, values: Any) -> None:
        """Queue a run of typed messages from one sender (parallel arrays).

        ``values`` must match the builder's declared dtype; bit sizes are
        derived per-column by :func:`typed_payload_bits` with no Python
        per element.  On a builder without an active dtype (undeclared,
        typed payloads disabled, or degraded by a mixed submission) the
        columns are boxed on entry and routed through :meth:`add_many` —
        the object-fallback contract.
        """
        if self._spent:
            raise TypeError(
                "BatchBuilder already finalized (its batches share the "
                "builder's columns; adding would corrupt them)"
            )
        dt = self._dtype
        if dt is None:
            global _box_count
            if isinstance(values, _np.ndarray):
                _box_count += len(values)
                values = values.tolist()
            if isinstance(dsts, _np.ndarray):
                dsts = dsts.tolist()
            self.add_many(src, dsts, values)
            return
        if type(src) is not int:
            if not isinstance(src, int):
                raise TypeError(f"node ids must be ints, got {type(src).__name__}")
            src = int(src)
        darr = _np.asarray(dsts)
        if darr.dtype.kind not in "iub":
            raise TypeError(f"node ids must be ints, got dtype {darr.dtype}")
        if darr.dtype != _np.int64:
            darr = darr.astype(_np.int64)
        if isinstance(values, _np.ndarray) and values.dtype != dt:
            # asarray would cast silently (float -> int truncates); a
            # mismatched pre-built column is a caller bug, not data.
            raise TypeError(
                f"value column dtype {values.dtype} does not match the "
                f"declared payload dtype {dt}"
            )
        varr = _np.asarray(values, dtype=dt)
        if len(darr) != len(varr):
            raise ValueError("add_array requires parallel columns of equal length")
        if len(darr) == 0:
            return
        try:
            head = _np.array([src], dtype=_np.int64)
        except OverflowError:
            # A sender id too wide for an int64 column: the object layout
            # carries it to the engines' canonical range error.
            self._box_typed_groups()
            self.add_array(src, darr, varr)
            return
        barr = typed_payload_bits(varr)
        self._bits_sum += int(barr.sum())
        mx = int(barr.max())
        if mx > self._bits_max:
            self._bits_max = mx
        self._chunks.append((head, _np.array([len(darr)]), darr, varr, barr))

    def add_arrays(self, srcs: Any, dsts: Any, values: Any) -> None:
        """Queue typed messages from many senders at once (parallel arrays).

        Senders are grouped in ascending-id order (a stable sort over the
        sender column), each keeping its submissions in input order.  The
        sorted columns are kept whole: no per-sender object is created.
        Without an active dtype the columns are boxed on entry and queued
        through :meth:`add` in the same stable ascending-sender order;
        :meth:`add` validates the ids exactly like the typed path (a float
        id raises, it is never truncated).
        """
        if self._spent:
            raise TypeError(
                "BatchBuilder already finalized (its batches share the "
                "builder's columns; adding would corrupt them)"
            )
        if self._dtype is None:
            global _box_count
            if isinstance(values, _np.ndarray):
                _box_count += len(values)
                values = values.tolist()
            srcs = _np.asarray(srcs).tolist()
            dsts = _np.asarray(dsts).tolist()
            rows = list(zip(srcs, dsts, list(values), strict=True))
            rows.sort(key=itemgetter(0))  # by sender; list.sort is stable
            for s, d, v in rows:
                self.add(s, d, v)
            return
        sarr = _np.asarray(srcs)
        if sarr.dtype.kind not in "iub":
            raise TypeError(f"node ids must be ints, got dtype {sarr.dtype}")
        if sarr.dtype != _np.int64:
            sarr = sarr.astype(_np.int64)
        darr = _np.asarray(dsts)
        if isinstance(values, _np.ndarray) and values.dtype != self._dtype:
            raise TypeError(
                f"value column dtype {values.dtype} does not match the "
                f"declared payload dtype {self._dtype}"
            )
        varr = _np.asarray(values, dtype=self._dtype)
        if not (len(sarr) == len(darr) == len(varr)):
            raise ValueError("add_arrays requires parallel columns of equal length")
        if len(sarr) == 0:
            return
        if darr.dtype.kind not in "iub":
            raise TypeError(f"node ids must be ints, got dtype {darr.dtype}")
        if darr.dtype != _np.int64:
            darr = darr.astype(_np.int64)
        order = _np.argsort(sarr, kind="stable")
        ssort = sarr.take(order)
        dsort = darr.take(order)
        vsort = varr.take(order)
        # Size the whole round's payload column in one vectorized pass —
        # per-group sizing would pay numpy's fixed per-call cost thousands
        # of times on tiny spans (the n=4096 router emits ~2.8k senders of
        # ~3 messages per round) and dominate the run.
        barr = typed_payload_bits(vsort)
        self._bits_sum += int(barr.sum())
        mx = int(barr.max())
        if mx > self._bits_max:
            self._bits_max = mx
        # One (sender, count) entry per run of equal sender ids.
        starts = _np.flatnonzero(_np.concatenate(([True], ssort[1:] != ssort[:-1])))
        self._chunks.append(
            (ssort.take(starts), _np.diff(starts, append=len(ssort)), dsort, vsort, barr)
        )

    def _typed_round(self) -> tuple:
        """The typed round as whole columns ``(senders, counts, dsts,
        values, bits)``, grouped like a flat message list: senders in
        first-occurrence order, each sender's messages in submission order.
        Regroups only when a sender spans chunks; the result replaces the
        chunks, so finalizing again is free."""
        chunks = self._chunks
        if len(chunks) > 1:
            snd, cnt, dst, val, bits = (_np.concatenate(c) for c in zip(*chunks))
            uniq, first, inv = _np.unique(snd, return_index=True, return_inverse=True)
            if len(uniq) < len(snd):
                # Stable sort of the messages by their sender's
                # first-occurrence rank.
                order = _np.argsort(first)
                key = _np.repeat(_np.argsort(order).take(inv), cnt)
                perm = _np.argsort(key, kind="stable")
                snd, cnt = uniq.take(order), _np.bincount(key)
                dst, val, bits = dst.take(perm), val.take(perm), bits.take(perm)
            chunks[:] = [(snd, cnt, dst, val, bits)]
        return chunks[0]

    def _typed_groups(self):
        """Yield ``(sender, dsts, values, bits)`` per sender of the typed
        round, in :meth:`_typed_round` order (views, no copies)."""
        if not self._chunks:
            return
        snd, cnt, dst, val, bits = self._typed_round()
        lo = 0
        for src, hi in zip(snd.tolist(), _np.cumsum(cnt).tolist()):
            yield src, dst[lo:hi], val[lo:hi], bits[lo:hi]
            lo = hi

    def _box_typed_groups(self) -> None:
        """Degrade the typed columns to the object layout (counted boxes).

        Mixing per-message submissions into a typed builder is legal —
        the whole builder just falls back to object columns, preserving
        sender order and per-sender message order.  Boxing any payload
        counts one ``ncc.typed_fallbacks`` and records a ``typed-fallback``
        event.
        """
        global _box_count
        boxed = 0
        for src, dsts, vals, bits in self._typed_groups():
            boxed += len(vals)
            self._groups[src] = [dsts.tolist(), vals.tolist(), bits.tolist(), self.kind]
        self._chunks = []
        self._dtype = None
        if boxed:
            _box_count += boxed
            _TYPED_FALLBACKS.inc()
            tr = _tracer.CURRENT
            if tr is not None:
                tr.event("typed-fallback", boxed=boxed, kind=self.kind)

    def __len__(self) -> int:
        if self._dtype is not None:
            return sum(len(c[2]) for c in self._chunks)
        return sum(len(g[0]) for g in self._groups.values())

    def __bool__(self) -> bool:
        return bool(self._groups or self._chunks)

    def senders(self) -> list[int]:
        if self._chunks:
            return self._typed_round()[0].tolist()
        return list(self._groups)

    def batches(self) -> dict[int, InboxBatch]:
        """Finalize into a ``sender -> InboxBatch`` dict, senders in
        first-occurrence order.

        Finalization is zero-copy: the batches share the builder's
        columns, so the builder is spent afterwards — further ``add``
        calls raise (a stale alias would silently corrupt the batches'
        cached columns).  Cutting again after a round yields equal
        batches, which is how a round observer sees a builder round.
        """
        self._spent = True
        over = InboxBatch._over
        if self._dtype is not None:
            # The one place a typed round is cut into per-sender spans: the
            # reference engine, round observers and anomaly replays.
            kind = self.kind
            groups = ((s, d, v, b, kind) for s, d, v, b in self._typed_groups())
        else:
            # Sender keys are plain ints already: add/add_many normalize
            # bool/IntEnum ids before grouping.
            groups = ((s, *cols) for s, cols in self._groups.items())
        return {
            src: over(src, dsts, pays, bits, kinds, 0, len(dsts))
            for src, dsts, pays, bits, kinds in groups
        }
