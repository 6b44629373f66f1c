"""Messages and payload bit accounting.

The model allows ``O(log n)`` bits per message.  To keep that budget honest,
every payload is assigned a bit size via :func:`payload_bits`.  The estimate
is intentionally simple and conservative-ish: identifiers and weights count
their binary length, containers add their parts, and objects can opt in by
providing a ``size_bits()`` method (e.g. parity sketches).

:class:`MessageBatch` is the columnar companion of :class:`Message`: one
sender's messages together with parallel ``(src, dst, bits)`` arrays so the
batched round engine can account a whole group without touching per-message
attributes.  It behaves exactly like the plain list the reference engine
expects.

:class:`InboxBatch` goes one step further: a lazy, frozen,
``list[Message]``-compatible *view* over parallel ``(src, dst, payload,
bits, kind)`` columns that materializes a :class:`Message` only when an
element is actually accessed.  It serves both directions of a round: the
(default) deferred mode of :class:`BatchBuilder` finalizes each sender's
traffic into one, and the batched engine delivers each destination's slice
of the round's permuted columns as one — so a clean batched-engine round
never constructs a single ``Message`` end-to-end.  Consumers that only need
the payload column read it via :meth:`InboxBatch.payloads` (or the
engine-agnostic :func:`payloads_of`) without triggering materialization.
"""

from __future__ import annotations

from collections.abc import Sequence as _SequenceABC
from typing import Any, Iterable, Sequence

try:  # pragma: no cover - exercised only on numpy-free installs
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


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
    if _np is not None and isinstance(payload, _np.generic):
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


def _count_boxes(k: int) -> None:
    """Charge ``k`` typed-column boxes (internal: engine fallback paths)."""
    global _box_count
    _box_count += k


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


# ----------------------------------------------------------------------
# Vectorized payload sizing for typed columns
# ----------------------------------------------------------------------

#: ``2**k`` for ``k = 0..63`` as uint64: a magnitude's insertion point
#: (``side="right"``) in this table is its ``bit_length``.
_POW2 = None if _np is None else _np.uint64(1) << _np.arange(64, dtype=_np.uint64)


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


class MessageBatch(list):
    """One sender's messages plus parallel ``(src, dst, bits)`` columns.

    A ``MessageBatch`` *is* a ``list[Message]`` — it flows through
    normalization, the reference engine, DROP sampling, and equality checks
    exactly like a plain list.  The batched engine additionally trusts the
    cached columns instead of re-reading per-message attributes, so the
    batch is frozen: every list mutator raises :class:`TypeError` (a stale
    column would silently corrupt the capacity accounting).

    With numpy available the integer columns are stacked into one
    ``(3, len)`` int64 array (rows: src, dst, bits) so a round's groups
    concatenate with a single call, plus an object array of the message
    references for fancy-indexed delivery.  Columns are built lazily on
    first access: a round served by the reference engine (or a batched
    slow path) never pays for them.  Without numpy — or when a value does
    not fit int64 — the columns degrade to plain lists and engines fall
    back to their per-message paths.
    """

    __slots__ = ("_int_cols", "_obj_col", "_list_cols", "_uniform_src", "_bits_agg")

    def __init__(self, messages: Iterable[Message]):
        super().__init__(messages)
        self._int_cols = None
        self._obj_col = None
        self._list_cols = None
        #: The single sender id shared by every message, when the
        #: constructor can prove it (BatchBuilder groups by sender;
        #: from_columns with a scalar src).  ``None`` = unknown/mixed.
        self._uniform_src = None
        #: ``(sum, max)`` of the bits column, captured at finalize so a
        #: clean round needs no per-message bits array at all.
        self._bits_agg = None

    @property
    def int_cols(self):
        cols = self._int_cols
        if cols is None:
            cols = self._int_cols = self._build_int_cols()
        return cols

    @property
    def list_cols(self) -> tuple[list[int], list[int], list[int]]:
        """``(src, dst, bits)`` as plain Python lists.

        :meth:`from_columns` captures these for free while constructing the
        messages; a batch built straight from ``Message`` objects derives
        them on first access.  The batched engine flat-extends these lists
        across a round's groups — one C-level ``memcpy`` per group instead
        of a per-message attribute walk or per-group numpy allocations
        (fresh small batches dominate primitive rounds, so per-batch array
        construction would cost more than it saves).
        """
        cols = self._list_cols
        if cols is None:
            cols = self._list_cols = (
                [m.src for m in self],
                [m.dst for m in self],
                [m.bits for m in self],
            )
        return cols

    @property
    def obj_col(self):
        col = self._obj_col
        if col is None:
            if _np is not None:
                col = _np.fromiter(self, dtype=object, count=len(self))
            else:
                col = list(self)
            self._obj_col = col
        return col

    def _build_int_cols(self):
        k = len(self)
        srcs, dsts, bits = self.list_cols
        if _np is not None:
            try:
                cols = _np.empty((3, k), dtype=_np.int64)
                cols[0] = _np.fromiter(srcs, _np.int64, k)
                cols[1] = _np.fromiter(dsts, _np.int64, k)
                cols[2] = _np.fromiter(bits, _np.int64, k)
                return cols
            except OverflowError:
                # An id/bits value beyond int64 cannot be columnar; the
                # list form routes engines onto their per-message walks,
                # which raise the canonical out-of-range errors.
                pass
        return [srcs, dsts, bits]

    @classmethod
    def from_columns(
        cls,
        src: int | Sequence[int],
        dsts: Sequence[int],
        payloads: Sequence[Any],
        *,
        kind: str | Sequence[str] = "",
    ) -> "MessageBatch":
        """Build a batch from parallel columns (the cheap constructor).

        ``kind`` may be a single tag for the whole batch or a parallel
        column of per-message tags (a round may mix e.g. data and token
        messages from one sender).
        """
        if isinstance(src, int):
            # bool passes the int check (it subclasses int); normalize it so
            # a ``True`` sender does not leak into the ``_uniform_src``
            # metadata and the int64 engine columns as a non-int.
            src = int(src)
            srcs: Sequence[int] = (src,) * len(dsts)
        else:
            srcs = src
        if isinstance(kind, str):
            kinds: Sequence[str] = (kind,) * len(dsts)
        else:
            kinds = kind
        msgs: list[Message] = []
        src_l: list[int] = []
        dst_l: list[int] = []
        bits_l: list[int] = []
        for s, d, p, k in zip(srcs, dsts, payloads, kinds, strict=True):
            m = Message(s, d, p, k)
            msgs.append(m)
            src_l.append(s)
            dst_l.append(d)
            bits_l.append(m.bits)
        batch = cls(msgs)
        # The columns are known as a by-product of construction; cache them
        # so the engine never re-reads per-message attributes.
        batch._list_cols = (src_l, dst_l, bits_l)
        if isinstance(src, int):
            batch._uniform_src = src
        batch._bits_agg = (sum(bits_l), max(bits_l, default=0))
        return batch

    # -- frozen: all mutators raise ------------------------------------
    def _frozen(self, *_args: Any, **_kwargs: Any):
        raise TypeError("MessageBatch is immutable (columns would go stale)")

    append = extend = insert = remove = pop = clear = _frozen
    sort = reverse = __setitem__ = __delitem__ = _frozen
    __iadd__ = __imul__ = _frozen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MessageBatch({list.__repr__(self)})"


class BuilderBatches(dict):
    """The finalize product of :class:`BatchBuilder`'s deferred mode: a
    frozen ``sender -> InboxBatch`` mapping.

    The type itself is the engine's provenance proof: every value is a
    column-backed, uniform-sender, whole-span :class:`InboxBatch` with int
    keys and no empty groups, so the batched engine may take its lazy
    columnar path without a per-group classification pass.  That proof
    only holds if the mapping cannot be edited afterwards — hence frozen.

    ``bits_sum`` / ``bits_max`` carry the round-level bit aggregates the
    builder tracked while accumulating, so the engine's send-side
    accounting is O(1) instead of O(senders) dict walks.

    ``dtype`` records the declared payload dtype when every group is a
    typed column (``None`` for the object layout): the engine's cue that
    delivery can stay in ndarrays end-to-end.
    """

    __slots__ = ("bits_sum", "bits_max", "dtype")

    def __init__(self, bits_sum: int = 0, bits_max: int = 0, dtype: Any = None):
        super().__init__()
        self.bits_sum = bits_sum
        self.bits_max = bits_max
        self.dtype = dtype

    def _frozen(self, *_args: Any, **_kwargs: Any):
        raise TypeError("BuilderBatches is immutable (engine provenance proof)")

    __setitem__ = __delitem__ = _frozen
    update = pop = popitem = clear = setdefault = _frozen


class InboxBatch(_SequenceABC):
    """A lazy, frozen ``list[Message]``-compatible view over parallel
    ``(src, dst, payload, bits, kind)`` columns.

    Two backings exist:

    * *column-backed* — the deferred :class:`BatchBuilder` output (uniform
      ``src``, per-message ``dst``) and the batched engine's clean-round
      delivery (shared permuted round columns, a ``[start, end)`` span per
      destination, uniform ``dst``).  A :class:`Message` is constructed
      only when an element is accessed, and cached per index;
      :meth:`payloads` / :meth:`srcs` / :meth:`items` read the columns
      without constructing anything.
    * *message-backed* — a span over an already-materialized message
      column (the batched engine's eager ``MessageBatch`` delivery);
      element access just indexes, nothing is re-built.

    The view is frozen: it has no mutators, and the scalar/list columns it
    wraps are owned by the batch (accessors return copies).  Equality is
    element-wise against any ``list[Message]`` or other ``InboxBatch`` —
    including order — without materializing; lists compare equal to it via
    the reflected operator.  Like a list it is unhashable.
    """

    __slots__ = (
        "_srcs", "_dsts", "_payloads", "_bits", "_kinds",
        "_start", "_end", "_msgs", "_mat", "_bits_agg",
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
        self._msgs = None
        self._mat = None
        self._bits_agg = None

    # -- trusted constructors (columns already validated) ----------------
    @classmethod
    def _over(cls, srcs, dsts, payloads, bits, kinds, start, end, bits_agg=None):
        """Span ``[start, end)`` over shared, pre-validated columns."""
        self = object.__new__(cls)
        self._srcs = srcs
        self._dsts = dsts
        self._payloads = payloads
        self._bits = bits
        self._kinds = kinds
        self._start = start
        self._end = end
        self._msgs = None
        self._mat = None
        self._bits_agg = bits_agg
        return self

    @classmethod
    def _over_spans(cls, srcs, payloads, kinds, dsts, starts, ends, arrival,
                    cols=None):
        """One round's delivered ``{dst: span}`` dict, built in bulk.

        The engines' clean-round delivery builds one span per receiving
        node; at n ≥ 10^5 the per-span :meth:`_over` call overhead (frame
        + argument packing per inbox) dominates the merge, so this builds
        the whole dict in one tight loop with the allocator bound locally.
        ``dsts``/``starts``/``ends`` are per-group int lists; ``arrival``
        gives the dict insertion order.  With ``cols``, group ``j`` reads
        its ``(srcs, payloads)`` backing columns from ``cols[j]`` (the
        sharded engine's per-block columns) instead of the shared
        ``srcs``/``payloads``.
        """
        new = object.__new__
        delivered: dict[int, "InboxBatch"] = {}
        for j in arrival:
            self = new(cls)
            if cols is not None:
                srcs, payloads = cols[j]
            d = dsts[j]
            self._srcs = srcs
            self._dsts = d
            self._payloads = payloads
            self._bits = None
            self._kinds = kinds
            self._start = starts[j]
            self._end = ends[j]
            self._msgs = None
            self._mat = None
            self._bits_agg = None
            delivered[d] = self
        return delivered

    @classmethod
    def _of_messages(cls, msgs, dst, start, end):
        """Span over an already-materialized message column."""
        self = object.__new__(cls)
        self._srcs = self._payloads = self._bits = self._kinds = None
        self._dsts = dst
        self._start = start
        self._end = end
        self._msgs = msgs
        self._mat = None
        self._bits_agg = None
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
        if self._msgs is not None:
            return self._msgs[self._start + i]
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
        if self._msgs is not None:
            msgs = self._msgs
            for j in range(self._start, self._end):
                yield msgs[j]
        else:
            for i in range(self._end - self._start):
                yield self[i]

    # -- per-index column reads (no materialization) ---------------------
    def _src_at(self, i: int) -> int:
        if self._msgs is not None:
            return self._msgs[self._start + i].src
        s = self._srcs
        if type(s) is int:
            return s
        v = s[self._start + i]
        return v if type(v) is int else int(v)

    def _dst_at(self, i: int) -> int:
        if self._msgs is not None:
            return self._msgs[self._start + i].dst
        d = self._dsts
        if type(d) is int:
            return d
        v = d[self._start + i]
        return v if type(v) is int else int(v)

    def _payload_at(self, i: int) -> Any:
        if self._msgs is not None:
            return self._msgs[self._start + i].payload
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
        if self._msgs is not None:
            return self._msgs[self._start + i].kind
        k = self._kinds
        return k if type(k) is not list else k[self._start + i]

    # -- column accessors -------------------------------------------------
    def payloads(self) -> list[Any]:
        """The payload column (fresh list; no ``Message`` is constructed).

        On a typed column this boxes every element to its Python form
        (counted by :func:`payload_box_count`); consumers that can operate
        on the raw column should read :meth:`payload_array` instead.
        """
        if self._msgs is not None:
            return [m.payload for m in self]
        pays = self._payloads
        if type(pays) is list:
            return pays[self._start:self._end]
        global _box_count
        _box_count += self._end - self._start
        return pays[self._start:self._end].tolist()

    def payload_array(self):
        """The typed payload column span as an ndarray (zero-copy view),
        or ``None`` when this inbox is object- or message-backed.  Reading
        fields off the returned array is not a payload box."""
        pays = self._payloads
        if self._msgs is not None or type(pays) is list:
            return None
        return pays[self._start:self._end]

    def srcs(self) -> list[int]:
        """The sender column (fresh list; no ``Message`` is constructed)."""
        if self._msgs is not None:
            return [m.src for m in self]
        s = self._srcs
        if type(s) is int:
            return [s] * (self._end - self._start)
        col = s[self._start:self._end]
        return col if type(col) is list else col.tolist()

    def dsts(self) -> list[int]:
        """The destination column (fresh list)."""
        if self._msgs is not None:
            return [m.dst for m in self]
        d = self._dsts
        if type(d) is int:
            return [d] * (self._end - self._start)
        col = d[self._start:self._end]
        return col if type(col) is list else col.tolist()

    def kinds(self) -> list[str]:
        """The kind-tag column (fresh list)."""
        if self._msgs is not None:
            return [m.kind for m in self]
        k = self._kinds
        if type(k) is not list:
            return [k] * (self._end - self._start)
        return k[self._start:self._end]

    def items(self) -> list[tuple[int, Any]]:
        """``(src, payload)`` pairs, the shape most consumers unpack."""
        return list(zip(self.srcs(), self.payloads()))

    @property
    def bits_agg(self) -> tuple[int, int]:
        """``(sum, max)`` of the bits column (cached)."""
        agg = self._bits_agg
        if agg is None:
            if self._msgs is not None:
                col = [m.bits for m in self]
            elif self._bits is None:
                pays = self._payloads
                if type(pays) is not list:
                    barr = typed_payload_bits(pays[self._start:self._end])
                    agg = self._bits_agg = (
                        int(barr.sum()),
                        int(barr.max()) if len(barr) else 0,
                    )
                    return agg
                col = [
                    payload_bits_memoized(p)
                    for p in pays[self._start:self._end]
                ]
            else:
                b = self._bits
                if type(b) is not list:
                    span = b[self._start:self._end]
                    agg = self._bits_agg = (
                        int(span.sum()),
                        int(span.max()) if len(span) else 0,
                    )
                    return agg
                col = b[self._start:self._end]
            agg = self._bits_agg = (sum(col), max(col, default=0))
        return agg

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
        """Concatenate two batches; stays lazy when both are column-backed
        (used by multi-round inbox merges), else returns a plain list."""
        if a._msgs is not None or b._msgs is not None:
            return list(a) + list(b)
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


def gather_typed_spans(inboxes):
    """One round's typed inboxes as whole columns: ``(dsts, payloads)``.

    When every inbox is a typed-column :class:`InboxBatch` whose spans are
    views of a shared payload column and together tile it exactly — the
    layout the batched engine delivers — this returns the destination
    column (one id per message, int64) and that payload column directly:
    no per-inbox array handling, no copies, no boxes.  The sharded engine
    delivers the same layout in per-shard pieces (one backing column per
    destination-shard block, hosts in disjoint ascending ranges); those
    concatenate — in min-host block order, which is exactly the
    single-process destination-ascending order — into one column pair.
    Returns ``None`` for any other layout (object columns, message-backed
    inboxes, merged rounds, the reference engine); callers keep their
    per-inbox loop as the fallback.
    """
    if _np is None or not inboxes:
        return None
    # Group spans by backing column (identity: spans *share* their base).
    bases: dict[int, list] = {}  # id(base) -> [base, hosts, starts, ends]
    for host, rec in inboxes.items():
        if type(rec) is not InboxBatch or rec._msgs is not None:
            return None
        pays = rec._payloads
        if type(pays) is list:
            return None
        ent = bases.get(id(pays))
        if ent is None:
            bases[id(pays)] = ent = [pays, [], [], []]
        ent[1].append(host)
        ent[2].append(rec._start)
        ent[3].append(rec._end)
    # Deterministic base order: ascending smallest host.  Bases must cover
    # disjoint host ranges for that to be a meaningful total order (true
    # of shard blocks; anything stranger falls back).
    groups = sorted(bases.values(), key=lambda ent: min(ent[1]))
    prev_hi = -1
    dcols = []
    pcols = []
    for base, hosts, starts, ends in groups:
        if min(hosts) <= prev_hi:
            return None
        prev_hi = max(hosts)
        order = sorted(range(len(hosts)), key=starts.__getitem__)
        pos = 0
        hs: list[int] = []
        sizes: list[int] = []
        for i in order:
            if starts[i] != pos:
                return None
            pos = ends[i]
            hs.append(hosts[i])
            sizes.append(pos - starts[i])
        if pos != len(base):
            return None
        dcols.append(
            _np.repeat(
                _np.fromiter(hs, _np.int64, len(hs)),
                _np.fromiter(sizes, _np.int64, len(sizes)),
            )
        )
        pcols.append(base)
    if len(pcols) == 1:
        return dcols[0], pcols[0]
    if any(p.dtype != pcols[0].dtype for p in pcols):
        return None
    return _np.concatenate(dcols), _np.concatenate(pcols)


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


#: Process-wide default for :class:`BatchBuilder`'s deferred mode.  True
#: (the shipped default) means builders record columns and finalize into
#: lazy :class:`InboxBatch` groups — no ``Message`` is constructed unless
#: an engine or consumer actually touches one.  The eager mode (False)
#: reproduces the pre-lazy pipeline (``Message`` built in :meth:`add`,
#: :class:`MessageBatch` groups) and is kept as the measured baseline of
#: ``benchmarks/bench_primitives.py``'s whole-run gate.
_DEFERRED_DEFAULT = True


def set_deferred_submission(flag: bool) -> bool:
    """Set the process-wide deferred-submission default; returns the
    previous value (benchmark/test hook — always restore)."""
    global _DEFERRED_DEFAULT
    previous = _DEFERRED_DEFAULT
    _DEFERRED_DEFAULT = bool(flag)
    return previous


class BatchBuilder:
    """Accumulates one round's ``(dst, payload)`` pairs per sender and
    finalizes them into per-sender columnar groups.

    This is the columnar submission helper every primitive uses: instead of
    materializing a flat ``list[Message]`` and letting
    :meth:`~repro.ncc.network.NCCNetwork.exchange` bucket it per sender, the
    primitive appends ``(src, dst, payload)`` triples here and submits the
    builder itself.  :meth:`batches` groups by sender in first-occurrence
    order with per-sender append order preserved — exactly the normalization
    ``exchange`` applies to a flat iterable — so the submission form is
    observably identical under every engine.

    In the default *deferred* mode only the ``(dst, payload, bits, kind)``
    columns are recorded and finalization produces lazy
    :class:`InboxBatch` groups: no ``Message`` object exists unless the
    reference walk (or a consumer) materializes one.  Eager mode
    (``deferred=False`` or :func:`set_deferred_submission`) builds the
    ``Message`` in :meth:`add` and finalizes into :class:`MessageBatch`
    groups, reproducing the previous pipeline.

    A builder with a declared ``dtype`` keeps the round as whole-round typed
    columns instead: no per-sender Python object exists unless
    :meth:`batches` cuts one, and the batched engine delivers off them.

    A builder is single-shot: it belongs to one round.  ``kind`` set at
    construction tags every message; :meth:`add` may override it per message
    (e.g. routers mixing data and token traffic from one sender).
    """

    __slots__ = (
        "kind", "_groups", "_spent", "_deferred", "_bits_sum", "_bits_max",
        "_dtype", "_chunks",
    )

    def __init__(
        self,
        kind: str = "",
        *,
        deferred: bool | None = None,
        dtype: Any = None,
    ):
        self.kind = kind
        # Deferred: src -> [dsts, payloads, bits, kinds] where ``kinds`` is
        # the scalar tag until a per-message override forces a column.
        # Eager: src -> (messages, dsts, bits) — the Message is built once,
        # in add(), and its columns captured as a by-product.
        self._groups: dict[int, Any] = {}
        # Typed (``dtype`` declared): one sender-sorted ``(senders, counts,
        # dsts, values, bits)`` chunk per add_array(s) call; see _typed_round.
        self._chunks: list[tuple] = []
        self._spent = False
        self._deferred = _DEFERRED_DEFAULT if deferred is None else bool(deferred)
        # Round-level bit aggregates, tracked as messages are queued so the
        # engine's send-side accounting needs no per-group reduction.
        self._bits_sum = 0
        self._bits_max = 0
        # Declared payload dtype.  The object fallback is part of the
        # contract: without numpy, in eager mode (whose product is Message
        # objects by definition), or with typed payloads globally disabled
        # (the benchmark kill-switch), the declaration degrades to the
        # object layout and every submission is boxed on entry.
        if dtype is not None and _np is not None and self._deferred and _TYPED_DEFAULT:
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
        if not self._deferred:
            m = Message(src, dst, payload, self.kind if kind is None else kind)
            g = self._groups.get(src)
            if g is None:
                self._groups[src] = g = ([], [], [])
            g[0].append(m)
            g[1].append(dst)
            g[2].append(m.bits)
            return
        # Deferred: same validation and sizing the Message constructor
        # would perform, minus the object.  (type() fast path; the
        # isinstance retry accepts bool/IntEnum ids like the Message
        # constructor does, but normalizes them to plain ints — a bool in
        # a column would corrupt the delivered inbox keys/scalars.)
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
        if not self._deferred:
            kind = self.kind
            msgs: list[Message] = []
            dst_l: list[int] = []
            bits_l: list[int] = []
            for d, p in zip(dsts, payloads, strict=True):
                m = Message(src, d, p, kind)
                msgs.append(m)
                dst_l.append(d)
                bits_l.append(m.bits)
            if not msgs:
                return
            g = self._groups.get(src)
            if g is None:
                self._groups[src] = g = ([], [], [])
            g[0].extend(msgs)
            g[1].extend(dst_l)
            g[2].extend(bits_l)
            return
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
        numpy-free, eager mode, or degraded by a mixed submission) the
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
            if _np is not None and isinstance(values, _np.ndarray):
                _box_count += len(values)
                values = values.tolist()
            if _np is not None and isinstance(dsts, _np.ndarray):
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
        """
        if self._spent:
            raise TypeError(
                "BatchBuilder already finalized (its batches share the "
                "builder's columns; adding would corrupt them)"
            )
        if self._dtype is None:
            global _box_count
            if _np is not None and isinstance(values, _np.ndarray):
                _box_count += len(values)
                values = values.tolist()
            if _np is not None and isinstance(dsts, _np.ndarray):
                dsts = dsts.tolist()
            if _np is not None and isinstance(srcs, _np.ndarray):
                srcs = srcs.tolist()
            for s, d, v in zip(list(srcs), list(dsts), list(values), strict=True):
                self.add(int(s), int(d), v)
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
        sender order and per-sender message order.
        """
        global _box_count
        for src, dsts, vals, bits in self._typed_groups():
            _box_count += len(vals)
            self._groups[src] = [dsts.tolist(), vals.tolist(), bits.tolist(), self.kind]
        self._chunks = []
        self._dtype = None

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

    def batches(self) -> "dict[int, MessageBatch] | BuilderBatches":
        """Finalize into per-sender batches with pre-captured columns.

        Deferred mode yields lazy :class:`InboxBatch` groups inside a
        frozen :class:`BuilderBatches` mapping (the engine's proof that the
        lazy columnar path applies); eager mode yields plain
        :class:`MessageBatch` groups.  Finalization is zero-copy either
        way: the batches take ownership of the builder's lists, so the
        builder is spent afterwards — further ``add`` calls raise (a stale
        alias would silently corrupt the frozen batches' cached columns).
        """
        self._spent = True
        # ``int(src)`` normalizes a (pathological) bool sender key so the
        # finalize product can be fed to an engine as-is — the same
        # coercion ``exchange`` applies to Mapping submissions.
        if self._dtype is not None:
            # The one place a typed round is cut into per-sender spans: the
            # reference engine, round observers and anomaly replays.
            lazy = BuilderBatches(self._bits_sum, self._bits_max, self._dtype)
            lazy_set = dict.__setitem__  # lazy itself is frozen
            over = InboxBatch._over
            kind = self.kind
            for src, dsts, vals, bits in self._typed_groups():
                lazy_set(lazy, src, over(src, dsts, vals, bits, kind, 0, len(dsts)))
            return lazy
        if self._deferred:
            lazy = BuilderBatches(self._bits_sum, self._bits_max)
            lazy_set = dict.__setitem__  # lazy itself is frozen
            over = InboxBatch._over
            for src, (dsts, pays, bits, kinds) in self._groups.items():
                if type(src) is not int:
                    src = int(src)
                # Per-group bit aggregates stay lazy (InboxBatch derives
                # and caches them if the batch is ever resubmitted solo);
                # the round-level aggregates ride on the mapping itself.
                lazy_set(
                    lazy, src, over(src, dsts, pays, bits, kinds, 0, len(dsts))
                )
            return lazy
        out: dict[int, MessageBatch] = {}
        for src, (msgs, dsts, bits) in self._groups.items():
            if type(src) is not int:
                src = int(src)
            batch = MessageBatch(msgs)
            batch._list_cols = ([src] * len(msgs), dsts, bits)
            batch._uniform_src = src
            batch._bits_agg = (sum(bits), max(bits, default=0))
            out[src] = batch
        return out
