"""Message payload bit accounting, batch columns, and the batch builder."""

import pytest

from repro.hashing.sketches import ParitySketch
from repro.ncc.message import (
    BatchBuilder,
    InboxBatch,
    Message,
    message_construction_count,
    payload_bits,
    payloads_of,
)


class TestPayloadBits:
    def test_none_and_bool(self):
        assert payload_bits(None) == 1
        assert payload_bits(True) == 1
        assert payload_bits(False) == 1

    def test_small_ints(self):
        assert payload_bits(0) == 1
        assert payload_bits(1) == 1
        assert payload_bits(2) == 2
        assert payload_bits(255) == 8
        assert payload_bits(256) == 9

    def test_negative_ints_pay_sign_bit(self):
        assert payload_bits(-1) == payload_bits(1) + 1

    def test_float_constant(self):
        assert payload_bits(3.14) == 32

    def test_short_string_is_tag(self):
        # Protocol tags are constant-alphabet symbols: 4 bits.
        assert payload_bits("D") == 4
        assert payload_bits("tok") == 4

    def test_long_string_charged_per_char(self):
        assert payload_bits("x" * 20) == 160

    def test_tuple_sums_parts(self):
        assert payload_bits(("D", 3, 255)) == 4 + 2 + 8

    def test_nested_containers(self):
        assert payload_bits((1, (2, 3))) == 1 + 2 + 2

    def test_size_bits_protocol(self):
        s = ParitySketch.zero(10)
        assert payload_bits(s) == 10
        assert payload_bits(("S", s)) == 14

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            payload_bits(object())


class TestMessage:
    def test_bits_computed_from_payload(self):
        m = Message(0, 1, ("x", 7))
        assert m.bits == payload_bits(("x", 7))
        assert m.sized() == m.bits

    def test_explicit_bits_respected(self):
        m = Message(0, 1, "whatever", bits=99)
        assert m.bits == 99

    def test_equality_ignores_bits_field(self):
        assert Message(0, 1, 5) == Message(0, 1, 5, bits=77)
        assert Message(0, 1, 5) != Message(0, 2, 5)
        assert Message(0, 1, 5, kind="a") != Message(0, 1, 5, kind="b")

    def test_repr_mentions_endpoints(self):
        assert "0->1" in repr(Message(0, 1, "hi"))

    # -- hash/eq contract ------------------------------------------------
    # Regression: __hash__ used repr(payload) while __eq__ compares with
    # ``==``, so equal messages could hash unequal (1 vs True vs 1.0) and
    # set/dict dedup silently kept duplicates.
    EQUAL_PAYLOAD_PAIRS = [
        (1, True),
        (0, False),
        (1, 1.0),
        (0.0, False),
        ((1, 2), (1, 2.0)),
        ((1, ("a", 0)), (1, ("a", False))),
        ([1, 2], [1, 2]),  # unhashable payloads hash on (src, dst, kind)
        ([1], [1.0]),  # ...even when their reprs differ
    ]

    @pytest.mark.parametrize("a,b", EQUAL_PAYLOAD_PAIRS)
    def test_equal_messages_hash_equal(self, a, b):
        ma, mb = Message(0, 1, a, kind="k"), Message(0, 1, b, kind="k")
        assert ma == mb
        assert hash(ma) == hash(mb)
        assert len({ma, mb}) == 1
        assert {ma: "x"} == {mb: "x"}

    def test_unhashable_payload_message_is_hashable(self):
        m = Message(0, 1, [1, [2, 3]])
        assert isinstance(hash(m), int)
        assert m in {m}

    def test_distinct_messages_stay_distinct_in_sets(self):
        msgs = {Message(0, 1, 5), Message(0, 2, 5), Message(1, 1, 5),
                Message(0, 1, 6), Message(0, 1, 5, kind="other")}
        assert len(msgs) == 5

    def test_hash_eq_property_sweep(self):
        """Property: for a grid of hashable payload shapes, m1 == m2
        implies hash(m1) == hash(m2) (Python's own payload hashing makes
        the cross-type aliases 1 == True == 1.0 agree)."""
        payloads = [0, 1, True, False, 1.0, "x", None, (1, 2), (True, 2.0),
                    (1, 2.0), ("x", (0,)), ("x", (False,))]
        msgs = [Message(0, 1, p) for p in payloads]
        for m1 in msgs:
            for m2 in msgs:
                if m1 == m2:
                    assert hash(m1) == hash(m2), (m1, m2)


class TestBatchBuilder:
    def test_groups_by_sender_in_first_occurrence_order(self):
        out = BatchBuilder(kind="t")
        out.add(3, 1, "a")
        out.add(0, 2, "b")
        out.add(3, 5, "c")
        batches = out.batches()
        assert list(batches) == [3, 0]
        assert [(m.src, m.dst, m.payload) for m in batches[3]] == [
            (3, 1, "a"),
            (3, 5, "c"),
        ]
        assert len(out) == 3
        assert bool(out)
        assert out.senders() == [3, 0]

    def test_default_and_override_kinds(self):
        out = BatchBuilder(kind="data")
        out.add(0, 1, "x")
        out.add(0, 2, "y", kind="token")
        assert [m.kind for m in out.batches()[0]] == ["data", "token"]

    def test_add_many_parallel_columns(self):
        out = BatchBuilder(kind="k")
        out.add_many(1, [4, 5], ["p", "q"])
        (batch,) = out.batches().values()
        assert [(m.dst, m.payload) for m in batch] == [(4, "p"), (5, "q")]
        with pytest.raises(ValueError):
            BatchBuilder().add_many(1, [1, 2, 3], ["only", "two"])

    def test_empty_builder(self):
        out = BatchBuilder()
        assert not out
        assert len(out) == 0
        assert out.batches() == {}

    def test_add_many_is_atomic(self):
        """An empty run must not register the sender and a mismatched run
        must queue nothing — ``bool(builder)`` drives round loops."""
        out = BatchBuilder()
        out.add_many(5, [], [])
        assert not out
        assert out.senders() == []
        with pytest.raises(ValueError):
            out.add_many(1, [1, 2, 3], ["only", "two"])
        assert len(out) == 0

    def test_rejects_non_int_ids_like_message(self):
        out = BatchBuilder()
        with pytest.raises(TypeError, match="node ids must be ints"):
            out.add(0, 2.5, "x")

    def test_spent_after_finalize(self):
        """Finalization hands the builder's column lists to the (frozen)
        batches zero-copy, so adding afterwards must raise instead of
        silently corrupting the batches' cached columns."""
        out = BatchBuilder()
        out.add(0, 1, "x")
        batch = out.batches()[0]
        with pytest.raises(TypeError, match="finalized"):
            out.add(0, 2, "y")
        with pytest.raises(TypeError, match="finalized"):
            out.add_many(0, [2], ["y"])
        assert len(batch) == 1
        assert (batch.srcs(), batch.dsts(), [m.bits for m in batch]) == ([0], [1], [4])

    def test_batches_are_inbox_batches_in_sender_order(self):
        out = BatchBuilder(kind="t")
        out.add(3, 1, "a")
        out.add(0, 2, ("b", 7))
        batches = out.batches()
        assert list(batches) == [3, 0]
        assert all(type(b) is InboxBatch for b in batches.values())

    def test_deferred_add_validates_like_message(self):
        out = BatchBuilder()
        with pytest.raises(TypeError, match="node ids must be ints"):
            out.add(0, 2.5, "x")
        with pytest.raises(TypeError, match="node ids must be ints"):
            out.add("a", 2, "x")
        with pytest.raises(TypeError, match="cannot size payload"):
            out.add(0, 1, object())
        assert len(out) == 0  # failed adds queue nothing


class TestInboxBatch:
    """The lazy columnar inbox view: list-compatible, frozen, zero-copy."""

    def make(self, kind="k"):
        return InboxBatch(2, [5, 6, 5], [("a", 1), 9, None], kinds=kind)

    def test_sequence_protocol(self):
        b = self.make()
        assert len(b) == 3
        assert [m.payload for m in b] == [("a", 1), 9, None]
        assert b[1].dst == 6
        assert b[-1].payload is None
        with pytest.raises(IndexError):
            b[3]

    def test_materialization_is_lazy_and_per_element(self):
        b = self.make()
        before = message_construction_count()
        assert b.payloads() == [("a", 1), 9, None]
        assert b.srcs() == [2, 2, 2]
        assert b.dsts() == [5, 6, 5]
        assert b.kinds() == ["k", "k", "k"]
        assert b.items() == [(2, ("a", 1)), (2, 9), (2, None)]
        assert message_construction_count() == before
        m = b[1]
        assert message_construction_count() == before + 1
        assert b[1] is m  # cached per index
        assert message_construction_count() == before + 1
        assert m == Message(2, 6, 9, "k")

    def test_equality_against_lists_both_directions(self):
        b = self.make()
        msgs = [Message(2, 5, ("a", 1), "k"), Message(2, 6, 9, "k"),
                Message(2, 5, None, "k")]
        before = message_construction_count()
        assert b == msgs
        assert msgs == b  # list delegates to the reflected operator
        assert message_construction_count() == before  # structural compare
        assert b != msgs[:2]
        assert b != [*msgs[:2], Message(2, 5, "other", "k")]
        assert b != [*msgs[:2], Message(9, 5, None, "k")]

    def test_equality_between_batches(self):
        assert self.make() == self.make()
        assert self.make() != self.make(kind="else")

    def test_unhashable_like_a_list(self):
        with pytest.raises(TypeError):
            hash(self.make())

    def test_frozen_no_mutators(self):
        b = self.make()
        with pytest.raises(TypeError):
            b[0] = Message(0, 1, "x")
        assert not hasattr(b, "append")

    def test_per_message_kind_column(self):
        b = InboxBatch(0, [1, 2], ["x", "y"], kinds=["a", "b"])
        assert b.kinds() == ["a", "b"]
        assert [m.kind for m in b] == ["a", "b"]

    def test_column_length_mismatches_rejected(self):
        with pytest.raises(ValueError):
            InboxBatch(0, [1, 2], ["only"])
        with pytest.raises(ValueError):
            InboxBatch([0], [1, 2], ["a", "b"])
        with pytest.raises(ValueError):
            InboxBatch(0, [1], ["a"], kinds=["x", "y"])
        with pytest.raises(ValueError):
            InboxBatch(0, [1], ["a"], bits=[1, 2])

    def test_non_int_ids_rejected(self):
        with pytest.raises(TypeError, match="node ids must be ints"):
            InboxBatch(0, [1, 2.5], ["a", "b"])

    def test_helpers_engine_agnostic(self):
        b = self.make()
        msgs = list(b)
        assert payloads_of(b) == payloads_of(msgs) == [("a", 1), 9, None]

    def test_message_bits_match_payload_sizes(self):
        b = self.make()
        sizes = [payload_bits(("a", 1)), payload_bits(9), payload_bits(None)]
        assert [m.bits for m in b] == sizes


class TestBoolSrcNormalization:
    def test_builder_bool_src_key_normalized(self):
        out = BatchBuilder()
        out.add(True, 3, "a")
        batches = out.batches()
        (src,) = batches.keys()
        assert src == 1 and type(src) is int

    def test_builder_bool_and_intenum_dst_normalized(self):
        """Regression: bool/IntEnum ids pass the isinstance retry but must
        be stored as plain ints — a bool scalar in a delivered column
        breaks element access and inbox keys."""
        import enum

        class Node(enum.IntEnum):
            SINK = 2

        out = BatchBuilder()
        out.add(0, True, "a")
        out.add(0, Node.SINK, "b")
        out.add_many(False, [Node.SINK, True], ["c", "d"])  # False -> sender 0
        batches = out.batches()
        assert list(batches) == [0]
        assert all(type(s) is int for s in batches)
        batch = batches[0]
        assert all(type(d) is int for d in batch.dsts())
        assert batch.dsts() == [1, 2, 2, 1]
        assert batch[0].dst == 1

    def test_bool_dst_round_delivers_identically(self):
        """End-to-end: a bool dst in a deferred round must deliver the
        same int-keyed inbox under both engines."""
        from repro import Enforcement, NCCConfig, NCCNetwork

        inboxes = {}
        for engine in ("reference", "batched"):
            net = NCCNetwork(8, NCCConfig(seed=1, enforcement=Enforcement.COUNT, engine=engine))
            out = BatchBuilder()
            out.add(0, True, ("x", 1))
            out.add(3, 1, ("y", 2))
            inboxes[engine] = net.exchange(out)
        assert inboxes["reference"] == inboxes["batched"]
        assert list(inboxes["reference"]) == list(inboxes["batched"]) == [1]
        box = inboxes["batched"][1]
        assert box[0].dst == 1 and type(box[0].dst) is int
