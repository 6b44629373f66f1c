# reprolint: path=src/repro/primitives/fixture_consumer.py
"""NCC007 fixture: exchange results are read; copies and merges are edited."""


def drop_self(net, out, me):
    inbox = dict(net.exchange(out))  # a copy is an ordinary dict
    del inbox[me]
    return inbox


def keep_others(net, out, me):
    inbox = net.exchange(out)
    mine = dict(inbox)  # an editable copy under its own name
    mine.pop(me, None)
    return mine


def merge(net, rounds):
    merged = {}  # the consumer's own merge dict
    for out in rounds:
        inbox = net.exchange(out)
        for dst, msgs in inbox.items():
            merged.setdefault(dst, []).extend(msgs)
        merged.update({})
    return merged
