# reprolint: path=src/repro/primitives/fixture_consumer.py
"""NCC007 fixture: mutating an exchange result in place."""


def drop_self(net, out, me):
    inbox = net.exchange(out)
    del inbox[me]  # item deletion
    return inbox


def overwrite(net, out):
    inbox = net.exchange(out)
    inbox[0] = []  # item assignment
    inbox[1] += []  # augmented item assignment
    return inbox


def drain(net, out):
    inbox = net.exchange(out)
    first = inbox.pop(0, None)
    inbox.popitem()
    inbox.setdefault(2, [])
    inbox.update({3: []})
    inbox.clear()
    return first


def until_quiet(net, out):
    while inbox := net.exchange(out):
        inbox.pop(0, None)  # bound by `:=`
