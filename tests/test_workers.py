"""The worker core both pools run on, driven through a toy task kind.

The sweep and shard front-ends pin crash requeue, poisonous tasks and the
chaos hook end to end (``tests/test_pool.py``, ``tests/test_sharded.py``).
This module pins two core rules neither front-end can reach on purpose:
an abandoned dispatch never serves its stale replies to the next one, and
a worker found dead at dispatch requeues its task without charging it.
"""

import os
import signal
import time

import pytest

from repro.telemetry.metrics import Counter
from repro.workers import TaskKind, WorkerPool, shared_memory_available

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory unavailable on this host",
)


def _square(x):
    time.sleep(0.02)
    return x * x


def _square_handler():
    return _square


def _refuse(tid, _x, why):
    raise AssertionError(f"task {tid} reached the exhaustion policy: {why}")


TOY = TaskKind(
    label="toy",
    handler=_square_handler,
    exhausted=_refuse,
    incident="toy-crash",
    id_field="task",
    crashes=Counter("toy.crashes"),
)


def _tasks(values):
    return [(i, str(i), v) for i, v in enumerate(values)]


def test_abandoned_dispatch_never_serves_stale_replies():
    pool = WorkerPool(TOY, 2)
    try:
        first = pool.run(_tasks(range(6)))
        next(first)
        first.close()  # the other worker is still busy with a gen-1 task
        got = list(pool.run(_tasks(range(100, 106))))
        assert sorted(got) == [(i, (100 + i) ** 2) for i in range(6)]
    finally:
        pool.close()


def test_death_at_dispatch_requeues_uncharged():
    pool = WorkerPool(TOY, 2)
    try:
        victim = pool.workers[1].proc  # the first idle worker dispatched to
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        assert not victim.is_alive()
        incidents = []
        got = dict(pool.run(_tasks(range(4)), incidents.append))
        assert got == {i: i * i for i in range(4)}
        assert incidents == [
            {
                "kind": "toy-crash",
                "task": 0,
                "exitcode": -signal.SIGKILL,
                "requeued": True,
                "attempt": 0,
                "workers_left": 1,
            }
        ]
    finally:
        pool.close()
