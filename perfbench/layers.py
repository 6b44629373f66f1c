"""Layer attribution from outside the program: timed wrappers around the
public callables at each layer boundary of ``repro``.

A traced run installs a :class:`LayerClock`.  It replaces each callable in
:data:`LAYERS` (plus the few special cases in :meth:`LayerClock.install`)
with a wrapper that adds the call's wall time to its layer and subtracts it
from the enclosing wrapped call.  Every layer thus gets a *self time*, and
the self times of one process add up to the wall time spent inside wrapped
calls.  Nothing under ``src/`` changes; :meth:`LayerClock.uninstall`
restores every attribute.  The runner installs the repo's own tracer
(``repro.telemetry``) next to it for the round, phase and shard-shuffle
spans and the incident events.

Layer metric -> the end-to-end metric it should move, on the named workload:

==============================  ==============================================
layer metric                    moves (workload)
==============================  ==============================================
scenarios.build_s, .builds      run_s (mst-small-rounds, sweep-pooled: each
                                iteration's fresh Session builds its graphs)
api.session.overhead_s          run_s (sweep-pooled)
api.pool.*                      run_s (sweep-pooled only)
algorithms.self_s               run_s (mst-small-rounds, sweep-pooled);
                                ~0 on agg-typed-bulk
primitives.*                    run_s (agg-typed-bulk, mst-small-rounds)
butterfly.routing.*             run_s (agg-typed-bulk dominant,
                                mst-small-rounds)
rng.node_rng_*                  run_s (mst-small-rounds)
ncc.message.build_s             run_s (agg-typed-bulk; sharded-bulk, where
                                building the 400k-message rounds is most of
                                the time); its counters stay 0 on
                                agg-typed-bulk and sharded-bulk
ncc.network.*                   run_s (mst-small-rounds: per-round fixed cost;
                                most of its exchanges are empty)
ncc.batched.deliver_s           run_s (agg-typed-bulk, mst-small-rounds)
ncc.sharded.*                   run_s, peak_rss_mb (sharded-bulk only)
telemetry.overhead_frac         traced / untraced run_s - 1 (every workload)
==============================  ==============================================

``layers.unattributed_s`` is the traced iteration's wall time outside every
wrapped call of the benchmark process (its own loop, freeing results); it
checks that the layers account for the time.

Times are self times per iteration, in wall seconds (not quoted at the
reference host speed like ``run_s``; ``host.wall_run_s`` and
``host.yardstick_s`` give the untraced iteration's wall time and the host
speed readings to relate the two).  On sweep-pooled the
worker-side layers (session, algorithms, primitives, routing, network) are
summed over both workers, so they are CPU-seconds rather than wall seconds;
the parent's layers (pool spawn/publish/wait/close, scenario builds) are
wall seconds.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from typing import Any, Callable, Iterator

#: layer -> the ``(module, class, method)`` triples whose calls it times.
LAYERS: dict[str, list[tuple[str, str, str]]] = {
    "api.session": [("repro.api.session", "Session", "run")],
    "api.pool.spawn": [("repro.api.pool", "PersistentPool", "__init__")],
    "api.pool.publish": [("repro.api.pool", "PersistentPool", "publish_workload")],
    "api.pool.close": [("repro.api.pool", "PersistentPool", "close")],
    "algorithms": [("repro.registry", "AlgorithmSpec", "execute")],
    "primitives.aggregation": [("repro.runtime", "NCCRuntime", "aggregation")],
    "primitives.multicast": [("repro.runtime", "NCCRuntime", "multicast")],
    "primitives.other": [
        ("repro.runtime", "NCCRuntime", name)
        for name in (
            "aggregate_and_broadcast",
            "barrier",
            "multicast_setup",
            "multicast_setup_delegated",
            "multi_aggregation",
            "pipelined_broadcast",
            "gather_to_root",
        )
    ],
    "butterfly.routing.combine": [
        ("repro.butterfly.routing", "CombiningRouter", "run")
    ],
    "butterfly.routing.multicast": [
        ("repro.butterfly.routing", "MulticastRouter", "run")
    ],
    "rng.node_rng": [("repro.rng", "SharedRandomness", "node_rng")],
    "ncc.message.build": [
        ("repro.ncc.message", "BatchBuilder", name)
        for name in ("add", "add_many", "add_array", "add_arrays", "batches")
    ],
    "ncc.batched.deliver": [
        ("repro.ncc.batched", "BatchedEngine", name)
        for name in ("run_builder", "run_round")
    ],
    "ncc.sharded.shuffle": [("repro.ncc.sharded.workers", "ShardPool", "shuffle")],
}

#: name of the tracer event in which a forked sweep worker ships its
#: per-row layer totals (it rides back inside the row's trace payload).
WORKER_EVENT = "perfbench-layers"

#: per-layer metric -> the ``METRICS`` counter whose per-iteration delta it is.
COUNTER_METRICS = {
    "api.pool.crashes": "pool.crashes",
    "ncc.message.messages_constructed": "ncc.messages_constructed",
    "ncc.message.payload_boxes": "ncc.payload_boxes",
    "ncc.message.typed_fallbacks": "ncc.typed_fallbacks",
    "ncc.sharded.incidents": "sharded.incidents",
    "ncc.sharded.degradations": "sharded.degradations",
    "ncc.sharded.shm_grows": "sharded.shm_growths",
}

#: per-layer time metric -> the layer whose self time it is.
SELF_TIME_METRICS = {
    "scenarios.build_s": "scenarios.build",
    "api.session.overhead_s": "api.session",
    "api.pool.spawn_s": "api.pool.spawn",
    "api.pool.publish_s": "api.pool.publish",
    "api.pool.wait_s": "api.pool.wait",
    "api.pool.close_s": "api.pool.close",
    "algorithms.self_s": "algorithms",
    "primitives.aggregation_s": "primitives.aggregation",
    "primitives.multicast_s": "primitives.multicast",
    "primitives.other_s": "primitives.other",
    "butterfly.routing.combine_s": "butterfly.routing.combine",
    "butterfly.routing.multicast_s": "butterfly.routing.multicast",
    "rng.node_rng_s": "rng.node_rng",
    "ncc.message.build_s": "ncc.message.build",
    "ncc.network.exchange_self_s": "ncc.network.exchange",
    "ncc.batched.deliver_s": "ncc.batched.deliver",
    "ncc.sharded.shuffle_s": "ncc.sharded.shuffle",
}

#: per-layer call-count metric -> the layer whose calls it counts.
CALL_METRICS = {
    "scenarios.builds": "scenarios.build",
    "primitives.aggregation_calls": "primitives.aggregation",
    "primitives.multicast_calls": "primitives.multicast",
    "primitives.other_calls": "primitives.other",
    "rng.node_rng_calls": "rng.node_rng",
}


class LayerClock:
    """Self time, total time and call count per layer, for one process.

    One flat dict keyed ``"self:<layer>"``, ``"total:<layer>"``,
    ``"calls:<layer>"`` and ``"count:<name>"`` keeps each wrapped call to a
    few dict updates.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.forked = False
        self.values: dict[str, float] = {}
        self._stack: list[float] = []  # child time of each open wrapped call
        self._undo: list[Callable[[], None]] = []

    # -- accounting ----------------------------------------------------
    def clear(self) -> None:
        self.values.clear()
        del self._stack[:]

    def snapshot(self) -> dict[str, float]:
        return dict(self.values)

    def count(self, name: str, k: float = 1) -> None:
        key = "count:" + name
        self.values[key] = self.values.get(key, 0) + k

    def _closer(self, layer: str) -> Callable[[float], None]:
        values = self.values
        stack = self._stack
        k_self, k_total, k_calls = "self:" + layer, "total:" + layer, "calls:" + layer

        def close(dt: float) -> None:
            inner = stack.pop()
            values[k_self] = values.get(k_self, 0.0) + dt - inner
            values[k_total] = values.get(k_total, 0.0) + dt
            values[k_calls] = values.get(k_calls, 0) + 1
            if stack:
                stack[-1] += dt

        return close

    def timed(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped to charge its wall time to ``layer``."""
        stack = self._stack
        close = self._closer(layer)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                close(perf() - t0)

        return wrapper

    def timed_iter(
        self, layer: str, fn: Callable[..., Iterator[Any]]
    ) -> Callable[..., Iterator[Any]]:
        """A generator function wrapped so that the time spent producing
        each item (the consumer blocked in ``next``) is charged to ``layer``."""
        stack = self._stack
        close = self._closer(layer)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            it = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                t0 = perf()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    close(perf() - t0)
                yield item

        return wrapper

    # -- installation --------------------------------------------------
    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        old = owner.__dict__[attr]
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, old))

    def install(self) -> None:
        """Wrap every layer boundary; :meth:`uninstall` undoes it."""
        if self._undo:
            return
        for layer, targets in LAYERS.items():
            for module, cls_name, attr in targets:
                owner = getattr(importlib.import_module(module), cls_name)
                wrapped = self.timed(layer, owner.__dict__[attr])
                if layer == "api.session":
                    wrapped = self._row_boundary(wrapped)
                self._patch(owner, attr, wrapped)
        self._install_special()

    def _install_special(self) -> None:
        import repro
        from repro.api import pool
        from repro.ncc import network
        from repro.ncc.sharded import engine as sharded_engine

        # The parent blocks inside the PersistentPool.run generator.
        self._patch(
            pool.PersistentPool,
            "run",
            self.timed_iter("api.pool.wait", pool.PersistentPool.__dict__["run"]),
        )

        # Published bytes: the packed column of every graph put into shm.
        pack = pool.__dict__["pack_graph"]

        def pack_graph(g: Any) -> Any:
            meta, flat = pack(g)
            self.count("api.pool.publish_bytes", int(flat.nbytes))
            return meta, flat

        self._patch(pool, "pack_graph", pack_graph)

        # An exchange that moved no message is an empty one; a sharded
        # exchange at or above the shard cutoff is a bulk round.
        timed_exchange = self.timed(
            "ncc.network.exchange", network.NCCNetwork.__dict__["exchange"]
        )
        cutoff_default = sharded_engine.SHARD_ROUND_CUTOFF
        cutoff_key = sharded_engine.CUTOFF_EXTRA

        def exchange(net: Any, outgoing: Any) -> Any:
            before = net.stats.messages
            delivered = timed_exchange(net, outgoing)
            moved = net.stats.messages - before
            if moved == 0:
                self.count("empty_exchanges")
            elif net.engine.name == "sharded" and moved >= int(
                net.config.extras.get(cutoff_key, cutoff_default)
            ):
                self.count("bulk_rounds")
            return delivered

        self._patch(network.NCCNetwork, "exchange", exchange)

        # Scenario builders are fields of frozen ScenarioSpec instances.
        for spec in repro.iter_scenarios():
            original = spec.build
            object.__setattr__(spec, "build", self.timed("scenarios.build", original))
            self._undo.append(
                lambda spec=spec, original=original: object.__setattr__(
                    spec, "build", original
                )
            )

    def _row_boundary(self, run: Callable[..., Any]) -> Callable[..., Any]:
        """``Session.run`` wrapper that, inside a forked sweep worker, drops
        the state inherited from the parent and ships each row's layer
        totals back as a tracer event on the row's own trace payload."""

        @functools.wraps(run)
        def wrapper(session: Any, spec: Any, *args: Any, **kwargs: Any) -> Any:
            if os.getpid() != self.pid:
                self.pid = os.getpid()
                self.forked = True
                self.clear()
            report = run(session, spec, *args, **kwargs)
            if self.forked and not self._stack:
                from repro.telemetry import tracer

                tr = tracer.CURRENT
                if tr is not None:
                    tr.event(WORKER_EVENT, **self.snapshot())
                self.clear()
            return report

        return wrapper

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def add_into(total: dict[str, float], part: dict[str, float]) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def derive(
    parent: dict[str, float],
    workers: dict[str, float],
    counters: dict[str, int],
    *,
    iterations: int,
    sim: tuple[int, int, int],
    traced_run_s: float,
) -> dict[str, float]:
    """Per-iteration per-layer metrics from summed layer totals.

    ``parent`` / ``workers`` are :meth:`LayerClock.snapshot` values summed
    over the traced iterations (workers: shipped back by sweep rows),
    ``counters`` the summed ``METRICS`` deltas, ``sim`` the exact
    ``(rounds, messages, bits)`` of one iteration and ``traced_run_s`` the
    mean traced iteration time.  The runner adds the workload-specific
    metrics (pool busy fraction, sharded baseline, overhead, failures).
    """
    raw: dict[str, float] = {}
    add_into(raw, parent)
    add_into(raw, workers)

    def per(key: str) -> float:
        return raw.get(key, 0) / iterations

    out: dict[str, float] = {}
    for metric, layer in SELF_TIME_METRICS.items():
        out[metric] = per("self:" + layer)
    for metric, layer in CALL_METRICS.items():
        out[metric] = per("calls:" + layer)
    for metric, counter in COUNTER_METRICS.items():
        out[metric] = counters.get(counter, 0) / iterations
    out["api.pool.publish_bytes"] = per("count:api.pool.publish_bytes")

    # Every NCCNetwork.exchange call is one round (NCCNetwork.idle_rounds
    # goes through exchange too), so idle_rounds counts rounds that
    # advanced some other way and should read 0.
    rounds, msgs, _bits = sim
    exchanges = per("calls:ncc.network.exchange")
    out["ncc.network.exchange_calls"] = exchanges
    out["ncc.network.empty_exchanges"] = per("count:empty_exchanges")
    out["ncc.network.idle_rounds"] = rounds - exchanges
    out["ncc.network.msgs_per_exchange"] = msgs / exchanges if exchanges else 0.0

    shuffles = per("calls:ncc.sharded.shuffle")
    bulk = per("count:bulk_rounds")
    out["ncc.sharded.distributed_frac"] = shuffles / bulk if bulk else 0.0
    out["ncc.sharded.parent_s"] = (
        per("total:ncc.network.exchange") - per("total:ncc.sharded.shuffle")
        if shuffles
        else 0.0
    )

    attributed = sum(v for k, v in parent.items() if k.startswith("self:"))
    out["layers.traced_run_s"] = traced_run_s
    out["layers.unattributed_s"] = traced_run_s - attributed / iterations
    return out
