"""Sharded engine: shard-count invisibility, crash robustness, wiring.

The sharded engine's contract is stronger than "correct": for every
shard count it must be *byte-identical* to the single-process batched
engine — same inboxes (content, list order, dict insertion order), same
statistics, same violation-ledger order, same DROP draws — while
constructing zero ``Message`` objects on clean typed rounds.  This
module pins that contract three ways:

* a shards=1 ≡ shards=k ≡ batched grid over algorithms × sizes × seeds,
  plus overloaded typed rounds in all three enforcement modes;
* crash robustness via the ``REPRO_CHAOS`` injection hook: a
  SIGKILLed worker requeues its block and journals an incident, a
  poisonous block degrades to the parent, and a fully-dead pool disables
  the engine — all without changing a byte of output;
* the configuration surface: ``NCCConfig.shards``, ``RunSpec.shards``
  (serialized only when set), ``Session`` canonicalization, the sweep
  grid's scalar ``engine_shards``, and the CLI validator.

The broad differential coverage (every algorithm and primitive in every
mode) lives in ``tests/test_engine_parity.py``; this module owns what is
specific to sharding.
"""

from __future__ import annotations

import signal

import pytest

np = pytest.importorskip("numpy")

from repro import Enforcement, NCCConfig, NCCRuntime, ReproError
from repro.api.schema import RunSpec
from repro.api.session import Session, sweep_grid
from repro.errors import ConfigurationError
from repro.ncc.message import (
    BatchBuilder,
    InboxBatch,
    message_construction_count,
)
from repro.ncc.network import NCCNetwork
from repro.ncc.sharded import CUTOFF_EXTRA, ShardedEngine
from repro.ncc.sharded import workers as shard_workers
from repro.registry import get_algorithm
from repro.workers import CHAOS_ENV

MODES = tuple(Enforcement)
MODE_IDS = [m.value for m in MODES]


def _sharded_cfg(*, shards: int, mode: Enforcement = Enforcement.COUNT,
                 seed: int = 1, **extras) -> NCCConfig:
    """A sharded config with the round cutoff forced to 1 so even tiny
    test rounds take the real distributed block shuffle."""
    return NCCConfig(
        engine="sharded", shards=shards, seed=seed, enforcement=mode,
        extras={CUTOFF_EXTRA: 1, **extras},
    )


def _batched_cfg(*, mode: Enforcement = Enforcement.COUNT,
                 seed: int = 1, **extras) -> NCCConfig:
    return NCCConfig(engine="batched", seed=seed, enforcement=mode, extras=extras)


def _typed_round(n: int, *, salt: int = 0) -> BatchBuilder:
    """One clean typed round: every node sends 3 int64 messages along
    shifted permutations (both per-sender and per-receiver loads stay at
    3, far below capacity)."""
    out = BatchBuilder(kind="t", dtype=np.int64)
    src = np.repeat(np.arange(n, dtype=np.int64), 3)
    shift = np.tile(np.arange(1, 4, dtype=np.int64), n)
    dst = (src + shift + salt) % n
    out.add_arrays(src, dst, src * 1000 + shift)
    return out


@pytest.fixture
def fresh_shard_pool():
    """Chaos tests mutate the process-wide shard pool (killed workers,
    inherited chaos env in forked children); give them a pristine pool
    and tear the mutated one down afterwards."""
    shard_workers.close_pool()
    yield
    shard_workers.close_pool()


# ----------------------------------------------------------------------
# Shard-count invisibility
# ----------------------------------------------------------------------
@pytest.mark.engine("reference")  # builds every engine itself
class TestShardCountInvisible:
    """shards=1 ≡ shards=k ≡ single-process batched, byte for byte."""

    @pytest.mark.parametrize("seed", (3, 11))
    @pytest.mark.parametrize("n", (24, 40))
    @pytest.mark.parametrize("name", ("mst", "components", "bfs"))
    def test_algorithm_grid(self, name, n, seed):
        spec = get_algorithm(name)
        outcomes = {}
        for label, cfg in (
            ("batched", _batched_cfg(seed=7, lightweight_sync=True)),
            ("shards-1", _sharded_cfg(shards=1, seed=7, lightweight_sync=True)),
            ("shards-4", _sharded_cfg(shards=4, seed=7, lightweight_sync=True)),
        ):
            rt = NCCRuntime(n, cfg)
            result = spec.parity_run(rt, n=n, a=2, seed=seed)
            outcomes[label] = {
                "result": result,
                "rounds": rt.net.round_index,
                "stats": rt.net.stats.comparable(),
            }
        base = outcomes["batched"]
        for label, got in outcomes.items():
            assert got == base, f"{label} diverged from batched"

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_overloaded_typed_round_all_modes(self, mode):
        """Receive overload through the sharded merge: the inherited
        canonical receive walk must keep the ledger order, DROP draws and
        STRICT raise identical to batched, for any shard count."""
        n = 64
        outcomes = {}
        for label, cfg in (
            ("batched", _batched_cfg(mode=mode)),
            ("shards-1", _sharded_cfg(shards=1, mode=mode)),
            ("shards-3", _sharded_cfg(shards=3, mode=mode)),
        ):
            net = NCCNetwork(n, cfg)
            src = np.arange(net.capacity + 10, dtype=np.int64)
            out = BatchBuilder(kind="hot", dtype=np.int64)
            out.add_arrays(src, np.zeros_like(src), src * 3)
            try:
                inbox = net.exchange(out)
                outcomes[label] = (
                    "ok",
                    [(d, [m.payload for m in box]) for d, box in inbox.items()],
                    net.stats.comparable(),
                )
            except ReproError as e:
                outcomes[label] = (type(e).__name__, str(e), net.stats.comparable())
        base = outcomes["batched"]
        for label, got in outcomes.items():
            assert got == base, f"{label} diverged from batched"

    def test_clean_typed_round_distributed_and_messageless(self):
        """The headline property: a clean typed sharded round really takes
        the worker-pool path and constructs zero Message objects, while
        delivering inboxes byte-identical to batched in both dict-order
        directions."""
        n = 96
        net = NCCNetwork(n, _sharded_cfg(shards=4))
        before = message_construction_count()
        inbox = net.exchange(_typed_round(n))
        assert message_construction_count() == before, (
            "a clean typed sharded round must not construct Message objects"
        )
        eng = net.engine
        assert isinstance(eng, ShardedEngine)
        assert eng._pool is not None, "the distributed delivery never ran"
        assert not eng._disabled
        assert eng.incidents == []
        assert all(type(box) is InboxBatch for box in inbox.values())

        ref = NCCNetwork(n, _batched_cfg())
        expected = ref.exchange(_typed_round(n))
        assert list(inbox.keys()) == list(expected.keys())
        assert inbox == expected
        assert expected == inbox
        assert net.stats.comparable() == ref.stats.comparable()

    def test_empty_shards_are_fine(self):
        """More shards than distinct destinations: some blocks are empty
        and simply absent from the shuffle; output unchanged."""
        n = 48
        net = NCCNetwork(n, _sharded_cfg(shards=5))
        out = BatchBuilder(kind="t", dtype=np.int64)
        src = np.arange(n, dtype=np.int64)
        out.add_arrays(src, np.zeros_like(src) + 1, src)  # all traffic to node 1
        inbox = net.exchange(out)
        ref = NCCNetwork(n, _batched_cfg())
        out2 = BatchBuilder(kind="t", dtype=np.int64)
        out2.add_arrays(src, np.zeros_like(src) + 1, src)
        assert inbox == ref.exchange(out2)
        assert net.stats.comparable() == ref.stats.comparable()

    def test_no_shared_memory_degrades_to_batched(self, monkeypatch):
        """Hosts without POSIX shared memory disable the engine; it then
        inherits the single-process delivery wholesale — same bytes."""
        import repro.workers as workers_mod

        monkeypatch.setattr(workers_mod, "shared_memory_available", lambda: False)
        n = 64
        net = NCCNetwork(n, _sharded_cfg(shards=3))
        inbox = net.exchange(_typed_round(n))
        eng = net.engine
        assert eng._disabled
        assert eng._pool is None
        ref = NCCNetwork(n, _batched_cfg())
        assert inbox == ref.exchange(_typed_round(n))
        assert net.stats.comparable() == ref.stats.comparable()


# ----------------------------------------------------------------------
# Crash robustness (REPRO_CHAOS)
# ----------------------------------------------------------------------
@pytest.mark.engine("reference")  # builds every engine itself
class TestCrashRobustness:
    N = 96

    def _run_against_reference(self, net):
        """Exchange two typed rounds on ``net`` and on a fresh batched
        reference; assert byte-identical delivery and stats."""
        ref = NCCNetwork(self.N, _batched_cfg())
        for salt in (0, 1):
            inbox = net.exchange(_typed_round(self.N, salt=salt))
            expected = ref.exchange(_typed_round(self.N, salt=salt))
            assert list(inbox.keys()) == list(expected.keys()), f"salt={salt}"
            assert inbox == expected, f"salt={salt}"
        assert net.stats.comparable() == ref.stats.comparable()

    def test_sigkilled_worker_requeues_and_journals(
        self, tmp_path, monkeypatch, fresh_shard_pool
    ):
        """SIGKILL the worker that picks up shard 1's block, exactly once:
        the round completes byte-identically, the crash lands on the
        engine's incident journal, and the pool keeps running on the
        survivors."""
        flag = tmp_path / "crash-once"
        monkeypatch.setenv(CHAOS_ENV, f"1:{flag}")
        net = NCCNetwork(self.N, _sharded_cfg(shards=3))
        self._run_against_reference(net)
        eng = net.engine
        assert flag.exists(), "the chaos hook never fired"
        assert [i["kind"] for i in eng.incidents] == ["shard-worker-crash"]
        incident = eng.incidents[0]
        assert incident["block"] == 1
        assert incident["exitcode"] == -signal.SIGKILL
        assert incident["requeued"] is True
        assert incident["attempt"] == 1
        assert incident["workers_left"] == 2
        assert not eng._disabled
        assert eng._pool.alive_workers == 2

    def test_poisonous_block_falls_back_to_parent(
        self, monkeypatch, fresh_shard_pool
    ):
        """An empty flagfile path kills *every* worker that touches shard
        1: the block exhausts its requeue budget, the parent computes it
        through the same kernel, the dead pool disables the engine, and
        later rounds inherit the batched delivery — output identical
        throughout."""
        monkeypatch.setenv(CHAOS_ENV, "1:")
        net = NCCNetwork(self.N, _sharded_cfg(shards=3))
        self._run_against_reference(net)
        eng = net.engine
        assert eng._disabled, "a fully-dead pool must disable the engine"
        kinds = [i["kind"] for i in eng.incidents]
        assert kinds == ["shard-worker-crash"] * 3
        last = eng.incidents[-1]
        assert last["requeued"] is False  # budget exhausted: parent fallback
        assert last["workers_left"] == 0
        assert eng._pool.alive_workers == 0


# ----------------------------------------------------------------------
# Configuration surface
# ----------------------------------------------------------------------
class TestShardsWiring:
    def test_ncc_config_validates_shards(self):
        assert NCCConfig(shards=0).shards == 0  # 0 = auto
        assert NCCConfig(shards=4).shards == 4
        for bad in (-1, True, "2", 1.5):
            with pytest.raises(ConfigurationError):
                NCCConfig(shards=bad)

    def test_engine_clamps_shard_count(self):
        net = NCCNetwork(4, _sharded_cfg(shards=64))
        assert net.engine.shards == 4  # never more shards than nodes

    def test_runspec_validates_shards(self):
        assert RunSpec("mst", n=16, shards=3).shards == 3
        for bad in (0, -1, True, "2"):
            with pytest.raises(ConfigurationError):
                RunSpec("mst", n=16, shards=bad)

    def test_runspec_shards_serialized_only_when_set(self):
        bare = RunSpec("mst", n=16)
        assert "shards" not in bare.to_dict()
        assert RunSpec.from_dict(bare.to_dict()) == bare
        sharded = RunSpec("mst", n=16, shards=3)
        assert sharded.to_dict()["shards"] == 3
        assert RunSpec.from_dict(sharded.to_dict()) == sharded
        # The performance knob must not fork the workload identity axes.
        assert sharded.to_dict()["n"] == bare.to_dict()["n"]

    def test_session_canonical_implies_sharded_engine(self):
        with Session() as s:
            c = s.canonical(RunSpec("mst", n=16, shards=2))
            assert c.engine == "sharded"
            assert c.shards == 2
            cfg = s.config_for(c)
            assert cfg.engine == "sharded"
            assert cfg.shards == 2

    def test_session_canonical_rejects_engine_contradiction(self):
        with Session() as s:
            with pytest.raises(ConfigurationError, match="shards"):
                s.canonical(RunSpec("mst", n=16, engine="batched", shards=2))

    def test_sweep_grid_engine_shards_is_a_scalar(self):
        specs = sweep_grid(["mst"], [16, 32], seeds=[0, 1], engine_shards=2)
        assert len(specs) == 4
        assert all(sp.shards == 2 for sp in specs)
        bare = sweep_grid(["mst"], [16], seeds=[0])
        assert all(sp.shards is None for sp in bare)

    def test_cli_shards_validator(self):
        from argparse import ArgumentTypeError

        from repro.cli import _shards_arg

        assert _shards_arg("3") == 3
        for bad in ("0", "-2", "banana", "1.5"):
            with pytest.raises(ArgumentTypeError):
                _shards_arg(bad)
