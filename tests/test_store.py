"""The result store, the sweep manifest, and resume equivalence: an
interrupted sweep, resumed, must leave byte-identical store shards to an
uninterrupted one — and `repro query` must read both stores and flat
JSONL."""

import json

import pytest

from repro.api import (
    Manifest,
    ManifestError,
    ResultStore,
    RunSpec,
    Session,
    StoreError,
    sweep_grid,
)
from repro.api.store import (
    aggregate,
    field_value,
    filter_reports,
    load_any,
    parse_aggs,
    parse_where,
)
from repro.cli import main
from repro.errors import ConfigurationError

GRID = sweep_grid(["mis", "matching"], [16], seeds=[0, 1, 2])


def canonical_grid(specs=GRID):
    session = Session()
    return [session.canonical(s) for s in specs]


def shard_bytes(root):
    return [open(p, "rb").read() for p in ResultStore.open(root).shard_paths()]


class TestResultStore:
    def test_create_open_roundtrip(self, tmp_path):
        root = str(tmp_path / "store")
        store = ResultStore.create(root, shards=4)
        assert ResultStore.open(root).shards == 4
        store.close()

    def test_create_refuses_existing(self, tmp_path):
        root = str(tmp_path / "store")
        ResultStore.create(root)
        with pytest.raises(StoreError, match="already exists"):
            ResultStore.create(root)

    def test_open_missing_is_clean_error(self, tmp_path):
        with pytest.raises(StoreError, match="no result store"):
            ResultStore.open(str(tmp_path / "nope"))

    def test_existing_shard_count_wins_on_reopen(self, tmp_path):
        # Resuming with a different --shards must not re-route rows.
        root = str(tmp_path / "store")
        ResultStore.create(root, shards=3)
        assert ResultStore.open_or_create(root, shards=8).shards == 3

    def test_shard_routing_is_stable_and_in_range(self):
        store = ResultStore("unused", shards=4)
        for spec in canonical_grid():
            idx = store.shard_for(spec)
            assert 0 <= idx < 4
            assert idx == store.shard_for(spec)  # pure function of the spec

    def test_append_and_read_back(self, tmp_path):
        root = str(tmp_path / "store")
        reports = Session().run_many(GRID, store=root, shards=2)
        store = ResultStore.open(root)
        assert store.count() == len(GRID)
        got = {r.spec.content_hash() for r in store.iter_reports()}
        assert got == {r.spec.content_hash() for r in reports}

    def test_duplicate_report_detected(self, tmp_path):
        root = str(tmp_path / "store")
        with ResultStore.create(root) as store:
            [report] = Session().run_many(GRID[:1])
            store.append(report)
            store.append(report)
        with pytest.raises(StoreError, match="duplicate"):
            ResultStore.open(root).reports_by_hash()


class TestManifest:
    def test_create_and_reload(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        grid = canonical_grid()
        with Manifest.open(path, grid, store="store", shards=2) as mani:
            mani.mark_done(0, grid[0])
            mani.mark_done(1, grid[1])
        loaded = Manifest.load(path)
        assert loaded.done_rows == 2
        assert loaded.store == "store" and loaded.shards == 2
        assert [s.content_hash() for s in loaded.specs] == [
            s.content_hash() for s in grid
        ]
        assert list(loaded.remaining()) == grid[2:]
        assert not loaded.complete

    def test_out_of_order_done_rejected(self, tmp_path):
        grid = canonical_grid()
        with Manifest.open(str(tmp_path / "m.jsonl"), grid, store=None) as mani:
            with pytest.raises(ManifestError, match="in-order"):
                mani.mark_done(2, grid[2])

    def test_grid_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        Manifest.open(path, canonical_grid(), store=None).close()
        other = canonical_grid(sweep_grid(["mis"], [24], seeds=[0]))
        with pytest.raises(ManifestError, match="different grid"):
            Manifest.open(path, other, store=None)

    def test_torn_tail_tolerated(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        grid = canonical_grid()
        with Manifest.open(path, grid, store=None) as mani:
            mani.mark_done(0, grid[0])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "done", "row": 1')  # kill mid-append
        assert Manifest.load(path).done_rows == 1

    def test_mid_file_corruption_rejected(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        grid = canonical_grid()
        Manifest.open(path, grid, store=None).close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("garbage\n")
            fh.write(json.dumps({"event": "done", "row": 0}) + "\n")
        with pytest.raises(ManifestError, match="not JSON"):
            Manifest.load(path)

    def test_manifest_requires_store(self):
        with pytest.raises(ConfigurationError, match="requires store"):
            Session().run_many(GRID, manifest="m.jsonl")


class TestResumeEquivalence:
    """The headline guarantee: interrupt at row k, resume, and the store
    bytes are identical to a from-scratch run — for interruption both by
    max_rows and by an exception mid-parallel-sweep."""

    def run_scratch(self, tmp_path, jobs=1):
        root = str(tmp_path / "scratch")
        Session().run_many(GRID, jobs=jobs, store=root, shards=2,
                           manifest=str(tmp_path / "scratch.jsonl"))
        return root

    def test_max_rows_interrupt_then_resume(self, tmp_path):
        scratch = self.run_scratch(tmp_path)
        root = str(tmp_path / "store")
        mani_path = str(tmp_path / "m.jsonl")
        partial = Session().run_many(
            GRID, store=root, shards=2, manifest=mani_path, max_rows=2
        )
        assert len(partial) == 2
        assert Manifest.load(mani_path).done_rows == 2
        resumed = Session().run_many(
            GRID, store=root, shards=2, manifest=mani_path
        )
        assert len(resumed) == len(GRID)
        assert shard_bytes(root) == shard_bytes(scratch)
        # the resumed prefix is served from the store, not recomputed, yet
        # is indistinguishable in the report list
        serial = Session().run_many(GRID)
        assert [r.to_json_line() for r in resumed] == [
            r.to_json_line() for r in serial
        ]

    def test_exception_interrupt_then_resume_parallel(self, tmp_path):
        # A progress callback that raises mid-parallel-sweep models the
        # operator hitting Ctrl-C: completed rows are already durable.
        scratch = self.run_scratch(tmp_path)
        root = str(tmp_path / "store")
        mani_path = str(tmp_path / "m.jsonl")
        count = 0

        def bomb(report):
            nonlocal count
            count += 1
            if count == 3:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            with Session() as s:
                s.run_many(GRID, jobs=2, store=root, shards=2,
                           manifest=mani_path, progress=bomb)
        done = Manifest.load(mani_path).done_rows
        assert done == 3
        with Session() as s:
            resumed = s.run_many(GRID, jobs=2, store=root, shards=2,
                                 manifest=mani_path)
        assert len(resumed) == len(GRID)
        assert shard_bytes(root) == shard_bytes(scratch)

    def test_resume_of_complete_sweep_recomputes_nothing(self, tmp_path):
        root = str(tmp_path / "store")
        mani_path = str(tmp_path / "m.jsonl")
        Session().run_many(GRID, store=root, manifest=mani_path)
        ran = []
        Session().run_many(GRID, store=root, manifest=mani_path,
                           progress=ran.append)
        assert ran == []  # progress fires per *computed* row only
        assert ResultStore.open(root).count() == len(GRID)

    def test_out_of_sync_store_is_clean_error(self, tmp_path):
        root = str(tmp_path / "store")
        mani_path = str(tmp_path / "m.jsonl")
        Session().run_many(GRID, store=root, manifest=mani_path, max_rows=2)
        for p in ResultStore.open(root).shard_paths():
            open(p, "w").close()  # lose the store, keep the manifest
        with pytest.raises(ConfigurationError, match="out of sync"):
            Session().run_many(GRID, store=root, manifest=mani_path)


class TestQueryHelpers:
    @pytest.fixture()
    def reports(self):
        return Session().run_many(GRID)

    def test_parse_where_coerces_json_scalars(self):
        terms = parse_where(["n=16", "correct=true", "algorithm=mis"])
        assert terms == [("n", 16), ("correct", True), ("algorithm", "mis")]

    def test_parse_where_rejects_unknown_field(self):
        with pytest.raises(StoreError, match="unknown query field"):
            parse_where(["bogus=1"])

    def test_filter_conjunction(self, reports):
        kept = list(filter_reports(reports, parse_where(["algorithm=mis",
                                                         "seed=1"])))
        assert len(kept) == 1
        assert kept[0].spec.algorithm == "mis" and kept[0].spec.seed == 1

    def test_aggregate_grouped(self, reports):
        headers, rows = aggregate(
            reports, ["algorithm"], parse_aggs(["count", "mean:rounds"])
        )
        assert headers == ["algorithm", "count", "mean(rounds)"]
        assert [r[0] for r in rows] == ["mis", "matching"]  # first-seen order
        assert all(r[1] == 3 for r in rows)

    def test_aggregate_overall(self, reports):
        headers, rows = aggregate(reports, [], parse_aggs(["count",
                                                           "max:messages"]))
        assert rows == [[len(GRID), max(r.messages for r in reports)]]

    def test_parse_aggs_rejects_malformed(self):
        with pytest.raises(StoreError, match="unknown aggregate"):
            parse_aggs(["median:rounds"])
        with pytest.raises(StoreError, match="needs fn:field"):
            parse_aggs(["mean"])

    def test_field_value_covers_spec_and_outcome(self, reports):
        r = reports[0]
        assert field_value(r, "algorithm") == "mis"
        assert field_value(r, "rounds") == r.rounds
        assert field_value(r, "violations") == len(r.violations)

    def test_load_any_reads_store_and_jsonl(self, tmp_path, reports):
        root = str(tmp_path / "store")
        flat = str(tmp_path / "flat.jsonl")
        Session().run_many(GRID, store=root, shards=2, out=flat)
        assert len(list(load_any(root))) == len(GRID)
        assert len(list(load_any(flat))) == len(GRID)
        with pytest.raises(StoreError, match="no result store"):
            list(load_any(str(tmp_path / "missing")))


class TestQueryCli:
    @pytest.fixture()
    def store(self, tmp_path):
        root = str(tmp_path / "store")
        Session().run_many(GRID, store=root, shards=2)
        return root

    def test_table_defaults(self, store, capsys):
        assert main(["query", store]) == 0
        out = capsys.readouterr().out
        assert "query: 6 of 6 reports" in out
        assert "mis" in out and "matching" in out

    def test_where_and_jsonl(self, store, capsys):
        assert main(["query", store, "--where", "algorithm=mis",
                     "--jsonl"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all(json.loads(ln)["spec"]["algorithm"] == "mis"
                   for ln in lines)

    def test_group_by_agg(self, store, capsys):
        assert main(["query", store, "--group-by", "algorithm",
                     "--agg", "count", "--agg", "mean:rounds"]) == 0
        out = capsys.readouterr().out
        assert "mean(rounds)" in out and "query: 6 reports" in out

    def test_select_and_limit(self, store, capsys):
        assert main(["query", store, "--select", "algorithm,rounds",
                     "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "query: 2 of 6 reports" in out

    def test_bad_field_exits_2(self, store, capsys):
        assert main(["query", store, "--where", "bogus=1"]) == 2
        assert "unknown query field" in capsys.readouterr().err

    def test_missing_path_exits_2(self, tmp_path, capsys):
        assert main(["query", str(tmp_path / "nope")]) == 2
        assert "no result store" in capsys.readouterr().err


class TestSweepCliStoreFlow:
    def test_store_resume_flow(self, tmp_path, capsys):
        store = str(tmp_path / "S")
        argv = ["sweep", "--algos", "mis", "--ns", "16", "--seeds", "0:4",
                "--store", store, "--shards", "2"]
        assert main(argv + ["--max-rows", "2"]) == 0
        captured = capsys.readouterr()
        assert "2/4 runs done" in captured.out
        assert "--resume" in captured.out
        manifest = f"{store}/manifest.jsonl"
        assert main(["sweep", "--resume", manifest]) == 0
        assert "4/4 runs done" in capsys.readouterr().out
        assert ResultStore.open(store).count() == 4

    def test_resume_rejects_axis_flags(self, tmp_path, capsys):
        assert main(["sweep", "--resume", "m.jsonl", "--algos", "mis"]) == 2
        assert "drop --algos" in capsys.readouterr().err

    def test_sweep_without_algos_or_resume_exits_2(self, capsys):
        assert main(["sweep", "--ns", "16"]) == 2
        assert "--resume" in capsys.readouterr().err

    def test_manifest_without_store_exits_2(self, capsys):
        assert main(["sweep", "--algos", "mis", "--ns", "16",
                     "--manifest", "m.jsonl"]) == 2
        assert "requires --store" in capsys.readouterr().err

    def test_resume_missing_manifest_exits_2(self, tmp_path, capsys):
        assert main(["sweep", "--resume", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read manifest" in capsys.readouterr().err
