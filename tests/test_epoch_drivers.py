"""The epoch engine runs one stage chain on two drivers: the Ray Data
plan, and a single Ray task for an epoch of at most one map batch
(pipelines/replay.py). Each case replays the same fixture on both — the
task by default, the plan forced by a batch_size below every epoch's row
estimate — and the two lakes must hold byte-identical data files, equal
manifests (paths relative to the lake root) and the oracle's state."""

import dataclasses
import glob
import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pytest

from tiflow_ray import fixtures, oracle
from tiflow_ray.config import ReplayConfig
from tiflow_ray.pipelines import multitable as mt
from tiflow_ray.pipelines import replay as rp
from tiflow_ray.stages.schema_evo import SchemaRegistry
from tiflow_ray.state.checkpoint import LakeState

#: below every fixture epoch's row estimate: forces the plan driver
PLAN_BATCH = 64


def _lake_image(lake_dir: str) -> dict:
    files = {os.path.relpath(f, lake_dir):
             hashlib.md5(open(f, "rb").read()).hexdigest()
             for f in glob.glob(os.path.join(lake_dir, "data", "**",
                                             "*.parquet"), recursive=True)}
    manifests = {}
    for f in glob.glob(os.path.join(lake_dir, "_manifest", "epoch-*.json")):
        with open(f) as fh:
            manifests[os.path.basename(f)] = json.loads(
                fh.read().replace(lake_dir, "<lake>"))
    return {"files": files, "manifests": manifests}


def _single(root, reg, lake_dir, wal="wal", **kw):
    cfg = ReplayConfig(wal_dir=os.path.join(root, wal), lake_dir=lake_dir,
                       num_partitions=8, validate=True, **kw)
    rp.bootstrap(cfg, base_dir=os.path.join(root, "base"))
    assert rp.run_replay(cfg).epochs
    assert rp.lake_to_table(lake_dir, cfg.wal_dir).equals(
        oracle.replay_to_table(root, reg))


def _t1(kw):
    def case(tmp_path, t1_fixture):
        root, reg, *_ = t1_fixture
        return lambda lake, **drv: _single(root, reg, lake, **kw, **drv)
    return case


def _hot(tmp_path, t1_fixture):
    root = str(tmp_path / "hot")
    reg, *_ = fixtures.generate_tier(root, "t1_noddl", hot_frac=0.002,
                                     hot_share=0.9)

    return lambda lake, **drv: _single(root, reg, lake, auto_salt=True,
                                       **drv)


def _multitable_lifecycle(tmp_path, t1_fixture):
    from test_multitable import _expected, _lifecycle_setup
    root, regs, lcs, base_dirs, wal_dir = _lifecycle_setup(tmp_path)

    def run(lake, **drv):
        cfg = ReplayConfig(wal_dir=wal_dir, lake_dir=lake, num_partitions=8,
                           max_segments_per_epoch=2, validate=True, **drv)
        mt.bootstrap_multitable(cfg, regs, base_dirs, lcs)
        assert mt.run_replay_multitable(cfg).epochs
        for t in ("tb", "tc", "td"):
            assert mt.multitable_lake_to_table(lake, t).equals(
                _expected(root, regs, t)), t
        assert "ta" in LakeState(lake).latest().stats["dropped_tables"]
    return run


def _optimistic(tmp_path, t1_fixture):
    from test_shard_merge import OPT_BARRIERS, _opt_shard_wal, _setup
    root, _ = _setup(tmp_path)
    regs = [_opt_shard_wal(root, s, OPT_BARRIERS[s]) for s in range(3)]
    wal_dirs = [os.path.join(root, f"wal_s{s}") for s in range(3)]
    exp = oracle.replay_optimistic_to_table(
        root, wal_dirs, regs, rp.merge_optimistic_registries(regs))

    def run(lake, **drv):
        cfg = ReplayConfig(wal_dir=wal_dirs[0], lake_dir=lake,
                           num_partitions=8, max_segments_per_epoch=2, **drv)
        rp.bootstrap(cfg, base_dir=os.path.join(root, "base"))
        assert rp.run_replay_sharded(cfg, wal_dirs, mode="optimistic").epochs
        assert rp.lake_to_table(lake).equals(exp)
    return run


def _one_epoch_fixture(root: str, ids: list[str], collation: str = "binary"):
    """A one-table fixture whose WAL is one epoch of events on `ids`, in
    order (commit_ts strictly increasing; every 7th event a delete), over a
    base of the first half of the ids (upper-cased under a ci collation,
    so the epoch's upserts replace case variants) → registry."""
    base_ids = sorted({i if collation == "binary" else i.upper()
                       for i in ids[:len(ids) // 2]})
    n = len(base_ids)
    fixtures.write_base_partitioned(pa.table({
        "doc_id": pa.array(base_ids),
        "tokens": pa.array([[i] for i in range(n)], pa.list_(pa.int32())),
        "n_tok": pa.array(np.ones(n, np.int32)),
        "source": pa.array(["seed"] * n)}), root, 8, collation=collation)
    n = len(ids)
    ops = np.where(np.arange(n) % 7 == 3, 1, 2).astype(np.uint8)
    img = ops != 1
    fixtures.write_wal_segments(pa.table({
        "op": pa.array(ops),
        "commit_ts": pa.array(np.arange(10, 10 + n, dtype=np.uint64)),
        "start_ts": pa.array(np.arange(n, dtype=np.uint64)),
        "doc_id": pa.array(ids),
        "new_doc_id": pa.nulls(n, pa.string()),
        "pre_tokens": pa.nulls(n, pa.list_(pa.int32())),
        "tokens": pa.array([[i * 7] if h else None
                            for i, h in enumerate(img)],
                           pa.list_(pa.int32())),
        "n_tok": pa.array([1 if h else None for h in img], pa.int32()),
        "source": pa.array(["web" if h else None for h in img]),
        "schema_ver": pa.array(np.ones(n, np.int32)),
    }), os.path.join(root, "wal"), 2, SchemaRegistry([]))
    return SchemaRegistry([])


def _mostly_unique(tmp_path, t1_fixture):
    """One epoch with >90% distinct keys, so split_combine's combiner
    passes the batch through, and 20 keys written twice, 200 events
    apart: only the epoch's final reduce collapses them."""
    root = str(tmp_path / "uniq")
    ids = []
    for i in range(400):
        ids.append(f"d{i:04d}")
        if i >= 200 and i % 10 == 0:     # written again 200 events later
            ids.append(f"d{i - 200:04d}")
    assert 0.9 * len(ids) < len(set(ids)) < len(ids)
    reg = _one_epoch_fixture(root, ids)
    return lambda lake, **drv: _single(root, reg, lake,
                                       max_segments_per_epoch=2, **drv)


def _shared_doc_id(tmp_path, t1_fixture):
    """A multi-table epoch in which one doc_id is written in two tables:
    the reduce keys on (part, doc_id), never on doc_id alone."""
    import pyarrow.parquet as pq
    from test_multitable import B1, _expected, _setup
    root, regs, base_dirs, wal_dir = _setup(tmp_path)
    # the first epoch ends at the first DDL barrier, B1
    wal = [r for f in glob.glob(os.path.join(wal_dir, "*.parquet"))
           for r in pq.read_table(f, columns=["commit_ts", "doc_id",
                                              "table_name"]).to_pylist()]
    tables_of: dict[str, set] = {}
    for r in wal:
        if r["commit_ts"] <= B1:
            tables_of.setdefault(r["doc_id"], set()).add(r["table_name"])
    assert any(len(ts) > 1 for ts in tables_of.values())

    def run(lake, **drv):
        cfg = ReplayConfig(wal_dir=wal_dir, lake_dir=lake, num_partitions=8,
                           max_segments_per_epoch=6, validate=True, **drv)
        mt.bootstrap_multitable(cfg, regs, base_dirs)
        assert mt.run_replay_multitable(cfg).epochs
        for t in sorted(regs):
            assert mt.multitable_lake_to_table(lake, t).equals(
                _expected(root, regs, t)), t
    return run


def _ci_case_variants(tmp_path, t1_fixture):
    """Case variants of one key interleaved in one epoch under
    key_collation="ci": one winner per collation key, the winner's own
    spelling kept."""
    import pyarrow.compute as pc
    root = str(tmp_path / "ci")
    spell = (str.lower, str.upper, str.title)
    ids = [spell[i % 3](f"doc-{i % 90:03d}x") for i in range(300)]
    reg = _one_epoch_fixture(root, ids, collation="ci")

    def canon(t):
        return t.take(pc.sort_indices(t, sort_keys=[("doc_id", "ascending")]))

    def run(lake, **drv):
        cfg = ReplayConfig(wal_dir=os.path.join(root, "wal"), lake_dir=lake,
                           num_partitions=8, max_segments_per_epoch=2,
                           key_collation="ci", validate=True, **drv)
        rp.bootstrap(cfg, base_dir=os.path.join(root, "base"))
        assert len(rp.run_replay(cfg).epochs) == 1
        assert canon(rp.lake_to_table(lake, cfg.wal_dir)).equals(canon(
            oracle.replay_to_table(root, reg, collation="ci")))
    return run


#: case → fixture + replay
CASES = {
    "ddl_folds": _t1({"max_segments_per_epoch": 1, "compact_every": 3}),
    "cow": _t1({"sink_mode": "cow", "max_segments_per_epoch": 2}),
    "multitable_drop_table": _multitable_lifecycle,
    "auto_salt": _hot,
    "optimistic_remount": _optimistic,
    "mostly_unique_epoch": _mostly_unique,
    "doc_id_in_two_tables": _shared_doc_id,
    "ci_case_variants": _ci_case_variants,
}


@pytest.mark.parametrize("case", list(CASES))
def test_drivers_write_identical_lakes(case, tmp_path, t1_fixture):
    run = CASES[case](tmp_path, t1_fixture)
    images = {}
    for driver, drv in (("task", {}), ("plan", {"batch_size": PLAN_BATCH})):
        lake = str(tmp_path / f"lake_{driver}")
        run(lake, collect_stats=True, **drv)
        # every executed epoch ran on the intended driver
        assert rp.LAST_EPOCH_STATS
        assert all(s.startswith("single-task driver") == (driver == "task")
                   for s in rp.LAST_EPOCH_STATS), driver
        images[driver] = _lake_image(lake)
    assert images["task"]["files"] == images["plan"]["files"]
    assert images["task"]["manifests"] == images["plan"]["manifests"]


@pytest.mark.parametrize("driver", ["task", "plan"])
def test_collect_stats_one_entry_per_epoch(t1_fixture, tmp_path, driver):
    """collect_stats records one LAST_EPOCH_STATS entry per epoch that moves
    data, on either driver; the task driver's entry names each step."""
    root, *_ = t1_fixture
    cfg = ReplayConfig(wal_dir=os.path.join(root, "wal"),
                       lake_dir=str(tmp_path / "lake"), num_partitions=8,
                       max_segments_per_epoch=1, collect_stats=True,
                       **({"batch_size": PLAN_BATCH} if driver == "plan"
                          else {}))
    rp.bootstrap(cfg, base_dir=os.path.join(root, "base"))
    res = rp.run_replay(cfg)
    moved = sum(1 for e in res.epochs if e.events)
    assert moved > 1
    assert len(rp.LAST_EPOCH_STATS) == moved
    if driver == "task":
        for s in rp.LAST_EPOCH_STATS:
            for step in ("read", "normalize", "split_combine", "merge_apply"):
                assert f"{step} " in s, s


@pytest.mark.parametrize("knobs,salted", [
    ({}, False), ({"auto_salt": True}, True),
    # auto_salt needs the combiner's per-batch key counts
    ({"auto_salt": True, "precompact": False}, False)])
def test_auto_salt_declares_the_salted_pre_reduce(knobs, salted):
    """auto_salt adds the (part, salt) pre-reduce step to the plan
    driver's chain, between split_combine and the merge. The task driver's
    split_combine is already the epoch's exact reduce, so its chain has no
    pre-reduce, and its merge is one map over the whole epoch."""
    from tiflow_ray.sources.wal import Epoch

    feed = rp.Changefeed({"": SchemaRegistry([])})
    cfg = ReplayConfig(lake_dir="lake", num_partitions=8, **knobs)

    def steps(task):
        return [(s.name, s.keys) for s in rp._epoch_chain(
            cfg, feed, {}, Epoch(1, 0, 10, 1, ()), 1, True, {"": 1}, [],
            task=task)]
    assert steps(False) == [("normalize", ()), ("split_combine", ())] \
        + [("presalt_reduce", ("part", "salt"))] * salted \
        + [("merge_apply", ("part",))]
    assert steps(True) == [("normalize", ()), ("split_combine", ()),
                           ("merge_apply", ())]


@pytest.mark.parametrize("reducer", ["epoch", "partition"])
def test_final_reduce_exact_when_every_key_collides(monkeypatch, reducer):
    """With key_hash constant, every key shares one 128-bit hash run; the
    final reduces still keep exactly one row per (part, doc_id) — the
    last writer's — and never merge two tables' rows of one doc_id."""
    from tiflow_ray.model import OP_DELETE, OP_UPDATE
    from tiflow_ray.stages import compact

    monkeypatch.setattr(compact, "key_hash",
                        lambda a, seed=0: np.full(len(a), 7, np.uint64))
    rng = np.random.default_rng(5)
    n = 300
    docs = [f"d{i}" for i in rng.integers(0, 40, n)]
    tables = ["ta" if i % 3 else "tb" for i in range(n)]
    cts = rng.permutation(n).astype(np.uint64) + 1
    t = pa.table({
        "op": pa.array(np.where(rng.random(n) < 0.2, OP_DELETE,
                                OP_UPDATE).astype(np.uint8)),
        "commit_ts": pa.array(cts),
        "start_ts": pa.array(np.zeros(n, np.uint64)),
        "doc_id": pa.array(docs),
        "new_doc_id": pa.nulls(n, pa.string()),
        "payload": pa.array(np.arange(n)),
        "table_name": pa.array(tables)})
    last = {}
    for i in np.argsort(cts, kind="stable"):
        last[(tables[i], docs[i])] = int(i)
    if reducer == "epoch":
        out = rp.split_combine(t, {"ta": 0, "tb": 1}, 8, exact=True)
        got = {(("ta", "tb")[p // 8], d): i for p, d, i in zip(
            out["part"].to_pylist(), out["doc_id"].to_pylist(),
            out["payload"].to_pylist())}
        assert out.num_rows == len(got)
        keys = list(zip(out["part"].to_pylist(), out["doc_id"].to_pylist()))
        assert keys == sorted(keys)
    else:
        got = {}
        for name in ("ta", "tb"):
            sub = t.filter(pa.array([x == name for x in tables]))
            out = compact.compact_partition(sub.drop_columns(["table_name"]))
            assert out.num_rows == len(set(out["doc_id"].to_pylist()))
            got.update({(name, d): i for d, i in zip(
                out["doc_id"].to_pylist(), out["payload"].to_pylist())})
    assert got == last


def test_task_driver_never_runs_the_per_group_reduce(t1_fixture, tmp_path,
                                                     monkeypatch):
    """The single-task driver's merge writes the epoch's already-reduced
    winners: run in-process with compact_partition raising, it returns the
    plan driver's stats rows."""
    import ray
    from tiflow_ray.sources.wal import list_segments, plan_epochs
    from tiflow_ray.stages import merge

    root, reg, *_ = t1_fixture
    cfg = ReplayConfig(wal_dir=os.path.join(root, "wal"),
                       lake_dir=str(tmp_path / "lake"), num_partitions=8)
    prev = rp.bootstrap(cfg, base_dir=os.path.join(root, "base"))
    ep = plan_epochs(list_segments(cfg.wal_dir), reg, from_ts=0)[0]
    assert ep.fmt == "parquet" and ep.est_rows <= cfg.batch_size
    feed = rp.Changefeed({"": reg})

    def rows(c):
        out = rp._execute_epoch(c, feed, prev.parts, ep, prev.epoch + 1)
        return sorted(out, key=lambda r: (r["table"], r["part"]))

    plan = rows(dataclasses.replace(cfg, batch_size=PLAN_BATCH))

    def no_reduce(*a, **kw):
        raise AssertionError("per-group reduce on the task driver")
    monkeypatch.setattr(merge, "compact_partition", no_reduce)
    monkeypatch.setattr(rp._epoch_task, "remote", lambda *a: ray.put(
        rp._epoch_task._function(*a)))
    task = rows(cfg)
    assert task and task == plan
