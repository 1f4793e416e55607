"""The epoch engine runs one stage chain on two drivers: the Ray Data
plan, and a single Ray task for an epoch of at most one map batch
(pipelines/replay.py). Each case replays the same fixture on both — the
task by default, the plan forced by a batch_size below every epoch's row
estimate — and the two lakes must hold byte-identical data files, equal
manifests (paths relative to the lake root) and the oracle's state."""

import glob
import hashlib
import json
import os

import pytest

from tiflow_ray import fixtures, oracle
from tiflow_ray.config import ReplayConfig
from tiflow_ray.pipelines import multitable as mt
from tiflow_ray.pipelines import replay as rp
from tiflow_ray.state.checkpoint import LakeState

#: below every fixture epoch's row estimate: forces the plan driver
PLAN_BATCH = 64


def _lake_image(lake_dir: str, batch_stats: tuple = ()) -> dict:
    files = {os.path.relpath(f, lake_dir):
             hashlib.md5(open(f, "rb").read()).hexdigest()
             for f in glob.glob(os.path.join(lake_dir, "data", "**",
                                             "*.parquet"), recursive=True)}
    manifests = {}
    for f in glob.glob(os.path.join(lake_dir, "_manifest", "epoch-*.json")):
        with open(f) as fh:
            m = json.loads(fh.read().replace(lake_dir, "<lake>"))
        for k in batch_stats:
            m["stats"].pop(k, None)
        manifests[os.path.basename(f)] = m
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

    def run(lake, **drv):
        _single(root, reg, lake, auto_salt=True, **drv)
        salted = sum(LakeState(lake).load(e).stats.get("salted_events", 0)
                     for e in LakeState(lake).committed_epochs())
        assert salted > 0, "hot keys must engage the salted route"
    return run


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


#: case → (fixture + replay, manifest stats that depend on map-batch
#: boundaries). `salted_events` counts the rows that reach the merge
#: through a salted group: how many survive the per-batch combiner, and
#: (auto_salt) which keys a batch finds hot, differ between the plan's
#: forced 64-row batches and the task's one batch. The winners, and so the
#: files, are the same.
CASES = {
    "ddl_folds": (_t1({"max_segments_per_epoch": 1, "compact_every": 3}),
                  ()),
    "cow": (_t1({"sink_mode": "cow", "max_segments_per_epoch": 2}), ()),
    "multitable_drop_table": (_multitable_lifecycle, ()),
    "auto_salt": (_hot, ("salted_events",)),
    "salt_shuffle": (_t1({"salt_shuffle": 4, "max_segments_per_epoch": 2}),
                     ("salted_events",)),
    "optimistic_remount": (_optimistic, ()),
}


@pytest.mark.parametrize("case", list(CASES))
def test_drivers_write_identical_lakes(case, tmp_path, t1_fixture):
    build, batch_stats = CASES[case]
    run = build(tmp_path, t1_fixture)
    images = {}
    for driver, drv in (("task", {}), ("plan", {"batch_size": PLAN_BATCH})):
        lake = str(tmp_path / f"lake_{driver}")
        run(lake, collect_stats=True, **drv)
        # every executed epoch ran on the intended driver
        assert rp.LAST_EPOCH_STATS
        assert all(s.startswith("single-task driver") == (driver == "task")
                   for s in rp.LAST_EPOCH_STATS), driver
        images[driver] = _lake_image(lake, batch_stats)
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
