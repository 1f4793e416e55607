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


#: case → fixture + replay
CASES = {
    "ddl_folds": _t1({"max_segments_per_epoch": 1, "compact_every": 3}),
    "cow": _t1({"sink_mode": "cow", "max_segments_per_epoch": 2}),
    "multitable_drop_table": _multitable_lifecycle,
    "auto_salt": _hot,
    "optimistic_remount": _optimistic,
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
    """auto_salt adds the (part, salt) pre-reduce step to the epoch chain
    both drivers run, between split_combine and the merge."""
    from tiflow_ray.sources.wal import Epoch
    from tiflow_ray.stages.schema_evo import SchemaRegistry

    feed = rp.Changefeed({"": SchemaRegistry([])})
    cfg = ReplayConfig(lake_dir="lake", num_partitions=8, **knobs)
    chain = rp._epoch_chain(cfg, feed, {}, Epoch(1, 0, 10, 1, ()), 1, True,
                            {"": 1}, [])
    steps = [(s.name, s.keys) for s in chain]
    assert steps == [("normalize", ()), ("split_combine", ())] \
        + [("presalt_reduce", ("part", "salt"))] * salted \
        + [("merge_apply", ("part",))]
