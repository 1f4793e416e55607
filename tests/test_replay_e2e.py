"""End-to-end replay vs the sequential oracle — per-row token-array equality
(the judged invariant, BASELINE.json input_hint)."""

import os

import pyarrow.compute as pc
import pytest

from tiflow_ray import oracle
from tiflow_ray.config import ReplayConfig
from tiflow_ray.pipelines import replay as rp


def run(root, **overrides):
    cfg = ReplayConfig(wal_dir=os.path.join(root, "wal"),
                       lake_dir=os.path.join(root, "lake"),
                       num_partitions=8, max_segments_per_epoch=2,
                       validate=True, **overrides)
    rp.bootstrap(cfg, base_dir=os.path.join(root, "base"))
    res = rp.run_replay(cfg)
    return cfg, res


@pytest.mark.parametrize("fixture_name", ["t1_fixture", "t1_noddl_fixture"])
def test_full_replay_matches_oracle(fixture_name, request, tmp_path):
    root, reg, metas, info = request.getfixturevalue(fixture_name)
    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(wal_dir=os.path.join(root, "wal"), lake_dir=lake,
                       num_partitions=8, max_segments_per_epoch=2, validate=True)
    rp.bootstrap(cfg, base_dir=os.path.join(root, "base"))
    res = rp.run_replay(cfg)
    assert res.epochs, "no epochs ran"

    got = rp.lake_to_table(cfg.lake_dir, cfg.wal_dir)
    exp = oracle.replay_to_table(root, reg)
    assert got.num_rows == exp.num_rows
    assert got.schema == exp.schema
    assert got.equals(exp)  # per-row tokens equality included
    # n_tok invariant on the final table
    assert pc.all(pc.equal(pc.list_value_length(got["tokens"]),
                           got["n_tok"])).as_py()


def test_partial_replay_matches_oracle_at_watermark(t1_fixture, tmp_path):
    """Stop at a mid-stream watermark: state must equal the oracle replayed
    to exactly that ts (resolved-ts contract §2.9)."""
    root, reg, metas, info = t1_fixture
    w = metas[1]["watermark_ts"]
    cfg = ReplayConfig(wal_dir=os.path.join(root, "wal"),
                       lake_dir=str(tmp_path / "lake"),
                       num_partitions=8, max_segments_per_epoch=2, validate=True)
    rp.bootstrap(cfg, base_dir=os.path.join(root, "base"))
    rp.run_replay(cfg, upto_ts=w)
    got = rp.lake_to_table(cfg.lake_dir, cfg.wal_dir)
    exp = oracle.replay_to_table(root, reg, max_watermark=w)
    assert got.equals(exp)


@pytest.mark.parametrize("mode,every", [("cow", 8), ("mor", 2), ("mor", 100)])
def test_sink_modes_match_oracle(t1_fixture, tmp_path, mode, every):
    """CoW, MoR-with-aggressive-compaction (chains fold mid-stream), and
    MoR-never-fold (read path does the whole merge) all converge to the
    same oracle state."""
    root, reg, *_ = t1_fixture
    cfg = ReplayConfig(wal_dir=os.path.join(root, "wal"),
                       lake_dir=str(tmp_path / f"lake_{mode}_{every}"),
                       num_partitions=8, max_segments_per_epoch=1,
                       sink_mode=mode, compact_every=every, validate=True)
    rp.bootstrap(cfg, base_dir=os.path.join(root, "base"))
    rp.run_replay(cfg)
    got = rp.lake_to_table(cfg.lake_dir, cfg.wal_dir)
    exp = oracle.replay_to_table(root, reg)
    assert got.equals(exp)


def test_precompact_off_same_result(t1_noddl_fixture, tmp_path):
    root, reg, *_ = t1_noddl_fixture
    cfg = ReplayConfig(wal_dir=os.path.join(root, "wal"),
                       lake_dir=str(tmp_path / "lake"),
                       num_partitions=8, precompact=False, validate=True)
    rp.bootstrap(cfg, base_dir=os.path.join(root, "base"))
    rp.run_replay(cfg)
    got = rp.lake_to_table(cfg.lake_dir, cfg.wal_dir)
    exp = oracle.replay_to_table(root, reg)
    assert got.equals(exp)


def test_partition_count_invariance(tmp_path):
    """Final state must not depend on P. P is a LAYOUT property: the base
    lake and the engine must agree on it (co-partitioning), but any P gives
    the same logical table."""
    from tiflow_ray import fixtures
    tables = []
    for p in (4, 16):
        root = str(tmp_path / f"fx{p}")
        fixtures.generate_tier(root, "t1_noddl", num_partitions=p)
        cfg = ReplayConfig(wal_dir=os.path.join(root, "wal"),
                           lake_dir=str(tmp_path / f"lake{p}"),
                           num_partitions=p)
        rp.bootstrap(cfg, base_dir=os.path.join(root, "base"))
        rp.run_replay(cfg)
        tables.append(rp.lake_to_table(cfg.lake_dir, cfg.wal_dir))
    assert tables[0].equals(tables[1])


def test_full_load_then_replay_matches_oracle(t1_noddl_fixture, tmp_path):
    """Distributed full load (S5): the base arrives as an arbitrary
    Dataset, gets hash-partitioned into the lake by a Ray shuffle, and the
    subsequent replay converges to the same oracle state as the
    metadata-only bootstrap path."""
    import glob

    import ray

    root, reg, *_ = t1_noddl_fixture
    files = sorted(glob.glob(os.path.join(root, "base", "part=*", "*.parquet")))
    # arbitrary layout in, lake out (partitioning=None: don't let the
    # part=* dirs hive-inject a column)
    ds = ray.data.read_parquet(files, partitioning=None)
    cfg = ReplayConfig(wal_dir=os.path.join(root, "wal"),
                       lake_dir=str(tmp_path / "lake_fl"), num_partitions=8)
    m = rp.full_load(ds, cfg)
    assert m.stats.get("full_load") and len(m.parts) == 8
    rp.run_replay(cfg)
    got = rp.lake_to_table(cfg.lake_dir, cfg.wal_dir)
    assert got.equals(oracle.replay_to_table(root, reg))


def test_offline_compaction_folds_chains_and_preserves_state(t1_fixture, tmp_path):
    """Background compaction job: replay with folding disabled (long
    chains), then compact_lake folds every chain in one committed epoch;
    table state is unchanged and GC can drop the old delta files."""
    from tiflow_ray.state.checkpoint import LakeState
    root, reg, *_ = t1_fixture
    cfg = ReplayConfig(wal_dir=os.path.join(root, "wal"),
                       lake_dir=str(tmp_path / "lake_bgc"),
                       num_partitions=8, max_segments_per_epoch=1,
                       compact_every=10_000)        # never fold during replay
    rp.bootstrap(cfg, base_dir=os.path.join(root, "base"))
    rp.run_replay(cfg)
    lake = LakeState(cfg.lake_dir)
    before = lake.latest()
    assert any(m.get("deltas") for m in before.parts.values())

    out = rp.compact_lake(cfg.lake_dir)
    assert out["parts_folded"] > 0
    after = lake.latest()
    assert after.epoch == before.epoch + 1
    assert not any(m.get("deltas") for m in after.parts.values())
    got = rp.lake_to_table(cfg.lake_dir, cfg.wal_dir)
    assert got.equals(oracle.replay_to_table(root, reg))
    lake.gc(keep_epochs=1)                          # old chain files dropped
    assert rp.lake_to_table(cfg.lake_dir, cfg.wal_dir).equals(got)
    # replay continues normally after a compaction epoch
    assert rp.run_replay(cfg).epochs == []


def test_heartbeat_segment_advances_watermark_without_data(tmp_path):
    """Resolved-ts-only heartbeat: a zero-row segment advances the
    committed watermark through a quiet span; table state unchanged; WAL
    GC can then drop everything behind the watermark."""
    from tiflow_ray import fixtures
    from tiflow_ray.state.checkpoint import LakeState
    root = str(tmp_path / "hb")
    reg, metas, info = fixtures.generate_tier(root, "t1_noddl")
    cfg = ReplayConfig(wal_dir=os.path.join(root, "wal"),
                       lake_dir=str(tmp_path / "lake_hb"), num_partitions=8)
    rp.bootstrap(cfg, base_dir=os.path.join(root, "base"))
    rp.run_replay(cfg)
    before = rp.lake_to_table(cfg.lake_dir, cfg.wal_dir)
    w0 = LakeState(cfg.lake_dir).latest().watermark_ts

    hb = fixtures.write_heartbeat_segment(cfg.wal_dir, w0 + 777)
    res = rp.run_replay(cfg)
    assert len(res.epochs) == 1 and res.epochs[0].events == 0
    m = LakeState(cfg.lake_dir).latest()
    assert m.watermark_ts == w0 + 777
    assert rp.lake_to_table(cfg.lake_dir, cfg.wal_dir).equals(before)

    out = rp.gc_wal(cfg.wal_dir, cfg.lake_dir)
    assert out["segments_removed"] > 0
    # resume still a clean no-op after GC
    assert rp.run_replay(cfg).epochs == []
    assert rp.lake_to_table(cfg.lake_dir, cfg.wal_dir).equals(before)


def test_hash_fingerprint_guard(t1_noddl_fixture, tmp_path):
    """A lake laid out under a different key-hash function must refuse to
    resume (silent mis-routing would duplicate rows)."""
    import json

    import pytest as _pytest
    root, reg, *_ = t1_noddl_fixture
    cfg = ReplayConfig(wal_dir=os.path.join(root, "wal"),
                       lake_dir=str(tmp_path / "lake_fp"), num_partitions=8)
    m = rp.bootstrap(cfg, base_dir=os.path.join(root, "base"))
    assert m.hash_fingerprint.startswith("polars=")
    # tamper: pretend the lake was written by a different hash function
    from tiflow_ray.state.checkpoint import LakeState
    lake = LakeState(cfg.lake_dir)
    mm = lake.latest()
    mm.hash_fingerprint = "polars=0.0.0;canary=deadbeef"
    lake.commit(mm)
    with _pytest.raises(ValueError, match="fingerprint"):
        rp.run_replay(cfg)


def test_pipelined_epochs_match_oracle(t1_fixture, tmp_path):
    """Concurrent (pipelined) MoR epochs: 4 single-segment epochs run as one
    concurrent group; state must equal the sequential oracle, and resume
    after the group behaves normally."""
    root, reg, *_ = t1_fixture
    cfg = ReplayConfig(wal_dir=os.path.join(root, "wal"),
                       lake_dir=str(tmp_path / "lake_pl"),
                       num_partitions=8, max_segments_per_epoch=1,
                       pipeline_epochs=4, validate=True)
    rp.bootstrap(cfg, base_dir=os.path.join(root, "base"))
    res = rp.run_replay(cfg)
    assert len(res.epochs) >= 4
    got = rp.lake_to_table(cfg.lake_dir, cfg.wal_dir)
    exp = oracle.replay_to_table(root, reg)
    assert got.equals(exp)
    # idempotent rerun still no-ops
    assert rp.run_replay(cfg).epochs == []


def test_syncpoint_consistent_snapshots(t1_noddl_fixture, tmp_path):
    """Sync-point barriers (cdc/owner syncpoint analog): with an interval
    configured, the planner cuts epochs at every aligned ts, the committed
    manifest's watermark EQUALS the sync ts, and time-traveling the lake to
    that manifest reproduces the sequential oracle at exactly that ts."""
    from tiflow_ray.sources.wal import list_segments
    root, reg, *_ = t1_noddl_fixture
    segs = list_segments(os.path.join(root, "wal"))
    hi = segs[-1].watermark_ts
    interval = max(1, hi // 4)
    cfg = ReplayConfig(wal_dir=os.path.join(root, "wal"),
                       lake_dir=str(tmp_path / "lake_sp"),
                       num_partitions=8, syncpoint_interval=interval)
    rp.bootstrap(cfg, base_dir=os.path.join(root, "base"))
    rp.run_replay(cfg)

    sps = rp.list_syncpoints(cfg.lake_dir)
    assert len(sps) >= 2, sps
    for sp in sps:
        assert sp["ts"] % interval == 0          # aligned
    # each syncpoint manifest is a CONSISTENT snapshot: lake state pinned
    # at that epoch equals the oracle replayed to exactly that ts
    for sp in sps[:3]:
        snap = rp.lake_to_table(cfg.lake_dir, cfg.wal_dir, epoch=sp["epoch"])
        exp = oracle.replay_to_table(root, reg, max_watermark=sp["ts"])
        assert snap.equals(exp), f"snapshot at ts={sp['ts']} diverged"
    # final state unaffected by the extra barriers
    assert rp.lake_to_table(cfg.lake_dir, cfg.wal_dir).equals(
        oracle.replay_to_table(root, reg))


def test_multiple_changefeeds_one_upstream(t1_fixture, tmp_path):
    """N changefeeds over ONE upstream WAL (the TiCDC model: many
    changefeeds tail one cluster, each with its own checkpoint/sink): two
    lakes replay the same WAL at different paces with independent
    checkpoints, never interfere, and both converge to the oracle."""
    import os

    from tiflow_ray import oracle
    from tiflow_ray.config import ReplayConfig
    from tiflow_ray.pipelines import replay as rp

    root, reg, *_ = t1_fixture
    wal = os.path.join(root, "wal")
    a = ReplayConfig(wal_dir=wal, lake_dir=str(tmp_path / "lake_a"),
                     num_partitions=8, max_segments_per_epoch=1)
    b = ReplayConfig(wal_dir=wal, lake_dir=str(tmp_path / "lake_b"),
                     num_partitions=8, max_segments_per_epoch=4)
    rp.bootstrap(a, base_dir=os.path.join(root, "base"))
    rp.bootstrap(b, base_dir=os.path.join(root, "base"))
    rp.run_replay(a, max_epochs=2)      # A lags mid-stream
    rp.run_replay(b)                    # B reaches the end first
    rp.run_replay(a)                    # A catches up independently
    exp = oracle.replay_to_table(root, reg)
    assert rp.lake_to_table(a.lake_dir, wal).equals(exp)
    assert rp.lake_to_table(b.lake_dir, wal).equals(exp)
