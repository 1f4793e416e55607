"""Multi-table changefeed: N tables with independent DDL schedules through
ONE changefeed — per-table registries, per-(table, part) lake chains,
per-table progress in one atomic manifest (r3 verdict #1).

Reference parity targets: cdc/processor/sinkmanager/manager.go:404-413
(per-table sink progress), cdc/entry/schema_storage.go:40-151 (per-table
schema snapshots)."""

import json
import os

import numpy as np
import pyarrow as pa
import pytest

from tiflow_ray import fixtures, oracle
from tiflow_ray.config import ReplayConfig
from tiflow_ray.pipelines import multitable as mt
from tiflow_ray.stages.schema_evo import DDL, SchemaRegistry
from tiflow_ray.state.checkpoint import LakeState

N_DOCS = 150
N_EVENTS = 1_200
TS_MAX = 40_000
B1, B2, B3 = 9_000, 17_000, 29_000


def _registries():
    return {
        "ta": SchemaRegistry([]),
        "tb": SchemaRegistry([DDL(B1, "add_column", "lang:string",
                                  "und", 2)]),
        "tc": SchemaRegistry([DDL(B2, "add_column", "score:int32", "7", 2),
                              DDL(B3, "drop_column", "source", None, 3)]),
    }


def _setup(tmp_path, lag_table: str | None = None,
           lag_cutoff: int = TS_MAX // 2):
    """One shared multitable WAL + per-table single-table roots for the
    independent sequential oracle. Same doc_id VALUES in every table —
    replay isolation is the thing under test."""
    regs = _registries()
    names = sorted(regs)
    root = str(tmp_path / "mt")
    os.makedirs(root)

    dnum = np.arange(N_DOCS, dtype=np.int64)
    base = pa.table({
        "doc_id": pa.array(fixtures.doc_name(dnum)),
        "tokens": pa.array([[int(d)] for d in dnum], pa.list_(pa.int32())),
        "n_tok": pa.array(np.ones(N_DOCS, np.int32)),
        "source": pa.array(["seed"] * N_DOCS),
    })
    base_dirs = {}
    for t in names:
        troot = os.path.join(root, f"oracle_{t}")
        fixtures.write_base_partitioned(base, troot, 8)
        base_dirs[t] = os.path.join(troot, "base")

    rng = np.random.default_rng(7)
    cts = np.sort(rng.choice(np.arange(1, TS_MAX), N_EVENTS, replace=False))
    tbl = np.array(names, object)[np.arange(N_EVENTS) % 3]
    if lag_table:
        # the lagging table simply has no events past the cutoff — its
        # sink progress (last_touched_epoch) must stall while others run
        keep = ~((tbl == lag_table) & (cts > lag_cutoff))
        cts, tbl = cts[keep], tbl[keep]
    n = len(cts)
    docs = rng.integers(0, N_DOCS, n)
    ops = rng.choice([1, 2, 3], n, p=[0.15, 0.55, 0.30]).astype(np.uint8)
    has_img = ops != 1
    vers = np.array([regs[t].version_at(int(c))
                     for t, c in zip(tbl, cts)], np.int32)

    def img(vals, mask):
        return [v if m else None for v, m in zip(vals, mask)]

    cols = {
        "op": pa.array(ops),
        "commit_ts": pa.array(cts.astype(np.uint64)),
        "start_ts": pa.array(np.arange(n, dtype=np.uint64)),
        "doc_id": pa.array(fixtures.doc_name(docs)),
        "new_doc_id": pa.nulls(n, pa.string()),
        "pre_tokens": pa.nulls(n, pa.list_(pa.int32())),
        "tokens": pa.array(img([[int(d) * 3 + int(c) % 11] for d, c
                                in zip(docs, cts)], has_img),
                           pa.list_(pa.int32())),
        "n_tok": pa.array(img([1] * n, has_img), pa.int32()),
        # tc drops source at B3: events past it carry no source image
        "source": pa.array(img(
            [f"s{int(c) % 4}" for c in cts],
            has_img & ~((tbl == "tc") & (cts > B3))), pa.string()),
        "lang": pa.array(img(
            [f"L{int(d) % 3}" for d in docs],
            has_img & (tbl == "tb") & (cts > B1)), pa.string()),
        "score": pa.array(img(
            [int(d) % 100 for d in docs],
            has_img & (tbl == "tc") & (cts > B2)), pa.int32()),
        "schema_ver": pa.array(vers),
        "table_name": pa.array(tbl, pa.string()),
    }
    wal = pa.table(cols)
    wal_dir = os.path.join(root, "wal")
    fixtures.write_wal_segments(wal, wal_dir, 6)
    mt.write_multitable_registries(wal_dir, regs)

    # per-table oracle roots: that table's events only, its own ddl.json
    for t in names:
        sub = wal.filter(pa.array(tbl == t)).drop_columns(["table_name"])
        if t == "ta":           # ta never sees lang/score columns
            sub = sub.drop_columns(["lang", "score"])
        elif t == "tb":
            sub = sub.drop_columns(["score"])
        fixtures.write_wal_segments(
            sub, os.path.join(root, f"oracle_{t}", "wal"), 4, regs[t])
    return root, regs, base_dirs, wal_dir


def _expected(root, regs, t):
    return oracle.replay_to_table(os.path.join(root, f"oracle_{t}"),
                                  regs[t])


@pytest.mark.parametrize("pipeline", [1, 3])
def test_multitable_three_tables_independent_ddl(tmp_path, pipeline):
    root, regs, base_dirs, wal_dir = _setup(tmp_path)
    cfg = ReplayConfig(wal_dir=wal_dir, lake_dir=os.path.join(root, "lake"),
                       num_partitions=8, max_segments_per_epoch=2,
                       pipeline_epochs=pipeline, validate=True)
    mt.bootstrap_multitable(cfg, regs, base_dirs)
    res = mt.run_replay_multitable(cfg)
    assert res.epochs, "nothing committed"
    for t in sorted(regs):
        got = mt.multitable_lake_to_table(cfg.lake_dir, t)
        exp = _expected(root, regs, t)
        assert got.equals(exp), f"table {t} diverged from its oracle"
    # schemas really are independent (same changefeed, same commit)
    assert "lang" not in mt.multitable_lake_to_table(
        cfg.lake_dir, "ta").column_names
    assert "score" in mt.multitable_lake_to_table(
        cfg.lake_dir, "tc").column_names
    assert "source" not in mt.multitable_lake_to_table(
        cfg.lake_dir, "tc").column_names
    # ONE manifest holds per-table progress side by side
    m = LakeState(cfg.lake_dir).latest()
    ts = m.stats["tables"]
    assert set(ts) == set(regs)
    assert ts["tb"]["schema_ver"] == 2 and ts["tc"]["schema_ver"] == 3
    assert len({v["watermark_ts"] for v in ts.values()}) == 1
    regs_back = {t: SchemaRegistry.from_json(rj)
                 for t, rj in json.loads(m.registry_json).items()}
    assert regs_back["tb"].to_json() == regs["tb"].to_json()
    # idempotent re-run
    res2 = mt.run_replay_multitable(cfg)
    assert res2.epochs == []


def test_multitable_rejects_config_p_mismatch(tmp_path):
    """The replay driver is shared, so a multi-table lake laid out at P=8
    refuses a P=4 config instead of routing every table's keys into the
    wrong chains; single-table-only sharding knobs are refused too."""
    import dataclasses

    root, regs, base_dirs, wal_dir = _setup(tmp_path)
    lake = os.path.join(root, "lake")
    mt.bootstrap_multitable(ReplayConfig(wal_dir=wal_dir, lake_dir=lake,
                                         num_partitions=8),
                            regs, base_dirs)
    cfg = ReplayConfig(wal_dir=wal_dir, lake_dir=lake, num_partitions=4,
                       max_segments_per_epoch=2)
    with pytest.raises(ValueError, match="P=8"):
        mt.run_replay_multitable(cfg)
    cfg8 = dataclasses.replace(cfg, num_partitions=8)
    with pytest.raises(ValueError, match="shard_key_mapping"):
        mt.run_replay_multitable(
            dataclasses.replace(cfg8, shard_key_mapping={wal_dir: None}))
    assert LakeState(lake).latest().epoch == 0, "a refused replay committed"


def test_multitable_applies_ignore_sources_to_every_table(tmp_path):
    """The changefeed's filters apply to every table: each table of a
    multi-table replay with ignore_sources equals the single-table replay
    of that table's own WAL under the same filter."""
    from tiflow_ray.pipelines import replay as rp

    root, regs, base_dirs, wal_dir = _setup(tmp_path)
    drop = frozenset({"s1"})
    cfg = ReplayConfig(wal_dir=wal_dir, lake_dir=os.path.join(root, "lake"),
                       num_partitions=8, max_segments_per_epoch=2,
                       ignore_sources=drop)
    mt.bootstrap_multitable(cfg, regs, base_dirs)
    assert mt.run_replay_multitable(cfg).epochs
    for t in sorted(regs):
        troot = os.path.join(root, f"oracle_{t}")
        one = ReplayConfig(wal_dir=os.path.join(troot, "wal"),
                           lake_dir=os.path.join(root, f"lake_{t}"),
                           num_partitions=8, ignore_sources=drop)
        rp.bootstrap(one, base_dir=base_dirs[t])
        rp.run_replay(one)
        exp = rp.lake_to_table(one.lake_dir)
        got = mt.multitable_lake_to_table(cfg.lake_dir, t)
        assert not exp.equals(_expected(root, regs, t)), "filter was a no-op"
        assert got.equals(exp), f"table {t} ignored the source filter"


def test_multitable_shard_merge_matches_oracle(tmp_path):
    """run_replay_multitable_sharded: two upstream shards, each carrying
    all three tables with the identical declaration, merge into one
    multi-table lake equal to the per-table oracles over the UNION of
    events. Plus the pessimist's guards: divergent declarations are
    rejected upfront, and an empty shard holds the frontier (nothing
    commits)."""
    import pyarrow.parquet as pq

    from tiflow_ray.sources.wal import list_segments

    root, regs, base_dirs, wal_dir = _setup(tmp_path)
    full = pa.concat_tables(
        [pq.read_table(s.path) for s in list_segments(wal_dir)],
        promote_options="default")
    shard_dirs = []
    for k in range(2):
        mask = pa.array(
            full["start_ts"].to_numpy(zero_copy_only=False) % 2 == k)
        d = os.path.join(root, f"shard{k}")
        fixtures.write_wal_segments(full.filter(mask), d, 3)
        mt.write_multitable_registries(d, regs)
        shard_dirs.append(d)

    cfg = ReplayConfig(wal_dir=shard_dirs[0],
                       lake_dir=os.path.join(root, "lake_sh"),
                       num_partitions=8, max_segments_per_epoch=2,
                       validate=True)
    mt.bootstrap_multitable(cfg, regs, base_dirs)

    # guard 1: an empty (declared, undelivered) shard holds the frontier
    empty = os.path.join(root, "shard_empty")
    os.makedirs(empty)
    mt.write_multitable_registries(empty, regs)
    held = mt.run_replay_multitable_sharded(cfg, shard_dirs + [empty])
    assert held.epochs == []

    # guard 2: divergent declaration rejected upfront
    diverged = os.path.join(root, "shard_div")
    os.makedirs(diverged)
    mt.write_multitable_registries(
        diverged, {t: r for t, r in regs.items() if t != "tc"})
    with pytest.raises(ValueError, match="identical migrations"):
        mt.run_replay_multitable_sharded(cfg, [shard_dirs[0], diverged])

    res = mt.run_replay_multitable_sharded(cfg, shard_dirs)
    assert res.epochs, "nothing committed"
    # the pessimist's frontier is min over shards of their last watermark:
    # events past the laggard shard's watermark are HELD BACK (delivered
    # on catch-up), so the oracle is evaluated at the frontier
    frontier = min(list_segments(d)[-1].watermark_ts for d in shard_dirs)
    for t in sorted(regs):
        got = mt.multitable_lake_to_table(cfg.lake_dir, t)
        exp = oracle.replay_to_table(os.path.join(root, f"oracle_{t}"),
                                     regs[t], max_watermark=frontier)
        assert got.equals(exp), \
            f"table {t} diverged from its oracle under shard merge"
    # catch-up is idempotent (resume ≡ next epoch)
    assert mt.run_replay_multitable_sharded(cfg, shard_dirs).epochs == []


def test_multitable_per_table_resume_and_lag(tmp_path):
    """Stop mid-stream, verify each table equals its oracle AT that
    watermark, resume to the end; the lagging table's sink progress
    (last_touched_epoch) stalls while resolved-ts progress advances —
    the per-table progress split sinkmanager tracks."""
    cutoff = TS_MAX // 2
    root, regs, base_dirs, wal_dir = _setup(tmp_path, lag_table="tc",
                                            lag_cutoff=cutoff)
    cfg = ReplayConfig(wal_dir=wal_dir, lake_dir=os.path.join(root, "lake"),
                       num_partitions=8, max_segments_per_epoch=2)
    mt.bootstrap_multitable(cfg, regs, base_dirs)

    from tiflow_ray.sources.wal import list_segments
    segs = list_segments(wal_dir)
    mid = segs[len(segs) // 2 - 1].watermark_ts
    mt.run_replay_multitable(cfg, upto_ts=mid)
    m_mid = LakeState(cfg.lake_dir).latest()
    for t in sorted(regs):
        got = mt.multitable_lake_to_table(cfg.lake_dir, t)
        exp = oracle.replay_to_table(os.path.join(root, f"oracle_{t}"),
                                     regs[t], max_watermark=mid)
        assert got.equals(exp), f"table {t} wrong at mid-resume point"

    mt.run_replay_multitable(cfg)
    m_end = LakeState(cfg.lake_dir).latest()
    for t in sorted(regs):
        got = mt.multitable_lake_to_table(cfg.lake_dir, t)
        assert got.equals(_expected(root, regs, t)), \
            f"table {t} wrong after resume"
    ts = m_end.stats["tables"]
    # resolved-ts progress: every table at the final watermark
    assert len({v["watermark_ts"] for v in ts.values()}) == 1
    assert ts["ta"]["watermark_ts"] == m_end.watermark_ts
    # sink progress: the lagging table stopped being touched earlier
    assert ts["tc"]["last_touched_epoch"] < ts["ta"]["last_touched_epoch"]
    # crash-sim: drop the newest manifest, rerun → converges to the same
    es = LakeState(cfg.lake_dir).committed_epochs()
    os.remove(os.path.join(cfg.lake_dir, "_manifest",
                           f"epoch-{es[-1]:06d}.json"))
    mt.run_replay_multitable(cfg)
    for t in sorted(regs):
        assert mt.multitable_lake_to_table(cfg.lake_dir, t).equals(
            _expected(root, regs, t)), f"table {t} wrong after crash-resume"


def test_multitable_rejects_undeclared_table(tmp_path):
    root, regs, base_dirs, wal_dir = _setup(tmp_path)
    two = {t: r for t, r in regs.items() if t != "tc"}
    cfg = ReplayConfig(wal_dir=wal_dir,
                       lake_dir=os.path.join(root, "lake_rej"),
                       num_partitions=8)
    mt.bootstrap_multitable(cfg, two, {t: base_dirs[t] for t in two})
    with pytest.raises(Exception, match="undeclared"):
        mt.run_replay_multitable(cfg, tables=two)


LIFECYCLE_CREATE_TD = 15_000
LIFECYCLE_DROP_TA = 25_000


def _lifecycle_setup(tmp_path):
    """_setup's shape plus table td CREATEd at LIFECYCLE_CREATE_TD (no
    base) and table ta DROPped at LIFECYCLE_DROP_TA → (root, regs,
    lifecycle, base_dirs, wal_dir)."""
    regs = _registries()
    regs["td"] = SchemaRegistry([])          # created mid-stream
    names = sorted(regs)
    root = str(tmp_path / "mt")
    os.makedirs(root)
    create_td, drop_ta = LIFECYCLE_CREATE_TD, LIFECYCLE_DROP_TA
    lcs = {t: mt.TableLifecycle() for t in names}
    lcs["td"] = mt.TableLifecycle(created_ts=create_td)
    lcs["ta"] = mt.TableLifecycle(dropped_ts=drop_ta)

    dnum = np.arange(N_DOCS, dtype=np.int64)
    base = pa.table({
        "doc_id": pa.array(fixtures.doc_name(dnum)),
        "tokens": pa.array([[int(d)] for d in dnum], pa.list_(pa.int32())),
        "n_tok": pa.array(np.ones(N_DOCS, np.int32)),
        "source": pa.array(["seed"] * N_DOCS)})
    base_dirs = {}
    for t in names:
        if t == "td":
            continue
        troot = os.path.join(root, f"oracle_{t}")
        fixtures.write_base_partitioned(base, troot, 8)
        base_dirs[t] = os.path.join(troot, "base")
    os.makedirs(os.path.join(root, "oracle_td"))

    rng = np.random.default_rng(11)
    cts = np.sort(rng.choice(np.arange(1, TS_MAX), N_EVENTS, replace=False))
    tbl = np.array(names, object)[np.arange(N_EVENTS) % 4]
    keep = ~(((tbl == "td") & (cts <= create_td))     # td: only after birth
             | ((tbl == "ta") & (cts > drop_ta)))     # ta: none after drop
    cts, tbl = cts[keep], tbl[keep]
    n = len(cts)
    docs = rng.integers(0, N_DOCS, n)
    ops = rng.choice([1, 2, 3], n, p=[0.15, 0.55, 0.30]).astype(np.uint8)
    has_img = ops != 1
    vers = np.array([regs[t].version_at(int(c))
                     for t, c in zip(tbl, cts)], np.int32)

    def img(vals, mask):
        return [v if m else None for v, m in zip(vals, mask)]

    wal = pa.table({
        "op": pa.array(ops),
        "commit_ts": pa.array(cts.astype(np.uint64)),
        "start_ts": pa.array(np.arange(n, dtype=np.uint64)),
        "doc_id": pa.array(fixtures.doc_name(docs)),
        "new_doc_id": pa.nulls(n, pa.string()),
        "pre_tokens": pa.nulls(n, pa.list_(pa.int32())),
        "tokens": pa.array(img([[int(d)] for d in docs], has_img),
                           pa.list_(pa.int32())),
        "n_tok": pa.array(img([1] * n, has_img), pa.int32()),
        "source": pa.array(img([f"s{int(c) % 4}" for c in cts],
                               has_img & ~((tbl == "tc") & (cts > B3))),
                           pa.string()),
        "lang": pa.array(img([f"L{int(d) % 3}" for d in docs],
                             has_img & (tbl == "tb") & (cts > B1)),
                         pa.string()),
        "score": pa.array(img([int(d) % 100 for d in docs],
                              has_img & (tbl == "tc") & (cts > B2)),
                          pa.int32()),
        "schema_ver": pa.array(vers),
        "table_name": pa.array(tbl, pa.string()),
    })
    wal_dir = os.path.join(root, "wal")
    fixtures.write_wal_segments(wal, wal_dir, 6)
    mt.write_multitable_registries(wal_dir, regs, lcs)

    for t in names:
        sub = wal.filter(pa.array(tbl == t)).drop_columns(["table_name"])
        if t in ("ta", "td"):
            sub = sub.drop_columns(["lang", "score"])
        elif t == "tb":
            sub = sub.drop_columns(["score"])
        fixtures.write_wal_segments(
            sub, os.path.join(root, f"oracle_{t}", "wal"), 3, regs[t])
    # td has no base: give its oracle an empty base dir
    os.makedirs(os.path.join(root, "oracle_td", "base"), exist_ok=True)
    return root, regs, lcs, base_dirs, wal_dir


def test_multitable_create_and_drop_table_lifecycle(tmp_path):
    """CREATE TABLE joins the changefeed (empty) at its barrier; DROP
    TABLE removes the table's chains from the manifest at its barrier
    with a durable dropped-note. Both are ordinary epoch-cutting
    barriers (cdc/owner/ddl_manager.go treats them as DDL jobs; the
    sink adds/removes the table span)."""
    root, regs, lcs, base_dirs, wal_dir = _lifecycle_setup(tmp_path)
    drop_ta = LIFECYCLE_DROP_TA
    cfg = ReplayConfig(wal_dir=wal_dir, lake_dir=os.path.join(root, "lake"),
                       num_partitions=8, max_segments_per_epoch=2,
                       validate=True)
    mt.bootstrap_multitable(cfg, regs, base_dirs, lcs)
    mt.run_replay_multitable(cfg)

    # created table: exactly its own events, no base
    got_td = mt.multitable_lake_to_table(cfg.lake_dir, "td")
    exp_td = oracle.replay_to_table(os.path.join(root, "oracle_td"),
                                    regs["td"])
    assert got_td.equals(exp_td)
    # surviving tables still match their oracles
    for t in ("tb", "tc"):
        assert mt.multitable_lake_to_table(cfg.lake_dir, t).equals(
            _expected(root, regs, t)), t
    # dropped table: manifest chains gone, durable note remains
    m = LakeState(cfg.lake_dir).latest()
    assert "ta" not in m.stats["tables"]
    assert m.stats["dropped_tables"]["ta"]["dropped_ts"] == drop_ta
    assert not any(k.startswith("ta/") for k in m.parts)
    with pytest.raises(ValueError, match="dropped at ts"):
        mt.multitable_lake_to_table(cfg.lake_dir, "ta")
    # idempotent re-run
    assert mt.run_replay_multitable(cfg).epochs == []


def test_multitable_cli(tmp_path, capsys):
    """CLI surface: `tiflow_ray mt-replay` bootstraps from per-table base
    dirs and replays the declared tables; output reports per-table
    progress from the committed manifest."""
    import json as _json

    from tiflow_ray.cli import main as cli_main

    root, regs, base_dirs, wal_dir = _setup(tmp_path)
    lake = os.path.join(root, "lake_cli")
    rc = cli_main(["mt-replay", "--wal", wal_dir, "--lake", lake,
                   "-P", "8", "--segments-per-epoch", "2"]
                  + [f"--base={t}={d}" for t, d in base_dirs.items()])
    assert rc in (0, None)
    out = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["epochs"] > 0
    assert set(out["tables"]) == set(regs)
    for t in sorted(regs):
        assert mt.multitable_lake_to_table(lake, t).equals(
            _expected(root, regs, t)), t


def test_multitable_tail_replay_consumes_live_writer(tmp_path):
    """Continuous multi-table tailing: segments land while the daemon
    polls; every table converges to its oracle once the writer stops."""
    import shutil
    import threading
    import time

    from tiflow_ray.sources.wal import list_segments

    root, regs, base_dirs, wal_dir = _setup(tmp_path)
    segs = list_segments(wal_dir)
    assert len(segs) >= 3
    live = str(tmp_path / "wal_live")
    os.makedirs(live)
    shutil.copy(os.path.join(wal_dir, "tables.json"), live)

    def copy_seg(s):
        shutil.copy(s.path, live)          # data first, meta = publish
        shutil.copy(os.path.join(wal_dir, f"seq={s.seq:05d}.meta.json"),
                    live)

    copy_seg(segs[0])

    def writer():
        for s in segs[1:]:
            time.sleep(0.4)
            copy_seg(s)

    th = threading.Thread(target=writer)
    cfg = ReplayConfig(wal_dir=live, lake_dir=str(tmp_path / "lake_tail"),
                       num_partitions=8, max_segments_per_epoch=1)
    mt.bootstrap_multitable(cfg, regs, base_dirs)
    th.start()
    try:
        res = mt.tail_replay_multitable(cfg, poll_secs=0.1,
                                        idle_timeout=3.0)
    finally:
        th.join()
    assert len(res.epochs) >= len(segs)
    for t in sorted(regs):
        assert mt.multitable_lake_to_table(cfg.lake_dir, t).equals(
            _expected(root, regs, t)), f"table {t} diverged after tailing"


def test_multitable_offline_compaction(tmp_path):
    """compact_multitable_lake folds every pending (table, part) chain
    under its own registry/version in one committed epoch; table states
    are unchanged and subsequent replay still resumes cleanly."""
    root, regs, base_dirs, wal_dir = _setup(tmp_path)
    cfg = ReplayConfig(wal_dir=wal_dir, lake_dir=os.path.join(root, "lake"),
                       num_partitions=8, max_segments_per_epoch=2,
                       compact_every=999)          # force long chains
    mt.bootstrap_multitable(cfg, regs, base_dirs)
    mt.run_replay_multitable(cfg)
    before = {t: mt.multitable_lake_to_table(cfg.lake_dir, t)
              for t in sorted(regs)}
    m0 = LakeState(cfg.lake_dir).latest()
    assert any(meta.get("deltas") for meta in m0.parts.values()), \
        "fixture produced no chains to fold"
    out = mt.compact_multitable_lake(cfg.lake_dir)
    assert out["chains_folded"] > 0
    m1 = LakeState(cfg.lake_dir).latest()
    assert not any(meta.get("deltas") for meta in m1.parts.values())
    assert m1.stats["tables"] == m0.stats["tables"]
    for t in sorted(regs):
        assert mt.multitable_lake_to_table(cfg.lake_dir, t).equals(
            before[t]), f"compaction changed table {t}"
    # idempotent: nothing left to fold
    assert mt.compact_multitable_lake(cfg.lake_dir)["chains_folded"] == 0
    # replay still resumes (no new segments -> no-op)
    assert mt.run_replay_multitable(cfg).epochs == []


@pytest.mark.parametrize("mode", ["auto", "static"])
def test_multitable_hot_table_salting_matches_oracle(tmp_path, mode):
    """VERDICT r4 #2: skew tools reach the multitable path. One table of
    the feed gets a hot key (90% of its events on one doc); with
    auto_salt the detector must engage (salted_events > 0 in the
    manifest) and every table must still equal its unsalted oracle —
    salting must never leak across tables or change results."""
    root, regs, base_dirs, wal_dir = _setup(tmp_path)

    # re-skew the WAL: most of tb's events pile onto one doc
    import pyarrow.parquet as pq
    from tiflow_ray.sources.wal import list_segments
    segs = [pq.read_table(s.path) for s in list_segments(wal_dir)]
    wal = pa.concat_tables(segs, promote_options="default")
    tbl = wal["table_name"].to_numpy(zero_copy_only=False)
    doc = wal["doc_id"].to_numpy(zero_copy_only=False).copy()
    rng = np.random.default_rng(3)
    is_tb = tbl == "tb"
    hot_rows = is_tb & (rng.random(len(doc)) < 0.9)
    doc[hot_rows] = fixtures.doc_name(np.zeros(1, np.int64))[0]
    wal = wal.set_column(wal.column_names.index("doc_id"), "doc_id",
                         pa.array(doc, pa.string()))
    hot_wal_dir = os.path.join(root, "wal_hot")
    fixtures.write_wal_segments(wal, hot_wal_dir, 6)
    mt.write_multitable_registries(hot_wal_dir, regs)
    # per-table oracle roots over the SKEWED stream (same seed base)
    dnum = np.arange(N_DOCS, dtype=np.int64)
    seed_base = pa.table({
        "doc_id": pa.array(fixtures.doc_name(dnum)),
        "tokens": pa.array([[int(d)] for d in dnum], pa.list_(pa.int32())),
        "n_tok": pa.array(np.ones(N_DOCS, np.int32)),
        "source": pa.array(["seed"] * N_DOCS),
    })
    for t in sorted(regs):
        sub = wal.filter(pa.array(tbl == t)).drop_columns(["table_name"])
        if t == "ta":
            sub = sub.drop_columns(["lang", "score"])
        elif t == "tb":
            sub = sub.drop_columns(["score"])
        od = os.path.join(root, f"oracle_hot_{t}")
        fixtures.write_base_partitioned(seed_base, od, 8)
        fixtures.write_wal_segments(
            sub, os.path.join(od, "wal"), 4, regs[t])

    kw = {"auto_salt": True} if mode == "auto" else {"salt_shuffle": 4}
    cfg = ReplayConfig(wal_dir=hot_wal_dir,
                       lake_dir=os.path.join(root, f"lake_{mode}"),
                       num_partitions=8, max_segments_per_epoch=2,
                       validate=True, **kw)
    mt.bootstrap_multitable(cfg, regs, base_dirs)
    res = mt.run_replay_multitable(cfg)
    assert res.epochs
    for t in sorted(regs):
        got = mt.multitable_lake_to_table(cfg.lake_dir, t)
        exp = oracle.replay_to_table(
            os.path.join(root, f"oracle_hot_{t}"), regs[t])
        assert got.equals(exp), f"table {t} diverged under {mode} salting"
    if mode == "auto":
        ls = LakeState(cfg.lake_dir)
        salted = sum(ls.load(e).stats.get("salted_events", 0)
                     for e in ls.committed_epochs())
        assert salted > 0, "hot key must engage the salted route"


@pytest.mark.parametrize("fmt", ["jsonl", "csv", "mysql_binlog"])
def test_multitable_codec_wal_matches_parquet(tmp_path, fmt):
    """VERDICT r4 #2: the multitable changefeed accepts non-parquet WAL
    segments through the shared codec decode path (incl. the binlog
    format, whose table_name column rides the row image like any other
    demux key); the replayed lakes equal the parquet-WAL run's."""
    import pyarrow.parquet as pq
    from tiflow_ray.sources.wal import list_segments

    root, regs, base_dirs, wal_dir = _setup(tmp_path)
    segs = [pq.read_table(s.path) for s in list_segments(wal_dir)]
    wal = pa.concat_tables(segs, promote_options="default")
    cdir = os.path.join(root, f"wal_{fmt}")
    fixtures.write_wal_segments(wal, cdir, 6, fmt=fmt)
    mt.write_multitable_registries(cdir, regs)

    cfg = ReplayConfig(wal_dir=cdir,
                       lake_dir=os.path.join(root, f"lake_{fmt}"),
                       num_partitions=8, max_segments_per_epoch=2,
                       validate=True)
    mt.bootstrap_multitable(cfg, regs, base_dirs)
    res = mt.run_replay_multitable(cfg)
    assert res.epochs, f"{fmt} multitable replay committed nothing"
    for t in sorted(regs):
        got = mt.multitable_lake_to_table(cfg.lake_dir, t)
        assert got.equals(_expected(root, regs, t)), \
            f"table {t} diverged replaying the {fmt} WAL"


def test_multitable_drop_table_gc_reclaims_bytes(tmp_path):
    """VERDICT r4 #5: DROP TABLE removes chains from the manifest but the
    parquet files used to stay on disk forever. LakeState.gc() now sweeps
    the table=T/part=p layout too: once no retained manifest references a
    dropped table's files, the bytes are reclaimed — while every retained
    manifest stays fully readable (time travel within retention)."""
    import glob as _glob

    regs = {"ta": SchemaRegistry([]), "tb": SchemaRegistry([])}
    drop_ta = 20_000
    lcs = {"ta": mt.TableLifecycle(dropped_ts=drop_ta),
           "tb": mt.TableLifecycle()}
    names = sorted(regs)
    root = str(tmp_path / "mt")
    os.makedirs(root)
    dnum = np.arange(N_DOCS, dtype=np.int64)
    base = pa.table({
        "doc_id": pa.array(fixtures.doc_name(dnum)),
        "tokens": pa.array([[int(d)] for d in dnum], pa.list_(pa.int32())),
        "n_tok": pa.array(np.ones(N_DOCS, np.int32)),
        "source": pa.array(["seed"] * N_DOCS)})
    base_dirs = {}
    for t in names:
        troot = os.path.join(root, f"oracle_{t}")
        fixtures.write_base_partitioned(base, troot, 8)
        base_dirs[t] = os.path.join(troot, "base")

    rng = np.random.default_rng(13)
    cts = np.sort(rng.choice(np.arange(1, TS_MAX), 400, replace=False))
    tbl = np.array(names, object)[np.arange(400) % 2]
    keep = ~((tbl == "ta") & (cts > drop_ta))
    cts, tbl = cts[keep], tbl[keep]
    n = len(cts)
    docs = rng.integers(0, N_DOCS, n)
    ops = rng.choice([2, 3], n).astype(np.uint8)
    wal = pa.table({
        "op": pa.array(ops),
        "commit_ts": pa.array(cts.astype(np.uint64)),
        "start_ts": pa.array(np.arange(n, dtype=np.uint64)),
        "doc_id": pa.array(fixtures.doc_name(docs)),
        "new_doc_id": pa.nulls(n, pa.string()),
        "pre_tokens": pa.nulls(n, pa.list_(pa.int32())),
        "tokens": pa.array([[int(d)] for d in docs], pa.list_(pa.int32())),
        "n_tok": pa.array(np.ones(n, np.int32)),
        "source": pa.array([f"s{int(c) % 4}" for c in cts]),
        "schema_ver": pa.array(np.ones(n, np.int32)),
        "table_name": pa.array(tbl, pa.string()),
    })
    wal_dir = os.path.join(root, "wal")
    fixtures.write_wal_segments(wal, wal_dir, 6)
    mt.write_multitable_registries(wal_dir, regs, lcs)
    for t in names:
        sub = wal.filter(pa.array(tbl == t)).drop_columns(["table_name"])
        fixtures.write_wal_segments(
            sub, os.path.join(root, f"oracle_{t}", "wal"), 3, regs[t])

    cfg = ReplayConfig(wal_dir=wal_dir, lake_dir=os.path.join(root, "lake"),
                       num_partitions=8, max_segments_per_epoch=1)
    mt.bootstrap_multitable(cfg, regs, base_dirs, lcs)
    mt.run_replay_multitable(cfg)

    ta_glob = os.path.join(cfg.lake_dir, "data", "table=ta", "part=*",
                           "*.parquet")
    assert _glob.glob(ta_glob), "fixture: ta wrote no lake files pre-drop"
    ls = LakeState(cfg.lake_dir)
    res = ls.gc(keep_epochs=2)
    assert res["files_removed"] > 0
    assert not _glob.glob(ta_glob), "dropped table's bytes not reclaimed"
    assert not os.path.exists(os.path.join(cfg.lake_dir, "data",
                                           "table=ta")), "dir not pruned"
    # retained manifests stay fully readable (time travel in retention)
    for e in ls.committed_epochs():
        m = ls.load(e)
        for meta in m.parts.values():
            for p in [meta.get("path")] + [d["path"]
                                           for d in meta.get("deltas", [])]:
                assert p is None or os.path.exists(p), f"epoch {e} lost {p}"
    got = mt.multitable_lake_to_table(cfg.lake_dir, "tb")
    exp = oracle.replay_to_table(os.path.join(root, "oracle_tb"),
                                 regs["tb"])
    assert got.equals(exp), "surviving table corrupted by gc"


def test_multitable_over_the_kafka_wire(tmp_path):
    """The N-table changefeed over the REAL wire: one WAL read routed to
    per-table topics on a loopback broker, per-table DDL control
    streams, fetch back, replay — each table equals its sequential
    oracle."""
    from tiflow_ray.pipelines.mq import (consume_mq_multitable,
                                         fetch_mq_multitable,
                                         produce_mq_multitable)
    from tiflow_ray.sinks.kafka_wire import KafkaLiteBroker

    root, regs, base_dirs, wal_dir = _setup(tmp_path)
    spool = str(tmp_path / "spool")
    lake = str(tmp_path / "lake_wire")
    with KafkaLiteBroker(str(tmp_path / "blog")) as b:
        addr = f"{b.host}:{b.port}"
        r1 = produce_mq_multitable(wal_dir, "", num_partitions=4,
                                   broker=addr)
        assert sorted(r1["tables"]) == sorted(regs)
        r2 = fetch_mq_multitable(addr, spool)
        assert sorted(r2["tables"]) == sorted(regs)
        # a second fetch is an offset-checkpointed no-op
        assert fetch_mq_multitable(addr, spool)["messages"] == 0
    out = consume_mq_multitable(spool, lake, base_dirs=base_dirs,
                                num_partitions=8)
    assert out["epochs"] > 0
    for t in sorted(regs):
        got = mt.multitable_lake_to_table(lake, t)
        assert got.equals(_expected(root, regs, t)), \
            f"table {t} diverged over the wire"
