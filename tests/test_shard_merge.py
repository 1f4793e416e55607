"""Shard-merge DDL coordination (dm/syncer/shardddl pessimist analog):
N upstream WALs merge into one table; a DDL barrier may only apply once
EVERY shard has delivered up to it; divergent shard DDL schedules are
rejected upfront."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pytest

from tiflow_ray import fixtures
from tiflow_ray.config import ReplayConfig
from tiflow_ray.pipelines import replay as rp
from tiflow_ray.stages.schema_evo import DDL, SchemaRegistry
from tiflow_ray.state.checkpoint import LakeState

BARRIER = 5_000
N_PER_SHARD = 20


def _shard_wal(root: str, shard: int, registry: SchemaRegistry,
               hi_ts: int) -> None:
    """Shard `shard` owns docs [shard*N, shard*N+N); each doc gets one
    pre-barrier and one post-barrier update (post ones only if <= hi_ts)."""
    docs = np.arange(shard * N_PER_SHARD, (shard + 1) * N_PER_SHARD)
    rows = []
    # all shards end at the SAME watermark (the merged frontier is the MIN
    # over shard watermarks — a shard whose stream ends earlier would hold
    # the frontier back forever, which is correct but not this scenario)
    for d in docs:
        rows.append((d, 1_000 + int(d) % N_PER_SHARD, 1))            # pre
        rows.append((d, BARRIER + 1_000 + int(d) % N_PER_SHARD, 2))  # post
    rows = [r for r in rows if r[1] <= hi_ts]
    n = len(rows)
    cts = np.array([r[1] for r in rows], np.uint64)
    dnum = np.array([r[0] for r in rows], np.int64)
    ver = np.array([1 if r[1] <= BARRIER else 2 for r in rows], np.int32)
    wal = pa.table({
        "op": pa.array(np.full(n, 2, np.uint8)),
        "commit_ts": pa.array(cts),
        "start_ts": pa.array(np.arange(n, dtype=np.uint64) + shard * 10_000),
        "doc_id": pa.array(fixtures.doc_name(dnum)),
        "tokens": pa.array([[int(r[0]) * 10 + r[2]] for r in rows],
                           pa.list_(pa.int32())),
        "n_tok": pa.array(np.ones(n, np.int32)),
        "source": pa.array(["bank"] * n),
        "lang": pa.array([None if v == 1 else "xx" for v in ver], pa.string()),
        "pre_tokens": pa.nulls(n, pa.list_(pa.int32())),
        "new_doc_id": pa.nulls(n, pa.string()),
        "schema_ver": pa.array(ver),
    })
    fixtures.write_wal_segments(wal, os.path.join(root, f"wal_s{shard}"), 2,
                                registry)


def _setup(tmp_path):
    root = str(tmp_path / "shards")
    os.makedirs(root, exist_ok=True)
    registry = SchemaRegistry([DDL(BARRIER, "add_column", "lang:string",
                                   "und", 2)])
    n_docs = 3 * N_PER_SHARD
    dnum = np.arange(n_docs, dtype=np.int64)
    base = pa.table({
        "doc_id": pa.array(fixtures.doc_name(dnum)),
        "tokens": pa.array([[0]] * n_docs, pa.list_(pa.int32())),
        "n_tok": pa.array(np.ones(n_docs, np.int32)),
        "source": pa.array(["bank"] * n_docs),
    })
    fixtures.write_base_partitioned(base, root, 8)
    return root, registry


def test_lagging_shard_holds_barrier_then_catches_up(tmp_path):
    root, registry = _setup(tmp_path)
    # shards 0,1 deliver everything; shard 2 lags BEFORE the barrier
    _shard_wal(root, 0, registry, hi_ts=10**9)
    _shard_wal(root, 1, registry, hi_ts=10**9)
    lag_hi = 1_000 + N_PER_SHARD - 1               # covers shard2 pre rows only
    full = str(tmp_path / "full_s2")
    os.makedirs(full)
    _shard_wal(full, 2, registry, hi_ts=10**9)     # staged full stream
    _shard_wal(root, 2, registry, hi_ts=lag_hi)    # live: lagging prefix

    wal_dirs = [os.path.join(root, f"wal_s{s}") for s in range(3)]
    cfg = ReplayConfig(wal_dir=wal_dirs[0],
                       lake_dir=os.path.join(root, "lake"), num_partitions=8)
    rp.bootstrap(cfg, base_dir=os.path.join(root, "base"))

    rp.run_replay_sharded(cfg, wal_dirs)
    m1 = LakeState(cfg.lake_dir).latest()
    # frontier = lagging shard's watermark < barrier ⇒ DDL NOT applied yet
    assert m1.watermark_ts < BARRIER
    assert m1.schema_ver == 1
    t1 = rp.lake_to_table(cfg.lake_dir)
    assert "lang" not in t1.column_names

    # shard 2 catches up: its full segments replace the lagging prefix
    shutil.rmtree(wal_dirs[2])
    shutil.copytree(os.path.join(full, "wal_s2"), wal_dirs[2])
    rp.run_replay_sharded(cfg, wal_dirs)
    m2 = LakeState(cfg.lake_dir).latest()
    assert m2.schema_ver == 2
    final = rp.lake_to_table(cfg.lake_dir)
    got = {d: (t[0], lg) for d, t, lg in zip(final["doc_id"].to_pylist(),
                                             final["tokens"].to_pylist(),
                                             final["lang"].to_pylist())}
    assert len(got) == 3 * N_PER_SHARD
    for d in range(3 * N_PER_SHARD):
        name = f"doc-{d:012d}"
        assert got[name] == (d * 10 + 2, "xx"), name   # post-barrier image won


def test_empty_shard_holds_frontier(tmp_path):
    """A declared shard with ZERO delivered segments must hold the merged
    frontier at nothing-committed — committing past it would silently lose
    its (later-arriving) pre-watermark events to the from_ts predicate."""
    root, registry = _setup(tmp_path)
    _shard_wal(root, 0, registry, hi_ts=10**9)
    _shard_wal(root, 1, registry, hi_ts=10**9)
    # shard 2 declared (dir + DDL schedule present) but nothing delivered
    empty = os.path.join(root, "wal_s2")
    os.makedirs(empty)
    shutil.copy(os.path.join(root, "wal_s0", "ddl.json"),
                os.path.join(empty, "ddl.json"))

    wal_dirs = [os.path.join(root, f"wal_s{s}") for s in range(3)]
    cfg = ReplayConfig(wal_dir=wal_dirs[0],
                       lake_dir=os.path.join(root, "lake"), num_partitions=8)
    rp.bootstrap(cfg, base_dir=os.path.join(root, "base"))
    watermark0 = LakeState(cfg.lake_dir).latest().watermark_ts

    res = rp.run_replay_sharded(cfg, wal_dirs)
    assert res.epochs == []                        # nothing committed
    assert LakeState(cfg.lake_dir).latest().watermark_ts == watermark0

    # shard 2 delivers → everything replays, nothing was lost
    _shard_wal(root, 2, registry, hi_ts=10**9)
    rp.run_replay_sharded(cfg, wal_dirs)
    final = rp.lake_to_table(cfg.lake_dir)
    got = {d: t[0] for d, t in zip(final["doc_id"].to_pylist(),
                                   final["tokens"].to_pylist())}
    for d in range(3 * N_PER_SHARD):
        assert got[f"doc-{d:012d}"] == d * 10 + 2


def test_divergent_shard_ddl_schedule_rejected(tmp_path):
    root, registry = _setup(tmp_path)
    _shard_wal(root, 0, registry, hi_ts=10**9)
    other = SchemaRegistry([DDL(BARRIER + 7, "add_column", "lang:string",
                                "und", 2)])
    _shard_wal(root, 1, other, hi_ts=10**9)
    wal_dirs = [os.path.join(root, f"wal_s{s}") for s in range(2)]
    cfg = ReplayConfig(wal_dir=wal_dirs[0],
                       lake_dir=os.path.join(root, "lake"), num_partitions=8)
    rp.bootstrap(cfg, base_dir=os.path.join(root, "base"))
    with pytest.raises(ValueError, match="DDL schedule"):
        rp.run_replay_sharded(cfg, wal_dirs)


# ---------------------------------------------------------------------------
# optimistic shard-DDL coordination (dm/pkg/shardddl/optimism analog)
# ---------------------------------------------------------------------------

OPT_BARRIERS = (4_000, 5_000, 6_000)   # each shard adds `lang` at its own ts


def _opt_shard_wal(root: str, shard: int, barrier: int) -> SchemaRegistry:
    """Shard with its OWN add_column barrier: one pre- and one post-own-
    barrier update per doc; `lang` images exist only post-own-barrier."""
    registry = SchemaRegistry([DDL(barrier, "add_column", "lang:string",
                                   "und", 2)])
    docs = np.arange(shard * N_PER_SHARD, (shard + 1) * N_PER_SHARD)
    rows = []
    for d in docs:
        rows.append((d, 1_000 + int(d) % N_PER_SHARD, 1))
        rows.append((d, 7_000 + int(d) % N_PER_SHARD, 2))   # past ALL barriers
        rows.append((d, barrier + 500 + int(d) % 256, 3))   # between barriers
    rows.sort(key=lambda r: r[1])
    n = len(rows)
    ver = np.array([1 if r[1] <= barrier else 2 for r in rows], np.int32)
    wal = pa.table({
        "op": pa.array(np.full(n, 2, np.uint8)),
        "commit_ts": pa.array(np.array([r[1] for r in rows], np.uint64)),
        "start_ts": pa.array(np.arange(n, dtype=np.uint64) + shard * 10_000),
        "doc_id": pa.array(fixtures.doc_name(
            np.array([r[0] for r in rows], np.int64))),
        "tokens": pa.array([[int(r[0]) * 10 + r[2]] for r in rows],
                           pa.list_(pa.int32())),
        "n_tok": pa.array(np.ones(n, np.int32)),
        "source": pa.array(["bank"] * n),
        "lang": pa.array([None if v == 1 else f"s{shard}" for v in ver],
                         pa.string()),
        "pre_tokens": pa.nulls(n, pa.list_(pa.int32())),
        "new_doc_id": pa.nulls(n, pa.string()),
        "schema_ver": pa.array(ver),
    })
    fixtures.write_wal_segments(wal, os.path.join(root, f"wal_s{shard}"), 2,
                                registry)
    return registry


def test_optimistic_divergent_barriers_match_sequential_oracle(tmp_path):
    """Three shards apply the same logical add_column at DIFFERENT
    barriers. The merged lake gains the column at the EARLIEST barrier;
    events from shards that have not added it yet backfill the default.
    Engine result must equal the independent sequential oracle."""
    from tiflow_ray import oracle

    root, _ = _setup(tmp_path)
    regs = [_opt_shard_wal(root, s, OPT_BARRIERS[s]) for s in range(3)]
    wal_dirs = [os.path.join(root, f"wal_s{s}") for s in range(3)]

    # pessimistic mode must REJECT this divergence...
    cfg = ReplayConfig(wal_dir=wal_dirs[0],
                       lake_dir=os.path.join(root, "lake_opt"),
                       num_partitions=8, max_segments_per_epoch=2)
    rp.bootstrap(cfg, base_dir=os.path.join(root, "base"))
    with pytest.raises(ValueError, match="different DDL schedule"):
        rp.run_replay_sharded(cfg, wal_dirs)

    # ...optimistic mode coordinates it
    res = rp.run_replay_sharded(cfg, wal_dirs, mode="optimistic")
    assert res.epochs, "optimistic replay committed nothing"
    merged = rp.merge_optimistic_registries(regs)
    assert merged.ddls[0].barrier_ts == min(OPT_BARRIERS)   # earliest add
    got = rp.lake_to_table(cfg.lake_dir)
    exp = oracle.replay_optimistic_to_table(
        root, wal_dirs, regs, merged)
    assert got.equals(exp), "optimistic lake diverged from sequential oracle"
    # spot invariants: between merged and own barrier the backfill default
    # is visible only transiently; final winners (ts 7000+) carry own lang
    langs = set(got["lang"].to_pylist())
    assert langs == {"s0", "s1", "s2"}

    # idempotence: re-run is a no-op and state is unchanged
    res2 = rp.run_replay_sharded(cfg, wal_dirs, mode="optimistic")
    assert res2.epochs == []
    assert rp.lake_to_table(cfg.lake_dir).equals(exp)

    # in-epoch remount: NO derived WAL may ever land on disk (r4) — the
    # r3 design materialized a `_remount/` copy of the change stream
    assert not os.path.exists(os.path.join(cfg.lake_dir, "_remount"))


def test_optimistic_mid_window_winner_gets_default_backfill(tmp_path):
    """A doc whose LAST event lands between the merged (earliest) barrier
    and its own shard's barrier must surface the column DEFAULT in the
    final table — the optimism backfill rule, checked end-to-end."""
    from tiflow_ray import oracle

    root, _ = _setup(tmp_path)
    regs = []
    for s in range(3):
        reg = SchemaRegistry([DDL(OPT_BARRIERS[s], "add_column",
                                  "lang:string", "und", 2)])
        docs = np.arange(s * N_PER_SHARD, (s + 1) * N_PER_SHARD)
        n = len(docs)
        # ONE event per doc at ts 4500: after shard0's barrier, before
        # shard1/shard2's ⇒ shard0 events carry lang, others backfill 'und'
        cts = np.full(n, 4_500, np.uint64) + (docs % 7).astype(np.uint64)
        ver = np.array([2 if s == 0 else 1] * n, np.int32)
        wal = pa.table({
            "op": pa.array(np.full(n, 2, np.uint8)),
            "commit_ts": pa.array(cts),
            "start_ts": pa.array(np.arange(n, dtype=np.uint64) + s * 10_000),
            "doc_id": pa.array(fixtures.doc_name(docs.astype(np.int64))),
            "tokens": pa.array([[int(d)] for d in docs], pa.list_(pa.int32())),
            "n_tok": pa.array(np.ones(n, np.int32)),
            "source": pa.array(["bank"] * n),
            "lang": pa.array(["s0" if s == 0 else None] * n, pa.string()),
            "pre_tokens": pa.nulls(n, pa.list_(pa.int32())),
            "new_doc_id": pa.nulls(n, pa.string()),
            "schema_ver": pa.array(ver),
        })
        fixtures.write_wal_segments(wal, os.path.join(root, f"wal_s{s}"), 2,
                                    reg)
        regs.append(reg)
    wal_dirs = [os.path.join(root, f"wal_s{s}") for s in range(3)]
    cfg = ReplayConfig(wal_dir=wal_dirs[0],
                       lake_dir=os.path.join(root, "lake_mid"),
                       num_partitions=8)
    rp.bootstrap(cfg, base_dir=os.path.join(root, "base"))
    rp.run_replay_sharded(cfg, wal_dirs, mode="optimistic")
    got = rp.lake_to_table(cfg.lake_dir)
    merged = rp.merge_optimistic_registries(regs)
    exp = oracle.replay_optimistic_to_table(root, wal_dirs, regs, merged)
    assert got.equals(exp)
    by_doc = dict(zip(got["doc_id"].to_pylist(), got["lang"].to_pylist()))
    assert by_doc[f"doc-{0:012d}"] == "s0"                  # shard0: own image
    assert by_doc[f"doc-{N_PER_SHARD:012d}"] == "und"       # shard1: backfill
    assert by_doc[f"doc-{2 * N_PER_SHARD:012d}"] == "und"   # shard2: backfill


def test_optimistic_rejects_divergent_logical_set_and_modify(tmp_path):
    """Optimism coordinates WHEN, not WHAT: a shard missing a logical DDL
    or carrying a type change is a real conflict and fails loudly."""
    r1 = SchemaRegistry([DDL(100, "add_column", "lang:string", "und", 2)])
    r2 = SchemaRegistry([DDL(200, "add_column", "extra:int32", "0", 2)])
    with pytest.raises(ValueError, match="different logical DDL set"):
        rp.merge_optimistic_registries([r1, r2])
    r3 = SchemaRegistry([DDL(100, "modify_column", "n_tok:int64", None, 2)])
    with pytest.raises(ValueError, match="add/drop only"):
        rp.merge_optimistic_registries([r3, r3])


def test_optimistic_lagging_shard_holds_then_catches_up(tmp_path):
    """The min-over-shards frontier rule holds in optimistic mode too: a
    shard delivering only a pre-divergence prefix pins the merged
    watermark (its undelivered events must not be lost to the from_ts
    predicate); when its remaining segments land, a plain re-run remounts
    just the new segments and converges to the oracle."""
    import shutil

    from tiflow_ray import oracle

    root, _ = _setup(tmp_path)
    regs = [_opt_shard_wal(root, s, OPT_BARRIERS[s]) for s in range(3)]
    wal_dirs = [os.path.join(root, f"wal_s{s}") for s in range(3)]

    # stage shard2's full stream aside, leave only its first segment live
    full_s2 = str(tmp_path / "full_s2")
    shutil.copytree(wal_dirs[2], full_s2)
    metas = sorted(f for f in os.listdir(wal_dirs[2])
                   if f.endswith(".meta.json"))
    assert len(metas) >= 2
    for f in os.listdir(wal_dirs[2]):       # drop every segment but seq 0
        if f.startswith("seq=") and not f.startswith("seq=00000"):
            os.remove(os.path.join(wal_dirs[2], f))

    cfg = ReplayConfig(wal_dir=wal_dirs[0],
                       lake_dir=os.path.join(root, "lake_lag"),
                       num_partitions=8, max_segments_per_epoch=2)
    rp.bootstrap(cfg, base_dir=os.path.join(root, "base"))
    rp.run_replay_sharded(cfg, wal_dirs, mode="optimistic")
    m1 = LakeState(cfg.lake_dir).latest()
    assert m1.watermark_ts <= 7_000          # held below the full stream end

    # shard2 delivers the rest; identical call catches up
    for f in os.listdir(full_s2):
        dst = os.path.join(wal_dirs[2], f)
        if not os.path.exists(dst):
            shutil.copy(os.path.join(full_s2, f), dst)
    rp.run_replay_sharded(cfg, wal_dirs, mode="optimistic")
    got = rp.lake_to_table(cfg.lake_dir)
    merged = rp.merge_optimistic_registries(regs)
    exp = oracle.replay_optimistic_to_table(root, wal_dirs, regs, merged)
    assert got.equals(exp)


# ---------------------------------------------------------------------------
# column mapping (DM pkg/column-mapping/column.go analog)
# ---------------------------------------------------------------------------


def _colliding_shard_wal(root: str, shard: int,
                         registry: SchemaRegistry) -> None:
    """Every shard writes the SAME doc ids 0..N (overlapping shard-local
    PKs — the scenario column mapping exists for); values identify the
    shard so collisions are detectable."""
    docs = np.arange(N_PER_SHARD)
    rows = [(int(d), 1_000 + int(d), 1) for d in docs] + \
           [(int(d), 2_000 + int(d), 2) for d in docs]
    n = len(rows)
    wal = pa.table({
        "op": pa.array(np.full(n, 2, np.uint8)),
        "commit_ts": pa.array(np.array([r[1] for r in rows], np.uint64)),
        "start_ts": pa.array(np.arange(n, dtype=np.uint64) + shard * 10_000),
        "doc_id": pa.array(fixtures.doc_name(
            np.array([r[0] for r in rows], np.int64))),
        "tokens": pa.array([[shard * 1000 + r[0] * 10 + r[2]] for r in rows],
                           pa.list_(pa.int32())),
        "n_tok": pa.array(np.ones(n, np.int32)),
        "source": pa.array(["bank"] * n),
        "pre_tokens": pa.nulls(n, pa.list_(pa.int32())),
        "new_doc_id": pa.nulls(n, pa.string()),
        "schema_ver": pa.array(np.ones(n, np.int32)),
    })
    fixtures.write_wal_segments(wal, os.path.join(root, f"wal_s{shard}"), 2,
                                registry)


def _mapped_setup(tmp_path, n_shards=2):
    from tiflow_ray.stages.column_mapping import ColumnMappingRule
    root = str(tmp_path / "mapped")
    os.makedirs(root, exist_ok=True)
    registry = SchemaRegistry([])
    rules = [ColumnMappingRule("partition id", f"s{i}")
             for i in range(n_shards)]
    for i in range(n_shards):
        _colliding_shard_wal(root, i, registry)
    # base holds MAPPED keys (DM's full load also runs through mapping)
    dnum = np.arange(N_PER_SHARD, dtype=np.int64)
    names = [f"s{i}|" + d for i in range(n_shards)
             for d in fixtures.doc_name(dnum).tolist()]
    nb = len(names)
    base = pa.table({
        "doc_id": pa.array(names),
        "tokens": pa.array([[0]] * nb, pa.list_(pa.int32())),
        "n_tok": pa.array(np.ones(nb, np.int32)),
        "source": pa.array(["bank"] * nb),
    })
    fixtures.write_base_partitioned(base, root, 8)
    return root, registry, rules


def test_column_mapping_keeps_colliding_shard_keys_apart(tmp_path):
    """Two shards with IDENTICAL doc ids + per-shard partition-id rules:
    the merged lake holds 2N distinct mapped keys, each with its own
    shard's last image — no cross-shard LWW collapse."""
    root, registry, rules = _mapped_setup(tmp_path)
    wal_dirs = [os.path.join(root, f"wal_s{i}") for i in range(2)]
    cfg = ReplayConfig(wal_dir=wal_dirs[0], lake_dir=str(tmp_path / "lake"),
                       num_partitions=8, validate=True)
    rp.bootstrap(cfg, base_dir=f"{root}/base")
    rp.run_replay_sharded(cfg, wal_dirs, key_mappings=rules)
    got = rp.lake_to_table(cfg.lake_dir, wal_dirs[0])
    assert got.num_rows == 2 * N_PER_SHARD
    toks = {d: t[0] for d, t in zip(got["doc_id"].to_pylist(),
                                    got["tokens"].to_pylist())}
    for shard in range(2):
        for d in range(N_PER_SHARD):
            key = f"s{shard}|" + fixtures.doc_name(np.array([d]))[0]
            assert toks[key] == shard * 1000 + d * 10 + 2, key


def test_unmapped_colliding_shards_collapse(tmp_path):
    """The hazard the mapping prevents, pinned as a regression oracle:
    WITHOUT rules the same fixture LWW-collapses to N keys."""
    root, registry, _ = _mapped_setup(tmp_path)
    wal_dirs = [os.path.join(root, f"wal_s{i}") for i in range(2)]
    # unmapped replay needs an unmapped-key base
    shutil.rmtree(f"{root}/base")
    dnum = np.arange(N_PER_SHARD, dtype=np.int64)
    base = pa.table({
        "doc_id": pa.array(fixtures.doc_name(dnum)),
        "tokens": pa.array([[0]] * N_PER_SHARD, pa.list_(pa.int32())),
        "n_tok": pa.array(np.ones(N_PER_SHARD, np.int32)),
        "source": pa.array(["bank"] * N_PER_SHARD),
    })
    fixtures.write_base_partitioned(base, root, 8)
    cfg = ReplayConfig(wal_dir=wal_dirs[0],
                       lake_dir=str(tmp_path / "lake_unmapped"),
                       num_partitions=8)
    rp.bootstrap(cfg, base_dir=f"{root}/base")
    rp.run_replay_sharded(cfg, wal_dirs)
    got = rp.lake_to_table(cfg.lake_dir, wal_dirs[0])
    assert got.num_rows == N_PER_SHARD          # collapsed — the data loss


def test_column_mapping_optimistic_mode_maps_in_remount(tmp_path):
    """Optimistic mode applies the rule during the per-shard remount pass
    (shard identity is explicit there); resume re-planning over the
    remount dir must not double-map."""
    root, registry, rules = _mapped_setup(tmp_path)
    wal_dirs = [os.path.join(root, f"wal_s{i}") for i in range(2)]
    cfg = ReplayConfig(wal_dir=wal_dirs[0],
                       lake_dir=str(tmp_path / "lake_opt"),
                       num_partitions=8, validate=True)
    rp.bootstrap(cfg, base_dir=f"{root}/base")
    rp.run_replay_sharded(cfg, wal_dirs, mode="optimistic",
                          key_mappings=rules)
    got = rp.lake_to_table(cfg.lake_dir, wal_dirs[0])
    assert got.num_rows == 2 * N_PER_SHARD
    assert all(d[:3] in ("s0|", "s1|") for d in got["doc_id"].to_pylist())
    # idempotent re-run (same mapping passed on resume)
    res2 = rp.run_replay_sharded(cfg, wal_dirs, mode="optimistic",
                                 key_mappings=rules)
    assert len(res2.epochs) == 0
    assert rp.lake_to_table(cfg.lake_dir, wal_dirs[0]).equals(got)
