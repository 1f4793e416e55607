"""Multi-table changefeed: N tables with INDEPENDENT multi-versioned
schemas replicated through ONE changefeed — the front end of the one
epoch engine (pipelines/replay.py), which runs every feed keyed by
(table, part); single-table replay is its one-table case.

Reference semantics re-expressed Ray-Data-first:

- per-table schema snapshots (cdc/entry/schema_storage.go:40-151): each
  table carries its own SchemaRegistry; an epoch pins one schema version
  PER TABLE (epochs are cut at the union of all tables' barrier ts, so no
  barrier crosses an epoch for any table).
- per-table sink tasks + progress (cdc/processor/sinkmanager/
  manager.go:404-413): the shuffle key is (table, partition); each merge
  group writes only its own table=T/part=p chain, and the manifest records
  per-table watermarks / schema versions / sink stats side by side.
- ONE WAL read per epoch: the change stream is demuxed once (rows carry
  `table_name`), not re-read per table — the processor's single puller
  feeding N table sinks. The changefeed's filters (ignore_sources,
  keep-masks, table filter, online DDL, BDR) apply to every table.
- ONE atomic commit: a single manifest advances every table together, so
  crash/resume keeps cross-table consistency at epoch granularity (the
  changefeed checkpoint = min over table progress, which the atomic commit
  makes equal).

Layout (replay.LakeLayout): lake_dir/data/table=T/part=p/{epoch,delta}-NNNNNN.parquet;
manifest parts keyed "T/p"; stats["tables"][T] = per-table progress;
registry_json = json dict {T: registry_json}.
"""

from __future__ import annotations

import glob
import json
import os

import pyarrow as pa

from ..config import ReplayConfig
from ..model import hash_fingerprint
from ..sources.wal import list_segments, plan_epochs
from ..stages.schema_evo import SchemaRegistry
from ..state.checkpoint import LakeState, Manifest
from .replay import (Changefeed, LakeLayout, ReplayResult, TableLifecycle,
                     _drive_epochs, _plan_caps, check_copartitioned,
                     compact_chains, fold_table, shard_stream, tail_epochs)



_MULTI = LakeLayout(multitable=True)


class _UnionBarriers:
    """plan_epochs shim: the union of every table's DDL barriers PLUS the
    create/drop-table lifecycle barriers. Only barriers() / version_at()
    are consulted by the planner; the 'version' here is just the
    epoch-cut index, never a schema."""

    def __init__(self, registries: dict[str, SchemaRegistry],
                 lifecycle: dict[str, TableLifecycle] | None = None):
        bs = {b for r in registries.values() for b in r.barriers()}
        for lc in (lifecycle or {}).values():
            if lc.created_ts:
                bs.add(lc.created_ts)
            if lc.dropped_ts is not None:
                bs.add(lc.dropped_ts)
        self._b = sorted(bs)

    def barriers(self) -> list[int]:
        return list(self._b)

    def version_at(self, ts: int) -> int:
        return 1 + sum(1 for b in self._b if b < ts)


def load_multitable_registries(
        wal_dir: str) -> tuple[dict[str, SchemaRegistry],
                               dict[str, TableLifecycle]]:
    """WAL-dir convention: `tables.json` = {table: registry_json} (legacy)
    or {table: {"registry": rj, "created_ts": int, "dropped_ts": int?}}.
    Table-scoped error operators (stages/handle_error.py — dmctl binlog
    skip/replace/inject with a table) patch that table's raw schedule
    before validation, same contract as the single-table load_registry."""
    from ..stages.handle_error import apply_error_ops, load_ops
    from ..stages.schema_evo import DDL

    p = os.path.join(wal_dir, "tables.json")
    with open(p) as f:
        raw = json.load(f)
    ops = load_ops(wal_dir)
    regs, lcs = {}, {}
    for t, v in raw.items():
        rj = v if isinstance(v, str) else v["registry"]
        specs = apply_error_ops(json.loads(rj), ops, table=t)
        regs[t] = SchemaRegistry([DDL(**d) for d in specs])
        lcs[t] = TableLifecycle() if isinstance(v, str) else \
            TableLifecycle(v.get("created_ts", 0), v.get("dropped_ts"))
    return regs, lcs


def write_multitable_registries(
        wal_dir: str, tables: dict[str, SchemaRegistry],
        lifecycle: dict[str, TableLifecycle] | None = None) -> None:
    os.makedirs(wal_dir, exist_ok=True)
    out = {}
    for t, r in tables.items():
        lc = (lifecycle or {}).get(t)
        if lc is None or (lc.created_ts == 0 and lc.dropped_ts is None):
            out[t] = r.to_json()
        else:
            out[t] = {"registry": r.to_json(),
                      "created_ts": lc.created_ts,
                      "dropped_ts": lc.dropped_ts}
    with open(os.path.join(wal_dir, "tables.json"), "w") as f:
        json.dump(out, f)


def bootstrap_multitable(cfg: ReplayConfig,
                         tables: dict[str, SchemaRegistry],
                         base_dirs: dict[str, str],
                         lifecycle: dict[str, TableLifecycle] | None = None
                         ) -> Manifest:
    """Metadata-only bootstrap over per-table base layouts
    (base_dirs[T]/part=p/*.parquet, hash(doc_id)%P co-partitioned). The
    same sampled co-partition guard as the single-table bootstrap runs
    per table. Tables with a future created_ts don't exist yet — they
    join (empty) when replay crosses their creation barrier."""
    lake = LakeState(cfg.lake_dir)
    assert lake.latest() is None, "lake already bootstrapped"
    parts: dict[str, dict] = {}
    tstats: dict[str, dict] = {}
    for t_name in tables:
        lc = (lifecycle or {}).get(t_name, TableLifecycle())
        if lc.created_ts:
            assert not base_dirs.get(t_name), \
                f"{t_name} is created mid-stream; it cannot have a base"
            continue
        bdir = base_dirs.get(t_name)
        tstats[t_name] = {"watermark_ts": 0, "schema_ver": 1,
                          "last_touched_epoch": 0}
        if not bdir:
            continue
        for p in range(cfg.num_partitions):
            files = sorted(glob.glob(
                os.path.join(bdir, f"part={p}", "*.parquet")))
            if not files:
                continue
            assert len(files) == 1, files
            rows = check_copartitioned(files[0], p, cfg)
            parts[f"{t_name}/{p}"] = {
                "path": files[0], "schema_ver": 1, "rows": rows,
                "watermark_ts": 0, "bytes": 0, "deltas": []}
    m = Manifest(epoch=0, watermark_ts=0, schema_ver=0,
                 num_partitions=cfg.num_partitions,
                 registry_json=json.dumps(
                     {t: r.to_json() for t, r in tables.items()}),
                 parts=parts, segments_applied=[],
                 stats={"bootstrap": True, "tables": tstats},
                 hash_fingerprint=hash_fingerprint())
    lake.commit(m)
    return m


def run_replay_multitable(cfg: ReplayConfig,
                          tables: dict[str, SchemaRegistry] | None = None,
                          upto_ts: int | None = None,
                          lifecycle: dict[str, TableLifecycle] | None = None,
                          max_epochs: int | None = None) -> ReplayResult:
    """Replay the shared WAL into N per-table lake states through one
    changefeed. `tables` defaults to the WAL's tables.json declaration.
    `lifecycle` carries CREATE/DROP TABLE barriers: a created table joins
    (empty) at its creation barrier; a dropped table's chains leave the
    manifest at its drop barrier (a durable `dropped_tables` note stays)."""
    lake = LakeState(cfg.lake_dir)
    prev = lake.latest()
    assert prev is not None, "call bootstrap_multitable() first"
    if tables is None:
        tables, lifecycle = load_multitable_registries(cfg.wal_dir)
    if lifecycle is None:
        lifecycle = {t: TableLifecycle() for t in tables}

    segs = list_segments(cfg.wal_dir)
    epochs = plan_epochs(segs, _UnionBarriers(tables, lifecycle),
                         from_ts=prev.watermark_ts, upto_ts=upto_ts,
                         **_plan_caps(cfg))
    if max_epochs is not None:
        epochs = epochs[:max_epochs]
    return _drive_epochs(cfg, lake, Changefeed(tables, lifecycle, _MULTI),
                         prev, epochs)


def run_replay_multitable_sharded(cfg: ReplayConfig, wal_dirs: list[str],
                                  upto_ts: int | None = None) -> ReplayResult:
    """Shard-merge × multi-table: N upstream shard WALs — each carrying
    the SAME declared table set — merge into ONE multi-table changefeed
    (DM's sharded-database migration shape: a whole database of sharded
    tables, dm/syncer/shardddl pessimist applied per table).

    Pessimistic coordination, composed from the single-table rules
    (replay.run_replay_sharded):
    - every shard must declare the IDENTICAL tables.json — per-table DDL
      schedules AND lifecycle barriers (a CREATE TABLE is a coordinated
      DDL like any other); a divergent declaration is the conflict the
      pessimist blocks on, rejected upfront.
    - the merged frontier is min over shards of their last watermark; a
      lagging shard holds every table's barrier back (min-over-spans).
      A shard with zero segments holds the frontier at 0 — nothing
      commits until it delivers.
    - within an epoch the union of shard segments is ONE read demuxed to
      the one (table, part) shuffle; per-key ordering needs no
      cross-shard coordination (the compactor sorts by
      (commit_ts, start_ts) after the shuffle, per table).
    Catch-up is calling this again after new segments land
    (resume ≡ next epoch)."""
    lake = LakeState(cfg.lake_dir)
    prev = lake.latest()
    assert prev is not None, "call bootstrap_multitable() first"
    decls = [load_multitable_registries(d) for d in wal_dirs]
    regs0, lcs0 = decls[0]
    ref = {t: r.to_json() for t, r in regs0.items()}
    for d, (regs, lcs) in zip(wal_dirs[1:], decls[1:]):
        if {t: r.to_json() for t, r in regs.items()} != ref or lcs != lcs0:
            raise ValueError(
                f"shard {d} declares a different table set / DDL schedule "
                f"/ lifecycle than {wal_dirs[0]} — pessimistic shard-merge "
                "requires identical migrations on every shard before any "
                "may proceed")

    stream = shard_stream(wal_dirs, upto_ts)
    if stream is None:           # an undelivered shard holds the frontier
        return ReplayResult()
    merged, frontier = stream
    epochs = plan_epochs(merged, _UnionBarriers(regs0, lcs0),
                         from_ts=prev.watermark_ts, upto_ts=frontier,
                         **_plan_caps(cfg))
    return _drive_epochs(cfg, lake, Changefeed(regs0, lcs0, _MULTI), prev,
                         epochs)


def multitable_lake_to_table(lake_dir: str, table: str) -> pa.Table:
    """Materialize ONE table's current state (tests/validation scale):
    `replay.fold_table` under ITS registry at ITS committed schema
    version."""
    lake = LakeState(lake_dir)
    m = lake.latest()
    assert m is not None, "no manifest"
    if table not in m.stats.get("tables", {}):
        note = m.stats.get("dropped_tables", {}).get(table)
        if note:
            raise ValueError(
                f"table {table!r} was dropped at ts {note['dropped_ts']} "
                f"(epoch {note['epoch']})")
        raise ValueError(f"table {table!r} is not part of this changefeed "
                         f"(have: {sorted(m.stats.get('tables', {}))})")
    reg = SchemaRegistry.from_json(json.loads(m.registry_json)[table])
    return fold_table(m, table, reg, m.stats["tables"][table]["schema_ver"])


def tail_replay_multitable(cfg: ReplayConfig, poll_secs: float = 0.5,
                           idle_timeout: float | None = None,
                           stop_file: str | None = None,
                           max_epochs: int | None = None) -> ReplayResult:
    """Continuous tailing for the multi-table changefeed — the engine's
    `tail_epochs` loop over `run_replay_multitable`; new tables/DDLs are
    picked up from tables.json per iteration, so a mid-stream CREATE TABLE
    declared by the upstream takes effect at its barrier without a
    restart."""
    return tail_epochs(
        lambda budget: run_replay_multitable(cfg, max_epochs=budget),
        poll_secs, idle_timeout, stop_file, max_epochs)


def compact_multitable_lake(lake_dir: str,
                            tables: list[str] | None = None) -> dict:
    """`replay.compact_chains` on a multi-table lake: every (table, part)
    chain with pending deltas (of `tables`, default all) folds under ITS
    table's registry + committed schema version in one manifest epoch."""
    select = None if tables is None else \
        (lambda key: key.rsplit("/", 1)[0] in tables)
    return compact_chains(lake_dir, select, count_key="chains_folded")
