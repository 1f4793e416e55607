"""Pipeline configuration (the analog of the reference's changefeed +
sink config surface, pkg/config/ + pkg/sink/cloudstorage/config.go)."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ReplayConfig:
    # layout
    wal_dir: str = ""                 # directory of seq=*.parquet + metas
    lake_dir: str = ""                # output lake root (manifest/checkpoint/data)
    num_partitions: int = 16          # P: fixed hash partitions on doc_id

    # epoching
    max_segments_per_epoch: int = 8   # coalesce WAL segments per epoch (never across a barrier)
    max_epoch_bytes: int = 0          # ALSO cap an epoch's on-disk segment
                                      # bytes: 0 = auto (object store /
                                      # (pipeline_epochs × 12) — decompressed
                                      # Arrow + in-flight shuffle copies
                                      # expand ~an order of magnitude past
                                      # parquet, and k pipelined epochs share
                                      # the store); -1 = off; >0 = explicit
                                      # bytes. Bounds the working set so one
                                      # big epoch can't hit the spill cliff.
    pipeline_epochs: int = 1          # >1 (MoR only): run up to k consecutive
                                      # barrier-free epochs' pipelines
                                      # CONCURRENTLY (their delta appends are
                                      # independent; folds are deferred during
                                      # a concurrent group); commits stay
                                      # ordered, so crash/resume semantics are
                                      # unchanged

    # execution sizing (see SURVEY.md §4; these mirror the reference's pools:
    # mounter 16, encoding 8, storage dmlWorkers 16)
    batch_size: int = 524288          # rows per map_batches call (bigger batches
                                      # = stronger combiner reduction; measured
                                      # best at 512k on the 20M-event bench)

    # sink shape
    sink_mode: str = "mor"            # "mor": append winner deltas, fold every
                                      # compact_every epochs (I/O ∝ change volume);
                                      # "cow": rewrite touched partitions each epoch
    compact_every: int = 8            # MoR: fold a partition when its chain hits this

    # hot-key handling (SURVEY §4; splitter_write.go:54-149 analog — the
    # reference MEASURES written keys and splits hot spans). The per-batch
    # combiner already bounds a hot key's shuffle volume to O(#input
    # blocks); auto_salt adds a salted pre-reduce for pathological skew:
    # the combiner counts each batch's keys and salts ONLY keys whose
    # within-batch share exceeds replay.AUTO_SALT_SHARE (salt =
    # start_ts % replay.AUTO_SALT_FACTOR); everything else keeps salt 0.
    # Events then pre-reduce under (part, salt) — a hot key's surviving
    # rows shrink to ≤ the factor before the final per-part merge. LWW
    # compaction is an associative max-by-order reduction, so salting never
    # changes the winner. Opt-in: the extra exchange only pays for itself
    # under real skew. Needs the combiner (precompact); without it, off.
    auto_salt: bool = False

    # sync-point (cdc/owner syncpoint analog): emit a consistent-snapshot
    # manifest at every multiple of this ts interval — the epoch planner
    # cuts an extra boundary there, so the committed manifest's watermark
    # EQUALS the aligned ts and downstream consistency checkers can pin
    # the lake state at exactly that point. 0 = off.
    syncpoint_interval: int = 0

    # online (tailing) validation, dm/syncer/data_validator.go analog made
    # incremental: every committed file's md5 rides in the manifest, and
    # each epoch's merge tasks re-verify the chains of exactly the
    # partitions they touch before writing on top — lake corruption
    # between commits fails the NEXT epoch loudly instead of replaying
    # onto bad bytes. Off by default (one extra read of touched chains).
    online_validate: bool = False

    # diagnostics: record ray.data per-stage execution stats (ds.stats())
    # for each epoch's merge pipeline in replay.LAST_EPOCH_STATS — the
    # measurement loop behind stage sizing (batch_size,
    # override_num_blocks); off by default (stats strings are large)
    collect_stats: bool = False

    # handle-key collation (cdc/entry/mounter.go:75-91: TiDB handle keys
    # compare collation-aware): "binary" (default, byte equality) or "ci"
    # (case-insensitive, utf8_general_ci-style lower-case normal form).
    # Affects hashing/partitioning, LWW compaction identity and the
    # base-merge anti-join; stored images keep the winner's spelling. The
    # committing manifests record it so the read-side fold agrees.
    key_collation: str = "binary"

    # behavior toggles
    precompact: bool = True           # per-batch LWW combiner before shuffle (DM compactor, T6)
    validate: bool = False            # extra per-batch invariant checks (tests)

    # event filtering (M5/M7 analog): drop events whose `source` is in this set
    ignore_sources: frozenset[str] = field(default_factory=frozenset)

    # shard-merge column mapping (DM pkg/column-mapping/column.go): WAL-dir →
    # ColumnMappingRule, set internally by run_replay_sharded(key_mappings=…);
    # handle keys are rewritten AT READ TIME (per segment path) so shard-local
    # keys can never collide downstream. None = off.
    shard_key_mapping: dict | None = None

    # optimistic shard-merge in-epoch remount (set internally by
    # run_replay_sharded(mode="optimistic")): abs WAL dir →
    # (shard_registry_json, ColumnMappingRule | None). When set, the epoch
    # read groups files by (shard, physical schema), re-mounts each batch
    # under the synthesized merged schema AT READ TIME — no derived WAL is
    # ever written to disk (r3 verdict #4). None = off.
    remount_shards: dict | None = None

    # user-extension hooks (§2.10): expression/UDF filter evaluated per batch
    # after decode — fn(pa.Table) -> boolean mask (M6 expr-filter analog)
    event_predicate: object | None = None

    # declarative M6 (pkg/filter/expr_filter.go analog): tuple of
    # stages.expr_filter.ExprFilterRule — per-table SQL IGNORE expressions
    # for insert/update-old/update-new/delete images, DuckDB-evaluated per
    # batch; composes (AND) with event_predicate when both are set
    expr_filter_rules: tuple = ()

    # declarative M7 (pkg/binlog-filter analog): a stages.binlog_filter
    # .BinlogFilter for pipelines routing multi-table streams (the replay
    # engine's single-table frames carry no schema/table columns; mq/router
    # pipelines consume this)
    binlog_filter: object | None = None

    # BDR (bidirectional replication) mode (cdc ReplicaConfig.BDRMode):
    # the applier marks every row it writes (tidb_cdc_write_source analog
    # — sink/dmlsink/txn/mysql/mysql.go:751-756), and a changefeed in BDR
    # mode DROPS captured events whose `write_source` is nonzero, so two
    # clusters replicating into each other never loop. Events without the
    # column (or null) are local writes and always replicate.
    bdr_mode: bool = False

    # coarse table selector (the changefeed `rules = ['*.*', '!test.*']`
    # surface; tidb table-filter semantics): a stages.table_filter
    # .TableFilter. When set, WAL segments must carry `table_name` (and
    # optionally `schema_name`; absent = 'tiflow'); non-matching tables'
    # DML is dropped at Normalize
    table_filter: object | None = None

    # online-DDL shadow-table handling (dm/syncer/online-ddl-tools): a
    # stages.online_ddl.OnlineDDLPlugin. When set, WAL segments must carry a
    # `table_name` column; ghost/trash-table DML (gh-ost row-copy and
    # changelog traffic) is dropped at the Normalize stage — the registry
    # side (recorded ghost alters folding out at the swap rename) is built
    # via stages.online_ddl.registry_from_binlog before replay
    online_ddl: object | None = None


def load_config(path: str, **overrides) -> ReplayConfig:
    """Declarative config file → ReplayConfig (the TOML/JSON surface users
    of the reference actually write — changefeed/task config analog,
    pkg/config/ + dm task YAML). Supports .toml (stdlib tomllib) and
    .json. Nested rule tables become typed rule objects:

        [[expr_filter_rules]]                 # pkg/filter/expr_filter.go
        matcher = "documents"
        ignore_insert = "n_tok >= 40"

        [[binlog_filter_rules]]               # pkg/binlog-filter
        schema_pattern = "db.*"
        table_pattern = "click|view"
        events = ["update"]
        action = "Ignore"

    binlog_filter_rules compile into cfg.binlog_filter (a BinlogFilter)
    for pipelines that route multi-table streams. Keyword `overrides` win
    over file values (CLI flags)."""
    import json as _json
    import os as _os

    if path.endswith(".toml"):
        import tomllib
        with open(path, "rb") as f:
            raw = tomllib.load(f)
    elif path.endswith(".json"):
        with open(path) as f:
            raw = _json.load(f)
    else:
        raise ValueError(f"config must be .toml or .json: {path}")

    from .stages.binlog_filter import BinlogFilter, FilterRule
    from .stages.expr_filter import ExprFilterRule

    expr_rules = tuple(ExprFilterRule(**r)
                       for r in raw.pop("expr_filter_rules", []))
    blg = raw.pop("binlog_filter_rules", [])
    binlog = BinlogFilter([FilterRule(r["schema_pattern"], r["table_pattern"],
                                      tuple(r.get("events", ("all",))),
                                      r.get("action", "Ignore"))
                           for r in blg]) if blg else None
    if "ignore_sources" in raw:
        raw["ignore_sources"] = frozenset(raw["ignore_sources"])
    # changefeed table-filter rules (filter.rules surface)
    tf_rules = raw.pop("table_filter_rules", None)
    if tf_rules:
        from .stages.table_filter import TableFilter
        raw["table_filter"] = TableFilter(
            list(tf_rules), raw.pop("table_filter_case_sensitive", False))
    # DM task-config online-ddl surface (subtask.go: online-ddl +
    # shadow-table-rules / trash-table-rules)
    if raw.pop("online_ddl", False):
        from .stages.online_ddl import (DEFAULT_SHADOW_RULES,
                                        DEFAULT_TRASH_RULES, OnlineDDLPlugin)
        raw["online_ddl"] = OnlineDDLPlugin(
            tuple(raw.pop("shadow_table_rules", DEFAULT_SHADOW_RULES)),
            tuple(raw.pop("trash_table_rules", DEFAULT_TRASH_RULES)))
    raw.update(overrides)
    known = {f for f in ReplayConfig.__dataclass_fields__}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys in {_os.path.basename(path)}: "
                         f"{sorted(unknown)}")
    if expr_rules:
        raw["expr_filter_rules"] = expr_rules
    if binlog is not None:
        raw["binlog_filter"] = binlog
    return ReplayConfig(**raw)
