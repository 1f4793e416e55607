"""The epoch engine: WAL change files → lake table state, for one table
or for a multi-table changefeed (pipelines/multitable.py is the
multi-table front end; single-table replay is the one-table case).

One stage chain per epoch, declared once (`_epoch_chain`) as Arrow→Arrow
steps, each a map or a group-by-keys step:

    read(segments ∩ (lo, hi], columns pruned to the epoch schema,
         commit_ts row-filter pushdown)
      → map Normalize                (mounter analog, stateless, Arrow;
                                      keep-masks, declared-table check)
      → map split_combine            (per table: identity-change D+I split
                                      + LWW combiner — hot-key pre-reduce —
                                      fused with the exchange key
                                      tid·P + hash(doc_id) % P)
      [→ group (part, salt) presalt_reduce    plan, under auto_salt:
                                      detected hot keys pre-reduce in
                                      sub-groups]
      → group part: merge_apply      (deltas only, base stays put; each
                                      (table, part) group runs its table's
                                      MergeApply: final LWW reduce, then
                                      MoR appends winner deltas / folds
                                      chains, CoW rewrites parts)
      → stats rows → driver commits manifest + checkpoint atomically

Two drivers run the chain:

- the Ray Data plan (`_run_plan`): maps become `map_batches`, group steps
  `groupby(keys).map_groups` (THE shuffle), then `take_all`. Several map
  batches can feed one (table, part) group, so each group runs the final
  reduce (compact_partition) and a doc_id sort;
- a single Ray task (`_epoch_task`): a pyarrow read of the same file
  groups, then each step over the whole table. Its one batch is the whole
  epoch, so its chain has no group step and differs in two:

      → map split_combine            (the epoch's one exact LWW reduce,
                                      keyed on (part, doc_id), rows sorted
                                      by (part, doc_id); no salt)
      → map merge_apply              (per table, MergeApply.apply_reduced:
                                      each part only sliced, selected and
                                      written — no second reduce or sort)

The one rule between them: a parquet epoch of at most one map batch
(`ep.est_rows <= cfg.batch_size`) takes the task — the plan would add no
map-side parallelism, only planning, scheduling and a shuffle, and the
task holds no more rows than one `map_batches` call does. Larger epochs
and codec epochs (whose readers are Ray datasources) take the plan. Both
write the same bytes.

Where a table lives on disk (data dir, manifest part key, registry and
schema-version format) is decided in one place, LakeLayout.

The driver (the "owner", cdc/owner/changefeed.go analog) only ever touches
O(tables × P) metadata per epoch: per-chain stats, watermarks, the
manifest. All row data stays in Ray tasks and the object store.

Fault tolerance: any crash before the manifest rename loses nothing — the
next run re-plans from the last committed manifest and re-executes the epoch
onto the same deterministic file names (redo-applier semantics,
pkg/applier/redo.go; safe-mode §2.9: re-applying an applied prefix is a
no-op because merge is REPLACE-natured). A worker death inside either
driver is retried by Ray.
"""

from __future__ import annotations

import dataclasses
import functools
import glob
import json
import os
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray.data

from ..config import ReplayConfig
from ..model import collation_key, hash_partition
from ..sources.wal import Epoch, list_segments, load_registry, plan_epochs
from ..stages.compact import (assign_partition, compact_batch,
                              compact_partition, reduce_sorted)
from ..stages.merge import MergeApply, fold_part
from ..stages.normalize import EVENT_KEY_COLS, Normalize
from ..stages.update_split import split_updates
from ..stages.schema_evo import DDL, SchemaRegistry
from ..state.checkpoint import LakeState, Manifest


_READ_PLAN_LOCK = threading.Lock()

#: auto_salt's hot-key rule: a key holding more than this share of a map
#: batch's events is hot, and its surviving rows spread over this many
#: (part, salt) pre-reduce groups
AUTO_SALT_SHARE = 0.25
AUTO_SALT_FACTOR = 8

#: per-epoch execution-stats strings (ReplayConfig.collect_stats): the plan
#: driver's ray.data stats or the single-task driver's per-step seconds;
#: cleared at each replay call that collects — diagnostics only, never
#: read by the engine
LAST_EPOCH_STATS: list[str] = []
_STATS_LOCK = threading.Lock()


@dataclass
class EpochResult:
    epoch: int
    lo: int
    hi: int
    schema_ver: int
    events: int
    parts_touched: int
    rows_total: int


@dataclass
class ReplayResult:
    epochs: list[EpochResult] = field(default_factory=list)

    @property
    def events(self) -> int:
        return sum(e.events for e in self.epochs)


def check_copartitioned(path: str, part: int, cfg: ReplayConfig) -> int:
    """Bootstrap's co-partitioning guard for one base file of `part`: a
    base laid out with a DIFFERENT P, or hashed under another key
    collation, would silently duplicate rows at merge time — sample the
    first 256 keys and verify they hash to `part`. → the file's row
    count."""
    f = pq.ParquetFile(path)
    sample = next(f.iter_batches(batch_size=256, columns=["doc_id"]), None)
    if sample is not None and sample.num_rows and not (hash_partition(
            collation_key(sample.column(0), cfg.key_collation),
            cfg.num_partitions) == part).all():
        raise ValueError(
            f"{path} is not hash(doc_id)%{cfg.num_partitions}-partitioned "
            f"under key_collation={cfg.key_collation!r} (found part={part} "
            "rows hashing elsewhere); base layout P must equal "
            "ReplayConfig.num_partitions")
    return f.metadata.num_rows


def base_parts(cfg: ReplayConfig, base_dir: str,
               layout: LakeLayout | None = None, table: str = "") -> dict:
    """A base layout's `part={p}` dirs as bootstrap manifest parts, keyed
    by `layout.part_key(table, p)`: one co-partitioned file per part
    (`check_copartitioned`). A part dir at or past P means the base was
    laid out for a larger P, and is refused — its rows would otherwise be
    dropped without a word (every part p < P of a P'-partitioned base, P
    dividing P', still passes the co-partition check)."""
    layout = layout or LakeLayout()
    found = {}
    for d in glob.glob(os.path.join(base_dir, "part=*")):
        p = int(os.path.basename(d).split("=", 1)[1])
        if not 0 <= p < cfg.num_partitions:
            raise ValueError(f"base dir has {d} but P={cfg.num_partitions}")
        found[p] = d
    parts = {}
    for p in sorted(found):
        files = sorted(glob.glob(os.path.join(found[p], "*.parquet")))
        if not files:
            continue
        assert len(files) == 1, f"expected one bootstrap file per part: {files}"
        parts[layout.part_key(table, p)] = {
            "path": files[0], "schema_ver": 1,
            "rows": check_copartitioned(files[0], p, cfg),
            "watermark_ts": 0, "bytes": 0, "deltas": []}
    return parts


def bootstrap(cfg: ReplayConfig, base_dir: str | None = None) -> Manifest:
    """Epoch 0: register the existing base lake files (hash-partitioned
    part={p} dirs) in the first manifest. No data movement — the initial
    full-load (Dumpling/Lightning, S5) is just metadata here."""
    lake = LakeState(cfg.lake_dir)
    existing = lake.latest()
    if existing is not None:
        if existing.num_partitions and existing.num_partitions != cfg.num_partitions:
            raise ValueError(
                f"lake is laid out with P={existing.num_partitions}, "
                f"config says P={cfg.num_partitions}")
        return existing
    parts = base_parts(cfg, base_dir) if base_dir else {}
    from ..model import hash_fingerprint
    m = Manifest(epoch=0, watermark_ts=0, schema_ver=1,
                 num_partitions=cfg.num_partitions, parts=parts,
                 segments_applied=[], stats={"bootstrap": True},
                 hash_fingerprint=hash_fingerprint())
    lake.commit(m)
    return m


def _epoch_byte_cap(cfg: ReplayConfig) -> int | None:
    """Resolve cfg.max_epoch_bytes: >0 explicit, -1 off, 0 auto — a share
    of the object store per concurrently-pipelined epoch, with a 12×
    parquet→working-set expansion margin (decompressed Arrow + in-flight
    shuffle copies). Bounds an epoch's plasma footprint so the 100×-data
    case degrades to more epochs instead of the spill cliff."""
    if cfg.max_epoch_bytes > 0:
        return cfg.max_epoch_bytes
    if cfg.max_epoch_bytes < 0 or not ray.is_initialized():
        return None
    plasma = ray.cluster_resources().get("object_store_memory", 0)
    if not plasma:
        return None
    k = max(1, cfg.pipeline_epochs)
    return max(64 << 20, int(plasma / (k * 12)))


def _plan_caps(cfg: ReplayConfig) -> dict:
    """plan_epochs' epoch-size caps and syncpoint cuts from the config."""
    return dict(max_segments_per_epoch=cfg.max_segments_per_epoch,
                syncpoint_interval=cfg.syncpoint_interval,
                max_bytes_per_epoch=_epoch_byte_cap(cfg))


def full_load(ds: "ray.data.Dataset", cfg: ReplayConfig) -> Manifest:
    """Distributed full load (Dumpling/Lightning analog, S5 made real at
    scale): hash-partition an arbitrary base-schema Dataset into the lake
    layout and commit the bootstrap manifest — ONE shuffle, each partition
    written by its own task, the driver handles O(P) stats only.
    `bootstrap(base_dir=...)` remains the metadata-only path for data that
    already lives in the lake layout."""
    from ..stages.compact import assign_partition

    lake = LakeState(cfg.lake_dir)
    assert lake.latest() is None, "lake already bootstrapped"
    if "part" in (ds.schema().names or []):
        raise ValueError(
            "input dataset already has a 'part' column (often a hive-"
            "partitioning artifact — pass partitioning=None to read_parquet "
            "or rename the column); full_load owns the partition assignment")
    data_dir = os.path.join(cfg.lake_dir, "data")

    def write_part(t: pa.Table) -> pa.Table:
        from ..stages.merge import _atomic_write
        part = int(t["part"][0].as_py())
        out = t.drop_columns(["part"])
        out = out.take(pc.sort_indices(out, sort_keys=[("doc_id", "ascending")]))
        path = os.path.join(data_dir, f"part={part}", "epoch-000000.parquet")
        _atomic_write(out, path)
        return pa.table({"part": pa.array([part], pa.int32()),
                         "path": pa.array([path]),
                         "rows": pa.array([out.num_rows], pa.int64()),
                         "bytes": pa.array([out.nbytes], pa.int64())})

    stats = ds.map_batches(lambda t: assign_partition(t, cfg.num_partitions),
                           batch_format="pyarrow", batch_size=cfg.batch_size) \
        .groupby("part").map_groups(write_part, batch_format="pyarrow") \
        .take_all()

    from ..model import hash_fingerprint
    parts = {str(r["part"]): {"path": r["path"], "schema_ver": 1,
                              "rows": r["rows"], "watermark_ts": 0,
                              "bytes": r["bytes"], "deltas": []}
             for r in stats}
    m = Manifest(epoch=0, watermark_ts=0, schema_ver=1,
                 num_partitions=cfg.num_partitions, parts=parts,
                 segments_applied=[], stats={"bootstrap": True,
                                             "full_load": True},
                 hash_fingerprint=hash_fingerprint())
    lake.commit(m)
    return m


def _codec_col_groups(ep: Epoch) -> list[tuple[list[str], list[str]]]:
    """Group an epoch's files by their OWN segment-meta column order
    [(files, columns)]. Segments written before and after a DDL barrier
    carry different column sets (the storage sink rewrites its schema
    file at each DDL, pkg/sink/cloudstorage/table_definition.go), and a
    positional codec (csv) decoded under the wrong order misaligns
    silently — each group must decode under its own order. Insertion
    order follows ep.files so the plan stays deterministic."""
    cmap = dict(ep.col_map) if ep.col_map else {}
    groups: dict[tuple, list[str]] = {}
    for f in ep.files:
        groups.setdefault(tuple(cmap.get(f, ep.columns)), []).append(f)
    return [(fs, list(cols)) for cols, fs in groups.items()]


def _union_ds(parts: list) -> "ray.data.Dataset":
    return parts[0] if len(parts) == 1 else parts[0].union(*parts[1:])


def read_codec_epoch(ep: Epoch, read_kwargs: dict,
                     batch_size: int) -> "ray.data.Dataset":
    """Distributed decode of one epoch's NON-parquet WAL segments (M10):
    jsonl / avro-OCF / craft / mysql-binlog / csv / canal-json /
    open-protocol / debezium / maxwell / simple. Returns raw change
    events; the caller must range-filter to (lo, hi] (codecs carry no
    commit_ts pushdown) and Normalize handles per-group schema deltas.
    Call under _READ_PLAN_LOCK when planning concurrently (pipelined
    epochs). Shared by the single-table and multi-table replay paths."""
    if ep.fmt == "jsonl":    # raw json change files (self-describing)
        return ray.data.read_json(list(ep.files), **read_kwargs)
    if ep.fmt in ("avro", "mysql_binlog", "craft"):
        from ..sources import codecs
        parts = []
        for files, cols in _codec_col_groups(ep):
            if ep.fmt == "craft":
                # craft: size tables live at the message TAIL, so a
                # mid-file split cannot be located without the tail —
                # file-granular fan-out is inherent to the format
                ds = ray.data.read_binary_files(files)
                decoder = codecs.BinaryFileDecoder(ep.fmt, cols)
            else:
                # avro OCF: BLOCK-granular fan-out — the splitter walks
                # block headers (no datum decode) and each range task
                # seeks+reads only its own blocks, so one large segment
                # decodes ≥8-way instead of one-task-per-file. binlog v4:
                # TRANSACTION-granular — the planner walks event headers
                # (event_size hops, no row decode) and each range task
                # reads only its own whole transactions (every txn
                # re-announces its TABLE_MAP, so ranges are self-contained)
                plan, decoder = (
                    (codecs.plan_avro_splits, codecs.AvroRangeDecoder)
                    if ep.fmt == "avro" else
                    (codecs.plan_binlog_splits, codecs.BinlogRangeDecoder))
                items = plan(files, cols)
                ds = ray.data.from_items(
                    items, override_num_blocks=max(1, len(items)))
                decoder = decoder(cols)
            parts.append(ds.map_batches(decoder, batch_format="pyarrow",
                                        batch_size=4))
        return _union_ds(parts)
    # csv / canal-json / open-protocol / … change files: text → decoder,
    # one read per column-order group (csv is positional)
    from ..sources.codecs import ChangeFileDecoder
    parts = []
    for files, cols in _codec_col_groups(ep):
        ds = ray.data.read_text(files, **read_kwargs)
        parts.append(ds.map_batches(ChangeFileDecoder(ep.fmt, cols),
                                    batch_format="pandas",
                                    batch_size=batch_size))
    return _union_ds(parts)


class RemountStage:
    """In-epoch optimistic remount (r3 verdict #4): a map_batches kernel
    that re-mounts one shard's raw WAL rows under the synthesized merged
    registry at READ time — `_remount_table` per batch, the shard's
    column-mapping rule when configured, then projection to the epoch's
    read columns. Replaces the r3 design that materialized a derived
    `_remount/` WAL on disk (one extra full write+read of the change
    stream); the reference's relay log is a durability feature, not a
    required double-write."""

    def __init__(self, shard_reg_json: str, merged_reg_json: str,
                 mapping_rule, read_cols: list[str]):
        self.shard_reg = SchemaRegistry.from_json(shard_reg_json)
        self.merged_reg = SchemaRegistry.from_json(merged_reg_json)
        self.rule = mapping_rule
        self.read_cols = list(read_cols)

    def __call__(self, t: pa.Table) -> pa.Table:
        rt = _remount_table(t, self.shard_reg, self.merged_reg)
        if self.rule is not None:
            rt = self.rule.apply(rt)
        return rt.select(self.read_cols)


@dataclass(frozen=True)
class Step:
    """One Arrow→Arrow step of an epoch's chain: a map over the event
    stream (`keys` empty) or one `fn` call per group of rows that share
    `keys` (the plan driver's groupby; the single-task driver's chain is
    all maps)."""
    name: str
    fn: Callable[[pa.Table], pa.Table]
    keys: tuple[str, ...] = ()


@dataclass
class ParquetRead:
    """An epoch's parquet segments as read groups, declared once for both
    drivers. Each group is (files, columns, per-group map) and is read
    with the commit_ts pushdown; `mapping` (the shard column mapping)
    runs over the union and needs each row's segment path."""
    lo: int
    hi: int
    groups: list[tuple[list[str], list[str] | None, Callable | None]]
    mapping: Callable | None = None

    def _filter(self):
        return (pads.field("commit_ts") > self.lo) \
            & (pads.field("commit_ts") <= self.hi)

    def dataset(self, read_kwargs: dict,
                batch_size: int) -> "ray.data.Dataset":
        """The Ray Data read: one read_parquet per group, override_num_blocks
        prorated by file count so the fan-out matches a one-group read's."""
        n_files = sum(len(files) for files, _, _ in self.groups)
        nblocks = read_kwargs.get("override_num_blocks")
        parts = []
        for files, cols, post in self.groups:
            kw = dict(read_kwargs)
            if nblocks:
                kw["override_num_blocks"] = max(
                    1, round(nblocks * len(files) / n_files))
            if self.mapping is not None:
                kw["include_paths"] = True
            ds = ray.data.read_parquet(files, columns=cols,
                                       filter=self._filter(), **kw)
            if post is not None:
                ds = ds.map_batches(post, batch_format="pyarrow",
                                    batch_size=batch_size)
            parts.append(ds)
        ds = _union_ds(parts)
        if self.mapping is not None:
            ds = ds.map_batches(self.mapping, batch_format="pyarrow",
                                batch_size=batch_size)
        return ds

    def table(self) -> pa.Table:
        """The same read with pyarrow, as one table (the single-task
        driver)."""
        pieces = []
        for files, cols, post in self.groups:
            ds = pads.dataset(files, format="parquet")
            if self.mapping is None:
                t = ds.to_table(columns=cols, filter=self._filter())
            else:
                t = pa.concat_tables([
                    _with_path(frag.to_table(schema=ds.schema, columns=cols,
                                             filter=self._filter()),
                               frag.path)
                    for frag in ds.get_fragments()])
            pieces.append(t if post is None else post(t))
        t = pa.concat_tables(pieces, promote_options="default")
        return t if self.mapping is None else self.mapping(t)


def _with_path(t: pa.Table, path: str) -> pa.Table:
    """read_parquet(include_paths=True)'s `path` column."""
    return t.append_column("path", pa.array([os.path.abspath(path)]
                                            * t.num_rows, pa.string()))


def _parquet_read(cfg: ReplayConfig, feed: Changefeed, ep: Epoch,
                  read_cols: list[str]) -> ParquetRead:
    if cfg.remount_shards is not None:
        # optimistic shard-merge: group by (shard dir, physical schema) — a
        # shard's segments straddling its own DDL barrier have different
        # physical schemas, and a read needs one fragment schema — and
        # remount each group under the merged registry
        groups: dict[tuple, list[str]] = {}
        for f in ep.files:
            sd = os.path.abspath(os.path.dirname(f))
            groups.setdefault((sd, tuple(pq.read_schema(f).names)),
                              []).append(f)
        merged_json = feed.registries[""].to_json()
        reads = []
        for (sd, _names), files in groups.items():
            shard_reg_json, rule = cfg.remount_shards[sd]
            reads.append((files, None, RemountStage(
                shard_reg_json, merged_json, rule, read_cols)))
        return ParquetRead(ep.lo, ep.hi, reads)
    # Parquet segments in one epoch may carry DIFFERENT column sets (a
    # derived WAL whose producer learned a column after earlier rounds
    # were written, per-table topic consumers, or plain pre/post-DDL
    # straddles): requesting a column a file lacks is a read error, so
    # group files by their own available∩wanted columns and union —
    # Normalize null-fills what a group is missing (same shape as the
    # codec col_map path).
    cmap = dict(ep.col_map)
    by_cols: dict[tuple, list[str]] = {}
    for f in ep.files:
        avail = cmap.get(f) or ()
        want = tuple(c for c in read_cols if not avail or c in avail)
        by_cols.setdefault(want, []).append(f)
    mapping = None
    if cfg.shard_key_mapping:
        from ..stages.column_mapping import mapping_stage
        mapping = mapping_stage(cfg.shard_key_mapping)
    return ParquetRead(ep.lo, ep.hi,
                       [(fs, list(w), None) for w, fs in by_cols.items()],
                       mapping)


@dataclass(frozen=True)
class TableLifecycle:
    """CREATE/DROP TABLE barriers for one table of the changefeed
    (cdc/owner/ddl_manager.go handles both as ordinary DDL barriers; the
    sink adds/removes the table span). created_ts=0 = existed at
    bootstrap; dropped_ts=None = still live. Events outside
    (created_ts, dropped_ts] fail loudly — a correct upstream can never
    produce them."""
    created_ts: int = 0
    dropped_ts: int | None = None


@dataclass(frozen=True)
class LakeLayout:
    """The one place the two lake kinds differ on disk. A one-table lake
    (`bootstrap`) keeps `data/part=p`, manifest part keys "p", the table's
    registry JSON as-is and its schema version in Manifest.schema_ver. A
    multi-table lake (`multitable.bootstrap_multitable`) keeps
    `data/table=T/part=p`, keys "T/p", registry_json = {T: registry_json}
    and schema_ver 0 (each table's version lives in stats["tables"][T])."""
    multitable: bool = False

    @classmethod
    def of(cls, m: Manifest) -> "LakeLayout":
        return cls("tables" in m.stats)

    def data_dir(self, lake_dir: str, table: str) -> str:
        d = os.path.join(lake_dir, "data")
        return os.path.join(d, f"table={table}") if self.multitable else d

    def part_key(self, table: str, part) -> str:
        return f"{table}/{part}" if self.multitable else str(part)

    def split_key(self, key: str) -> tuple[str, str]:
        return tuple(key.rsplit("/", 1)) if self.multitable else ("", key)

    def registry_json(self, registries: dict[str, SchemaRegistry]) -> str:
        if self.multitable:
            return json.dumps({t: r.to_json() for t, r in registries.items()})
        return registries[""].to_json()

    def schema_ver(self, registries: dict[str, SchemaRegistry],
                   ts: int) -> int:
        return 0 if self.multitable else registries[""].version_at(ts)

    def committed_tables(self, m: Manifest) -> dict[str, tuple[str, int]]:
        """table → (registry JSON, committed schema version)."""
        if not self.multitable:
            return {"": (m.registry_json, m.schema_ver)}
        regs = json.loads(m.registry_json)
        return {t: (regs[t], ts["schema_ver"])
                for t, ts in m.stats["tables"].items()}


@dataclass
class Changefeed:
    """The tables one replay replicates. Single-table replay is the
    one-table case: registries = {"": registry} on a one-table layout."""
    registries: dict[str, SchemaRegistry]
    lifecycle: dict[str, TableLifecycle] = field(default_factory=dict)
    layout: LakeLayout = LakeLayout()

    def __post_init__(self):
        #: stable table ids: the exchange key is tid * P + part
        self.table_ids = {t: i for i, t in enumerate(sorted(self.registries))}

    def active(self, ep: Epoch) -> list[str]:
        """Tables live inside epoch (lo, hi]: created at/before lo (epochs
        are cut at every creation barrier, so an epoch never straddles
        one) and not dropped before hi."""
        out = []
        for t in sorted(self.registries):
            lc = self.lifecycle.get(t, TableLifecycle())
            if lc.created_ts > ep.lo:
                continue
            if lc.dropped_ts is not None and lc.dropped_ts < ep.hi:
                continue
            out.append(t)
        return out


def _image_fields(registries: dict[str, SchemaRegistry],
                  vers: dict[str, int]) -> list[pa.Field]:
    """The epoch's image fields: the union over the active tables at their
    versions. Same-named columns must agree on type across tables
    (checked here, loudly, at plan time)."""
    union: dict[str, pa.Field] = {}
    for t, ver in vers.items():
        for f in registries[t].schema(ver):
            if f.name == "doc_id":
                continue
            have = union.get(f.name)
            if have is not None and have.type != f.type:
                raise ValueError(
                    f"column {f.name!r} has type {have.type} in one table "
                    f"and {f.type} in {t!r}; a shared-WAL changefeed "
                    "needs same-name columns type-aligned")
            union[f.name] = f
    return list(union.values())


def _bdr_mask(t: pa.Table):
    """BDR loop filter: null / 0 write_source = local write → replicate;
    nonzero = CDC-applied → drop."""
    if "write_source" not in t.column_names:
        return np.ones(t.num_rows, bool)
    ws = t["write_source"].cast(pa.int64())
    return pc.fill_null(pc.equal(pc.fill_null(ws, 0), 0), True)


def _table_filter_mask(tfilt, t: pa.Table):
    if "table_name" not in t.column_names:
        return np.ones(t.num_rows, bool)
    tables = np.asarray(t["table_name"].to_numpy(zero_copy_only=False))
    schemas = (np.asarray(t["schema_name"].to_numpy(zero_copy_only=False))
               if "schema_name" in t.column_names
               else np.full(t.num_rows, "tiflow"))
    return tfilt.mask(schemas, tables)


def _event_masks(cfg: ReplayConfig) -> list:
    """The keep-masks Normalize AND-composes over each batch."""
    masks = [] if cfg.event_predicate is None else [cfg.event_predicate]
    if cfg.bdr_mode:
        masks.append(_bdr_mask)
    if cfg.table_filter is not None:
        masks.append(functools.partial(_table_filter_mask, cfg.table_filter))
    if cfg.online_ddl is not None:
        masks.append(cfg.online_ddl.dml_mask)
    if cfg.expr_filter_rules:
        from ..stages.expr_filter import ExprFilter
        masks.append(ExprFilter(list(cfg.expr_filter_rules)))
    return masks


def _read_epoch(cfg: ReplayConfig, feed: Changefeed, ep: Epoch,
                read_cols: list[str]) -> "ray.data.Dataset":
    """The epoch's raw events as a Ray dataset, parquet columns pruned to
    `read_cols` (the plan driver's read)."""
    # block count ≫ cores: parquet files are few and large, so without an
    # override the read fans out only #files wide and the whole pipeline
    # starves past ~16 cores (measured 2-4x on the 20M-event bench)
    read_kwargs = {}
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    if ep.est_rows > 4 * 131072:
        read_kwargs["override_num_blocks"] = max(
            ncpu, min(8 * ncpu, ep.est_rows // 131072))
    # read PLANNING is not thread-safe in Ray (lazy fsspec imports race when
    # pipelined epochs plan concurrently) — serialize planning only;
    # execution itself streams outside the lock
    with _READ_PLAN_LOCK:
        if ep.fmt != "parquet":    # change-file codecs (M10 decode)
            return read_codec_epoch(ep, read_kwargs, cfg.batch_size)
        return _parquet_read(cfg, feed, ep, read_cols).dataset(
            read_kwargs, cfg.batch_size)


def split_combine(t: pa.Table, table_ids: dict[str, int],
                  num_partitions: int, precompact: bool = True,
                  hot_share: float | None = None, salt_factor: int = 8,
                  collation: str = "binary",
                  exact: bool = False) -> pa.Table:
    """Per-batch update-split + LWW combiner + exchange key, PER TABLE:
    doc_ids are table-scoped keys — the same id in two tables must never
    collapse — and the split's synthesized delete half must stay routed to
    its table. part = tid * P + hash(doc_id) % P makes one integer key, so
    the exchange stays a single groupby; a batch without `table_name` is
    table 0's (the one-table feed).

    `hot_share` enables dynamic hot-key detection (splitter_write.go
    analog) per table — a hot key in one table must not serialize the
    other tables' groups. Detected-hot rows carry a nonzero `salt` for
    the (part, salt) pre-reduce.

    `exact` (the single-task driver, whose one batch is the whole epoch)
    makes the combiner the epoch's final reduce: exactly one winner per
    (part, doc_id), rows sorted by (part, doc_id) — tables come out in tid
    order, so the whole batch is — and no salt."""
    def one(sub: pa.Table, tid: int) -> pa.Table:
        sub = split_updates(sub)             # also drops new_doc_id
        if exact:
            sub = reduce_sorted(sub, num_partitions, collation)
        elif precompact:
            sub = compact_batch(sub, num_partitions, hot_share=hot_share,
                                salt_factor=salt_factor, collation=collation)
        else:
            sub = assign_partition(sub, num_partitions, collation)
        if not tid:
            return sub
        part = sub["part"].to_numpy(zero_copy_only=False) \
            + np.uint32(tid * num_partitions)
        return sub.set_column(sub.schema.get_field_index("part"), "part",
                              pa.array(part))

    if "table_name" not in t.column_names:
        return one(t, 0)
    tn = t["table_name"].to_numpy(zero_copy_only=False)
    t = t.drop_columns(["table_name"])
    names = np.unique(tn)
    if len(names) <= 1:                      # one table: no filter copy
        return one(t, table_ids[str(names[0])] if len(names) else 0)
    return pa.concat_tables([one(t.filter(pa.array(tn == name)),
                                 table_ids[str(name)]) for name in names])


def _execute_epoch(cfg: ReplayConfig, feed: Changefeed, prev_parts: dict,
                   ep: Epoch, epoch_no: int,
                   allow_fold: bool = True) -> list[dict]:
    """Run one epoch's stage chain (read → normalize → split+combine →
    (table, part) merge-write) on one of the two drivers and return the
    per-chain stats rows. NO manifest side effects — commit happens in
    _commit_epoch."""
    active = feed.active(ep)
    if not ep.files or not active:
        # a barrier-only epoch (DDL lands before any event in range): no
        # data moves; the commit alone advances schema_ver + watermark
        return []
    if cfg.shard_key_mapping and ep.fmt != "parquet":
        raise ValueError("shard column mapping expects parquet WAL shards")
    vers = {t: feed.registries[t].version_at(ep.hi) for t in active}
    image_fields = _image_fields(feed.registries, vers)
    read_cols = EVENT_KEY_COLS + [f.name for f in image_fields]
    # the table routing column: demux key of a multi-table feed, and what
    # the online-DDL / table-filter masks read (a one-table feed's
    # Normalize projects it away again)
    if feed.layout.multitable or cfg.online_ddl is not None \
            or cfg.table_filter is not None:
        read_cols.append("table_name")
    if cfg.bdr_mode:
        read_cols.append("write_source")
    # at most one map batch: the plan would add no map-side parallelism,
    # only planning, scheduling and a shuffle
    task = ep.fmt == "parquet" and ep.est_rows <= cfg.batch_size
    chain = _epoch_chain(cfg, feed, prev_parts, ep, epoch_no, allow_fold,
                         vers, image_fields, task=task)
    if task:
        rows, secs = ray.get(_epoch_task.remote(
            _parquet_read(cfg, feed, ep, read_cols), chain))
        stats = "single-task driver: " + ", ".join(
            f"{name} {s:.4f}s" for name, s in secs)
    else:
        out_ds = _run_plan(_read_epoch(cfg, feed, ep, read_cols), chain,
                           cfg)
        rows = out_ds.take_all()
        stats = out_ds.stats() if cfg.collect_stats else ""
    if cfg.collect_stats:
        with _STATS_LOCK:
            LAST_EPOCH_STATS.append(stats)
    return rows


def _epoch_chain(cfg: ReplayConfig, feed: Changefeed, prev_parts: dict,
                 ep: Epoch, epoch_no: int, allow_fold: bool,
                 vers: dict[str, int], image_fields: list, *,
                 task: bool) -> list[Step]:
    """The epoch's stage chain, declared once for both drivers; `task`
    picks the single-task driver's shape of the reduce and merge steps."""
    table_ids = feed.table_ids
    chain = [Step("normalize", Normalize(
        image_fields, ep.lo, ep.hi, cfg.ignore_sources, cfg.validate,
        # codecs carry no commit_ts pushdown: Normalize range-filters
        enforce_range=ep.fmt != "parquet", masks=_event_masks(cfg),
        tables=frozenset(vers) if feed.layout.multitable else None))]
    # combiner + exchange key in one fused pass (hash computed once). On
    # the task the batch is the whole epoch, so the same pass is the exact
    # final reduce; on the plan, under auto_salt, it also measures per-key
    # batch shares and salts ONLY detected-hot keys (splitter_write.go
    # analog)
    salt = cfg.auto_salt and cfg.precompact and not task
    chain.append(Step("split_combine", lambda t: split_combine(
        t, table_ids, cfg.num_partitions, precompact=cfg.precompact,
        hot_share=AUTO_SALT_SHARE if salt else None,
        salt_factor=AUTO_SALT_FACTOR, collation=cfg.key_collation,
        exact=task)))
    if salt:
        # a (part, salt) pre-reduce collapses a hot key's sub-groups in
        # parallel before the final per-(table, part) merge
        chain.append(Step("presalt_reduce", lambda t: compact_partition(
            t.drop_columns(["salt"]), collation=cfg.key_collation),
            ("part", "salt")))

    prev_by_table: dict[str, dict] = {}
    for key, meta in prev_parts.items():
        t_name, p = feed.layout.split_key(key)
        prev_by_table.setdefault(t_name, {})[p] = meta
    merges = {table_ids[t]: (t, MergeApply(
        registry_json=feed.registries[t].to_json(),
        prev_parts=prev_by_table.get(t, {}), epoch=epoch_no,
        epoch_ver=ver, watermark_ts=ep.hi,
        lake_data_dir=feed.layout.data_dir(cfg.lake_dir, t),
        sink_mode=cfg.sink_mode, compact_every=cfg.compact_every,
        allow_fold=allow_fold, online_validate=cfg.online_validate,
        collation=cfg.key_collation)) for t, ver in vers.items()}
    P = cfg.num_partitions

    def local(g: pa.Table, tid: int) -> pa.Table:
        # the exchange key tid * P + part back to the table's own part
        if not tid:
            return g
        part = g["part"].to_numpy() - np.uint32(tid * P)
        return g.set_column(g.schema.get_field_index("part"), "part",
                            pa.array(part))

    def tagged(out: pa.Table, table: str) -> pa.Table:
        return out.append_column("table", pa.array([table] * out.num_rows))

    def merge_apply(g: pa.Table) -> pa.Table:
        # the (table, part) dispatch: key tid * P + part routes the group
        # to its table's MergeApply (registry, schema version, previous
        # chain and data dir all per table) — the per-table sink task
        tid = int(g["part"][0].as_py()) // P
        table, merge = merges[tid]
        return tagged(merge(local(g, tid)), table)

    def merge_epoch(t: pa.Table) -> pa.Table:
        # the task's whole epoch, sorted by (part, doc_id): one slice per
        # table, each merged by its table's MergeApply without a re-reduce
        if not t.num_rows:
            return t                     # nothing to merge, no stats rows
        tids = t["part"].to_numpy() // np.uint32(P)
        cuts = [0, *(np.flatnonzero(tids[1:] != tids[:-1]) + 1).tolist(),
                len(tids)]
        outs = []
        for a, b in zip(cuts, cuts[1:]):
            table, merge = merges[int(tids[a])]
            outs.append(tagged(merge.apply_reduced(
                local(t.slice(a, b - a), int(tids[a]))), table))
        return pa.concat_tables(outs)

    chain.append(Step("merge_apply", merge_epoch) if task
                 else Step("merge_apply", merge_apply, ("part",)))
    return chain


def _run_plan(ds: "ray.data.Dataset", chain: list[Step],
              cfg: ReplayConfig) -> "ray.data.Dataset":
    """The Ray Data driver: each map step a map_batches, each group step a
    groupby(keys).map_groups (THE shuffle)."""
    for step in chain:
        if not step.keys:
            ds = ds.map_batches(step.fn, batch_format="pyarrow",
                                batch_size=cfg.batch_size)
        else:
            ds = ds.groupby(list(step.keys)).map_groups(
                step.fn, batch_format="pyarrow")
    return ds


@ray.remote
def _epoch_task(read: ParquetRead,
                chain: list[Step]) -> tuple[list[dict], list[tuple]]:
    """The single-task driver: the epoch's read and every step in one Ray
    task (a worker death is retried by Ray like any plan task) → (stats
    rows, per-step seconds)."""
    t0 = time.perf_counter()
    t = read.table()
    secs = [("read", time.perf_counter() - t0)]
    for step in chain:
        t0 = time.perf_counter()
        assert not step.keys, step.name
        t = step.fn(t)
        secs.append((step.name, time.perf_counter() - t0))
    return t.to_pylist(), secs


def _table_progress(feed: Changefeed, prev: Manifest, ep: Epoch,
                    epoch_no: int, parts: dict, touched: set,
                    syncpoint_interval: int) -> dict:
    """The commit's progress record. A one-table lake's progress IS the
    manifest watermark/schema_ver; it records skipped non-schema DDLs and
    the syncpoint tag. A multi-table lake records per-table progress
    side by side and executes DROP TABLE barriers (removing the table's
    chains from `parts`)."""
    if not feed.layout.multitable:
        # recognize-and-skip note for non-schema DDL barriers crossed by
        # this commit (add/drop index, exchange partition — metadata-only
        # for the lake): the skip is recorded HERE, in the durable
        # manifest, so it is auditable rather than silent
        # (cdc/owner/ddl_manager.go's treatment of non-schema-affecting jobs)
        from ..stages.schema_evo import NON_SCHEMA_DDLS, OPERATOR_SKIP_DDL
        skipped = [f"{d.ddl_type}:{d.column}" for d in feed.registries[""].ddls
                   if prev.schema_ver < d.schema_ver <= ep.schema_ver
                   and (d.ddl_type in NON_SCHEMA_DDLS
                        or d.ddl_type == OPERATOR_SKIP_DDL)]
        return {**({"ddl_skipped": skipped} if skipped else {}),
                # consistent-snapshot tag (cdc/owner syncpoint): this
                # manifest's watermark IS the aligned ts
                "syncpoint": bool(syncpoint_interval
                                  and ep.hi % syncpoint_interval == 0)}
    tstats = {t: dict(v) for t, v in prev.stats.get("tables", {}).items()}
    dropped_notes = dict(prev.stats.get("dropped_tables", {}))
    for t_name, reg in feed.registries.items():
        lc = feed.lifecycle.get(t_name, TableLifecycle())
        if lc.created_ts > ep.hi or t_name in dropped_notes:
            continue                         # not born yet / already gone
        if lc.dropped_ts is not None and lc.dropped_ts <= ep.hi:
            # DROP TABLE executed at its barrier: the table's chains leave
            # the manifest; a durable note survives so later readers get a
            # "dropped at ts" error instead of "never existed"
            for key in [k for k in parts
                        if feed.layout.split_key(k)[0] == t_name]:
                del parts[key]
            tstats.pop(t_name, None)
            dropped_notes[t_name] = {"dropped_ts": lc.dropped_ts,
                                     "epoch": epoch_no}
            continue
        ts = tstats.setdefault(t_name, {"watermark_ts": 0, "schema_ver": 1,
                                        "last_touched_epoch": 0,
                                        **({"created_ts": lc.created_ts}
                                           if lc.created_ts else {})})
        # resolved-ts progress advances for EVERY live table (an
        # event-free epoch is still progress — TiCDC advances table
        # checkpoints on resolved ts); last_touched_epoch is the sink-side
        # per-table progress marker
        ts["watermark_ts"] = ep.hi
        ts["schema_ver"] = reg.version_at(ep.hi)
        if t_name in touched:
            ts["last_touched_epoch"] = epoch_no
    return {"tables": tstats,
            **({"dropped_tables": dropped_notes} if dropped_notes else {})}


def _commit_epoch(lake: LakeState, feed: Changefeed, prev: Manifest,
                  ep: Epoch, epoch_no: int, stats_rows: list[dict],
                  cfg: ReplayConfig) -> tuple[Manifest, EpochResult]:
    # build the next manifest: touched chains get a new base file
    # (fold/cow) or an appended delta (MoR); untouched chains carry over
    parts = dict(prev.parts)
    touched = set()
    n_winners = 0  # surviving per-key winners, counted from per-chain stats
    for r in stats_rows:
        key = feed.layout.part_key(r["table"], r["part"])
        touched.add(r["table"])
        if r["is_delta"]:
            pm = dict(parts.get(key) or
                      {"path": None, "schema_ver": r["schema_ver"],
                       "rows": 0, "bytes": 0, "deltas": []})
            pm["deltas"] = list(pm.get("deltas", [])) + [
                {"path": r["path"], "schema_ver": r["schema_ver"],
                 "epoch": epoch_no,
                 **({"checksum": r["checksum"]} if r.get("checksum") else {})}]
            pm["watermark_ts"] = r["watermark_ts"]
        else:
            pm = {"path": r["path"], "schema_ver": r["schema_ver"],
                  "rows": r["rows"], "watermark_ts": r["watermark_ts"],
                  "bytes": r["bytes"], "deltas": []}
            if r.get("checksum"):
                pm["checksum"] = r["checksum"]
        parts[key] = pm
        n_winners += r["delta_events"]
    progress = _table_progress(feed, prev, ep, epoch_no, parts, touched,
                               cfg.syncpoint_interval)
    schema_ver = feed.layout.schema_ver(feed.registries, ep.hi)
    m = Manifest(epoch=epoch_no, watermark_ts=ep.hi, schema_ver=schema_ver,
                 num_partitions=prev.num_partitions,
                 registry_json=feed.layout.registry_json(feed.registries),
                 parts=parts,
                 segments_applied=sorted(set(prev.segments_applied) | set(ep.files)),
                 stats={**({"key_collation": cfg.key_collation}
                           if cfg.key_collation != "binary" else {}),
                        "events": ep.est_rows, "winners": n_winners,
                        "parts_touched": len(stats_rows),
                        **progress, "lo": ep.lo, "hi": ep.hi},
                 hash_fingerprint=prev.hash_fingerprint)
    lake.commit(m)  # THE commit point: epoch becomes durable exactly here
    rows_total = sum(max(meta.get("rows", 0), 0) for meta in parts.values())
    return m, EpochResult(epoch_no, ep.lo, ep.hi, schema_ver, ep.est_rows,
                          len(stats_rows), rows_total)


def _drive_epochs(cfg: ReplayConfig, lake: LakeState, feed: Changefeed,
                  prev: Manifest, epochs: list[Epoch]) -> ReplayResult:
    if prev.num_partitions and prev.num_partitions != cfg.num_partitions:
        raise ValueError(f"lake P={prev.num_partitions} != config "
                         f"P={cfg.num_partitions}; repartitioning the lake "
                         "requires an explicit re-bootstrap")
    from ..model import hash_fingerprint
    if prev.hash_fingerprint and prev.hash_fingerprint != hash_fingerprint():
        raise ValueError(
            f"key-hash fingerprint mismatch: lake was laid out with "
            f"{prev.hash_fingerprint!r}, this process computes "
            f"{hash_fingerprint()!r} — a hash-function/library change would "
            "mis-route keys into existing partitions; re-bootstrap the lake")
    if feed.layout.multitable and (cfg.shard_key_mapping
                                   or cfg.remount_shards is not None):
        raise ValueError(
            "shard_key_mapping / remount_shards are set by single-table "
            "sharded replay only; a multi-table changefeed does not apply them")
    if cfg.collect_stats:
        with _STATS_LOCK:
            LAST_EPOCH_STATS.clear()
    result = ReplayResult()
    next_no = prev.epoch + 1

    k = max(1, cfg.pipeline_epochs) if cfg.sink_mode == "mor" else 1
    i = 0
    while i < len(epochs):
        group = epochs[i:i + k]
        if len(group) == 1:
            stats_lists = [_execute_epoch(cfg, feed, prev.parts, group[0],
                                          next_no)]
        else:
            # concurrent group: every epoch appends independent MoR deltas
            # (folds deferred ⇒ no epoch reads another's output); pipelines
            # overlap, commits stay strictly ordered
            from concurrent.futures import ThreadPoolExecutor

            # pre-warm lazy imports Ray touches inside read planning —
            # concurrent first-imports from threads race half-initialized
            # modules (observed: fsspec.implementations.http)
            try:
                import fsspec.implementations.http  # noqa: F401
            except Exception:
                pass
            with ThreadPoolExecutor(max_workers=len(group)) as pool:
                futs = [pool.submit(_execute_epoch, cfg, feed, prev.parts,
                                    ep, next_no + j, False)
                        for j, ep in enumerate(group)]
                stats_lists = [f.result() for f in futs]
        for ep, stats_rows in zip(group, stats_lists):
            prev, er = _commit_epoch(lake, feed, prev, ep, next_no,
                                     stats_rows, cfg)
            result.epochs.append(er)
            next_no += 1
        i += len(group)
    return result


def tail_epochs(step, poll_secs: float = 0.5,
                idle_timeout: float | None = None,
                stop_file: str | None = None,
                max_epochs: int | None = None) -> ReplayResult:
    """The tailing loop (the changefeed processor loop): `step(budget)`
    replays up to `budget` new epochs (None = all) — every replay call IS
    already incremental (resume ≡ next epoch), so tailing is just that
    call in a poll loop. Stops when `idle_timeout` seconds pass with no new
    committed work, when `stop_file` appears (the operator's
    pause/remove-changefeed signal), or after `max_epochs` total."""
    result = ReplayResult()
    idle_since = time.monotonic()
    while True:
        if stop_file and os.path.exists(stop_file):
            break
        budget = None
        if max_epochs is not None:
            budget = max_epochs - len(result.epochs)
            if budget <= 0:
                break
        r = step(budget)
        if r.epochs:
            result.epochs.extend(r.epochs)
            idle_since = time.monotonic()
        else:
            if idle_timeout is not None and \
                    time.monotonic() - idle_since >= idle_timeout:
                break
            time.sleep(poll_secs)
    return result


def run_replay(cfg: ReplayConfig, upto_ts: int | None = None,
               max_epochs: int | None = None) -> ReplayResult:
    """Replay all WAL segments beyond the last checkpoint into the lake.
    Safe to call repeatedly / after a crash: resumes from the latest
    committed manifest (resume ≡ next epoch, SURVEY.md §3.2)."""
    lake = LakeState(cfg.lake_dir)
    # segments before the schedule: a live indexer publishes a segment's
    # DDLs before its meta, so every listed segment's barriers are known
    segments = list_segments(cfg.wal_dir)
    registry = load_registry(cfg.wal_dir)
    prev = lake.latest()
    assert prev is not None, "call bootstrap() first"

    epochs = plan_epochs(segments, registry, from_ts=prev.watermark_ts,
                         upto_ts=upto_ts, **_plan_caps(cfg))
    if max_epochs is not None:
        epochs = epochs[:max_epochs]
    return _drive_epochs(cfg, lake, Changefeed({"": registry}), prev, epochs)


def tail_replay(cfg: ReplayConfig, poll_secs: float = 0.5,
                idle_timeout: float | None = None,
                stop_file: str | None = None,
                max_epochs: int | None = None) -> ReplayResult:
    """Continuous tailing daemon: `run_replay` in the `tail_epochs` poll
    loop. Restart later to resume from the checkpoint — identical
    semantics to any crash/resume."""
    return tail_epochs(lambda budget: run_replay(cfg, max_epochs=budget),
                       poll_secs, idle_timeout, stop_file, max_epochs)


def merge_optimistic_registries(regs: list[SchemaRegistry]) -> SchemaRegistry:
    """Synthesize the optimistic shard-merge target schema (DM's
    dm/pkg/shardddl/optimism coordination, re-expressed for the lake):
    every shard must eventually apply the same logical DDL set, but each at
    its OWN binlog position. The synthesized schedule applies an
    `add_column` at the EARLIEST shard barrier (rows from shards that have
    not added it yet backfill the column default) and a `drop_column` at
    the LATEST shard barrier (the column survives until the last shard
    dropped it) — the lattice-join rule optimism's schema tracker computes.

    Only add/drop are coordinated optimistically; a `modify_column` (type
    change) is exactly the conflict optimism cannot auto-resolve and is
    rejected, as is a shard whose logical DDL set diverges."""
    def ident(d):
        return (d.ddl_type, d.column, d.default)

    for r in regs:
        kinds = {d.ddl_type for d in r.ddls}
        if not kinds <= {"add_column", "drop_column"}:
            raise ValueError(
                f"optimistic shard-merge coordinates add/drop only; got "
                f"{kinds - {'add_column', 'drop_column'}}")
        ids = [ident(d) for d in r.ddls]
        assert len(ids) == len(set(ids)), "duplicate DDL within one shard"
    ref = sorted(ident(d) for d in regs[0].ddls)
    for i, r in enumerate(regs[1:], 1):
        if sorted(ident(d) for d in r.ddls) != ref:
            raise ValueError(
                f"shard {i} declares a different logical DDL set than shard "
                "0 — optimistic shard-merge requires eventually-identical "
                "migrations (optimism's schema-compatibility rule)")
    merged_bts = {}
    for r in regs:
        for d in r.ddls:
            k = ident(d)
            cur = merged_bts.get(k)
            pick = min if d.ddl_type == "add_column" else max
            merged_bts[k] = d.barrier_ts if cur is None else pick(cur, d.barrier_ts)
    ordered = sorted(merged_bts.items(), key=lambda kv: (kv[1], kv[0][1]))
    return SchemaRegistry([
        DDL(bts, t, col, dflt, i + 2)
        for i, ((t, col, dflt), bts) in enumerate(ordered)])


def _remount_table(t: pa.Table, shard_reg: SchemaRegistry,
                   merged_reg: SchemaRegistry) -> pa.Table:
    """Re-mount one shard segment's events under the synthesized schema
    (the optimistic syncer's event rewrite): per event, image columns the
    shard has at its own version pass through; columns the merged schema
    already has but this shard has not added yet are backfilled with the
    merged default (null for deletes — deletes carry no image); columns
    outside the merged version at that ts ride as null (never projected).
    `schema_ver` is rewritten to the merged version. Vectorized over runs
    of constant (shard_ver, merged_ver) — almost always one run/segment."""
    from ..model import OP_DELETE
    from ..stages.normalize import EVENT_KEY_COLS

    t = t.take(pc.sort_indices(t, sort_keys=[("commit_ts", "ascending"),
                                             ("start_ts", "ascending")]))
    n = t.num_rows

    # superset image fields: v1 columns + every merged add, in merged order
    sup = list(merged_reg.schema(1))
    seen = {f.name for f in sup}
    for d in merged_reg.ddls:
        if d.ddl_type == "add_column" and d.col_name not in seen:
            sup.append(pa.field(d.col_name, d.col_type))
            seen.add(d.col_name)
    sup = [f for f in sup if f.name != "doc_id"]

    if n == 0:   # resolved-ts heartbeat: emit the uniform superset layout
        cols, names = [], []
        for c in EVENT_KEY_COLS + ["pre_tokens"]:
            if c in t.column_names:
                names.append(c); cols.append(t[c])
        for f in sup:
            names.append(f.name); cols.append(pa.nulls(0, f.type))
        names.append("schema_ver"); cols.append(pa.nulls(0, pa.int32()))
        return pa.Table.from_arrays(cols, names=names)

    cts = t["commit_ts"].to_numpy(zero_copy_only=False).astype(np.int64)
    def vers(reg):
        bar = np.array(reg.barriers(), np.int64)
        if not len(bar):
            return np.ones(n, np.int64)
        return 1 + (cts[:, None] > bar[None, :]).sum(axis=1)
    s_ver, m_ver = vers(shard_reg), vers(merged_reg)

    key = s_ver * (int(m_ver.max()) + 1) + m_ver
    cuts = (np.flatnonzero(np.diff(key)) + 1).tolist()
    pieces = []
    for a, b in zip([0] + cuts, cuts + [n]):
        sub = t.slice(a, b - a)
        sv, mv = int(s_ver[a]), int(m_ver[a])
        shard_cols = set(shard_reg.schema(sv).names)
        merged_cols = set(merged_reg.schema(mv).names)
        defaults = merged_reg.defaults(mv)
        cols, names = [], []
        for c in EVENT_KEY_COLS + ["pre_tokens"]:
            if c in sub.column_names:
                names.append(c); cols.append(sub[c])
        for f in sup:
            names.append(f.name)
            if f.name in shard_cols and f.name in sub.column_names:
                col = sub[f.name]
                cols.append(col.cast(f.type) if col.type != f.type else col)
            elif f.name in merged_cols and defaults.get(f.name) is not None:
                fill = pa.array([defaults[f.name]] * sub.num_rows)
                if fill.type != f.type:
                    fill = fill.cast(f.type)
                not_del = pc.not_equal(sub["op"], pa.scalar(OP_DELETE, pa.uint8()))
                cols.append(pc.if_else(not_del, fill, pa.nulls(sub.num_rows, f.type)))
            else:
                cols.append(pa.nulls(sub.num_rows, f.type))
        names.append("schema_ver")
        cols.append(pa.array(np.full(sub.num_rows, mv, np.int32)))
        pieces.append(pa.Table.from_arrays(cols, names=names))
    return pa.concat_tables(pieces) if pieces else t


def shard_stream(wal_dirs: list[str], upto_ts: int | None = None):
    """The merged change stream of N shard WALs → (every shard's segments
    in watermark order, frontier), or None while any shard has delivered
    nothing. The frontier is min over shards of their last watermark (the
    A1 min-over-spans rule), capped at `upto_ts`. A shard with ZERO
    segments is frontier-holding, not ignorable: its data (at unknown
    commit_ts) has simply not been delivered yet, and committing past it
    would let plan_epochs' from_ts predicate filter those events out
    forever on catch-up (silent loss)."""
    shard_segs = [list_segments(d) for d in wal_dirs]
    if any(not s for s in shard_segs):
        return None
    frontier = min(s[-1].watermark_ts for s in shard_segs)
    if upto_ts is not None:
        frontier = min(frontier, upto_ts)
    return sorted((seg for segs in shard_segs for seg in segs),
                  key=lambda s: (s.watermark_ts, s.path)), frontier


def _run_replay_optimistic(cfg: ReplayConfig, wal_dirs: list[str],
                           upto_ts: int | None) -> ReplayResult:
    """Optimistic shard-merge: synthesize the merged registry and drive
    the standard epoch engine over the UNION of the raw shard segments,
    remounting each batch under the merged schema AT READ TIME
    (RemountStage via cfg.remount_shards — no derived WAL is ever written;
    r3 materialized a `_remount/` copy of the whole change stream first).
    Column mapping applies inside the remount stage (per shard, where
    shard identity is explicit); the epoch engine must not re-map, so the
    config is stripped before _drive_epochs. Resume needs no remount
    state: epochs past the committed watermark simply re-read the raw
    shard files."""
    lake = LakeState(cfg.lake_dir)
    key_mapping = cfg.shard_key_mapping
    if key_mapping:
        cfg = dataclasses.replace(cfg, shard_key_mapping=None)
    regs = [load_registry(d) for d in wal_dirs]
    merged = merge_optimistic_registries(regs)
    prev = lake.latest()
    assert prev is not None, "call bootstrap() first"

    stream = shard_stream(wal_dirs, upto_ts)
    if stream is None:
        return ReplayResult()
    merged_segs, frontier = stream
    assert all(s.format == "parquet" for s in merged_segs), \
        "optimistic shard-merge expects parquet WAL shards"
    remount_map: dict[str, tuple] = {}
    for d, reg in zip(wal_dirs, regs):
        ad = os.path.abspath(d)
        remount_map[ad] = (reg.to_json(),
                           key_mapping.get(ad) if key_mapping else None)
    cfg = dataclasses.replace(cfg, remount_shards=remount_map)

    epochs = plan_epochs(merged_segs, merged, from_ts=prev.watermark_ts,
                         upto_ts=frontier, **_plan_caps(cfg))
    return _drive_epochs(cfg, lake, Changefeed({"": merged}), prev, epochs)


def run_replay_sharded(cfg: ReplayConfig, wal_dirs: list[str],
                       upto_ts: int | None = None,
                       mode: str = "pessimistic",
                       key_mappings: list | None = None) -> ReplayResult:
    """Shard-merge replay (dm/syncer/shardddl pessimistic coordination
    analog): N upstream WAL streams merge into ONE target table.
    `mode="optimistic"` instead coordinates divergent per-shard DDL
    schedules via the synthesized merged schema (see
    merge_optimistic_registries / _run_replay_optimistic).

    - All shards must declare the SAME DDL schedule; a divergent schedule
      is exactly the conflict the pessimist blocks on — rejected upfront
      (shardddl/pessimist.go semantics: a shard's DDL must match the owner's
      before any shard may proceed).
    - The merged frontier is min over shards of their last watermark (the
      A1 min-over-spans rule): an epoch — and therefore any DDL barrier —
      only commits once EVERY shard has delivered up to it. A lagging
      pre-barrier shard holds the barrier back; catch-up is just calling
      this again after new segments land (resume ≡ next epoch).
    - Within an epoch the union of shard segments is one read: per-key
      ordering needs no cross-shard coordination because the compactor
      sorts by (commit_ts, start_ts) globally after the shuffle.
    - `key_mappings` (DM pkg/column-mapping analog): one ColumnMappingRule
      per shard, rewriting handle keys at read time — the "partition id"
      rule that keeps overlapping shard-local PKs from colliding in the
      merged table. The base lake must already hold MAPPED keys (DM's
      full load also runs through column mapping).
    """
    assert mode in ("pessimistic", "optimistic"), mode
    if key_mappings is not None:
        assert len(key_mappings) == len(wal_dirs), \
            "key_mappings must give exactly one rule per shard"
        cfg = dataclasses.replace(cfg, shard_key_mapping={
            os.path.abspath(d): r for d, r in zip(wal_dirs, key_mappings)})
    if mode == "optimistic":
        return _run_replay_optimistic(cfg, wal_dirs, upto_ts)
    lake = LakeState(cfg.lake_dir)
    registries = [load_registry(d) for d in wal_dirs]
    ref = registries[0].to_json()
    for d, r in zip(wal_dirs[1:], registries[1:]):
        if r.to_json() != ref:
            raise ValueError(
                f"shard {d} declares a different DDL schedule than "
                f"{wal_dirs[0]} — pessimistic shard-merge requires identical "
                "migrations on every shard before any may proceed")
    registry = registries[0]
    prev = lake.latest()
    assert prev is not None, "call bootstrap() first"

    stream = shard_stream(wal_dirs, upto_ts)
    if stream is None:
        return ReplayResult()
    merged, frontier = stream
    epochs = plan_epochs(merged, registry, from_ts=prev.watermark_ts,
                         upto_ts=frontier, **_plan_caps(cfg))
    return _drive_epochs(cfg, lake, Changefeed({"": registry}), prev, epochs)


def gc_wal(wal_dir: str, lake_dir: str) -> dict:
    """Remove WAL segments fully behind the lake's committed watermark
    (redo-log GC analog, cdc/redo meta GC): a segment is deletable only
    when its max_ts <= the manifest watermark AND it is recorded in
    segments_applied — resume re-planning never needs it again."""
    lake = LakeState(lake_dir)
    m = lake.latest()
    assert m is not None, "no committed manifest"
    applied = set(m.segments_applied)
    removed = 0
    for s in list_segments(wal_dir):
        if s.max_ts <= m.watermark_ts and s.path in applied:
            os.remove(s.path)
            meta = os.path.join(wal_dir, f"seq={s.seq:05d}.meta.json")
            if os.path.exists(meta):
                os.remove(meta)
            removed += 1
    return {"segments_removed": removed, "watermark_ts": m.watermark_ts}


def _carried_stats(m: Manifest) -> dict:
    """Manifest stats a maintenance commit must keep: per-table progress
    and the key collation every later fold compares keys under."""
    return {k: m.stats[k] for k in ("tables", "dropped_tables",
                                    "key_collation") if k in m.stats}


def compact_chains(lake_dir: str, select=None,
                   count_key: str = "parts_folded") -> dict:
    """Offline/background MoR compaction job for either lake kind: fold
    every chain with pending deltas (and `select(key)` true) into a fresh
    base under ITS table's registry, committed schema version and the
    lake's key collation, then commit one manifest epoch — compaction
    decoupled from replay (the background-compaction service a lake needs
    when `compact_every` is set high to keep ingest latency flat). One Ray
    task per chain (distributed, no shuffle — each task reads only its own
    chain); the manifest commit is the usual atomic rename, so a crash
    mid-compaction changes nothing."""
    from ..stages.merge import _atomic_write, fold_part

    lake = LakeState(lake_dir)
    m = lake.latest()
    assert m is not None, "no committed manifest"
    layout = LakeLayout.of(m)
    tables = layout.committed_tables(m)
    collation = m.stats.get("key_collation", "binary")
    todo = [key for key, meta in m.parts.items()
            if meta.get("deltas") and (select is None or select(key))]
    if not todo:
        return {count_key: 0, "epoch": m.epoch}

    epoch_no = m.epoch + 1
    items = []
    for key in todo:
        t_name, p = layout.split_key(key)
        reg_json, ver = tables[t_name]
        items.append({"key": key, "reg_json": reg_json, "ver": ver,
                      "meta_json": json.dumps(m.parts[key]),
                      "path": os.path.join(layout.data_dir(lake_dir, t_name),
                                           f"part={p}",
                                           f"epoch-{epoch_no:06d}.parquet")})

    def fold_write(t: pa.Table) -> pa.Table:
        out = {"key": [], "rows": [], "bytes": []}
        for row in t.to_pylist():
            folded = fold_part(json.loads(row["meta_json"]),
                               SchemaRegistry.from_json(row["reg_json"]),
                               int(row["ver"]), collation)
            _atomic_write(folded, row["path"])
            out["key"].append(row["key"])
            out["rows"].append(folded.num_rows)
            out["bytes"].append(folded.nbytes)
        return pa.table(out)

    stats = ray.data.from_items(
        items, override_num_blocks=max(1, len(items))) \
        .map_batches(fold_write, batch_format="pyarrow",
                     batch_size=1).take_all()

    new_parts = dict(m.parts)
    by_key = {it["key"]: it for it in items}
    for r in stats:
        old = new_parts[r["key"]]
        new_parts[r["key"]] = {
            "path": by_key[r["key"]]["path"],
            "schema_ver": int(by_key[r["key"]]["ver"]), "rows": r["rows"],
            "watermark_ts": old.get("watermark_ts", m.watermark_ts),
            "bytes": r["bytes"], "deltas": []}
    m2 = Manifest(epoch=epoch_no, watermark_ts=m.watermark_ts,
                  schema_ver=m.schema_ver, num_partitions=m.num_partitions,
                  registry_json=m.registry_json, parts=new_parts,
                  segments_applied=m.segments_applied,
                  stats={**_carried_stats(m), "compaction": True,
                         count_key: len(stats)},
                  hash_fingerprint=m.hash_fingerprint)
    lake.commit(m2)
    return {count_key: len(stats), "epoch": epoch_no}


def compact_lake(lake_dir: str, parts: list[int] | None = None) -> dict:
    """`compact_chains` on a one-table lake, optionally limited to
    `parts`."""
    keep = None if parts is None else {str(p) for p in parts}
    return compact_chains(
        lake_dir, None if keep is None else keep.__contains__)


def repartition_lake(lake_dir: str, new_p: int) -> dict:
    """Re-lay the lake out with a different partition count — the keyspan
    split/merge scale-out move (cdc/scheduler/internal/v3/keyspan splitters
    re-balance spans across captures; here the lake's hash space re-buckets
    so a bigger cluster gets more parallel merge lanes). Offline job
    between epochs: replay resumes with `num_partitions=new_p` afterwards.

    Paths, all committing ONE atomic manifest epoch (crash ⇒ no-op):
    - new_p % P == 0 (split, the common scale-OUT): shuffle-free — a key in
      old part p can only re-hash to {p, p+P, ...}, so one task per OLD
      partition folds its chain and writes its ≤ new_p/P children directly.
    - P % new_p == 0 (merge, scale-IN): shuffle-free — one task per NEW
      partition folds exactly its P/new_p parents and concatenates.
    - otherwise: one all-to-all exchange (read_lake → re-hash →
      groupby(part) writers) — unavoidable for a general re-hash.
    """
    from ..stages.merge import _atomic_write, fold_part

    lake = LakeState(lake_dir)
    m = lake.latest()
    assert m is not None, "no committed manifest"
    P = m.num_partitions
    assert new_p >= 1
    if new_p == P:
        return {"num_partitions": P, "epoch": m.epoch, "moved": 0}
    registry = SchemaRegistry.from_json(m.registry_json)
    reg_json, cur_ver = registry.to_json(), m.schema_ver
    # keys route by their collation form, exactly as the engine hashes them
    collation = m.stats.get("key_collation", "binary")
    epoch_no = m.epoch + 1
    data_dir = os.path.join(lake_dir, "data")
    wm = m.watermark_ts

    def write_piece(t: pa.Table, c: int) -> dict:
        path = os.path.join(data_dir, f"part={c}",
                            f"epoch-{epoch_no:06d}.parquet")
        _atomic_write(t, path)
        return {"part": c, "path": path, "rows": t.num_rows,
                "bytes": t.nbytes, "schema_ver": cur_ver,
                "watermark_ts": wm}

    if new_p % P == 0:            # split: task per OLD part, no shuffle
        items = [{"old": int(p), "meta_json": json.dumps(meta)}
                 for p, meta in m.parts.items()]

        def split_write(tb: pa.Table) -> pa.Table:
            reg = SchemaRegistry.from_json(reg_json)
            out = []
            for row in tb.to_pylist():
                folded = fold_part(json.loads(row["meta_json"]), reg, cur_ver,
                                   collation)
                child = hash_partition(
                    collation_key(folded["doc_id"], collation), new_p)
                for c in range(row["old"], new_p, P):
                    piece = folded.filter(pa.array(child == c))
                    if piece.num_rows:
                        out.append(write_piece(piece, c))
            return pa.Table.from_pylist(out) if out else pa.table(
                {"part": pa.array([], pa.int64())})

        stats = ray.data.from_items(items).map_batches(
            split_write, batch_format="pyarrow", batch_size=1).take_all()
    elif P % new_p == 0:          # merge: task per NEW part, no shuffle
        items = []
        for c in range(new_p):
            parents = [m.parts[str(p)] for p in range(c, P, new_p)
                       if str(p) in m.parts]
            if parents:
                items.append({"new": c, "metas_json": json.dumps(parents)})

        def merge_write(tb: pa.Table) -> pa.Table:
            reg = SchemaRegistry.from_json(reg_json)
            out = []
            for row in tb.to_pylist():
                folded = pa.concat_tables(
                    [fold_part(meta, reg, cur_ver, collation)
                     for meta in json.loads(row["metas_json"])])
                folded = folded.take(pc.sort_indices(
                    folded, sort_keys=[("doc_id", "ascending")]))
                if folded.num_rows:
                    out.append(write_piece(folded, int(row["new"])))
            return pa.Table.from_pylist(out) if out else pa.table(
                {"part": pa.array([], pa.int64())})

        stats = ray.data.from_items(items).map_batches(
            merge_write, batch_format="pyarrow", batch_size=1).take_all()
    else:                         # general re-hash: one all-to-all exchange
        ds = read_lake(lake_dir)

        def assign(t: pa.Table) -> pa.Table:
            return t.append_column("part", pa.array(hash_partition(
                collation_key(t["doc_id"], collation), new_p)))

        def part_write(t: pa.Table) -> pa.Table:
            c = int(t["part"][0].as_py())
            body = t.drop_columns(["part"])
            body = body.take(pc.sort_indices(
                body, sort_keys=[("doc_id", "ascending")]))
            return pa.Table.from_pylist([write_piece(body, c)])

        stats = ds.map_batches(assign, batch_format="pyarrow") \
            .groupby("part").map_groups(part_write, batch_format="pyarrow") \
            .take_all()

    parts = {str(r["part"]): {**{k: r[k] for k in
                                 ("path", "schema_ver", "rows",
                                  "watermark_ts", "bytes")}, "deltas": []}
             for r in stats if "path" in r and r.get("path")}
    m2 = Manifest(epoch=epoch_no, watermark_ts=wm, schema_ver=cur_ver,
                  num_partitions=new_p, registry_json=m.registry_json,
                  parts=parts, segments_applied=list(m.segments_applied),
                  stats={**_carried_stats(m), "repartitioned_from": P,
                         "parts_written": len(parts)},
                  hash_fingerprint=m.hash_fingerprint)
    lake.commit(m2)
    return {"num_partitions": new_p, "epoch": epoch_no,
            "parts_written": len(parts)}


def list_syncpoints(lake_dir: str) -> list[dict]:
    """Committed consistent-snapshot points (cdc/owner syncpoint analog):
    every manifest whose epoch was cut at an aligned ts. Each entry pins a
    manifest whose watermark EQUALS the sync ts — `read_lake(...,
    epoch=entry['epoch'])` materializes exactly that snapshot."""
    lake = LakeState(lake_dir)
    out = []
    for e in lake.committed_epochs():
        m = lake.load(e)
        if m.stats.get("syncpoint"):
            out.append({"ts": m.watermark_ts, "epoch": m.epoch,
                        "schema_ver": m.schema_ver})
    return out


def _pinned_manifest(lake_dir: str, wal_dir: str | None,
                     epoch: int | None) -> tuple[Manifest, SchemaRegistry]:
    """The manifest to read (`epoch` pins a committed one, default the
    latest) and its registry: the manifest's own registry makes the lake
    self-describing; a wal_dir override only matters for pre-registry
    manifests."""
    lake = LakeState(lake_dir)
    m = lake.latest() if epoch is None else lake.load(epoch)
    assert m is not None, "no committed manifest"
    registry = (SchemaRegistry.from_json(m.registry_json)
                if m.registry_json != "[]" or not wal_dir
                else load_registry(wal_dir))
    return m, registry


def fold_table(m: Manifest, table: str, registry: SchemaRegistry,
               ver: int) -> pa.Table:
    """One table's state at manifest `m`, folded in the caller: every
    chain of `table` (base ⊕ delta chain, in sorted key order) under
    `registry` at schema version `ver` and the lake's key collation,
    concatenated and sorted by doc_id. The read direction of both lake
    kinds (`lake_to_table`, `multitable.multitable_lake_to_table`)."""
    layout = LakeLayout.of(m)
    collation = m.stats.get("key_collation", "binary")
    pieces = [fold_part(meta, registry, ver, collation)
              for key, meta in sorted(m.parts.items())
              if layout.split_key(key)[0] == table]
    if not pieces:
        return registry.schema(ver).empty_table()
    out = pa.concat_tables(pieces)
    return out.take(pc.sort_indices(out, sort_keys=[("doc_id", "ascending")]))


def read_lake(lake_dir: str, wal_dir: str | None = None,
              epoch: int | None = None) -> ray.data.Dataset:
    """Lake table as a Dataset: one fold task per partition applies the
    MoR delta chain (and any pending schema cast) — the read half of the
    merge-on-read sink. CoW lakes (empty chains) reduce to a plain read.
    `epoch` pins a specific committed manifest (time travel to a
    syncpoint); default = latest."""
    m, registry = _pinned_manifest(lake_dir, wal_dir, epoch)
    reg_json = registry.to_json()
    cur_ver = m.schema_ver
    collation = m.stats.get("key_collation", "binary")

    metas = [meta for _, meta in sorted(m.parts.items(), key=lambda kv: int(kv[0]))]
    if not metas:
        return ray.data.from_arrow(registry.schema(cur_ver).empty_table())

    items = [{"meta_json": json.dumps(meta)} for meta in metas]

    def fold_batch(t: pa.Table) -> pa.Table:
        reg = SchemaRegistry.from_json(reg_json)
        outs = [fold_part(json.loads(s), reg, cur_ver, collation)
                for s in t["meta_json"].to_pylist()]
        return pa.concat_tables(outs)

    return ray.data.from_items(items).map_batches(fold_batch,
                                                  batch_format="pyarrow",
                                                  batch_size=1)


def lake_to_table(lake_dir: str, wal_dir: str | None = None,
                  epoch: int | None = None) -> pa.Table:
    """Materialize a one-table lake in the driver (tests/small outputs
    only), sorted by doc_id; a lake without rows raises "empty lake"."""
    m, registry = _pinned_manifest(lake_dir, wal_dir, epoch)
    t = fold_table(m, "", registry, m.schema_ver)
    if not t.num_rows:
        raise ValueError("empty lake")
    return t
