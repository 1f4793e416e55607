"""Co-partitioned merge-apply: base lake partition ⊕ compacted deltas.

The explicit version of the reference's implicit J2 join (the downstream DB
executes REPLACE/UPDATE/DELETE, cdc/sink/dmlsink/txn/mysql/mysql.go:598-608;
the storage sink defers to the consumer): base table and deltas share the
same hash(doc_id)%P layout, so the merge never shuffles the base — each
merge task touches ONLY its own partition's files (listed in the previous
manifest) and writes deterministic names (two-phase, see state/checkpoint.py).

Two sink modes (ReplayConfig.sink_mode):

- "mor" (merge-on-read, DEFAULT — the 100 TB shape): each epoch appends the
  partition's compacted winners as a small DELTA file
  (`delta-{epoch}.parquet`, op column kept for tombstones); per-epoch I/O is
  proportional to the CHANGE volume, not the table size. When a partition's
  delta chain reaches `compact_every`, that partition's merge task folds
  base+chain into a new base file (per-partition compaction, no extra
  shuffle). Readers fold base+deltas in LWW epoch order (read_lake).
- "cow" (copy-on-write): every touched partition rewrites its full file
  each epoch — simpler reads, heavy write amplification; kept for
  small/latency-insensitive lakes and for A/B correctness tests.

Merge rule per doc_id (REPLACE semantics = DM safe mode, §2.9):
  winner op == DELETE → row absent (tombstone; delete-of-missing is a no-op)
  winner op == INSERT/UPDATE → row := winner image (upsert-on-missing OK)
  no winner → base row survives (cast to the epoch's schema on touch)

Output rows are sorted by doc_id — deterministic files for byte-equality
judging (SURVEY.md §7 known-hard #7).
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..model import OP_DELETE, collation_key
from .compact import compact_partition
from .schema_evo import SchemaRegistry

#: non-image columns a delta file carries besides the key
DELTA_META_COLS = ["op", "commit_ts"]


def apply_winners(base: pa.Table, winners: pa.Table,
                  registry: SchemaRegistry, from_ver: int,
                  to_ver: int, collation: str = "binary") -> pa.Table:
    """base ⊕ one winner set (≤1 row per doc_id): anti-join survivors +
    non-tombstone images, images cast from their schema version. The
    anti-join compares keys in COLLATION form (a ci winner replaces any
    case-variant base row); the stored image keeps the winner's own
    spelling."""
    touched = pc.unique(collation_key(winners["doc_id"], collation))
    if base.num_rows:
        base = base.filter(pc.invert(pc.is_in(
            collation_key(base["doc_id"], collation), value_set=touched)))
    ups = winners.filter(pc.not_equal(winners["op"], OP_DELETE))
    ups = registry.cast_table(ups, from_ver, to_ver, force_project=True)
    return pa.concat_tables([base, ups]) if base.num_rows else ups


def _atomic_write(table: pa.Table, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + f".tmp.{os.getpid()}"
    pq.write_table(table, tmp, row_group_size=131072)
    os.replace(tmp, path)  # idempotent under task retry (deterministic content)


def _file_md5(path: str) -> str:
    import hashlib
    h = hashlib.md5()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def verify_chain(meta: dict, part: int) -> None:
    """Online-validator read-side check (dm/syncer/data_validator.go
    analog, made incremental): re-hash THIS partition's base + delta files
    against the checksums the committing epoch recorded; a mismatch means
    the lake was corrupted between commits — fail loudly before replaying
    on top of bad bytes. Runs inside the (distributed) merge task, so each
    epoch pays verification only for the partitions it touches."""
    for label, m in ([("base", meta)] if meta.get("path") else []) + \
            [("delta", d) for d in meta.get("deltas", [])]:
        want = m.get("checksum")
        if not want:
            continue                     # pre-flag files: nothing recorded
        got = _file_md5(m["path"])
        if got != want:
            raise ValueError(
                f"online validation failed: part={part} {label} file "
                f"{m['path']} checksum {got} != committed {want} — lake "
                "corrupted since its epoch was committed")


def fold_part(meta: dict, registry: SchemaRegistry, to_ver: int,
              collation: str = "binary") -> pa.Table:
    """Materialize one partition's current state: base ⊕ delta chain in
    epoch order, cast to `to_ver`, sorted by doc_id. The read half of MoR
    (the storage-consumer replay direction, cmd/storage-consumer/main.go)."""
    if meta.get("path"):
        base = pq.read_table(meta["path"])
        base = registry.cast_table(base, meta["schema_ver"], to_ver)
    else:
        base = registry.schema(to_ver).empty_table()
    for d in meta.get("deltas", []):
        w = pq.read_table(d["path"])
        base = apply_winners(base, w, registry, d["schema_ver"], to_ver,
                             collation)
    return base.take(pc.sort_indices(base, sort_keys=[("doc_id", "ascending")]))


class MergeApply:
    """Per-partition merge worker, used as the `map_groups` body of the
    groupby("part") shuffle. Stateful-ish config (registry, manifest parts,
    epoch, paths) is small and rides in the closure; the heavy state (base
    partition / delta chain) is read inside the task from the lake — the
    actor analog of the reference's per-table dmlWorkers
    (cdc/sink/dmlsink/cloudstorage/dml_worker.go)."""

    def __init__(self, *, registry_json: str, prev_parts: dict[str, dict],
                 epoch: int, epoch_ver: int, watermark_ts: int,
                 lake_data_dir: str, sink_mode: str = "mor",
                 compact_every: int = 8, allow_fold: bool = True,
                 online_validate: bool = False,
                 collation: str = "binary"):
        self.registry = SchemaRegistry.from_json(registry_json)
        self.prev_parts = prev_parts
        self.epoch = epoch
        self.epoch_ver = epoch_ver
        self.watermark_ts = watermark_ts
        self.lake_data_dir = lake_data_dir
        self.sink_mode = sink_mode
        self.compact_every = compact_every
        # pipelined (concurrent) epochs must not read lake state: folds are
        # deferred so every epoch's writes are independent delta appends
        self.allow_fold = allow_fold
        self.online_validate = online_validate
        self.collation = collation

    def __call__(self, deltas: pa.Table) -> pa.Table:
        part = int(deltas["part"][0].as_py())
        deltas = deltas.drop_columns(["part"])
        winners = compact_partition(deltas, collation=self.collation)
        prev = self.prev_parts.get(str(part), {})
        if self.online_validate and prev:
            verify_chain(prev, part)

        chain = prev.get("deltas", [])
        fold = self.allow_fold and (
            (self.sink_mode == "cow") or len(chain) + 1 >= self.compact_every)

        if fold:
            base = fold_part(prev, self.registry, self.epoch_ver,
                             self.collation) if prev else \
                self.registry.schema(self.epoch_ver).empty_table()
            out = apply_winners(base, winners, self.registry,
                                self.epoch_ver, self.epoch_ver,
                                self.collation)
            out = out.take(pc.sort_indices(out, sort_keys=[("doc_id", "ascending")]))
            path = os.path.join(self.lake_data_dir, f"part={part}",
                                f"epoch-{self.epoch:06d}.parquet")
            _atomic_write(out, path)
            rows, nbytes = out.num_rows, out.nbytes
        else:
            # MoR append: winners only — keep op + commit_ts + image columns
            image = [f.name for f in self.registry.schema(self.epoch_ver)]
            keep = DELTA_META_COLS + image
            out = winners.select([c for c in keep if c in winners.column_names])
            out = out.take(pc.sort_indices(out, sort_keys=[("doc_id", "ascending")]))
            path = os.path.join(self.lake_data_dir, f"part={part}",
                                f"delta-{self.epoch:06d}.parquet")
            _atomic_write(out, path)
            rows, nbytes = -1, out.nbytes  # live row count unknown without a fold

        checksum = _file_md5(path) if self.online_validate else ""
        ups = winners.filter(pc.not_equal(winners["op"], OP_DELETE))
        return pa.table({
            "part": pa.array([part], pa.int32()),
            "checksum": pa.array([checksum]),
            "path": pa.array([path]),
            "is_delta": pa.array([not fold]),
            "rows": pa.array([rows], pa.int64()),
            "bytes": pa.array([nbytes], pa.int64()),
            "delta_events": pa.array([winners.num_rows], pa.int64()),
            "upserts": pa.array([ups.num_rows], pa.int64()),
            "deletes": pa.array([winners.num_rows - ups.num_rows], pa.int64()),
            "schema_ver": pa.array([self.epoch_ver], pa.int32()),
            "watermark_ts": pa.array([self.watermark_ts], pa.int64()),
        })
