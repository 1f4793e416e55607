"""Normalize/mount stage: raw WAL batches → canonical epoch-schema events.

The columnar analog of the Mounter (cdc/entry/mounter.go:113-200): the
reference decodes raw KV bytes with the schema snapshot at CRTs-1 and runs a
16-worker pool (cdc/entry/mounter_group.go:36-104); here events arrive
pre-decoded from Parquet, so mounting collapses to projection onto the
epoch's image columns, domain validation, and (optionally) invariant checks —
a stateless vectorized `map_batches` body (the pool is free via Ray).

Also hosts the event filters (pkg/filter/filter.go:164-240 analog): drop
events by `source` value, by ts range or by keep-masks, and (for a
multi-table changefeed) reject rows of undeclared tables.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..model import OP_DELETE, OP_INSERT, OP_UPDATE

#: columns every event carries regardless of schema version
EVENT_KEY_COLS = ["op", "commit_ts", "start_ts", "doc_id", "new_doc_id"]


def epoch_event_columns(image_cols: list[str]) -> list[str]:
    """Columns to request from read_parquet for an epoch (prune at the read:
    never load image columns a later schema version dropped)."""
    return EVENT_KEY_COLS + image_cols


KEY_COL_TYPES = {
    "op": pa.uint8(), "commit_ts": pa.uint64(), "start_ts": pa.uint64(),
    "doc_id": pa.string(), "new_doc_id": pa.string(),
}


class Normalize:
    """Callable batch transform; constructed per epoch with that epoch's
    image fields, so the output schema is uniform across all batches.
    `enforce_range`/type-conformance cover sources without pushdown/typed
    schemas (JSONL change files — the canal-json decode analog, M10).

    `masks` are fn(pa.Table) -> boolean keep-mask callables, AND-composed
    over the same batch. `tables` is the set of declared tables of a
    multi-table changefeed: rows of any other table fail loudly (use a
    table filter to drop them, never silently), and `table_name` stays in
    the output for the (table, part) exchange. None = one-table feed."""

    def __init__(self, image_fields, lo: int, hi: int,
                 ignore_sources: frozenset[str] = frozenset(),
                 validate: bool = False, enforce_range: bool = False,
                 masks=(), tables: frozenset[str] | None = None):
        # accept names (legacy) or pa.Fields (typed conformance)
        self.image_cols = [f.name if isinstance(f, pa.Field) else f
                           for f in image_fields]
        self.types = dict(KEY_COL_TYPES)
        for f in image_fields:
            if isinstance(f, pa.Field):
                self.types[f.name] = f.type
        self.lo, self.hi = lo, hi
        self.ignore_sources = ignore_sources
        self.validate = validate
        self.enforce_range = enforce_range
        self.masks = list(masks)
        self.tables = tables
        if tables is not None:
            self.image_cols.append("table_name")
            self.types["table_name"] = pa.string()

    def __call__(self, t: pa.Table) -> pa.Table:
        if self.enforce_range:
            cts = t["commit_ts"]
            t = t.filter(pc.and_(pc.greater(cts, self.lo),
                                 pc.less_equal(cts, self.hi)))
        if self.validate:
            cts = t["commit_ts"]
            assert pc.all(pc.and_(pc.greater(cts, self.lo),
                                  pc.less_equal(cts, self.hi))).as_py() in (True, None)
            ops = t["op"].to_numpy(zero_copy_only=False)
            assert np.isin(ops, [OP_DELETE, OP_UPDATE, OP_INSERT]).all()
            if "n_tok" in t.column_names:
                img = pc.is_valid(t["tokens"])
                ln = pc.list_value_length(t["tokens"])
                ok = pc.all(pc.equal(pc.filter(ln, img).cast(pa.int64()),
                                     pc.filter(t["n_tok"], img).cast(pa.int64())))
                assert ok.as_py() in (True, None), "n_tok != len(tokens)"
        if self.ignore_sources and "source" in t.column_names:
            mask = pc.invert(pc.is_in(t["source"],
                                      value_set=pa.array(sorted(self.ignore_sources))))
            # never drop deletes (they carry no source image)
            mask = pc.or_kleene(mask, pc.equal(t["op"], OP_DELETE))
            t = t.filter(pc.fill_null(mask, True))
        if self.masks:
            keep = np.ones(t.num_rows, bool)
            for m in self.masks:
                keep &= np.asarray(m(t), dtype=bool)
            t = t.filter(pa.array(keep))
        if self.tables is not None:
            unknown = set(pc.unique(t["table_name"]).to_pylist()) - self.tables
            if unknown:
                raise ValueError(
                    f"multitable changefeed received events for undeclared "
                    f"(or not-yet-created / already-dropped) table(s) "
                    f"{sorted(unknown, key=str)} in epoch ({self.lo}, "
                    f"{self.hi}]; active: {sorted(self.tables)}")
        cols = EVENT_KEY_COLS + self.image_cols
        missing = [c for c in cols if c not in t.column_names]
        for c in missing:  # untyped sources may omit all-null columns
            t = t.append_column(c, pa.nulls(t.num_rows, self.types.get(c, pa.string())))
        t = t.select(cols)
        # conform types (no-op on parquet sources; JSON int64→uint/int32 etc.)
        arrays = []
        for c in cols:
            col = t[c]
            want = self.types.get(c)
            arrays.append(col.cast(want) if want is not None and col.type != want
                          else col)
        return pa.table(dict(zip(cols, arrays)))
