"""In-process replica of one engine epoch, for the traced run.

The engine runs its stages inside Ray tasks, where the driver cannot time
them. The replica feeds the same epoch's WAL segments through the same
public stage functions in this process — read, Normalize, split_updates,
compact_batch, a partition split standing in for the exchange, and one
MergeApply per partition — so each layer gets a span. MergeApply reads
the engine lake's previous manifest (for folds) and writes into a scratch
data directory, leaving the engine's lake untouched.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from .trace import Tracer


class Counters:
    """Work counts recorded at the same boundaries as the spans."""

    def __init__(self):
        self.read_bytes = 0
        self.compact_in = 0
        self.compact_out = 0
        self.exchange_bytes = 0
        self.part_rows: list[int] = []
        self.merge_bytes = 0
        self.folds = 0


def _read(files, cols: list[str], lo: int, hi: int) -> pa.Table:
    flt = (pads.field("commit_ts") > lo) & (pads.field("commit_ts") <= hi)
    pieces = []
    for f in files:
        have = set(pq.read_schema(f).names)
        pieces.append(pq.read_table(f, columns=[c for c in cols if c in have],
                                    filters=flt))
    return pa.concat_tables(pieces, promote_options="default")


def _split_by_part(t: pa.Table, num_partitions: int) -> dict[int, pa.Table]:
    part = t["part"].to_numpy(zero_copy_only=False)
    order = np.argsort(part, kind="stable")
    ts = t.take(pa.array(order))
    bounds = np.searchsorted(part[order], np.arange(num_partitions + 1))
    return {p: ts.slice(int(bounds[p]), int(bounds[p + 1] - bounds[p]))
            for p in range(num_partitions) if bounds[p + 1] > bounds[p]}


def _table_pass(tr: Tracer, c: Counters, t: pa.Table, registry, ep,
                prev_parts: dict, epoch_no: int, cfg, data_dir: str) -> None:
    from tiflow_ray.model import image_columns
    from tiflow_ray.stages.compact import compact_batch
    from tiflow_ray.stages.merge import MergeApply
    from tiflow_ray.stages.normalize import Normalize
    from tiflow_ray.stages.update_split import split_updates

    schema = registry.schema(ep.schema_ver)
    image_fields = [schema.field(n) for n in image_columns(schema.names)]
    with tr.span("stages.normalize"):
        t = Normalize(image_fields, ep.lo, ep.hi)(t)
    with tr.span("stages.update_split"):
        t = split_updates(t)
    with tr.span("stages.compact"):
        out = compact_batch(t, cfg.num_partitions)
    c.compact_in += t.num_rows
    c.compact_out += out.num_rows
    with tr.span("exchange.partition"):
        groups = _split_by_part(out, cfg.num_partitions)
    c.exchange_bytes += out.nbytes
    c.part_rows += [g.num_rows for g in groups.values()]
    merge = MergeApply(registry_json=registry.to_json(),
                       prev_parts=prev_parts, epoch=epoch_no,
                       epoch_ver=ep.schema_ver, watermark_ts=ep.hi,
                       lake_data_dir=data_dir, sink_mode=cfg.sink_mode,
                       compact_every=cfg.compact_every)
    for g in groups.values():
        with tr.span("stages.merge"):
            row = merge(g).to_pylist()[0]
        c.merge_bytes += os.path.getsize(row["path"])
        c.folds += not row["is_delta"]


def replica_epoch(tr: Tracer, c: Counters, lake, ep, prev, epoch_no: int,
                  scratch_dir: str) -> None:
    """Replay epoch `ep` in process. `prev` is the engine's manifest before
    the epoch; `lake` is the workloads.Lake being traced."""
    from tiflow_ray.model import image_columns
    from tiflow_ray.sources.wal import load_registry
    from tiflow_ray.stages.normalize import epoch_event_columns
    from tiflow_ray.stages.schema_evo import SchemaRegistry

    cfg = lake.cfg
    if not ep.files:
        return
    multitable = lake.fx.shape.multitable
    registry = (SchemaRegistry([]) if multitable
                else load_registry(cfg.wal_dir))
    schema = registry.schema(ep.schema_ver)
    cols = epoch_event_columns(image_columns(schema.names))
    c.read_bytes += sum(os.path.getsize(f) for f in ep.files)
    with tr.span("sources.wal.read"):
        t = _read(ep.files, cols + ["table_name"] * multitable, ep.lo, ep.hi)
    if not multitable:
        _table_pass(tr, c, t, registry, ep, prev.parts, epoch_no, cfg,
                    os.path.join(scratch_dir, "data"))
        return
    from .workloads import MT_TABLES
    for name in MT_TABLES:
        with tr.span("pipelines.multitable.demux"):
            sub = t.filter(pc.equal(t["table_name"], name)) \
                .drop_columns(["table_name"])
        parts = {k.rsplit("/", 1)[1]: m for k, m in prev.parts.items()
                 if k.rsplit("/", 1)[0] == name}
        _table_pass(tr, c, sub, registry, ep, parts, epoch_no, cfg,
                    os.path.join(scratch_dir, "data", f"table={name}"))
