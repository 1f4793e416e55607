"""Per-layer metrics of one traced pass, derived from its spans and the
counters recorded beside them. `*_s` metrics are totals over the pass.
"""

from __future__ import annotations

from .replica import Counters
from .trace import Span, totals

#: direct children of the replica span: the layers' in-process work
REPLICA_LAYERS = ("sources.wal.read", "pipelines.multitable.demux",
                  "stages.normalize", "stages.update_split", "stages.compact",
                  "exchange.partition", "stages.merge")

UNITS = {
    "sources.wal.plan_s": "s", "sources.wal.read_s": "s",
    "sources.wal.read_bytes": "bytes",
    "stages.normalize.self_s": "s", "stages.update_split.self_s": "s",
    "stages.compact.self_s": "s", "stages.compact.ns_per_event": "ns/event",
    "stages.compact.reduction": "ratio",
    "exchange.residual_s": "s", "exchange.residual_share": "ratio",
    "exchange.bytes": "bytes", "exchange.part_skew": "ratio",
    "stages.merge.self_s": "s", "stages.merge.bytes_written": "bytes",
    "stages.merge.folds": "count", "stages.merge.fold_s": "s",
    "stages.schema_evo.cast_s": "s",
    "state.checkpoint.commit_s": "s", "state.checkpoint.latest_s": "s",
    "state.checkpoint.manifest_bytes_last": "bytes",
    "pipelines.replay.epoch_s": "s", "pipelines.multitable.epoch_s": "s",
    "pipelines.multitable.demux_s": "s",
    "pipelines.multitable.demux_ratio": "ratio", "pipelines.readback_s": "s",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(spans: list[Span], c: Counters, engine: str,
                  untraced_s: float, manifest_bytes: int,
                  demux_ratio: float) -> dict:
    """`demux_ratio`: untraced multitable pass wall over the single-table
    engine's wall on the same events (0 on single-table workloads)."""
    agg = totals(spans)

    def total(name: str) -> float:
        return agg.get(name, {}).get("total", 0.0)

    def self_s(name: str) -> float:
        return agg.get(name, {}).get("self", 0.0)

    engine_total = total(engine)
    # engine epoch wall outside the layers' in-process time: Ray
    # scheduling, serialisation and the shuffle itself
    residual = self_s(engine) - sum(total(n) for n in REPLICA_LAYERS)
    parts = c.part_rows or [0]
    mean_part = sum(parts) / len(parts)
    values = {
        "sources.wal.plan_s": total("sources.wal.plan"),
        "sources.wal.read_s": total("sources.wal.read"),
        "sources.wal.read_bytes": c.read_bytes,
        "stages.normalize.self_s": self_s("stages.normalize"),
        "stages.update_split.self_s": self_s("stages.update_split"),
        "stages.compact.self_s": self_s("stages.compact"),
        "stages.compact.ns_per_event":
            1e9 * total("stages.compact") / max(1, c.compact_in),
        "stages.compact.reduction": c.compact_out / max(1, c.compact_in),
        "exchange.residual_s": residual,
        "exchange.residual_share": residual / engine_total
        if engine_total else 0.0,
        "exchange.bytes": c.exchange_bytes,
        "exchange.part_skew": max(parts) / mean_part if mean_part else 0.0,
        "stages.merge.self_s": self_s("stages.merge"),
        "stages.merge.bytes_written": c.merge_bytes,
        "stages.merge.folds": c.folds,
        "stages.merge.fold_s": total("stages.merge.fold"),
        "stages.schema_evo.cast_s": total("stages.schema_evo.cast"),
        "state.checkpoint.commit_s": total("state.checkpoint.commit"),
        "state.checkpoint.latest_s": total("state.checkpoint.latest"),
        "state.checkpoint.manifest_bytes_last": manifest_bytes,
        "pipelines.replay.epoch_s": total("pipelines.replay.epoch"),
        "pipelines.multitable.epoch_s": total("pipelines.multitable.epoch"),
        "pipelines.multitable.demux_s": total("pipelines.multitable.demux"),
        "pipelines.multitable.demux_ratio": demux_ratio,
        "pipelines.readback_s": total("pipelines.readback"),
        "trace.overhead_frac": engine_total / untraced_s - 1.0,
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
