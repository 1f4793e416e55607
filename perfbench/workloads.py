"""Workload shapes, seeded fixtures, cached oracle digests and the engine
loop each workload drives.

Every workload replays a seeded synthetic change stream (tiflow_ray
.fixtures) into a fresh lake by calling the engine one epoch at a time,
then reads the lake back and compares its digest with the digest of the
sequential oracle's table (tiflow_ray.oracle). The oracle is slow, so its
digest is computed once per (workload, seed, shape, fixture/oracle code)
and cached; the fixture itself is regenerated for every run.
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import json
import os
import shutil
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .digest import table_digest

MT_TABLES = ("t0", "t1", "t2")


@dataclass(frozen=True)
class Shape:
    tier: str                 # the tiflow_ray.fixtures tier it derives from
    n_events: int
    n_docs: int
    n_segments: int
    num_partitions: int
    max_len: int
    include_pre: bool
    ddls: tuple[str, ...]
    segments_per_epoch: int   # ReplayConfig.max_segments_per_epoch
    compact_every: int        # ReplayConfig.compact_every (MoR fold cadence)
    multitable: bool = False  # demux into MT_TABLES by start_ts % 3


BULK = Shape("bench", 60_000, 6_000, 16, 8, 32, False, (), 4, 8)
TAIL = Shape("t2", 40_000, 40_000, 44, 16, 32, True,
             ("add_lang", "drop_source"), 1, 3)

SHAPES = {
    "full": {
        "bulk_replay": BULK,
        "tail_ddl": TAIL,
        "multitable_replay": dataclasses.replace(BULK, multitable=True),
    },
    # seconds-scale shapes for the harness's own smoke tests
    "tiny": {
        "bulk_replay": Shape("bench", 4_000, 800, 4, 4, 16, False, (), 2, 8),
        "tail_ddl": Shape("t2", 3_000, 600, 10, 4, 16, True,
                          ("add_lang", "drop_source"), 1, 3),
        "multitable_replay": Shape("bench", 4_000, 800, 4, 4, 16, False, (),
                                   2, 8, multitable=True),
    },
}


@dataclass
class Fixture:
    name: str
    shape: Shape
    root: str                 # generated fixture (base/ + wal/)
    wal_dir: str              # WAL the engine replays
    raw_events: int           # rows in the WAL
    digests: dict             # table → oracle digest ("" = undemuxed stream)

    def single_table(self) -> "Fixture":
        """A multitable fixture's stream before the demux, replayed by the
        single-table engine."""
        return dataclasses.replace(
            self, shape=dataclasses.replace(self.shape, multitable=False),
            wal_dir=os.path.join(self.root, "wal"))


def _code_hash(root: str) -> str:
    """Fixture, oracle and digest code take part in the cache key, so a
    change to any of them recomputes the digest instead of trusting a
    stale one."""
    h = hashlib.sha1()
    for rel in ("tiflow_ray/fixtures.py", "tiflow_ray/oracle.py",
                "perfbench/digest.py", "perfbench/workloads.py"):
        with open(os.path.join(root, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:12]


def _generate(shape: Shape, seed: int, root: str) -> None:
    from tiflow_ray import fixtures
    fixtures.generate_tier(root, shape.tier, seed=seed,
                           n_events=shape.n_events, n_docs=shape.n_docs,
                           n_segments=shape.n_segments,
                           num_partitions=shape.num_partitions,
                           max_len=shape.max_len,
                           include_pre=shape.include_pre, ddls=shape.ddls)


def _demux(root: str) -> str:
    """Derive the 3-table WAL from the single-table one: table = start_ts
    % 3, no DDL, every table bootstrapped from the shared base."""
    from tiflow_ray.pipelines.multitable import write_multitable_registries
    from tiflow_ray.sources.wal import list_segments
    from tiflow_ray.stages.schema_evo import SchemaRegistry

    mt_wal = os.path.join(root, "wal_mt")
    os.makedirs(mt_wal)
    names = np.array(MT_TABLES, object)
    for s in list_segments(os.path.join(root, "wal")):
        t = pq.read_table(s.path)
        sts = t["start_ts"].to_numpy(zero_copy_only=False)
        t = t.append_column("table_name", pa.array(
            names[(sts % 3).astype(np.int64)], pa.string()))
        base = os.path.basename(s.path)
        pq.write_table(t, os.path.join(mt_wal, base), row_group_size=32768)
        meta = base.replace(".parquet", ".meta.json")
        shutil.copy(os.path.join(root, "wal", meta),
                    os.path.join(mt_wal, meta))
    write_multitable_registries(
        mt_wal, {t: SchemaRegistry([]) for t in MT_TABLES})
    return mt_wal


def _oracle_digests(root: str, wal_dir: str, multitable: bool) -> dict:
    from tiflow_ray import oracle
    from tiflow_ray.sources.wal import load_registry
    from tiflow_ray.stages.schema_evo import SchemaRegistry

    # the undemuxed stream (what the single-table engine replays)
    reg = load_registry(os.path.join(root, "wal"))
    out = {"": table_digest(oracle.replay_to_table(root, reg))}
    if not multitable:
        return out
    for name in MT_TABLES:
        # the oracle reads <root>/base and <root>/wal: give it one table's
        # events over the shared base
        troot = os.path.join(root, f"oracle_{name}")
        shutil.copytree(os.path.join(root, "base"),
                        os.path.join(troot, "base"))
        os.makedirs(os.path.join(troot, "wal"))
        for f in sorted(glob.glob(os.path.join(wal_dir, "seq=*.parquet"))):
            t = pq.read_table(f)
            t = t.filter(pa.compute.equal(t["table_name"], name))
            pq.write_table(t, os.path.join(troot, "wal", os.path.basename(f)))
        out[name] = table_digest(
            oracle.replay_to_table(troot, SchemaRegistry([])))
        shutil.rmtree(troot)
    return out


def prepare(name: str, shape: Shape, seed: int, repo_root: str,
            run_dir: str, cache_dir: str) -> Fixture:
    """Generate the workload's fixture under run_dir and load (or compute
    and cache) its oracle digest. Benchmark prep: never timed."""
    from tiflow_ray.sources.wal import list_segments

    root = os.path.join(run_dir, "fixture")
    _generate(shape, seed, root)
    wal_dir = _demux(root) if shape.multitable else os.path.join(root, "wal")
    key = hashlib.sha1(json.dumps(
        [name, seed, dataclasses.asdict(shape), _code_hash(repo_root)],
        sort_keys=True).encode()).hexdigest()[:16]
    cached = os.path.join(cache_dir, f"{name}-{seed}-{key}.json")
    if os.path.exists(cached):
        with open(cached) as f:
            digests = json.load(f)
    else:
        digests = _oracle_digests(root, wal_dir, shape.multitable)
        os.makedirs(cache_dir, exist_ok=True)
        with open(cached + ".tmp", "w") as f:
            json.dump(digests, f)
        os.replace(cached + ".tmp", cached)
    raw = sum(s.rows for s in list_segments(wal_dir))
    return Fixture(name, shape, root, wal_dir, raw, digests)


class Lake:
    """One replay target: a fresh lake over the fixture, driven through
    the engine's public entry points one epoch per call (the loop
    tail_replay runs)."""

    def __init__(self, fx: Fixture, lake_dir: str):
        from tiflow_ray.config import ReplayConfig

        self.fx = fx
        self.cfg = ReplayConfig(
            wal_dir=fx.wal_dir, lake_dir=lake_dir,
            num_partitions=fx.shape.num_partitions,
            max_segments_per_epoch=fx.shape.segments_per_epoch,
            compact_every=fx.shape.compact_every,
            # plan by segment count only, so the plan does not depend on
            # the object store size
            max_epoch_bytes=-1)

    def bootstrap(self) -> None:
        base = os.path.join(self.fx.root, "base")
        shutil.rmtree(self.cfg.lake_dir, ignore_errors=True)
        if self.fx.shape.multitable:
            from tiflow_ray.pipelines.multitable import bootstrap_multitable
            from tiflow_ray.stages.schema_evo import SchemaRegistry
            regs = {t: SchemaRegistry([]) for t in MT_TABLES}
            bootstrap_multitable(self.cfg, regs, {t: base for t in regs})
        else:
            from tiflow_ray.pipelines.replay import bootstrap
            bootstrap(self.cfg, base_dir=base)

    def step(self) -> int:
        """Replay at most one epoch; returns the number committed."""
        if self.fx.shape.multitable:
            from tiflow_ray.pipelines.multitable import run_replay_multitable
            return len(run_replay_multitable(self.cfg, max_epochs=1).epochs)
        from tiflow_ray.pipelines.replay import run_replay
        return len(run_replay(self.cfg, max_epochs=1).epochs)

    def read_back(self) -> dict[str, pa.Table]:
        """The read direction: base ⊕ delta-chain fold of every table."""
        if self.fx.shape.multitable:
            from tiflow_ray.pipelines.multitable import \
                multitable_lake_to_table
            return {t: multitable_lake_to_table(self.cfg.lake_dir, t)
                    for t in MT_TABLES}
        from tiflow_ray.pipelines.replay import lake_to_table
        return {"": lake_to_table(self.cfg.lake_dir, self.cfg.wal_dir)}

    def mismatches(self, tables: dict[str, pa.Table]) -> list[str]:
        return [name for name, t in tables.items()
                if table_digest(t) != self.fx.digests[name]]

    def plan(self):
        """The epochs the engine runs when called one epoch at a time: each
        call plans from the last committed watermark and takes the first
        epoch (segment-count caps only; barriers from the DDL schedule)."""
        from tiflow_ray.sources.wal import (list_segments, load_registry,
                                            plan_epochs)
        from tiflow_ray.stages.schema_evo import SchemaRegistry
        reg = (SchemaRegistry([]) if self.fx.shape.multitable
               else load_registry(self.cfg.wal_dir))
        segments = list_segments(self.cfg.wal_dir)
        out, lo = [], 0
        while True:
            eps = plan_epochs(segments, reg, from_ts=lo,
                              max_segments_per_epoch=self.cfg
                              .max_segments_per_epoch)
            if not eps:
                return out
            out.append(eps[0])
            lo = eps[0].hi

    def wal_bytes_read(self) -> int:
        """On-disk WAL bytes handed to the reader over the whole plan (a
        segment that straddles a DDL barrier is read by both epochs)."""
        return sum(os.path.getsize(f) for ep in self.plan()
                   for f in ep.files)

    def manifest_bytes_last(self) -> int:
        return max(os.path.getsize(p) for p in glob.glob(
            os.path.join(self.cfg.lake_dir, "_manifest", "epoch-*.json")))

    def lake_bytes(self) -> int:
        return sum(os.path.getsize(p) for p in glob.glob(
            os.path.join(self.cfg.lake_dir, "**", "*"), recursive=True)
            if os.path.isfile(p))
