"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload tail_ddl --seed 1 --seconds 12 --trace 0

Run from the repository root (any working directory works; paths are
resolved from this file). --trace 0 prints the end-to-end metrics of a
closed replay loop; --trace 1 prints per-layer metrics from a separate
traced pass. Every run checks its final lake against the sequential
oracle's digest. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(REPO, ".perfbench_work")
OBJECT_STORE_BYTES = 300 << 20
MAX_CPUS = 1                   # a one-core benchmark on any host
READBACKS = 5                  # timed reads of each replayed lake
SETUPS = 3                     # setup_s is the median of this many set-ups
AF_UNIX_MAX = 107              # Ray puts its sockets under its temp dir

E2E_UNITS = {"setup_s": "s", "events_per_s": "events/s", "epoch_p50_s": "s",
             "epoch_tail_s": "s", "readback_s": "s", "write_amp": "ratio",
             "peak_rss_mb": "MB"}


T0 = time.perf_counter()


def log(msg: str) -> None:
    print(f"[perfbench {time.perf_counter() - T0:6.1f}s] {msg}",
          file=sys.stderr, flush=True)


def tail_percentile(xs: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it, and
    never below the median (with 21 or fewer samples it is the median)."""
    s = sorted(xs)
    return s[max(len(s) - 11, len(s) // 2)]


def ray_temp_dir(run_tag: str) -> tuple[str, bool]:
    """Ray's session directory, inside the checkout when the socket paths
    under it fit AF_UNIX's limit; otherwise a short system temp dir."""
    want = os.path.join(WORK, f"r{run_tag}")
    # longest socket: <temp>/session_<stamp>_<pid>/sockets/plasma_store
    socket = (f"/session_2000-01-01_00-00-00_000000_{os.getpid()}"
              "/sockets/plasma_store")
    if len(want) + len(socket) <= AF_UNIX_MAX:
        return want, True
    return tempfile.mkdtemp(prefix="pb-"), False


def start_ray(temp_dir: str, cpus: int) -> None:
    import ray
    from ray.data import DataContext
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES, _temp_dir=temp_dir)
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def stop_ray() -> None:
    """Shut the session down and wait until every process it started has
    ended, so that nothing of it outlives the run or serves the next
    set-up."""
    import ray

    from . import host
    if ray.is_initialized():
        ray.shutdown()
    host.reap_all()


def timed_setup(lake, temp_dir: str, cpus: int) -> float:
    """setup_s: ray.init plus lake bootstrap."""
    t0 = time.perf_counter()
    start_ray(temp_dir, cpus)
    lake.bootstrap()
    return time.perf_counter() - t0


class Tally:
    """attempted/failed: epochs run plus oracle checks made."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def replay(self, lake, n_epochs: int, lat: list[float] | None = None,
               step=None) -> float | None:
        """Run the plan's epochs one call each; returns replay wall time,
        or None when an epoch failed (the rest of the pass is skipped)."""
        step = step or (lambda _i: lake.step())
        wall = 0.0
        for i in range(n_epochs):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                n = step(i)
            except Exception:
                traceback.print_exc()
                n = 0
            dt = time.perf_counter() - t0
            if n != 1:
                self.failed += 1
                log(f"epoch {i} of {n_epochs} failed")
                return None
            wall += dt
            if lat is not None:
                lat.append(dt)
        return wall

    def check(self, lake, tables) -> None:
        self.attempted += 1
        bad = lake.mismatches(tables)
        if bad:
            self.failed += 1
            log(f"ORACLE MISMATCH in table(s) "
                f"{[name or '<single>' for name in bad]}: the lake differs "
                "from the sequential oracle")


def run_untraced(fx, lake_dir, seconds, temp_dir, shape, tally) -> dict:
    from . import host
    from .workloads import Lake

    setups = []
    warm = Lake(fx, os.path.join(lake_dir, "warm"))
    setups.append(timed_setup(warm, temp_dir, shape["requested_cpus"]))
    # warm-up: worker start, imports and the read path, on a throwaway lake
    warm.step()
    warm.read_back()

    n_epochs = len(warm.plan())
    log(f"set up in {setups[0]:.2f}s and warmed up; measuring")
    lat, rates, reads = [], [], []
    write_amp = None
    cpu0 = host.cpu_times()
    t_end = time.perf_counter() + seconds
    rep = 0
    while rep == 0 or time.perf_counter() < t_end:
        lake = Lake(fx, os.path.join(lake_dir, f"rep{rep}"))
        lake.bootstrap()
        wall = tally.replay(lake, n_epochs, lat)
        if wall is not None:
            rates.append(fx.raw_events / wall)
            for i in range(READBACKS):
                t0 = time.perf_counter()
                tables = lake.read_back()
                reads.append(time.perf_counter() - t0)
            tally.check(lake, tables)
            if write_amp is None:
                write_amp = lake.lake_bytes() / lake.wal_bytes_read()
        shutil.rmtree(lake.cfg.lake_dir, ignore_errors=True)
        rep += 1
    cpu1 = host.cpu_times()
    rss = host.peak_rss_mb()
    log(f"measured {rep} pass(es), {len(lat)} epochs")
    stop_ray()
    for i in range(1, SETUPS):
        extra = Lake(fx, os.path.join(lake_dir, f"setup{i}"))
        setups.append(timed_setup(extra, temp_dir, shape["requested_cpus"]))
        stop_ray()
    if not rates:
        raise RuntimeError("no replay pass completed")
    metrics = {
        "setup_s": statistics.median(setups),
        "events_per_s": statistics.median(rates),
        "epoch_p50_s": statistics.median(lat),
        "epoch_tail_s": tail_percentile(lat),
        "readback_s": statistics.median(reads),
        "write_amp": write_amp,
        "peak_rss_mb": rss,
    }
    detail = {"reps": rep, "epoch_samples": len(lat), "setups_s": setups,
              "epoch_latencies_s": [round(x, 4) for x in lat],
              "events_per_s_reps": rates,
              "readbacks_s": [round(x, 4) for x in reads],
              "host": host.host_block(shape, cpu0, cpu1)}
    return {"metrics": {k: {"value": v, "unit": E2E_UNITS[k]}
                        for k, v in metrics.items()}, "detail": detail}


def run_traced(fx, lake_dir, temp_dir, shape, tally, spans_path) -> dict:
    from . import host
    from .layers import layer_metrics
    from .replica import Counters, replica_epoch
    from .trace import Patched, Tracer
    from .workloads import Lake

    from tiflow_ray.state.checkpoint import LakeState

    warm = Lake(fx, os.path.join(lake_dir, "warm"))
    timed_setup(warm, temp_dir, shape["requested_cpus"])
    warm.step()
    warm.read_back()
    plan = warm.plan()

    cpu0 = host.cpu_times()
    # untraced reference pass: the baseline for the tracing overhead
    ref = Lake(fx, os.path.join(lake_dir, "untraced"))
    ref.bootstrap()
    untraced = tally.replay(ref, len(plan))
    tally.check(ref, ref.read_back())

    lake = Lake(fx, os.path.join(lake_dir, "traced"))
    lake.bootstrap()
    tr = Tracer(f"{fx.name}-{os.getpid()}")
    c = Counters()
    engine = ("pipelines.multitable.epoch" if fx.shape.multitable
              else "pipelines.replay.epoch")
    state = LakeState(lake.cfg.lake_dir)

    def traced_step(i: int) -> int:
        prev = state.load(state.committed_epochs()[-1])
        with tr.span("epoch"):
            with tr.span(engine):
                n = lake.step()
            with tr.span("replica"):
                replica_epoch(tr, c, lake, plan[i], prev, prev.epoch + 1,
                              os.path.join(lake_dir, "replica"))
        return n

    with Patched(tr):
        traced = tally.replay(lake, len(plan), step=traced_step)
    with tr.span("pipelines.readback"):
        tables = lake.read_back()
    tally.check(lake, tables)
    single = None
    if fx.shape.multitable:
        # the same events, not demuxed, through the single-table engine:
        # the demux overhead, measured in one session
        one = Lake(fx.single_table(), os.path.join(lake_dir, "single"))
        one.bootstrap()
        single = tally.replay(one, len(one.plan()))
        tally.check(one, one.read_back())
    cpu1 = host.cpu_times()
    stop_ray()
    if None in (untraced, traced) or (fx.shape.multitable and not single):
        raise RuntimeError("a replay pass failed")
    tr.dump(spans_path)
    metrics = layer_metrics(tr.spans, c, engine, untraced,
                            lake.manifest_bytes_last(),
                            untraced / single if single else 0.0)
    detail = {"spans": len(tr.spans), "untraced_replay_s": untraced,
              "single_table_replay_s": single,
              "host": host.host_block(shape, cpu0, cpu1)}
    return {"metrics": metrics, "detail": detail}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shape", choices=("full", "tiny"), default="full",
                    help="tiny: seconds-scale fixtures for smoke tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(REPO, "tiflow_ray", "__init__.py")):
        log(f"tiflow_ray/ not found under {REPO}: run from a full checkout")
        return 2
    # before ray.init: Ray's worker processes inherit this environment, so
    # they import tiflow_ray wherever the harness was launched from
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (REPO, os.environ.get("PYTHONPATH")) if p)
    if REPO not in sys.path:
        sys.path.insert(0, REPO)
    import tiflow_ray  # noqa: F401  (sets Ray Data's logging config env)

    from . import host
    from .workloads import SHAPES, prepare

    shapes = SHAPES[args.shape]
    if args.workload not in shapes:
        log(f"unknown workload {args.workload!r}; have {sorted(shapes)}")
        return 2
    tag = f"{os.getpid()}"
    run_dir = os.path.join(WORK, f"run-{tag}")
    temp_dir, in_checkout = ray_temp_dir(tag)
    # sized from nproc, never above it; capped at one core so that runs
    # on different hosts measure the same thing with few worker processes
    cpus = min(host.nproc(), MAX_CPUS)
    pinned = host.quietest_cpus(cpus)
    shape = {"nproc": host.nproc(),
             "allowed_cpus": len(os.sched_getaffinity(0)),
             "requested_cpus": cpus, "pinned_cpus": sorted(pinned)}
    # the whole session (driver, GCS, raylet, workers) runs on those cores:
    # children inherit the affinity, and co-tenant load on the other cores
    # stays out of the measurement
    os.sched_setaffinity(0, pinned)
    # every process the run starts, however deeply forked, ends up as a
    # child of this one and is stopped and collected before it exits;
    # SIGTERM and SIGINT take the same way out
    if not host.become_subreaper():
        log("PR_SET_CHILD_SUBREAPER unavailable: orphans may escape reaping")
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    tally = Tally()
    try:
        os.makedirs(run_dir)
        t0 = time.perf_counter()
        fx = prepare(args.workload, shapes[args.workload], args.seed, REPO,
                     run_dir, os.path.join(WORK, "oracle-digests"))
        log(f"prepared {args.workload} seed={args.seed} "
            f"events={fx.raw_events} in {time.perf_counter() - t0:.1f}s")
        lake_dir = os.path.join(run_dir, "lakes")
        if args.trace:
            out = run_traced(fx, lake_dir, temp_dir, shape, tally,
                             os.path.join(WORK, f"spans-{args.workload}-"
                                          f"{args.seed}.jsonl"))
        else:
            out = run_untraced(fx, lake_dir, args.seconds, temp_dir, shape,
                               tally)
    finally:
        try:
            stop_ray()
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
            shutil.rmtree(temp_dir, ignore_errors=True)
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "shape": args.shape,
              "ray_temp_in_checkout": in_checkout,
              "failed_frac": tally.failed / max(1, tally.attempted),
              **out["detail"]}
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": out["metrics"]}), flush=True)
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    if __package__ in (None, ""):
        # launched as a script: import the harness as the perfbench package
        # (and keep this directory off sys.path: trace.py would shadow the
        # standard library's trace module)
        sys.path[0] = REPO
        from perfbench.run import main as _main
        sys.exit(_main())
    sys.exit(main())
