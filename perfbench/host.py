"""Host qualification and memory probes, read straight from /proc.

psutil is not a dependency, so CPU accounting comes from the first line of
/proc/stat and resident memory from each process's /proc/<pid>/status.
"""

from __future__ import annotations

import os
import signal
import time

PR_SET_CHILD_SUBREAPER = 36


def cpu_times() -> list[int]:
    """Aggregate jiffies of the machine: user nice system idle iowait irq
    softirq steal (guest time is already folded into user)."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return [int(x) for x in fields[1:9]]


def steal_pct(before: list[int], after: list[int]) -> float:
    """Share of machine CPU time stolen by the hypervisor between two
    cpu_times() samples, in percent."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return 100.0 * delta[7] / total if total > 0 else 0.0


def nproc() -> int:
    """What coreutils' nproc prints: the CPUs this process may run on,
    limited by OMP_NUM_THREADS when that is set."""
    n = len(os.sched_getaffinity(0))
    try:
        omp = int(os.environ.get("OMP_NUM_THREADS", "0"))
    except ValueError:
        omp = 0
    return min(n, omp) if omp > 0 else n


def quietest_cpus(n: int, sample_s: float = 0.3) -> set[int]:
    """The n allowed CPUs with the least busy time over a short sample."""
    import time

    def busy() -> dict[int, int]:
        out = {}
        with open("/proc/stat") as f:
            for line in f:
                name, *vals = line.split()
                if name.startswith("cpu") and name != "cpu":
                    v = [int(x) for x in vals[:8]]
                    out[int(name[3:])] = sum(v) - v[3] - v[4]
        return out

    a = busy()
    time.sleep(sample_s)
    b = busy()
    allowed = sorted(os.sched_getaffinity(0),
                     key=lambda c: (b.get(c, 0) - a.get(c, 0), c))
    return set(allowed[:n])


def host_block(shape: dict, before: list[int], after: list[int]) -> dict:
    """The qualification block printed next to every result: `shape` (the
    host's nproc, the CPUs it allows, the CPUs requested and pinned) plus
    load and steal over the measured window. A co-tenant burst shows up
    here as steal or load, not as a code regression."""
    return {**shape, "loadavg": [round(x, 2) for x in os.getloadavg()],
            "steal_pct": round(steal_pct(before, after), 3)}


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue                      # exited while we looked
        # the command name sits in parentheses and may contain spaces
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants(pid: int) -> list[int]:
    kids = _children_map()
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        for c in kids.get(p, []):
            out.append(c)
            todo.append(c)
    return out


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(pid: int | None = None) -> float:
    """Sum of peak resident sets (VmHWM) of a process and every live
    descendant: the driver plus Ray's GCS, raylet and worker processes."""
    pid = os.getpid() if pid is None else pid
    kb = sum(_vm_hwm_kb(p) for p in [pid, *descendants(pid)])
    return kb / 1024.0



def become_subreaper() -> bool:
    """Make this process the reaper of every orphaned descendant. Ray's
    workers outlive the raylet that forked them by a moment; without this
    they would be re-parented to init, out of reach of reap_all."""
    import ctypes
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _reap_exited() -> bool:
    """Collect every exited child; True while children remain."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return False
        if pid == 0:
            return True


def reap_all(grace_s: float = 5.0, give_up_s: float = 30.0) -> int:
    """Stop every descendant and wait until each has ended and been
    collected: SIGTERM first, SIGKILL after grace_s. Returns how many
    live descendants were found; raises if some are still there after
    give_up_s (a process stuck in the kernel ignores SIGKILL)."""
    me = os.getpid()
    seen: set[int] = set()
    kill_at = time.monotonic() + grace_s
    deadline = kill_at + give_up_s
    while True:
        children_left = _reap_exited()
        live = descendants(me)
        if not children_left and not live:
            return len(seen)
        if time.monotonic() > deadline:
            raise RuntimeError(f"descendants still running: {live}")
        sig = signal.SIGKILL if time.monotonic() > kill_at else signal.SIGTERM
        for pid in live:
            if pid not in seen or sig == signal.SIGKILL:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
            seen.add(pid)
        time.sleep(0.02)
