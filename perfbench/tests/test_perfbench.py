"""Tests for the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pyarrow as pa
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, REPO)

from perfbench.digest import table_digest  # noqa: E402
from perfbench.run import tail_percentile  # noqa: E402
from perfbench.trace import Span, Tracer, self_times, totals  # noqa: E402


def _table(rows):
    return pa.table({
        "doc_id": pa.array([r[0] for r in rows]),
        "tokens": pa.array([r[1] for r in rows], pa.list_(pa.int32())),
        "n_tok": pa.array([r[2] for r in rows], pa.int32()),
    })


BASE = [("a", [1, 2], 2), ("b", [3], 1), ("c", [], 0), ("d", None, None)]


def test_digest_ignores_row_order_and_chunking():
    d = table_digest(_table(BASE))
    shuffled = pa.concat_tables([_table(BASE[2:]), _table(BASE[:2])])
    assert table_digest(shuffled) == d


def test_digest_ignores_list_child_field_name():
    t = _table(BASE)
    renamed = t.cast(pa.schema([
        pa.field("doc_id", pa.string()),
        pa.field("tokens", pa.list_(pa.field("element", pa.int32()))),
        pa.field("n_tok", pa.int32())]))
    assert table_digest(renamed) == table_digest(t)


@pytest.mark.parametrize("rows", [
    [("a", [1, 2], 2), ("b", [4], 1), ("c", [], 0), ("d", None, None)],
    [("a", [1, 2], 2), ("b", [3], 1), ("c", [], 0), ("d", [], None)],
    [("a", [1, 2], 2), ("B", [3], 1), ("c", [], 0), ("d", None, None)],
    BASE + [("e", [5], 1)],
    BASE[:3],
    BASE + [BASE[0]],
], ids=["changed-list", "null-vs-empty", "changed-key", "added", "dropped",
        "duplicated"])
def test_digest_catches_one_row(rows):
    assert table_digest(_table(rows)) != table_digest(_table(BASE))


def _span(sid, name, start, end, parent=None):
    return Span(sid, name, start, end, parent, "r")


def test_self_time_nested():
    spans = [_span(0, "epoch", 0.0, 10.0),
             _span(1, "read", 1.0, 4.0, 0),
             _span(2, "decode", 2.0, 3.0, 1),
             _span(3, "merge", 5.0, 9.0, 0)]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 3.0 - 4.0)
    assert st[1] == pytest.approx(3.0 - 1.0)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(4.0)


def test_self_time_adjacent_and_overlapping_children():
    spans = [_span(0, "epoch", 0.0, 10.0),
             _span(1, "a", 0.0, 2.0, 0),
             _span(2, "b", 2.0, 5.0, 0),      # adjacent to a: no double count
             _span(3, "c", 4.0, 6.0, 0),      # overlaps b (concurrent)
             _span(4, "d", 9.0, 12.0, 0)]     # runs past its parent's end
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 6.0 - 1.0)
    agg = totals(spans)
    assert agg["epoch"]["self"] == pytest.approx(3.0)
    assert agg["b"]["total"] == pytest.approx(3.0)


def test_tracer_records_parents_in_order():
    tr = Tracer("run")
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    outer, a, b = tr.spans
    assert a.parent == outer.sid and b.parent == outer.sid
    assert outer.start <= a.start <= a.end <= b.start <= b.end <= outer.end
    assert totals(tr.spans)["inner"]["count"] == 2


def test_tail_percentile():
    xs = list(range(1, 101))
    assert tail_percentile(xs) == 90          # ten samples above it
    assert tail_percentile(list(range(12))) == 6   # clamped to the median


# Runs a command under a process that adopts its orphans, then lists
# whatever of it is still there (running or unreaped) once it has exited.
SUBREAPER = """
import json, subprocess, sys
sys.path.insert(0, sys.argv[1])
from perfbench import host
assert host.become_subreaper()
out = subprocess.run(sys.argv[2:], capture_output=True, text=True, timeout=300)
left = host.descendants(host.os.getpid())
host.reap_all()
print(json.dumps({"returncode": out.returncode, "stdout": out.stdout,
                  "stderr": out.stderr, "left": left}))
"""


def _adopting_run(argv: list[str]) -> dict:
    out = subprocess.run([sys.executable, "-c", SUBREAPER, REPO, *argv],
                         capture_output=True, text=True, timeout=330,
                         cwd=REPO)
    assert out.returncode == 0, out.stderr[-3000:]
    return json.loads(out.stdout)


def test_reap_all_stops_orphaned_grandchildren():
    # the shell exits at once and orphans its backgrounded sleep
    r = _adopting_run([sys.executable, "-c", f"""
import subprocess, sys
sys.path.insert(0, {REPO!r})
from perfbench import host
assert host.become_subreaper()
subprocess.run(["sh", "-c", "sleep 60 & exit 0"], check=True)
assert host.reap_all(grace_s=0.5) == 1
assert host.descendants(host.os.getpid()) == []
"""])
    assert r["returncode"] == 0, r["stderr"][-3000:]
    assert r["left"] == []


def _run(workload: str, trace: int) -> dict:
    out = _adopting_run(
        [sys.executable, os.path.join(REPO, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--shape", "tiny"])
    assert out["returncode"] == 0, out["stderr"][-3000:]
    # the run stops every process it started, and waits for each
    assert out["left"] == []
    lines = out["stdout"].strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return {"detail": detail["perfbench"], **result}


@pytest.mark.parametrize("workload",
                         ["bulk_replay", "tail_ddl", "multitable_replay"])
def test_tiny_smoke_run_matches_oracle(workload):
    r = _run(workload, 0)
    assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0
    assert r["detail"]["failed_frac"] == 0
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert set(r["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in r["metrics"].values())


@pytest.mark.parametrize("workload", ["tail_ddl", "multitable_replay"])
def test_tiny_traced_run_reports_every_layer(workload):
    r = _run(workload, 1)
    assert r["correct"] and r["failed"] == 0
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert set(r["metrics"]) == {m["name"] for m in spec["per_layer"]}
    m = {k: v["value"] for k, v in r["metrics"].items()}
    assert m["sources.wal.read_bytes"] > 0 and m["exchange.bytes"] > 0
    assert 0 < m["stages.compact.reduction"] <= 1
    if workload == "tail_ddl":
        assert m["stages.merge.folds"] > 0        # a fold every 3rd epoch
        assert m["stages.schema_evo.cast_s"] > 0  # DDL barriers are crossed
        assert m["pipelines.replay.epoch_s"] > 0
        assert m["pipelines.multitable.epoch_s"] == 0
    else:
        assert m["stages.merge.folds"] == 0
        assert m["pipelines.multitable.epoch_s"] > 0
        assert m["pipelines.multitable.demux_ratio"] > 0
