"""Randomized-matrix property tests (SURVEY.md §5c): across seeds and
workload knobs, replay == oracle; resume at ANY epoch boundary == replay
once. Small fixtures so the whole matrix stays fast."""

import os

import pytest

from tiflow_ray import fixtures, oracle
from tiflow_ray.config import ReplayConfig
from tiflow_ray.pipelines import replay as rp
from tiflow_ray.sources.wal import list_segments, load_registry, plan_epochs


@pytest.mark.parametrize("seed,mode,knobs", [
    (7, "mor", {}),
    (13, "cow", {}),
    (99, "mor", {"auto_salt": True}),
    (57, "cow", {"precompact": False}),
])
def test_replay_matches_oracle_across_seeds(tmp_path, seed, mode, knobs):
    root = str(tmp_path / f"fx{seed}")
    reg, metas, info = fixtures.generate_tier(
        root, "t1_noddl", seed=seed, n_docs=400, n_events=2_000,
        n_segments=3, num_partitions=4)
    cfg = ReplayConfig(wal_dir=f"{root}/wal", lake_dir=str(tmp_path / "lake"),
                       num_partitions=4, sink_mode=mode, validate=True,
                       **knobs)
    rp.bootstrap(cfg, base_dir=f"{root}/base")
    rp.run_replay(cfg)
    got = rp.lake_to_table(cfg.lake_dir, cfg.wal_dir)
    assert got.equals(oracle.replay_to_table(root, reg))


def test_resume_at_every_epoch_boundary(tmp_path):
    """Stop+resume at EACH possible epoch boundary ⇒ identical final state
    (redo-applier property: resume ≡ next epoch, any split point)."""
    root = str(tmp_path / "fx")
    reg, metas, info = fixtures.generate_tier(
        root, "t1", seed=21, n_docs=400, n_events=2_500, n_segments=4,
        num_partitions=4)
    segs = list_segments(f"{root}/wal")
    epochs = plan_epochs(segs, load_registry(f"{root}/wal"), 0,
                         max_segments_per_epoch=1)
    expected = oracle.replay_to_table(root, reg)
    for cut in range(1, len(epochs)):
        lake = str(tmp_path / f"lake_cut{cut}")
        cfg = ReplayConfig(wal_dir=f"{root}/wal", lake_dir=lake,
                           num_partitions=4, max_segments_per_epoch=1)
        rp.bootstrap(cfg, base_dir=f"{root}/base")
        rp.run_replay(cfg, max_epochs=cut)     # stop mid-stream
        rp.run_replay(cfg)                     # fresh call resumes
        got = rp.lake_to_table(cfg.lake_dir, cfg.wal_dir)
        assert got.equals(expected), f"cut at epoch {cut}"


@pytest.mark.parametrize("seed", [3, 17, 42])
def test_random_ddl_schedule_matches_oracle(tmp_path, seed):
    """Property: for a RANDOM DDL schedule mixing add_column / drop_column /
    rename_column / truncate at random barriers over a random event stream,
    engine replay == sequential oracle. Exercises every barrier-crossing
    path (default backfill, column death, name unwinding, table wipe) in
    combination rather than one-at-a-time."""
    import numpy as np
    import pyarrow as pa

    from tiflow_ray.stages.schema_evo import DDL, SchemaRegistry

    rng = np.random.default_rng(seed)
    N_DOCS, N_EVENTS, N_DDLS = 120, 1_500, 5
    TS_MAX = 100_000

    # ---- random-but-valid schedule over the image columns ----------------
    cur = {"tokens": "list<int32>", "n_tok": "int32", "source": "string"}
    used = set(cur)
    ddls, counter = [], 0
    barriers = np.sort(rng.choice(
        np.arange(10_000, TS_MAX - 10_000, 997), N_DDLS, replace=False))
    for i, b in enumerate(barriers):
        kinds = ["add", "truncate", "index", "exchange"]
        droppable = [c for c in cur if c not in ("tokens", "n_tok")]
        if droppable:
            kinds += ["drop", "rename"]
        k = kinds[rng.integers(len(kinds))]
        if k == "index":
            # recognized-and-skipped kinds (r4): no-op barrier, version++
            which = ["add_index", "drop_index"][int(rng.integers(2))]
            ddls.append(DDL(int(b), which, "idx_doc", None, i + 2))
            continue
        if k == "exchange":
            ddls.append(DDL(int(b), "exchange_partition", "p0", None, i + 2))
            continue
        if k == "add":
            counter += 1
            name = f"c{counter}"
            used.add(name)
            cur[name] = "string"
            ddls.append(DDL(int(b), "add_column", f"{name}:string",
                            f"d{counter}", i + 2))
        elif k == "drop":
            name = droppable[rng.integers(len(droppable))]
            del cur[name]
            ddls.append(DDL(int(b), "drop_column", name, None, i + 2))
        elif k == "rename":
            name = droppable[rng.integers(len(droppable))]
            counter += 1
            new = f"r{counter}"
            used.add(new)
            cur[new] = cur.pop(name)
            ddls.append(DDL(int(b), "rename_column", f"{name}>{new}",
                            None, i + 2))
        else:
            ddls.append(DDL(int(b), "truncate", "", None, i + 2))
    registry = SchemaRegistry(ddls)

    # ---- base + random event stream under the evolving schema -----------
    root = str(tmp_path / "fx")
    os.makedirs(root, exist_ok=True)
    dnum = np.arange(N_DOCS, dtype=np.int64)
    base = pa.table({
        "doc_id": pa.array(fixtures.doc_name(dnum)),
        "tokens": pa.array([[0]] * N_DOCS, pa.list_(pa.int32())),
        "n_tok": pa.array(np.ones(N_DOCS, np.int32)),
        "source": pa.array(["seed"] * N_DOCS),
    })
    fixtures.write_base_partitioned(base, root, 4)

    cts = np.sort(rng.choice(np.arange(1, TS_MAX), N_EVENTS, replace=False))
    docs = rng.integers(0, N_DOCS, N_EVENTS)
    ops = rng.choice([1, 2, 3], N_EVENTS, p=[0.15, 0.55, 0.30]).astype(np.uint8)
    all_str_cols = sorted(c for c in used
                          if c not in ("tokens", "n_tok"))
    cols = {
        "op": pa.array(ops),
        "commit_ts": pa.array(cts.astype(np.uint64)),
        "start_ts": pa.array(np.arange(N_EVENTS, dtype=np.uint64)),
        "doc_id": pa.array(fixtures.doc_name(docs)),
        "pre_tokens": pa.nulls(N_EVENTS, pa.list_(pa.int32())),
        "new_doc_id": pa.nulls(N_EVENTS, pa.string()),
    }
    vers = np.array([registry.version_at(int(t)) for t in cts], np.int32)
    has_img = ops != 1
    # per-event image columns: present iff in that event's schema version
    names_at = {v: set(registry.schema(v).names)
                for v in range(1, registry.max_ver + 1)}
    tok_vals = [[int(d) * 7 + int(t) % 13] if h else None
                for d, t, h in zip(docs, cts, has_img)]
    cols["tokens"] = pa.array(tok_vals, pa.list_(pa.int32()))
    cols["n_tok"] = pa.array(
        [1 if h else None for h in has_img], pa.int32())
    for c in all_str_cols:
        cols[c] = pa.array(
            [f"{c}v{t}" if (h and c in names_at[v]) else None
             for t, v, h in zip(cts, vers, has_img)], pa.string())
    cols["schema_ver"] = pa.array(vers)
    fixtures.write_wal_segments(pa.table(cols), os.path.join(root, "wal"),
                                4, registry)

    cfg = ReplayConfig(wal_dir=os.path.join(root, "wal"),
                       lake_dir=os.path.join(root, "lake"),
                       num_partitions=4, max_segments_per_epoch=1,
                       validate=True)
    rp.bootstrap(cfg, base_dir=os.path.join(root, "base"))
    rp.run_replay(cfg)
    got = rp.lake_to_table(cfg.lake_dir, cfg.wal_dir)
    exp = oracle.replay_to_table(root, registry)
    assert got.equals(exp), \
        f"seed {seed} schedule {[(d.ddl_type, d.column) for d in ddls]}"
