"""Collation-aware handle keys (cdc/entry/mounter.go:75-91: TiDB handle
keys compare under the column collation, e.g. utf8mb4_general_ci folds
case). key_collation="ci" makes hashing/partitioning, LWW compaction
identity and the base-merge anti-join compare the lower-cased key form,
while stored images keep the winner's own spelling."""

import dataclasses
import os

import numpy as np
import pyarrow as pa

from tiflow_ray import fixtures, oracle
from tiflow_ray.config import ReplayConfig
from tiflow_ray.pipelines import replay as rp
from tiflow_ray.stages.schema_evo import SchemaRegistry

N = 80


def _setup(tmp_path, collation):
    """Base rows use UPPER-case ids; WAL events use lower-case ids of the
    same names (plus some genuinely new keys). Under binary collation they
    are distinct rows; under ci they are the same row."""
    root = str(tmp_path / f"fx_{collation}")
    os.makedirs(root)
    up = np.array([f"DOC-{i:04d}" for i in range(N)], object)
    base = pa.table({
        "doc_id": pa.array(up),
        "tokens": pa.array([[i] for i in range(N)], pa.list_(pa.int32())),
        "n_tok": pa.array(np.ones(N, np.int32)),
        "source": pa.array(["seed"] * N)})
    fixtures.write_base_partitioned(base, root, 8, collation=collation)

    # updates hit the lower-case form of half the keys; deletes another
    # quarter; the rest of events insert brand-new keys
    n_ev = N
    ids = np.array([f"doc-{i:04d}" if i < 3 * N // 4
                    else f"doc-new-{i:04d}" for i in range(n_ev)], object)
    ops = np.where(np.arange(n_ev) % 4 == 2, 1, 2).astype(np.uint8)
    has_img = ops != 1
    wal = pa.table({
        "op": pa.array(ops),
        "commit_ts": pa.array(np.arange(10, 10 + n_ev, dtype=np.uint64)),
        "start_ts": pa.array(np.arange(n_ev, dtype=np.uint64)),
        "doc_id": pa.array(ids),
        "new_doc_id": pa.nulls(n_ev, pa.string()),
        "pre_tokens": pa.nulls(n_ev, pa.list_(pa.int32())),
        "tokens": pa.array([[i * 7] if h else None
                            for i, h in enumerate(has_img)],
                           pa.list_(pa.int32())),
        "n_tok": pa.array([1 if h else None for h in has_img], pa.int32()),
        "source": pa.array(["web" if h else None for h in has_img]),
        "schema_ver": pa.array(np.ones(n_ev, np.int32)),
    })
    fixtures.write_wal_segments(wal, os.path.join(root, "wal"), 4,
                                SchemaRegistry([]))
    return root


def _run(root, collation):
    cfg = ReplayConfig(wal_dir=os.path.join(root, "wal"),
                       lake_dir=os.path.join(root, "lake"),
                       num_partitions=8, max_segments_per_epoch=2,
                       key_collation=collation)
    rp.bootstrap(cfg, base_dir=os.path.join(root, "base"))
    rp.run_replay(cfg)
    return rp.lake_to_table(cfg.lake_dir, cfg.wal_dir)


def _canon(t: pa.Table) -> pa.Table:
    import pyarrow.compute as pc
    return t.take(pc.sort_indices(t, sort_keys=[("doc_id", "ascending")]))


def test_ci_collation_merges_case_variant_keys(tmp_path):
    root = _setup(tmp_path, "ci")
    got = _canon(_run(root, "ci"))
    exp = _canon(oracle.replay_to_table(root, SchemaRegistry([]),
                                        collation="ci"))
    assert got.equals(exp), "ci replay diverged from ci oracle"
    ids = got["doc_id"].to_pylist()
    # updated keys survive under the WINNER's (lower-case) spelling
    assert "doc-0000" in ids and "DOC-0000" not in ids
    # ci-deleted keys killed their upper-case base rows
    assert not any(i.lower() == "doc-0002" for i in ids)
    # never-touched keys keep the base spelling
    assert f"DOC-{N - 1:04d}" in ids


def test_binary_collation_keeps_case_variants_distinct(tmp_path):
    root = _setup(tmp_path, "binary")
    got = _canon(_run(root, "binary"))
    exp = _canon(oracle.replay_to_table(root, SchemaRegistry([])))
    assert got.equals(exp), "binary replay diverged from oracle"
    ids = got["doc_id"].to_pylist()
    # both case variants coexist under byte equality
    assert "doc-0000" in ids and "DOC-0000" in ids
    # binary deletes miss the upper-case base rows entirely
    assert "DOC-0002" in ids


def test_ci_collation_read_side_uses_manifest_record(tmp_path):
    """The committed manifests record key_collation; a reader folding the
    MoR chains without any config must still apply ci anti-joins."""
    root = _setup(tmp_path, "ci")
    _run(root, "ci")
    from tiflow_ray.state.checkpoint import LakeState
    m = LakeState(os.path.join(root, "lake")).latest()
    assert m.stats.get("key_collation") == "ci"
    # lake_to_table above already exercised the fold; spot-check row count
    got = rp.lake_to_table(os.path.join(root, "lake"))
    exp = oracle.replay_to_table(root, SchemaRegistry([]), collation="ci")
    assert got.num_rows == exp.num_rows


def _setup_accents(tmp_path, collation):
    """Base rows carry accented/composed spellings; WAL events hit their
    NFKD-folded lower-case forms (plus fullwidth-compat variants). Under
    ai_ci they are the same key; under ci (case-only) they are not."""
    root = str(tmp_path / f"fx_ai_{collation}")
    os.makedirs(root)
    base_ids = np.array([f"CAFÉ-{i:04d}" for i in range(N)], object)
    base = pa.table({
        "doc_id": pa.array(base_ids),
        "tokens": pa.array([[i] for i in range(N)], pa.list_(pa.int32())),
        "n_tok": pa.array(np.ones(N, np.int32)),
        "source": pa.array(["seed"] * N)})
    fixtures.write_base_partitioned(base, root, 8, collation=collation)

    n_ev = N
    ids = np.array([f"cafe-{i:04d}" if i < 3 * N // 4
                    else f"neu-{i:04d}" for i in range(n_ev)], object)
    ops = np.where(np.arange(n_ev) % 4 == 2, 1, 2).astype(np.uint8)
    has_img = ops != 1
    wal = pa.table({
        "op": pa.array(ops),
        "commit_ts": pa.array(np.arange(10, 10 + n_ev, dtype=np.uint64)),
        "start_ts": pa.array(np.arange(n_ev, dtype=np.uint64)),
        "doc_id": pa.array(ids),
        "new_doc_id": pa.nulls(n_ev, pa.string()),
        "pre_tokens": pa.nulls(n_ev, pa.list_(pa.int32())),
        "tokens": pa.array([[i * 7] if h else None
                            for i, h in enumerate(has_img)],
                           pa.list_(pa.int32())),
        "n_tok": pa.array([1 if h else None for h in has_img], pa.int32()),
        "source": pa.array(["web" if h else None for h in has_img]),
        "schema_ver": pa.array(np.ones(n_ev, np.int32)),
    })
    fixtures.write_wal_segments(wal, os.path.join(root, "wal"), 4,
                                SchemaRegistry([]))
    return root


def test_ai_ci_collation_merges_accent_variant_keys(tmp_path):
    """key_collation="ai_ci" (utf8mb4_unicode_ci analog, r4 verdict #8):
    NFKD-fold + strip combining marks + lower — accent AND case variants
    are one key, verified against the sequential oracle under the same
    collation."""
    root = _setup_accents(tmp_path, "ai_ci")
    got = _canon(_run(root, "ai_ci"))
    exp = _canon(oracle.replay_to_table(root, SchemaRegistry([]),
                                        collation="ai_ci"))
    assert got.equals(exp), "ai_ci replay diverged from ai_ci oracle"
    ids = got["doc_id"].to_pylist()
    # updated keys survive under the WINNER's (unaccented) spelling
    assert "cafe-0000" in ids and "CAFÉ-0000" not in ids
    # folded deletes killed their accented base rows
    assert not any("0002" in i and i.lower().startswith(("caf", "café"))
                   for i in ids if "0002" in i)
    # never-touched keys keep the accented base spelling
    assert f"CAFÉ-{N - 1:04d}" in ids


def test_ci_collation_keeps_accent_variants_distinct(tmp_path):
    """Case-only ci must NOT merge accent variants — the two collations
    are genuinely different normal forms."""
    root = _setup_accents(tmp_path, "ci")
    got = _canon(_run(root, "ci"))
    exp = _canon(oracle.replay_to_table(root, SchemaRegistry([]),
                                        collation="ci"))
    assert got.equals(exp), "ci replay diverged from ci oracle"
    ids = got["doc_id"].to_pylist()
    assert "cafe-0000" in ids and "CAFÉ-0000" in ids  # distinct under ci


def test_ai_ci_manifest_records_collation(tmp_path):
    root = _setup_accents(tmp_path, "ai_ci")
    _run(root, "ai_ci")
    from tiflow_ray.state.checkpoint import LakeState
    m = LakeState(os.path.join(root, "lake")).latest()
    assert m.stats.get("key_collation") == "ai_ci"
    got = rp.lake_to_table(os.path.join(root, "lake"))  # config-free read
    exp = oracle.replay_to_table(root, SchemaRegistry([]),
                                 collation="ai_ci")
    assert got.num_rows == exp.num_rows


def test_ci_compact_lake_keeps_collation(tmp_path):
    """Offline compaction folds MoR chains under the lake's collation and
    keeps it in the manifest it commits, so every later read folds ci."""
    from tiflow_ray.state.checkpoint import LakeState
    root = _setup(tmp_path, "ci")
    _run(root, "ci")
    lake = os.path.join(root, "lake")
    assert rp.compact_lake(lake)["parts_folded"] > 0
    got = _canon(rp.lake_to_table(lake))
    exp = _canon(oracle.replay_to_table(root, SchemaRegistry([]),
                                        collation="ci"))
    assert got.equals(exp), f"{got.num_rows} rows vs ci oracle {exp.num_rows}"
    assert LakeState(lake).latest().stats.get("key_collation") == "ci"


def test_ci_repartition_then_replay_matches_oracle(tmp_path):
    """repartition_lake re-hashes keys in their collation form — the form
    the engine routes by — so a replay resumed under the new P merges
    case variants into the right partitions."""
    from tiflow_ray.state.checkpoint import LakeState
    root = _setup(tmp_path, "ci")
    cfg = ReplayConfig(wal_dir=os.path.join(root, "wal"),
                       lake_dir=os.path.join(root, "lake"),
                       num_partitions=8, max_segments_per_epoch=2,
                       key_collation="ci")
    rp.bootstrap(cfg, base_dir=os.path.join(root, "base"))
    assert len(rp.run_replay(cfg, max_epochs=1).epochs) == 1
    rp.repartition_lake(cfg.lake_dir, 16)
    cfg16 = dataclasses.replace(cfg, num_partitions=16)
    assert rp.run_replay(cfg16).epochs, "nothing left to replay"
    got = _canon(rp.lake_to_table(cfg.lake_dir))
    exp = _canon(oracle.replay_to_table(root, SchemaRegistry([]),
                                        collation="ci"))
    assert got.equals(exp), f"{got.num_rows} rows vs ci oracle {exp.num_rows}"
    assert LakeState(cfg.lake_dir).latest().stats.get("key_collation") == "ci"


def test_ci_base_bootstraps_as_multitable_table(tmp_path):
    """The multi-table bootstrap runs the single-table co-partition guard:
    a base laid out under key_collation="ci" is accepted as a table of a
    multi-table lake with the same collation, and a base laid out with a
    different P is still refused."""
    import pytest

    from tiflow_ray.pipelines import multitable as mt
    root = _setup(tmp_path, "ci")
    base = os.path.join(root, "base")
    for p, ok in ((8, True), (16, False)):
        cfg = ReplayConfig(wal_dir=os.path.join(root, "wal"),
                           lake_dir=os.path.join(root, f"mt_lake_p{p}"),
                           num_partitions=p, key_collation="ci")
        boot = lambda: mt.bootstrap_multitable(  # noqa: E731
            cfg, {"t": SchemaRegistry([])}, {"t": base})
        if ok:
            m = boot()
            assert sum(meta["rows"] for meta in m.parts.values()) == N
        else:
            with pytest.raises(ValueError, match="partitioned"):
                boot()
