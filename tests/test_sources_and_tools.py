"""JSONL WAL codec, event-predicate hook, diff validator, CLI, skew."""

import json
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from tiflow_ray import fixtures, oracle
from tiflow_ray.config import ReplayConfig
from tiflow_ray.pipelines import replay as rp


def _wal_as(src_root, dst_root, reg, fmt):
    """Rewrite a generated parquet WAL in another codec (same events)."""
    from tiflow_ray.sources.wal import list_segments
    os.makedirs(f"{dst_root}/wal", exist_ok=True)
    tables = [pq.read_table(s.path) for s in list_segments(f"{src_root}/wal")]
    t = pa.concat_tables(tables, promote_options="default")
    fixtures.write_wal_segments(t, f"{dst_root}/wal", len(tables), reg,
                                fmt=fmt)


def test_codec_wals_match_parquet_wal(t1_noddl_fixture, tmp_path):
    """M9/M10: jsonl, csv, canal-json, debezium, open-protocol, maxwell,
    simple, avro, craft and mysql-binlog change files all replay to the
    exact same lake state as the parquet WAL (reference-format compat, S6)
    — 11-format parity covering every protocol slot in
    pkg/config/sink_protocol.go plus the DM relay-log direction (S4)."""
    root, reg, *_ = t1_noddl_fixture
    lakes = {}
    for fmt in ("parquet", "jsonl", "csv", "canal_json", "debezium",
                "open_protocol", "maxwell", "simple", "avro", "craft",
                "mysql_binlog"):
        if fmt == "parquet":
            wal = f"{root}/wal"
        else:
            froot = str(tmp_path / f"{fmt}_fixture")
            _wal_as(root, froot, reg, fmt)
            wal = f"{froot}/wal"
        cfg = ReplayConfig(wal_dir=wal, lake_dir=str(tmp_path / f"lake_{fmt}"),
                           num_partitions=8, validate=True)
        rp.bootstrap(cfg, base_dir=f"{root}/base")
        rp.run_replay(cfg)
        lakes[fmt] = rp.lake_to_table(cfg.lake_dir, cfg.wal_dir)
    exp = oracle.replay_to_table(root, reg)
    for fmt, t in lakes.items():
        assert t.equals(exp), f"{fmt} lake diverged from oracle"


def test_codec_wals_with_ddl_barrier(t1_fixture, tmp_path):
    """Change-file codecs under SCHEMA EVOLUTION: the DDL-tier WAL's
    segments carry different column sets before/after each barrier (and
    the straddling segments a union), so each segment must decode under
    its OWN segment-meta column order — the per-file column groups in
    read_codec_epoch. A positional codec (csv) decoded under one epoch-
    wide order would misalign silently; binary codecs would fail their
    schema asserts. All must replay to the exact oracle lake."""
    from tiflow_ray import fixtures, oracle
    from tiflow_ray.pipelines import replay as rp

    root, reg, *_ = t1_fixture
    exp = oracle.replay_to_table(root, reg)
    for fmt in ("csv", "canal_json", "avro", "craft"):
        dst = str(tmp_path / fmt)
        fixtures.transcode_wal(f"{root}/wal", f"{dst}/wal", fmt)
        cfg = ReplayConfig(wal_dir=f"{dst}/wal",
                           lake_dir=str(tmp_path / f"lake_{fmt}"),
                           num_partitions=8, validate=True)
        rp.bootstrap(cfg, base_dir=f"{root}/base")
        rp.run_replay(cfg)
        got = rp.lake_to_table(cfg.lake_dir, cfg.wal_dir)
        assert got.equals(exp), f"{fmt} DDL-barrier lake diverged"


def test_avro_codec_roundtrip():
    """Self-contained Avro OCF (public 1.11 spec byte layout): zigzag
    varints, null-union branches, array blocks, embedded writer schema,
    sync markers — bit-exact table roundtrip incl. nulls, negatives,
    empty arrays and embedded newlines (binary format: no line framing)."""
    from tiflow_ray.sources.codecs import decode_avro, encode_avro
    t = pa.table({
        "op": pa.array([3, 1, 2], pa.uint8()),
        "commit_ts": pa.array([10, 11, 12], pa.uint64()),
        "start_ts": pa.array([9, 10, 11], pa.uint64()),
        "doc_id": pa.array(['d"q', None, "d3"]),
        "tokens": pa.array([[1, 2, 3], [], None], pa.list_(pa.int32())),
        "pre_tokens": pa.array([None, [5], None], pa.list_(pa.int32())),
        "n_tok": pa.array([3, 0, None], pa.int32()),
        "source": pa.array(["web", None, "x\ny"]),
        "schema_ver": pa.array([1, 1, 2], pa.int32()),
    })
    blob = encode_avro(t, block_rows=2)   # force multi-block
    assert blob[:4] == b"Obj\x01"
    got = decode_avro(blob, list(t.column_names))
    assert got.equals(t)
    # schema-file consistency check: wrong column order fails loudly
    import pytest as _pytest
    with _pytest.raises(AssertionError):
        decode_avro(blob, list(reversed(t.column_names)))


def test_avro_block_splitter_parallel_decode(tmp_path):
    """One OCF segment fans out BLOCK-granular (r3 verdict #8): the split
    planner walks block headers (no datum decode), groups them into ≥8
    byte ranges for a single file, and the range-decode pipeline
    reassembles the exact table the whole-file decoder produces."""
    import numpy as np
    import ray
    import ray.data

    from tiflow_ray.sources.codecs import (AvroRangeDecoder,
                                           avro_block_ranges, decode_avro,
                                           encode_avro, plan_avro_splits)
    n = 4000
    t = pa.table({
        "op": pa.array(np.full(n, 2, np.uint8)),
        "commit_ts": pa.array(np.arange(1, n + 1, dtype=np.uint64)),
        "start_ts": pa.array(np.arange(n, dtype=np.uint64)),
        "doc_id": pa.array([f"doc{i:07d}" for i in range(n)]),
        "tokens": pa.array([[i % 100, i % 7] for i in range(n)],
                           pa.list_(pa.int32())),
        "pre_tokens": pa.nulls(n, pa.list_(pa.int32())),
        "n_tok": pa.array(np.full(n, 2, np.int32)),
        "source": pa.array(["web"] * n),
        "schema_ver": pa.array(np.ones(n, np.int32)),
    })
    blob = encode_avro(t, block_rows=50)            # many blocks
    assert len(avro_block_ranges(blob)) == n // 50
    path = str(tmp_path / "seg.avro")
    with open(path, "wb") as f:
        f.write(blob)
    # tiny target_bytes stands in for a 512MB file at 8MB targets
    items = plan_avro_splits([path], list(t.column_names),
                             target_bytes=len(blob) // 16)
    assert len(items) >= 8, f"only {len(items)} ranges for one segment"
    got = pa.concat_tables(
        ray.data.from_items(items, override_num_blocks=len(items))
        .map_batches(AvroRangeDecoder(list(t.column_names)),
                     batch_format="pyarrow", batch_size=1)
        .iter_batches(batch_format="pyarrow", batch_size=None))
    got = got.take(pa.compute.sort_indices(got, sort_keys=[
        ("commit_ts", "ascending")]))
    assert got.equals(decode_avro(blob, list(t.column_names)))


def test_craft_codec_roundtrip():
    """Craft-style binary columnar message (design of pkg/sink/codec/craft:
    delta-zigzag-varint ts chunks, nullable length-prefixed value chunks,
    term dictionary, tail size tables behind a reversed uvarint) — bit-exact
    roundtrip incl. nulls, empty lists and embedded newlines."""
    from tiflow_ray.sources.codecs import decode_craft, encode_craft
    t = pa.table({
        "op": pa.array([3, 1, 2], pa.uint8()),
        "commit_ts": pa.array([10, 11, 12], pa.uint64()),
        "start_ts": pa.array([9, 10, 11], pa.uint64()),
        "doc_id": pa.array(['d"q', None, "d3"]),
        "tokens": pa.array([[1, 2, 3], [], None], pa.list_(pa.int32())),
        "pre_tokens": pa.array([None, [5], None], pa.list_(pa.int32())),
        "n_tok": pa.array([3, 0, None], pa.int32()),
        "source": pa.array(["web", None, "x\ny"]),
        "schema_ver": pa.array([1, 1, 2], pa.int32()),
    })
    blob = encode_craft(t)
    got = decode_craft(blob, list(t.column_names))
    assert got.equals(t)
    # segment-meta column-order cross-check fails loudly (same contract
    # as the avro decoder)
    import pytest as _pytest
    with _pytest.raises(AssertionError):
        decode_craft(blob, list(reversed(t.column_names)))


def test_csv_codec_roundtrip_quoting():
    """Reference csv conventions: I/U/D op letters, \\N nulls, quoted
    strings with doubled internal quotes, space-separated token arrays."""
    from tiflow_ray.sources.codecs import decode_csv_lines, encode_csv
    t = pa.table({
        "op": pa.array([3, 1, 2], pa.uint8()),
        "commit_ts": pa.array([10, 11, 12], pa.uint64()),
        "start_ts": pa.array([9, 10, 11], pa.uint64()),
        "doc_id": pa.array(['d"quote', "d2", "d3"]),
        "tokens": pa.array([[1, 2], None, []], pa.list_(pa.int32())),
        "n_tok": pa.array([2, None, 0], pa.int32()),
        "source": pa.array(["we,b", None, "books"]),
        "pre_tokens": pa.array([None, [7], None], pa.list_(pa.int32())),
        "new_doc_id": pa.array([None, None, "d9"], pa.string()),
        "schema_ver": pa.array([1, 1, 1], pa.int32()),
    })
    text, cols = encode_csv(t)
    lines = text.splitlines()
    assert lines[0].startswith('I,10,9,"d""quote","1 2",2,"we,b",\\N,\\N,1')
    assert lines[1].startswith("D,11,10")
    back = decode_csv_lines(lines, cols)
    assert back.equals(t)


def test_csv_codec_roundtrips_embedded_newlines():
    """A doc_id/source containing '\\n' must survive read_text/splitlines:
    encode escapes \\, \\n, \\r inside quoted cells; decode reverses."""
    from tiflow_ray.sources.codecs import decode_csv_lines, encode_csv
    t = pa.table({
        "op": pa.array([3, 3], pa.uint8()),
        "commit_ts": pa.array([10, 11], pa.uint64()),
        "start_ts": pa.array([9, 10], pa.uint64()),
        "doc_id": pa.array(["line1\nline2", "tab\\n-literal\r"]),
        "tokens": pa.array([[1], [2]], pa.list_(pa.int32())),
        "n_tok": pa.array([1, 1], pa.int32()),
        "source": pa.array(["a\nb\nc", None]),
        "pre_tokens": pa.array([None, None], pa.list_(pa.int32())),
        "new_doc_id": pa.array([None, None], pa.string()),
        "schema_ver": pa.array([1, 1], pa.int32()),
    })
    text, cols = encode_csv(t)
    lines = text.splitlines()          # exactly what the WAL reader does
    assert len([ln for ln in lines if ln]) == 2
    back = decode_csv_lines(lines, cols)
    assert back.equals(t)


def test_canal_json_empty_pre_tokens_roundtrip():
    """old.tokens == [] must round-trip as [], not collapse to None."""
    from tiflow_ray.sources.codecs import (decode_canal_lines,
                                           encode_canal_json)
    t = pa.table({
        "op": pa.array([2], pa.uint8()),
        "commit_ts": pa.array([10], pa.uint64()),
        "start_ts": pa.array([9], pa.uint64()),
        "doc_id": pa.array(["a"]),
        "tokens": pa.array([[1]], pa.list_(pa.int32())),
        "n_tok": pa.array([1], pa.int32()),
        "source": pa.array(["web"]),
        "pre_tokens": pa.array([[]], pa.list_(pa.int32())),
        "new_doc_id": pa.array([None], pa.string()),
        "schema_ver": pa.array([1], pa.int32()),
    })
    text = encode_canal_json(t)
    obj = json.loads(text.splitlines()[0])
    assert obj["old"][0]["tokens"] == ""           # present, empty
    back = decode_canal_lines(text.splitlines(), t.column_names)
    assert back.equals(t)


def test_canal_json_roundtrip_op_mapping():
    from tiflow_ray.sources.codecs import (decode_canal_lines,
                                           encode_canal_json)
    t = pa.table({
        "op": pa.array([3, 1, 2], pa.uint8()),
        "commit_ts": pa.array([10, 11, 12], pa.uint64()),
        "start_ts": pa.array([9, 10, 11], pa.uint64()),
        "doc_id": pa.array(["a", "b", "c"]),
        "tokens": pa.array([[1, 2], None, [3]], pa.list_(pa.int32())),
        "n_tok": pa.array([2, None, 1], pa.int32()),
        "source": pa.array(["web", None, "books"]),
        "pre_tokens": pa.array([None, None, [5, 6]], pa.list_(pa.int32())),
        "new_doc_id": pa.array([None, None, None], pa.string()),
        "schema_ver": pa.array([1, 1, 1], pa.int32()),
    })
    text = encode_canal_json(t)
    objs = [json.loads(ln) for ln in text.splitlines()]
    assert [o["type"] for o in objs] == ["INSERT", "DELETE", "UPDATE"]
    assert objs[0]["data"][0]["tokens"] == "1 2"     # canal: values as strings
    assert objs[2]["old"][0]["tokens"] == "5 6"
    back = decode_canal_lines(text.splitlines(), t.column_names)
    assert back.equals(t)


def test_event_predicate_hook(t1_noddl_fixture, tmp_path):
    """M6/§2.10: user predicate drops events by image content; deletes with
    null images must survive the mask semantics explicitly."""
    root, reg, *_ = t1_noddl_fixture

    def keep_short(t: pa.Table):
        # keep deletes plus events with < 40 tokens
        short = pc.fill_null(pc.less(pc.list_value_length(t["tokens"]), 40), True)
        return short

    cfg = ReplayConfig(wal_dir=f"{root}/wal", lake_dir=str(tmp_path / "lake"),
                       num_partitions=8, event_predicate=keep_short)
    rp.bootstrap(cfg, base_dir=f"{root}/base")
    rp.run_replay(cfg)
    got = rp.lake_to_table(cfg.lake_dir, cfg.wal_dir)
    # python-side oracle with the same filter
    rows = oracle.load_base_rows(root)
    evs = [e for e in oracle.load_wal_events(root)
           if e["tokens"] is None or len(e["tokens"]) < 40]
    evs.sort(key=lambda e: (e["commit_ts"], e["start_ts"], e["op"]))
    for e in evs:
        if e["op"] == 1:
            rows.pop(e["doc_id"], None)
        else:
            doc = e["new_doc_id"] if (e["op"] == 2 and e.get("new_doc_id")) else e["doc_id"]
            if e["op"] == 2 and e.get("new_doc_id"):
                rows.pop(e["doc_id"], None)
            rows[doc] = {"doc_id": doc, "tokens": e["tokens"],
                         "n_tok": e["n_tok"], "source": e["source"]}
    assert got.num_rows == len(rows)
    got_map = {r["doc_id"]: r["tokens"] for r in got.to_pylist()}
    for k, v in rows.items():
        assert got_map[k] == v["tokens"], k


def test_expr_filter_rules_replay(t1_noddl_fixture, tmp_path):
    """Declarative M6 (expr_filter.go analog): SQL IGNORE expressions on
    the insert/update-new images, DuckDB-evaluated per batch inside the
    replay; deletes (no new image) must survive."""
    from tiflow_ray.stages.expr_filter import ExprFilterRule
    root, reg, *_ = t1_noddl_fixture
    rules = (ExprFilterRule(matcher="documents",
                            ignore_insert="n_tok >= 40",
                            ignore_update_new="n_tok >= 40"),)
    cfg = ReplayConfig(wal_dir=f"{root}/wal", lake_dir=str(tmp_path / "lake"),
                       num_partitions=8, expr_filter_rules=rules)
    rp.bootstrap(cfg, base_dir=f"{root}/base")
    rp.run_replay(cfg)
    got = rp.lake_to_table(cfg.lake_dir, cfg.wal_dir)
    # python-side oracle with the same filter semantics (NULL ⇒ keep)
    rows = oracle.load_base_rows(root)
    evs = [e for e in oracle.load_wal_events(root)
           if e["op"] == 1 or e["n_tok"] is None or e["n_tok"] < 40]
    evs.sort(key=lambda e: (e["commit_ts"], e["start_ts"], e["op"]))
    for e in evs:
        if e["op"] == 1:
            rows.pop(e["doc_id"], None)
        else:
            doc = e["new_doc_id"] if (e["op"] == 2 and e.get("new_doc_id")) else e["doc_id"]
            if e["op"] == 2 and e.get("new_doc_id"):
                rows.pop(e["doc_id"], None)
            rows[doc] = {"doc_id": doc, "tokens": e["tokens"],
                         "n_tok": e["n_tok"], "source": e["source"]}
    assert got.num_rows == len(rows)
    got_map = {r["doc_id"]: r["tokens"] for r in got.to_pylist()}
    for k, v in rows.items():
        assert got_map[k] == v["tokens"], k


def test_expr_filter_pre_image_and_matcher():
    """Unit semantics: update-old fires on the PRE image (pre_map rename),
    uncarried pre columns are NULL ⇒ keep, non-matching table ⇒ no-op,
    and update skip is OR(old, new)."""
    from tiflow_ray.stages.expr_filter import ExprFilter, ExprFilterRule
    t = pa.table({
        "op": pa.array([2, 2, 2, 1, 3], pa.uint8()),
        "commit_ts": pa.array([1, 2, 3, 4, 5], pa.uint64()),
        "start_ts": pa.array([0] * 5, pa.uint64()),
        "doc_id": pa.array(["a", "b", "c", "d", "e"]),
        "tokens": pa.array([[1], [2], [3], None, [5]], pa.list_(pa.int32())),
        "n_tok": pa.array([1, 1, 1, None, 1], pa.int32()),
        "source": pa.array(["w", "w", "w", None, "w"]),
        "pre_tokens": pa.array([[9, 9], [1], None, None, None],
                               pa.list_(pa.int32())),
        "new_doc_id": pa.array([None] * 5, pa.string()),
        "schema_ver": pa.array([1] * 5, pa.int32()),
    })
    rule = ExprFilterRule(matcher="documents",
                          ignore_update_old="len(tokens) >= 2",
                          ignore_update_new="n_tok >= 7",
                          ignore_delete="source = 'w'")
    keep = ExprFilter([rule])(t).to_pylist()
    # row0: pre image [9,9] → old fires → skip; row1: pre [1] → keep;
    # row2: pre NULL → keep; row3 delete: source not carried pre → NULL
    # ⇒ keep; row4 insert: no insert expr → keep
    assert keep == [False, True, True, True, True]
    # non-matching table: every rule inert
    other = ExprFilter([rule], table="orders")(t).to_pylist()
    assert other == [True] * 5
    # update OR-semantics: new-image expression alone also skips
    rule2 = ExprFilterRule(matcher="doc.*", ignore_update_new="n_tok >= 1")
    keep2 = ExprFilter([rule2])(t).to_pylist()
    assert keep2 == [False, False, False, True, True]


def test_declarative_toml_config(t1_noddl_fixture, tmp_path):
    """§2.10: the TOML surface users actually write — expr-filter +
    binlog-filter rule tables load into typed rule objects; a replay
    driven by the file equals one driven by the equivalent Python rules."""
    from tiflow_ray.config import load_config
    from tiflow_ray.stages.expr_filter import ExprFilterRule
    root, reg, *_ = t1_noddl_fixture
    toml = tmp_path / "changefeed.toml"
    toml.write_text(f"""
wal_dir = "{root}/wal"
num_partitions = 8
ignore_sources = ["web"]
syncpoint_interval = 0

[[expr_filter_rules]]
matcher = "documents"
ignore_insert = "n_tok >= 40"
ignore_update_new = "n_tok >= 40"

[[binlog_filter_rules]]
schema_pattern = "db.*"
table_pattern = "click"
events = ["update"]
action = "Ignore"
""")
    cfg = load_config(str(toml), lake_dir=str(tmp_path / "lake_toml"))
    assert cfg.num_partitions == 8
    assert cfg.ignore_sources == frozenset({"web"})
    assert cfg.expr_filter_rules[0].ignore_insert == "n_tok >= 40"
    assert not cfg.binlog_filter.keep("db1", "click", "update")
    assert cfg.binlog_filter.keep("db1", "view", "update")

    rp.bootstrap(cfg, base_dir=f"{root}/base")
    rp.run_replay(cfg)
    ref_cfg = ReplayConfig(
        wal_dir=f"{root}/wal", lake_dir=str(tmp_path / "lake_py"),
        num_partitions=8, ignore_sources=frozenset({"web"}),
        expr_filter_rules=(ExprFilterRule(matcher="documents",
                                          ignore_insert="n_tok >= 40",
                                          ignore_update_new="n_tok >= 40"),))
    rp.bootstrap(ref_cfg, base_dir=f"{root}/base")
    rp.run_replay(ref_cfg)
    assert rp.lake_to_table(cfg.lake_dir, cfg.wal_dir).equals(
        rp.lake_to_table(ref_cfg.lake_dir, ref_cfg.wal_dir))

    import pytest
    bad = tmp_path / "bad.toml"
    bad.write_text("wal_dri = 'typo'\n")
    with pytest.raises(ValueError, match="unknown config keys"):
        load_config(str(bad))
    # removed knobs fail the same way instead of being silently ignored
    for knob in ("replay_mode = 'two_pass'", "shuffle_mode = 'direct'",
                 "safe_mode = false", "merge_concurrency = 4",
                 "auto_salt_share = 0.5", "auto_salt_factor = 4",
                 "salt_shuffle = 4"):
        bad.write_text(knob + "\n")
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(str(bad))


def test_diff_validator_finds_planted_differences(t1_noddl_fixture, tmp_path):
    import ray.data
    from tiflow_ray.functions.diff import diff_tables
    root, reg, *_ = t1_noddl_fixture
    cfg = ReplayConfig(wal_dir=f"{root}/wal", lake_dir=str(tmp_path / "lake"),
                       num_partitions=8)
    rp.bootstrap(cfg, base_dir=f"{root}/base")
    rp.run_replay(cfg)
    t = rp.lake_to_table(cfg.lake_dir, cfg.wal_dir)

    same = diff_tables(ray.data.from_arrow(t), ray.data.from_arrow(t), "doc_id")
    assert same["equal"]

    # plant: drop one row, mutate one row's n_tok
    mutated = t.slice(1)  # drops row 0
    nt = mutated["n_tok"].to_numpy(zero_copy_only=False).copy()
    nt[0] = nt[0] + 1
    mutated = mutated.set_column(mutated.schema.get_field_index("n_tok"),
                                 "n_tok", pa.array(nt, pa.int32()))
    d = diff_tables(ray.data.from_arrow(t), ray.data.from_arrow(mutated), "doc_id")
    assert not d["equal"]
    dropped = t["doc_id"][0].as_py()
    changed = t["doc_id"][1].as_py()
    assert dropped in d["left_only"]
    assert changed in d["value_diff"]


def test_extreme_hot_key_skew(tmp_path):
    """90% of events on ~3 docs: combiner + partition sort must still give
    the exact oracle state."""
    root = str(tmp_path / "hot")
    reg, metas, info = fixtures.generate_tier(
        root, "t1_noddl", hot_frac=0.002, hot_share=0.9)
    cfg = ReplayConfig(wal_dir=f"{root}/wal", lake_dir=str(tmp_path / "lake"),
                       num_partitions=8, validate=True)
    rp.bootstrap(cfg, base_dir=f"{root}/base")
    rp.run_replay(cfg)
    got = rp.lake_to_table(cfg.lake_dir, cfg.wal_dir)
    assert got.equals(oracle.replay_to_table(root, reg))


def test_auto_salt_detects_hot_keys_and_matches_oracle(tmp_path):
    """Dynamic hot-key salting (splitter_write.go analog): with 90% of
    events on ~3 docs the salted (part, salt) pre-reduce must still
    produce the exact unsalted oracle state, and so must a uniform
    stream. Detection itself is checked batch by batch in
    test_compact_batch_salts_only_hot_keys."""
    for name, skew in (("hot", {"hot_frac": 0.002, "hot_share": 0.9}),
                       ("flat", {})):
        root = str(tmp_path / name)
        reg, *_ = fixtures.generate_tier(root, "t1_noddl", **skew)
        cfg = ReplayConfig(wal_dir=f"{root}/wal",
                           lake_dir=str(tmp_path / f"lake_{name}"),
                           num_partitions=8, auto_salt=True, validate=True)
        rp.bootstrap(cfg, base_dir=f"{root}/base")
        rp.run_replay(cfg)
        assert rp.lake_to_table(cfg.lake_dir, cfg.wal_dir).equals(
            oracle.replay_to_table(root, reg)), name


def test_compact_batch_salts_only_hot_keys():
    """The detector, deterministically: in one batch where one key holds
    90% of the events, that key's surviving rows carry a nonzero salt and
    every other key keeps salt 0; a uniform batch salts nothing."""
    from tiflow_ray.pipelines.replay import AUTO_SALT_FACTOR, AUTO_SALT_SHARE
    from tiflow_ray.stages.compact import compact_batch

    def batch(docs):
        n = len(docs)
        return pa.table({"op": pa.array(np.full(n, 2, np.uint8)),
                         "commit_ts": pa.array(np.arange(1, n + 1,
                                                         dtype=np.uint64)),
                         "start_ts": pa.array(np.arange(n, dtype=np.uint64)),
                         "doc_id": pa.array(docs)})

    hot = ["hot"] * 900 + [f"d{i}" for i in range(100)]
    out = compact_batch(batch(hot), 8, hot_share=AUTO_SALT_SHARE,
                        salt_factor=AUTO_SALT_FACTOR)
    ids = out["doc_id"].to_pylist()
    salt = out["salt"].to_numpy()
    # the combiner keeps the hot key's last writer (start_ts 899)
    assert ids.count("hot") == 1
    assert salt[ids.index("hot")] == 899 % AUTO_SALT_FACTOR != 0
    assert not salt[[i for i, d in enumerate(ids) if d != "hot"]].any()

    flat = compact_batch(batch([f"d{i % 500}" for i in range(1000)]), 8,
                         hot_share=AUTO_SALT_SHARE,
                         salt_factor=AUTO_SALT_FACTOR)
    assert not flat["salt"].to_numpy().any()


def test_cli_lifecycle_compact_walgc_export(t1_noddl_fixture, tmp_path):
    """Full operator lifecycle through the CLI (fresh processes, as a user
    would): replay → show (chains) → compact → wal-gc → export; the
    exported parquet equals the lake state."""
    import shutil

    import pyarrow.compute as _pc
    root, reg, *_ = t1_noddl_fixture
    lake = str(tmp_path / "lake_lc")
    out_dir = str(tmp_path / "export_lc")
    # wal-gc DELETES segments — run it against a private copy, never the
    # shared session fixture (the oracle below still needs the stream)
    wal = str(tmp_path / "wal_lc")
    shutil.copytree(os.path.join(root, "wal"), wal)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), RAY_ADDRESS="local")

    def cli(*args):
        r = subprocess.run([sys.executable, "-m", "tiflow_ray.cli",
                            "--num-cpus", "4", *args],
                           capture_output=True, text=True, env=env,
                           timeout=300)
        assert r.returncode == 0, r.stderr[-2000:]
        out = r.stdout.strip()
        return json.loads(out[out.index("{"):])   # `show` is multi-line json

    cli("bootstrap", "--base", f"{root}/base", "--lake", lake, "-P", "8")
    cli("replay", "--wal", wal, "--lake", lake, "-P", "8",
        "--segments-per-epoch", "1")
    show = cli("show", "--lake", lake)
    assert show["delta_chains"], "expected MoR chains before compaction"
    c = cli("compact", "--lake", lake)
    assert c["parts_folded"] > 0
    assert not cli("show", "--lake", lake)["delta_chains"]
    g = cli("wal-gc", "--wal", wal, "--lake", lake)
    assert g["segments_removed"] > 0
    cli("export", "--lake", lake, "--out", out_dir)

    from tiflow_ray import oracle as _oracle
    exp = _oracle.replay_to_table(root, reg)
    exported = pq.read_table(out_dir).select(exp.column_names)
    exported = exported.take(_pc.sort_indices(
        exported, sort_keys=[("doc_id", "ascending")]))
    # Ray's parquet writer names list children "item" vs pyarrow's
    # "element" — a naming difference, not a data one
    exported = exported.cast(exp.schema)
    assert exported.equals(exp)


def test_cli_end_to_end(t1_noddl_fixture, tmp_path):
    """Drive the CLI as a user would (fresh process owning its Ray session)."""
    root, reg, *_ = t1_noddl_fixture
    lake = str(tmp_path / "lake_cli")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), RAY_ADDRESS="local")
    out = subprocess.run(
        [sys.executable, "-m", "tiflow_ray.cli", "--num-cpus", "4",
         "replay", "--wal", f"{root}/wal", "--lake", lake, "-P", "8"],
        capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    # bootstrap-less lake (insert-only semantics): every doc came from WAL
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["epochs"] >= 1
    show = subprocess.run(
        [sys.executable, "-m", "tiflow_ray.cli", "show", "--lake", lake],
        capture_output=True, text=True, env=env, timeout=60)
    assert show.returncode == 0
    head = json.loads(show.stdout)["epoch"]
    assert head >= 1
    # rewind one epoch, then replay forward again to the same head
    rw = subprocess.run(
        [sys.executable, "-m", "tiflow_ray.cli", "rewind", "--lake", lake,
         "--epoch", str(head - 1), "--wal", f"{root}/wal"],
        capture_output=True, text=True, env=env, timeout=60)
    assert rw.returncode == 0, rw.stderr[-2000:]
    assert json.loads(rw.stdout)["manifests_removed"] == 1
    out2 = subprocess.run(
        [sys.executable, "-m", "tiflow_ray.cli", "--num-cpus", "4",
         "replay", "--wal", f"{root}/wal", "--lake", lake, "-P", "8"],
        capture_output=True, text=True, env=env, timeout=300)
    assert out2.returncode == 0, out2.stderr[-2000:]
    assert json.loads(subprocess.run(
        [sys.executable, "-m", "tiflow_ray.cli", "show", "--lake", lake],
        capture_output=True, text=True, env=env,
        timeout=60).stdout)["epoch"] == head


def test_plan_epochs_byte_cap(t1_noddl_fixture, tmp_path):
    """VERDICT r4 #6: epochs are additionally cut by on-disk segment
    bytes, so one epoch's working set is bounded regardless of how many
    rows a segment packs; replay under a tiny cap still equals the
    oracle (more epochs, same lake)."""
    from tiflow_ray.sources.wal import list_segments, plan_epochs

    root, reg, *_ = t1_noddl_fixture
    segs = list_segments(f"{root}/wal")
    uncapped = plan_epochs(segs, reg, max_segments_per_epoch=100)
    capped = plan_epochs(segs, reg, max_segments_per_epoch=100,
                         max_bytes_per_epoch=1)   # every segment overflows
    assert len(capped) == len(segs) > len(uncapped)
    # same coverage, finer cuts
    assert capped[-1].hi == uncapped[-1].hi
    assert {f for e in capped for f in e.files} \
        == {f for e in uncapped for f in e.files}
    # determinism: the plan is reproducible (resume contract)
    assert capped == plan_epochs(segs, reg, max_segments_per_epoch=100,
                                 max_bytes_per_epoch=1)

    # end-to-end: byte-capped replay equals the oracle
    cfg = ReplayConfig(wal_dir=f"{root}/wal",
                       lake_dir=str(tmp_path / "lake_cap"),
                       num_partitions=8, max_epoch_bytes=1)
    rp.bootstrap(cfg, base_dir=f"{root}/base")
    res = rp.run_replay(cfg)
    assert len(res.epochs) == len(segs)
    assert rp.lake_to_table(cfg.lake_dir, cfg.wal_dir).equals(
        oracle.replay_to_table(root, reg))
