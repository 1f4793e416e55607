"""MQ produce/fetch/consume pipelines — the message-queue leg of the sink
matrix as a user-facing job (cdc/sink/dmlsink/mq + cdc/sink/ddlsink/mq,
cmd/kafka-consumer), not just a stage.

One stream format. A topic is a single-table stream: per-partition
message logs with dense offsets, a DDL broadcast repeating the table's
schedule on every partition, and a descriptor — `partition={p}/`, `_ddl/`
and `meta.json` in the file layout (the durable stand-in for Kafka topics,
as in the reference's storage sink), `{topic}`, `{topic}.__ddl` and
`{topic}.__meta` on a broker. `produce_mq` writes it, `fetch_mq` spools a
broker topic back into the file layout, and `consume_mq` (batch) /
`consume_mq_stream` (one resolved-ts round) decode each partition into a
derived-WAL segment and replay it with the standard engine — the stream
alone carries the replicated state. A multi-table changefeed is one such
topic per table (EventRouter topic templates) under `topic={topic}/`, plus
an index mapping tables to topics (`meta.json` with `tables`, or
`__mt_meta`); the `*_multitable` functions run the pieces per topic.
"""

from __future__ import annotations

import glob
import json
import os
import threading

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from ..config import ReplayConfig
from . import replay as rp


def produce_mq(wal_dir: str, out_dir: str, num_partitions: int,
               dispatcher: str = "key", database: str = "tiflow",
               table: str = "documents",
               protocol: str = "canal_json",
               max_message_bytes: int | None = None,
               large_handle: str = "none",
               broker: str | None = None,
               topic: str = "changefeed",
               schema_registry: str | None = None,
               producer_state: str | None = None) -> dict:
    """WAL → per-partition message logs (canal-json / open-protocol text,
    or Confluent-framed avro binary via the file-backed schema registry)
    + a canal-json DDL broadcast (the control channel is canal-json under
    every protocol — its isDdl envelope carries the DDL SQL text).

    One `groupby(mq_partition).map_groups` pass: each partition's whole
    stream is encoded by one task (offsets must be dense per partition —
    the per-key ordering contract consumers rely on), so parallelism =
    num_partitions. Message logs are parquet (partition, offset, key,
    payload) under partition= dirs — resumable, one dir per partition.

    `broker="host:port"` sends each partition's messages over the REAL
    Kafka wire instead (sinks/kafka_wire.py): every map_groups task opens
    its own connection and produces its partition of `topic` — the
    per-worker sarama producer shape (kafka_dml_producer.go). DDLs
    broadcast to `{topic}.__ddl`, the stream descriptor to
    `{topic}.__meta`; `fetch_mq` spools the topic back into this exact
    file layout for `consume_mq`. At-least-once like any acks=1 Kafka
    producer — a crashed task's partition may carry duplicates on rerun
    (the v0 protocol has no idempotent-producer sequence numbers).
    avro over the broker needs `schema_registry="http://..."` — the schema-
    registry REST service (sinks/schema_registry_http.py), the same
    endpoint pair (broker + registry) the reference's avro sink deploys
    against. claim_check (points at external storage) stays
    file-layout-only by nature.

    `producer_state="path.json"` makes the producer STREAMING: only WAL
    segments not yet recorded there are encoded, partition streams
    append, the DDL broadcast sends only its unsent tail, and every call
    ends with a TIDB_WATERMARK broadcast to every partition — call it in
    a loop over a growing WAL and the topic is a live changefeed
    (consume incrementally with consume_mq_stream)."""
    from ..sinks.mq import MqSinkStage, dispatch
    from ..sources.wal import list_segments, load_registry

    segs = list_segments(wal_dir)
    assert segs, f"no WAL segments in {wal_dir}"
    assert all(s.format == "parquet" for s in segs), \
        "produce_mq expects parquet WAL segments"
    registry = load_registry(wal_dir)

    # superset column order: union of segment columns in first-seen order
    # (parquet segment metas may omit the columns list — the parquet
    # footer is the authority there, a metadata-only read per file)
    sup: list[str] = []
    for s in segs:
        names = s.columns or pq.read_schema(s.path).names
        for c in names:
            if c not in sup:
                sup.append(c)

    if broker is not None:
        assert large_handle != "claim_check", \
            "claim_check points at external storage, not the broker"
    registry_root = None
    if protocol == "avro":
        # `registry` is a spec: an http:// URL reaches the REST registry
        # service (sinks/schema_registry_http.py — the Confluent API the
        # reference's avro codec calls); a path is the shared-directory
        # store. Broker mode has no message-log dir to default into, so
        # the service URL is required there — exactly the reference's
        # deployment shape (Kafka + schema-registry endpoints).
        if schema_registry is None:
            assert broker is None, \
                "avro over a wire broker needs schema_registry=" \
                "'http://...' (the schema-registry service endpoint)"
            schema_registry = os.path.join(out_dir, "_registry")
        registry_root = schema_registry
        if "://" not in registry_root:
            os.makedirs(registry_root, exist_ok=True)
    claim_dir = os.path.join(out_dir, "_claim") \
        if large_handle == "claim_check" else None
    sink = MqSinkStage(database=database, table=table, protocol=protocol,
                       registry_root=registry_root,
                       max_message_bytes=max_message_bytes,
                       large_handle=large_handle, claim_dir=claim_dir)

    from ..sources.codecs import encode_canal_watermark

    # producer checkpoint (streaming mode): with `producer_state`, only
    # segments not yet produced are encoded and partition streams APPEND
    # — repeated calls turn this into the changefeed's continuous MQ
    # sink (cdc/sink/dmlsink/mq over a live changefeed), each call
    # ending with a resolved-ts broadcast
    produced: set[str] = set()
    ddls_sent = 0
    next_offsets: dict[str, int] = {}
    streaming = producer_state is not None
    if streaming and os.path.exists(producer_state):
        with open(producer_state) as f:
            st = json.load(f)
        produced = set(st["segments"])
        ddls_sent = int(st.get("ddls", 0))
        next_offsets = {str(k): int(v)
                        for k, v in st.get("offsets", {}).items()}
    todo = [s for s in segs if s.path not in produced]
    stream_wm = max(s.watermark_ts for s in segs)
    payload_type = pa.binary() if protocol == "avro" else pa.string()

    def emit_partition(t: pa.Table) -> pa.Table:
        msgs = sink(t)
        part = int(msgs["mq_partition"][0].as_py()) if msgs.num_rows else 0
        if broker is not None:
            _produce_partition(broker, topic, part, msgs)
        else:
            _file_emit(out_dir, part, msgs, append=streaming,
                       base_floor=next_offsets.get(str(part), 0))
        return pa.table({"mq_partition": pa.array([part], pa.int32()),
                         "messages": pa.array([msgs.num_rows], pa.int64())})

    counts = []
    if todo:
        ds = ray.data.read_parquet([s.path for s in todo])
        counts = (ds.map_batches(
                      lambda t: dispatch(t, num_partitions, dispatcher),
                      batch_format="pyarrow")
                    .groupby("mq_partition")
                    .map_groups(emit_partition, batch_format="pyarrow")
                    .take_all())                 # P rows — tiny

    ddl_sink = sink if protocol == "canal_json" else \
        MqSinkStage(database=database, table=table, protocol="canal_json")
    ddl_msgs = ddl_sink.ddl_stream(registry, num_partitions)
    k_ddl = ddl_msgs.num_rows // max(num_partitions, 1)
    _publish_control(out_dir, broker, topic, ddl_msgs, {
        "protocol": protocol, "columns": sup,
        "database": database, "table": table,
        "num_partitions": num_partitions, "dispatcher": dispatcher,
        "large_handle": large_handle,
        "max_message_bytes": max_message_bytes,
        "registry": registry_root}, ddls_sent)

    # resolved-ts broadcast (TIDB_WATERMARK, canal-json control envelope
    # under every protocol like the DDL stream): EVERY partition — data
    # or not — ends the call with a watermark message carrying the
    # stream's resolved ts, so consumers learn progress in-band instead
    # of inferring it from event maxima (cdc/sink/dmlsink/mq broadcasts
    # resolved events the same way)
    wm_payload = encode_canal_watermark(stream_wm, database, table)
    for p in range(num_partitions):
        row = pa.table({
            "mq_partition": pa.array([p], pa.int32()),
            "offset": pa.array([0], pa.int64()),
            "key": pa.array(["__watermark__"]),
            "payload": pa.array(
                [wm_payload.encode() if protocol == "avro"
                 else wm_payload], payload_type)})
        if broker is not None:
            _produce_partition(broker, topic, p, row)
        else:
            # the producer owns the offset counter (a broker's log-end
            # offset), so retention can trim the files without offsets
            # ever regressing; the watermark is each partition's last write
            next_offsets[str(p)] = _file_emit(
                out_dir, p, row, append=True,
                base_floor=next_offsets.get(str(p), 0))

    if streaming:
        _write_json(producer_state, {
            "segments": sorted(produced | {s.path for s in todo}),
            "ddls": k_ddl, "watermark_ts": stream_wm,
            "offsets": next_offsets})
    return {"partitions": len(counts),
            "messages": int(sum(r["messages"] for r in counts))
            + num_partitions,
            "watermark_ts": stream_wm,
            "segments_produced": len(todo),
            "ddl_messages": k_ddl}


def _file_emit(out_dir: str, part: int, msgs: pa.Table,
               append: bool, base_floor: int = 0) -> int:
    """Write one partition's message rows to the file layout. `append`
    shifts offsets past the existing stream (dense per partition — the
    per-key ordering contract) and concatenates; otherwise the file is
    replaced whole. `base_floor` is the producer checkpoint's
    next-offset for this partition: retention (gc_spool) may have
    trimmed — or emptied — the file, and offsets must never regress
    below what consumers committed (the producer, not the file, owns
    the counter, like a broker's log-end offset). → the partition's next
    offset."""
    d = os.path.join(out_dir, f"partition={part}")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, "messages.parquet")
    if append:
        prior, base = _read_log(path)
        base = max(base, base_floor)
        if base:
            idx = msgs.schema.get_field_index("offset")
            shifted = pa.compute.add(msgs["offset"], base)
            msgs = msgs.set_column(idx, "offset",
                                   shifted.cast(pa.int64()))
        if prior is not None:
            msgs = pa.concat_tables([prior, msgs],
                                    promote_options="default")
    _write_log(path, msgs)
    return int(pa.compute.max(msgs["offset"]).as_py()) + 1


def _read_log(path: str) -> tuple[pa.Table | None, int]:
    """A message-log file (None if absent) and the offset past its last
    message — the max OFFSET, not the row count: gc_spool may have
    trimmed consumed rows."""
    if not os.path.exists(path):
        return None, 0
    prior = pq.read_table(path)
    return prior, int(pa.compute.max(prior["offset"]).as_py()) + 1 \
        if prior.num_rows else 0


def _write_log(path: str, t: pa.Table) -> None:
    """Replace one parquet log file atomically. The tmp name is unique per
    thread: coordinated consumer-group members run as threads of one
    process and spool the same DDL broadcast."""
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    pq.write_table(t, tmp, row_group_size=32768)
    os.replace(tmp, path)


def _write_json(path: str, obj) -> None:
    """Replace one JSON document (descriptor, checkpoint, segment meta)
    atomically."""
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    with open(tmp, "w") as f:
        json.dump(obj, f)
    os.replace(tmp, path)


def _max_watermark(payloads: list) -> int:
    """The largest ts among in-band TIDB_WATERMARK messages (canal-json
    control envelopes under every protocol), 0 if there are none."""
    from ..sources.codecs import decode_canal_watermark

    return max((decode_canal_watermark(
        pl.decode() if isinstance(pl, (bytes, bytearray)) else pl)
        for pl in payloads), default=0)


def _produce_partition(broker: str, topic: str, part: int,
                       msgs: pa.Table, chunk: int = 2000) -> None:
    """One partition's message table → Produce requests over the wire.
    Strings go utf-8; the v0 message value is opaque bytes either way."""
    from ..sinks.kafka_wire import KafkaLiteClient

    host, port = broker.rsplit(":", 1)
    keys = msgs["key"].to_pylist()
    vals = msgs["payload"].to_pylist()
    recs = [(None if k is None else k.encode(),
             v.encode() if isinstance(v, str) else v)
            for k, v in zip(keys, vals)]
    with KafkaLiteClient(host, int(port)) as c:
        for i in range(0, len(recs), chunk):
            c.produce(topic, part, recs[i:i + chunk])


def _json_message(obj) -> pa.Table:
    """A descriptor/index document as one message on partition 0."""
    return pa.table({"mq_partition": pa.array([0], pa.int32()),
                     "offset": pa.array([0], pa.int64()),
                     "key": pa.array(["__meta__"]),
                     "payload": pa.array([json.dumps(obj)], pa.string())})


def _publish_control(out_dir: str, broker: str | None, topic: str,
                     ddl_msgs: pa.Table, meta: dict,
                     ddls_sent: int = 0) -> None:
    """A topic's control streams: the DDL broadcast (`ddl_msgs`, every
    partition's copy) and the stream descriptor `meta`. The file layout
    always holds the full schedule. Over the broker only the not-yet-sent
    DDL tail goes out (re-broadcasting would duplicate barrier messages),
    and the descriptor is appended to `{topic}.__meta` — consumers read the
    LAST one, so appending per call is an idempotent refresh."""
    if broker is None:
        os.makedirs(os.path.join(out_dir, "_ddl"), exist_ok=True)
        pq.write_table(ddl_msgs, os.path.join(out_dir, "_ddl",
                                              "messages.parquet"))
        _write_json(os.path.join(out_dir, "meta.json"), meta)
        return
    new_ddl = ddl_msgs.filter(
        pa.compute.greater_equal(ddl_msgs["offset"], ddls_sent))
    for p in range(meta["num_partitions"]):
        sub = new_ddl.filter(pa.compute.equal(new_ddl["mq_partition"], p))
        if sub.num_rows:
            _produce_partition(broker, f"{topic}.__ddl", p, sub)
    _produce_partition(broker, f"{topic}.__meta", 0, _json_message(meta))


def fetch_mq(broker: str, topic: str, out_dir: str,
             group: tuple[int, int] | None = None,
             group_id: str | None = None) -> dict:
    """Spool a broker topic into the standard message-log layout
    (meta.json + partition={p}/messages.parquet + _ddl/) so `consume_mq`
    replays it unchanged — the kafka-consumer's fetch loop. Resumable:
    each partition, and the DDL broadcast, re-fetches only past its last
    locally spooled offset and commits via tmp→rename.
    `group=(member, size)` fetches only partitions with p % size ==
    member (a STATIC split). `group_id`
    instead coordinates through the broker's group protocol
    (JoinGroup/SyncGroup range assignor — the sarama consumer-group
    shape): the member fetches exactly its assigned partitions, commits
    per-partition offsets (OffsetCommit) as the group's progress record,
    and leaves the group when done. Mutually exclusive with `group`."""
    from ..sinks.kafka_wire import KafkaLiteClient, join_consumer_group

    assert group is None or group_id is None, \
        "pick static split (group) or coordinated (group_id), not both"

    host, port = broker.rsplit(":", 1)
    os.makedirs(out_dir, exist_ok=True)
    with KafkaLiteClient(host, int(port)) as c:
        def descriptor() -> dict:
            meta_msgs = c.fetch_all(f"{topic}.__meta", 0)
            assert meta_msgs, f"no {topic}.__meta on broker {broker}"
            return json.loads(meta_msgs[-1][2].decode())

        is_text = descriptor()["protocol"] != "avro"

        def spool(t: str, part: int, d: str, text: bool = is_text,
                  on_broker: bool = True) -> int:
            os.makedirs(d, exist_ok=True)
            path = os.path.join(d, "messages.parquet")
            prior, start = _read_log(path)
            recs = c.fetch_all(t, part, start) if on_broker else []
            if not recs and prior is not None:
                return 0
            tbl = pa.table({
                "mq_partition": pa.array([part] * len(recs), pa.int32()),
                "offset": pa.array([o for o, _k, _v in recs], pa.int64()),
                "key": pa.array([None if k is None else k.decode()
                                 for _o, k, _v in recs], pa.string()),
                "payload": pa.array(
                    [v.decode() if text else v for _o, _k, v in recs],
                    pa.string() if text else pa.binary()),
            })
            if prior is not None:
                tbl = pa.concat_tables([prior, tbl])
            _write_log(path, tbl)
            return len(recs)

        # the descriptor is published after the data, so a topic without
        # partitions carried no rows (a multi-table feed's idle table)
        parts = c.metadata([topic]).get(topic, [])
        member = None
        if group_id is not None:
            generation, member, assigned = \
                join_consumer_group(c, group_id, topic)
            parts = assigned
        fetched = {}
        for p in parts:
            if group is not None and p % group[1] != group[0]:
                continue
            fetched[p] = spool(topic, p,
                               os.path.join(out_dir, f"partition={p}"))
        if group_id is not None:
            hw = {p: c.list_offsets(topic, p) for p in fetched}
            if hw:
                c.offset_commit(group_id, topic, hw)
            c.leave_group(group_id, member)
        # the DDL broadcast is identical per partition: spool partition
        # `member` (or 0) of __ddl — every member sees the full schedule.
        # A table without DDLs has no __ddl topic: its spool is empty.
        ddl_parts = c.metadata([f"{topic}.__ddl"]).get(f"{topic}.__ddl", [])
        dp = group[0] % len(ddl_parts) if (group and ddl_parts) else 0
        n_ddl = spool(f"{topic}.__ddl", dp, os.path.join(out_dir, "_ddl"),
                      text=True, on_broker=bool(ddl_parts))
        # the stream descriptor is spooled LAST, re-fetched fresh: a
        # producer may have refreshed it (new columns after a DDL)
        # between our first read and the partition fetches — data rows
        # must never be paired with an OLDER meta than the one the
        # producer sent before their watermark (the live-race the
        # streaming tests caught: lang decoded under a pre-DDL column
        # list came back silently NULL)
        _write_json(os.path.join(out_dir, "meta.json"), descriptor())
    return {"partitions": fetched,
            "messages": int(sum(fetched.values())),
            "ddl_messages": n_ddl}


def _make_decoder(msg_dir: str, meta: dict, upstream_wal: str | None):
    """payloads → events for one message stream: undo the producer's
    large-message option, then protocol-decode. Shared by the batch
    consumer (consume_mq) and the streaming consumer (consume_mq_stream)."""
    from ..sources.codecs import decode_canal_lines, decode_open_protocol_lines

    protocol = meta["protocol"]
    sup = list(meta["columns"])
    large = meta.get("large_handle", "none")
    database, table = meta.get("database", "tiflow"), meta.get(
        "table", "documents")

    def resolve_payloads(payloads: list) -> list:
        """Undo the producer's large-message option before protocol
        decode: claim-check pointers are swapped for the stored payload;
        handle-key-only stubs are re-fetched from the UPSTREAM WAL (the
        kafka-consumer queries upstream TiDB the same way) and re-encoded
        as ordinary protocol messages so the decoder sees one uniform
        stream."""
        if large == "none":
            return payloads
        out = list(payloads)
        hk: list[tuple[int, dict]] = []
        for i, pl in enumerate(out):
            is_bin = isinstance(pl, (bytes, bytearray))
            probe = (pl[:64].decode("utf-8", "ignore") if is_bin
                     else pl[:64])
            if probe.startswith('{"claimCheckLocation"'):
                loc = json.loads(pl.decode() if is_bin else pl)[
                    "claimCheckLocation"]
                with open(loc, "rb") as f:
                    data = f.read()
                out[i] = data if is_bin else data.decode()
            elif probe.startswith('{"onlyHandleKey"'):
                hk.append((i, json.loads(pl)))
        if hk:
            assert upstream_wal, (
                "message log contains handle-key-only stubs; pass "
                "upstream_wal= so the consumer can re-fetch full rows")
            import pyarrow.compute as pc
            import pyarrow.parquet as _pq

            from ..sources.codecs import (encode_canal_json,
                                          encode_open_protocol)
            from ..sources.wal import list_segments
            segs = list_segments(upstream_wal)
            want = sorted({d["commit_ts"] for _, d in hk})
            # Segments written across a DDL barrier have DIFFERENT physical
            # schemas; one pads.dataset over all of them unifies to the
            # first fragment's schema and silently nulls columns added
            # later. Read only the segments whose [min_ts, max_ts] cover a
            # wanted commit_ts, each with ITS OWN schema, and keep them
            # separate — a commit_ts resolves within one segment's table.
            seg_tbls = [
                _pq.read_table(
                    sg.path,
                    filters=[("commit_ts", "in", [t for t in want
                                                  if sg.min_ts <= t
                                                  <= sg.max_ts])])
                for sg in segs
                if any(sg.min_ts <= t <= sg.max_ts for t in want)
            ]
            enc = encode_open_protocol if protocol == "open_protocol" \
                else encode_canal_json
            for i, d in hk:
                # op participates in the identity: a delete+insert pair
                # legitimately shares (commit_ts, start_ts, doc_id)
                row = None
                for tbl in seg_tbls:
                    mask = pc.and_(
                        pc.and_(pc.equal(tbl["commit_ts"], d["commit_ts"]),
                                pc.equal(tbl["start_ts"], d["start_ts"])),
                        pc.and_(pc.equal(tbl["doc_id"], d["doc_id"]),
                                pc.equal(tbl["op"].cast("int64"),
                                         int(d["op"]))))
                    hit = tbl.filter(mask)
                    if hit.num_rows:
                        cols = [c for c in sup if c in hit.column_names]
                        row = hit.select(cols)
                        break
                assert row is not None and row.num_rows == 1, \
                    f"upstream row for {d} not found (gc'd WAL?)"
                out[i] = enc(row, database, table).splitlines()[0]
        return out
    if protocol == "canal_json":
        def decode_msgs(payloads, cols=sup):
            return decode_canal_lines([p for p in payloads], cols)
    elif protocol == "open_protocol":
        def decode_msgs(payloads, cols=sup):
            return decode_open_protocol_lines([p for p in payloads], cols)
    elif protocol == "avro":
        from ..sinks.avro_registry import AvroMessageDecoder
        # registry spec travels in the stream meta (URL of the registry
        # service, or the shared-dir store that produce_mq defaulted to)
        reg_spec = meta.get("registry") or os.path.join(msg_dir,
                                                        "_registry")

        def decode_msgs(payloads, cols=sup, _root=reg_spec):
            # one decoder per task; its schema cache amortizes per file
            return AvroMessageDecoder(_root, cols).decode(list(payloads))
    else:
        raise ValueError(f"unknown MQ protocol {protocol}")

    return lambda payloads: decode_msgs(resolve_payloads(payloads))


def _partitions(msg_dir: str) -> list[int]:
    """The partition ids present in one topic's message-log dir."""
    return sorted(int(d.split("=", 1)[1]) for d in os.listdir(msg_dir)
                  if d.startswith("partition="))


def _topic_registry(msg_dir: str):
    """One topic's schema registry, rebuilt from one partition's copy of
    its DDL broadcast (a spool holds the copy its member fetched)."""
    from ..sources.codecs import decode_canal_ddl_lines

    ddl_msgs = pq.read_table(os.path.join(msg_dir, "_ddl",
                                          "messages.parquet"))
    p0 = ddl_msgs.filter(pa.compute.equal(
        ddl_msgs["mq_partition"], pa.compute.min(ddl_msgs["mq_partition"])))
    return decode_canal_ddl_lines(
        p0.sort_by("offset")["payload"].to_pylist())


def _write_segment(ev: pa.Table, dst: str) -> dict:
    """Decoded events → one derived-WAL segment file, sorted by
    (commit_ts, start_ts) and written atomically → its meta fields."""
    ev = ev.take(pa.compute.sort_indices(
        ev, sort_keys=[("commit_ts", "ascending"),
                       ("start_ts", "ascending")]))
    _write_log(dst, ev)
    cts = ev["commit_ts"].to_numpy(zero_copy_only=False)
    return {"rows": ev.num_rows,
            "min_ts": int(cts.min()) if len(cts) else 0,
            "max_ts": int(cts.max()) if len(cts) else 0,
            "cols": ev.column_names}


def _write_segment_meta(wal_dir: str, seq: int, watermark_ts: int,
                        r: dict) -> None:
    """A derived-WAL segment's meta — its publish step, written after the
    data file (a crash before it just re-decodes)."""
    _write_json(os.path.join(wal_dir, f"seq={seq:05d}.meta.json"), {
        "seq": seq, "watermark_ts": int(watermark_ts),
        "min_ts": int(r["min_ts"]), "max_ts": int(r["max_ts"]),
        "rows": int(r["rows"]), "format": "parquet",
        **({"offset": int(r["offset"])} if "offset" in r else {}),
        "columns": list(r["cols"])})


def _partition_events(msg_dir: str, p: int, decode, start: int = 0):
    """Partition `p`'s messages from offset `start`, in offset order →
    (decoded events, each event's offset, the largest in-band
    TIDB_WATERMARK ts, the offset past the last message read). Watermark
    rows are control messages, not events."""
    msgs = pq.read_table(os.path.join(msg_dir, f"partition={p}",
                                      "messages.parquet"),
                         filters=[("offset", ">=", start)]).sort_by("offset")
    is_wm = pa.compute.fill_null(
        pa.compute.equal(msgs["key"], "__watermark__"), False)
    evm = msgs.filter(pa.compute.invert(is_wm))
    end = int(msgs["offset"][-1].as_py()) + 1 if msgs.num_rows else start
    return (decode(evm["payload"].to_pylist()), evm["offset"].to_pylist(),
            _max_watermark(msgs.filter(is_wm)["payload"].to_pylist()), end)


def _decode_topic(msg_dir: str, wal_dir: str, meta: dict,
                  upstream_wal: str | None = None,
                  parts: list[int] | None = None,
                  prior_stats: dict | None = None, seq_base: int = 0,
                  table_name: str | None = None) -> list[dict]:
    """Decode one topic: each partition (of `parts`, default all) becomes
    derived-WAL segment `seq_base + p`, one task per partition. Idempotent:
    a partition whose segment meta exists (or, for a consumer-group
    member, whose segment this member already committed in
    `prior_stats`) is not decoded again. In-band TIDB_WATERMARK rows are
    control messages: their ts is recorded, they are not decoded.
    `table_name` adds that column (a multi-table feed's demux key). →
    one record per partition: part, seq, offset (next to consume), wm,
    rows, min_ts, max_ts, cols."""
    decode = _make_decoder(msg_dir, meta, upstream_wal)
    prior_stats = prior_stats or {}

    def decode_partition(tb: pa.Table) -> pa.Table:
        out = []
        for row in tb.to_pylist():
            p = int(row["part"])
            seq = seq_base + p
            dst = os.path.join(wal_dir, f"seq={seq:05d}.parquet")
            mpath = dst.replace(".parquet", ".meta.json")
            # idempotent resume from the published meta, or from this
            # member's committed stats (data files are atomic: present =
            # complete)
            st = prior_stats.get(p) if os.path.exists(dst) else None
            if os.path.exists(mpath):
                with open(mpath) as f:
                    m = json.load(f)
                st = {**m, "offset": m.get("offset", m["rows"]),
                      "cols": m["columns"]}
            if st is not None:
                out.append({"part": p, "seq": seq, "wm": st.get("wm", 0),
                            **{k: st[k] for k in ("rows", "min_ts", "max_ts",
                                                  "offset", "cols")}})
                continue
            ev, _offs, wm, end = _partition_events(msg_dir, p, decode)
            if table_name is not None:
                ev = ev.append_column("table_name", pa.array(
                    [table_name] * ev.num_rows, pa.string()))
            out.append({"part": p, "seq": seq, "offset": end, "wm": wm,
                        **_write_segment(ev, dst)})
        return pa.Table.from_pylist(out)

    items = [{"part": p} for p in _partitions(msg_dir)
             if parts is None or p in parts]
    if not items:
        return []
    return ray.data.from_items(items).map_batches(
        decode_partition, batch_format="pyarrow",
        batch_size=1).take_all()             # P rows — tiny


def _stamp_metas(wal_dir: str, decoded: list[dict]) -> None:
    """Publish a batch consume's derived-WAL segments (`decoded`): each
    meta written after its data file, skipped where it already exists.

    The segments' watermark: when every partition carried an in-band
    TIDB_WATERMARK broadcast, that IS the resolved ts (same value on every
    partition — broadcast, so nondecreasing across seqs holds trivially).
    Spools without watermark messages fall back to the batch-consume
    inference: the log is complete, so the honest watermark is the GLOBAL
    event max — and a MIXED spool falls back entirely (a per-partition mix
    could order a smaller inferred max after a larger broadcast ts,
    violating the nondecreasing contract)."""
    wms = [int(r.get("wm") or 0) for r in decoded]
    global_max = max(wms) if wms and all(wms) else \
        max((r["max_ts"] for r in decoded), default=0)
    for r in decoded:
        seq = int(r["seq"])
        if not os.path.exists(os.path.join(wal_dir,
                                           f"seq={seq:05d}.meta.json")):
            _write_segment_meta(wal_dir, seq, global_max, r)


def _replay_topic(wal_dir: str, lake_dir: str, num_partitions: int,
                  registry, base_dir: str | None) -> rp.ReplayResult:
    """Declare one table's schedule (ddl.json) beside its derived WAL and
    replay it with the standard engine, bootstrapping from `base_dir`
    first (`rp.bootstrap` returns an existing lake as it is)."""
    with open(os.path.join(wal_dir, "ddl.json"), "w") as f:
        f.write(registry.to_json())
    cfg = ReplayConfig(wal_dir=wal_dir, lake_dir=lake_dir,
                       num_partitions=num_partitions)
    if base_dir is not None:
        rp.bootstrap(cfg, base_dir=base_dir)
    return rp.run_replay(cfg)


def consume_mq(msg_dir: str, lake_dir: str, base_dir: str | None = None,
               num_partitions: int = 16,
               wal_out: str | None = None,
               upstream_wal: str | None = None,
               group: tuple[int, int] | None = None) -> dict:
    """Message logs → derived WAL → replayed lake (kafka-consumer analog).

    Decode is distributed (one task per message-log partition, idempotent
    — meta written after data); the DDL stream is tiny and rebuilt on the
    driver; replay is the standard epoch engine. The derived WAL lives
    inside the lake (`_mq_wal`) like the optimistic remount dir — the
    consumer's relay log.

    `group=(member_id, group_size)` runs this call as ONE member of a
    consumer group (cmd/kafka-consumer's consumer-group shape): the
    member consumes only partitions with part % group_size == member_id,
    records per-partition offsets + decode stats in its own checkpoint
    (`_consumer/member-{id}.json` under the derived WAL — the committed-
    offset analog), and returns {"pending": [...]} until every partition
    of the topic has been consumed by SOME member. The member that
    completes coverage stamps the segment metas and replays — N members
    splitting the partitions converge to the identical lake a single
    consumer produces."""
    with open(os.path.join(msg_dir, "meta.json")) as f:
        meta = json.load(f)
    registry = _topic_registry(msg_dir)
    wal_dir = wal_out or os.path.join(lake_dir, "_mq_wal")
    os.makedirs(wal_dir, exist_ok=True)

    if group is None:
        decoded = _decode_topic(msg_dir, wal_dir, meta, upstream_wal)
    else:
        # per-member checkpoint: committed offsets + decode stats per
        # owned partition (kafka consumer-group offset commit analog)
        member_id, group_size = group
        assert 0 <= member_id < group_size, group
        all_parts = _partitions(msg_dir)
        cons_dir = os.path.join(wal_dir, "_consumer")
        os.makedirs(cons_dir, exist_ok=True)
        member_ckpt = os.path.join(cons_dir, f"member-{member_id}.json")
        prior_stats = {}
        if os.path.exists(member_ckpt):
            with open(member_ckpt) as f:
                prior_stats = {int(k): v for k, v in
                               json.load(f)["partitions"].items()}
        decoded = _decode_topic(
            msg_dir, wal_dir, meta, upstream_wal,
            parts=[p for p in all_parts if p % group_size == member_id],
            prior_stats=prior_stats)
        # commit this member's offsets (atomic; merge with prior runs)
        stats = dict(prior_stats)
        for r in decoded:
            stats[int(r["part"])] = {
                "rows": int(r["rows"]), "min_ts": int(r["min_ts"]),
                "max_ts": int(r["max_ts"]), "offset": int(r["offset"]),
                "wm": int(r.get("wm") or 0),
                "cols": list(r["cols"])}
        _write_json(member_ckpt, {
            "member": member_id, "group_size": group_size,
            "partitions": {str(k): v for k, v in stats.items()}})
        # coverage check across ALL members' checkpoints: replay only
        # runs once every topic partition has been consumed by someone
        union: dict[int, dict] = {}
        for cp in sorted(glob.glob(os.path.join(cons_dir,
                                                "member-*.json"))):
            with open(cp) as f:
                for k, v in json.load(f)["partitions"].items():
                    union[int(k)] = v
        missing = [p for p in all_parts
                   if p not in union or not os.path.exists(
                       os.path.join(wal_dir, f"seq={p:05d}.parquet"))]
        if missing:
            return {"member": member_id, "consumed": sorted(stats),
                    "pending": missing}
        decoded = [{"part": p, "seq": p, **union[p]} for p in all_parts]

    _stamp_metas(wal_dir, decoded)
    res = _replay_topic(wal_dir, lake_dir, num_partitions, registry,
                        base_dir)
    return {"partitions_decoded": len(decoded),
            "epochs": len(res.epochs), "events": res.events,
            "wal_dir": wal_dir}


def consume_mq_stream(msg_dir: str, lake_dir: str,
                      base_dir: str | None = None,
                      num_partitions: int = 16,
                      wal_out: str | None = None,
                      upstream_wal: str | None = None) -> dict:
    """ONE round of INCREMENTAL consumption — the reference consumer's
    tick (cmd/storage-consumer's flush-interval loop / cmd/kafka-consumer
    applying up to the resolved ts): each partition is consumed up to its
    LATEST in-band TIDB_WATERMARK message, the consumed events land as a
    fresh round of derived-WAL segments stamped with the round frontier
    (min over partitions of their confirmed resolved ts — the A1
    min-over-spans rule), and the standard epoch engine replays the
    advance. Events a partition carries past the frontier ride in their
    segment and apply in a later round's epoch (segments may straddle,
    the reader range-filters — same contract as barrier-straddling WAL
    segments).

    Loop produce_mq(producer_state=...) and this against the same topic
    and the pair is a LIVE MQ changefeed; both ends are checkpointed
    (producer: segment set; consumer: `_consumer/stream.json` offsets)
    and idempotent — a crash between segment write and state commit
    re-decodes the identical bytes. Returns {"pending": True} when a
    partition has not yet confirmed any resolved ts (frontier unknown —
    nothing may commit, exactly like a zero-segment shard)."""

    with open(os.path.join(msg_dir, "meta.json")) as f:
        meta = json.load(f)
    registry = _topic_registry(msg_dir)
    # decode under the union of the descriptor's columns and every
    # column the DDL stream names: a barrier's column is decodable the
    # moment its DDL is known, independent of descriptor freshness (the
    # frontier guarantees a DDL message precedes any consumable event
    # that carries its column)
    sup = list(meta["columns"])
    for v in range(1, registry.max_ver + 1):
        for f in registry.schema(v):
            if f.name not in sup:
                sup.append(f.name)
    decode = _make_decoder(msg_dir, {**meta, "columns": sup}, upstream_wal)

    wal_dir = wal_out or os.path.join(lake_dir, "_mq_wal")
    os.makedirs(wal_dir, exist_ok=True)
    cons_dir = os.path.join(wal_dir, "_consumer")
    os.makedirs(cons_dir, exist_ok=True)
    state_path = os.path.join(cons_dir, "stream.json")
    state = {"round": 0, "offsets": {}, "wm": 0}
    if os.path.exists(state_path):
        with open(state_path) as f:
            state = json.load(f)

    all_parts = _partitions(msg_dir)
    assert all_parts, f"no partitions in {msg_dir}"

    # plan the frontier on the driver (control plane — watermark rows
    # only, located by key): each partition's confirmed resolved ts is
    # the max TIDB_WATERMARK it has EVER delivered; the round frontier is
    # the min over partitions (A1 min-over-spans). Nothing past the
    # frontier may be consumed this round — a partition fetched AFTER a
    # newer producer round carries events beyond it, and consuming them
    # into frontier-stamped segments would hide them from every later
    # epoch (the planner skips segments whose watermark is behind the
    # resume point). They stay in the spool for the next round.
    confirmed: dict[int, int] = {}
    starts: dict[int, int] = {}
    for p in all_parts:
        path = os.path.join(msg_dir, f"partition={p}", "messages.parquet")
        starts[p] = int(state["offsets"].get(str(p), 0))
        wm_tbl = pq.read_table(path, columns=["offset", "key", "payload"],
                               filters=[("key", "=", "__watermark__"),
                                        ("offset", ">=", starts[p])])
        wm = max(int(state["offsets"].get(f"wm{p}", 0)),
                 _max_watermark(wm_tbl["payload"].to_pylist()))
        if not wm:
            return {"pending": True, "partition": p,
                    "reason": "no resolved ts confirmed yet"}
        confirmed[p] = wm

    frontier = min(confirmed.values())
    rnd = int(state["round"]) + 1
    P = max(all_parts) + 1          # seq stride (partition ids, not count
                                    # — a sparse id past len() must never
                                    # collide with the next round's seqs)

    def decode_round(tb: pa.Table) -> pa.Table:
        """Decode one partition's new rows and keep the PREFIX of events
        with commit_ts <= frontier (partition streams are commit-ts
        sorted: each producer round is sorted and round k+1's events all
        exceed round k's watermark); the consumed offset advances to the
        first held-back event, so leftovers re-decode next round."""
        out = []
        for row in tb.to_pylist():
            p = int(row["part"])
            ev, offs, _wm, stop = _partition_events(msg_dir, p, decode,
                                                    starts[p])
            cts = ev["commit_ts"].to_numpy(zero_copy_only=False)
            n_keep = int(np.searchsorted(cts, frontier, side="right"))
            if n_keep < len(offs):          # held-back tail starts here
                stop = int(offs[n_keep])
            rec = {"part": p, "rows": 0, "stop": stop,
                   "cols": ev.column_names, "min_ts": 0, "max_ts": 0}
            if n_keep:
                dst = os.path.join(wal_dir, f"seq={rnd * P + p:05d}.parquet")
                rec.update(_write_segment(ev.slice(0, n_keep), dst))
            out.append(rec)
        return pa.Table.from_pylist(out)

    decoded = ray.data.from_items(
        [{"part": p} for p in all_parts]).map_batches(
        decode_round, batch_format="pyarrow", batch_size=1).take_all()
    wrote = [r for r in decoded if r["rows"]]
    if not wrote:
        if frontier <= int(state["wm"]):
            return {"rounds": 0, "watermark_ts": int(state["wm"]),
                    "wal_dir": wal_dir}
        # resolved-ts-only advance: one empty heartbeat segment raises
        # the derived WAL's watermark (the resolved-event heartbeat)
        wrote = [{"part": 0, **_write_segment(decode([]), os.path.join(
            wal_dir, f"seq={rnd * P:05d}.parquet"))}]

    # metas after data (a crash before this point just re-decodes)
    for r in wrote:
        _write_segment_meta(wal_dir, rnd * P + int(r["part"]), frontier, r)

    # consumer checkpoint: per-partition consumed offsets + confirmed
    # resolved ts (the committed-offset analog), after the segments
    offsets = dict(state["offsets"])
    for r in decoded:
        offsets[str(int(r["part"]))] = int(r["stop"])
    for p, wm in confirmed.items():
        offsets[f"wm{p}"] = wm
    _write_json(state_path, {"round": rnd, "offsets": offsets,
                             "wm": int(frontier)})
    res = _replay_topic(wal_dir, lake_dir, num_partitions, registry,
                        base_dir)
    return {"rounds": 1, "watermark_ts": int(frontier),
            "events": res.events, "epochs": len(res.epochs),
            "wal_dir": wal_dir}


def gc_spool(msg_dir: str, wal_dir: str) -> dict:
    """Retention for the streaming consumer's spool (the Kafka
    log-retention analog, bounded by committed progress instead of
    time): rows below each partition's committed consume offset
    (`_consumer/stream.json`) are dropped. Absolute offsets are
    preserved — reads filter by offset value and fetch_mq resumes from
    the max spooled offset, so a trimmed spool behaves identically.
    Streaming-mode companion only: the batch consume_mq requires the
    complete log."""
    state_path = os.path.join(wal_dir, "_consumer", "stream.json")
    assert os.path.exists(state_path), \
        "no streaming-consumer checkpoint; gc_spool bounds the spool by " \
        "consume_mq_stream progress"
    with open(state_path) as f:
        offsets = json.load(f)["offsets"]
    removed = {}
    for p in _partitions(msg_dir):
        keep_from = int(offsets.get(str(p), 0))
        path = os.path.join(msg_dir, f"partition={p}", "messages.parquet")
        t = pq.read_table(path)
        kept = t.filter(pa.compute.greater_equal(t["offset"], keep_from))
        if kept.num_rows < t.num_rows:
            _write_log(path, kept)
        removed[p] = t.num_rows - kept.num_rows
    return {"rows_removed": int(sum(removed.values())),
            "partitions": removed}


def tail_consume_mq(broker: str, topic: str, spool_dir: str,
                    lake_dir: str, base_dir: str | None = None,
                    num_partitions: int = 16,
                    upstream_wal: str | None = None,
                    poll_secs: float = 0.5,
                    idle_timeout: float | None = None,
                    stop_file: str | None = None,
                    max_rounds: int | None = None) -> dict:
    """The consumer DAEMON (cmd/kafka-consumer's run loop): fetch the
    topic, apply one incremental round up to the broadcast frontier,
    repeat. Stops on `stop_file`, after `idle_timeout` seconds without
    progress, or after `max_rounds` applied rounds. Restart-safe: both
    the spool fetch and the round consume are checkpointed, so a new
    daemon continues where the last one stopped."""
    import time

    rounds, applied_wm = 0, 0
    idle_since = time.monotonic()
    while True:
        if stop_file and os.path.exists(stop_file):
            break
        if max_rounds is not None and rounds >= max_rounds:
            break
        try:
            fetch_mq(broker, topic, spool_dir)
            out = consume_mq_stream(spool_dir, lake_dir,
                                    base_dir=base_dir,
                                    num_partitions=num_partitions,
                                    upstream_wal=upstream_wal)
        except (RuntimeError, AssertionError):
            # topic / descriptor not on the broker yet — poll again,
            # like any consumer started before its producer
            time.sleep(poll_secs)
            if idle_timeout is not None and \
                    time.monotonic() - idle_since >= idle_timeout:
                break
            continue
        if out.get("rounds"):
            rounds += out["rounds"]
            applied_wm = out.get("watermark_ts", applied_wm)
            idle_since = time.monotonic()
        else:
            if idle_timeout is not None and \
                    time.monotonic() - idle_since >= idle_timeout:
                break
            time.sleep(poll_secs)
    return {"rounds": rounds, "watermark_ts": applied_wm,
            "spool": spool_dir, "lake": lake_dir}


def produce_mq_multitable(wal_dir: str, out_dir: str,
                          num_partitions: int,
                          database: str = "tiflow",
                          topic_template: str = "cf.{table}",
                          broker: str | None = None) -> dict:
    """The multi-table changefeed's MQ sink: ONE read of the shared WAL,
    the EventRouter assigns each row its table's topic (the reference's
    dispatch rules — default topic templates with {schema}/{table}
    substitution, cdc/sink/dmlsink/mq/dispatcher/event_router.go) and a
    key-hash partition; each (topic, partition) stream is encoded by one
    task with dense offsets. Every topic is a complete canal-json
    single-table stream — partitions, DDL broadcast and descriptor, as
    `produce_mq` writes them — under out_dir/topic={topic}/, with
    out_dir/meta.json as the table → topic index. `broker="host:port"`
    sends every stream over the Kafka wire instead (the index on
    `__mt_meta`) — fetch_mq_multitable spools them back into this exact
    layout."""
    from ..sinks.mq import DispatchRule, EventRouter, MqSinkStage
    from ..sources.wal import list_segments
    from .multitable import load_multitable_registries

    segs = list_segments(wal_dir)
    assert segs, f"no WAL segments in {wal_dir}"
    regs, _lcs = load_multitable_registries(wal_dir)
    # per-table topics, key-hash partitioning within each (the per-key
    # ordering contract; the bare default rule would collapse a table
    # to one partition via the table dispatcher)
    router = EventRouter([DispatchRule(("*.*",), "key", topic_template)],
                         default_topic=topic_template)
    topics = {t: router.route(database, t)[0] for t in regs}
    # each table's descriptor columns: its own schemas' columns (the
    # shared WAL is a union of every table's)
    metas = {t: {"protocol": "canal_json",
                 "columns": ["op", "commit_ts", "start_ts", "doc_id",
                             "new_doc_id", "pre_tokens"]
                 + sorted({f.name for v in range(1, reg.max_ver + 1)
                           for f in reg.schema(v)} - {"doc_id"})
                 + ["schema_ver"],
                 "database": database, "table": t,
                 "num_partitions": num_partitions, "dispatcher": "key",
                 "large_handle": "none", "max_message_bytes": None,
                 "registry": None} for t, reg in regs.items()}

    def route(t: pa.Table) -> pa.Table:
        t = t.append_column("schema_name",
                            pa.array([database] * t.num_rows))
        t = router.route_batch(t, num_partitions,
                               table_col="table_name")
        return t.drop_columns(["schema_name"])

    def emit_group(t: pa.Table) -> pa.Table:
        topic = str(t["mq_topic"][0].as_py())
        t_name = str(t["table_name"][0].as_py())
        part = int(t["mq_partition"][0].as_py())
        # drop the all-null union columns of OTHER tables' schemas
        cols = set(metas[t_name]["columns"]) | {"mq_partition"}
        ev = t.select([c for c in t.column_names if c in cols])
        msgs = MqSinkStage(database=database, table=t_name)(ev)
        if broker is not None:
            _produce_partition(broker, topic, part, msgs)
        else:
            _file_emit(os.path.join(out_dir, f"topic={topic}"), part, msgs,
                       append=False)
        return pa.table({"topic": pa.array([topic]),
                         "messages": pa.array([msgs.num_rows],
                                              pa.int64())})

    counts = (ray.data.read_parquet([s.path for s in segs])
              .map_batches(route, batch_format="pyarrow")
              .groupby(["mq_topic", "mq_partition"])
              .map_groups(emit_group, batch_format="pyarrow")
              .take_all())

    for t_name, reg in regs.items():
        _publish_control(
            os.path.join(out_dir, f"topic={topics[t_name]}"), broker,
            topics[t_name], MqSinkStage(database=database, table=t_name)
            .ddl_stream(reg, num_partitions), metas[t_name])
    if broker is not None:
        _produce_partition(broker, "__mt_meta", 0,
                           _json_message({"tables": topics}))
    else:
        _write_json(os.path.join(out_dir, "meta.json"), {"tables": topics})
    return {"groups": len(counts),
            "messages": int(sum(r["messages"] for r in counts)),
            "tables": sorted(regs)}


def consume_mq_multitable(msg_dir: str, lake_dir: str,
                          base_dirs: dict[str, str] | None = None,
                          num_partitions: int = 16) -> dict:
    """Per-table topics → ONE derived multi-table WAL → the standard
    multi-table replay: each table's topic decodes like `consume_mq`'s
    (its partitions become segments `i * P + p` for the i-th table in
    name order, carrying `table_name`), its DDL stream rebuilds its
    registry, and tables.json declares them for run_replay_multitable —
    the kafka-consumer loop generalized to N tables."""
    from ..state.checkpoint import LakeState
    from . import multitable as mtp

    with open(os.path.join(msg_dir, "meta.json")) as f:
        topics = json.load(f)["tables"]
    wal_dir = os.path.join(lake_dir, "_mq_wal")
    os.makedirs(wal_dir, exist_ok=True)
    order = sorted(topics)
    decoded, regs = [], {}
    for t_name, topic in topics.items():
        tdir = os.path.join(msg_dir, f"topic={topic}")
        with open(os.path.join(tdir, "meta.json")) as f:
            meta = json.load(f)
        regs[t_name] = _topic_registry(tdir)
        decoded += _decode_topic(
            tdir, wal_dir, meta, table_name=t_name,
            seq_base=order.index(t_name) * meta["num_partitions"])
    _stamp_metas(wal_dir, decoded)
    mtp.write_multitable_registries(wal_dir, regs)
    cfg = ReplayConfig(wal_dir=wal_dir, lake_dir=lake_dir,
                       num_partitions=num_partitions)
    if base_dirs is not None and LakeState(lake_dir).latest() is None:
        mtp.bootstrap_multitable(cfg, regs, base_dirs)
    res = mtp.run_replay_multitable(cfg)
    return {"groups_decoded": len(decoded), "epochs": len(res.epochs),
            "tables": sorted(regs), "wal_dir": wal_dir}


def fetch_mq_multitable(broker: str, out_dir: str) -> dict:
    """Spool a multi-table changefeed back into the produce_mq_multitable
    file layout: `fetch_mq` once per topic the `__mt_meta` index names,
    then the index itself."""
    from ..sinks.kafka_wire import KafkaLiteClient

    host, port = broker.rsplit(":", 1)
    with KafkaLiteClient(host, int(port)) as c:
        index_msgs = c.fetch_all("__mt_meta", 0)
    assert index_msgs, f"no __mt_meta on broker {broker}"
    index = json.loads(index_msgs[-1][2].decode())
    fetched = sum(fetch_mq(broker, topic, os.path.join(
        out_dir, f"topic={topic}"))["messages"]
        for topic in index["tables"].values())
    _write_json(os.path.join(out_dir, "meta.json"), index)
    return {"messages": fetched, "tables": sorted(index["tables"])}
