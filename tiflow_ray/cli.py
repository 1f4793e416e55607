"""Command-line entry points (the `cdc cli` / `storage-consumer` analog).

  python -m tiflow_ray.cli bootstrap --base DIR --lake DIR -P 64
  python -m tiflow_ray.cli replay    --wal DIR --lake DIR -P 64 [--upto TS]
  python -m tiflow_ray.cli compact   --lake DIR [--parts 0 1]  # fold MoR chains
  python -m tiflow_ray.cli show      --lake DIR              # manifest summary
  python -m tiflow_ray.cli diff      --lake DIR --against DIR --key doc_id

Owns its Ray session (the library never calls ray.init)."""

from __future__ import annotations

import argparse
import json
import os
import sys


def _init_ray(num_cpus: int | None) -> bool:
    """Init Ray if nobody has; returns True iff THIS call initialized it
    (then main() owns the session and shuts it down on exit — an embedding
    caller's session is never torn down under it)."""
    import logging

    import ray
    owned = not ray.is_initialized()
    if owned:
        kw = {"address": "local", "include_dashboard": False,
              "logging_level": "ERROR", "ignore_reinit_error": True}
        if num_cpus:
            kw["num_cpus"] = num_cpus
        ray.init(**kw)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    return owned


def main(argv=None):
    p = argparse.ArgumentParser(prog="tiflow_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("bootstrap")
    b.add_argument("--base", required=True)
    b.add_argument("--lake", required=True)
    b.add_argument("-P", "--partitions", type=int, default=64)

    r = sub.add_parser("replay")
    r.add_argument("--wal", required=True)
    r.add_argument("--lake", required=True)
    r.add_argument("-P", "--partitions", type=int, default=64)
    r.add_argument("--upto", type=int, default=None)
    r.add_argument("--max-epochs", type=int, default=None)
    r.add_argument("--follow", action="store_true",
                   help="tail the WAL continuously (changefeed daemon)")
    r.add_argument("--idle-timeout", type=float, default=None,
                   help="with --follow: exit after N idle seconds")
    r.add_argument("--stop-file", default=None,
                   help="with --follow: exit when this path appears")
    r.add_argument("--sink-mode", choices=["mor", "cow"], default="mor")
    r.add_argument("--segments-per-epoch", type=int, default=8)
    r.add_argument("--syncpoint-interval", type=int, default=0,
                   help="emit a consistent-snapshot manifest every N ts")
    r.add_argument("--online-validate", action="store_true",
                   help="md5-verify touched partition chains each epoch")
    r.add_argument("--auto-salt", action="store_true",
                   help="dynamic hot-key detection + salted pre-reduce")
    r.add_argument("--config", default=None,
                   help="TOML/JSON declarative config (changefeed/task "
                        "config analog); CLI flags override file values")

    c = sub.add_parser("compact")   # offline/background MoR compaction
    c.add_argument("--lake", required=True)
    c.add_argument("--parts", type=int, nargs="*", default=None)
    c.add_argument("--tables", nargs="*", default=None,
                   help="multi-table lake: fold only these tables' chains")

    ci = sub.add_parser("compact-index")   # fold ingest-index delta chains
    ci.add_argument("--index", required=True)

    rq = sub.add_parser("repartition")   # keyspan split/merge scale-out
    rq.add_argument("--lake", required=True)
    rq.add_argument("--num-partitions", type=int, required=True)

    e = sub.add_parser("export")    # lake → plain partitioned parquet
    e.add_argument("--lake", required=True)
    e.add_argument("--out", required=True)

    w = sub.add_parser("wal-gc")    # drop fully-applied WAL segments
    w.add_argument("--wal", required=True)
    w.add_argument("--lake", required=True)

    tc = sub.add_parser("transcode")   # relay: re-encode a WAL 1:1 into
    tc.add_argument("--src", required=True)   # another change-file format
    tc.add_argument("--dst", required=True)
    tc.add_argument("--fmt", required=True,
                    choices=["jsonl", "csv", "canal_json", "debezium",
                             "open_protocol", "maxwell", "simple", "avro",
                             "craft", "mysql_binlog"])
    tc.add_argument("--charset", default="utf8mb4",
                    help="mysql_binlog only: utf8mb4|latin1|gbk|gb18030")
    tc.add_argument("--gtid", action="store_true",
                    help="mysql_binlog only: emit PREVIOUS_GTIDS + GTID "
                         "events (resume-by-gtid support)")

    bs = sub.add_parser("binlog-serve")   # replication master over a dir
    bs.add_argument("--binlog-dir", required=True)  # of binlog v4 files
    bs.add_argument("--user", default="repl")
    bs.add_argument("--password", default="repl")
    bs.add_argument("--port-file", help="write host:port here once bound")

    rl = sub.add_parser("relay")    # replica: dump the master's stream
    rl.add_argument("--host", default="127.0.0.1")  # into local relay files
    rl.add_argument("--port", type=int, required=True)
    rl.add_argument("--out", required=True)
    rl.add_argument("--user", default="repl")
    rl.add_argument("--password", default="repl")
    rl.add_argument("--server-id", type=int, default=2)
    rl.add_argument("--follow", action="store_true",
                    help="blocking dump: stream until interrupted")
    rl.add_argument("--gtid", action="store_true",
                    help="resume by GTID set (COM_BINLOG_DUMP_GTID) "
                         "instead of (file, pos)")
    rl.add_argument("--no-index", action="store_true",
                    help="skip rebuilding metas + ddl.json after catch-up")

    rw = sub.add_parser("rewind")   # point-in-time rollback to an epoch
    rw.add_argument("--lake", required=True)
    rw.add_argument("--epoch", type=int, required=True)
    rw.add_argument("--wal", help="verify the span above the target is "
                                  "still replayable from this WAL")

    kb = sub.add_parser("mq-broker")    # Kafka-wire broker over a log dir
    kb.add_argument("--log-dir", required=True)
    kb.add_argument("--port-file", help="write host:port here once bound")

    kf = sub.add_parser("mq-fetch")     # broker topic → local spool
    kf.add_argument("--broker", required=True, help="host:port")
    kf.add_argument("--topic", default="changefeed")
    kf.add_argument("--out", required=True)
    kf.add_argument("--group-member", type=int, default=None)
    kf.add_argument("--group-size", type=int, default=None)
    kf.add_argument("--multitable", action="store_true",
                    help="spool a multi-table changefeed (topics from "
                         "the __mt_meta descriptor)")

    mp = sub.add_parser("mq-produce")   # WAL → partitioned message logs
    mp.add_argument("--wal", required=True)
    mp.add_argument("--out", default=None,
                    help="message-log dir (omit with --broker)")
    mp.add_argument("--broker", default=None,
                    help="host:port — produce over the Kafka wire "
                         "instead of writing files")
    mp.add_argument("--topic", default="changefeed")
    mp.add_argument("-P", "--partitions", type=int, default=16)
    mp.add_argument("--dispatcher", default="key",
                    choices=["key", "index-value", "ts", "table"])
    mp.add_argument("--protocol", default="canal_json",
                    choices=["canal_json", "open_protocol", "avro"])
    mp.add_argument("--max-message-bytes", type=int, default=None)
    mp.add_argument("--large-handle", default="none",
                    choices=["none", "handle_key_only", "claim_check"],
                    help="large-message option (pkg/config/"
                         "large_message.go): reject / key-only stub / "
                         "claim-check store")
    mp.add_argument("--registry", default=None,
                    help="avro schema-registry spec: http://host:port "
                         "(REST service) or a shared directory; "
                         "required for --protocol avro with --broker")
    mp.add_argument("--state", default=None,
                    help="producer checkpoint json — makes the producer "
                         "STREAMING: repeat the command as the WAL "
                         "grows; only unsent segments are produced")

    ms = sub.add_parser("mysql-serve")   # MySQL-wire SQL endpoint
    ms.add_argument("--db", default=None,
                    help="DuckDB file backing the endpoint (default "
                         "in-memory)")
    ms.add_argument("--user", default="sink")
    ms.add_argument("--password", default="sink")
    ms.add_argument("--port-file", help="write host:port here once bound")

    rs = sub.add_parser("registry-serve")   # Confluent-API registry svc
    rs.add_argument("--root", required=True,
                    help="shared directory backing the registry store")
    rs.add_argument("--port-file", help="write host:port here once bound")

    mc = sub.add_parser("mq-consume")   # message logs → replayed lake
    mc.add_argument("--messages", required=True)
    mc.add_argument("--lake", required=True)
    mc.add_argument("--base", default=None,
                    help="bootstrap from this base dir first")
    mc.add_argument("-P", "--partitions", type=int, default=16)
    mc.add_argument("--upstream-wal", default=None,
                    help="re-fetch handle-key-only stubs from this WAL")
    mc.add_argument("--group-member", type=int, default=None,
                    help="consumer-group member id (with --group-size): "
                         "consume only partitions p %% size == member")
    mc.add_argument("--group-size", type=int, default=None)
    mc.add_argument("--stream", action="store_true",
                    help="ONE incremental round: apply up to the "
                         "broadcast resolved ts (consume_mq_stream); "
                         "loop with a fresh mq-fetch per round for a "
                         "live changefeed")
    mc.add_argument("--follow", action="store_true",
                    help="consumer DAEMON: loop fetch+round against "
                         "--broker/--topic until --stop-file or "
                         "--idle-timeout (--messages is the spool dir)")
    mc.add_argument("--broker", default=None, help="host:port (--follow)")
    mc.add_argument("--topic", default="changefeed")
    mc.add_argument("--idle-timeout", type=float, default=None)
    mc.add_argument("--stop-file", default=None)
    mc.add_argument("--base-table", action="append", default=[],
                    metavar="TABLE=DIR",
                    help="per-table bootstrap base of a multi-table "
                         "changefeed (its meta.json lists `tables`)")

    mg = sub.add_parser("mq-gc")       # spool retention (streaming mode)
    mg.add_argument("--messages", required=True)
    mg.add_argument("--wal", required=True,
                    help="derived WAL dir holding _consumer/stream.json")

    mt = sub.add_parser("mt-replay")   # multi-table changefeed
    mt.add_argument("--wal", required=True,
                    help="shared WAL dir with tables.json declaration; "
                         "repeat --shard-wal for shard-merge")
    mt.add_argument("--shard-wal", action="append", default=[],
                    help="additional shard WAL dirs (each with the "
                         "IDENTICAL tables.json) — pessimistic "
                         "shard-merge × multi-table; incompatible with "
                         "--follow")
    mt.add_argument("--lake", required=True)
    mt.add_argument("-P", "--partitions", type=int, default=64)
    mt.add_argument("--upto", type=int, default=None)
    mt.add_argument("--base", action="append", default=[],
                    metavar="TABLE=DIR",
                    help="bootstrap base layout per table (repeatable)")
    mt.add_argument("--segments-per-epoch", type=int, default=8)
    mt.add_argument("--follow", action="store_true",
                    help="tail the WAL continuously (multi-table daemon)")
    mt.add_argument("--idle-timeout", type=float, default=None)
    mt.add_argument("--stop-file", default=None)

    he = sub.add_parser("handle-error")   # dmctl binlog skip/replace/
    he.add_argument("--wal", required=True)   # inject/list/revert
    he.add_argument("--op", required=True,
                    choices=["skip", "replace", "inject", "list",
                             "revert"])
    he.add_argument("--ts", type=int, default=None,
                    help="DDL barrier_ts (the binlog position)")
    he.add_argument("--ddl", action="append", default=[],
                    metavar="'TYPE COLUMN [DEFAULT]'",
                    help="replacement/injection DDL spec, e.g. "
                         "'add_column lang:string und' (repeatable)")
    he.add_argument("--lake", default=None,
                    help="lake dir — its checkpoint sweeps/refuses "
                         "outdated operators")
    he.add_argument("--table", default=None,
                    help="scope the operator to one table of a "
                         "multi-table changefeed (tables.json)")

    s = sub.add_parser("show")
    s.add_argument("--lake", required=True)

    d = sub.add_parser("diff")
    d.add_argument("--lake", required=True)
    d.add_argument("--against", required=True)
    d.add_argument("--key", default="doc_id")
    d.add_argument("--fix-out", default=None,
                   help="write fix-SQL making --against equal to --lake "
                        "(sync-diff-inspector --fix analog)")
    d.add_argument("--fix-table", default="target",
                   help="table name used in the fix-SQL statements")

    a = p.parse_args(argv)

    if a.cmd == "show":
        from .state.checkpoint import LakeState
        m = LakeState(a.lake).latest()
        if m is None:
            print("no committed manifest")
            return 1
        print(json.dumps({"epoch": m.epoch, "watermark_ts": m.watermark_ts,
                          "schema_ver": m.schema_ver,
                          "num_partitions": m.num_partitions,
                          "parts": len(m.parts),
                          "delta_chains": {k: len(v.get("deltas", []))
                                           for k, v in m.parts.items()
                                           if v.get("deltas")},
                          "stats": m.stats}, indent=1))
        return 0

    if a.cmd == "mq-broker":              # pure sockets+files, no Ray
        import time

        from .sinks.kafka_wire import KafkaLiteBroker
        brk = KafkaLiteBroker(a.log_dir)
        host, port = brk.start()
        if a.port_file:
            with open(a.port_file, "w") as f:
                f.write(f"{host}:{port}")
        print(json.dumps({"host": host, "port": port}), flush=True)
        try:
            while True:
                time.sleep(1)
        except KeyboardInterrupt:
            brk.stop()
        return 0

    if a.cmd == "handle-error":           # pure files, no Ray
        from .stages.handle_error import handle_error
        ddls = []
        for spec in a.ddl:
            bits = spec.split(None, 2)
            d = {"ddl_type": bits[0], "column": bits[1]}
            if len(bits) == 3:
                d["default"] = bits[2]
            ddls.append(d)
        print(json.dumps(handle_error(a.wal, a.op, at_ts=a.ts,
                                      ddls=ddls or None,
                                      lake_dir=a.lake, table=a.table)))
        return 0

    if a.cmd == "mq-gc":                  # pure files, no Ray
        from .pipelines.mq import gc_spool
        print(json.dumps(gc_spool(a.messages, a.wal)))
        return 0

    if a.cmd == "mysql-serve":            # pure sockets+duckdb, no Ray
        import time

        from .sinks.mysql_wire import MySqlLiteServer
        srv = MySqlLiteServer(a.db, user=a.user, password=a.password)
        host, port = srv.start()
        if a.port_file:
            with open(a.port_file, "w") as f:
                f.write(f"{host}:{port}")
        print(json.dumps({"host": host, "port": port}), flush=True)
        try:
            while True:
                time.sleep(1)
        except KeyboardInterrupt:
            srv.stop()
        return 0

    if a.cmd == "registry-serve":         # pure http+files, no Ray
        import time

        from .sinks.schema_registry_http import SchemaRegistryServer
        srv = SchemaRegistryServer(a.root)
        if a.port_file:
            with open(a.port_file, "w") as f:
                f.write(f"{srv.host}:{srv.port}")
        print(json.dumps({"host": srv.host, "port": srv.port,
                          "url": srv.url}), flush=True)
        try:
            while True:
                time.sleep(1)
        except KeyboardInterrupt:
            srv.close()
        return 0

    if a.cmd == "mq-fetch":               # pure sockets+files, no Ray
        from .pipelines.mq import fetch_mq, fetch_mq_multitable
        if a.multitable:
            print(json.dumps(fetch_mq_multitable(a.broker, a.out)))
            return 0
        grp = (a.group_member, a.group_size) \
            if a.group_member is not None else None
        print(json.dumps(fetch_mq(a.broker, a.topic, a.out, group=grp)))
        return 0

    if a.cmd == "binlog-serve":           # pure sockets+files, no Ray
        import time

        from .sources.repl_protocol import BinlogDumpServer
        srv = BinlogDumpServer(a.binlog_dir, user=a.user,
                               password=a.password)
        host, port = srv.start()
        if a.port_file:
            with open(a.port_file, "w") as f:
                f.write(f"{host}:{port}")
        print(json.dumps({"host": host, "port": port}), flush=True)
        try:
            while True:
                time.sleep(1)
        except KeyboardInterrupt:
            srv.stop()
        return 0

    if a.cmd == "relay":                  # pure sockets+files, no Ray
        from .sources.repl_protocol import index_binlog_dir, relay_binlog
        touched = relay_binlog(a.host, a.port, a.out, user=a.user,
                               password=a.password, server_id=a.server_id,
                               follow=a.follow, gtid=a.gtid)
        out = {"touched": touched}
        if not a.no_index:
            out["segments"] = len(index_binlog_dir(a.out))
        print(json.dumps(out))
        return 0

    owns_ray = _init_ray(a.num_cpus)
    from .config import ReplayConfig
    from .pipelines import replay as rp

    if a.cmd == "bootstrap":
        cfg = ReplayConfig(lake_dir=a.lake, num_partitions=a.partitions)
        m = rp.bootstrap(cfg, base_dir=a.base)
        print(json.dumps({"epoch": m.epoch, "parts": len(m.parts)}))
    elif a.cmd == "replay":
        kw = dict(wal_dir=a.wal, lake_dir=a.lake,
                  num_partitions=a.partitions, sink_mode=a.sink_mode,
                  max_segments_per_epoch=a.segments_per_epoch,
                  syncpoint_interval=a.syncpoint_interval,
                  online_validate=a.online_validate, auto_salt=a.auto_salt)
        if a.config:
            from .config import load_config
            cfg = load_config(a.config, **kw)
        else:
            cfg = ReplayConfig(**kw)
        rp.bootstrap(cfg)  # no-op if already bootstrapped
        if a.follow:
            res = rp.tail_replay(cfg, idle_timeout=a.idle_timeout,
                                 stop_file=a.stop_file,
                                 max_epochs=a.max_epochs)
        else:
            res = rp.run_replay(cfg, upto_ts=a.upto, max_epochs=a.max_epochs)
        print(json.dumps({"epochs": len(res.epochs), "events": res.events}))
    elif a.cmd == "mt-replay":
        from .pipelines import multitable as mtp
        from .state.checkpoint import LakeState
        cfg = ReplayConfig(wal_dir=a.wal, lake_dir=a.lake,
                           num_partitions=a.partitions,
                           max_segments_per_epoch=a.segments_per_epoch)
        regs, lcs = mtp.load_multitable_registries(a.wal)
        if LakeState(a.lake).latest() is None:
            base_dirs = dict(kv.split("=", 1) for kv in a.base)
            unknown = set(base_dirs) - set(regs)
            if unknown:
                raise SystemExit(f"--base names unknown tables {unknown}")
            mtp.bootstrap_multitable(cfg, regs, base_dirs, lcs)
        if a.shard_wal:
            assert not a.follow, "--shard-wal does not tail; re-run to " \
                "catch up (resume ≡ next epoch)"
            res = mtp.run_replay_multitable_sharded(
                cfg, [a.wal] + list(a.shard_wal), upto_ts=a.upto)
        elif a.follow:
            res = mtp.tail_replay_multitable(cfg,
                                             idle_timeout=a.idle_timeout,
                                             stop_file=a.stop_file)
        else:
            res = mtp.run_replay_multitable(cfg, upto_ts=a.upto)
        m = LakeState(a.lake).latest()
        print(json.dumps({"epochs": len(res.epochs),
                          "tables": m.stats.get("tables", {}),
                          "dropped": list(m.stats.get("dropped_tables",
                                                      {}))}))
    elif a.cmd == "compact":
        from .state.checkpoint import LakeState
        head = LakeState(a.lake).latest()
        if head is not None and "tables" in head.stats:
            from .pipelines.multitable import compact_multitable_lake
            out = compact_multitable_lake(a.lake, tables=a.tables or None)
        else:
            out = rp.compact_lake(a.lake, parts=a.parts or None)
        print(json.dumps(out))
    elif a.cmd == "compact-index":
        from .pipelines.dedup_ingest import compact_index
        print(json.dumps(compact_index(a.index)))
    elif a.cmd == "repartition":
        print(json.dumps(rp.repartition_lake(a.lake, a.num_partitions)))
    elif a.cmd == "wal-gc":
        print(json.dumps(rp.gc_wal(a.wal, a.lake)))
    elif a.cmd == "transcode":
        from .fixtures import transcode_wal
        opts = {"charset": a.charset, **({"gtid": True} if a.gtid else {})} \
            if a.fmt == "mysql_binlog" else None
        metas = transcode_wal(a.src, a.dst, a.fmt, codec_opts=opts)
        print(json.dumps({"segments": len(metas), "fmt": a.fmt,
                          "rows": sum(m["rows"] for m in metas)}))
    elif a.cmd == "rewind":
        from .state.checkpoint import LakeState
        print(json.dumps(LakeState(a.lake).rewind(a.epoch, wal_dir=a.wal)))
    elif a.cmd == "mq-produce":
        from .pipelines.mq import produce_mq, produce_mq_multitable
        assert a.out or a.broker, "need --out or --broker"
        # a multi-table changefeed's WAL declares its tables
        if os.path.exists(os.path.join(a.wal, "tables.json")):
            print(json.dumps(produce_mq_multitable(
                a.wal, a.out or "", a.partitions, broker=a.broker)))
        else:
            print(json.dumps(produce_mq(
                a.wal, a.out or "", a.partitions,
                dispatcher=a.dispatcher, protocol=a.protocol,
                max_message_bytes=a.max_message_bytes,
                large_handle=a.large_handle,
                broker=a.broker, topic=a.topic,
                schema_registry=a.registry,
                producer_state=a.state)))
    elif a.cmd == "mq-consume":
        from .pipelines.mq import (consume_mq, consume_mq_multitable,
                                   consume_mq_stream, tail_consume_mq)
        if a.follow:
            assert a.broker, "--follow needs --broker host:port"
            print(json.dumps(tail_consume_mq(
                a.broker, a.topic, a.messages, a.lake, base_dir=a.base,
                num_partitions=a.partitions,
                upstream_wal=a.upstream_wal,
                idle_timeout=a.idle_timeout, stop_file=a.stop_file)))
        elif a.stream:
            assert a.group_member is None, \
                "--stream and consumer groups are separate modes"
            print(json.dumps(consume_mq_stream(
                a.messages, a.lake, base_dir=a.base,
                num_partitions=a.partitions,
                upstream_wal=a.upstream_wal)))
        else:
            with open(os.path.join(a.messages, "meta.json")) as f:
                # a multi-table changefeed's index lists its tables
                multitable = "tables" in json.load(f)
            if multitable:
                bd = dict(kv.split("=", 1) for kv in a.base_table) or None
                print(json.dumps(consume_mq_multitable(
                    a.messages, a.lake, base_dirs=bd,
                    num_partitions=a.partitions)))
            else:
                grp = (a.group_member, a.group_size) \
                    if a.group_member is not None else None
                print(json.dumps(consume_mq(
                    a.messages, a.lake, base_dir=a.base,
                    num_partitions=a.partitions,
                    upstream_wal=a.upstream_wal, group=grp)))
    elif a.cmd == "export":
        # streaming export: fold tasks write directly, one file per
        # partition-fold block — never materialized on the driver
        ds = rp.read_lake(a.lake)
        ds.write_parquet(a.out)
        print(json.dumps({"out": a.out}))
    elif a.cmd == "diff":
        from .functions.diff import diff_tables
        left = rp.read_lake(a.lake)
        right = rp.read_lake(a.against)
        out = diff_tables(left, right, a.key)
        if a.fix_out and not out["equal"]:
            from .functions.diff import repair_sql
            stmts = repair_sql(rp.read_lake(a.lake), out, a.key, a.fix_table)
            with open(a.fix_out, "w") as f:
                f.write(";\n".join(stmts) + ";\n")
        print(json.dumps({k: (v if isinstance(v, bool) else v[:20])
                          for k, v in out.items()}))
        return 0 if out["equal"] else 2

    if owns_ray:
        import ray
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
