# MySQL replication wire protocol over loopback TCP — the transport the
# DM relay actually speaks. `dm/relay/relay.go` + `dm/pkg/binlog/reader/tcp.go`
# connect to an upstream MySQL as a replica (go-mysql BinlogSyncer),
# register, issue COM_BINLOG_DUMP and persist the raw event stream 1:1 as
# local relay-log files (`dm/relay/binlog_writer.go`); downstream syncers
# then read those files (`dm/relay/local_reader.go`). This module is that
# loop, self-contained on the PUBLIC protocol layouts (MySQL
# client/server protocol docs: packet framing, handshake v10,
# mysql_native_password, COM_REGISTER_SLAVE 0x15, COM_BINLOG_DUMP 0x12):
#
#   BinlogDumpServer — serves a directory of binlog v4 files (the ones
#     sources/codecs.py encodes) as a replication master: handshake,
#     scramble auth, then streams events packet-by-packet with synthetic
#     ROTATE events between files and HEARTBEATs when idle.
#   relay_binlog    — the replica/relay client: handshake + auth +
#     register + dump, writes every event verbatim into relay files that
#     are byte-identical to the master's binlogs, resumes from
#     (file, pos) like relay.meta (`dm/relay/meta.go`).
#   index_binlog_dir — rebuilds the WAL metas + ddl.json purely from the
#     relayed stream (the stream is self-describing: TABLE_MAP
#     COLUMN_NAME TLVs + in-stream DDL QUERY events), so a relay dir is
#     a complete replay source with no side-band files.
#
# Scale note: the wire hop is inherently single-stream per upstream (so
# is MySQL replication); fan-out happens AFTER relay, where the existing
# txn-granular split planner (plan_binlog_splits) turns each relay file
# into parallel Ray read tasks. The relay itself is O(stream bytes) with
# constant memory (one packet at a time).

from __future__ import annotations

import glob
import hashlib
import json
import os
import socket
import struct
import threading
import time
import zlib

from . import codecs as C

_CAP_LONG_PASSWORD = 0x00000001
_CAP_PROTOCOL_41 = 0x00000200
_CAP_SECURE_CONNECTION = 0x00008000
_CAP_PLUGIN_AUTH = 0x00080000
_CAPS = (_CAP_LONG_PASSWORD | _CAP_PROTOCOL_41 | _CAP_SECURE_CONNECTION
         | _CAP_PLUGIN_AUTH)

_COM_QUIT, _COM_QUERY = 0x01, 0x03
_COM_BINLOG_DUMP, _COM_REGISTER_SLAVE = 0x12, 0x15
_COM_BINLOG_DUMP_GTID = 0x1E
_BINLOG_DUMP_NON_BLOCK = 0x01
_EV_HEARTBEAT = 27
_MAX_PACKET = 0xFFFFFF
_SERVER_VERSION = b"5.7.44-tiflow-ray-repl"


# ---------------------------------------------------------------- packets

def _send_packet(sock: socket.socket, seq: int, payload: bytes) -> int:
    """Write one logical packet, splitting at the 16MB-1 wire limit (a
    payload of exactly n*0xFFFFFF bytes is followed by an empty packet,
    per the protocol). Returns the next sequence id."""
    view = memoryview(payload)
    while True:
        chunk = view[:_MAX_PACKET]
        sock.sendall(len(chunk).to_bytes(3, "little") + bytes([seq & 0xFF])
                     + bytes(chunk))
        seq += 1
        view = view[len(chunk):]
        if len(chunk) < _MAX_PACKET:
            return seq & 0xFF


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        part = sock.recv(n - len(buf))
        if not part:
            raise ConnectionError("peer closed mid-packet")
        buf += part
    return bytes(buf)


def _recv_packet(sock: socket.socket) -> tuple[int, bytes]:
    """Read one logical packet, reassembling 16MB splits."""
    payload = bytearray()
    while True:
        hdr = _recv_exact(sock, 4)
        ln = int.from_bytes(hdr[:3], "little")
        seq = hdr[3]
        payload += _recv_exact(sock, ln)
        if ln < _MAX_PACKET:
            return seq, bytes(payload)


def native_password_token(password: str, scramble: bytes) -> bytes:
    """mysql_native_password: SHA1(pass) XOR SHA1(scramble + SHA1(SHA1(pass)))."""
    if not password:
        return b""
    h1 = hashlib.sha1(password.encode()).digest()
    h2 = hashlib.sha1(h1).digest()
    tok = hashlib.sha1(scramble + h2).digest()
    return bytes(a ^ b for a, b in zip(h1, tok))


def _ok_packet() -> bytes:
    # affected_rows=0, last_insert_id=0, status=AUTOCOMMIT, warnings=0
    return b"\x00\x00\x00\x02\x00\x00\x00"


def _eof_packet() -> bytes:
    return b"\xfe\x00\x00\x00\x00"


def _err_packet(code: int, msg: str) -> bytes:
    return (b"\xff" + struct.pack("<H", code) + b"#HY000"
            + msg.encode())


def _is_eof(payload: bytes) -> bool:
    return payload[:1] == b"\xfe" and len(payload) < 9


# ----------------------------------------------------------------- server

def _walk_events(data: bytes, pos: int) -> list[tuple[int, int]]:
    """[(start, end)] of complete events from byte `pos`; a trailing
    partial event (file still being written) is left out."""
    out, n = [], len(data)
    while pos + 19 <= n:
        size = struct.unpack_from("<I", data, pos + 9)[0]
        if size < 23 or pos + size > n:
            break
        out.append((pos, pos + size))
        pos += size
    return out


def _rotate_event(next_file: str, next_pos: int) -> bytes:
    """Synthetic ROTATE: 8-byte next position + next filename (no file
    context, so log_pos is 0 by convention for artificial events)."""
    body = struct.pack("<Q", next_pos) + next_file.encode()
    hdr = struct.pack("<IBIIIH", 0, C._EV_ROTATE, C._BINLOG_SERVER_ID,
                      19 + len(body) + 4, 0, 0x20)  # LOG_EVENT_ARTIFICIAL_F
    return hdr + body + struct.pack("<I", zlib.crc32(hdr + body) & 0xFFFFFFFF)


def _heartbeat_event(fname: str) -> bytes:
    body = fname.encode()
    hdr = struct.pack("<IBIIIH", 0, _EV_HEARTBEAT, C._BINLOG_SERVER_ID,
                      19 + len(body) + 4, 0, 0x20)
    return hdr + body + struct.pack("<I", zlib.crc32(hdr + body) & 0xFFFFFFFF)


def server_handshake(conn: socket.socket, user: str, password: str,
                     stop_event: "threading.Event | None" = None) -> bool:
    """Server side of handshake v10 + mysql_native_password — shared by
    the replication master (BinlogDumpServer) and the SQL-sink endpoint
    (sinks/mysql_wire.MySqlLiteServer): real scramble auth, genuine ERR
    1045 on bad credentials."""
    scramble = os.urandom(20).replace(b"\x00", b"\x01")
    hs = bytearray(b"\x0a") + _SERVER_VERSION + b"\x00"
    hs += struct.pack("<I", threading.get_ident() & 0xFFFFFFFF)
    hs += scramble[:8] + b"\x00"
    hs += struct.pack("<H", _CAPS & 0xFFFF)
    hs += bytes([255])                       # charset utf8mb4
    hs += struct.pack("<H", 2)               # status: autocommit
    hs += struct.pack("<H", (_CAPS >> 16) & 0xFFFF)
    hs += bytes([21])                        # auth data len
    hs += b"\x00" * 10
    hs += scramble[8:] + b"\x00"
    hs += b"mysql_native_password\x00"
    _send_packet(conn, 0, bytes(hs))
    while True:
        try:
            _seq, resp = _recv_packet(conn)
            break
        except socket.timeout:
            if stop_event is not None and stop_event.is_set():
                return False
    caps = struct.unpack_from("<I", resp, 0)[0]
    assert caps & _CAP_PROTOCOL_41, "client must speak protocol 4.1"
    p = 4 + 4 + 1 + 23
    nul = resp.index(b"\x00", p)
    got_user = resp[p:nul].decode()
    p = nul + 1
    alen = resp[p]
    token = resp[p + 1:p + 1 + alen]
    expect = native_password_token(password, scramble)
    if got_user != user or token != expect:
        _send_packet(conn, 2, _err_packet(
            1045, f"Access denied for user '{got_user}'"))
        return False
    _send_packet(conn, 2, _ok_packet())
    return True


def client_handshake(host: str, port: int, user: str,
                     password: str) -> socket.socket:
    """Client side: connect, read handshake v10, answer the scramble.
    Returns the authenticated socket (raises PermissionError on ERR)."""
    sock = socket.create_connection((host, port), timeout=30)
    _seq, hs = _recv_packet(sock)
    assert hs[0] == 0x0A, "expected handshake v10"
    p = hs.index(b"\x00", 1) + 1                 # server version
    p += 4                                       # thread id
    part1 = hs[p:p + 8]
    p += 8 + 1 + 2 + 1 + 2 + 2 + 1 + 10          # filler..reserved
    part2 = hs[p:p + 12]
    scramble = part1 + part2
    token = native_password_token(password, scramble)
    resp = bytearray(struct.pack("<I", _CAPS))
    resp += struct.pack("<I", 1 << 24)           # max packet
    resp += bytes([255]) + b"\x00" * 23
    resp += user.encode() + b"\x00"
    resp += bytes([len(token)]) + token
    resp += b"mysql_native_password\x00"
    _send_packet(sock, 1, bytes(resp))
    _seq, ack = _recv_packet(sock)
    if ack[:1] == b"\xff":
        code = struct.unpack_from("<H", ack, 1)[0]
        sock.close()
        raise PermissionError(f"auth failed ({code}): "
                              f"{ack[9:].decode(errors='replace')}")
    return sock


class BinlogDumpServer:
    """Replication master over a directory of binlog v4 files.

    One thread per replica connection; `stop()` unblocks every dump
    stream. Files are immutable once the next one exists (the WAL's
    tmp→rename contract), so 'rotate when a later file appears, poll
    otherwise' is exact, not heuristic."""

    def __init__(self, binlog_dir: str, user: str = "repl",
                 password: str = "repl", poll: float = 0.02,
                 heartbeat: float = 0.25):
        self.dir, self.user, self.password = binlog_dir, user, password
        self.poll, self.heartbeat = poll, heartbeat
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._sock: socket.socket | None = None
        self.host, self.port = "127.0.0.1", 0

    # -- lifecycle
    def start(self) -> tuple[str, int]:
        s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        s.bind((self.host, 0))
        s.listen(8)
        s.settimeout(0.1)
        self._sock = s
        self.port = s.getsockname()[1]
        t = threading.Thread(target=self._accept_loop, daemon=True)
        t.start()
        self._threads.append(t)
        return self.host, self.port

    def stop(self) -> None:
        self._stop.set()
        for t in self._threads:
            t.join(timeout=5)
        if self._sock is not None:
            self._sock.close()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    # -- internals
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            t = threading.Thread(target=self._serve_conn, args=(conn,),
                                 daemon=True)
            t.start()
            self._threads.append(t)

    def _files(self) -> list[str]:
        return sorted(os.path.basename(p) for p in
                      glob.glob(os.path.join(self.dir, "*.binlog")))

    def _serve_conn(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(0.2)
            if not self._handshake(conn):
                return
        except (OSError, ConnectionError):
            conn.close()
            return
        try:
            while not self._stop.is_set():
                try:
                    _seq, cmd = _recv_packet(conn)
                except socket.timeout:
                    continue
                except ConnectionError:
                    return
                if not cmd or cmd[0] == _COM_QUIT:
                    return
                if cmd[0] == _COM_REGISTER_SLAVE:
                    _send_packet(conn, 1, _ok_packet())
                elif cmd[0] == _COM_BINLOG_DUMP:
                    pos, flags, _sid = struct.unpack_from("<IHI", cmd, 1)
                    fname = cmd[11:].decode()
                    self._stream(conn, fname, pos, flags)
                elif cmd[0] == _COM_BINLOG_DUMP_GTID:
                    flags, _sid, nlen = struct.unpack_from("<HII", cmd, 1)
                    p = 11 + nlen                  # name+pos ignored: the
                    p += 8                         # gtid set is authoritative
                    (_dlen,) = struct.unpack_from("<I", cmd, p)
                    client_set, _ = C.gtid_set_decode(cmd, p + 4)
                    self._stream_gtid(conn, client_set, flags)
                else:
                    _send_packet(conn, 1, _err_packet(
                        1047, f"unsupported command {cmd[0]:#x}"))
        except (OSError, ConnectionError):
            pass                                 # replica went away
        finally:
            conn.close()

    def _handshake(self, conn: socket.socket) -> bool:
        return server_handshake(conn, self.user, self.password, self._stop)

    def _stream_gtid(self, conn: socket.socket, client_set: dict,
                     flags: int) -> None:
        """Resume-by-GTID (dm/pkg/gtid; MySQL COM_BINLOG_DUMP_GTID):
        start at the OLDEST file whose executed set isn't contained in
        the replica's — located from each file's PREVIOUS_GTIDS +
        headers-only GTID walk, never decoding rows. Because our files
        never split transactions, file-level start is an exact resume.
        A replica that already has everything parks at the end of the
        newest file (blocking mode then tails)."""
        files = self._files()
        if not files:
            _send_packet(conn, 1, _err_packet(1236, "no binlog files"))
            return
        start, pos = None, 4
        for f in files:
            with open(os.path.join(self.dir, f), "rb") as fh:
                data = fh.read()
            prev, executed = C.binlog_gtid_info(data)
            if prev is None:
                _send_packet(conn, 1, _err_packet(
                    1236, f"{f} carries no GTID events; use file/pos dump"))
                return
            if not C.gtid_set_contains(client_set, executed):
                if not C.gtid_set_contains(client_set, prev):
                    _send_packet(conn, 1, _err_packet(
                        1236, "replica set is behind the oldest binlog "
                              f"({f}); required gtids were never written"))
                    return
                start = f
                break
        if start is None:                      # fully caught up
            start = files[-1]
            pos = os.path.getsize(os.path.join(self.dir, start))
        self._stream(conn, start, pos, flags)

    def _stream(self, conn: socket.socket, fname: str, pos: int,
                flags: int) -> None:
        files = self._files()
        if not files:
            _send_packet(conn, 1, _err_packet(1236, "no binlog files"))
            return
        if not fname:
            fname, pos = files[0], 4
        if fname not in files:
            _send_packet(conn, 1, _err_packet(
                1236, f"unknown binlog file {fname!r}"))
            return
        seq = _send_packet(conn, 1, b"\x00" + _rotate_event(fname, pos))
        cur, last_sent = fname, time.monotonic()
        while not self._stop.is_set():
            with open(os.path.join(self.dir, cur), "rb") as f:
                data = f.read()
            assert data[:4] == C._BINLOG_MAGIC, cur
            if pos < 4:
                pos = 4
            if pos > 4:
                # resume mid-file: re-announce the file's FDE first (real
                # masters do — the replica needs the checksum algorithm);
                # the relay client recognizes and skips the duplicate
                fde_end = 4 + struct.unpack_from("<I", data, 4 + 9)[0]
                seq = _send_packet(conn, seq, b"\x00" + data[4:fde_end])
            while not self._stop.is_set():
                events = _walk_events(data, pos)
                for s, e in events:
                    seq = _send_packet(conn, seq, b"\x00" + data[s:e])
                    pos = e
                if events:
                    last_sent = time.monotonic()
                files = self._files()
                nxt = files.index(cur) + 1 if cur in files else len(files)
                if nxt < len(files):
                    seq = _send_packet(
                        conn, seq, b"\x00" + _rotate_event(files[nxt], 4))
                    cur, pos = files[nxt], 4
                    break                        # reopen the new file
                if flags & _BINLOG_DUMP_NON_BLOCK:
                    _send_packet(conn, seq, _eof_packet())
                    return
                time.sleep(self.poll)
                if time.monotonic() - last_sent >= self.heartbeat:
                    seq = _send_packet(conn, seq,
                                       b"\x00" + _heartbeat_event(cur))
                    last_sent = time.monotonic()
                with open(os.path.join(self.dir, cur), "rb") as f:
                    data = f.read()


# ----------------------------------------------------------------- client

def _connect(host: str, port: int, user: str, password: str,
             server_id: int) -> socket.socket:
    sock = client_handshake(host, port, user, password)
    # register as a replica (COM_REGISTER_SLAVE: server-id + empty
    # hostname/user/password + port + rank + master-id)
    reg = bytes([_COM_REGISTER_SLAVE]) + struct.pack("<I", server_id) \
        + b"\x00\x00\x00" + struct.pack("<HII", port, 0, 0)
    _send_packet(sock, 0, reg)
    _seq, ack = _recv_packet(sock)
    assert ack[:1] == b"\x00", f"register rejected: {ack!r}"
    return sock


def _truncate_to_event_boundary(path: str) -> None:
    """Drop a torn tail (crash mid-append): keep only whole events."""
    with open(path, "rb") as f:
        data = f.read()
    pos, n = 4, len(data)
    while pos + 19 <= n:
        size = struct.unpack_from("<I", data, pos + 9)[0]
        if size < 23 or pos + size > n:
            break
        pos += size
    if pos < n:
        with open(path, "r+b") as f:
            f.truncate(pos)


def _file_is_txn_clean(data: bytes) -> bool:
    """True iff the file ends on a transaction boundary: every event is
    whole AND no GTID/BEGIN is left without its XID (or DDL body). A file
    that merely ends on an EVENT boundary mid-transaction must not count
    toward the replica's executed set — its last gno names an incomplete
    transaction."""
    pos, n, open_unit = 4, len(data), False
    while pos < n:
        if pos + 19 > n:
            return False
        tc = data[pos + 4]
        size = struct.unpack_from("<I", data, pos + 9)[0]
        if size < 23 or pos + size > n:
            return False
        if tc == C._EV_GTID:
            open_unit = True
        elif tc == C._EV_XID:
            open_unit = False
        elif tc == C._EV_QUERY:
            _tid, _exec, slen, _err, svlen = struct.unpack_from(
                "<IIBHH", data, pos + 19)
            start = pos + 19 + 13 + svlen + slen + 1
            if data[start:pos + size - 4] != b"BEGIN":
                open_unit = False              # auto-commit DDL completes
        pos += size
    return not open_unit


def executed_gtid_set(wal_dir: str) -> dict:
    """Union of the executed sets of every local binlog file — the
    replica's position for a GTID dump (relay.meta's gtid field,
    dm/relay/meta.go)."""
    out: dict = {}
    for p in sorted(glob.glob(os.path.join(wal_dir, "*.binlog"))):
        with open(p, "rb") as f:
            _prev, executed = C.binlog_gtid_info(f.read())
        out = C.gtid_set_union(out, executed)
    return out


def _write_relay_meta(out_dir: str, fname: str, with_gtid: bool) -> None:
    """relay.meta.json: (file, pos[, gtid_set]) — dm/relay/meta.go. The
    filesystem already IS the resume source; the meta file is the
    human/ops-facing mirror of it, refreshed per finalized file (the
    gtid recompute is a headers-only walk)."""
    meta = {"file": fname,
            "pos": os.path.getsize(os.path.join(out_dir, fname))}
    if with_gtid:
        meta["gtid_set"] = C.gtid_set_str(executed_gtid_set(out_dir))
    tmp = os.path.join(out_dir, f"relay.meta.json.tmp.{os.getpid()}")
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, os.path.join(out_dir, "relay.meta.json"))


def relay_binlog(host: str, port: int, out_dir: str, user: str = "repl",
                 password: str = "repl", server_id: int = 2,
                 follow: bool = False,
                 stop_event: threading.Event | None = None,
                 on_rotate=None, gtid: bool = False) -> list[str]:
    """Dump the master's binlog stream into relay files under `out_dir`,
    byte-identical to the upstream files. Resumes from the last local
    file's size (relay.meta analog — the filesystem IS the meta). With
    `follow=False` (BINLOG_DUMP_NON_BLOCK) returns at catch-up; with
    `follow=True` streams until `stop_event` is set. Returns the relay
    file names touched.

    `on_rotate(fname)` fires when the stream rotates AWAY from a relay
    file — by the WAL's tmp→rename contract that file is final, so this
    is the safe hook for incremental downstream work (e.g.
    `index_binlog_dir(out_dir, paths=[fname])` to admit the segment to a
    live `tail_replay` — the relay→syncer handoff, dm/relay
    local_reader.go feeding dm/syncer).

    `gtid=True` resumes by GTID set instead of (file, pos): the replica
    computes its executed set from the local relay files (a torn last
    file is first truncated to an event boundary and, if it would leave
    gtid gaps, removed — whole-file re-fetch is the exact resume) and
    sends COM_BINLOG_DUMP_GTID; the master picks the start file from
    PREVIOUS_GTIDS chains. `relay.meta.json` records (file, pos,
    gtid_set) after every finalized file — dm/relay/meta.go."""
    os.makedirs(out_dir, exist_ok=True)
    have = sorted(os.path.basename(p) for p in
                  glob.glob(os.path.join(out_dir, "*.binlog")))
    if gtid and have:
        # keep only whole transactions: a file whose tail was torn
        # mid-txn would under-report its gtids; simplest exact rule is
        # to drop the newest file unless it ends on a clean XID/DDL
        # boundary — the dump re-sends it whole from its gtid position
        last_p = os.path.join(out_dir, have[-1])
        _truncate_to_event_boundary(last_p)
        with open(last_p, "rb") as f:
            data = f.read()
        if not _file_is_txn_clean(data):
            os.remove(last_p)
            have.pop()
    start_file = have[-1] if have else ""
    start_pos = os.path.getsize(os.path.join(out_dir, start_file)) \
        if have else 4
    sock = _connect(host, port, user, password, server_id)
    try:
        flags = 0 if follow else _BINLOG_DUMP_NON_BLOCK
        if gtid:
            sid_blob = C.gtid_set_encode(executed_gtid_set(out_dir))
            dump = bytes([_COM_BINLOG_DUMP_GTID]) + struct.pack(
                "<HII", flags, server_id, len(start_file)) \
                + start_file.encode() + struct.pack("<Q", start_pos) \
                + struct.pack("<I", len(sid_blob)) + sid_blob
        else:
            dump = bytes([_COM_BINLOG_DUMP]) + struct.pack(
                "<IHI", start_pos, flags, server_id) + start_file.encode()
        _send_packet(sock, 0, dump)
        sock.settimeout(0.2)
        touched: list[str] = []
        cur: str | None = None
        f = None
        resuming = False
        try:
            while True:
                if stop_event is not None and stop_event.is_set():
                    break
                try:
                    _seq, pkt = _recv_packet(sock)
                except socket.timeout:
                    continue
                except ConnectionError:
                    break
                if _is_eof(pkt):
                    break
                if pkt[:1] == b"\xff":
                    code = struct.unpack_from("<H", pkt, 1)[0]
                    raise RuntimeError(f"dump error ({code}): "
                                       f"{pkt[9:].decode(errors='replace')}")
                ev = pkt[1:]
                etype = ev[4]
                if etype == _EV_HEARTBEAT:
                    continue
                if etype == C._EV_ROTATE:
                    nxt_pos = struct.unpack_from("<Q", ev, 19)[0]
                    nxt = ev[27:-4].decode()
                    if f is not None:
                        f.close()
                        if cur is not None:
                            _write_relay_meta(out_dir, cur, gtid)
                            if on_rotate is not None:
                                on_rotate(cur)
                    path = os.path.join(out_dir, nxt)
                    if gtid and nxt_pos <= 4 and os.path.exists(path):
                        # GTID dump restarts this file from the top (the
                        # local copy under-covered its gtids): rewrite
                        os.remove(path)
                    if os.path.exists(path) and os.path.getsize(path) >= 4:
                        assert os.path.getsize(path) == nxt_pos, \
                            f"relay resume offset mismatch for {nxt}: " \
                            f"have {os.path.getsize(path)}, master at {nxt_pos}"
                        f = open(path, "ab")
                        resuming = nxt_pos > 4
                    else:
                        f = open(path, "wb")
                        f.write(C._BINLOG_MAGIC)
                        f.flush()
                        resuming = False
                    cur = nxt
                    if cur not in touched:
                        touched.append(cur)
                    continue
                assert f is not None, "event before ROTATE"
                if etype == C._EV_FDE and resuming:
                    resuming = False             # duplicate FDE on resume
                    continue
                resuming = False
                f.write(ev)
                f.flush()                        # relay durability: the
                # on-disk file IS the resume meta, so it must never lag
                # the acked stream (binlog_writer.go flushes per event)
        finally:
            if f is not None:
                f.close()
            if cur is not None:
                _write_relay_meta(out_dir, cur, gtid)
        return touched
    finally:
        sock.close()


def index_binlog_dir(wal_dir: str,
                     paths: list[str] | None = None) -> list[dict]:
    """Rebuild seq=*.meta.json + ddl.json for a relayed binlog dir purely
    from the stream (TABLE_MAP COLUMN_NAME TLVs type the rows, DDL QUERY
    events carry the schedule) — the dm/syncer position: relay files are
    the only input. Returns the metas written. Idempotent; re-run after
    each relay catch-up.

    `paths` (file names or paths under wal_dir) indexes only those
    files — the incremental form for a live relay (`on_rotate` hands
    over exactly the files that became final). DDL pairs accumulate in
    a `_ddl_pairs.json` sidecar (the syncer's schema-tracker checkpoint,
    dm/syncer/schema.go analog) so incremental calls never re-decode
    history; ddl.json is regenerated from the merged set each call.
    In-stream DDL barrier order guarantees a DDL is indexed no later
    than the segment whose watermark covers it, so an epoch planner
    reading this dir never plans past an unknown barrier."""
    side = os.path.join(wal_dir, "_ddl_pairs.json")
    pairs: list[tuple[int, str]] = []
    if os.path.exists(side):
        with open(side) as fh:
            pairs = [tuple(x) for x in json.load(fh)]
    todo = sorted(os.path.join(wal_dir, os.path.basename(p))
                  for p in paths) if paths is not None else \
        sorted(glob.glob(os.path.join(wal_dir, "*.binlog")))
    metas = []
    for path in todo:
        base = os.path.basename(path)
        assert base.startswith("seq=") and base.endswith(".binlog"), base
        seq = int(base[4:-7])
        with open(path, "rb") as fh:
            data = fh.read()
        pairs.extend(C.binlog_ddl_pairs(data))
        t = C.decode_mysql_binlog(data)
        cts = t["commit_ts"].to_pylist() if t.num_rows else []
        metas.append({"seq": seq,
                      "watermark_ts": int(max(cts)) if cts else 0,
                      "min_ts": int(min(cts)) if cts else 0,
                      "max_ts": int(max(cts)) if cts else 0,
                      "rows": t.num_rows, "format": "mysql_binlog",
                      "columns": list(t.column_names)})
    reg = C.registry_from_ddl_pairs(pairs)
    uniq = sorted({(int(b), s) for b, s in pairs})

    def publish(path: str, text: str) -> None:
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)

    # the schedule first, the segment metas after: a planner that lists a
    # segment and then loads ddl.json (replay.run_replay) always sees
    # every DDL that segment carries
    publish(side, json.dumps(uniq))
    publish(os.path.join(wal_dir, "ddl.json"), reg.to_json())
    for meta in metas:
        publish(os.path.join(wal_dir, f"seq={meta['seq']:05d}.meta.json"),
                json.dumps(meta))
    return metas
