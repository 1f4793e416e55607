"""Per-key last-writer-wins compaction (DM compactor / sorter semantics).

The reference's compactor keeps only the last job per identity key, merging
per its reduce table (dm/syncer/compactor.go:152-225,
pkg/sqlmodel/reduce.go:185-236): INSERT+UPDATE⇒INSERT, *+DELETE⇒DELETE,
DELETE+INSERT⇒REPLACE. For FINAL-STATE replay all of those collapse to one
rule — after sorting a key's events by the total order
(commit_ts, start_ts, delete<update<insert — cdc/model/mounter.go:163-186 =
pebble sorter key encoding key.go:83-120), the LAST event alone decides the
row: op==DELETE ⇒ tombstone, else its image is the row (REPLACE semantics,
cdc/sink/dmlsink/txn/mysql/mysql.go:525-539).

Performance shape (the 100 TB story): events sort by a 64-BIT KEY HASH via
numpy lexsort (no string comparisons in the hot loop), and only the winner
rows are gathered (`take` of ~the doc count, not the event count — the
token payloads of losers are never copied). Three reduces share that pass:

- `compact_batch` (pre-shuffle COMBINER) keeps one event per hash run of
  the batch; low-dup batches pass through untouched (the final reduce
  handles them). It does not check for a 128-bit hash collision
  (~2^-128·n² per batch): the check costs 5–20% of a combine, and a
  collision there would merge two keys' runs.
- `compact_partition` (final reduce of one exchange group, on the plan
  driver, whose groups are fed by several map batches): EXACTLY one row
  per doc_id. It checks that each hash run holds one key, and a run
  holding two falls back to a string-keyed sort.
- `reduce_sorted` (final reduce of a whole epoch, on the single-task
  driver, fused into split_combine): the same exact reduce with no
  pass-through, returned sorted by (part, doc_id) — each partition's
  merge then only slices and writes.

The combiner is what makes hot keys (1% of docs with 50% of events) cheap:
their events collapse inside every input batch before a byte is shuffled
(the salted sub-partition pre-reduce of SURVEY.md §4 — the "salt" is the
physical input-batch boundary).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..model import OP_DELETE, OP_INSERT, OP_UPDATE  # noqa: F401  (re-export)


from ..model import collation_key
from ..model import key_hash64 as key_hash  # noqa: E402  (re-export)


def _key_hash(t: pa.Table, collation: str, seed: int = 0) -> np.ndarray:
    """key_hash over the COLLATION form of doc_id (model.collation_key):
    identical to key_hash(t["doc_id"]) under the default binary collation."""
    return key_hash(collation_key(t["doc_id"], collation), seed=seed)


def _winner_indices(t: pa.Table, ck, h: np.ndarray,
                    exact: bool = True) -> np.ndarray:
    """Indices of one winner per key: the last row of every consecutive key
    run after sorting by (hash128, commit_ts, start_ts, op), where `ck` is
    the collation form of doc_id and `h` its key_hash. Key identity uses
    TWO independent 64-bit hashes (no string comparisons in the hot path).
    A 128-bit collision (~2^-128·n²) puts two keys in one run; when
    `exact`, the keys of adjacent rows inside each run are compared, and a
    run holding two keys sends the batch to `_string_winners`."""
    h2 = key_hash(ck, seed=1)
    cts = t["commit_ts"].to_numpy(zero_copy_only=False)
    sts = t["start_ts"].to_numpy(zero_copy_only=False)
    op = t["op"].to_numpy(zero_copy_only=False)
    order = np.lexsort((op, sts, cts, h2, h))
    hs, hs2 = h[order], h2[order]
    last = np.ones(len(order), bool)
    if len(order) > 1:
        last[:-1] = (hs[:-1] != hs[1:]) | (hs2[:-1] != hs2[1:])
    inner = np.flatnonzero(~last) if exact else ()
    if len(inner) and not pc.all(pc.equal(
            ck.take(pa.array(order[inner])),
            ck.take(pa.array(order[inner + 1])))).as_py():
        return _string_winners(t, ck)
    return order[last]


def _string_winners(t: pa.Table, ck) -> np.ndarray:
    """The collision fallback: one winner per key by a stable sort on the
    key string itself (ties keep the lexsort's last-input-row winner)."""
    if isinstance(ck, pa.ChunkedArray):
        ck = ck.combine_chunks()
    order = pc.sort_indices(
        pa.table({"k": ck, "c": t["commit_ts"], "s": t["start_ts"],
                  "o": t["op"]}),
        sort_keys=[(c, "ascending") for c in "kcso"])
    ks = ck.take(order)
    last = np.ones(len(ks), bool)
    last[:-1] = pc.not_equal(ks[:-1], ks[1:]).to_numpy(zero_copy_only=False)
    return order.to_numpy()[last]


def compact_batch(t: pa.Table, num_partitions: int | None = None,
                  hot_share: float | None = None,
                  salt_factor: int = 8,
                  collation: str = "binary") -> pa.Table:
    """Pre-shuffle combiner: collapse each doc's events within one batch and
    (optionally, in the same pass) attach the shuffle partition column —
    part = hash(doc_id) % P, the span/causality-slot analog
    (pkg/causality/conflict_detector.go:26-118): all events of one key land
    in one partition ⇒ serialized per key, parallel across keys.

    `hot_share` enables DYNAMIC hot-key detection (splitter_write.go
    analog): the PRE-combine per-key counts of this batch — computed from
    the same hash pass the winner scan already does — flag keys whose
    share exceeds the threshold, and ONLY their surviving rows get a
    nonzero `salt` (hash(start_ts) % salt_factor) for the salted
    pre-reduce; everything else carries salt 0."""
    if t.num_rows == 0:
        out = t
        h = np.empty(0, np.uint64)
        hot = np.empty(0, bool)
    else:
        ck = collation_key(t["doc_id"], collation)
        h = key_hash(ck)
        win = _winner_indices(t, ck, h, exact=False)
        hot = np.zeros(len(h), bool)
        if hot_share is not None and len(win) < t.num_rows:
            # per-key counts over the RAW batch (pre-combine — the only
            # place the skew signal still exists)
            uniq, counts = np.unique(h, return_counts=True)
            hk = uniq[counts > hot_share * t.num_rows]
            if len(hk):
                hot = np.isin(h, hk)
        # adaptive: gathering winners copies every surviving payload — only
        # worth it when the batch actually collapses; low-dup batches pass
        # through untouched (the final reduce handles them)
        if len(win) > 0.9 * t.num_rows:
            out = t
        else:
            win.sort()
            out = t.take(pa.array(win))
            h = h[win]
            hot = hot[win]
    if num_partitions is not None:
        part = (h % np.uint64(num_partitions)).astype(np.uint32)
        out = out.append_column("part", pa.array(part))
    if hot_share is not None:
        salt = np.zeros(out.num_rows, np.uint32)
        if hot.any():
            sts = out["start_ts"].to_numpy(zero_copy_only=False)
            salt[hot] = (sts[hot] % np.uint64(salt_factor)).astype(np.uint32)
        out = out.append_column("salt", pa.array(salt))
    return out


def compact_partition(t: pa.Table, collation: str = "binary") -> pa.Table:
    """Final per-partition reduce: EXACTLY one surviving event per doc_id
    (per collation key when collation != binary), in hash order."""
    if t.num_rows <= 1:
        return t
    ck = collation_key(t["doc_id"], collation)
    win = _winner_indices(t, ck, key_hash(ck))
    return t.take(pa.array(win)) if len(win) < t.num_rows else t


def reduce_sorted(t: pa.Table, num_partitions: int,
                  collation: str = "binary") -> pa.Table:
    """Final reduce of a whole epoch's events of one table in one pass:
    exactly one winner per doc_id (collation key) — no pass-through, unlike
    the combiner — with the partition column part = hash(doc_id) % P
    attached and the rows sorted by (part, doc_id). A merge fed this table
    only slices it per partition: each slice is already that partition's
    compact_partition winners in the order its files are written."""
    if not t.num_rows:
        return t.append_column("part", pa.array([], pa.uint32()))
    ck = collation_key(t["doc_id"], collation)
    h = key_hash(ck)
    win = _winner_indices(t, ck, h)
    part = (h[win] % np.uint64(num_partitions)).astype(np.uint32)
    order = pc.sort_indices(
        pa.table({"part": part, "doc_id": t["doc_id"].take(pa.array(win))}),
        sort_keys=[("part", "ascending"), ("doc_id", "ascending")]).to_numpy()
    return t.take(pa.array(win[order])).append_column(
        "part", pa.array(part[order]))


def assign_partition(t: pa.Table, num_partitions: int,
                     collation: str = "binary") -> pa.Table:
    """Standalone partition-column assignment (compact_batch does it fused
    when the combiner is enabled)."""
    part = (_key_hash(t, collation) % np.uint64(num_partitions)).astype(np.uint32)
    return t.append_column("part", pa.array(part))
