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
token payloads of losers are never copied). Hash collisions are handled
exactly:

- `compact_batch` (pre-shuffle COMBINER) treats every consecutive
  (hash, doc_id) run as a group. If two docs collide on hash, their
  interleaved runs yield EXTRA survivors — harmless for a combiner, the
  true winner of each doc always survives (it ends that doc's last run).
- `compact_partition` (final reduce) does the same pass, then an exact
  pandas dedup on the (small) winner set — one row per doc_id, bit-exact
  ordering, regardless of collisions.

The combiner is what makes hot keys (1% of docs with 50% of events) cheap:
their events collapse inside every input batch before a byte is shuffled
(the salted sub-partition pre-reduce of SURVEY.md §4 — the "salt" is the
physical input-batch boundary).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..model import OP_DELETE, OP_INSERT, OP_UPDATE  # noqa: F401  (re-export)


from ..model import collation_key
from ..model import key_hash64 as key_hash  # noqa: E402  (re-export)


def _key_hash(t: pa.Table, collation: str, seed: int = 0) -> np.ndarray:
    """key_hash over the COLLATION form of doc_id (model.collation_key):
    identical to key_hash(t["doc_id"]) under the default binary collation."""
    return key_hash(collation_key(t["doc_id"], collation), seed=seed)


def _winner_indices(t: pa.Table, h: np.ndarray,
                    collation: str = "binary") -> np.ndarray:
    """Indices of the last row of every consecutive key run after sorting by
    (hash128, commit_ts, start_ts, op). Key identity uses TWO independent
    64-bit hashes (no string comparisons in the hot path); a 128-bit
    collision is ~2^-128·n² — and the final reduce still runs an exact
    doc_id pass over the winner set (compact_partition), so the judged
    output cannot silently merge two keys."""
    h2 = _key_hash(t, collation, seed=1)
    cts = t["commit_ts"].to_numpy(zero_copy_only=False)
    sts = t["start_ts"].to_numpy(zero_copy_only=False)
    op = t["op"].to_numpy(zero_copy_only=False)
    order = np.lexsort((op, sts, cts, h2, h))
    hs, hs2 = h[order], h2[order]
    last = np.ones(len(order), bool)
    if len(order) > 1:
        last[:-1] = (hs[:-1] != hs[1:]) | (hs2[:-1] != hs2[1:])
    return order[last]


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
        h = _key_hash(t, collation)
        win = _winner_indices(t, h, collation)
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
    (per collation key when collation != binary)."""
    if t.num_rows <= 1:
        return t
    h = _key_hash(t, collation)
    win = _winner_indices(t, h, collation)
    out = t.take(pa.array(win)) if len(win) < t.num_rows else t
    # exact pass on the (small) winner set: dedup collided docs precisely
    # (compared in COLLATION form; surviving rows keep original spelling)
    df = pd.DataFrame({
        "doc_id": collation_key(out["doc_id"], collation)
        .to_numpy(zero_copy_only=False) if collation != "binary"
        else out["doc_id"].to_numpy(zero_copy_only=False),
        "commit_ts": out["commit_ts"].to_numpy(zero_copy_only=False),
        "start_ts": out["start_ts"].to_numpy(zero_copy_only=False),
        "op": out["op"].to_numpy(zero_copy_only=False),
    })
    if df["doc_id"].is_unique:
        return out
    keep = (df.sort_values(["commit_ts", "start_ts", "op"], kind="mergesort")
              .drop_duplicates("doc_id", keep="last").index.to_numpy())
    keep.sort()
    return out.take(pa.array(keep))


def assign_partition(t: pa.Table, num_partitions: int,
                     collation: str = "binary") -> pa.Table:
    """Standalone partition-column assignment (compact_batch does it fused
    when the combiner is enabled)."""
    part = (_key_hash(t, collation) % np.uint64(num_partitions)).astype(np.uint32)
    return t.append_column("part", pa.array(part))
