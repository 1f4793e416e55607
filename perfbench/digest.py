"""Order-independent digest of a lake (or oracle) table.

Each row is serialised canonically (JSON, sorted keys) and hashed to 64
bits; the digest is the row count plus the sum of the row hashes modulo
2**64, together with the schema. Summing makes the digest independent of
row order, and a changed, added or dropped row changes it.
"""

from __future__ import annotations

import hashlib
import json

import pyarrow as pa

_MASK = (1 << 64) - 1


def _row_hash(row: dict) -> int:
    blob = json.dumps(row, sort_keys=True, separators=(",", ":"),
                      default=str).encode()
    return int.from_bytes(hashlib.blake2b(blob, digest_size=8).digest(),
                          "little")


def _type_name(t: pa.DataType) -> str:
    # a list's child field name ("item" vs "element") is not data
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        return f"list<{_type_name(t.value_type)}>"
    return str(t)


def table_digest(t: pa.Table) -> dict:
    schema = ",".join(f"{f.name}:{_type_name(f.type)}" for f in t.schema)
    acc = 0
    for batch in t.to_batches(max_chunksize=65536):
        for row in batch.to_pylist():
            acc = (acc + _row_hash(row)) & _MASK
    return {"rows": t.num_rows, "sum": f"{acc:016x}", "schema": schema}
