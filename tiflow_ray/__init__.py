"""tiflow_ray — a Ray-Data-native CDC / incremental-ingest engine.

A from-scratch reimplementation of the change-data semantics of TiCDC/DM
(reference: wk989898/tiflow) on ray.data: a WAL/binlog-tail source emits
insert/update/delete events over a Parquet lake of pre-tokenized training
sequences, and a key-partitioned merge-apply stage replays them into the
target table — map_batches over zero-copy Arrow, explicit hash partitioning
on doc_id, commit-ts-ordered last-writer-wins reduction (DM compactor
semantics, dm/syncer/compactor.go:152-225), schema-evolution barriers
(cdc/owner/ddl_manager.go:395-425), and an idempotent two-phase Parquet sink
with checkpoint/lineage (pkg/sink/cloudstorage/dml_worker.go:209-231).
"""

import logging as _logging
import os as _os

# one Rust thread per polars call-site: polars is used for per-batch key
# hashing inside Ray workers — its default whole-machine thread pool would
# oversubscribe every core 32x (set before any polars import, inherited by
# workers spawned after driver import)
_os.environ.setdefault("POLARS_MAX_THREADS", "1")

# pyarrow's Schema.__hash__ raises TypeError on ANY schema carrying
# key-value metadata (it hashes the metadata dict), so Ray Data's
# schema-dedup fast path logs a benign "Failed to hash the schemas"
# warning for every parquet-derived schema, in every worker, drowning
# real warnings. Two-pronged silence of exactly that module's logger:
# (1) the env var makes fresh WORKER processes load our logging config
#     (= Ray's default + that logger at ERROR) at startup — effective
#     when tiflow_ray is imported before ray.init (workers inherit the
#     raylet's env);
# (2) the setLevel covers processes where (1) didn't apply, from the
#     moment they import tiflow_ray for the UDFs.
_os.environ.setdefault(
    "RAY_DATA_LOGGING_CONFIG",
    _os.path.join(_os.path.dirname(_os.path.abspath(__file__)),
                  "ray_data_logging.yaml"))
_logging.getLogger(
    "ray.data._internal.arrow_ops.transform_pyarrow").setLevel(
    _logging.ERROR)

__version__ = "0.2.1"
