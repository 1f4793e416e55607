"""Worker-crash fault injection: a mid-pipeline Ray worker dies (hard
process exit, the machine-failure model) and Ray's lineage-based task retry
re-executes it; the replay must still converge exactly-once to the
sequential oracle. The reference's analog is TiCDC surviving capture
restarts under the redo log (tests/integration_tests/availability and
consistent_replicate_* suites) — here the retried unit is a Ray Data task
re-reading its WAL slice, and the idempotent two-phase sink absorbs any
duplicate work."""

import os

import pytest

from tiflow_ray import oracle
from tiflow_ray.config import ReplayConfig
from tiflow_ray.pipelines import replay as rp
from tiflow_ray.state.checkpoint import LakeState


def make_kill_once(marker: str):
    """Event predicate that hard-kills the FIRST worker process that
    evaluates it (os._exit — no exception, no cleanup: a crash, not an
    error Ray would surface to the app). A marker file makes the kill
    happen exactly once across all retries/processes. Built as a closure
    so cloudpickle ships it by value (test modules aren't importable on
    workers)."""

    def predicate(t):
        import os as _os

        import numpy as _np
        import pyarrow as _pa
        try:
            fd = _os.open(marker, _os.O_CREAT | _os.O_EXCL | _os.O_WRONLY)
            _os.close(fd)
        except FileExistsError:
            pass
        else:
            _os._exit(1)   # simulate machine failure mid-batch
        return _pa.array(_np.ones(t.num_rows, bool))

    return predicate


@pytest.mark.parametrize("driver", ["task", "plan"])
def test_worker_crash_mid_epoch_converges(t1_fixture, tmp_path, driver):
    """Both epoch drivers: the single task (default for a small epoch) and
    the Ray Data plan (forced by a batch_size below the epoch's rows)."""
    root, reg, *_ = t1_fixture
    marker = str(tmp_path / "killed.marker")
    cfg = ReplayConfig(wal_dir=os.path.join(root, "wal"),
                       lake_dir=str(tmp_path / "lake"),
                       num_partitions=8, max_segments_per_epoch=1,
                       validate=True, event_predicate=make_kill_once(marker),
                       **({"batch_size": 64} if driver == "plan" else {}))
    rp.bootstrap(cfg, base_dir=os.path.join(root, "base"))
    res = rp.run_replay(cfg)
    assert os.path.exists(marker), "fault was never injected"
    assert res.epochs, "replay committed nothing"

    got = rp.lake_to_table(cfg.lake_dir, cfg.wal_dir)
    exp = oracle.replay_to_table(root, reg)
    assert got.equals(exp), "post-crash replay diverged from oracle"

    # manifest chain is dense and single-commit per epoch (no duplicate
    # commits from the retried task)
    epochs = LakeState(cfg.lake_dir).committed_epochs()
    assert epochs == sorted(set(epochs))
