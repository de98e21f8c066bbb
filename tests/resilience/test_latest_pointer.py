"""Regression tests: ``find_latest_snapshot`` vs a lying ``LATEST`` pointer.

Hot-reload (repro.serve) polls the pointer while training prunes and
rewrites snapshots, so the loader must (a) fall back to the newest valid
manifest when the pointer names a deleted or corrupt snapshot — with a
warning, because a disagreeing pointer means a promotion went wrong — and
(b) tolerate files vanishing between directory listing and ``stat``, and
(c) never follow a pointer out of the snapshot directory.
"""

from __future__ import annotations

import os
import time
import warnings

import numpy as np
import pytest

from repro.resilience.snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    TrainingSnapshot,
    find_latest_snapshot,
    save_snapshot,
    write_latest_pointer,
)
from repro.resilience.storage import CheckpointError
from repro.serve import current_snapshot_token


def write_valid_snapshot(directory, name, tag=0):
    snapshot = TrainingSnapshot(
        manifest={
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "completed": {"explainable": tag},
        },
        arrays={"payload": np.arange(3.0) + tag},
    )
    return save_snapshot(snapshot, directory / name)


def test_stale_pointer_to_deleted_snapshot_falls_back_with_warning(tmp_path):
    write_valid_snapshot(tmp_path, "snap-old.npz", tag=1)
    write_latest_pointer(tmp_path, "snap-deleted.npz")
    with pytest.warns(RuntimeWarning, match="snap-deleted.npz.*falling back"):
        snapshot, path = find_latest_snapshot(tmp_path)
    assert path.name == "snap-old.npz"
    assert snapshot.completed == {"explainable": 1}


def test_pointer_to_corrupt_snapshot_falls_back_with_warning(tmp_path):
    write_valid_snapshot(tmp_path, "snap-good.npz", tag=2)
    time.sleep(0.01)
    corrupt = tmp_path / "snap-corrupt.npz"
    corrupt.write_bytes(b"definitely not a zip archive")
    write_latest_pointer(tmp_path, corrupt.name)
    with pytest.warns(RuntimeWarning, match="snap-corrupt.npz"):
        snapshot, path = find_latest_snapshot(tmp_path)
    assert path.name == "snap-good.npz"
    assert snapshot.completed == {"explainable": 2}


def test_valid_pointer_warns_nothing(tmp_path):
    write_valid_snapshot(tmp_path, "snap-a.npz", tag=1)
    newest = write_valid_snapshot(tmp_path, "snap-b.npz", tag=2)
    write_latest_pointer(tmp_path, newest.name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any warning fails the test
        snapshot, path = find_latest_snapshot(tmp_path)
    assert path.name == "snap-b.npz"
    assert snapshot.completed == {"explainable": 2}


def test_pointer_overrides_mtime_order(tmp_path):
    """An explicit pointer wins over a newer file (intentional rollback)."""
    write_valid_snapshot(tmp_path, "snap-pinned.npz", tag=1)
    time.sleep(0.01)
    write_valid_snapshot(tmp_path, "snap-newer.npz", tag=2)
    write_latest_pointer(tmp_path, "snap-pinned.npz")
    _, path = find_latest_snapshot(tmp_path)
    assert path.name == "snap-pinned.npz"


def test_all_candidates_bad_raises_with_every_failure_listed(tmp_path):
    (tmp_path / "snap-bad.npz").write_bytes(b"junk")
    write_latest_pointer(tmp_path, "snap-gone.npz")
    with pytest.raises(CheckpointError, match="no usable snapshot") as excinfo:
        find_latest_snapshot(tmp_path)
    message = str(excinfo.value)
    assert "snap-gone.npz" in message
    assert "snap-bad.npz" in message


def test_empty_directory_raises(tmp_path):
    with pytest.raises(CheckpointError, match="no snapshot files present"):
        find_latest_snapshot(tmp_path)


def test_prune_race_during_stat_is_tolerated(tmp_path, monkeypatch):
    """A file deleted between glob and stat must not crash the scan."""
    survivor = write_valid_snapshot(tmp_path, "snap-keep.npz", tag=3)
    doomed = write_valid_snapshot(tmp_path, "snap-doomed.npz", tag=4)
    real_getmtime = os.path.getmtime

    def racing_getmtime(path):
        if os.fspath(path) == os.fspath(doomed):
            # Simulate the checkpoint pruner unlinking mid-scan.
            raise FileNotFoundError(path)
        return real_getmtime(path)

    monkeypatch.setattr(os.path, "getmtime", racing_getmtime)
    snapshot, path = find_latest_snapshot(tmp_path)
    assert path == survivor
    assert snapshot.completed == {"explainable": 3}


@pytest.mark.parametrize("outside", ["../snap-outside.npz", "absolute"])
def test_pointer_out_of_the_directory_is_stale(tmp_path, outside):
    """``LATEST`` must name a file inside the directory, nothing else."""
    directory = tmp_path / "snapshots"
    directory.mkdir()
    escaped = write_valid_snapshot(tmp_path, "snap-outside.npz", tag=9)
    write_valid_snapshot(directory, "snap-inside.npz", tag=1)
    write_latest_pointer(directory, str(escaped) if outside == "absolute" else outside)
    with pytest.warns(RuntimeWarning, match="not a file name"):
        snapshot, path = find_latest_snapshot(directory)
    assert path == directory / "snap-inside.npz"
    assert snapshot.completed == {"explainable": 1}
    with pytest.warns(RuntimeWarning, match="not a file name"):
        assert current_snapshot_token(directory) == "snap-inside.npz"
