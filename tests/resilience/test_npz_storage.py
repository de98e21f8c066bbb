"""The ``.npz`` write path: stored members, checksums without a copy,
deflated archives from earlier versions, and byte-level damage."""

import hashlib
import shutil
import struct
import tokenize
import zipfile
import zlib

import numpy as np
import pytest

from repro.core import SESTrainer, fast_config
from repro.datasets import load_dataset
from repro.graph import classification_split, pack_graph
from repro.io import load_graph, save_graph
from repro.resilience import (
    CheckpointError,
    array_checksum,
    atomic_savez,
    find_latest_snapshot,
    load_snapshot,
    write_latest_pointer,
)
from repro.serve import load_serving_state
from tests.damage import corrupt_file

EPOCHS = (3, 2)  # explainable, predictive


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """A scale-0.15 fit checkpointed every epoch: (trainer, result, directory)."""
    directory = tmp_path_factory.mktemp("fitted")
    graph = classification_split(load_dataset("cora", scale=0.15, seed=0), seed=0)
    config = fast_config(
        "gcn", explainable_epochs=EPOCHS[0], predictive_epochs=EPOCHS[1], seed=0
    )
    trainer = SESTrainer(graph, config)
    result = trainer.fit(checkpoint_every=1, checkpoint_dir=directory, checkpoint_keep=0)
    return trainer, result, directory


def _deflate(source, target):
    """Rewrite an archive with deflated members, as earlier versions wrote it."""
    with np.load(source) as archive:
        members = {key: archive[key] for key in archive.files}
    np.savez_compressed(target, **members)
    with zipfile.ZipFile(target) as archive:
        assert all(i.compress_type == zipfile.ZIP_DEFLATED for i in archive.infolist())
    return target


def _tobytes_checksum(array):
    """The checksum formula before hashing went through a memoryview."""
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(str(array.dtype).encode("utf-8"))
    digest.update(str(array.shape).encode("utf-8"))
    digest.update(array.tobytes())
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# Write path
# ----------------------------------------------------------------------
def test_every_member_atomic_savez_writes_is_stored(fitted, tmp_path):
    trainer, _, directory = fitted
    save_graph(trainer.graph, tmp_path / "graph.npz")
    paths = [
        directory / f"snap-predictive-{EPOCHS[1]:04d}.npz",
        tmp_path / "graph.npz",
        atomic_savez(tmp_path / "plain", a=np.arange(5), b=np.eye(3), c=np.array(True)),
    ]
    for path in paths:
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
        assert infos
        assert {info.compress_type for info in infos} == {zipfile.ZIP_STORED}, path


@pytest.mark.parametrize(
    "array",
    [
        np.random.default_rng(0).normal(size=(7, 5)),
        np.arange(-20, 20, dtype=np.int64).reshape(4, 10),
        np.array([True, False, True, True]),
        np.array(2.5),
        np.arange(60, dtype=np.float64).reshape(6, 10)[::2, 1::3],
        np.arange(12, dtype=np.int64).reshape(3, 4).T,
        np.empty((0, 3)),
    ],
    ids=["float64", "int64", "bool", "0-d", "strided", "transposed", "empty"],
)
def test_checksum_equals_the_tobytes_formula(array):
    assert array_checksum(array) == _tobytes_checksum(array)


# ----------------------------------------------------------------------
# Deflated archives from earlier versions
# ----------------------------------------------------------------------
def test_deflated_snapshot_resumes_to_the_same_state(fitted, tmp_path):
    trainer, result, directory = fitted
    stored = directory / "snap-explainable-0002.npz"
    deflated = _deflate(stored, tmp_path / stored.name)

    restored = []
    for path in (stored, deflated):
        resumed = SESTrainer(trainer.graph, trainer.config)
        resumed.restore(load_snapshot(path))
        restored.append(resumed.snapshot())
    assert restored[0].manifest == restored[1].manifest
    assert restored[0].arrays.keys() == restored[1].arrays.keys()
    for key, value in restored[0].arrays.items():
        np.testing.assert_array_equal(restored[1].arrays[key], value, err_msg=key)

    finished = SESTrainer(trainer.graph, trainer.config).fit(resume_from=deflated)
    np.testing.assert_array_equal(finished.logits, result.logits)
    assert finished.test_accuracy == result.test_accuracy


def test_deflated_snapshot_serves_bit_identical_logits(fitted, tmp_path):
    _, result, directory = fitted
    stored = directory / f"snap-predictive-{EPOCHS[1]:04d}.npz"
    deflated = _deflate(stored, tmp_path / stored.name)
    served = load_serving_state(deflated)
    np.testing.assert_array_equal(served.logits, load_serving_state(stored).logits)
    np.testing.assert_array_equal(served.logits, result.logits)


def test_deflated_io_files_still_load(fitted, tmp_path):
    trainer, _, _ = fitted
    save_graph(trainer.graph, tmp_path / "graph.npz")
    graph = load_graph(_deflate(tmp_path / "graph.npz", tmp_path / "deflated-graph.npz"))
    expected = pack_graph(trainer.graph)
    packed = pack_graph(graph)
    assert packed.keys() == expected.keys()
    for key, value in expected.items():
        np.testing.assert_array_equal(packed[key], value, err_msg=key)


# ----------------------------------------------------------------------
# Byte-level damage
# ----------------------------------------------------------------------
def _flip_offsets(size, seed):
    """The first 200 bytes (local and ``.npy`` headers), the last 300
    (central directory and end record) and 200 seeded offsets between."""
    rng = np.random.default_rng(seed)
    middle = rng.choice(np.arange(200, size - 300), size=200, replace=False)
    return list(range(200)) + sorted(int(x) for x in middle) + list(range(size - 300, size))


def _assert_flips_are_caught_or_harmless(path, offsets, expected):
    """Flip one byte at a time: each load raises :class:`CheckpointError` or
    returns exactly the arrays that were written (the flip hit a field that
    no reader checks, such as a timestamp)."""
    caught = 0
    for offset in offsets:
        corrupt_file(path, offset)
        try:
            snapshot = load_snapshot(path)
        except CheckpointError as error:
            assert str(path) in str(error)
            caught += 1
        else:
            assert snapshot.arrays.keys() == expected.arrays.keys(), offset
            for key, value in expected.arrays.items():
                assert np.array_equal(snapshot.arrays[key], value), (offset, key)
        finally:
            corrupt_file(path, offset)  # XOR 0xFF again restores the byte
    assert caught > len(offsets) // 2


def test_byte_flip_sweep(fitted, tmp_path):
    _, _, directory = fitted
    path = tmp_path / "snap-explainable-0001.npz"
    shutil.copyfile(directory / path.name, path)
    expected = load_snapshot(path)
    offsets = _flip_offsets(path.stat().st_size, seed=25)
    _assert_flips_are_caught_or_harmless(path, offsets, expected)
    assert load_snapshot(path).manifest == expected.manifest  # every flip undone


def _first_member_data(raw):
    """Offset of the first member's data (its ``.npy`` magic)."""
    name_length, extra_length = struct.unpack("<HH", raw[26:30])
    return 30 + name_length + extra_length


def _npy_header_length(raw):
    return _first_member_data(raw) + 8  # after the magic (6) and version (2)


def _central_directory_version(raw):
    return raw.rfind(b"PK\x01\x02") + 6  # "version needed to extract"


def _central_directory_offset(raw):
    return raw.rfind(b"PK\x05\x06") + 18  # third byte of the CD start offset


def _deflate_stream(raw):
    return _first_member_data(raw) + 2


@pytest.mark.parametrize(
    "locate, deflated, cause",
    [
        (_npy_header_length, False, (tokenize.TokenError, ValueError)),
        (_central_directory_version, False, NotImplementedError),
        (_central_directory_offset, False, OSError),
        (_deflate_stream, True, zlib.error),
    ],
    ids=["npy-header", "cd-version", "cd-offset", "deflate-stream"],
)
def test_find_latest_falls_back_past_one_flip(fitted, tmp_path, locate, deflated, cause):
    _, _, directory = fitted
    good = tmp_path / "snap-explainable-0001.npz"
    shutil.copyfile(directory / good.name, good)
    newest = tmp_path / "snap-explainable-0002.npz"
    if deflated:
        _deflate(directory / newest.name, newest)
    else:
        shutil.copyfile(directory / newest.name, newest)
    write_latest_pointer(tmp_path, newest.name)
    corrupt_file(newest, locate(newest.read_bytes()))

    with pytest.raises(CheckpointError, match=newest.name) as error:
        load_snapshot(newest)
    assert isinstance(error.value.__cause__, cause)
    with pytest.warns(RuntimeWarning, match="falling back"):
        snapshot, path = find_latest_snapshot(tmp_path)
    assert path == good
    assert snapshot.completed["explainable"] == 1
