"""Durable ``.npz`` storage: atomic writes, checksums, loud corruption errors.

This module is the lowest layer of :mod:`repro.resilience` and deliberately
imports nothing from the rest of the package (``repro.io`` depends on it, so
it must stay cycle-free).  It provides the three properties every on-disk
artefact of the training runtime needs:

* **atomicity** — :func:`atomic_savez` streams to a ``.tmp`` sibling,
  flushes, ``fsync``\\ s and ``os.replace``\\ s into place, so a kill at any
  byte offset leaves either the previous file or the new one, never a
  truncated hybrid;
* **integrity** — :func:`array_checksum` fingerprints dtype + shape + raw
  bytes, so a flipped bit inside an otherwise-well-formed zip member is
  detected at load time, not as a silent training divergence;
* **diagnosis** — :func:`open_npz` converts the opaque
  ``zipfile.BadZipFile`` / ``KeyError`` / ``EOFError`` / ``OSError`` zoo
  that ``numpy.load`` surfaces on damaged archives into one
  :class:`CheckpointError` naming the path and the failure.
"""

from __future__ import annotations

import hashlib
import os
import tokenize
import zipfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Mapping, Union

import numpy as np

PathLike = Union[str, Path]


class CheckpointError(RuntimeError):
    """A serialized artefact is missing, truncated, corrupted or mismatched.

    Raised instead of ``zipfile.BadZipFile`` / ``KeyError`` /
    ``json.JSONDecodeError`` so callers can handle every load failure with
    one except clause, and the message always names the offending path.
    """


def _npz_path(path: PathLike) -> Path:
    """Mirror ``numpy.savez``'s extension behaviour for our handle-based writes."""
    path = Path(path)
    if path.suffix != ".npz":
        path = Path(str(path) + ".npz")
    return path


def fsync_directory(path: PathLike) -> None:
    """Flush a directory entry to disk (best effort; no-op where unsupported)."""
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_savez(path: PathLike, **arrays: np.ndarray) -> Path:
    """Write an ``.npz`` archive crash-safely; return the final path.

    The archive is fully written and fsynced under ``<path>.tmp`` before an
    atomic rename publishes it, so readers never observe a partial file and
    a mid-save kill leaves any previous version untouched.

    Members are stored, not deflated: zlib made a snapshot write ~10x and a
    load ~2x slower for a file half the size.  ``np.load`` reads both kinds,
    so deflated archives written by earlier versions still load.
    """
    path = _npz_path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(str(path) + ".tmp")
    with open(tmp, "wb") as handle:
        np.savez(handle, **arrays)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_directory(path.parent)
    return path


def atomic_write_text(path: PathLike, text: str) -> Path:
    """Atomically write a small text file (e.g. a latest-snapshot pointer)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(str(path) + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_directory(path.parent)
    return path


# What ``numpy.load`` and ``zipfile`` raise on a damaged archive, at open or
# at a member read: a bad central directory or CRC (``BadZipFile``), a short
# member (``EOFError``), an offset past the end (``OSError``), a flipped
# version or method byte (``NotImplementedError``), an unparsable ``.npy``
# header (``ValueError``, ``tokenize.TokenError``) and a bad deflate stream
# in an archive written before members were stored (``zlib.error``).
_DAMAGE = (
    zipfile.BadZipFile,
    EOFError,
    OSError,
    NotImplementedError,
    ValueError,
    tokenize.TokenError,
    zlib.error,
)


@contextmanager
def open_npz(path: PathLike, what: str = "checkpoint") -> Iterator[np.lib.npyio.NpzFile]:
    """Open an ``.npz`` for reading; raise :class:`CheckpointError` on damage.

    Truncation is typically detected at open (bad end-of-central-directory),
    bit corruption at member access (CRC mismatch, a broken header) — both
    paths, plus a missing file, surface as :class:`CheckpointError` naming
    ``path``.
    """
    path = Path(path)
    try:
        archive = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise CheckpointError(f"{what} not found: {path}") from None
    except _DAMAGE as error:
        raise CheckpointError(f"corrupt {what} at {path}: {error}") from error
    try:
        yield archive
    except KeyError as error:
        raise CheckpointError(
            f"{what} at {path} is missing entry {error}"
        ) from error
    except _DAMAGE as error:
        raise CheckpointError(f"corrupt {what} at {path}: {error}") from error
    finally:
        archive.close()


def array_checksum(array: np.ndarray) -> str:
    """SHA-256 over dtype + shape + raw bytes (first 16 hex digits).

    Hashing the dtype and shape alongside the buffer means a reinterpreted
    array (same bytes, different view) fails verification too.
    """
    array = np.ascontiguousarray(array)  # a no-op for loaded arrays
    digest = hashlib.sha256()
    digest.update(str(array.dtype).encode("utf-8"))
    digest.update(str(array.shape).encode("utf-8"))
    digest.update(memoryview(array))  # the buffer itself, not a tobytes() copy
    return digest.hexdigest()[:16]


def verify_checksums(
    arrays: Mapping[str, np.ndarray], checksums: Mapping[str, str], path: PathLike
) -> None:
    """Check every array against its recorded checksum; raise on any drift."""
    missing = sorted(set(checksums) - set(arrays))
    extra = sorted(set(arrays) - set(checksums))
    if missing or extra:
        raise CheckpointError(
            f"checkpoint at {path} array set mismatch: "
            f"missing={missing}, unexpected={extra}"
        )
    for key, expected in checksums.items():
        actual = array_checksum(arrays[key])
        if actual != expected:
            raise CheckpointError(
                f"checkpoint at {path} failed checksum for {key!r}: "
                f"expected {expected}, got {actual}"
            )


def checksum_manifest(arrays: Mapping[str, np.ndarray]) -> Dict[str, str]:
    """Checksum every array (the ``checksums`` manifest section)."""
    return {key: array_checksum(value) for key, value in arrays.items()}
