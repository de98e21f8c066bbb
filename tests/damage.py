"""Byte-level file damage for the corruption-detection tests."""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Tuple, Union


def truncate_file(path: Union[str, Path], keep_fraction: float = 0.5) -> Path:
    """Truncate a file to a fraction of its size (a mid-write kill stand-in)."""
    path = Path(path)
    size = path.stat().st_size
    keep = max(1, int(size * keep_fraction))
    with open(path, "rb+") as handle:
        handle.truncate(keep)
    return path


def corrupt_file(path: Union[str, Path], offset: Optional[int] = None) -> Tuple[Path, int]:
    """Flip one byte (default: mid-file) — well-formed zip, damaged payload."""
    path = Path(path)
    size = path.stat().st_size
    if size == 0:
        raise ValueError(f"cannot corrupt empty file {path}")
    position = size // 2 if offset is None else offset
    position = min(max(position, 0), size - 1)
    with open(path, "rb+") as handle:
        handle.seek(position)
        byte = handle.read(1)
        handle.seek(position)
        handle.write(bytes([byte[0] ^ 0xFF]))
    return path, position
