"""Matrix file formats read and written by the CLI and the tests.

CSV: a `# rows cols` header line, then comma-separated rows at 17 significant
digits so values round-trip exactly. Binary: magic `DMAP1`, little-endian
u64 rows, u64 cols, then row-major float64 data.
"""
from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .exceptions import InputError

MAGIC = b"DMAP1"
FORMATS = ("csv", "bin")


def _as_matrix(values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise InputError("only 1-d or 2-d arrays can be serialized")
    return arr


def write_matrix_csv(path: str | Path, values: np.ndarray) -> None:
    arr = _as_matrix(values)
    header = f"{arr.shape[0]} {arr.shape[1]}"
    np.savetxt(path, arr, fmt="%.17g", delimiter=",", header=header, encoding="ascii")


def read_matrix_csv(path: str | Path) -> np.ndarray:
    try:
        with open(path, "r", encoding="ascii") as handle:
            rows, cols = _csv_header(path, handle.readline())
            # an empty matrix leaves at most blank lines, and np.loadtxt warns on those
            body = handle if rows and cols else [line for line in handle if line.strip()]
            data = np.loadtxt(body, delimiter=",", ndmin=2) if body else np.empty((rows, cols))
    except InputError:
        raise
    except ValueError as exc:  # a non-ASCII byte, a ragged row or a non-numeric cell
        raise InputError(f"{path}: malformed CSV matrix: {exc}") from exc
    if data.shape != (rows, cols):
        raise InputError(f"{path}: header promises {rows}x{cols} but file holds {data.shape}")
    return data


def _csv_header(path: str | Path, header: str) -> tuple[int, int]:
    if not header.startswith("#"):
        raise InputError(f"{path}: missing '# rows cols' header")
    try:
        rows, cols = (int(tok) for tok in header[1:].split())
    except ValueError as exc:
        raise InputError(f"{path}: malformed header {header!r}") from exc
    return rows, cols


def write_matrix_bin(path: str | Path, values: np.ndarray) -> None:
    arr = _as_matrix(values)
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(struct.pack("<QQ", arr.shape[0], arr.shape[1]))
        handle.write(arr.astype("<f8").tobytes(order="C"))


def read_matrix_bin(path: str | Path) -> np.ndarray:
    with open(path, "rb") as handle:
        magic = handle.read(len(MAGIC))
        if magic != MAGIC:
            raise InputError(f"{path}: bad magic {magic!r}")
        header = handle.read(16)
        if len(header) != 16:
            raise InputError(f"{path}: truncated header")
        rows, cols = struct.unpack("<QQ", header)
        # the size is checked before the read: a forged header must not
        # ask for more bytes than the file holds
        size = rows * cols * 8
        held = os.fstat(handle.fileno()).st_size - handle.tell()
        if size != held:
            raise InputError(f"{path}: {held}-byte payload does not fit a {rows}x{cols} header")
        payload = handle.read(size)
    try:
        return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()
    except ValueError as exc:  # an empty matrix with a dimension numpy cannot index
        raise InputError(f"{path}: unreadable {rows}x{cols} header: {exc}") from exc


def write_matrix(path: str | Path, values: np.ndarray, fmt: str = "csv") -> None:
    if fmt == "csv":
        write_matrix_csv(path, values)
    elif fmt == "bin":
        write_matrix_bin(path, values)
    else:
        raise InputError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def read_matrix(path: str | Path) -> np.ndarray:
    """Read either format, sniffing the binary magic."""
    with open(path, "rb") as handle:
        magic = handle.read(len(MAGIC))
    if magic == MAGIC:
        return read_matrix_bin(path)
    return read_matrix_csv(path)
