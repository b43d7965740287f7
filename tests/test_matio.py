import struct

import numpy as np
import pytest

from dynamap import InputError
from dynamap.matio import (
    read_matrix,
    read_matrix_bin,
    read_matrix_csv,
    write_matrix,
    write_matrix_csv,
)


def test_vector_becomes_column(tmp_path):
    path = tmp_path / "v.csv"
    write_matrix_csv(path, np.array([1.0, 2.0, 3.0]))
    assert read_matrix_csv(path).shape == (3, 1)


def test_csv_header_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n", encoding="ascii")
    with pytest.raises(InputError):
        read_matrix_csv(path)
    path.write_text("# not numbers\n1.0\n", encoding="ascii")
    with pytest.raises(InputError):
        read_matrix_csv(path)
    path.write_text("# 3 2\n1.0,2.0\n3.0,4.0\n", encoding="ascii")
    with pytest.raises(InputError):
        read_matrix_csv(path)  # header promises three rows


def test_bin_errors(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE!" + b"\x00" * 16)
    with pytest.raises(InputError):
        read_matrix_bin(path)
    path.write_bytes(b"DMAP1" + struct.pack("<QQ", 2, 2) + b"\x00" * 8)
    with pytest.raises(InputError):
        read_matrix_bin(path)  # payload truncated


def test_unknown_format_and_dim_guard(tmp_path):
    with pytest.raises(InputError):
        write_matrix(tmp_path / "x.dat", np.zeros((2, 2)), fmt="json")
    with pytest.raises(InputError):
        write_matrix_csv(tmp_path / "x.csv", np.zeros((2, 2, 2)))


def test_seventeen_digit_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    values = rng.normal(size=(5, 5)) * np.exp(rng.uniform(-30, 30, (5, 5)))
    path = tmp_path / "precise.csv"
    write_matrix_csv(path, values)
    np.testing.assert_array_equal(read_matrix(path), values)
    # a CSV file of an empty matrix holds its header and no data rows
    for fmt in ("csv", "bin"):
        for empty in (np.zeros((0, 3)), np.zeros((3, 0))):
            path = tmp_path / f"empty.{fmt}"
            write_matrix(path, empty, fmt=fmt)
            got = read_matrix(path)
            assert got.shape == empty.shape
            np.testing.assert_array_equal(got, empty)


@pytest.mark.parametrize(
    "content",
    [
        b"# 2 2\n1.0,2.0\n3.0\n",  # ragged row
        b"# 2 2\n1.0,2.0\n3.0,four\n",  # non-numeric cell
        b"# 2 2\n1.0,2.0\n3.0,4.\xe9\n",  # non-ASCII byte
        b"# 2 \xe9\n1.0,2.0\n3.0,4.0\n",  # non-ASCII byte in the header
    ],
)
def test_malformed_csv_body_is_an_input_error(tmp_path, content):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    with pytest.raises(InputError, match="bad.csv"):
        read_matrix(path)


@pytest.mark.parametrize(
    "content",
    [
        b"DMAP1" + struct.pack("<Q", 2),  # header shorter than 21 bytes
        b"DMAP1" + struct.pack("<QQ", 2**62, 2**62),  # rows * cols * 8 overflows
        b"DMAP1" + struct.pack("<QQ", 2**40, 2**20),  # payload larger than the file
        b"DMAP1" + struct.pack("<QQ", 0, 2**64 - 1),  # empty, with a dimension beyond intp
        b"DMAP1" + struct.pack("<QQ", 1, 1) + b"\x00" * 16,  # bytes after the payload
    ],
)
def test_malformed_bin_header_is_an_input_error(tmp_path, content):
    path = tmp_path / "bad.bin"
    path.write_bytes(content)
    with pytest.raises(InputError, match="bad.bin"):
        read_matrix(path)
