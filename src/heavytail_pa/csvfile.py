"""The package's table format, shared by every CSV the CLI reads or writes.

A file is zero or more metadata lines, one header row, then one
comma-separated row per record::

    # key = value
    name_1,name_2,...,name_c
    v_1,v_2,...,v_c

Values are written with str(): integers in decimal and floats as their
shortest round-trip repr, so reading a float column back is bit-exact.
The reader rejects a malformed file (a bad cell, a wrong column count,
no data rows) with a HeavytailError naming the file and, for a bad row,
its line number counted from the top of the file; it never skips a row.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import EmptyInput, HeavytailError

CHUNK_ROWS = 1 << 13  # rows formatted at a time: about 1 MiB of transients


def write_csv(path, header, columns, metadata: dict | None = None) -> None:
    """Write equal-length columns under the given header names.

    The rows are formatted CHUNK_ROWS at a time as one byte table: each
    column's cells NUL-padded to a common width, with a comma or newline
    column after each; dropping the NULs leaves the rows.  Integer cells
    come from their decimal digits in numpy, other cells from str(), so
    the bytes are those of str() on every cell.
    """
    columns = [np.asarray(c) for c in columns]
    rows = min(len(c) for c in columns)
    with open(path, "wb") as fh:
        lines = [f"# {key} = {val}\n" for key, val in (metadata or {}).items()]
        fh.write("".join(lines + [",".join(header) + "\n"]).encode("utf-8"))
        for start in range(0, rows, CHUNK_ROWS):
            cells = [(_int_cells if c.dtype.kind in "iu" else _str_cells)(c[start:start + CHUNK_ROWS])
                     for c in columns]
            comma = np.full((len(cells[0]), 1), ord(","), np.uint8)
            parts = [p for c in cells for p in (c, comma)]
            parts[-1] = np.full_like(comma, ord("\n"))
            table = np.hstack(parts)
            fh.write(table[table != 0].tobytes())


def _int_cells(col: np.ndarray) -> np.ndarray:
    """Integer cells in decimal, as an (n, width) byte table, right-aligned and NUL-padded."""
    mag = col.astype(np.uint64)
    neg = col < 0
    np.negative(mag, out=mag, where=neg)  # |v| as uint64, exact at the int64 minimum too
    width = len(str(int(mag.max())))
    ndigits = np.ones(len(col), np.intp)  # 1 + the number of powers 10, 100, ... at most |v|
    for p in range(1, width):
        ndigits += mag >= np.uint64(10**p)
    out = np.empty((len(col), width + 1), np.uint8)
    for k in range(width, 0, -1):
        mag, digit = np.divmod(mag, np.uint64(10))
        out[:, k] = digit
    out += ord("0")
    first = width + 1 - ndigits  # the column of each cell's leading digit
    out[np.arange(width + 1) < first[:, None]] = 0
    out[neg, first[neg] - 1] = ord("-")
    return out


def _str_cells(col: np.ndarray) -> np.ndarray:
    """Cells written with str(), as an (n, width) byte table, left-aligned and NUL-padded."""
    text = np.array([str(v) for v in col.tolist()], dtype=np.bytes_)
    return text.view(np.uint8).reshape(len(col), text.itemsize)


def read_csv(path, columns: int, dtype=np.float64) -> np.ndarray:
    """The data rows of a file with `columns` columns, as an (n, columns) array."""
    with open(path, "r", encoding="utf-8") as fh:
        line, header_line = fh.readline(), 1
        while line.startswith("#"):
            line, header_line = fh.readline(), header_line + 1
        if len(line.split(",")) != columns:
            raise HeavytailError(f"{path}: header {line.strip()!r} is not {columns} columns")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # empty input
                data = np.loadtxt(fh, delimiter=",", dtype=dtype, comments=None, ndmin=2)
        except ValueError:
            data = None
    if data is None or (data.shape[0] and data.shape[1] != columns):
        raise _bad_row(path, header_line, columns, dtype)
    if data.shape[0] == 0:
        raise EmptyInput(f"{path}: no data rows")
    return data


def _bad_row(path, header_line: int, columns: int, dtype) -> HeavytailError:
    """The error naming the first data line that is not `columns` values of `dtype`."""
    kind = f"{columns} {np.dtype(dtype).name} values"
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if number <= header_line or not line.strip():
                continue
            cells = line.split(",")
            if len(cells) == columns:
                try:
                    np.array(cells, dtype=dtype)
                    continue
                except (ValueError, OverflowError):
                    pass
            return HeavytailError(f"{path}, line {number}: expected {kind}, got {line.strip()!r}")
    return HeavytailError(f"{path}: data rows are not {kind}")
