"""The package's table format, shared by every CSV the CLI reads or writes.

A file is zero or more metadata lines, one header row, then one
comma-separated row per record::

    # key = value
    name_1,name_2,...,name_c
    v_1,v_2,...,v_c

Values are written with str(): integers in decimal and floats as their
shortest round-trip repr, so reading a float column back is bit-exact.
The writer prints integer cells from a table of 4-digit groups, and the
reader hands numpy's C parser the file's path, which it reads in blocks.
The reader rejects a malformed file (bytes that are not UTF-8, a bad
cell, a wrong column count, no data rows) with a HeavytailError naming
the file and, for a bad line, its number counted from the top of the
file; it never skips a row.
"""

from __future__ import annotations

import functools
import os
import warnings

import numpy as np

from .errors import EmptyInput, HeavytailError

CHUNK_ROWS = 1 << 14  # rows formatted at a time
GROUP = 10_000  # integer cells are printed four decimal digits at a time


def write_csv(path, header, columns, metadata: dict | None = None) -> None:
    """Write equal-length columns under the given header names.

    The rows are formatted CHUNK_ROWS at a time as one byte table: each
    column's cells NUL-padded to a common width, with a comma or newline
    column after each; deleting the NULs leaves the rows.  Integer cells
    are gathered from 4-digit groups (see _int_cells), other cells come
    from str(), so the bytes are those of str() on every cell.  The peak
    (tracemalloc) is a chunk's, whatever the row count: about 0.85 MiB
    for two int32 columns of up to 8 digits, and about 3 MiB with a
    float column, most of it the chunk's str() objects.
    """
    columns = [np.asarray(c) for c in columns]
    rows = min(len(c) for c in columns)
    with open(path, "wb") as fh:
        lines = [f"# {key} = {val}\n" for key, val in (metadata or {}).items()]
        fh.write("".join(lines + [",".join(header) + "\n"]).encode("utf-8"))
        for start in range(0, rows, CHUNK_ROWS):
            cells = [(_int_cells if c.dtype.kind in "iu" else _str_cells)(c[start:start + CHUNK_ROWS])
                     for c in columns]
            comma = np.full((len(cells[0][0]), 1), ord(","), np.uint8)
            table = np.hstack([p for c in cells for p in (*c, comma)])
            table[:, -1] = ord("\n")
            fh.write(table.tobytes().translate(None, b"\0"))


@functools.cache
def _group_words() -> np.ndarray:
    """Two tables of the printed forms of a 4-digit group g, 2 * GROUP 4-byte words each.

    Word g is g as a cell's leading group, right-aligned and NUL-padded;
    word GROUP + g is g below a printed group, zero-padded.  A leading 0
    prints nothing in the first table and "0" in the second, that of a
    cell's units group.
    """
    g = np.arange(GROUP)[:, None]
    place = np.array([1000, 100, 10, 1])
    digits = (g // place % 10 + ord("0")).astype(np.uint8)
    words = np.vstack([digits * (g >= place), digits] * 2)
    words[2 * GROUP, -1] = ord("0")
    return words.view(np.uint32).reshape(2, 2 * GROUP)


def _int_cells(col: np.ndarray) -> list[np.ndarray]:
    """Integer cells in decimal, as (n, width) byte tables that join to one NUL-padded cell each.

    A column of '-' or NUL if some cell is negative, then one 4-byte
    column per group of four digits, the leading group first: one divmod
    by GROUP and one gather from _group_words print four digits.
    """
    lo, hi = int(col.min()), int(col.max())
    top = max(hi, -lo)
    mag = col.astype(np.uint32 if top < 1 << 32 else np.uint64)
    sign = []
    if lo < 0:
        neg = col < 0
        np.negative(mag, out=mag, where=neg)  # |v|, exact at the int64 minimum too
        sign.append(neg.view(np.uint8)[:, None] * ord("-"))
    upper, units = _group_words()
    groups = []
    for _ in range((len(str(top)) - 1) // 4):  # each group below the leading one, units first
        mag, low = np.divmod(mag, GROUP)
        np.add(low, GROUP, out=low, where=mag != 0)  # a higher group prints: pad with zeros
        groups.append((upper if groups else units).take(low))
    groups.append((upper if groups else units).take(mag))
    return sign + [g.view(np.uint8).reshape(-1, 4) for g in reversed(groups)]


def _str_cells(col: np.ndarray) -> list[np.ndarray]:
    """Cells written with str(), as one (n, width) byte table, left-aligned and NUL-padded."""
    text = np.array([str(v) for v in col.tolist()], dtype=np.bytes_)
    return [text.view(np.uint8).reshape(len(col), text.itemsize)]


def read_csv(path, columns: int, dtype=np.float64) -> np.ndarray:
    """The data rows of a file with `columns` columns, as an (n, columns) array.

    The metadata and header are scanned in Python, and np.loadtxt is
    handed the path, not an open handle, so it reads the file in blocks
    rather than a Python line at a time.  The peak (tracemalloc) is the
    result plus a few MiB: 18.4 MiB for 1e6 rows read as int64, a
    15.3 MiB result.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:  # _bad_row names non-UTF-8
        line, header_line = fh.readline(), 1
        while line.startswith("#"):
            line, header_line = fh.readline(), header_line + 1
    if len(line.split(",")) != columns:
        raise HeavytailError(f"{path}: header {line.strip()!r} is not {columns} columns")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty input
            # an absolute str path: numpy reads it in blocks, and never takes it for a URL
            data = np.loadtxt(os.path.abspath(os.fsdecode(path)), delimiter=",", dtype=dtype,
                              comments=None, ndmin=2, skiprows=header_line, encoding="utf-8")
    except ValueError:  # a bad cell or row, or bytes that are not UTF-8
        data = None
    if data is None or (data.shape[0] and data.shape[1] != columns):
        raise _bad_row(path, header_line, columns, dtype)
    if data.shape[0] == 0:
        raise EmptyInput(f"{path}: no data rows")
    return data


def _bad_row(path, header_line: int, columns: int, dtype) -> HeavytailError:
    """The error naming the first line that is not UTF-8 text or, past the
    header, not empty and not `columns` values of `dtype`."""
    kind = f"{columns} {np.dtype(dtype).name} values"
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for number, line in enumerate(fh, 1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return HeavytailError(f"{path}, line {number}: not UTF-8 text")
            if number <= header_line or line == "\n":  # np.loadtxt skips empty lines only
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
