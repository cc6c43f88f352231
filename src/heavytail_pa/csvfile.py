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


def write_csv(path, header, columns, metadata: dict | None = None) -> None:
    """Write equal-length columns under the given header names."""
    row = ",".join(["{}"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {key} = {val}\n" for key, val in (metadata or {}).items())
        fh.write(",".join(header) + "\n")
        fh.writelines(map(row.format, *(np.asarray(c).tolist() for c in columns)))


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
