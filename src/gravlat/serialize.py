"""Text serialization helpers.

All floats are written with ``repr`` of the Python float (shortest decimal
that round-trips), so identical runs produce byte-identical files.  Tables
are streamed a fixed number of rows at a time, so a table's text is never
held whole.
"""

from __future__ import annotations

import numpy as np


def fmt(value) -> str:
    """Shortest round-trip representation of a scalar."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (complex, np.complexfloating)):
        z = complex(value)
        return f"{fmt(z.real)}{'+' if z.imag >= 0 else '-'}{fmt(abs(z.imag))}j"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


_CHUNK_ROWS = 4096   # rows formatted and written at a time by write_table


def write_table(path, header: str, columns) -> None:
    """A CSV table: ``header`` (one or more lines), then row r holding
    entry r of every one of the equal-length ``columns`` (LF endings).

    The columns are read once, as numpy arrays (an iterator such as a
    ``zip`` of row tuples is consumed first), and their lengths checked:
    ValueError, before the file is opened, when they differ.  The rows are
    then written ``_CHUNK_ROWS`` at a time.  In a chunk each column goes
    through ``tolist()`` and ``repr`` once: ``repr`` of a Python int is its
    ``str`` and of a Python float its shortest round-trip form, the bytes
    :func:`fmt` writes for either.  The rows are joined without a Python
    step per row, which a per-row ``%r`` template or f-string would cost,
    and only one chunk's strings are alive at a time.
    """
    columns = [np.asarray(column) for column in columns]
    if len({len(column) for column in columns}) > 1:
        raise ValueError("table columns differ in length: "
                         + ", ".join(str(len(column)) for column in columns))
    n_rows = len(columns[0]) if columns else 0
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for a in range(0, n_rows, _CHUNK_ROWS):
            strings = [map(repr, column[a:a + _CHUNK_ROWS].tolist()) for column in columns]
            fh.write("\n".join(map(",".join, zip(*strings))) + "\n")


def write_keyvalue(path, pairs) -> None:
    """Flat ``key=value`` block; pairs is an iterable of (key, value)."""
    with open(path, "w", newline="\n") as fh:
        for key, value in pairs:
            fh.write(f"{key}={fmt(value)}\n")
