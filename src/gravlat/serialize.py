"""Text serialization helpers.

All floats are written with ``repr`` of the Python float (shortest decimal
that round-trips), so identical runs produce byte-identical files.
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


def write_table(path, header: str, columns) -> None:
    """A CSV table: ``header`` (one or more lines), then row r holding
    entry r of every one of the equal-length ``columns`` (LF endings).

    Each column goes through ``tolist()`` and ``repr`` once: ``repr`` of a
    Python int is its ``str`` and of a Python float its shortest round-trip
    form, the bytes :func:`fmt` writes for either.  The rows are joined
    without a Python step per row, which a per-row ``%r`` template or
    f-string would cost.  ValueError when the columns differ in length.
    """
    strings = [list(map(repr, np.asarray(column).tolist())) for column in columns]
    text = "\n".join([header, *map(",".join, zip(*strings, strict=True)), ""])
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def write_keyvalue(path, pairs) -> None:
    """Flat ``key=value`` block; pairs is an iterable of (key, value)."""
    with open(path, "w", newline="\n") as fh:
        for key, value in pairs:
            fh.write(f"{key}={fmt(value)}\n")
