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


def write_csv(path, header: str, rows) -> None:
    """Write rows of scalars under a single header line (LF endings)."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def write_float_csv(path, header: str, table) -> None:
    """Rows of a 2-D float array under a single header line.

    One formatting pass over ``tolist()``, which writes the bytes
    :func:`write_csv` writes for the same rows.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.write("".join([",".join(map(repr, row)) + "\n"
                          for row in np.asarray(table, dtype=float).tolist()]))


def write_state_csv(path, header_lines, indices, vector) -> None:
    """``index,re,im`` rows of the nonzero entries of ``vector`` under
    ``#``-prefixed header lines; ``indices[k]`` is the index written for
    ``vector[k]``.

    One formatting pass over ``tolist()``: ``repr`` of a Python float is
    what :func:`fmt` writes for it, so the bytes equal a per-row ``fmt``.
    """
    vector = np.asarray(vector)
    nz = np.flatnonzero(np.abs(vector) > 0)
    rows = zip(np.asarray(indices)[nz].tolist(), vector.real[nz].tolist(),
               vector.imag[nz].tolist())
    with open(path, "w", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in header_lines))
        fh.write("index,re,im\n")
        fh.write("".join([f"{i},{re!r},{im!r}\n" for i, re, im in rows]))


def write_keyvalue(path, pairs) -> None:
    """Flat ``key=value`` block; pairs is an iterable of (key, value)."""
    with open(path, "w", newline="\n") as fh:
        for key, value in pairs:
            fh.write(f"{key}={fmt(value)}\n")
