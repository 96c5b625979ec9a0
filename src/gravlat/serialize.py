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


def read_field_csv(path):
    """Read an ``ix,iy,value`` grid-field file.

    Accepts LF and CRLF line endings.  Returns an array shaped (nx, ny)
    indexed as [ix, iy]; rows must enumerate nodes in row-major order over
    ix (outer) and iy (inner), which is how :func:`write_field_csv` emits
    them.
    """
    entries = []
    with open(path, "r", newline="") as fh:
        header = fh.readline().strip().rstrip("\r")
        if header != "ix,iy,value":
            raise ValueError(f"expected header 'ix,iy,value', got {header!r}")
        for line in fh:
            line = line.strip().rstrip("\r")
            if not line:
                continue
            ix_s, iy_s, v_s = line.split(",")
            entries.append((int(ix_s), int(iy_s), float(v_s)))
    if not entries:
        raise ValueError(f"no data rows in {path}")
    nx = max(e[0] for e in entries) + 1
    ny = max(e[1] for e in entries) + 1
    field = np.empty((nx, ny))
    seen = np.zeros((nx, ny), dtype=bool)
    for ix, iy, v in entries:
        field[ix, iy] = v
        seen[ix, iy] = True
    if not seen.all():
        raise ValueError(f"missing nodes in {path}")
    return field


def write_field_csv(path, field) -> None:
    """Write a (nx, ny) array as ``ix,iy,value`` rows, ix outer."""
    field = np.asarray(field)
    rows = ((ix, iy, field[ix, iy]) for ix in range(field.shape[0]) for iy in range(field.shape[1]))
    write_csv(path, "ix,iy,value", rows)


def write_matrix_csv(path, matrix) -> None:
    """Coordinate-triplet form of a complex matrix: ``row,col,re,im``.

    Dense inputs are filtered to their nonzero entries; scipy sparse
    matrices are written from their stored entries in row-major order.
    """
    if hasattr(matrix, "tocoo"):
        coo = matrix.tocoo()
        order = np.lexsort((coo.col, coo.row))
        rows = ((int(coo.row[k]), int(coo.col[k]),
                 complex(coo.data[k]).real, complex(coo.data[k]).imag)
                for k in order)
    else:
        matrix = np.asarray(matrix)
        rows = ((i, j, complex(matrix[i, j]).real, complex(matrix[i, j]).imag)
                for i in range(matrix.shape[0]) for j in range(matrix.shape[1])
                if matrix[i, j] != 0)
    write_csv(path, "row,col,re,im", rows)


def read_matrix_csv(path, shape=None):
    """Read a ``row,col,re,im`` file into a dense complex array."""
    entries = []
    with open(path, "r", newline="") as fh:
        header = fh.readline().strip().rstrip("\r")
        if header != "row,col,re,im":
            raise ValueError(f"expected header 'row,col,re,im', got {header!r}")
        for line in fh:
            line = line.strip().rstrip("\r")
            if not line:
                continue
            r, c, re, im = line.split(",")
            entries.append((int(r), int(c), float(re) + 1j * float(im)))
    if shape is None:
        n = 1 + max(max(e[0] for e in entries), max(e[1] for e in entries))
        shape = (n, n)
    out = np.zeros(shape, dtype=complex)
    for r, c, v in entries:
        out[r, c] = v
    return out
