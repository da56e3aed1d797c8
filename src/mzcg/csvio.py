"""CSV output with reproducibility guarantees: RFC-4180 bodies preceded by
'#'-prefixed key=value comment lines, floats at 17 significant digits so the
files round-trip float64 exactly and identical runs are byte identical."""

from __future__ import annotations

import csv

import numpy as np


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    if isinstance(value, (int, np.integer)):
        return str(value)
    if isinstance(value, (list, tuple)):
        return ",".join(format_value(v) for v in value)
    return str(value)


def write_csv(path, comments, header, columns):
    """Write comment lines, a header row, then columns as an RFC-4180 body.

    ``comments`` is an iterable of (key, value) pairs; ``columns`` is one
    sequence per header field, padded with None entries where a column ends
    early (written as empty fields).  When every column is a 1-D float64
    array the body is formatted a row at a time, with the bytes the per-cell
    path would write.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for key, value in comments:
            fh.write(f"# {key}={format_value(value)}\r\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        if all(type(c) is np.ndarray and c.ndim == 1 and c.dtype == np.float64
               for c in columns):
            _write_float_rows(fh, columns)
            return
        n_rows = max((len(c) for c in columns), default=0)
        cols = [list(c) + [None] * (n_rows - len(c)) for c in columns]
        for i in range(n_rows):
            writer.writerow(
                ["" if col[i] is None else format_value(col[i]) for col in cols]
            )


def _write_float_rows(fh, columns):
    # "%.17g" formats a float as format_value does, and float text never
    # needs quoting.  Ragged columns split the body at each distinct length;
    # in each segment the columns that have ended are empty fields.
    start = 0
    for stop in sorted({len(c) for c in columns}):
        if stop == start:
            continue
        live = [c[start:stop].tolist() for c in columns if len(c) >= stop]
        row = ",".join("%.17g" if len(c) >= stop else "" for c in columns) + "\r\n"
        fh.writelines(row % values for values in zip(*live))
        start = stop


def read_csv(path):
    """Read a file written by :func:`write_csv`.

    Returns (comments, header, data): the comment pairs as a dict (last one
    wins), the header fields, and a float array of shape (n_rows, n_cols)
    with NaN in empty cells.
    """
    comments = {}
    header = None
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for line in fh:
            stripped = line.rstrip("\r\n")
            if stripped.startswith("#"):
                body = stripped[1:].strip()
                if "=" in body:
                    key, value = body.split("=", 1)
                    comments[key.strip()] = value.strip()
                continue
            for fields in csv.reader([stripped]):
                if header is None:
                    header = fields
                elif fields:
                    rows.append([float(v) if v != "" else np.nan for v in fields])
    data = np.array(rows, dtype=float) if rows else np.empty((0, len(header or [])))
    return comments, header, data
