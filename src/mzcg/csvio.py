"""CSV output with reproducibility guarantees: RFC-4180 bodies of float
columns preceded by '#'-prefixed key=value comment lines, floats at 17
significant digits so the files round-trip float64 exactly and identical runs
are byte identical."""

from __future__ import annotations

import csv

import numpy as np

# Rows that write_csv turns into Python floats at once: about 5 MB at the
# 7 columns of an ensemble file, so a file of any length is written in
# memory of that size.
BLOCK_ROWS = 1 << 14


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
    """Write comment lines, a header row, then float columns as an RFC-4180
    body.

    ``comments`` is an iterable of (key, value) pairs, written with
    :func:`format_value`; ``columns`` holds one sequence of floats per header
    field, each converted to float64.  A column that ends early leaves empty
    fields below it.  Each float is written as ``format_value`` writes it,
    "%.17g", which never needs quoting, a row at a time, from BLOCK_ROWS rows
    of Python floats at a time.
    """
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for key, value in comments:
            fh.write(f"# {key}={format_value(value)}\r\n")
        csv.writer(fh).writerow(header)
        # Ragged columns split the body at each distinct length; in each
        # segment the columns that have ended are empty fields.
        start = 0
        for stop in sorted({len(c) for c in columns}):
            if stop == start:
                continue
            live = [c for c in columns if len(c) >= stop]
            row = ",".join("%.17g" if len(c) >= stop else "" for c in columns) + "\r\n"
            for a in range(start, stop, BLOCK_ROWS):
                # A block's floats go before the next block's are made.
                b = min(a + BLOCK_ROWS, stop)
                fh.writelines(row % values for values in zip(*[c[a:b].tolist() for c in live]))
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
