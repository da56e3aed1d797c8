import csv
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mzcg import csvio
from mzcg.csvio import format_value, read_csv, write_csv

COMMENTS = [("seed", 1), ("dt", 1e-4), ("models", ("memory-free", 2.5)), ("flag", True)]

SPECIAL = [np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 5e-324, -5e-324,
           2.2250738585072009e-308, 1e300, 0.1, 1.0 / 3.0]

floats = st.one_of(st.floats(), st.sampled_from(SPECIAL))
float_columns = arrays(np.float64, st.integers(0, 12), elements=floats)


def reference_write_csv(path, comments, header, columns):
    """The per-cell writer that write_csv replaced: one format_value call per
    cell, None padding, csv.writer for every row."""
    lengths = {len(c) for c in columns}
    n_rows = max(lengths) if lengths else 0
    cols = [list(c) + [None] * (n_rows - len(c)) for c in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for key, value in comments:
            fh.write(f"# {key}={format_value(value)}\r\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(n_rows):
            writer.writerow(
                ["" if col[i] is None else format_value(col[i]) for col in cols]
            )


def written_bytes(writer, columns):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        writer(path, COMMENTS, [f"c{j}" for j in range(len(columns))], columns)
        return path.read_bytes()


@settings(deadline=None)
@given(st.lists(float_columns, max_size=5))
def test_float_columns_match_reference_writer(columns):
    assert written_bytes(write_csv, columns) == written_bytes(reference_write_csv, columns)


@settings(deadline=None)
@given(st.lists(float_columns, max_size=5), st.integers(1, 4))
def test_rows_written_in_blocks_match_reference_writer(columns, block_rows):
    # Blocks that end inside a segment of the ragged columns and on its edge.
    with mock.patch.object(csvio, "BLOCK_ROWS", block_rows):
        assert written_bytes(write_csv, columns) == written_bytes(reference_write_csv, columns)


@settings(deadline=None)
@given(st.lists(float_columns, min_size=1, max_size=5))
def test_float_columns_read_back_bit_for_bit(columns):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_csv(path, COMMENTS, [f"c{j}" for j in range(len(columns))], columns)
        _, header, data = read_csv(path)
    n_rows = max(len(c) for c in columns)
    assert header == [f"c{j}" for j in range(len(columns))]
    assert data.shape == (n_rows, len(columns))
    for j, col in enumerate(columns):
        got = data[: len(col), j]
        assert np.array_equal(np.isnan(got), np.isnan(col))
        finite = ~np.isnan(col)
        assert np.array_equal(got[finite].view(np.uint64), col[finite].view(np.uint64))
        assert np.isnan(data[len(col):, j]).all()


def test_writer_holds_no_more_than_its_count(tmp_path):
    # A body of two blocks and a part, in seven columns, as an ensemble
    # file has: the peak, with the file's buffers, stays within the
    # writer's count of its block of rows.
    rows = 2 * csvio.BLOCK_ROWS + 5
    columns = [np.linspace(j, j + 1.0, rows) for j in range(7)]
    header = [f"c{j}" for j in range(7)]
    tracemalloc.start()
    try:
        write_csv(tmp_path / "t.csv", COMMENTS, header, columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= csvio.block_bytes(len(columns)) + (16 << 10)
