"""The report of ``tools/samebytes.py`` on handmade output files."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "samebytes", Path(__file__).resolve().parents[1] / "tools" / "samebytes.py")
samebytes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(samebytes)


def test_describe_names_each_move_with_its_size_and_stderr_units():
    base = (b"# beta=1\n# rate=2\n"
            b"t,full_mean,full_stderr,approx_mean,n\n"
            b"0,1,0.5,4,3\n1,2,0,4,4\n2,8,2,4,5\n")
    head = (b"# beta=1\n# rate=2.5\n# added=7\n"
            b"t,full_mean,full_stderr,approx_mean,n\n"
            b"0,1.25,0.5,4,3\n1,3,0,4,5\n2,8,2,4,5\n")
    assert samebytes.describe(base, head) == [
        "comment `rate`: largest absolute difference 0.5, relative 0.2",
        "comment `added`",
        # The row with a stderr of 0 moves by 1 but counts in no stderr unit.
        "column `full_mean`: 2 of 3 rows, largest absolute difference 1, relative 0.333, "
        "largest move 0.5 base stderr",
        "column `n`: 1 of 3 rows, largest absolute difference 1, relative 0.2",
    ]


def test_describe_takes_the_kernels_stderr_as_the_partner_of_empirical():
    base = b"s,empirical,stderr,approx\n0,10,4,9\n1,5,2,4\n"
    head = b"s,empirical,stderr,approx\n0,10,4,9\n1,5.5,2.5,4\n"
    assert samebytes.describe(base, head) == [
        "column `empirical`: 1 of 2 rows, largest absolute difference 0.5, relative 0.0909, "
        "largest move 0.25 base stderr",
        "column `stderr`: 1 of 2 rows, largest absolute difference 0.5, relative 0.2",
    ]


def test_line_endings_differ_outside_what_describe_reads():
    data = b"s,empirical,stderr\n0,1,1\n"
    assert samebytes.describe(data, data.replace(b"\n", b"\r\n")) == [
        "bytes differ outside comments, header and columns"]
