"""Compare the CLI outputs of two source trees on one fixed run set.

    python tools/samebytes.py BASE HEAD

BASE and HEAD are directories that each hold a ``src/mzcg`` package, such as
two checkouts of the repository.  Every run of ``RUNS`` is made under each
tree's ``src/`` (as ``python -m mzcg.cli``, in a fresh directory, with a
relative ``--out``) at each of ``THREADS``, and the script reports every
output file, exit code and stderr line that differs between the trees.  For
an output CSV it names the comment keys and body columns that differ, each
with the largest absolute and relative difference between its numeric
cells, so that a change that moves bits on purpose shows how far; a column
with a standard-error partner in BASE (``X_mean`` and ``X_stderr``, the
kernel's ``empirical`` and ``stderr``) also gets its largest move in units
of BASE's standard error, over the rows where that is not 0.  The
report goes to stdout as Markdown; the exit code is 0 when nothing differs
and 1 otherwise.  The report also gives each run's peak resident set on
both trees, from the run's own rusage (that of its process, or of a worker
process it waited for, if larger); the memory never changes the exit code.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# (name, arguments): small runs that cover every experiment and its blowup
# path, each at the default seed, 1.  mean-trajectory-slow-blowup (dt = 0.12)
# leaves range at step 67 after a slow approach, over which the engine tests
# 27 steps and its growth bound clears the other 40.  ensemble-records (288
# MB of records) and stationary-records (45 MB of samples beside 82 MB of
# records) are large enough that the memory of the records shows in the
# peak resident set, which cannot resolve a difference of 1-2 MiB.
RUNS = [
    ("landscape", ["landscape", "--set", "grid_points=41"]),
    ("kernel", ["kernel", "--set", "n_samples=200", "--set", "n_lags=24"]),
    ("kernel-weak", ["kernel", "--set", "tau=0.2", "--set", "omega=4", "--set", "lag_efolds=0.5",
                     "--set", "n_samples=200"]),
    ("kernel-matrix", ["kernel-matrix", "--set", "n_samples=128", "--set", "n_lags=12"]),
    ("mean-trajectory", ["mean-trajectory", "--set", "dt=0.001", "--set", "t_final=0.5",
                         "--set", "n_samples=300"]),
    ("ensemble-desk", ["ensemble", "--desk-scale", "--set", "t_final=0.25"]),
    ("ensemble", ["ensemble", "--set", "dt=0.001", "--set", "t_final=0.2",
                  "--set", "n_samples=300", "--set", "beta_list=1,10"]),
    ("stationary", ["stationary", "--set", "n_samples=16", "--set", "t_main=0.3",
                    "--set", "t_resid=0.05"]),
    ("ensemble-records", ["ensemble", "--desk-scale", "--set", "t_final=2",
                          "--set", "record_stride=1", "--set", "n_samples=200"]),
    ("stationary-records", ["stationary", "--set", "n_samples=256", "--set", "t_main=3",
                            "--set", "stride_main=1", "--set", "t_resid=0.02",
                            "--set", "stride_resid=1"]),
    ("ensemble-blowup", ["ensemble", "--set", "n_samples=4", "--set", "dt=0.2",
                         "--set", "t_final=20"]),
    ("stationary-blowup", ["stationary", "--set", "dt_main=0.2", "--set", "n_samples=4"]),
    ("mean-trajectory-blowup", ["mean-trajectory", "--set", "n_samples=4", "--set", "dt=0.2",
                                "--set", "t_final=20"]),
    ("mean-trajectory-slow-blowup", ["mean-trajectory", "--set", "n_samples=4",
                                     "--set", "dt=0.12", "--set", "t_final=20"]),
    ("kernel-blowup", ["kernel", "--set", "omega=1e-100", "--set", "n_samples=4"]),
]
THREADS = (1, 2)


def tree_env(tree):
    """The environment that imports mzcg from ``tree``'s ``src/``."""
    return dict(os.environ, PYTHONPATH=str(Path(tree, "src").resolve()))


def check_import(tree):
    """Exit unless ``tree_env(tree)`` imports mzcg from ``tree`` itself, not
    from an installed copy."""
    src = Path(tree, "src").resolve()
    res = subprocess.run([sys.executable, "-c", "import mzcg; print(mzcg.__file__)"],
                         env=tree_env(tree), capture_output=True, text=True)
    if res.returncode != 0 or src not in Path(res.stdout.strip()).resolve().parents:
        sys.exit(f"samebytes: mzcg does not import from {src}: {res.stdout}{res.stderr}")


def run(tree, args, threads, workdir):
    """Run the CLI from ``tree``'s ``src/`` in ``workdir``; return the exit
    code, the stderr lines, each output file's bytes by name and the peak
    resident set in MiB.  The run is reaped with ``os.wait4``, whose rusage
    is this run's alone: ``RUSAGE_CHILDREN`` keeps a maximum over every
    child reaped so far."""
    workdir.mkdir(parents=True)
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "mzcg.cli", *args, "--threads", str(threads),
             "--out", "out.csv"],
            cwd=workdir, env=tree_env(tree), stdout=subprocess.DEVNULL, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode()
    files = {path.name: path.read_bytes() for path in sorted(workdir.iterdir())}
    # Linux gives ru_maxrss in KiB.
    return proc.returncode, stderr.splitlines(), files, usage.ru_maxrss / 1024.0


def split_csv(data):
    """A CSV of ``write_csv``'s form as (comments by key, header, columns)."""
    comments, header, rows = {}, None, []
    for line in data.decode("utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            comments[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    header = header or []
    columns = {name: [row[j] if j < len(row) else "" for row in rows]
               for j, name in enumerate(header)}
    return comments, header, columns


def largest_difference(pairs):
    """The largest absolute and relative difference over the (base, head)
    cell pairs that both read as numbers, as a phrase; empty if none do.  A
    non-finite cell that differs counts as an infinite difference."""
    worst_abs = worst_rel = 0.0
    numeric = False
    for b, h in pairs:
        try:
            b, h = float(b), float(h)
        except ValueError:
            continue
        numeric = True
        if b == h or (math.isnan(b) and math.isnan(h)):
            continue
        if not (math.isfinite(b) and math.isfinite(h)):
            worst_abs = worst_rel = math.inf
            continue
        diff = abs(h - b)
        worst_abs = max(worst_abs, diff)
        worst_rel = max(worst_rel, diff / max(abs(b), abs(h)))
    if not numeric:
        return ""
    return f"largest absolute difference {worst_abs:.3g}, relative {worst_rel:.3g}"


def stderr_partner(name):
    """The name of the column that holds the standard error of ``name``, or
    None."""
    if name == "empirical":
        return "stderr"
    if name.endswith("_mean"):
        return name[:-len("_mean")] + "_stderr"
    return None


def largest_move_in_stderr(cells):
    """The largest |head - base| / stderr over the (base, head, stderr)
    cells that all read as numbers and whose stderr is finite and not 0, as
    a phrase; empty if there are none.  A non-finite cell that differs
    counts as an infinite move."""
    worst = None
    for b, h, se in cells:
        try:
            b, h, se = float(b), float(h), float(se)
        except ValueError:
            continue
        if se == 0.0 or not math.isfinite(se):
            continue
        if b == h or (math.isnan(b) and math.isnan(h)):
            move = 0.0
        elif not (math.isfinite(b) and math.isfinite(h)):
            move = math.inf
        else:
            move = abs(h - b) / abs(se)
        worst = move if worst is None else max(worst, move)
    return "" if worst is None else f"largest move {worst:.3g} base stderr"


def describe(base, head):
    """The differences between two versions of one output CSV, one per line,
    each differing comment or column with the size of its largest move."""
    (bc, bh, bcols), (hc, hh, hcols) = split_csv(base), split_csv(head)
    lines = []
    for key in dict.fromkeys([*bc, *hc]):
        b, h = bc.get(key), hc.get(key)
        if b != h:
            size = largest_difference([(b, h)]) if b is not None and h is not None else ""
            lines.append(f"comment `{key}`" + (f": {size}" if size else ""))
    if bh != hh:
        lines.append(f"header: `{','.join(bh)}` -> `{','.join(hh)}`")
    else:
        for name in bh:
            b, h = bcols[name], hcols[name]
            if b != h:
                moved = sum(x != y for x, y in zip(b, h)) + abs(len(b) - len(h))
                sizes = [largest_difference(zip(b, h))]
                partner = stderr_partner(name)
                if partner in bcols:
                    sizes.append(largest_move_in_stderr(zip(b, h, bcols[partner])))
                lines.append(f"column `{name}`: {moved} of {max(len(b), len(h))} rows"
                             + "".join(f", {size}" for size in sizes if size))
    return lines or ["bytes differ outside comments, header and columns"]


def compare(base, head):
    """Every difference between the trees over the run set, as report lines,
    and the runs' peak memory, as the rows of a Markdown table."""
    found, memory = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in RUNS:
            for threads in THREADS:
                where = f"{name} --threads {threads}"
                b_code, b_err, b_files, b_rss = run(base, args, threads, Path(tmp, "base", where))
                h_code, h_err, h_files, h_rss = run(head, args, threads, Path(tmp, "head", where))
                memory.append(f"| {name} | {threads} | {b_rss:.1f} | {h_rss:.1f} "
                              f"| {h_rss - b_rss:+.1f} |")
                if b_code != h_code:
                    found.append(f"- {where}: exit code {b_code} -> {h_code}")
                if b_err != h_err:
                    found.append(f"- {where}: stderr")
                    found += [f"  - base: `{line}`" for line in b_err if line not in h_err]
                    found += [f"  - head: `{line}`" for line in h_err if line not in b_err]
                for fname in sorted(set(b_files) | set(h_files)):
                    b, h = b_files.get(fname), h_files.get(fname)
                    if b is None or h is None:
                        found.append(f"- {where}: `{fname}` only in {'head' if b is None else 'base'}")
                    elif b != h:
                        found.append(f"- {where}: `{fname}`")
                        found += [f"  - {line}" for line in describe(b, h)]
    return found, memory


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    base, head = argv
    for tree in argv:
        check_import(tree)
    found, memory = compare(base, head)
    print(f"## Same bytes: {len(RUNS)} runs at --threads {', '.join(map(str, THREADS))}\n")
    print("\n".join(found) if found else "No file, exit code or stderr line differs.")
    print("\n### Peak resident set (MiB; informational, never a failure)\n")
    print("| run | --threads | base | head | head - base |")
    print("|---|---|---|---|---|")
    print("\n".join(memory))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
