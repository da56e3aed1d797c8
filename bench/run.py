"""Benchmark of the mzcg experiment runners, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run of an experiment happens in a fresh interpreter (``child.py``) that
imports ``mzcg`` from ``src/``.  The harness repeats runs of one workload with
program seed N until S seconds are used, checks every run's output, and prints
as its last line a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it is a JSON object with details: sample
counts, the runner-time tail, the reference deviation, the reasons for any
failed run, and the machine.

``--trace 0`` reports the end-to-end metrics of untraced runs.  ``--trace 1``
runs the fixed-size layer probes (``probes.py``), then alternates untraced and
traced runs, and reports the per-layer metrics; ``trace.overhead_s`` is the
traced minus the untraced median runner time.  ``--tiny`` shrinks every
workload and probe to a seconds-long smoke scale.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

# Each workload stresses a different mix of layers; README.md gives the
# reasons.  Run lengths are shortened from the CLI defaults so that one
# measured run holds several repeats.  ``reference`` is the (width,
# iterations) of the reference loop that each run is divided by: the
# workload's batch width, at about 0.15 s per loop, split over the
# workload's threads.
WORKLOADS = {
    "ensemble-crn": {
        "experiment": "ensemble",
        "desk_scale": True,
        "set": ["t_final=0.25"],
        "tiny": ["t_final=0.02", "n_samples=20"],
        "threads": 1,
        "exit_code": 0,
        "ref_limit": 6.0,
        "reference": [200, 20000],
    },
    "mean-relax": {
        "experiment": "mean-trajectory",
        "desk_scale": True,
        "set": ["t_final=2"],
        "tiny": ["t_final=0.1", "n_samples=20"],
        "threads": 1,
        "exit_code": 3,
        "ref_limit": 1.0,
        "reference": [200, 20000],
    },
    "kernel-mc": {
        "experiment": "kernel",
        "desk_scale": False,
        "set": ["tau=0.2", "omega=4", "lag_efolds=0.5"],
        "tiny": ["lag_efolds=0.1", "n_samples=50"],
        "threads": 1,
        "exit_code": 0,
        "ref_limit": 5.0,
        "reference": [2000, 5000],
    },
    "stationary-2t": {
        "experiment": "stationary",
        "desk_scale": False,
        "set": ["t_main=1", "t_resid=0.025"],
        "tiny": ["t_main=0.05", "t_resid=0.002", "n_samples=300"],
        "threads": 2,
        "exit_code": 0,
        "ref_limit": 5.0,
        "reference": [256, 20000],
    },
}

HEADERS = {
    "ensemble": ["t", "full_mean", "full_stderr", "approx_mean", "approx_stderr",
                 "nomem_mean", "nomem_stderr"],
    "mean-trajectory": ["t", "full_mean", "full_stderr"],  # then one column per model
    "kernel": ["s", "empirical", "stderr", "approx"],
    "stationary": ["bin_center", "x_density", "gaussian_density"],
}

END_TO_END = {
    "setup_s": "s",
    "run_ref": "ref",
    "steps_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "config.resolve_s": "s",
    "sde.noise.calls": "count",
    "sde.noise.normals": "count",
    "sde.noise.busy_s": "s",
    "sde.noise.self_s": "s",
    "sde.noise.ns_per_normal": "ns",
    "sde.noise.share": "ratio",
    "sde.noise.streams_opened": "count",
    "sde.integrate.calls": "count",
    "sde.integrate.traj_steps": "count",
    "sde.integrate.busy_s": "s",
    "sde.integrate.self_s": "s",
    "sde.integrate.us_per_step": "us",
    "sde.integrate.useful_ratio": "ratio",
    "sde.scalar.busy_s": "s",
    "sde.scalar.self_s": "s",
    "sde.blowup.count": "count",
    "sde.blocks.count": "count",
    "sde.blocks.busy_s": "s",
    "sde.blocks.self_s": "s",
    "sde.blocks.parallel_eff": "ratio",
    "models.drift.calls": "count",
    "models.drift.busy_s": "s",
    "models.drift.self_s": "s",
    "models.diffusion.calls": "count",
    "models.diffusion.busy_s": "s",
    "models.diffusion.self_s": "s",
    "kernel.estimate.busy_s": "s",
    "kernel.estimate.self_s": "s",
    "kernel.rk4.substeps": "count",
    "kernel.rk4.busy_s": "s",
    "kernel.rk4.self_s": "s",
    "kernel.rk4.ns_per_sample_substep": "ns",
    "kernel.rk4.share": "ratio",
    "benchmark.cond_y.calls": "count",
    "benchmark.cond_y.busy_s": "s",
    "benchmark.cond_y.self_s": "s",
    "experiments.self_s": "s",
    "csvio.write.busy_s": "s",
    "csvio.write.self_s": "s",
    "csvio.write.rows": "count",
    "csvio.write.bytes": "B",
    "csvio.write.us_per_cell": "us",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_s": "s",
    "check.ref_dev": "tol",
    **{
        f"probe.{name}.n{n}": unit
        for name, unit in (
            ("noise.ns_per_normal", "ns"),
            ("full.us_per_step", "us"),
            ("crn.us_per_step", "us"),
            ("scalar.us_per_step", "us"),
            ("rk4.ns_per_sample_substep", "ns"),
        )
        for n in (1, 256, 600)
    },
}

# Spans whose self times partition the traced runner time.
SELF_SPANS = (
    "experiments", "sde.blocks", "sde.block", "sde.integrate", "sde.scalar",
    "sde.noise", "models.drift", "models.diffusion", "kernel.estimate",
    "kernel.rk4", "benchmark.cond_y", "csvio.write",
)

MIN_RUNS = 3  # untraced runs with --trace 0; pairs with --trace 1
RUN_TIMEOUT = 150.0  # seconds for one child process
BUDGET_CAP = 150.0  # never start a run that would end later than this


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_python(script, args, timeout):
    """Run ``script`` in a fresh interpreter; return (last stdout line parsed
    as JSON or None, error text)."""
    proc = subprocess.Popen(
        [sys.executable, str(script), *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"timed out after {timeout:g} s"
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}: {err.strip()[-500:]}"
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, f"unreadable output: {out.strip()[-200:]}"


# ---------------------------------------------------------------- output check


def read_table(path):
    """(comments, header, rows) of a CSV written by mzcg; empty cells are NaN.
    Kept apart from ``mzcg.csvio.read_csv`` so the check does not rely on the
    code it checks."""
    comments, header, rows = {}, None, []
    with open(path, newline="", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\r\n")
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                comments[key] = value
            elif header is None:
                header = next(csv.reader([line]))
            elif line:
                rows.append([float(v) if v else math.nan for v in next(csv.reader([line]))])
    return comments, header or [], rows


def n_steps(t_final, dt):
    return max(1, int(round(t_final / dt)))


def n_records(t_final, dt, stride):
    steps = n_steps(t_final, dt)
    return steps // stride + 1 + (1 if steps % stride else 0)


def output_files(cfg, out):
    if cfg["experiment"] == "ensemble":
        return [out.with_name(f"{out.stem}_beta{b:g}{out.suffix}") for b in cfg["beta_list"]]
    return [out]


def expected_shape(cfg):
    exp = cfg["experiment"]
    header = list(HEADERS[exp])
    if exp == "mean-trajectory":
        header += list(cfg["models"])
    if exp in ("ensemble", "mean-trajectory"):
        rows = n_records(cfg["t_final"], cfg["dt"], cfg["record_stride"])
    elif exp == "kernel":
        rows = cfg["n_lags"]
    else:
        rows = cfg["bins"]
    return header, rows


def decay_reference(comments, times):
    """Exact mean of the Euler-discretised memory-free model, x0 (1 - mu dt)^k,
    at recorded times ``times``; returns (reference, k)."""
    dt, x0, mu = (float(comments[k]) for k in ("dt", "x0", "mu"))
    k = [int(round(t / dt)) for t in times]
    return [x0 * (1.0 - mu * dt) ** j for j in k], k


def reference_deviation(cfg, tables):
    """The headline statistic's deviation from its closed-form reference, in
    the reference's tolerance units."""
    exp = cfg["experiment"]
    comments, header, rows = tables[0]
    if exp == "ensemble":
        # nomem_mean against the exact Euler mean, in nomem_stderr units.
        worst = 0.0
        for comments, header, rows in tables:
            mean_col, se_col = header.index("nomem_mean"), header.index("nomem_stderr")
            ref, k = decay_reference(comments, [r[0] for r in rows])
            for row, r, j in zip(rows, ref, k):
                if j > 0:
                    worst = max(worst, abs(row[mean_col] - r) / row[se_col])
        return worst
    if exp == "mean-trajectory":
        # Deterministic flow: units of the worst-case rounding k * eps * |x0|.
        col = header.index("memory-free")
        ref, k = decay_reference(comments, [r[0] for r in rows])
        scale = sys.float_info.epsilon * abs(float(comments["x0"]))
        return max(abs(row[col] - r) / (max(j, 1) * scale) for row, r, j in zip(rows, ref, k))
    if exp == "kernel":
        # M(0) = lam tau^2 omega^2 cos^2(omega x0) exactly; stderr units.
        lam, tau, omega, x0 = (float(comments[k]) for k in ("lambda", "tau", "omega", "x0"))
        ref = lam * tau**2 * omega**2 * math.cos(omega * x0) ** 2
        return abs(float(comments["amplitude_s0"]) - ref) / float(comments["amplitude_s0_stderr"])
    # stationary: x variance against 1/(beta mu).  The unit sigma^2 sqrt(2/n)
    # counts each of the n independent equilibrium trajectories once, which
    # bounds the standard error of the pooled time average from above.
    target = 1.0 / (float(comments["beta"]) * float(comments["mu"]))
    unit = target * math.sqrt(2.0 / int(comments["n_samples"]))
    return abs(float(comments["x_variance"]) - target) / unit


def work_count(cfg, tables):
    """Work of one run, from the configuration (and for the kernel, the lag
    grid it wrote): trajectory-steps for the SDE experiments, sample x RK4
    substeps for the kernel."""
    exp = cfg["experiment"]
    if exp == "ensemble":
        return len(cfg["beta_list"]) * cfg["n_samples"] * 3 * n_steps(cfg["t_final"], cfg["dt"])
    if exp == "mean-trajectory":
        return (cfg["n_samples"] + len(cfg["models"])) * n_steps(cfg["t_final"], cfg["dt"])
    if exp == "stationary":
        return cfg["n_samples"] * (
            n_steps(cfg["t_main"], cfg["dt_main"]) + n_steps(cfg["t_resid"], cfg["dt_resid"])
        )
    lags = [row[0] for row in tables[0][2]]
    substeps = sum(
        max(1, math.ceil((b - a) / cfg["dt"] - 1e-12)) for a, b in zip(lags, lags[1:]) if b > a
    )
    return cfg["n_samples"] * substeps


def check_run(workload, record, out, reference_digests):
    """Check one run's output; return (problems, digests, tables)."""
    spec = WORKLOADS[workload]
    cfg = record["config"]
    problems = []
    if Path(record["mzcg_file"]).resolve().parent != (SRC / "mzcg").resolve():
        problems.append(f"mzcg imported from {record['mzcg_file']}, not from src/")
    if record["code"] != spec["exit_code"] or record["escaped_blowup"]:
        problems.append(f"exit code {record['code']}, expected {spec['exit_code']}")
    paths = output_files(cfg, out)
    missing = [p.name for p in paths if not p.is_file()]
    if missing:
        return problems + [f"missing output {', '.join(missing)}"], None, None
    digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]
    if reference_digests is not None and digests != reference_digests:
        problems.append("output differs from the first run with the same config and seed")
    tables = [read_table(p) for p in paths]
    header, rows = expected_shape(cfg)
    for path, (comments, got_header, got_rows) in zip(paths, tables):
        if got_header != header:
            problems.append(f"{path.name}: header {got_header}, expected {header}")
        if len(got_rows) != rows:
            problems.append(f"{path.name}: {len(got_rows)} rows, expected {rows}")
    if problems:
        return problems, digests, None
    if spec["exit_code"] == 3 and "blowup_naive-memory_step" not in tables[0][0]:
        problems.append("exit code 3 without a blowup_naive-memory_step flag")
    return problems, digests, tables


# ---------------------------------------------------------------- measurement


class Session:
    """Runs of one workload and seed, with the checks of every run."""

    def __init__(self, workload, seed, tiny, scratch):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.overrides = self.spec["set"] + (self.spec["tiny"] if tiny else [])
        self.scratch = scratch
        self.records = {False: [], True: []}  # traced -> records of finished runs
        self.attempted = 0
        self.failures = []
        self.digests = None
        self.ref_dev = None
        self.work = None

    def run(self, traced):
        index = self.attempted
        self.attempted += 1
        out_dir = self.scratch / f"run{index}"
        out_dir.mkdir()
        out = out_dir / "out.csv"
        spec = {
            "experiment": self.spec["experiment"],
            "desk_scale": self.spec["desk_scale"],
            "set": self.overrides,
            "seed": self.seed,
            "threads": self.spec["threads"],
            "reference": self.spec["reference"],
            "out": str(out),
            "trace": traced,
            "spawned": time.time(),
        }
        record, error = run_python(BENCH_DIR / "child.py", [json.dumps(spec)], RUN_TIMEOUT)
        if record is None:
            self.failures.append(f"run {index}: {error}")
        else:
            problems, digests, tables = check_run(self.workload, record, out, self.digests)
            if self.digests is None:
                self.digests = digests
            if tables is not None:
                dev = reference_deviation(record["config"], tables)
                if not dev <= self.spec["ref_limit"]:
                    problems.append(
                        f"reference deviation {dev:.3g} exceeds {self.spec['ref_limit']:g}"
                    )
                self.ref_dev = dev
                self.work = work_count(record["config"], tables)
            if problems:
                self.failures.append(f"run {index}: {'; '.join(problems)}")
            self.records[traced].append(record)
        shutil.rmtree(out_dir)

    def measure(self, start, seconds, pattern):
        """Repeat ``pattern`` (a tuple of traced flags) until ``seconds`` after
        ``start`` are used, at least MIN_RUNS times and never past BUDGET_CAP."""
        rounds = []
        while True:
            t0 = time.perf_counter()
            for traced in pattern:
                self.run(traced)
            rounds.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            ahead = elapsed + statistics.median(rounds)
            if ahead > BUDGET_CAP or (len(rounds) >= MIN_RUNS and ahead > seconds):
                return


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def tail(values):
    """The highest percentile of ``values`` with at least ten samples above
    it, as (value, percentile)."""
    n = len(values)
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def end_to_end_metrics(session):
    """Medians over the untraced runs.

    ``run_ref`` is the runner wall time divided by the time of the reference
    loop that the same child timed just before and after the runner, and
    ``steps_per_ref`` is the work per reference-loop time.  Other tenants of
    a shared machine change its speed by up to 2x for tens of seconds: over
    ten 25-second runs of mean-relax on a 2-vCPU VM, the fastest runner time
    spread 30% between quartiles, while the ratio spread 6%.  Raw runner
    times are in the detail line."""
    runs = session.records[False]
    run_ref = statistics.median(r["run_s"] / r["ref_s"] for r in runs)
    return {
        "setup_s": median_of(runs, "setup_s"),
        "run_ref": run_ref,
        "steps_per_ref": session.work / run_ref,
        "peak_rss_mb": median_of(runs, "peak_rss_mb"),
    }


def layer_metrics(record):
    """Per-layer metrics of one traced run."""
    spans = record["trace"]["spans"]
    counters = record["trace"]["counters"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def busy(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_time(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def count(name):
        return counters.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    run_s = record["run_s"]
    metrics = {
        "config.resolve_s": record["resolve_s"],
        "sde.noise.calls": calls("sde.noise"),
        "sde.noise.normals": count("sde.noise.normals"),
        "sde.noise.ns_per_normal": ratio(busy("sde.noise") * 1e9, count("sde.noise.normals")),
        "sde.noise.share": self_time("sde.noise") / run_s,
        "sde.noise.streams_opened": count("sde.noise.streams_opened"),
        "sde.integrate.calls": calls("sde.integrate"),
        "sde.integrate.traj_steps": count("sde.integrate.traj_steps"),
        "sde.integrate.us_per_step": ratio(
            busy("sde.integrate") * 1e6, count("sde.integrate.steps")
        ),
        "sde.integrate.useful_ratio": ratio(
            count("sde.integrate.traj_steps"), count("sde.integrate.traj_steps_requested")
        ),
        "sde.blowup.count": count("sde.blowup.count"),
        "sde.blocks.count": calls("sde.block"),
        "sde.blocks.busy_s": busy("sde.block"),
        "sde.blocks.self_s": self_time("sde.blocks") + self_time("sde.block"),
        "sde.blocks.parallel_eff": ratio(count("sde.blocks.cpu_s"), count("sde.blocks.capacity_s")),
        "models.drift.calls": calls("models.drift"),
        "models.diffusion.calls": calls("models.diffusion"),
        "kernel.rk4.substeps": count("kernel.rk4.substeps"),
        "kernel.rk4.ns_per_sample_substep": ratio(
            busy("kernel.rk4") * 1e9, count("kernel.rk4.sample_substeps")
        ),
        "kernel.rk4.share": self_time("kernel.rk4") / run_s,
        "benchmark.cond_y.calls": calls("benchmark.cond_y"),
        "experiments.self_s": self_time("experiments"),
        "csvio.write.rows": count("csvio.write.rows"),
        "csvio.write.bytes": count("csvio.write.bytes"),
        "csvio.write.us_per_cell": ratio(busy("csvio.write") * 1e6, count("csvio.write.cells")),
        "trace.run_s": run_s,
        "trace.self_sum_s": sum(self_time(name) for name in SELF_SPANS),
    }
    for name in ("sde.noise", "sde.integrate", "sde.scalar", "models.drift",
                 "models.diffusion", "kernel.estimate", "kernel.rk4",
                 "benchmark.cond_y", "csvio.write"):
        metrics[f"{name}.busy_s"] = busy(name)
        metrics[f"{name}.self_s"] = self_time(name)
    return metrics


def per_layer_metrics(session, probes):
    traced = [layer_metrics(r) for r in session.records[True]]
    metrics = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
    untraced = median_of(session.records[False], "run_s")
    metrics["trace.untraced_run_s"] = untraced
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - untraced
    metrics["check.ref_dev"] = session.ref_dev
    metrics.update(probes)
    return metrics


def machine_info():
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": platform.processor() or None,
        "python": platform.python_version(),
        "git_commit": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy

    info["numpy"] = numpy.__version__
    info["scipy"] = scipy.__version__
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        from numpy.core import _multiarray_umath as umath
    info["simd_baseline"] = list(umath.__cpu_baseline__)
    info["simd_dispatch"] = list(umath.__cpu_dispatch__)
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        info["git_commit"] = ref
    return info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long smoke scale (not for measurement)")
    args = parser.parse_args(argv)

    if not (SRC / "mzcg" / "__init__.py").is_file():
        print(f"error: no mzcg sources under {SRC}", file=sys.stderr)
        return 2

    # Compile once so that no measured run pays for writing bytecode.
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "mzcg")], env=child_env()
    )
    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        session = Session(args.workload, args.seed, args.tiny, scratch)
        probes = {}
        if args.trace:
            probes, error = run_python(
                BENCH_DIR / "probes.py", ["tiny" if args.tiny else "full"], RUN_TIMEOUT
            )
            session.attempted += 1
            if probes is None:
                session.failures.append(f"probes: {error}")
                probes = {}
            session.measure(start, args.seconds, (False, True))
        else:
            session.measure(start, args.seconds, (False,))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    failed = len(session.failures)
    runs = session.records[False]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "overrides": session.overrides,
        "threads": session.spec["threads"],
        "samples": {"untraced": len(runs), "traced": len(session.records[True])},
        "run_s_median": statistics.median(r["run_s"] for r in runs) if runs else None,
        "run_s_samples": [r["run_s"] for r in runs],
        "ref_s_samples": [r["ref_s"] for r in runs],
        "setup_s_samples": [r["setup_s"] for r in runs],
        "failed_ratio": failed / session.attempted,
        "ref_dev": session.ref_dev,
        "work": session.work,
        "failures": session.failures,
        "machine": machine_info(),
    }
    if len(runs) >= 20:  # below 20 the tail would lie under the median
        value, pct = tail([r["run_s"] for r in runs])
        detail["run_s.tail"] = {"value": value, "percentile": pct, "samples": len(runs)}
    if not runs or session.work is None or (
        args.trace and not (session.records[True] and probes)
    ):
        print(json.dumps({"detail": detail}))
        print("error: no run produced checkable output", file=sys.stderr)
        return 1

    if args.trace:
        values = per_layer_metrics(session, probes)
        units = PER_LAYER
    else:
        values = end_to_end_metrics(session)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
