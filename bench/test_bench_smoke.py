"""Smoke test of the benchmark harness at tiny scale.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest bench/test_bench_smoke.py -q

Every workload runs once untraced and once traced at ``--tiny`` scale (a few
seconds each); each must report every metric that BENCHMARK.json names, with
no failed run.
"""

import json
import math
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import layertrace  # noqa: E402


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert detail["failed_ratio"] == 0, detail["failures"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_times_add_up_to_the_root_span_with_pool_threads():
    from concurrent.futures import ThreadPoolExecutor

    def map_blocks(worker, n_items, threads=1):
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda a: worker(a, a + 1), range(n_items)))

    tracer = layertrace.Tracer()
    leaf = tracer.span("leaf", time.sleep)
    blocks = tracer.block_map(map_blocks)

    def worker(a, b):
        leaf(0.02)
        return threading.get_ident()

    root = tracer.span("root", lambda: blocks(worker, 4, threads=2))
    root()
    spans = tracer.sink.spans
    assert spans["sde.block"][0] == 4 and spans["leaf"][0] == 4
    total_self = sum(entry[2] for entry in spans.values())
    assert total_self == pytest.approx(spans["root"][1], rel=1e-9)
    assert spans["leaf"][1] > spans["sde.blocks"][1]  # busy time overlaps
