"""One measured run of an experiment runner, in a fresh interpreter.

Usage: python3 child.py SPEC_JSON

SPEC_JSON holds the experiment, its overrides, the seed, the thread count,
the reference loop's (width, iterations), the output path, the parent's wall-clock time just before it started this
process (``spawned``) and whether to trace.  The run mirrors the ``mzcg`` CLI:
resolve the configuration, call the experiment runner, and treat a numerical
blowup escaping the runner as exit code 3.  The last line of standard output
is a JSON object with the timings, the runner's exit code, the resolved
configuration, the peak resident memory of this process and, when traced, the
aggregated layer statistics.

The run also times a fixed reference loop just before and just after the
runner.  Other tenants of a shared machine change its speed from second to
second; the runner time divided by the reference time cancels most of that.
"""

import json
import resource
import sys
import threading
import time
from time import perf_counter

import numpy as np


def reference_loop(width, iterations, threads):
    """Wall time of a fixed loop of numpy work on arrays of ``width`` with
    per-call Python overhead, the same kind of work as the experiments' step
    loops at that batch width, split over ``threads`` threads as the
    experiment splits its stream blocks."""
    x = np.linspace(0.0, 1.0, width)

    def loop():
        for _ in range(iterations // threads):
            np.cos(x * 3.0) * x + x

    workers = [threading.Thread(target=loop) for _ in range(threads - 1)]
    t0 = perf_counter()
    for worker in workers:
        worker.start()
    loop()
    for worker in workers:
        worker.join()
    return perf_counter() - t0


def main():
    spec = json.loads(sys.argv[1])
    import mzcg
    from mzcg import config, experiments
    from mzcg.sde import NumericalBlowupError

    tracer = None
    if spec["trace"]:
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)

    t0 = perf_counter()
    cfg = config.resolve(
        spec["experiment"],
        set_pairs=spec["set"],
        seed=spec["seed"],
        desk_scale=spec["desk_scale"],
    )
    resolve_s = perf_counter() - t0
    runner = experiments.RUNNERS[spec["experiment"]]
    if tracer is not None:
        runner = tracer.span("experiments", runner)

    setup_s = time.time() - spec["spawned"]
    reference = (*spec["reference"], max(1, spec["threads"]))
    ref_before = reference_loop(*reference)
    t0 = perf_counter()
    try:
        code = runner(cfg, spec["out"], threads=max(1, spec["threads"]))
        escaped_blowup = False
    except NumericalBlowupError:
        code = experiments.EXIT_BLOWUP
        escaped_blowup = True
    run_s = perf_counter() - t0
    ref_after = reference_loop(*reference)

    record = {
        "setup_s": setup_s,
        "resolve_s": resolve_s,
        "run_s": run_s,
        "ref_s": 0.5 * (ref_before + ref_after),
        "code": code,
        "escaped_blowup": escaped_blowup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "config": cfg,
        "mzcg_file": mzcg.__file__,
    }
    if tracer is not None:
        record["trace"] = tracer.sink.to_json()
    print(json.dumps(record))


if __name__ == "__main__":
    main()
