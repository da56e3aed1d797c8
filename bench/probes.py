"""Layer probes at fixed batch widths, in a fresh interpreter.

Usage: python3 probes.py SCALE   (SCALE is "full" or "tiny")

Each probe times one layer of ``mzcg`` on its own at n = 1, 256 and 600
trajectories (samples for RK4) and reports the median cost per unit of work
over a few repeats:

- ``NoiseStream.pairs``: ns per standard normal, one noise chunk per stream;
- ``integrate_full_batch``, ``integrate_crn_batch`` (full system plus the two
  thermostatted reduced models) and ``integrate_scalar_batch``
  (memory-corrected): us per Euler-Maruyama step of the whole batch;
- RK4 march of the orthogonal dynamics: ns per sample-substep, through
  ``empirical_kernel`` on a two-lag grid (``orthogonal_trajectory`` at n = 1,
  where the estimator needs two samples).

The last line of standard output is a JSON object of metric name to value.
"""

import json
import math
import statistics
import sys
from time import perf_counter

import numpy as np

from mzcg import BenchmarkParams, EffectiveModel, IntegratorConfig, NoiseStream
from mzcg.kernel import empirical_kernel, orthogonal_trajectory
from mzcg.models import MEMORY_CORRECTED, MEMORY_FREE
from mzcg.sde import (
    NOISE_CHUNK,
    integrate_crn_batch,
    integrate_full_batch,
    integrate_scalar_batch,
)

SIZES = (1, 256, 600)
P = BenchmarkParams(mu=2.0, lam=20.0, tau=2.0, omega=10.0, beta=1.0)
DT = 1e-4
X0 = math.pi / (2.0 * P.omega)
Y0 = P.tau * math.sin(P.omega * X0)
SEED = 7


def median_time(fn, min_repeats, min_seconds):
    """Median wall time of ``fn()`` over at least ``min_repeats`` calls and at
    least ``min_seconds`` in total."""
    times = []
    start = perf_counter()
    while len(times) < min_repeats or perf_counter() - start < min_seconds:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def streams(n):
    return [NoiseStream(SEED, i) for i in range(n)]


def main():
    tiny = sys.argv[1] == "tiny"
    steps = 20 if tiny else 200
    rk4_substeps = 20 if tiny else 1000
    repeats, seconds = (1, 0.0) if tiny else (3, 0.05)
    cfg = IntegratorConfig(dt=DT, t_final=steps * DT, record_stride=steps)
    mc = EffectiveModel(MEMORY_CORRECTED, P)
    mf = EffectiveModel(MEMORY_FREE, P)
    out = {}

    for n in SIZES:
        chunk = 64 if tiny else NOISE_CHUNK

        def noise():
            for s in streams(n):
                s.pairs(chunk)

        out[f"probe.noise.ns_per_normal.n{n}"] = (
            median_time(noise, repeats, seconds) / (2 * n * chunk) * 1e9
        )

        xy0 = np.tile([X0, Y0], (n, 1))
        engines = {
            "full": lambda: integrate_full_batch(P, xy0, cfg, streams(n)),
            "crn": lambda: integrate_crn_batch(P, [mc, mf], (X0, Y0), X0, cfg, streams(n)),
            "scalar": lambda: integrate_scalar_batch(mc, P, np.full(n, X0), cfg, streams(n)),
        }
        for name, run in engines.items():
            out[f"probe.{name}.us_per_step.n{n}"] = (
                median_time(run, repeats, seconds) / steps * 1e6
            )

        x0 = math.pi / P.omega
        kdt = 1e-4 / P.lam
        lags = np.array([0.0, 0.5, 1.0]) * rk4_substeps * kdt
        kcfg = IntegratorConfig(dt=kdt, t_final=lags[-1])
        if n == 1:
            def rk4():
                orthogonal_trajectory(P, x0, Y0, kcfg)
        else:
            def rk4():
                empirical_kernel(P, x0, lags, n, NoiseStream(SEED, 0), kcfg)
        out[f"probe.rk4.ns_per_sample_substep.n{n}"] = (
            median_time(rk4, repeats, seconds) / (n * kcfg.n_steps) * 1e9
        )

    print(json.dumps(out))


if __name__ == "__main__":
    main()
