"""Memory-kernel machinery: Monte Carlo estimation by sampling characteristics
of the orthogonal (fluctuation) dynamics, the closed-form exponential
approximation of the kernel, its divergence, and the collapsed (instantaneous)
memory integrals used by the reduced models.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, pi

import numpy as np

from . import benchmark
from .benchmark import BenchmarkParams, bind_orthogonal_drift, valley_coupling
from .geometry import CGMap
from .sde import (
    BLOWUP_LIMIT,
    IntegratorConfig,
    NoiseStream,
    NumericalBlowupError,
    Trajectory,
    map_stream_blocks,
    mean_stderr,
)


@dataclass(frozen=True)
class KernelEstimate:
    """Monte Carlo estimate of the memory kernel at conditioning value ``x0``:
    per-lag values with standard errors, scalars for the scalar kernel and
    N-by-N matrices in the (resolved, unresolved) projection basis of a
    CGMap for the block kernel matrix."""

    x0: float
    lags: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    n_samples: int

    def __post_init__(self):
        _check_lags(self.lags)
        if not (len(self.lags) == len(self.values) == len(self.stderr)):
            raise ValueError("lags, values and stderr must have equal length")
        if self.n_samples < 2:
            raise ValueError("n_samples must be >= 2")


def _check_lags(lags):
    if lags[0] != 0.0:
        raise ValueError("lag grid must start at 0")
    if len(lags) > 1 and not np.all(np.diff(lags) > 0.0):
        raise ValueError("lag grid must be strictly increasing")


def kernel_decay_rate(p: BenchmarkParams, h) -> float:
    """Decay rate lam * (1 + tau^2 omega^2 cos^2(omega h)) of the approximate
    kernel at conditioning value ``h``."""
    return p.lam * valley_coupling(p, h)[2]


def approx_kernel(p: BenchmarkParams, s, h):
    """Closed-form kernel approximation
    lam tau^2 omega^2 cos^2(omega h) * exp(-lam (1 + tau^2 omega^2 cos^2(omega h)) s),
    valid when initial fluctuations of the unresolved mode are small."""
    t2w2, c2, factor, _ = valley_coupling(p, h)
    return p.lam * t2w2 * c2 * np.exp(-p.lam * factor * np.asarray(s, dtype=float))


def approx_kernel_div(p: BenchmarkParams, s, h):
    """d/dh of :func:`approx_kernel` (exact derivative of the closed form)."""
    s = np.asarray(s, dtype=float)
    h = np.asarray(h, dtype=float)
    t2w2, c2, factor, s2 = valley_coupling(p, h)
    return (
        -p.lam
        * t2w2
        * p.omega
        * s2
        * (1.0 - p.lam * t2w2 * c2 * s)
        * np.exp(-p.lam * factor * s)
    )


def memory_integral_closed_form(p: BenchmarkParams, h):
    """Lag integrals of the approximate kernel with the conditioning value
    frozen, as (drift_term, div_term):

        drift_term = tau^2 omega^2 cos^2(omega h) / (1 + tau^2 omega^2 cos^2(omega h)) * mu h
        div_term   = (1/beta) tau^2 omega^3 sin(2 omega h) / (1 + tau^2 omega^2 cos^2(omega h))^2
    """
    h = np.asarray(h, dtype=float)
    t2w2, c2, denom, s2 = valley_coupling(p, h)
    drift_term = t2w2 * c2 / denom * (p.mu * h)
    div_term = (1.0 / p.beta) * t2w2 * p.omega * s2 / np.square(denom)
    return drift_term, div_term


def _rk4_march(p, x, y, span, dt):
    """Advance a batch of orthogonal-dynamics states by ``span`` with classical
    RK4, using equal substeps no longer than ``dt`` (landing exactly).

    The state marches as one stacked (2, n) array.  The four slopes, the
    stage input and the drift's scratch are allocated once per call, with
    the orthogonal drift bound once per slope
    (:func:`~mzcg.benchmark.bind_orthogonal_drift`), and the stage
    arithmetic runs in place with 0-d constants, in the operation order of
    ``x + (h / 6) * (k1 + 2 * (k2 + k3) + k4)`` with stage inputs
    ``x + (h / 2) * k``.  Returns new arrays (x, y).
    """
    n_sub = max(1, ceil(span / dt - 1e-12))
    h = span / n_sub
    z = np.stack((x, y))
    k1, k2, k3, k4, t = (np.empty_like(z) for _ in range(5))
    cos = np.empty_like(z[0])
    slope1 = bind_orthogonal_drift(p, z[0], z[1], k1, cos)
    slope2, slope3, slope4 = (bind_orthogonal_drift(p, t[0], t[1], k, cos) for k in (k2, k3, k4))
    half_h, full_h, sixth_h, two = (np.array(v) for v in (0.5 * h, h, h / 6.0, 2.0))
    add, mul = np.add, np.multiply
    for _ in range(n_sub):
        slope1()
        mul(half_h, k1, t)
        add(z, t, t)
        slope2()
        mul(half_h, k2, t)
        add(z, t, t)
        slope3()
        mul(full_h, k3, t)
        add(z, t, t)
        slope4()
        add(k2, k3, t)
        mul(two, t, t)
        add(k1, t, t)
        add(t, k4, t)
        mul(sixth_h, t, t)
        add(z, t, z)
    return z[0], z[1]


def orthogonal_trajectory(p: BenchmarkParams, x0, y0, cfg: IntegratorConfig) -> Trajectory:
    """Integrate one characteristic curve of the orthogonal dynamics (the full
    nonlinear fluctuation drift, no noise) from (x0, y0) with classical RK4 at
    step ``cfg.dt``."""
    x = np.array([x0], dtype=float)
    y = np.array([y0], dtype=float)
    rec_idx = cfg.record_steps()
    recorded = np.empty((len(rec_idx), 2))
    recorded[0] = (x[0], y[0])
    rec_pos = 1
    for step in range(1, cfg.n_steps + 1):
        x, y = _rk4_march(p, x, y, cfg.dt, cfg.dt)
        if not max(abs(x[0]), abs(y[0])) < BLOWUP_LIMIT:
            raise NumericalBlowupError(
                step,
                trajectory=Trajectory(rec_idx[:rec_pos] * cfg.dt, recorded[:rec_pos]),
            )
        if step == rec_idx[rec_pos]:
            recorded[rec_pos] = (x[0], y[0])
            rec_pos += 1
    return Trajectory(rec_idx * cfg.dt, recorded)


def _sample_orthogonal_drifts(p, x0, lags, n_samples, stream, cfg, threads):
    """Fluctuation-drift vectors along sampled orthogonal characteristics.

    Sample ``i`` starts at (x0, y0_i) with y0_i drawn from the conditional law
    of the unresolved mode on stream ``stream.stream_id + i``, and is marched
    between consecutive lags with RK4 substeps of at most ``cfg.dt``.  Returns
    an array of shape (n_lags, n_samples, 2).
    """
    lags = np.asarray(lags, dtype=float)
    _check_lags(lags)
    if lags[-1] > cfg.t_final * (1.0 + 1e-12):
        raise ValueError(f"largest lag {lags[-1]:g} exceeds horizon {cfg.t_final:g}")
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")

    def worker(a, b):
        subs = [NoiseStream(stream.master_seed, stream.stream_id + i) for i in range(a, b)]
        y = benchmark.conditional_y_sample(p, x0, subs)
        x = np.full(b - a, float(x0))
        out = np.empty((len(lags), b - a, 2))
        prev = 0.0
        for li, s in enumerate(lags):
            if s > prev:
                x, y = _rk4_march(p, x, y, s - prev, cfg.dt)
                prev = s
            ok = np.maximum(np.abs(x), np.abs(y)) < BLOWUP_LIMIT
            if not ok.all():
                raise NumericalBlowupError(li, stream_id=stream.stream_id + a + int(np.argmin(ok)))
            out[li] = benchmark.orthogonal_drift(p, x, y)
        return out

    return np.concatenate(map_stream_blocks(worker, n_samples, threads=threads), axis=1)


def empirical_kernel(
    p: BenchmarkParams, x0, lags, n_samples, stream, cfg, threads=1
) -> KernelEstimate:
    """Estimate the scalar memory kernel at conditioning value ``x0``.

    For each sample the resolved component of the fluctuation drift is
    evaluated along an orthogonal characteristic at every lag; the kernel is
    beta times the sample mean of its product with the lag-zero value.
    """
    lags = np.asarray(lags, dtype=float)
    drifts = _sample_orthogonal_drifts(p, x0, lags, n_samples, stream, cfg, threads)
    a = drifts[:, :, 0]
    values, stderr = mean_stderr(a * a[0], axis=1, factor=p.beta)
    return KernelEstimate(
        x0=float(x0), lags=lags, values=values, stderr=stderr, n_samples=n_samples
    )


def empirical_kernel_matrix(
    p: BenchmarkParams, cg_map: CGMap, x0, lags, n_samples, stream, cfg, threads=1
) -> KernelEstimate:
    """Estimate the block kernel matrix: fluctuation drifts are projected onto
    (inv(sigma) @ phi, psi) and all pairwise lag-s x lag-0 products are
    averaged.  With the same stream and grid, entry (0, 0) reproduces
    :func:`empirical_kernel` exactly."""
    lags = np.asarray(lags, dtype=float)
    drifts = _sample_orthogonal_drifts(p, x0, lags, n_samples, stream, cfg, threads)
    sigma_inv_phi = np.linalg.solve(cg_map.sigma, cg_map.phi)
    proj = np.vstack([sigma_inv_phi, cg_map.psi])  # (N, N)
    g = drifts @ proj.T  # (n_lags, n, N)
    nfull = proj.shape[0]
    values = np.empty((len(lags), nfull, nfull))
    stderr = np.empty_like(values)
    for j in range(nfull):
        for k in range(nfull):
            values[:, j, k], stderr[:, j, k] = mean_stderr(
                g[:, :, j] * g[0, :, k], axis=1, factor=p.beta
            )
    return KernelEstimate(
        x0=float(x0), lags=lags, values=values, stderr=stderr, n_samples=n_samples
    )


def conditioning_points(omega):
    """The two conditioning values of the kernel experiments, by label:
    |cos(omega x0)| = 1 at pi/omega and cos(omega x0) = 0 at pi/(2 omega)."""
    return {"cos1": pi / omega, "cos0": pi / (2.0 * omega)}


def default_lag_grid(p: BenchmarkParams, x0, n_lags=60, efolds=5.0) -> np.ndarray:
    """Lag grid for kernel estimation: zero plus geometrically spaced points
    out to ``efolds`` decay times of the approximate kernel at ``x0``."""
    s_max = efolds / kernel_decay_rate(p, x0)
    return np.concatenate([[0.0], np.geomspace(s_max / 100.0, s_max, n_lags - 1)])


# Values below this fraction of the lag-0 magnitude are left out of the fit.
FIT_FLOOR_RATIO = 1e-3
# The kernel experiment fits the decay over lags up to this many decay times
# of the approximate kernel.
FIT_WINDOW_EFOLDS = 2.0


def fit_decay_rate(lags, values, s_max=None, floor_ratio=FIT_FLOOR_RATIO) -> float:
    """Least-squares slope of log |values| against lag, over lags up to
    ``s_max`` and values above ``floor_ratio`` of the lag-zero magnitude.
    Returns the fitted (negative) rate."""
    lags = np.asarray(lags, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = np.abs(values) > floor_ratio * np.abs(values[0])
    if s_max is not None:
        mask &= lags <= s_max * (1.0 + 1e-12)
    if mask.sum() < 2:
        raise ValueError("fewer than two usable points for the decay fit")
    slope, _ = np.polyfit(lags[mask], np.log(np.abs(values[mask])), 1)
    return float(slope)
