"""The experiments behind the CLI, each as two phases that one driver runs.

``simulate_<name>(cfg, threads)`` integrates and returns what its reduction
needs; a blowup of the full system (or of a kernel sample) raises
:class:`NumericalBlowupError`.  For ``ensemble`` and ``mean-trajectory`` that
is the stream statistics of the records (:func:`_record_statistics`): one
stream block of every stream reduces them a record block at a time as the
engine records them, so it holds one record block and the statistics, while
several blocks copy their records into their own streams of one shared
array, which the parent then reduces a record block at a time.  A worker
sends back its times and model runs, never a record; ``stationary``'s
workers write their samples into shared arrays too.  ``reduce_<name>(cfg,
raw)`` returns the output files, each as ``(label, comments, header,
columns)``: label None names the output path itself, any other label is
joined onto its stem.  The comments echo the resolved configuration, then
flags and summary statistics.

:func:`run` is the driver behind every entry of ``RUNNERS``.  It writes
every file, a full-system blowup's too: a metadata-only file of the
configuration and ``blowup_*`` comments, after which the error is raised
again.  Its exit code comes from the comments alone: 3 when a ``blowup_*``
comment flags a component truncated by its blowup, 0 otherwise.
"""

from __future__ import annotations

import math
from functools import partial
from pathlib import Path

import numpy as np

from .benchmark import conditional_y_sample, potential
from .config import beta_label, params_from_config
from .csvio import write_csv
from .geometry import build_cg_map
from .kernel import (
    FIT_WINDOW_EFOLDS,
    approx_kernel,
    conditioning_points,
    default_lag_grid,
    empirical_kernel,
    empirical_kernel_matrix,
    fit_decay_rate,
    kernel_decay_rate,
)
from .models import MEMORY_CORRECTED, MEMORY_FREE, EffectiveModel
from .sde import (
    IntegratorConfig,
    NoiseStream,
    NumericalBlowupError,
    integrate_crn_batch,
    integrate_flow_batch,
    integrate_full_batch,
    map_stream_blocks,
    next_pairs,
    raise_earliest_blowup,
    shared_array,
    stream_blocks,
    stream_statistics,
)

EXIT_OK = 0
EXIT_BLOWUP = 3


def config_comments(cfg):
    """The resolved configuration as sorted (key, value) comment pairs.

    The output path and worker count are deliberately not part of the echo:
    identical configurations must produce byte-identical files wherever they
    are written and however many worker processes execute them.
    """
    return sorted(cfg.items())


def time_to_half(times, values) -> float:
    """First time at which |values| falls to half its initial magnitude,
    linearly interpolated on the recorded grid; inf if never reached."""
    values = np.asarray(values, dtype=float)
    target = abs(values[0]) / 2.0
    below = np.abs(values) <= target
    if not below.any():
        return math.inf
    k = int(np.argmax(below))
    if k == 0:
        return float(times[0])
    va, vb = abs(values[k - 1]), abs(values[k])
    frac = (va - target) / (va - vb) if va != vb else 1.0
    return float(times[k - 1] + frac * (times[k] - times[k - 1]))


def rms_deviation(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.sqrt(np.mean(np.square(a - b))))


def _with_suffix(out_path, label):
    path = Path(out_path)
    return path.with_name(f"{path.stem}_{label}{path.suffix or '.csv'}")


def run(simulate, reduce, cfg, out_path, threads=1) -> int:
    """Run one experiment's phases, write its files under ``out_path`` and
    return the exit code (see the module docstring)."""
    error = None
    try:
        raw = simulate(cfg, threads)
    except NumericalBlowupError as err:
        error = err
        where = {"blowup_step": err.step, "blowup_stream": err.stream_id,
                 "blowup_beta": err.beta}
        flags = [(key, value) for key, value in where.items() if value is not None]
        files = [(None, config_comments(cfg) + flags, [], [])]
    else:
        files = reduce(cfg, raw)
    for label, comments, header, columns in files:
        path = out_path if label is None else _with_suffix(out_path, label)
        write_csv(path, comments, header, columns)
    if error is not None:
        raise error
    flagged = any(key.startswith("blowup_") for _, comments, _, _ in files for key, _ in comments)
    return EXIT_BLOWUP if flagged else EXIT_OK


def simulate_landscape(cfg, threads):
    """Nothing to integrate: the potential is tabulated by the reduction."""
    return None


def reduce_landscape(cfg, raw):
    """Tabulate the potential on a rectangular grid for external contouring."""
    p = params_from_config(cfg)
    xs = np.linspace(cfg["x_min"], cfg["x_max"], cfg["grid_points"])
    ys = np.linspace(cfg["y_min"], cfg["y_max"], cfg["grid_points"])
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    v = potential(p, gx, gy)
    return [(None, config_comments(cfg), ["x", "y", "V"], [gx.ravel(), gy.ravel(), v.ravel()])]


def _estimate(estimator, cfg, x0, threads, *args):
    """``estimator``'s kernel at conditioning value ``x0`` on the configured
    lag grid, from stream 0 on; ``args`` come between the parameters and x0."""
    p = params_from_config(cfg)
    lags = default_lag_grid(p, x0, n_lags=cfg["n_lags"], efolds=cfg["lag_efolds"])
    icfg = IntegratorConfig(dt=cfg["dt"], t_final=lags[-1])
    stream = NoiseStream(cfg["master_seed"], 0)
    return estimator(p, *args, x0, lags, cfg["n_samples"], stream, icfg, threads=threads)


def simulate_kernel(cfg, threads):
    """Empirical memory kernel at one conditioning value."""
    return _estimate(empirical_kernel, cfg, cfg["x0"], threads)


def reduce_kernel(cfg, est):
    """The kernel next to its closed-form approximation, with fitted and
    theoretical decay rates."""
    p = params_from_config(cfg)
    approx = approx_kernel(p, est.lags, est.x0)
    rate = kernel_decay_rate(p, est.x0)
    summary = [
        ("fitted_decay_rate",
         fit_decay_rate(est.lags, est.values, s_max=FIT_WINDOW_EFOLDS / rate)),
        ("theoretical_decay_rate", -rate),
        ("amplitude_s0", est.values[0]),
        ("amplitude_s0_stderr", est.stderr[0]),
        ("amplitude_s0_theory", float(approx[0])),
    ]
    return [(None, config_comments(cfg) + summary, ["s", "empirical", "stderr", "approx"],
             [est.lags, est.values, est.stderr, approx])]


def simulate_kernel_matrix(cfg, threads):
    """Block kernel matrix for the two conditioning cases |cos(omega x0)| = 1
    and cos(omega x0) = 0, by label."""
    cg_map = build_cg_map([[1.0, 0.0]])
    return {label: _estimate(empirical_kernel_matrix, cfg, x0, threads, cg_map)
            for label, x0 in conditioning_points(cfg["omega"]).items()}


def reduce_kernel_matrix(cfg, estimates):
    """One file per conditioning case."""
    files = []
    for label, est in estimates.items():
        m11, m12, m21, m22 = (est.values[:, j, k] for j in (0, 1) for k in (0, 1))
        with np.errstate(divide="ignore"):
            log_abs_m12 = np.log(np.abs(m12))
        summary = [
            ("x0", est.x0),
            ("log_abs_m12_s0", float(log_abs_m12[0])),
            ("log_abs_m12_end", float(log_abs_m12[-1])),
        ]
        files.append((label, config_comments(cfg) + summary,
                      ["s", "m11", "m12", "m21", "m22", "log_abs_m12"],
                      [est.lags, m11, m12, m21, m22, log_abs_m12]))
    return files


def _record_statistics(worker, icfg, components, n, threads):
    """Run ``worker(a, b, sink)`` on the stream blocks of
    :func:`map_stream_blocks`, each block's engine handing ``sink`` its
    records laid out (record,) + ``components`` + (stream,), and return the
    stream statistics of every record (see :func:`stream_statistics`) with
    the blocks' results.  One block of every stream reduces each record
    block as the engine fills it; several blocks copy theirs into their own
    streams of one shared array of every record, which is then reduced a
    record block at a time."""
    stats = np.empty((2, icfg.n_records) + components)
    reduce = partial(stream_statistics, stats)
    if stream_blocks(threads, n) == 1:
        return stats, map_stream_blocks(lambda a, b: worker(a, b, reduce), n, threads=threads)
    records = shared_array((icfg.n_records,) + components + (n,))

    def block(a, b):
        def sink(start, recs):
            records[start:start + len(recs), ..., a:b] = recs

        return worker(a, b, sink)

    results = map_stream_blocks(block, n, threads=threads)
    reduce(0, records)
    return stats, results


def simulate_mean_trajectory(cfg, threads):
    """Relaxation of the mean observable: unthermostatted ensemble of the full
    dynamics (unresolved coordinate drawn from its conditional law) next to
    each requested reduced model integrated as a deterministic flow from the
    same start.  The block that holds row 0 also steps the model flows, as
    scalar recurrences beside its engine call (see
    :func:`integrate_flow_batch`).  A model that blows up is truncated and
    flagged while the others go on; a blowup of the full system raises,
    naming its stream.  Returns the full ensemble's statistics (see
    :func:`stream_statistics`; one component, x) and the package of the
    block of row 0, whose records went to the statistics: the times, None
    and the model runs."""
    p = params_from_config(cfg)
    x0 = cfg["x0"]
    seed = cfg["master_seed"]
    n = cfg["n_samples"]
    icfg = IntegratorConfig(cfg["dt"], cfg["t_final"], cfg["record_stride"])
    scalar_models = [EffectiveModel(kind, p) for kind in cfg["models"]]

    def worker(a, b, sink):
        streams = [NoiseStream(seed, i) for i in range(a, b)]
        y0 = conditional_y_sample(p, x0, streams)
        x0s = np.stack([np.full(b - a, x0), y0], axis=-1)
        models = scalar_models if a == 0 else []
        return integrate_flow_batch(p, models, x0s, x0, icfg, streams, sink)

    stats, blocks = _record_statistics(worker, icfg, (1,), n, threads)
    return (stats, *blocks[0])


def reduce_mean_trajectory(cfg, raw):
    """The full ensemble's mean and stderr, and each model's column and
    time to half, flagging the models that blew up."""
    stats, times, _, runs = raw
    full_mean, full_stderr = stats[:, :, 0]
    header = ["t", "full_mean", "full_stderr"]
    columns = [times, full_mean, full_stderr]
    summary = [("time_to_half_full", time_to_half(times, full_mean))]
    flags = []
    for kind, (values, step) in zip(cfg["models"], runs):
        if step is not None:
            flags.append((f"blowup_{kind}_step", step))
        header.append(kind)
        columns.append(values)
        summary.append((f"time_to_half_{kind}", time_to_half(times[: len(values)], values)))
    return [(None, config_comments(cfg) + flags + summary, header, columns)]


def simulate_ensemble(cfg, threads):
    """Thermostatted relaxation at several temperatures: the full dynamics and
    the two thermostattable reduced models share per-stream Brownian
    increments (common random numbers), and every beta shares them too, so
    each stream block is integrated once for all betas.  Returns the times
    and the statistics of full, approx and nomem at each beta (see
    :func:`stream_statistics`)."""
    x0 = cfg["x0"]
    seed = cfg["master_seed"]
    n = cfg["n_samples"]
    icfg = IntegratorConfig(cfg["dt"], cfg["t_final"], cfg["record_stride"])
    # The beta of p is never read: integrate_crn_batch runs every beta in beta_list.
    p = params_from_config(cfg)
    y0 = p.tau * math.sin(p.omega * x0)
    scalar_models = [EffectiveModel(MEMORY_CORRECTED, p), EffectiveModel(MEMORY_FREE, p)]

    def worker(a, b, sink):
        streams = [NoiseStream(seed, i) for i in range(a, b)]
        return integrate_crn_batch(p, scalar_models, (x0, y0), x0, icfg, streams,
                                   cfg["beta_list"], sink=sink)[0]

    # full, approx and nomem at each beta.
    stats, blocks = _record_statistics(worker, icfg, (3, len(cfg["beta_list"])), n, threads)
    return blocks[0], stats


def reduce_ensemble(cfg, raw):
    """One file per beta, with the stability ratios of its explicit steps:
    dt times the stiffest rate of the full system, lam (1 + tau^2 omega^2)
    at the valley floor, and of the memory-corrected model, whose drift has
    the slope -(mu + 2 tau^2 omega^4 / beta) at a crest.  Euler is stable
    below a ratio of 2."""
    times, stats = raw
    t2w2 = cfg["tau"] * cfg["tau"] * cfg["omega"] * cfg["omega"]
    files = []
    for k, beta in enumerate(cfg["beta_list"]):
        cols = {}
        for c, name in enumerate(("full", "approx", "nomem")):
            cols[f"{name}_mean"], cols[f"{name}_stderr"] = stats[:, :, c, k]

        summary = [
            ("initial_amplitude", abs(cfg["x0"])),
            ("rms_approx_vs_full", rms_deviation(cols["approx_mean"], cols["full_mean"])),
            ("rms_nomem_vs_full", rms_deviation(cols["nomem_mean"], cols["full_mean"])),
            ("time_to_half_full", time_to_half(times, cols["full_mean"])),
            ("time_to_half_approx", time_to_half(times, cols["approx_mean"])),
            ("time_to_half_nomem", time_to_half(times, cols["nomem_mean"])),
            ("stability_ratio_full", cfg["dt"] * (cfg["lambda"] * (1.0 + t2w2))),
            ("stability_ratio_approx",
             cfg["dt"] * (cfg["mu"] + 2.0 * t2w2 * (cfg["omega"] * cfg["omega"]) / beta)),
        ]
        meta = dict(cfg)
        meta["beta"] = beta
        files.append((beta_label(beta), config_comments(meta) + summary,
                      ["t"] + list(cols), [times] + list(cols.values())))
    return files


def simulate_stationary(cfg, threads):
    """Invariant-measure check: ensembles started from exact equilibrium draws
    are integrated forward.  A long coarse-step phase collects
    resolved-coordinate samples (its soft mode is insensitive to the step),
    and a short fine-step phase collects the stiff valley residual, whose
    variance an explicit integrator inflates at coarse steps.  Returns the x
    samples and the residuals, one row per stream."""
    p = params_from_config(cfg)
    seed = cfg["master_seed"]
    n = cfg["n_samples"]
    sd_x = math.sqrt(1.0 / (p.beta * p.mu))
    sd_r = math.sqrt(1.0 / (p.beta * p.lam))

    def equilibrium_start(streams):
        x0s = np.empty((len(streams), 2))
        for i, (zx, zy) in enumerate(next_pairs(streams).T.tolist()):
            x = sd_x * zx
            x0s[i] = (x, p.tau * math.sin(p.omega * x) + sd_r * zy)
        return x0s

    main_cfg = IntegratorConfig(cfg["dt_main"], cfg["t_main"], cfg["stride_main"])
    resid_cfg = IntegratorConfig(cfg["dt_resid"], cfg["t_resid"], cfg["stride_resid"])
    # Stream-major, the order the reduction pools the samples in.
    xs = shared_array((n, main_cfg.n_records))
    residuals = shared_array((n, resid_cfg.n_records))

    def integrate(icfg, ids):
        streams = [NoiseStream(seed, i) for i in ids]
        return integrate_full_batch(p, equilibrium_start(streams), icfg, streams,
                                    thermostat=True)[1]

    def worker(a, b):
        # Both phases of a block in one worker, so a run forks one pool.
        xs[a:b] = integrate(main_cfg, range(a, b))[:, :, 0]
        try:
            rec = integrate(resid_cfg, range(n + a, n + b))
        except NumericalBlowupError as err:
            # Raised below, once every main phase is back: those come
            # first.  In a list, so that the map does not take it for one.
            return [err]
        # y - tau sin(omega x), in place.
        r = residuals[a:b]
        np.sin(np.multiply(p.omega, rec[:, :, 0], r), r)
        np.subtract(rec[:, :, 1], np.multiply(p.tau, r, r), r)
        return []

    raise_earliest_blowup(sum(map_stream_blocks(worker, n, threads=threads), []))
    return xs, residuals


def reduce_stationary(cfg, raw):
    """The pooled x histogram against the Gibbs marginal, with the sample
    variances of x and of the valley residual against their targets."""
    p = params_from_config(cfg)
    sd_x = math.sqrt(1.0 / (p.beta * p.mu))
    x_samples, residuals = (samples.ravel() for samples in raw)

    half = cfg["hist_halfwidth"] * sd_x
    edges = np.linspace(-half, half, cfg["bins"] + 1)
    counts, _ = np.histogram(x_samples, bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    width = edges[1] - edges[0]
    density = counts / (x_samples.size * width)
    # Far out the square overflows to inf, and the density is then exactly 0.
    with np.errstate(over="ignore"):
        ref = np.exp(-0.5 * np.square(centers / sd_x)) / (sd_x * math.sqrt(2.0 * math.pi))

    summary = [
        ("x_mean", float(x_samples.mean())),
        ("x_variance", float(x_samples.var())),
        ("x_variance_target", 1.0 / (p.beta * p.mu)),
        ("x_n_samples", x_samples.size),
        ("y_residual_variance", float(residuals.var())),
        ("y_residual_variance_target", 1.0 / (p.beta * p.lam)),
        ("y_residual_n_samples", residuals.size),
    ]
    return [(None, config_comments(cfg) + summary,
             ["bin_center", "x_density", "gaussian_density"], [centers, density, ref])]


RUNNERS = {
    "landscape": partial(run, simulate_landscape, reduce_landscape),
    "kernel": partial(run, simulate_kernel, reduce_kernel),
    "kernel-matrix": partial(run, simulate_kernel_matrix, reduce_kernel_matrix),
    "mean-trajectory": partial(run, simulate_mean_trajectory, reduce_mean_trajectory),
    "ensemble": partial(run, simulate_ensemble, reduce_ensemble),
    "stationary": partial(run, simulate_stationary, reduce_stationary),
}
