"""The experiment runners behind the CLI: each takes a resolved configuration,
writes one or more CSV files with the configuration echoed as comments and
summary statistics appended, and returns a process exit code (0 on success,
3 when a numerical blowup truncated part of the output)."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .benchmark import conditional_y_sample, potential
from .config import params_from_config
from .csvio import write_csv
from .geometry import build_cg_map
from .kernel import (
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
    mean_stderr,
    raise_earliest_blowup,
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


def run_landscape(cfg, out_path, threads=1) -> int:
    """Tabulate the potential on a rectangular grid for external contouring."""
    p = params_from_config(cfg)
    xs = np.linspace(cfg["x_min"], cfg["x_max"], cfg["grid_points"])
    ys = np.linspace(cfg["y_min"], cfg["y_max"], cfg["grid_points"])
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    v = potential(p, gx, gy)
    write_csv(
        out_path,
        config_comments(cfg),
        ["x", "y", "V"],
        [gx.ravel(), gy.ravel(), v.ravel()],
    )
    return EXIT_OK


def run_kernel(cfg, out_path, threads=1) -> int:
    """Empirical memory kernel at one conditioning value next to its
    closed-form approximation, with fitted and theoretical decay rates."""
    p = params_from_config(cfg)
    x0 = cfg["x0"]
    lags = default_lag_grid(p, x0, n_lags=cfg["n_lags"], efolds=cfg["lag_efolds"])
    icfg = IntegratorConfig(dt=cfg["dt"], t_final=lags[-1])
    stream = NoiseStream(cfg["master_seed"], 0)
    est = empirical_kernel(p, x0, lags, cfg["n_samples"], stream, icfg, threads=threads)
    approx = approx_kernel(p, lags, x0)
    rate = kernel_decay_rate(p, x0)
    fitted = fit_decay_rate(lags, est.values, s_max=2.0 / rate)
    summary = [
        ("fitted_decay_rate", fitted),
        ("theoretical_decay_rate", -rate),
        ("amplitude_s0", est.values[0]),
        ("amplitude_s0_stderr", est.stderr[0]),
        ("amplitude_s0_theory", float(approx[0])),
    ]
    write_csv(
        out_path,
        config_comments(cfg) + summary,
        ["s", "empirical", "stderr", "approx"],
        [lags, est.values, est.stderr, approx],
    )
    return EXIT_OK


def run_kernel_matrix(cfg, out_path, threads=1) -> int:
    """Block kernel matrix for the two conditioning cases |cos(omega x0)| = 1
    and cos(omega x0) = 0; one file per case."""
    p = params_from_config(cfg)
    cg_map = build_cg_map([[1.0, 0.0]])
    for label, x0 in conditioning_points(p.omega).items():
        lags = default_lag_grid(p, x0, n_lags=cfg["n_lags"], efolds=cfg["lag_efolds"])
        icfg = IntegratorConfig(dt=cfg["dt"], t_final=lags[-1])
        stream = NoiseStream(cfg["master_seed"], 0)
        est = empirical_kernel_matrix(
            p, cg_map, x0, lags, cfg["n_samples"], stream, icfg, threads=threads
        )
        m11 = est.values[:, 0, 0]
        m12 = est.values[:, 0, 1]
        m21 = est.values[:, 1, 0]
        m22 = est.values[:, 1, 1]
        with np.errstate(divide="ignore"):
            log_abs_m12 = np.log(np.abs(m12))
        summary = [
            ("x0", x0),
            ("log_abs_m12_s0", float(log_abs_m12[0])),
            ("log_abs_m12_end", float(log_abs_m12[-1])),
        ]
        write_csv(
            _with_suffix(out_path, label),
            config_comments(cfg) + summary,
            ["s", "m11", "m12", "m21", "m22", "log_abs_m12"],
            [lags, m11, m12, m21, m22, log_abs_m12],
        )
    return EXIT_OK


def run_mean_trajectory(cfg, out_path, threads=1) -> int:
    """Relaxation of the mean observable: unthermostatted ensemble of the full
    dynamics (unresolved coordinate drawn from its conditional law) next to
    each requested reduced model integrated as a deterministic flow from the
    same start.  The block that holds row 0 also steps the model flows, as
    scalar recurrences beside its engine call (see
    :func:`integrate_flow_batch`).  A model that blows up is truncated and
    flagged while the others go on; a blowup of the full system raises,
    naming its stream."""
    p = params_from_config(cfg)
    x0 = cfg["x0"]
    seed = cfg["master_seed"]
    icfg = IntegratorConfig(cfg["dt"], cfg["t_final"], cfg["record_stride"])
    scalar_models = [EffectiveModel(kind, p) for kind in cfg["models"]]

    def worker(a, b):
        streams = [NoiseStream(seed, i) for i in range(a, b)]
        y0 = np.array([conditional_y_sample(p, x0, s) for s in streams])
        x0s = np.stack([np.full(b - a, x0), y0], axis=-1)
        _, full_x, runs = integrate_flow_batch(
            p, scalar_models if a == 0 else [], x0s, x0, icfg, streams
        )
        return full_x, runs

    blocks = map_stream_blocks(worker, cfg["n_samples"], threads=threads)
    full = np.concatenate([x for x, _ in blocks], axis=0)
    times = icfg.record_steps() * icfg.dt
    full_mean, full_stderr = mean_stderr(full)

    header = ["t", "full_mean", "full_stderr"]
    columns = [times, full_mean, full_stderr]
    summary = [("time_to_half_full", time_to_half(times, full_mean))]
    flags = []
    for kind, (values, step) in zip(cfg["models"], blocks[0][1]):
        if step is not None:
            flags.append((f"blowup_{kind}_step", step))
        header.append(kind)
        columns.append(values)
        summary.append((f"time_to_half_{kind}", time_to_half(times[: len(values)], values)))

    write_csv(out_path, config_comments(cfg) + flags + summary, header, columns)
    return EXIT_BLOWUP if flags else EXIT_OK


def run_ensemble(cfg, out_path, threads=1) -> int:
    """Thermostatted relaxation at several temperatures: the full dynamics and
    the two thermostattable reduced models share per-stream Brownian
    increments (common random numbers), and every beta shares them too, so
    each stream block is integrated once for all betas.  One file per beta."""
    x0 = cfg["x0"]
    seed = cfg["master_seed"]
    icfg = IntegratorConfig(cfg["dt"], cfg["t_final"], cfg["record_stride"])
    betas = cfg["beta_list"]
    # The beta of p is never read: integrate_crn_batch runs every beta in betas.
    p = params_from_config(cfg)
    y0 = p.tau * math.sin(p.omega * x0)
    scalar_models = [EffectiveModel(MEMORY_CORRECTED, p), EffectiveModel(MEMORY_FREE, p)]

    def worker(a, b):
        streams = [NoiseStream(seed, i) for i in range(a, b)]
        _, full_x, model_recs = integrate_crn_batch(
            p, scalar_models, (x0, y0), x0, icfg, streams, betas
        )
        return full_x, model_recs[0], model_recs[1]

    # Each block gives (beta, stream, time) arrays of full, approx and nomem.
    # Streams are joined one beta and column at a time, so only one joined
    # copy is held on top of the blocks.
    blocks = map_stream_blocks(worker, cfg["n_samples"], threads=threads)
    times = icfg.record_steps() * icfg.dt

    for k, beta in enumerate(betas):
        cols = {}
        for name, parts in zip(("full", "approx", "nomem"), zip(*blocks)):
            data = parts[0][k] if len(parts) == 1 else np.concatenate([b[k] for b in parts])
            cols[f"{name}_mean"], cols[f"{name}_stderr"] = mean_stderr(data)

        summary = [
            ("initial_amplitude", abs(x0)),
            ("rms_approx_vs_full", rms_deviation(cols["approx_mean"], cols["full_mean"])),
            ("rms_nomem_vs_full", rms_deviation(cols["nomem_mean"], cols["full_mean"])),
            ("time_to_half_full", time_to_half(times, cols["full_mean"])),
            ("time_to_half_approx", time_to_half(times, cols["approx_mean"])),
            ("time_to_half_nomem", time_to_half(times, cols["nomem_mean"])),
        ]
        meta = dict(cfg)
        meta["beta"] = beta
        header = ["t"] + list(cols)
        write_csv(
            _with_suffix(out_path, f"beta{beta:g}"),
            config_comments(meta) + summary,
            header,
            [times] + list(cols.values()),
        )
    return EXIT_OK


def run_stationary(cfg, out_path, threads=1) -> int:
    """Invariant-measure check: ensembles started from exact equilibrium draws
    are integrated forward and pooled.  A long coarse-step phase collects
    resolved-coordinate statistics (its soft mode is insensitive to the step),
    and a short fine-step phase collects the stiff valley residual, whose
    variance an explicit integrator inflates at coarse steps."""
    p = params_from_config(cfg)
    seed = cfg["master_seed"]
    n = cfg["n_samples"]
    sd_x = math.sqrt(1.0 / (p.beta * p.mu))
    sd_r = math.sqrt(1.0 / (p.beta * p.lam))

    def equilibrium_start(streams):
        x0s = np.empty((len(streams), 2))
        for i, s in enumerate(streams):
            zx, zy = s.pairs(1)[0]
            x = sd_x * zx
            x0s[i] = (x, p.tau * math.sin(p.omega * x) + sd_r * zy)
        return x0s

    main_cfg = IntegratorConfig(cfg["dt_main"], cfg["t_main"], cfg["stride_main"])
    resid_cfg = IntegratorConfig(cfg["dt_resid"], cfg["t_resid"], cfg["stride_resid"])

    def integrate(icfg, ids):
        streams = [NoiseStream(seed, i) for i in ids]
        _, rec = integrate_full_batch(p, equilibrium_start(streams), icfg, streams,
                                      thermostat=True)
        return rec

    def worker(a, b):
        # Both phases of a block in one worker, so a run forks one pool.
        x = integrate(main_cfg, range(a, b))[:, :, 0]
        try:
            rec = integrate(resid_cfg, range(n + a, n + b))
        except NumericalBlowupError as err:
            # Raised below, once every main phase is back: those come first.
            return x, err
        return x, rec[:, :, 1] - p.tau * np.sin(p.omega * rec[:, :, 0])

    blocks = map_stream_blocks(worker, n, threads=threads)
    raise_earliest_blowup(r for _, r in blocks)
    x_samples = np.concatenate([x for x, _ in blocks], axis=0).ravel()
    residuals = np.concatenate([r for _, r in blocks], axis=0).ravel()

    half = cfg["hist_halfwidth"] * sd_x
    edges = np.linspace(-half, half, cfg["bins"] + 1)
    counts, _ = np.histogram(x_samples, bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    width = edges[1] - edges[0]
    density = counts / (x_samples.size * width)
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
    write_csv(
        out_path,
        config_comments(cfg) + summary,
        ["bin_center", "x_density", "gaussian_density"],
        [centers, density, ref],
    )
    return EXIT_OK


RUNNERS = {
    "landscape": run_landscape,
    "kernel": run_kernel,
    "kernel-matrix": run_kernel_matrix,
    "mean-trajectory": run_mean_trajectory,
    "ensemble": run_ensemble,
    "stationary": run_stationary,
}
