"""Experiment configuration: built-in defaults, optional desk-scale overlay,
flat key=value config files, and command-line overrides, resolved into one
fully concrete mapping that is echoed verbatim into every CSV header.

Precedence, lowest to highest: built-in defaults, desk-scale overlay,
config file, --set pairs, dedicated flags (--seed).

``KEYS`` is the one config table: per experiment, each key it takes appears
once as a :class:`Key` holding the parser applied to file and --set text, the
default (None when ``_finalize`` derives the value from other keys) and the
domain every value must lie in (None for any finite value).  The benchmark
parameters shared by all experiments are declared once, in ``_PARAMS``.
Rules that involve several keys, or one experiment's use of a key, are
explicit code in ``_check_rules``.  Once derived values are filled in, the
per-key checks run again, the scales the runners divide by must be finite and
positive, the constants they step or tabulate with must be finite, every
integration window must pass ``IntegratorConfig``'s rule, the scalar kernel
must not vanish in floating point, and the arrays the runner fills must fit
in physical memory.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from typing import Callable, NamedTuple

import numpy as np

from .benchmark import BenchmarkParams
from .csvio import block_bytes
from .kernel import FIT_FLOOR_RATIO, FIT_WINDOW_EFOLDS, conditioning_points, kernel_decay_rate
from .models import MEMORY_CORRECTED, MEMORY_FREE, MODEL_KINDS
from .sde import NORMAL_BOUND, IntegratorConfig, march_floats, sink_floats

EXPERIMENTS = (
    "landscape",
    "kernel",
    "kernel-matrix",
    "mean-trajectory",
    "ensemble",
    "stationary",
)


class ConfigError(Exception):
    """Invalid experiment configuration (unknown key, bad value, bad file)."""


# Domains: a test every value of a key must pass, and its wording.
POSITIVE = (lambda v: v > 0.0, "strictly positive")
NONNEGATIVE = (lambda v: v >= 0.0, "nonnegative")
AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
AT_LEAST_2 = (lambda v: v >= 2, ">= 2")


class Key(NamedTuple):
    """One config key: its parser, its default and its domain."""

    parse: Callable
    default: object
    domain: tuple | None = None


def _float_list(text):
    return tuple(float(v) for v in str(text).split(","))


def _str_list(text):
    return tuple(v.strip() for v in str(text).split(",") if v.strip())


_PARAMS = {
    "mu": Key(float, 2.0, POSITIVE),
    "lambda": Key(float, 20.0, POSITIVE),
    "tau": Key(float, 2.0, NONNEGATIVE),
    "omega": Key(float, 10.0, NONNEGATIVE),
}

KEYS = {
    "landscape": {
        **_PARAMS,
        "x_min": Key(float, -3.0),
        "x_max": Key(float, 3.0),
        "y_min": Key(float, -3.0),
        "y_max": Key(float, 3.0),
        "grid_points": Key(int, 301, AT_LEAST_1),
    },
    "kernel": {
        **_PARAMS,
        "beta": Key(float, 1.0, POSITIVE),
        "master_seed": Key(int, 1),
        "x0": Key(float, None),
        "n_samples": Key(int, 2000, AT_LEAST_1),
        "n_lags": Key(int, 60, AT_LEAST_2),
        "lag_efolds": Key(float, 5.0, POSITIVE),
        "dt": Key(float, None, POSITIVE),
    },
    "kernel-matrix": {
        **_PARAMS,
        "beta": Key(float, 1.0, POSITIVE),
        "master_seed": Key(int, 1),
        "n_samples": Key(int, 2000, AT_LEAST_1),
        "n_lags": Key(int, 60, AT_LEAST_2),
        "lag_efolds": Key(float, 10.0, POSITIVE),
        "dt": Key(float, None, POSITIVE),
    },
    "mean-trajectory": {
        **_PARAMS,
        "beta": Key(float, 1.0, POSITIVE),
        "master_seed": Key(int, 1),
        "x0": Key(float, 2.0),
        "n_samples": Key(int, 500, AT_LEAST_2),
        "dt": Key(float, 1e-5, POSITIVE),
        "t_final": Key(float, 80.0, POSITIVE),
        "record_stride": Key(int, None, AT_LEAST_1),
        "models": Key(_str_list, MODEL_KINDS),
    },
    "ensemble": {
        **_PARAMS,
        "beta_list": Key(_float_list, (1.0, 10.0, 100.0)),
        "master_seed": Key(int, 1),
        "x0": Key(float, None),
        "n_samples": Key(int, 500, AT_LEAST_2),
        "dt": Key(float, 1e-5, POSITIVE),
        "t_final": Key(float, 320.0, POSITIVE),
        "record_stride": Key(int, None, AT_LEAST_1),
    },
    "stationary": {
        **_PARAMS,
        "beta": Key(float, 1.0, POSITIVE),
        "master_seed": Key(int, 1),
        "n_samples": Key(int, 512, AT_LEAST_1),
        "t_main": Key(float, 60.0, POSITIVE),
        "dt_main": Key(float, 1.5e-4, POSITIVE),
        "stride_main": Key(int, 50, AT_LEAST_1),
        "t_resid": Key(float, 1.0, POSITIVE),
        "dt_resid": Key(float, 1e-5, POSITIVE),
        "stride_resid": Key(int, 20, AT_LEAST_1),
        "bins": Key(int, 101, AT_LEAST_1),
        "hist_halfwidth": Key(float, 5.0, POSITIVE),
    },
}

# Bits of the valley scale tau that the Gibbs spread of the kernel's samples
# must resolve.  At the defaults this refuses beta above about 2.4e23.  The
# fitted decay rate there (20 samples, seed 1; theory 8020) is 8019.8 at
# beta = 1e22 (12 bits), 7979 at 1e24 (9 bits), 3936 at 1e26 (6 bits) and 20,
# the rate of the valley alone, at 1e28.
KERNEL_SPREAD_BITS = 10

# Cheaper defaults behind --desk-scale for the two long experiments.
DESK_OVERRIDES = {
    "mean-trajectory": {"dt": 1e-4, "t_final": 80.0, "n_samples": 200},
    "ensemble": {"dt": 1e-4, "t_final": 32.0, "n_samples": 200},
}


def parse_config_file(path):
    """Read flat key=value pairs (one per line, # comments) from ``path``."""
    pairs = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, value = line.split("=", 1)
                pairs.append((key.strip(), value.strip()))
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    return pairs


def params_from_config(cfg) -> BenchmarkParams:
    return BenchmarkParams(
        mu=cfg["mu"],
        lam=cfg["lambda"],
        tau=cfg["tau"],
        omega=cfg["omega"],
        beta=cfg.get("beta", 1.0),
    )


def _apply(cfg, keys, pairs, origin):
    for key, value in pairs:
        if key not in keys:
            raise ConfigError(
                f"{origin}: unknown key {key!r}; allowed: {', '.join(sorted(keys))}"
            )
        try:
            cfg[key] = keys[key].parse(value)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"{origin}: bad value for {key!r}: {err}") from err


def _check_keys(keys, cfg):
    """Every value finite and in its key's domain; None values are skipped
    (_finalize derives them)."""
    for key, value in cfg.items():
        values = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise ConfigError(f"{key} must be finite")
    for key, spec in keys.items():
        if spec.domain is not None and cfg[key] is not None:
            holds, text = spec.domain
            if not holds(cfg[key]):
                raise ConfigError(f"{key} must be {text}")


def _check_rules(experiment, cfg):
    """The rules that involve several keys, or one experiment's use of a key."""
    # Conditioning points default to pi/omega or pi/(2 omega), the kernel
    # fit needs a kernel that does not vanish identically (tau omega = 0),
    # and the kernel sampler marches y / tau.
    if experiment in ("kernel", "kernel-matrix") and not cfg["tau"] > 0.0:
        raise ConfigError(f"{experiment} needs tau > 0")
    if (experiment in ("kernel", "kernel-matrix")
            or (experiment == "ensemble" and cfg["x0"] is None)) and not cfg["omega"] > 0.0:
        raise ConfigError(f"{experiment} needs omega > 0")
    if experiment in ("kernel", "kernel-matrix") and cfg["n_samples"] < 2:
        raise ConfigError("kernel estimation needs n_samples >= 2")
    if "models" in cfg:
        if not cfg["models"]:
            raise ConfigError("models must not be empty")
        for kind in cfg["models"]:
            if kind not in MODEL_KINDS:
                raise ConfigError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
        # Each model names a CSV column and a summary comment.
        _check_distinct("models", cfg["models"], str)
    if "beta_list" in cfg:
        if not cfg["beta_list"]:
            raise ConfigError("beta_list must not be empty")
        if any(b <= 0.0 for b in cfg["beta_list"]):
            raise ConfigError("beta_list entries must be strictly positive")
        # Each beta names its own output file.
        _check_distinct("beta_list", cfg["beta_list"], beta_label)


def beta_label(beta):
    """The label of an ensemble output file at inverse temperature ``beta``."""
    return f"beta{beta:g}"


def _check_distinct(key, values, label):
    """Refuse two entries of ``key`` whose labels coincide."""
    seen = {}
    for v in values:
        if label(v) in seen:
            raise ConfigError(
                f"{key} entries {seen[label(v)]!r} and {v!r} both name {label(v)!r}")
        seen[label(v)] = v


def _reciprocal(v):
    return 1.0 / v if v else math.inf


def _check_derived(experiment, cfg):
    """Check what the runner derives: each scale it divides by is finite and
    positive, each constant it steps or tabulates with is finite (with the
    valley's phase at the widest ``stationary`` start draw), each first
    positive kernel lag squares to a normal float, each integration window
    passes IntegratorConfig's rule (1 to 2**53 steps), the scalar kernel
    passes :func:`_check_kernel_resolution`, and its first positive lag lies
    in the window of its decay fit, FIT_WINDOW_EFOLDS decay times."""
    scales, finite, lags, windows = {}, {}, {}, []
    if experiment == "landscape":
        x_edge = max(abs(cfg["x_min"]), abs(cfg["x_max"]))
        y_edge = max(abs(cfg["y_min"]), abs(cfg["y_max"]))
        gap = cfg["tau"] + y_edge
        finite["omega x at the grid's edge"] = cfg["omega"] * x_edge
        # No grid point's V = mu x^2 / 2 + lambda (tau sin(omega x) - y)^2 / 2
        # exceeds this, evaluated in the potential's order.
        finite["the potential's bound on the grid"] = (
            0.5 * cfg["mu"] * (x_edge * x_edge) + 0.5 * cfg["lambda"] * (gap * gap))
    else:
        # The constants of the drifts, as BenchmarkParams forms them.
        finite["tau^2 omega^2"] = cfg["tau"] * cfg["tau"] * cfg["omega"] * cfg["omega"]
        finite["lambda tau omega"] = cfg["lambda"] * cfg["tau"] * cfg["omega"]
    if "x0" in cfg:
        # The valley's phase at the start.
        finite["omega x0"] = cfg["omega"] * cfg["x0"]
    if experiment == "ensemble":
        scales.update((f"1/beta at beta={b:g}", 1.0 / b) for b in cfg["beta_list"])
    elif "beta" in cfg:
        # The Gibbs variance of the valley residual y - tau sin(omega x).
        scales["1/(beta lambda)"] = _reciprocal(cfg["beta"] * cfg["lambda"])
    if experiment in ("kernel", "kernel-matrix"):
        # The sampler marches v = y / tau from |v| <= 1 + sd NORMAL_BOUND / tau,
        # sd the Gibbs spread, and RK4 sums six slopes tanh(z) - v.
        spread = math.sqrt(scales["1/(beta lambda)"]) * NORMAL_BOUND / cfg["tau"]
        finite["six times the kernel samples' widest slope of y / tau"] = 6.0 * (2.0 + spread)
    if experiment == "stationary":
        var_x = _reciprocal(cfg["beta"] * cfg["mu"])
        scales["1/(beta mu)"] = var_x
        try:
            width = 2.0 * cfg["hist_halfwidth"] * math.sqrt(var_x) / cfg["bins"]
        except OverflowError:  # bins beyond the floats: the width rounds to 0
            width = 0.0
        scales["histogram bin width"] = width
        if math.isfinite(var_x):
            # The valley's phase omega x at the widest equilibrium start draw,
            # sd_x times a normal of at most NORMAL_BOUND in magnitude.
            finite["omega times the widest start draw"] = (
                cfg["omega"] * (math.sqrt(var_x) * NORMAL_BOUND))
    if experiment in ("kernel", "kernel-matrix"):
        points = ([cfg["x0"]] if experiment == "kernel"
                  else conditioning_points(cfg["omega"]).values())
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")  # the runner gives any warning once
            p = params_from_config(cfg)
            for x0 in points:
                rate = float(kernel_decay_rate(p, x0))
                scales[f"kernel decay rate at x0={x0:g}"] = rate
                # default_lag_grid's lags run from s_max / 100 to s_max, with s_max =
                # lag_efolds decay times; np.polyfit fails once their squares underflow.
                s_max = cfg["lag_efolds"] / rate
                lags[f"first positive lag at x0={x0:g}"] = s_max / 100.0
                # Two lags are 0 and s_max / 100: the grid then ends there.
                horizon = s_max if cfg["n_lags"] > 2 else s_max / 100.0
                windows.append((f"lag horizon at x0={x0:g}", horizon, "dt"))
                # The first positive lag, and the window of kernel's decay fit.
                fit = (s_max / 100.0, FIT_WINDOW_EFOLDS / rate)
    else:
        windows = [(t, cfg[t], dt) for t, dt in
                   (("t_final", "dt"), ("t_main", "dt_main"), ("t_resid", "dt_resid"))
                   if t in cfg]
    for name, value in finite.items():
        if not math.isfinite(value):
            raise ConfigError(f"{name} is {value:g}; it must be finite")
    for name, value in scales.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"{name} is {value:g}; it must be finite and positive")
    if experiment == "kernel":
        _check_kernel_resolution(cfg)
    least_lag = math.sqrt(sys.float_info.min)
    for name, value in lags.items():
        if not value >= least_lag:
            raise ConfigError(f"{name} is {value:g}; it must be at least {least_lag:g}")
    for name, horizon, dt in windows:
        try:
            IntegratorConfig(cfg[dt], horizon)
        except ValueError as err:
            raise ConfigError(f"{name} = {horizon:g} with {dt} = {cfg[dt]:g}: {err}") from err
    # kernel fits the decay over lag 0 and the lags in its window, with
    # fit_decay_rate's allowance; kernel-matrix fits nothing.
    if experiment == "kernel" and not fit[0] <= fit[1] * (1.0 + 1e-12):
        raise ConfigError(
            f"lag_efolds = {cfg['lag_efolds']} puts the first positive lag beyond the decay "
            f"fit's window of {FIT_WINDOW_EFOLDS:g} decay times; use at most "
            f"{100 * FIT_WINDOW_EFOLDS:g}")


def _check_kernel_resolution(cfg):
    """The scalar kernel's samples must not be lost to rounding.

    The start y0 = tau sin(omega x0) + sd z of each sample, with the Gibbs
    spread sd = 1/sqrt(beta lambda), must resolve KERNEL_SPREAD_BITS bits on
    the valley's scale tau, and the lag-0 drift product (lambda tau omega
    cos(omega x0) sd)^2 must keep fit_decay_rate's floor, FIT_FLOOR_RATIO of
    itself, a nonzero float.  Otherwise the estimate is rounding noise or 0
    at every lag, and the decay fit has nothing to fit.
    """
    sd = math.sqrt(1.0 / (cfg["beta"] * cfg["lambda"]))
    if not sd >= 2.0**KERNEL_SPREAD_BITS * sys.float_info.epsilon * cfg["tau"]:
        raise ConfigError(
            f"kernel spread 1/sqrt(beta lambda) = {sd:g} resolves fewer than "
            f"{KERNEL_SPREAD_BITS} bits of tau = {cfg['tau']:g}; use a smaller beta")
    amp = (cfg["lambda"] * cfg["tau"] * cfg["omega"]
           * abs(math.cos(cfg["omega"] * cfg["x0"])) * sd)
    least = sys.float_info.min * sys.float_info.epsilon / FIT_FLOOR_RATIO
    if not amp * amp >= least:
        raise ConfigError(
            f"kernel lag-0 drift product (lambda tau omega cos(omega x0))^2 / (beta lambda) "
            f"= {amp * amp:g} is below {least:g}, so the kernel rounds to 0; use a larger tau")


def _array_bytes(experiment, cfg, blocks=None):
    """Bytes of the float64 arrays the runner fills (the recorded series, the
    kernels' per-lag samples, the landscape's grid, the stationary
    histogram's edges, counts, centres and two densities, and the engine's
    arrays, :func:`~mzcg.sde.march_floats`), and what shrinks the largest
    part of them.

    ``ensemble`` and ``mean-trajectory`` in several stream blocks hold every
    record of every stream, in the workers and as the parent's pieces.  In
    one block (``blocks`` 1) they reduce a record block at a time and hold,
    per record, the statistics, each model flow's values, the times and two
    floats of temporaries (the record steps the times are made from, or the
    reduction's), and besides them the engine's arrays, the record block
    and its reduction's copy (:func:`~mzcg.sde.sink_floats`), and the CSV
    writer's block of rows (:func:`~mzcg.csvio.block_bytes`).  ``blocks``
    None, a worker count not known, takes the several-block bound."""
    if experiment == "landscape":
        return 3 * cfg["grid_points"] ** 2 * 8, "fewer grid_points"
    if experiment in ("kernel", "kernel-matrix"):
        return 2 * cfg["n_lags"] * cfg["n_samples"] * 8, "fewer n_samples or n_lags"
    n = cfg["n_samples"]
    if experiment == "stationary":
        phases = [IntegratorConfig(cfg[dt], cfg[t], cfg[stride])
                  for t, dt, stride in (("t_main", "dt_main", "stride_main"),
                                        ("t_resid", "dt_resid", "stride_resid"))]
        parts = {
            "a larger stride_main or stride_resid":
                2 * n * sum(phase.n_records for phase in phases),
            "fewer bins": 5 * (cfg["bins"] + 1),
            # One phase runs at a time.
            "fewer n_samples": max(march_floats((), 1, n, phase.n_steps) for phase in phases),
        }
    else:
        icfg = IntegratorConfig(cfg["dt"], cfg["t_final"], cfg["record_stride"])
        if experiment == "ensemble":
            betas = len(cfg["beta_list"])
            # x, y and the two models' planes at every beta, thermostatted;
            # full, approx and nomem recorded at every beta, and the mean
            # and stderr of each.
            record = series = 3 * betas * n
            stats = 2 * 3 * betas
            engine = march_floats((MEMORY_CORRECTED, MEMORY_FREE), betas, n, icfg.n_steps)
            columns = 7
        else:
            # The full system's x and y, unthermostatted: no noise.  Its x
            # is recorded, and each model flow's value.
            models = len(cfg["models"])
            record, series, stats = n, n + models, 2 + models
            engine = march_floats((), 1, n)
            columns = 3 + models
        if blocks == 1:
            # Per record, the statistics, the times and two temporaries.
            series = stats + 3
            engine += sink_floats(record, icfg.n_records) + block_bytes(columns) // 8
        parts = {"a larger record_stride": series * icfg.n_records, "fewer n_samples": engine}
    return 8 * sum(parts.values()), max(parts, key=parts.get)


def _check_memory(experiment, cfg, blocks):
    """The runner's arrays, in ``blocks`` stream blocks (see
    :func:`_array_bytes`), must fit in physical memory (where the platform
    tells its size): a run that cannot hold them fails only once it has
    started them."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    need, remedy = _array_bytes(experiment, cfg, blocks)
    if need > physical:
        # An integer count can exceed the floats, which cannot divide it.
        gb = need / 1e9 if need <= sys.float_info.max else math.inf
        raise ConfigError(
            f"{experiment} needs {gb:,.1f} GB for its arrays, more than the "
            f"{physical / 1e9:,.1f} GB of physical memory; use {remedy}"
        )


def _finalize(experiment, keys, cfg, blocks):
    """Derive the keys still None, then check the derived values, every
    integration window and the memory of a run in ``blocks`` stream
    blocks."""
    if experiment == "kernel" and cfg["x0"] is None:
        cfg["x0"] = conditioning_points(cfg["omega"])["cos1"]
    if experiment in ("kernel", "kernel-matrix") and cfg["dt"] is None:
        cfg["dt"] = 1e-4 / cfg["lambda"]
    if experiment == "ensemble" and cfg["x0"] is None:
        cfg["x0"] = conditioning_points(cfg["omega"])["cos0"]
    _check_keys(keys, cfg)
    _check_derived(experiment, cfg)
    if cfg.get("record_stride", 1) is None:
        n_steps = IntegratorConfig(cfg["dt"], cfg["t_final"]).n_steps
        cfg["record_stride"] = max(1, n_steps // 2000)
    _check_memory(experiment, cfg, blocks)


def resolve(experiment, config_path=None, set_pairs=(), seed=None, desk_scale=False,
            threads=None):
    """Resolve the full configuration for ``experiment``; every key concrete.
    ``threads``, the worker count the run will use, sets its stream blocks
    for the memory check: min(threads, n_samples), as
    :func:`~mzcg.sde.map_stream_blocks` cuts them.  None bounds the run in
    several blocks, whatever count it runs with."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    keys = KEYS[experiment]
    cfg = {key: spec.default for key, spec in keys.items()}
    if desk_scale:
        cfg.update(DESK_OVERRIDES.get(experiment, {}))
    cfg["desk_scale"] = bool(desk_scale)
    if config_path is not None:
        _apply(cfg, keys, parse_config_file(config_path), str(config_path))
    pairs = []
    for item in set_pairs:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    _apply(cfg, keys, pairs, "--set")
    if seed is not None:
        if "master_seed" not in keys:
            raise ConfigError(f"{experiment} takes no seed")
        cfg["master_seed"] = int(seed)
    _check_keys(keys, cfg)
    _check_rules(experiment, cfg)
    blocks = None if threads is None else min(threads, cfg.get("n_samples", threads))
    _finalize(experiment, keys, cfg, blocks)
    cfg["experiment"] = experiment
    return cfg
