"""Experiment configuration: built-in defaults, optional desk-scale overlay,
flat key=value config files, and command-line overrides, resolved into one
fully concrete mapping that is echoed verbatim into every CSV header.

Precedence, lowest to highest: built-in defaults, desk-scale overlay,
config file, --set pairs, dedicated flags (--seed).
"""

from __future__ import annotations

import math

from .models import MODEL_KINDS
from .sde import MAX_STEPS

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


def _float_list(text):
    return tuple(float(v) for v in str(text).split(","))


def _str_list(text):
    return tuple(v.strip() for v in str(text).split(",") if v.strip())


def _bool(text):
    if isinstance(text, bool):
        return text
    t = str(text).strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_PARAM_KEYS = {"mu": float, "lambda": float, "tau": float, "omega": float}

# Per-experiment key schemas (types used to coerce file/CLI string values).
SCHEMAS = {
    "landscape": {
        **_PARAM_KEYS,
        "x_min": float,
        "x_max": float,
        "y_min": float,
        "y_max": float,
        "grid_points": int,
    },
    "kernel": {
        **_PARAM_KEYS,
        "beta": float,
        "master_seed": int,
        "x0": float,
        "n_samples": int,
        "n_lags": int,
        "lag_efolds": float,
        "dt": float,
    },
    "kernel-matrix": {
        **_PARAM_KEYS,
        "beta": float,
        "master_seed": int,
        "n_samples": int,
        "n_lags": int,
        "lag_efolds": float,
        "dt": float,
    },
    "mean-trajectory": {
        **_PARAM_KEYS,
        "beta": float,
        "master_seed": int,
        "x0": float,
        "n_samples": int,
        "dt": float,
        "t_final": float,
        "record_stride": int,
        "models": _str_list,
    },
    "ensemble": {
        **_PARAM_KEYS,
        "beta_list": _float_list,
        "master_seed": int,
        "x0": float,
        "n_samples": int,
        "dt": float,
        "t_final": float,
        "record_stride": int,
    },
    "stationary": {
        **_PARAM_KEYS,
        "beta": float,
        "master_seed": int,
        "n_samples": int,
        "t_main": float,
        "dt_main": float,
        "stride_main": int,
        "t_resid": float,
        "dt_resid": float,
        "stride_resid": int,
        "bins": int,
        "hist_halfwidth": float,
    },
}

_COMMON_DEFAULTS = {"mu": 2.0, "lambda": 20.0, "tau": 2.0, "omega": 10.0}

# None marks a value computed from other resolved keys in _finalize.
DEFAULTS = {
    "landscape": {
        **_COMMON_DEFAULTS,
        "x_min": -3.0,
        "x_max": 3.0,
        "y_min": -3.0,
        "y_max": 3.0,
        "grid_points": 301,
    },
    "kernel": {
        **_COMMON_DEFAULTS,
        "beta": 1.0,
        "master_seed": 1,
        "x0": None,
        "n_samples": 2000,
        "n_lags": 60,
        "lag_efolds": 5.0,
        "dt": None,
    },
    "kernel-matrix": {
        **_COMMON_DEFAULTS,
        "beta": 1.0,
        "master_seed": 1,
        "n_samples": 2000,
        "n_lags": 60,
        "lag_efolds": 10.0,
        "dt": None,
    },
    "mean-trajectory": {
        **_COMMON_DEFAULTS,
        "beta": 1.0,
        "master_seed": 1,
        "x0": 2.0,
        "n_samples": 500,
        "dt": 1e-5,
        "t_final": 80.0,
        "record_stride": None,
        "models": MODEL_KINDS,
    },
    "ensemble": {
        **_COMMON_DEFAULTS,
        "beta_list": (1.0, 10.0, 100.0),
        "master_seed": 1,
        "x0": None,
        "n_samples": 500,
        "dt": 1e-5,
        "t_final": 320.0,
        "record_stride": None,
    },
    "stationary": {
        **_COMMON_DEFAULTS,
        "beta": 1.0,
        "master_seed": 1,
        "n_samples": 512,
        "t_main": 60.0,
        "dt_main": 1.5e-4,
        "stride_main": 50,
        "t_resid": 1.0,
        "dt_resid": 1e-5,
        "stride_resid": 20,
        "bins": 101,
        "hist_halfwidth": 5.0,
    },
}

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


def _apply(cfg, schema, pairs, origin):
    for key, value in pairs:
        if key not in schema:
            raise ConfigError(
                f"{origin}: unknown key {key!r}; allowed: {', '.join(sorted(schema))}"
            )
        try:
            cfg[key] = schema[key](value)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"{origin}: bad value for {key!r}: {err}") from err


def _finalize(experiment, cfg):
    if experiment == "kernel" and cfg["x0"] is None:
        cfg["x0"] = math.pi / cfg["omega"]
    if experiment in ("kernel", "kernel-matrix") and cfg["dt"] is None:
        cfg["dt"] = 1e-4 / cfg["lambda"]
    if experiment == "ensemble" and cfg["x0"] is None:
        cfg["x0"] = math.pi / (2.0 * cfg["omega"])
    _check_step_counts(experiment, cfg)
    if cfg.get("record_stride", 1) is None:
        n_steps = max(1, int(round(cfg["t_final"] / cfg["dt"])))
        cfg["record_stride"] = max(1, n_steps // 2000)


def _check_step_counts(experiment, cfg):
    """Reject horizons of more than MAX_STEPS steps (or an overflowing count),
    which would never finish and which round() no longer counts exactly."""
    for t, dt in (("t_final", "dt"), ("t_main", "dt_main"), ("t_resid", "dt_resid")):
        if t in cfg and not cfg[t] / cfg[dt] <= MAX_STEPS:
            raise ConfigError(f"{t} / {dt} must be at most 2**53 steps")
    if experiment in ("kernel", "kernel-matrix"):
        # The largest lag is lag_efolds over the kernel's decay rate, which is
        # lambda at its least (kernel-matrix conditions on that case).
        if not cfg["lag_efolds"] / cfg["lambda"] / cfg["dt"] <= MAX_STEPS:
            raise ConfigError("lag_efolds / lambda / dt must be at most 2**53 steps")


def _validate(experiment, cfg):
    """Check the given keys; keys still None are computed by _finalize from
    keys checked here."""
    for key, value in cfg.items():
        values = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise ConfigError(f"{key} must be finite")
    for key in ("mu", "lambda", "beta"):
        if key in cfg and not cfg[key] > 0.0:
            raise ConfigError(f"{key} must be strictly positive")
    for key in ("tau", "omega"):
        if key in cfg and cfg[key] < 0.0:
            raise ConfigError(f"{key} must be nonnegative")
    # Conditioning points default to pi/omega or pi/(2 omega), and the kernel
    # fit needs a kernel that does not vanish identically (tau omega = 0).
    if experiment == "kernel" and not cfg["tau"] > 0.0:
        raise ConfigError("kernel needs tau > 0")
    if (experiment in ("kernel", "kernel-matrix")
            or (experiment == "ensemble" and cfg["x0"] is None)) and not cfg["omega"] > 0.0:
        raise ConfigError(f"{experiment} needs omega > 0")
    for key in ("dt", "t_final", "dt_main", "t_main", "dt_resid", "t_resid"):
        if cfg.get(key) is not None and not cfg[key] > 0.0:
            raise ConfigError(f"{key} must be strictly positive")
    for key in ("n_samples", "grid_points", "record_stride", "n_lags", "bins",
                "stride_main", "stride_resid"):
        if cfg.get(key) is not None and cfg[key] < 1:
            raise ConfigError(f"{key} must be >= 1")
    if experiment in ("kernel", "kernel-matrix"):
        if cfg["n_samples"] < 2:
            raise ConfigError("kernel estimation needs n_samples >= 2")
        if cfg["n_lags"] < 2:
            raise ConfigError("kernel estimation needs n_lags >= 2")
    if "models" in cfg:
        if not cfg["models"]:
            raise ConfigError("models must not be empty")
        for kind in cfg["models"]:
            if kind not in MODEL_KINDS:
                raise ConfigError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    if "beta_list" in cfg:
        if not cfg["beta_list"]:
            raise ConfigError("beta_list must not be empty")
        if any(b <= 0.0 for b in cfg["beta_list"]):
            raise ConfigError("beta_list entries must be strictly positive")


def resolve(experiment, config_path=None, set_pairs=(), seed=None, desk_scale=False):
    """Resolve the full configuration for ``experiment``; every key concrete."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    schema = SCHEMAS[experiment]
    cfg = dict(DEFAULTS[experiment])
    if desk_scale:
        cfg.update(DESK_OVERRIDES.get(experiment, {}))
    cfg["desk_scale"] = bool(desk_scale)
    if config_path is not None:
        _apply(cfg, schema, parse_config_file(config_path), str(config_path))
    pairs = []
    for item in set_pairs:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    _apply(cfg, schema, pairs, "--set")
    if seed is not None:
        if "master_seed" not in schema:
            raise ConfigError(f"{experiment} takes no seed")
        cfg["master_seed"] = int(seed)
    _validate(experiment, cfg)
    _finalize(experiment, cfg)
    cfg["experiment"] = experiment
    return cfg
