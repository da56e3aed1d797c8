"""Command-line entry point: one subcommand per experiment.  It resolves the
configuration, hands it to the experiment's runner, which writes every CSV
file, and reports the outcome on stderr.  Exit codes: 0 success, 1 output
that cannot be written, 2 configuration error, 3 numerical blowup (flagged
in the file comments; a full-system blowup writes the comments alone)."""

from __future__ import annotations

import functools
import os

import click

from . import experiments
from .config import ConfigError, resolve
from .sde import NumericalBlowupError


def _common_options(fn):
    @click.option("--config", "config_path", type=click.Path(), default=None,
                  help="Flat key=value config file (overrides built-in defaults).")
    @click.option("--set", "set_pairs", multiple=True, metavar="KEY=VALUE",
                  help="Override a single config key (repeatable; beats the file).")
    @click.option("--out", "out_path", type=click.Path(), default=None,
                  help="Output CSV path (default: <experiment>.csv).")
    @click.option("--seed", type=int, default=None, help="Master seed override.")
    @click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True,
                  help="Worker processes, each taking one contiguous block of "
                       "the streams, at most one per CPU this process may run "
                       "on; output is identical for any count.")
    @click.option("--desk-scale", is_flag=True,
                  help="Cheaper documented defaults for the long experiments.")
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)

    return wrapper


def _usable_cpus() -> int:
    """CPUs this process may run on (``os.cpu_count()`` where the affinity
    mask is unavailable)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run(ctx, experiment, config_path, set_pairs, out_path, seed, threads, desk_scale):
    # More workers than CPUs only add per-step overhead: they cannot all run.
    threads = min(threads, _usable_cpus())
    try:
        cfg = resolve(experiment, config_path, set_pairs, seed, desk_scale, threads)
    except ConfigError as err:
        click.echo(f"config error: {err}", err=True)
        ctx.exit(2)
    out = out_path or f"{experiment}.csv"
    try:
        code = experiments.RUNNERS[experiment](cfg, out, threads=threads)
    except NumericalBlowupError as err:
        # The runner has written the blowup's metadata-only file.
        click.echo(
            f"numerical blowup at step {err.step}{err.where}; partial output in {out}",
            err=True,
        )
        ctx.exit(3)
    except OSError as err:  # also from writing the blowup's file
        click.echo(f"io error: {err}", err=True)
        ctx.exit(1)
    if code == experiments.EXIT_BLOWUP:
        click.echo("one or more components blew up; output truncated and flagged", err=True)
    ctx.exit(code)


@click.group()
@click.version_option(package_name="mzcg")
def main():
    """Coarse-graining experiments for the 2D benchmark dynamics.

    Each subcommand writes CSV data with the resolved configuration echoed in
    '#'-prefixed comment lines; re-running with identical configuration and
    seed reproduces the file byte for byte.
    """


def _register(name, help_text):
    @main.command(name, short_help=help_text)
    @_common_options
    @click.pass_context
    def command(ctx, config_path, set_pairs, out_path, seed, threads, desk_scale):
        _run(ctx, name, config_path, set_pairs, out_path, seed, threads, desk_scale)

    command.help = help_text
    return command


_register("landscape", "Tabulate the potential energy on a grid.")
_register("kernel", "Empirical memory kernel vs its closed-form approximation.")
_register("kernel-matrix", "Block memory-kernel matrix for two conditioning cases.")
_register("mean-trajectory", "Mean relaxation: full ensemble vs reduced models.")
_register("ensemble", "Thermostatted ensembles with common random numbers, per beta.")
_register("stationary", "Invariant-measure check against the Gibbs marginals.")


if __name__ == "__main__":
    main()
