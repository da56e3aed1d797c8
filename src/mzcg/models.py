"""Reduced scalar models for the resolved coordinate.

Three closures of the same underlying dynamics are provided, named by how they
treat the history (memory) contribution:

* ``memory-corrected`` -- drift -mu h / (1 + tau^2 omega^2 cos^2(omega h)),
  obtained by collapsing the exponentially decaying memory kernel onto its
  instantaneous limit; the matching noise multiplier follows from the
  fluctuation-dissipation relation.
* ``memory-free``      -- drift -mu h, the bare free-energy descent with unit
  noise multiplier (memory and fluctuating force discarded).
* ``naive-memory``     -- drift (lam tau^2 omega^2 cos^2(omega h) - 1) mu h
  + (lam/beta) tau^2 omega^3 sin(2 omega h), from approximating the kernel by
  its lag-zero value times a delta.  Deliberately wrong at strong coupling and
  defined without a noise closure, so it can only be run unthermostatted.

SDE convention.  A thermostatted model is the Ito SDE

    dh = [b(h) + (1/beta) d(sigma^2)/dh] dt + sigma(h) sqrt(2/beta) dW,

with b = :func:`drift` and sigma = :func:`diffusion`.  The noise-induced term
(1/beta) (sigma^2)' makes the Gibbs marginal exp(-beta mu h^2 / 2) invariant
(zero probability flux); for ``memory-corrected`` it equals the ``div_term``
of :func:`mzcg.kernel.memory_integral_closed_form`, and for ``memory-free`` it
vanishes.  :func:`thermostatted_coefficients` is the one definition of these
coefficients.  Unthermostatted runs integrate dh = b(h) dt and consume no
noise.  Whether that flow should also carry ``div_term`` (nonzero at finite
beta) is not settled by the model's derivation, so it is left out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .benchmark import BenchmarkParams, trig, valley_coupling

MEMORY_CORRECTED = "memory-corrected"
MEMORY_FREE = "memory-free"
NAIVE_MEMORY = "naive-memory"
MODEL_KINDS = (MEMORY_CORRECTED, MEMORY_FREE, NAIVE_MEMORY)


class UnsupportedModelError(ValueError):
    """The requested operation is undefined for this model kind."""


@dataclass(frozen=True)
class EffectiveModel:
    kind: str
    params: BenchmarkParams

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise UnsupportedModelError(
                f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}"
            )


def drift(model: EffectiveModel, h):
    """Deterministic drift b(h) of the reduced model; pure in ``h``.

    A Python float ``h`` is evaluated in Python floats, which is what the
    deterministic model flows step; it gives the bits of a one-element array,
    and nan, not an exception, where the array would hold nan."""
    p = model.params
    if type(h) is not float:
        h = np.asarray(h, dtype=float)
    if model.kind == MEMORY_FREE:
        return -p.mu * h
    t2w2, c2, factor = valley_coupling(p, h)
    if model.kind == MEMORY_CORRECTED:
        return -p.mu * h / factor
    return (p.lam * t2w2 * c2 - 1.0) * (p.mu * h) + (
        p.lam / p.beta
    ) * t2w2 * p.omega * trig(math.sin, np.sin, 2.0 * p.omega * h)


def diffusion(model: EffectiveModel, h):
    """Noise multiplier sigma(h): the SDE noise term is
    sigma(h) * sqrt(2 dt / beta) * xi.

    The Ito SDE that uses it adds the noise-induced drift
    (1/beta) d(sigma^2)/dh to :func:`drift` (see the module docstring and
    :func:`thermostatted_coefficients`)."""
    p = model.params
    if model.kind == MEMORY_FREE:
        return np.ones_like(np.asarray(h, dtype=float))
    if model.kind == NAIVE_MEMORY:
        raise UnsupportedModelError(
            "naive-memory has no noise closure and cannot be thermostatted"
        )
    return np.sqrt(1.0 / valley_coupling(p, h)[2])


def thermostatted_coefficients(model: EffectiveModel, h, beta=None):
    """Ito coefficients (b, sigma) of the thermostatted model at ``h``:
    b = drift(h) + (1/beta) d(sigma^2)/dh and sigma = diffusion(h), with
    drift(h) and sigma equal bit for bit to what those functions return.

    ``beta`` defaults to ``model.params.beta``; an array of inverse
    temperatures broadcasts against ``h`` (one per row of a batch).

    For ``memory-corrected``, sigma^2 = 1 / (1 + tau^2 omega^2 cos^2(omega h))
    and the noise-induced term is (1/beta) tau^2 omega^3 sin(2 omega h)
    / (1 + tau^2 omega^2 cos^2(omega h))^2; the cosine is evaluated once for
    both coefficients.  ``memory-free`` has constant sigma and no such term.
    """
    p = model.params
    h = np.asarray(h, dtype=float)
    if model.kind == MEMORY_FREE:
        return -p.mu * h, np.ones_like(h)
    if model.kind == NAIVE_MEMORY:
        raise UnsupportedModelError(
            "naive-memory has no noise closure and cannot be thermostatted"
        )
    if beta is None:
        beta = p.beta
    t2w2, _, denom = valley_coupling(p, h)
    # ((1/beta) t2w2) omega is formed before it meets sin(2 omega h), so an
    # array of betas gives each row the bits of a scalar-beta call.
    noise_drift = (1.0 / beta) * t2w2 * p.omega * np.sin(2.0 * p.omega * h) / np.square(denom)
    return -p.mu * h / denom + noise_drift, np.sqrt(1.0 / denom)
