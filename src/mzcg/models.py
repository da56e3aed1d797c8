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
vanishes.  :func:`bind_coefficients` is the one definition of these
coefficients, as a function of h that the engine binds once per march and
calls on every step; :func:`thermostatted_coefficients` binds it for one
call.  Unthermostatted runs integrate dh = b(h) dt and consume no noise;
the deterministic flows step b as :func:`bind_float_drift` binds it on
Python floats.
Whether that flow should also carry ``div_term`` (nonzero at finite beta) is
not settled by the model's derivation, so it is left out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .benchmark import BenchmarkParams, bind_valley_coupling, valley_coupling

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

    A Python float ``h`` goes through :func:`bind_float_drift`, bound for
    this one call."""
    if type(h) is float:
        return bind_float_drift(model)(h)
    p = model.params
    h = np.asarray(h, dtype=float)
    if model.kind == MEMORY_FREE:
        return -p.mu * h
    t2w2, c2, factor, s2 = valley_coupling(p, h)
    if model.kind == MEMORY_CORRECTED:
        return -p.mu * h / factor
    return (p.lam * t2w2 * c2 - 1.0) * (p.mu * h) + (p.lam / p.beta) * t2w2 * p.omega * s2


def bind_float_drift(model: EffectiveModel):
    """:func:`drift` of ``model`` as a function of one Python float ``h``,
    evaluated in Python floats: the deterministic model flows bind it once
    per model and call it on every step.  Binding resolves the kind and the
    constants that every evaluation shares (-mu, omega, tau^2 omega^2, ...),
    formed as the array formula groups them, so a value has the bits of a
    one-element array, and nan, not an exception, where the array would
    hold nan.  The coupling is :func:`~mzcg.benchmark.valley_coupling`'s
    float path written out: t = tan(omega h) comes from ``np.tan``, as
    there."""
    p = model.params
    neg_mu = -p.mu
    if model.kind == MEMORY_FREE:
        def memory_free(h):
            return neg_mu * h

        return memory_free
    omega, t2w2, tan = p.omega, p.tau * p.tau * p.omega * p.omega, np.tan
    if model.kind == MEMORY_CORRECTED:
        def memory_corrected(h):
            t = float(tan(omega * h))
            return neg_mu * h / (1.0 + t2w2 * (1.0 / (1.0 + t * t)))

        return memory_corrected
    mu, lam_t2w2 = p.mu, p.lam * t2w2
    noise_factor = (p.lam / p.beta) * t2w2 * omega

    def naive_memory(h):
        t = float(tan(omega * h))
        c2 = 1.0 / (1.0 + t * t)
        return (lam_t2w2 * c2 - 1.0) * (mu * h) + noise_factor * (2.0 * t * c2)

    return naive_memory


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
    / (1 + tau^2 omega^2 cos^2(omega h))^2; both come from one evaluation of
    the valley coupling, whose one tangent gives cos^2(omega h) and
    sin(2 omega h).  ``memory-free`` has constant sigma and no such term.

    Returns two new arrays of the shape of ``h`` broadcast against ``beta``,
    from :func:`bind_coefficients` bound for this one call.
    """
    shape = np.broadcast_shapes(np.shape(h), np.shape(beta))
    out = (np.empty(shape), np.empty(shape))
    bind_coefficients(model, out, beta)(h)
    return out


def bind_coefficients(model: EffectiveModel, out, beta=None, work=None):
    """:func:`thermostatted_coefficients` of ``model`` at ``beta`` as a
    function of ``h`` alone, which writes b and sigma into ``out=(b, sigma)``
    with the bits of that call and returns nothing.  The engine binds each
    model once per march and calls the function on every step.

    Binding does once what every evaluation at one ``beta`` shares: it
    resolves the model's kind, its 0-d constants and its buffers, binds the
    valley coupling to them (:func:`~mzcg.benchmark.bind_valley_coupling`),
    forms the ``memory-corrected`` beta factor ((1/beta) tau^2 omega^2)
    omega at the shape of ``b``, before it meets the sine, so that an array
    of betas gives each row the bits of a scalar-beta call, and writes
    ``memory-free``'s constant sigma, which its function then leaves alone.
    ``naive-memory`` raises :class:`UnsupportedModelError` here, before any
    step.

    ``out`` holds two float arrays of the shape of ``h`` broadcast against
    ``beta``, and ``work``, of that shape, is ``memory-corrected``'s scratch
    (new when not given); none may share memory with ``h``, and nothing else
    may write ``sigma`` between calls.
    """
    p = model.params
    if model.kind == NAIVE_MEMORY:
        raise UnsupportedModelError(
            "naive-memory has no noise closure and cannot be thermostatted"
        )
    if beta is None:
        beta = p.beta
    b, sigma = out
    omega, one, t2w2, neg_mu = p._coupling_constants
    mul, div = np.multiply, np.divide
    if model.kind == MEMORY_FREE:
        sigma.fill(1.0)

        def coefficients(h):
            mul(neg_mu, h, b)

        return coefficients
    if work is None:
        work = np.empty_like(b)
    # cos^2 goes to work, the slowing factor (denom) to sigma and the sine to b.
    coupling = bind_valley_coupling(p, (work, sigma, b))
    # At the batch's shape, so that no step multiplies by a broadcast column.
    noise_factor = np.full_like(b, mul(mul(div(one, beta), t2w2), omega))
    square, add, sqrt = np.square, np.add, np.sqrt

    def coefficients(h):
        coupling(h)
        mul(noise_factor, b, b)
        square(sigma, work)
        div(b, work, b)  # the noise-induced drift
        mul(neg_mu, h, work)
        div(work, sigma, work)
        add(work, b, b)
        div(one, sigma, sigma)
        sqrt(sigma, sigma)

    return coefficients


def coefficients_bound(model: EffectiveModel, beta=None):
    """Bounds on what :func:`bind_coefficients` of ``model`` at ``beta``
    writes, for any h: (k, c, s) with |b| <= k |h| + c and sigma <= s, up
    to rounding.  ``memory-free`` has b = -mu h and sigma = 1.
    ``memory-corrected``'s slowing factor is at least 1 and
    |sin(2 omega h)| = |2 t / (1 + t^2)| <= 1, so |b| <= mu |h| + tau^2
    omega^3 / beta, at the smallest beta of an array, and sigma <= 1.  The
    engine's blowup schedule takes each model's growth per step from
    them."""
    p = model.params
    if model.kind == MEMORY_FREE:
        return p.mu, 0.0, 1.0
    if model.kind == NAIVE_MEMORY:
        raise UnsupportedModelError(
            "naive-memory has no noise closure and cannot be thermostatted"
        )
    omega, one, t2w2, _ = p._coupling_constants
    beta = p.beta if beta is None else beta
    # The largest noise_factor of bind_coefficients, in its operations.
    return p.mu, float(np.max(np.multiply(np.multiply(np.divide(one, beta), t2w2), omega))), 1.0
