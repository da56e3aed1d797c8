"""The 2D benchmark system: a soft quadratic mode coupled to a stiff mode that
tracks a sinusoidal valley, with the drift fields arising when the dynamics is
split into its conditional-average part and the orthogonal remainder.

All functions accept scalars or numpy arrays in the coordinate arguments.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# Below this stiffness ratio the slow/fast timescale separation that motivates
# the reduced models is weak; warn but keep going.
TIMESCALE_RATIO_ADVISORY = 5.0


@dataclass(frozen=True)
class BenchmarkParams:
    """Scalar parameters of the benchmark potential.

    mu     stiffness of the resolved mode (1/time)
    lam    stiffness of the unresolved mode (1/time)
    tau    valley amplitude (length)
    omega  valley wavenumber (1/length)
    beta   inverse temperature (1/energy)
    """

    mu: float
    lam: float
    tau: float
    omega: float
    beta: float

    def __post_init__(self):
        if not (self.mu > 0.0 and self.lam > 0.0 and self.beta > 0.0):
            raise ValueError("mu, lam and beta must be strictly positive")
        if self.tau < 0.0 or self.omega < 0.0:
            raise ValueError("tau and omega must be nonnegative")
        if self.lam / self.mu < TIMESCALE_RATIO_ADVISORY:
            warnings.warn(
                f"lam/mu = {self.lam / self.mu:.3g} < {TIMESCALE_RATIO_ADVISORY}: "
                "weak timescale separation, reduced models may be inaccurate",
                stacklevel=2,
            )


def potential(p: BenchmarkParams, x, y):
    """Potential energy (mu/2) x^2 + (lam/2) (tau sin(omega x) - y)^2."""
    gap = p.tau * np.sin(p.omega * np.asarray(x, dtype=float)) - y
    return 0.5 * p.mu * np.square(x) + 0.5 * p.lam * np.square(gap)


def grad_potential(p: BenchmarkParams, x, y):
    """Gradient of :func:`potential`; components stacked along the last axis."""
    x = np.asarray(x, dtype=float)
    gap = p.tau * np.sin(p.omega * x) - y
    gx = p.mu * x + p.lam * p.tau * p.omega * gap * np.cos(p.omega * x)
    gy = -p.lam * gap
    return np.stack(np.broadcast_arrays(gx, gy), axis=-1)


def effective_potential_grad(p: BenchmarkParams, h):
    """Gradient of the free energy in the resolved variable: exactly mu * h.

    The unresolved mode is conditionally Gaussian, so integrating it out leaves
    a purely quadratic free energy (an additive constant is dropped).
    """
    return p.mu * np.asarray(h, dtype=float)


def valley_coupling(p: BenchmarkParams, h):
    """The valley coupling tau^2 omega^2 cos^2(omega h) seen by the resolved
    coordinate at ``h``, as (tau^2 omega^2, cos^2(omega h), 1 + tau^2 omega^2
    cos^2(omega h)): its two factors, which callers group as their formulas
    need, and the factor by which it slows the resolved mode.  The reduced
    models and the approximate kernel all take the coupling from here.

    A Python float ``h`` gives Python floats, with the bits of a one-element
    array (see :func:`trig`)."""
    t2w2 = p.tau * p.tau * p.omega * p.omega
    c = trig(math.cos, np.cos, p.omega * h)
    c2 = c * c
    return t2w2, c2, 1.0 + t2w2 * c2


def trig(scalar_fn, ufunc, a):
    """``scalar_fn(a)`` (a :mod:`math` function) for a finite Python float,
    else ``ufunc(a)``.  The two agree bit for bit on finite floats; numpy
    also takes arrays and turns a non-finite argument into nan, where
    ``math.cos`` and ``math.sin`` raise."""
    if type(a) is float and math.isfinite(a):
        return scalar_fn(a)
    return ufunc(a)


def conditional_y_sample(p: BenchmarkParams, x, stream, deterministic: bool = False):
    """Draw the unresolved coordinate from its conditional equilibrium law
    N(tau sin(omega x), 1/(beta lam)) given the resolved value ``x``.

    ``deterministic=True`` returns the conditional mean exactly (the zero
    temperature limit) and consumes nothing from ``stream``.
    """
    mean = p.tau * np.sin(p.omega * x)
    if deterministic:
        return mean
    return mean + np.sqrt(1.0 / (p.beta * p.lam)) * stream.scalars(1)[0]


def orthogonal_drift(p: BenchmarkParams, x, y):
    """Fluctuating part of the drift acting on (x, y): the full drift minus its
    conditional average given x.  Vanishes identically on y = tau sin(omega x).
    Components stacked along the last axis.
    """
    x = np.asarray(x, dtype=float)
    gap = p.tau * np.sin(p.omega * x) - y
    dx = -p.lam * p.tau * p.omega * gap * np.cos(p.omega * x)
    dy = p.lam * gap
    return np.stack(np.broadcast_arrays(dx, dy), axis=-1)
