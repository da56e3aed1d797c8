"""The 2D benchmark system: a soft quadratic mode coupled to a stiff mode that
tracks a sinusoidal valley, with the drift fields arising when the dynamics is
split into its conditional-average part and the orthogonal remainder.

All functions accept scalars or numpy arrays in the coordinate arguments.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

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
                stacklevel=3,  # past the generated __init__, to its caller
            )

    @cached_property
    def _drift_constants(self):
        """omega/2, 1, 2 tau, lam and -(lam tau omega), the constants of
        :func:`bind_orthogonal_drift`, as read-only 0-d float64 arrays made
        once: a ufunc takes one for less per call than a Python float, with
        the same bits."""
        constants = tuple(np.array(v) for v in (
            0.5 * self.omega, 1.0, 2.0 * self.tau, self.lam,
            -(self.lam * self.tau * self.omega)))
        for c in constants:
            c.flags.writeable = False
        return constants

    @cached_property
    def _coupling_constants(self):
        """omega, 1, tau^2 omega^2 and -mu, the constants of
        :func:`bind_valley_coupling` and of the reduced models' bound
        coefficients, as read-only 0-d float64 arrays made once."""
        constants = tuple(np.array(v) for v in (
            self.omega, 1.0, self.tau * self.tau * self.omega * self.omega, -self.mu))
        for c in constants:
            c.flags.writeable = False
        return constants


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
    cos^2(omega h), sin(2 omega h)): its two factors, which callers group as
    their formulas need, the factor by which it slows the resolved mode, and
    the sine that its derivative in ``h`` carries.  The reduced models and the
    approximate kernel all take the coupling from here.

    With t = tan(omega h), cos^2(omega h) = 1 / (1 + t^2) and
    sin(2 omega h) = 2 t cos^2(omega h).  A Python float ``h`` gives Python
    floats with the bits of a one-element array, so t comes from ``np.tan``
    there too (``math.tan`` differs from it in the last bit for some
    arguments); a non-finite argument gives nan without raising.
    :func:`bind_valley_coupling` writes the last three values into caller
    buffers instead."""
    t2w2 = p.tau * p.tau * p.omega * p.omega
    t = np.tan(p.omega * h)
    if type(h) is float:
        t = float(t)
    c2 = 1.0 / (1.0 + t * t)
    return t2w2, c2, 1.0 + t2w2 * c2, 2.0 * t * c2


def bind_valley_coupling(p: BenchmarkParams, out):
    """The last three values of :func:`valley_coupling` as a function of
    ``h`` alone that writes them into ``out=(c2, factor, s2)``, from the
    operations, in the order, of the allocating call, with 0-d constants and
    no temporary: the one in-place form of the coupling, which the reduced
    models bind once per march.  ``out`` holds three float arrays of one
    shape that ``h`` broadcasts to and that share no memory with ``h``."""
    omega, one, t2w2, _ = p._coupling_constants
    c2, factor, s2 = out
    mul, add, div, tan = np.multiply, np.add, np.divide, np.tan

    def coupling(h):
        mul(omega, h, s2)
        tan(s2, s2)  # t
        mul(s2, s2, c2)
        add(one, c2, c2)
        div(one, c2, c2)
        mul(t2w2, c2, factor)
        add(one, factor, factor)
        add(s2, s2, s2)
        mul(s2, c2, s2)

    return coupling


def conditional_y_sample(p: BenchmarkParams, x, streams):
    """Draw the unresolved coordinate from its conditional equilibrium law
    N(tau sin(omega x), 1/(beta lam)) given the resolved value ``x``, once
    per stream of ``streams`` from its next scalar draw: an array of one
    draw per stream."""
    from .sde import _draw_noise  # sde imports this module

    mean = p.tau * np.sin(p.omega * x)
    return mean + np.sqrt(1.0 / (p.beta * p.lam)) * _draw_noise(streams, 1)[0, 0]


def orthogonal_drift_xy(p: BenchmarkParams, x, y, out=None, cos=None):
    """Fluctuating part of the drift acting on (x, y), the full drift minus
    its conditional average given x: (dx, dy) =
    (-lam tau omega gap cos(omega x), lam gap) with gap = tau sin(omega x) - y.
    It vanishes identically on y = tau sin(omega x).  ``x`` and ``y`` are
    float arrays of one shape.

    The result is written into ``out``, an array of shape (2,) + x.shape or
    a pair of arrays of x's shape, with ``cos`` (x's shape) as scratch;
    either one is a new array when not given.  Returns ``out``, from
    :func:`bind_orthogonal_drift` bound for this one call.  Adding (-mu x, 0)
    gives the full drift -grad V, which is what the Euler-Maruyama engine
    steps.
    """
    if out is None:
        out = np.empty((2,) + x.shape)
    if cos is None:
        cos = np.empty_like(x)
    bind_orthogonal_drift(p, x, y, out, cos)()
    return out


def bind_orthogonal_drift(p: BenchmarkParams, x, y, out, cos):
    """:func:`orthogonal_drift_xy` at the live values of ``x`` and ``y`` as a
    function of no argument that writes the drift into ``out`` and returns
    nothing: the one definition of the orthogonal drift, which the engine
    binds once per march and the RK4 march once per stage buffer.  ``out``
    and ``cos`` are as there, and neither may share memory with ``x`` or
    ``y``.

    With u = tan(omega x / 2) and w = 1 / (1 + u^2), cos(omega x) =
    (1 - u^2) w and sin(omega x) = 2 u w, which meets tau as (u w)(2 tau):
    doubling is exact, so that has the bits of ((u + u) w) tau wherever u w
    is not subnormal, in one ufunc call fewer.  A non-finite x gives nan
    without raising.  Thirteen in-place ufunc calls with 0-d constants and
    no temporary.
    """
    half_omega, one, two_tau, lam, neg_lto = p._drift_constants
    add, sub, mul, div, tan = np.add, np.subtract, np.multiply, np.divide, np.tan
    u, w = out

    def drift():
        mul(x, half_omega, u)
        tan(u, u)
        mul(u, u, w)
        sub(one, w, cos)
        add(w, one, w)
        div(one, w, w)
        mul(cos, w, cos)  # cos(omega x)
        mul(u, w, u)
        mul(u, two_tau, u)  # tau sin(omega x)
        sub(u, y, u)  # the valley gap
        mul(u, lam, w)
        mul(neg_lto, u, u)
        mul(u, cos, u)

    return drift


def orthogonal_drift(p: BenchmarkParams, x, y):
    """:func:`orthogonal_drift_xy` on scalars or arrays that broadcast
    together, with the components stacked along the last axis."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    dx, dy = orthogonal_drift_xy(p, x.reshape(-1), y.reshape(-1))
    return np.stack((dx, dy), axis=-1).reshape(x.shape + (2,))
