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
    def _flow_constants(self):
        """tau omega^2, tau, lam and tau^2 omega^2, the constants of the
        invariant curves and of :func:`bind_orthogonal_flow`, as read-only
        0-d float64 arrays made once."""
        constants = tuple(np.array(v) for v in (
            self.tau * self.omega * self.omega, self.tau, self.lam,
            self.tau * self.tau * self.omega * self.omega))
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
    draw per stream.  The draws come from one pass over every stream
    (:func:`~mzcg.sde.next_pairs`), the same bits as ``scalars(1)`` of each."""
    from .sde import next_pairs  # sde imports this module

    mean = p.tau * np.sin(p.omega * x)
    return mean + np.sqrt(1.0 / (p.beta * p.lam)) * next_pairs(streams)[0]


def orthogonal_drift_xy(p: BenchmarkParams, x, y):
    """Fluctuating part of the drift acting on (x, y), the full drift minus
    its conditional average given x: (dx, dy) =
    (-lam tau omega gap cos(omega x), lam gap) with gap = tau sin(omega x) - y.
    It vanishes identically on y = tau sin(omega x).  ``x`` and ``y`` are
    float arrays of one shape.

    Returns a new array of shape (2,) + x.shape, from
    :func:`bind_orthogonal_drift` bound for this one call at scale 1.
    Adding (-mu x, 0) gives the full drift -grad V, which is what the
    Euler-Maruyama engine steps.
    """
    out = np.empty((2,) + x.shape)
    bind_orthogonal_drift(p, x, y, out, np.empty_like(x), 1.0)()
    return out


def bind_orthogonal_drift(p: BenchmarkParams, x, y, out, cos, scale):
    """``scale`` times :func:`orthogonal_drift_xy` at the live values of
    ``x`` and ``y`` as a function of no argument that writes it into ``out``
    and returns nothing: the one definition of the orthogonal drift and its
    one in-place form.  The engine binds it once per march at scale dt, so
    that it writes the drift's increment over a step; the kernel sampler
    takes its lag-0 drift from it at scale 1 and steps its samples on the
    invariant curves of :func:`orthogonal_invariant` instead.  ``out`` is an
    array of shape (2,) + x.shape or a pair of arrays of x's shape, ``cos``
    (x's shape) is scratch, and neither may share memory with ``x`` or
    ``y``.

    The scale is folded into the constants lam and -(lam tau omega) once
    per bind, which scale 1 leaves as they are.  With u = tan(omega x / 2),
    cos(omega x) = (1 - u^2) / (1 + u^2) and sin(omega x) = 2 u / (1 + u^2),
    which meets tau as (u / (1 + u^2))(2 tau): doubling is exact, so that
    has the bits of ((u + u) / (1 + u^2)) tau wherever u / (1 + u^2) is not
    subnormal, in one ufunc call fewer.  A non-finite x gives nan without
    raising.  Twelve in-place ufunc calls with 0-d constants and no
    temporary.
    """
    half_omega, one, two_tau, lam, neg_lto = p._drift_constants
    lam, neg_lto = np.array(lam * scale), np.array(neg_lto * scale)
    add, sub, mul, div, tan = np.add, np.subtract, np.multiply, np.divide, np.tan
    u, w = out

    def drift():
        mul(x, half_omega, u)
        tan(u, u)
        mul(u, u, w)
        sub(one, w, cos)
        add(w, one, w)
        div(cos, w, cos)  # cos(omega x)
        div(u, w, u)
        mul(u, two_tau, u)  # tau sin(omega x)
        sub(u, y, u)  # the valley gap
        mul(u, lam, w)
        mul(neg_lto, u, u)
        mul(u, cos, u)

    return drift


def orthogonal_drift_bound(p: BenchmarkParams, scale):
    """Bounds on what :func:`bind_orthogonal_drift` at ``scale`` writes
    where |y| <= m: |dx| <= kx m + cx and |dy| <= ky m + cy, returned as
    ((kx, cx), (ky, cy)), up to rounding.  They hold for any x, from
    |gap| <= tau + |y|: the tan-half-angle forms keep |cos(omega x)| <= 1
    and |tau sin(omega x)| <= tau for any u, since |1 - u^2| and 2 |u| are
    at most 1 + u^2.  The engine's blowup schedule takes the full system's
    growth per step from them."""
    lam, neg_lto = p._drift_constants[3:]
    kx, ky = abs(float(neg_lto) * scale), abs(float(lam) * scale)
    return (kx, kx * p.tau), (ky, ky * p.tau)


def orthogonal_drift(p: BenchmarkParams, x, y):
    """:func:`orthogonal_drift_xy` on scalars or arrays that broadcast
    together, with the components stacked along the last axis."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    dx, dy = orthogonal_drift_xy(p, x.reshape(-1), y.reshape(-1))
    return np.stack((dx, dy), axis=-1).reshape(x.shape + (2,))


# Along a characteristic of the orthogonal dynamics, theta = omega x and y
# move with one valley gap g = tau sin(theta) - y: theta' = -lam tau omega^2 g
# cos(theta) and y' = lam g.  So d(theta)/dy = -tau omega^2 cos(theta), and
# since d atanh(sin(theta))/d(theta) = 1/cos(theta), the sum
# atanh(sin(omega x)) + tau omega^2 y is constant along every characteristic.
# theta never crosses a crest, where cos(theta) = 0 holds it still, so with
# z = I - tau omega^2 y for the invariant I, sin(omega x) = tanh(z) and
# cos(omega x) = s sech(z), s the sign of cos(omega x0): y alone follows the
# one-dimensional flow y' = lam (tau tanh(z) - y).  Its stiffest rate, at
# the valley floor, is lam (1 + tau^2 omega^2 cos^2(theta)), as in two
# dimensions.  In units of tau and 1/lam, v = y / tau and s = lam t, it reads
# dv/ds = tanh(I - tau^2 omega^2 v) - v, whose one parameter is the coupling
# tau^2 omega^2, and whose rate in s is that rate over lam.


def _curve_phase(p: BenchmarkParams, x0):
    """atanh(sin(omega x0)), the x part of the invariant, for a scalar
    ``x0``; infinite where sin(omega x0) rounds to +-1.

    It is taken as s asinh(tan(omega x0)), s the sign of cos(omega x0),
    which equals it: near a crest the rounding of sin(omega x0) next to 1
    would cost atanh a relative error of about eps / cos^2(omega x0), while
    tan keeps its own."""
    theta = p.omega * x0
    sin = np.sin(theta)
    if abs(sin) == 1.0:
        return np.copysign(np.inf, sin)
    return np.copysign(1.0, np.cos(theta)) * np.arcsinh(np.tan(theta))


def orthogonal_invariant(p: BenchmarkParams, x0, y):
    """The invariant atanh(sin(omega x0)) + tau omega^2 y of the orthogonal
    dynamics at (x0, y), for a scalar ``x0`` and an array ``y``.  At a crest,
    where sin(omega x0) rounds to +-1, it is infinite, and the curves of
    :func:`bind_orthogonal_flow` and :func:`orthogonal_flow_point` hold x at
    x0: a march of (x, y) together would too, since its x increments there
    are below half an ulp."""
    tw2 = p._flow_constants[0]
    return _curve_phase(p, x0) + tw2 * y


def bind_orthogonal_flow(p: BenchmarkParams, v, inv, out):
    """The scaled slope tanh(inv - tau^2 omega^2 v) - v of v = y / tau on
    the invariant curves ``inv`` of :func:`orthogonal_invariant`, in the
    time s = lam t, at the live values of ``v``, as a function of no
    argument that writes it into ``out`` and returns nothing.  lam tau times
    it is the slope lam (tau tanh(inv - tau omega^2 y) - y) of y, the y
    component of the orthogonal drift with x recovered from the invariant.
    Four in-place ufunc calls with 0-d constants and no temporary.  ``v``,
    ``inv`` and ``out`` are float arrays of one shape, and ``out`` shares no
    memory with the others."""
    t2w2 = p._flow_constants[3]
    mul, sub, tanh = np.multiply, np.subtract, np.tanh

    def slope():
        mul(t2w2, v, out)
        sub(inv, out, out)  # z
        tanh(out, out)  # sin(omega x)
        sub(out, v, out)  # the valley gap over tau

    return slope


def orthogonal_flow_point(p: BenchmarkParams, x0, y, inv):
    """x and the orthogonal drift at ``y`` on the curves ``inv`` of the
    characteristics from the scalar ``x0``, as (x, drift) with the drift's
    components stacked along the last axis, as :func:`orthogonal_drift`
    gives them.

    With z = inv - tau omega^2 y, the drift takes sin(omega x) = tanh(z) and
    cos(omega x) = s sech(z), s the sign of cos(omega x0), and x is
    (c pi + s atan(sinh(z))) / omega with c = round(omega x0 / pi).
    atan(sinh(z)) equals asin(tanh(z)) but keeps x to an ulp next to a
    crest, where asin would cost omega x about eps / |cos(omega x)|.  Where
    x cannot move (a crest, with an infinite invariant, or omega = 0) x
    stays at x0 and the drift is :func:`orthogonal_drift` at (x0, y), whose
    cos(omega x0) has the size of a rounding error at a crest."""
    theta0 = p.omega * x0
    if p.omega == 0.0 or np.isinf(_curve_phase(p, x0)):
        x = np.full_like(y, x0)
        return x, orthogonal_drift(p, x, y)
    tw2, tau, lam, _ = p._flow_constants
    s = np.copysign(1.0, np.cos(theta0))
    z = inv - tw2 * y
    sin = np.tanh(z)
    with np.errstate(over="ignore"):
        cos = s / np.cosh(z)
        x = (np.rint(theta0 / np.pi) * np.pi + s * np.arctan(np.sinh(z))) / p.omega
    gap = tau * sin - y
    neg_lto = p._drift_constants[4]  # -(lam tau omega)
    return x, np.stack((neg_lto * gap * cos, lam * gap), axis=-1)
