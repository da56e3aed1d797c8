import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mzcg.benchmark import (
    BenchmarkParams,
    bind_orthogonal_drift,
    bind_orthogonal_flow,
    conditional_y_sample,
    effective_potential_grad,
    grad_potential,
    orthogonal_drift,
    orthogonal_flow_point,
    orthogonal_invariant,
    potential,
    valley_coupling,
)
from mzcg.sde import NoiseStream

P = BenchmarkParams(mu=2.0, lam=20.0, tau=2.0, omega=10.0, beta=1.0)


def fd_gradient(p, x, y, h=1e-6):
    gx = (potential(p, x + h, y) - potential(p, x - h, y)) / (2 * h)
    gy = (potential(p, x, y + h) - potential(p, x, y - h)) / (2 * h)
    return np.array([gx, gy])


class TestParams:
    def test_positivity(self):
        with pytest.raises(ValueError):
            BenchmarkParams(mu=0.0, lam=20.0, tau=2.0, omega=10.0, beta=1.0)
        with pytest.raises(ValueError):
            BenchmarkParams(mu=2.0, lam=20.0, tau=2.0, omega=10.0, beta=-1.0)
        with pytest.raises(ValueError):
            BenchmarkParams(mu=2.0, lam=20.0, tau=-0.1, omega=10.0, beta=1.0)

    def test_zero_valley_amplitude_allowed(self):
        BenchmarkParams(mu=0.5, lam=20.0, tau=0.0, omega=10.0, beta=1.0)

    def test_weak_separation_warns_but_constructs(self):
        with pytest.warns(UserWarning, match="separation"):
            BenchmarkParams(mu=10.0, lam=20.0, tau=2.0, omega=10.0, beta=1.0)

    def test_weak_separation_warning_names_the_caller(self):
        with pytest.warns(UserWarning, match="separation") as seen:
            BenchmarkParams(mu=10.0, lam=20.0, tau=2.0, omega=10.0, beta=1.0)
        assert seen[0].filename == __file__


class TestPotential:
    def test_origin_is_zero(self):
        assert potential(P, 0.0, 0.0) == 0.0

    def test_off_manifold_value(self):
        # (mu/2)*0 + (lam/2)(0 - 1)^2 = 10
        assert potential(P, 0.0, 1.0) == pytest.approx(10.0)

    def test_on_manifold_reduces_to_quadratic(self):
        x = np.linspace(-3, 3, 11)
        y = P.tau * np.sin(P.omega * x)
        assert potential(P, x, y) == pytest.approx(0.5 * P.mu * x**2)

    def test_nonnegative_and_zero_only_at_origin(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-3, 3, size=(500, 2))
        v = potential(P, pts[:, 0], pts[:, 1])
        assert np.all(v >= 0.0)
        assert np.all(v[np.hypot(pts[:, 0], pts[:, 1]) > 1e-3] > 0.0)


class TestGradient:
    def test_reference_point(self):
        assert grad_potential(P, 0.0, 1.0) == pytest.approx([-400.0, 20.0])

    def test_minimum(self):
        assert grad_potential(P, 0.0, 0.0) == pytest.approx([0.0, 0.0])

    def test_on_manifold(self):
        x = 0.73
        g = grad_potential(P, x, P.tau * np.sin(P.omega * x))
        assert g == pytest.approx([P.mu * x, 0.0])

    def test_matches_finite_differences_on_random_cloud(self):
        rng = np.random.default_rng(1)
        for x, y in rng.uniform(-2, 2, size=(100, 2)):
            g = grad_potential(P, x, y)
            ref = fd_gradient(P, x, y)
            assert np.linalg.norm(g - ref) <= 1e-6 * max(1.0, np.linalg.norm(ref))


class TestEffectivePotentialGrad:
    def test_linear_in_h(self):
        assert effective_potential_grad(P, 0.0) == 0.0
        assert effective_potential_grad(P, 3.0) == pytest.approx(6.0)
        assert effective_potential_grad(P, -1.0) == pytest.approx(-2.0)


class TestConditionalSample:
    def test_moments(self):
        n = 100_000
        stream = NoiseStream(42, 0)
        draws = P.tau * np.sin(P.omega * 0.0) + np.sqrt(1.0 / (P.beta * P.lam)) * stream.scalars(n)
        # same law as conditional_y_sample at x=0; spot-check one scalar draw
        one = conditional_y_sample(P, 0.0, [NoiseStream(42, 0)])
        assert one.shape == (1,) and one[0] == draws[0]
        stderr = np.sqrt(1.0 / (P.beta * P.lam)) / np.sqrt(n)
        assert abs(draws.mean()) < 3 * stderr
        assert draws.var() == pytest.approx(1.0 / (P.beta * P.lam), rel=0.05)

    def test_one_draw_per_stream_from_its_next_scalar(self):
        x = 0.37
        streams = [NoiseStream(5, i, position=i % 3) for i in range(50)]
        got = conditional_y_sample(P, x, streams)
        sd = np.sqrt(1.0 / (P.beta * P.lam))
        want = [P.tau * np.sin(P.omega * x) + sd * NoiseStream(5, i, position=i % 3).scalars(1)[0]
                for i in range(50)]
        assert np.array_equal(got, want)
        assert [s.position for s in streams] == [i % 3 + 1 for i in range(50)]


class TestOrthogonalDrift:
    def test_vanishes_on_manifold(self):
        x = np.linspace(-2, 2, 9)
        d = orthogonal_drift(P, x, P.tau * np.sin(P.omega * x))
        assert np.allclose(d, 0.0, atol=1e-12)

    def test_reference_point(self):
        assert orthogonal_drift(P, 0.0, 1.0) == pytest.approx([400.0, -20.0])

    def test_full_drift_splits_into_mean_and_fluctuation(self):
        # fluctuation drift + conditional-mean drift (-mu x, 0) = -grad V
        rng = np.random.default_rng(2)
        for x, y in rng.uniform(-2, 2, size=(50, 2)):
            lhs = orthogonal_drift(P, x, y) + np.array([-P.mu * x, 0.0])
            assert lhs == pytest.approx(-grad_potential(P, x, y))


# omega x / 2 = pi / 2 here, where the half-angle tangent is largest.
X_POLE = math.pi / P.omega
ULPS = 4


def sincos_orthogonal_drift(p, x, y):
    """The orthogonal drift with np.sin and np.cos, and its valley gap."""
    gap = p.tau * np.sin(p.omega * x) - y
    return -p.lam * p.tau * p.omega * gap * np.cos(p.omega * x), p.lam * gap, gap


def within_ulps(got, want, scale):
    """``got`` equals ``want`` (both nan counts), or is within ULPS units of
    roundoff of ``scale``."""
    return bool(
        got == want
        or (np.isnan(got) and np.isnan(want))
        or abs(got - want) <= ULPS * np.finfo(float).eps * scale
    )


class TestOrthogonalDriftTanForm:
    """The tangent half-angle form agrees with sin/cos to a few ulps of the
    terms it carries: the sine's tau and the gap, each times the prefactor."""

    @settings(max_examples=500, deadline=None)
    @given(
        x=st.floats(allow_nan=False, allow_infinity=False),
        offset=st.floats(min_value=-1e3, max_value=1e3),
    )
    @example(x=0.0, offset=1.0)
    @example(x=-0.0, offset=0.0)
    @example(x=5e-324, offset=0.5)
    @example(x=-2.2250738585072014e-308, offset=0.0)
    @example(x=X_POLE, offset=0.0)
    @example(x=-X_POLE, offset=0.25)
    @example(x=np.nextafter(X_POLE, 0.0), offset=0.0)
    @example(x=np.nextafter(X_POLE, 1.0), offset=-2.0)
    @example(x=3.0 * X_POLE, offset=1.0)
    @example(x=0.5 * X_POLE, offset=0.0)
    @example(x=1e12, offset=0.0)
    @example(x=1e300, offset=3.0)
    @example(x=1.7976931348623157e308, offset=0.0)
    def test_matches_sincos_reference(self, x, offset):
        # Beyond overflow of omega x the reference has no angle, while the
        # half angle (omega / 2) x still has one.
        assume(math.isfinite(P.omega * x))
        y = P.tau * math.sin(P.omega * x) + offset
        dx, dy = orthogonal_drift(P, x, y)
        ref_dx, ref_dy, gap = sincos_orthogonal_drift(P, x, y)
        carried = P.tau + abs(gap)
        assert within_ulps(dy, ref_dy, P.lam * carried)
        assert within_ulps(dx, ref_dx, P.lam * P.tau * P.omega * carried)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_x_gives_nan(self, x):
        with np.errstate(all="ignore"):
            d = orthogonal_drift(P, np.array([x, 0.1]), 1.0)
        assert np.isnan(d[0]).all() and np.isfinite(d[1]).all()


def same_float(a, b):
    """Equal bits, or both nan (whose sign and payload are not compared)."""
    a, b = np.float64(a), np.float64(b)
    return bool(np.isnan(a) and np.isnan(b)) or a.tobytes() == b.tobytes()


class TestValleyCoupling:
    @settings(max_examples=300, deadline=None)
    @given(h=st.floats(allow_nan=False, allow_infinity=False))
    @example(h=5e-324)
    @example(h=-2.2250738585072014e-308)
    @example(h=1e-300)
    @example(h=1e12)
    @example(h=1.7976931348623157e308)
    def test_float_matches_one_element_array_bitwise(self, h):
        with np.errstate(all="ignore"):
            on_float = valley_coupling(P, h)
            on_array = valley_coupling(P, np.array([h]))
        if math.isfinite(P.omega * h):
            assert all(type(v) is float for v in on_float)
        assert len(on_float) == len(on_array) == 4  # ..., sin(2 omega h)
        assert same_float(on_float[0], on_array[0])
        for v, a in zip(on_float[1:], on_array[1:]):
            assert same_float(v, a[0])

    @pytest.mark.parametrize("h", [math.inf, -math.inf, math.nan])
    def test_non_finite_float_gives_nan(self, h):
        with np.errstate(all="ignore"):
            _, c2, factor, s2 = valley_coupling(P, h)
        assert math.isnan(c2) and math.isnan(factor) and math.isnan(s2)


def same_bits_or_nan(a, b):
    """Elementwise: equal bits, or both nan."""
    return (a.view(np.uint64) == b.view(np.uint64)) | (np.isnan(a) & np.isnan(b))


def thirteen_call_drift(p, x, y, scale=1.0):
    """``scale`` times the orthogonal drift in the operation order of its
    thirteen-call in-place form, with the sine formed as ((u + u) / w) tau
    and the scale folded into lam and -(lam tau omega), and the half sine
    u / w: the reference that pins the bits of the bound drift."""
    u = x * (0.5 * p.omega)
    u = np.tan(u)
    u2 = u * u
    cos = 1.0 - u2
    w = u2 + 1.0
    cos = cos / w
    half_sine = u / w
    u = u + u
    u = u / w
    u = u * p.tau
    gap = u - y
    neg_lto, lam = -(p.lam * p.tau * p.omega) * scale, p.lam * scale
    return np.stack((neg_lto * gap * cos, gap * lam)), half_sine


P_KERNEL = BenchmarkParams(mu=2.0, lam=20.0, tau=0.2, omega=4.0, beta=1.0)


def edge_points(p):
    """x at and beside the half-angle pole pi/omega, beyond +-1e15 and
    non-finite, each with y on the valley, off it, and non-finite."""
    pole = math.pi / p.omega
    xs = [pole, -pole, np.nextafter(pole, 0.0), np.nextafter(pole, 4.0), 3.0 * pole,
          0.0, -0.0, 5e-324, 1e15, -1e15, 3e15, -7e16, 1e300, -1.7976931348623157e308,
          math.inf, -math.inf, math.nan]
    x = np.repeat(xs, 4)
    with np.errstate(all="ignore"):
        y = p.tau * np.sin(p.omega * x)
    y = y + np.tile([0.0, 0.5, math.inf, math.nan], len(xs))
    return x, y


class TestBoundOrthogonalDrift:
    """The bound drift writes sin(omega x) tau as (u / w)(2 tau) in twelve
    calls; it keeps the bits of the thirteen-call ((u + u) / w) tau, at any
    scale folded into its constants."""

    @pytest.mark.parametrize("p", [P, P_KERNEL])
    @settings(max_examples=300, deadline=None)
    @given(points=st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=16),
           scale=st.one_of(st.just(1.0), st.floats(1e-6, 10.0)))
    def test_matches_thirteen_call_order_bitwise(self, p, points, scale):
        edge_x, edge_y = edge_points(p)
        x = np.concatenate([[a for a, _ in points], edge_x])
        y = np.concatenate([[b for _, b in points], edge_y])
        out, cos = np.full((2,) + x.shape, np.nan), np.full_like(x, np.nan)
        with np.errstate(all="ignore"):
            bind_orthogonal_drift(p, x, y, out, cos, scale)()
            want, half_sine = thirteen_call_drift(p, x, y, scale)
        # Doubling is exact, so ((u + u) / w) tau and (u / w)(2 tau) round
        # the same quotient once each, unless u / w is subnormal: its
        # rounding then loses a bit that (u + u) / w keeps.  Those x are
        # left out.  (They keep the bits all the same, since u is then so
        # small that w is exactly 1 and u / w is exact, but that is a
        # property of tan, not of the form.)
        kept = ~((half_sine != 0.0) & (np.abs(half_sine) < np.finfo(float).tiny))
        assert same_bits_or_nan(out, want)[:, kept].all()

    def test_reads_the_live_arguments_and_matches_the_one_call_form(self):
        x, y = edge_points(P)
        out, cos = np.empty((2,) + x.shape), np.empty_like(x)
        drift = bind_orthogonal_drift(P, x, y, out, cos, 1.0)
        with np.errstate(all="ignore"):
            for shift in (0.0, 0.25):
                x += shift
                y -= shift
                assert drift() is None
                want = np.moveaxis(orthogonal_drift(P, x, y), -1, 0)
                assert same_bits_or_nan(out, want).all()
                assert same_bits_or_nan(out, thirteen_call_drift(P, x, y)[0]).all()


def flow_points(p, x0, n=200):
    """y on and off the valley at x0, and the invariant curves through them."""
    rng = np.random.default_rng(11)
    y = p.tau * np.sin(p.omega * x0) + rng.normal(scale=0.5, size=n)
    return y, orthogonal_invariant(p, x0, y)


class TestOrthogonalFlow:
    """The one-dimensional flow of y on the invariant curves of the
    orthogonal dynamics is the two-dimensional drift at the x that the
    invariant recovers."""

    X0S = (0.05, 0.3, -1.234, 2.9)  # cos(omega x0) of both signs at P and P_KERNEL

    @pytest.mark.parametrize("p", [P, P_KERNEL])
    @pytest.mark.parametrize("x0", X0S)
    def test_slope_is_the_y_drift_at_the_recovered_x(self, p, x0):
        y0, inv = flow_points(p, x0)
        for y in (y0, y0 - 0.3, y0 + 0.7):
            slope = np.empty_like(y)
            # The scaled slope, of v = y / tau in s = lam t, is dy/dt / (lam tau).
            assert bind_orthogonal_flow(p, y / p.tau, inv, slope)() is None
            x, _ = orthogonal_flow_point(p, x0, y, inv)
            dy = np.moveaxis(orthogonal_drift(p, x, y), -1, 0)[1]
            # sin(omega x) carries the rounding of omega x.
            scale = p.lam * (p.tau * (1.0 + abs(p.omega * x0)) + np.abs(y))
            assert np.all(np.abs(p.lam * p.tau * slope - dy)
                          <= 64 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("p", [P, P_KERNEL])
    @pytest.mark.parametrize("x0", X0S)
    def test_point_is_the_two_dimensional_drift_on_the_curve(self, p, x0):
        y0, inv = flow_points(p, x0)
        x, drift = orthogonal_flow_point(p, x0, y0, inv)
        # At the start the curve gives back x0 and the drift there.
        assert np.allclose(x, x0, rtol=1e-12, atol=1e-12)
        want = orthogonal_drift(p, x0, y0)
        assert np.allclose(drift, want, rtol=1e-10, atol=1e-10 * np.max(np.abs(want)))
        # Elsewhere on the curve, the drift is the one at the recovered x.
        for shift in (-0.3, 0.004, 0.7):
            x, drift = orthogonal_flow_point(p, x0, y0 + shift, inv)
            want = orthogonal_drift(p, x, y0 + shift)
            assert np.allclose(drift, want, rtol=1e-9, atol=1e-9 * np.max(np.abs(want)))

    @pytest.mark.parametrize("crest", [math.pi / (2 * P.omega), -math.pi / (2 * P.omega)])
    def test_crest_holds_x_with_the_drifts_own_cosine(self, crest):
        y0, inv = flow_points(P, crest)
        assert np.all(np.isinf(inv))
        slope, v = np.empty_like(y0), y0 / P.tau
        bind_orthogonal_flow(P, v, inv, slope)()
        assert np.array_equal(slope, np.sign(crest) - v)
        x, drift = orthogonal_flow_point(P, crest, y0 + 0.1, inv)
        assert np.all(x == crest)
        assert np.array_equal(drift, orthogonal_drift(P, x, y0 + 0.1))
        assert 0.0 < np.max(np.abs(drift[:, 0])) < 1e-10

    def test_no_valley_wavenumber_holds_x(self):
        # omega = 0: x' = 0, and x cannot be recovered by dividing by omega.
        p = BenchmarkParams(mu=2.0, lam=20.0, tau=2.0, omega=0.0, beta=1.0)
        y0, inv = flow_points(p, 0.3, n=5)
        x, drift = orthogonal_flow_point(p, 0.3, y0 + 0.1, inv)
        assert np.all(x == 0.3)
        assert np.array_equal(drift, orthogonal_drift(p, x, y0 + 0.1))
