import math
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import quad

from mzcg import kernel
from mzcg.benchmark import (
    BenchmarkParams,
    conditional_y_sample,
    orthogonal_drift,
    orthogonal_invariant,
)
from mzcg.geometry import build_cg_map
from mzcg.kernel import (
    KernelEstimate,
    _rk4_march,
    _sample_orthogonal_drifts,
    approx_kernel,
    approx_kernel_div,
    default_lag_grid,
    empirical_kernel,
    empirical_kernel_matrix,
    fit_decay_rate,
    kernel_decay_rate,
    memory_integral_closed_form,
    orthogonal_trajectory,
)
from mzcg.sde import IntegratorConfig, NoiseStream, NumericalBlowupError

P = BenchmarkParams(mu=2.0, lam=20.0, tau=2.0, omega=10.0, beta=1.0)
P_SMALL = BenchmarkParams(mu=2.0, lam=20.0, tau=0.2, omega=4.0, beta=1.0)

X0_VALLEY = np.pi / 10.0  # cos(omega x0) = -1
X0_CREST = np.pi / 20.0  # cos(omega x0) = 0


def kernel_cfg(p, lags):
    return IntegratorConfig(dt=1e-4 / p.lam, t_final=lags[-1])


class TestApproxKernel:
    def test_amplitude_at_zero_lag(self):
        assert approx_kernel(P, 0.0, X0_VALLEY) == pytest.approx(8000.0)

    def test_vanishes_at_crest(self):
        s = np.linspace(0.0, 1.0, 7)
        assert np.allclose(approx_kernel(P, s, X0_CREST), 0.0, atol=1e-9)

    def test_monotone_decay_to_zero(self):
        s = np.linspace(0.0, 2e-3, 100)
        v = approx_kernel(P, s, X0_VALLEY)
        assert np.all(np.diff(v) < 0.0)
        assert approx_kernel(P, 10.0, X0_VALLEY) == pytest.approx(0.0, abs=1e-12)


class TestApproxKernelDiv:
    def test_matches_finite_difference_in_h(self):
        rng = np.random.default_rng(4)
        eps = 1e-6
        for _ in range(100):
            s = rng.uniform(0.0, 3.0 / kernel_decay_rate(P, 0.0))
            h = rng.uniform(-2.0, 2.0)
            fd = (approx_kernel(P, s, h + eps) - approx_kernel(P, s, h - eps)) / (2 * eps)
            val = approx_kernel_div(P, s, h)
            assert abs(val - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_zero_where_sin_2wh_vanishes(self):
        for h in (0.0, np.pi / 20.0, np.pi / 10.0):
            assert approx_kernel_div(P, 0.37, h) == pytest.approx(0.0, abs=1e-10)

    def test_interior_zero_of_bracket(self):
        h = 0.05
        c2 = np.cos(P.omega * h) ** 2
        s_zero = 1.0 / (P.lam * P.tau**2 * P.omega**2 * c2)
        assert approx_kernel_div(P, s_zero, h) == pytest.approx(0.0, abs=1e-12)


class TestMemoryIntegralClosedForm:
    def test_drift_term_matches_quadrature(self):
        for h in (0.11, 0.4, -0.73, 1.9):
            rate = kernel_decay_rate(P, h)
            ref, _ = quad(lambda s: approx_kernel(P, s, h) * P.mu * h, 0.0, 50.0 / rate,
                          epsabs=1e-13, epsrel=1e-10)
            drift_term, _ = memory_integral_closed_form(P, h)
            assert drift_term == pytest.approx(ref, rel=1e-6)

    def test_div_term_matches_quadrature(self):
        for h in (0.11, 0.4, -0.73, 1.9):
            rate = kernel_decay_rate(P, h)
            ref, _ = quad(lambda s: -approx_kernel_div(P, s, h) / P.beta, 0.0, 50.0 / rate,
                          epsabs=1e-13, epsrel=1e-10)
            _, div_term = memory_integral_closed_form(P, h)
            assert div_term == pytest.approx(ref, rel=1e-6, abs=1e-12)

    def test_trigonometric_zeros(self):
        drift_term, div_term = memory_integral_closed_form(P, X0_VALLEY)
        t2w2 = P.tau**2 * P.omega**2
        assert drift_term == pytest.approx(t2w2 / (1.0 + t2w2) * P.mu * X0_VALLEY)
        assert div_term == pytest.approx(0.0, abs=1e-12)


class TestOrthogonalTrajectory:
    def test_constant_on_manifold(self):
        x0 = 0.42
        y0 = P.tau * np.sin(P.omega * x0)
        cfg = IntegratorConfig(dt=1e-5, t_final=1e-3, record_stride=10)
        _, states = orthogonal_trajectory(P, x0, y0, cfg)
        assert np.all(states[:, 0] == x0)
        assert np.all(states[:, 1] == y0)

    def test_linear_regime_velocity_formula(self):
        # Tiny initial displacement: the resolved velocity follows
        # lam tau omega v0 cos(omega x0) exp(-rate s) within 1%.
        v0 = 1e-4
        rate = kernel_decay_rate(P, X0_VALLEY)
        cfg = IntegratorConfig(dt=1e-4 / P.lam, t_final=3.0 / rate, record_stride=10)
        times, states = orthogonal_trajectory(
            P, X0_VALLEY, P.tau * np.sin(P.omega * X0_VALLEY) + v0, cfg)
        xdot = orthogonal_drift(P, states[:, 0], states[:, 1])[:, 0]
        c = np.cos(P.omega * X0_VALLEY)
        predicted = P.lam * P.tau * P.omega * v0 * c * np.exp(-rate * times)
        assert np.max(np.abs(xdot - predicted) / np.abs(predicted)) < 0.01

    @pytest.mark.parametrize("omega, x0", [(P.omega, X0_CREST), (0.0, 0.3)])
    def test_y_that_leaves_range_alone_is_a_blowup(self, omega, x0):
        # At a crest, or at omega = 0, x is held at x0, so a step that
        # takes y straight to nan leaves x finite: each coordinate is tested.
        p = BenchmarkParams(mu=2.0, lam=20.0, tau=2.0, omega=omega, beta=1.0)
        cfg = IntegratorConfig(dt=1e307, t_final=3e307)
        with np.errstate(all="ignore"), pytest.raises(NumericalBlowupError) as err:
            orthogonal_trajectory(p, x0, 1.0, cfg)
        assert err.value.step == 1
        times, states = err.value.recorded
        assert times.tolist() == [0.0]
        assert states.tolist() == [[x0, 1.0]]

    def test_rk4_fourth_order_convergence(self):
        x0, y0 = 0.3, P.tau * np.sin(P.omega * 0.3) + 0.05
        horizon = 3.0 / kernel_decay_rate(P, x0)

        def endpoint(dt):
            cfg = IntegratorConfig(dt=dt, t_final=horizon,
                                   record_stride=max(1, int(round(horizon / dt))))
            return orthogonal_trajectory(P, x0, y0, cfg)[1][-1]

        base = horizon / 64.0
        ref = endpoint(base / 8.0)
        err_coarse = np.linalg.norm(endpoint(base) - ref)
        err_fine = np.linalg.norm(endpoint(base / 2.0) - ref)
        assert 10.0 < err_coarse / err_fine < 22.0


def allocating_rk4_march(p, x, y, span, dt):
    """The two-dimensional RK4 of the orthogonal dynamics, x and y stepped
    together under the substeps of span and dt: the reference that the
    library's one-dimensional march on the invariant curves follows within
    the two marches' truncation errors."""
    n_sub = max(1, math.ceil(span / dt - 1e-12))
    h = span / n_sub
    for _ in range(n_sub):
        k1x, k1y = np.moveaxis(orthogonal_drift(p, x, y), -1, 0)
        k2x, k2y = np.moveaxis(
            orthogonal_drift(p, x + (0.5 * h) * k1x, y + (0.5 * h) * k1y), -1, 0)
        k3x, k3y = np.moveaxis(
            orthogonal_drift(p, x + (0.5 * h) * k2x, y + (0.5 * h) * k2y), -1, 0)
        k4x, k4y = np.moveaxis(orthogonal_drift(p, x + h * k3x, y + h * k3y), -1, 0)
        x = x + (h / 6.0) * (k1x + 2.0 * (k2x + k3x) + k4x)
        y = y + (h / 6.0) * (k1y + 2.0 * (k2y + k3y) + k4y)
    return x, y


def allocating_flow_march(p, y, inv, span, dt):
    """RK4 of the flow on the invariant curves in the allocating form that
    the in-place march must equal bit for bit: v = y / tau stepped in
    s = lam t, under the substeps of span and dt."""
    n_sub = max(1, math.ceil(span / dt - 1e-12))
    h = p.lam * span / n_sub
    t2w2 = p.tau * p.tau * p.omega * p.omega

    def slope(v):
        return np.tanh(inv - t2w2 * v) - v

    v = y / p.tau
    for _ in range(n_sub):
        k1 = slope(v)
        k2 = slope(v + (0.5 * h) * k1)
        k3 = slope(v + (0.5 * h) * k2)
        k4 = slope(v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return v * p.tau


def flow_samples(p, n):
    """y off the valley at random x, the first at a crest, and their invariants."""
    rng = np.random.default_rng(n)
    x = rng.uniform(-3.0, 3.0, n)
    x[0] = np.pi / (2.0 * p.omega)
    y = p.tau * np.sin(p.omega * x) + rng.normal(scale=0.5, size=n)
    inv = np.array([orthogonal_invariant(p, xi, yi) for xi, yi in zip(x, y)])
    return y, inv


# x0 next to the crest X0_CREST, with |cos(omega x0)| = 1e-6, 1e-7 and 3e-8.
NEAR_CREST = [X0_CREST - c / P.omega for c in (1e-6, 1e-7, 3e-8)]


def extended_precision_march(p, x0, y0, lags, dt):
    """The two-dimensional RK4 of the sampler's substeps in long double, with
    the drift from sin and cos: the states (x, y) at every lag, shape
    (n_lags, 2, n), and the drift function, both in long double."""
    lam, tau, omega = (np.longdouble(v) for v in (p.lam, p.tau, p.omega))

    def drift(x, y):
        gap = tau * np.sin(omega * x) - y
        return np.stack((-lam * tau * omega * gap * np.cos(omega * x), lam * gap))

    z = np.stack((np.full(len(y0), x0), y0)).astype(np.longdouble)
    states = [z]
    for span in np.diff(lags):
        n_sub = max(1, math.ceil(span / dt - 1e-12))
        h = np.longdouble(span) / n_sub
        for _ in range(n_sub):
            k1 = drift(*z)
            k2 = drift(*(z + h / 2 * k1))
            k3 = drift(*(z + h / 2 * k2))
            k4 = drift(*(z + h * k3))
            z = z + h / 6 * (k1 + 2 * (k2 + k3) + k4)
        states.append(z)
    return np.stack(states), drift


def extended_precision_drifts(p, x0, y0, lags, dt):
    """The orthogonal drifts at every lag from :func:`extended_precision_march`,
    rounded to double: shape (n_lags, n, 2)."""
    states, drift = extended_precision_march(p, x0, y0, lags, dt)
    return np.stack([drift(*z) for z in states]).transpose(0, 2, 1).astype(float)


class TestFlowMarch:
    @pytest.mark.parametrize("p", [P, P_SMALL])
    @pytest.mark.parametrize("n", [1, 7, 2000])
    def test_in_place_march_equals_allocating_form_bitwise(self, p, n):
        y, inv = flow_samples(p, n)
        dt = 1e-4 / p.lam
        got = _rk4_march(p, y, inv, 7.5 * dt, dt)
        want = allocating_flow_march(p, y, inv, 7.5 * dt, dt)
        assert got is not y
        assert got.tobytes() == want.tobytes()

    def test_fourth_order_convergence(self):
        y, inv = flow_samples(P, 7)
        horizon = 3.0 / kernel_decay_rate(P, 0.3)
        base = horizon / 16.0
        ref = _rk4_march(P, y, inv, horizon, base / 8.0)
        err_coarse = np.linalg.norm(_rk4_march(P, y, inv, horizon, base) - ref)
        err_fine = np.linalg.norm(_rk4_march(P, y, inv, horizon, base / 2.0) - ref)
        assert 10.0 < err_coarse / err_fine < 22.0

    @pytest.mark.parametrize("x0", [0.05, 0.3, X0_VALLEY, X0_CREST] + NEAR_CREST[:2])
    def test_drifts_at_every_lag_follow_the_two_dimensional_march(self, x0):
        # cos(omega x0) > 0 at 0.05, < 0 at 0.3, -1 at the valley, 0 at the
        # crest, and 1e-6 and 1e-7 next to it.
        lags = default_lag_grid(P, x0, n_lags=12, efolds=1.0 if x0 == X0_CREST else 5.0)
        cfg = kernel_cfg(P, lags)
        n = 64
        got = _sample_orthogonal_drifts(P, x0, lags, n, NoiseStream(3, 0), cfg, 1)
        x = np.full(n, x0)
        y = conditional_y_sample(P, x0, [NoiseStream(3, i) for i in range(n)])
        want = np.empty_like(got)
        want[0] = orthogonal_drift(P, x, y)
        for li in range(1, len(lags)):
            x, y = allocating_rk4_march(P, x, y, lags[li] - lags[li - 1], cfg.dt)
            want[li] = orthogonal_drift(P, x, y)
        assert np.array_equal(got[0], want[0])
        # The two marches differ by their truncation errors, about 5e-10 of
        # the largest drift at dt = 1e-4 / lam.
        assert np.allclose(got, want, rtol=0.0, atol=1e-8 * np.max(np.abs(want)))

    def test_trajectory_refuses_a_flat_valley(self):
        p = BenchmarkParams(mu=2.0, lam=20.0, tau=0.0, omega=10.0, beta=1.0)
        with pytest.raises(ValueError, match="tau > 0"):
            orthogonal_trajectory(p, X0_VALLEY, 0.1, IntegratorConfig(dt=1e-5, t_final=1e-4))

    @pytest.mark.parametrize("x0", [0.05, 0.3, X0_VALLEY, NEAR_CREST[0]])
    def test_trajectory_follows_the_two_dimensional_march(self, x0):
        # One characteristic from half a unit off the valley, over five
        # decay times (one next to the crest, where the decay is slow),
        # against the two-dimensional march at the same step: x and y each
        # within the sampler's bound of their largest value.
        y0 = P.tau * np.sin(P.omega * x0) + 0.5
        dt, stride = 1e-4 / P.lam, 10
        efolds = 1.0 if x0 == NEAR_CREST[0] else 5.0
        n_rec = math.ceil(efolds / kernel_decay_rate(P, x0) / (stride * dt))
        cfg = IntegratorConfig(dt=dt, t_final=n_rec * stride * dt, record_stride=stride)
        _, got = orthogonal_trajectory(P, x0, y0, cfg)
        x, y = np.array([x0]), np.array([y0])
        want = [(x0, y0)]
        for step in range(1, cfg.n_steps + 1):
            x, y = allocating_rk4_march(P, x, y, dt, dt)
            if step % stride == 0:
                want.append((x[0], y[0]))
        want = np.array(want)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-8 * np.max(np.abs(want), axis=0))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 2.0**-60,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("x0", NEAR_CREST)
    def test_drifts_next_to_a_crest_follow_an_extended_precision_march(self, x0):
        # Next to a crest the double two-dimensional march keeps x to an ulp,
        # which moves cos(omega x) by about eps / |cos(omega x0)| of itself:
        # 1.7e-8 of the largest drift at 3e-8, beyond the bound above.  The
        # same RK4 in long double has no such error.
        lags = default_lag_grid(P, x0, n_lags=12, efolds=1.0)
        cfg = kernel_cfg(P, lags)
        n = 64
        got = _sample_orthogonal_drifts(P, x0, lags, n, NoiseStream(3, 0), cfg, 1)
        y = conditional_y_sample(P, x0, [NoiseStream(3, i) for i in range(n)])
        want = extended_precision_drifts(P, x0, y, lags, cfg.dt)
        assert np.allclose(got, want, rtol=0.0, atol=1e-8 * np.max(np.abs(want)))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 2.0**-60,
                        reason="long double is no wider than double here")
    def test_trajectory_next_to_a_crest_keeps_x_to_its_last_digits(self):
        # A start next to a crest runs up to it, where x recovered from the
        # curve as asin(tanh(z)) / omega would lose eps / |cos(omega x)| of
        # omega x; atan(sinh(z)) keeps x as the two-dimensional march does.
        x0 = NEAR_CREST[0]
        y0 = P.tau * np.sin(P.omega * x0) + 0.5
        dt, stride = 1e-4 / P.lam, 200
        cfg = IntegratorConfig(dt=dt, t_final=10 * stride * dt, record_stride=stride)
        times, got = orthogonal_trajectory(P, x0, y0, cfg)
        want, _ = extended_precision_march(P, x0, np.array([y0]), times, dt)
        assert np.all(np.abs(got[:, 0] - want[:, 0, 0].astype(float)) < 1e-13)


class TestKernelLayerView:
    def test_sampler_marches_through_the_module_name_with_the_traced_arguments(self):
        # A layer trace wraps kernel._rk4_march and counts each call's
        # substeps from its (p, state, _, span, dt) arguments.
        calls = []
        march = kernel._rk4_march

        def counting(*args):
            calls.append(args)
            return march(*args)

        lags = default_lag_grid(P, X0_VALLEY, n_lags=9)
        cfg = kernel_cfg(P, lags)
        with mock.patch.object(kernel, "_rk4_march", counting):
            empirical_kernel(P, X0_VALLEY, lags, 5, NoiseStream(1, 0), cfg)
        assert len(calls) == len(lags) - 1
        counted = 0
        for (p, state, _, span, dt), gap in zip(calls, np.diff(lags)):
            assert p is P and state.shape == (5,)
            assert (span, dt) == (gap, cfg.dt)
            counted += len(state) * max(1, math.ceil(span / dt - 1e-12))
        assert counted == 5 * sum(math.ceil(d / cfg.dt - 1e-12) for d in np.diff(lags))


class TestEmpiricalKernel:
    def test_lag_grid_must_start_at_zero(self):
        with pytest.raises(ValueError):
            empirical_kernel(P, X0_VALLEY, np.array([1e-4, 2e-4]), 16,
                             NoiseStream(1, 0), IntegratorConfig(dt=1e-5, t_final=1e-3))

    def test_needs_two_samples(self):
        lags = default_lag_grid(P, X0_VALLEY, n_lags=8)
        with pytest.raises(ValueError):
            empirical_kernel(P, X0_VALLEY, lags, 1, NoiseStream(1, 0), kernel_cfg(P, lags))

    def test_lags_within_horizon(self):
        lags = default_lag_grid(P, X0_VALLEY, n_lags=8)
        with pytest.raises(ValueError):
            empirical_kernel(P, X0_VALLEY, lags, 8, NoiseStream(1, 0),
                             IntegratorConfig(dt=1e-6, t_final=lags[-1] / 2.0))

    def test_sampler_refuses_a_flat_valley(self):
        # The march steps y / tau, which tau = 0 leaves undefined.
        p = BenchmarkParams(mu=2.0, lam=20.0, tau=0.0, omega=10.0, beta=1.0)
        lags = default_lag_grid(P, X0_VALLEY, n_lags=8)
        with pytest.raises(ValueError, match="tau > 0"):
            _sample_orthogonal_drifts(p, X0_VALLEY, lags, 8, NoiseStream(1, 0),
                                      kernel_cfg(P, lags), 1)

    def test_zero_lag_amplitude(self):
        lags = default_lag_grid(P, X0_VALLEY, n_lags=12)
        est = empirical_kernel(P, X0_VALLEY, lags, 400, NoiseStream(1, 0), kernel_cfg(P, lags))
        assert abs(est.values[0] - 8000.0) < 3.0 * est.stderr[0]

    def test_crest_conditioning_gives_negligible_kernel(self):
        # cos(omega x0) = 0 kills the resolved fluctuation drift at lag zero
        # (up to float cos(pi/2) ~ 6e-17), so all lag products are negligible
        # against the valley amplitude scale of 8000.
        lags = default_lag_grid(P, X0_CREST, n_lags=10)
        est = empirical_kernel(P, X0_CREST, lags, 64, NoiseStream(1, 0), kernel_cfg(P, lags))
        assert np.max(np.abs(est.values)) < 1e-6

    def test_decay_rate_fit(self):
        lags = default_lag_grid(P, X0_VALLEY)
        est = empirical_kernel(P, X0_VALLEY, lags, 600, NoiseStream(1, 0), kernel_cfg(P, lags))
        rate = kernel_decay_rate(P, X0_VALLEY)
        fitted = fit_decay_rate(lags, est.values, s_max=2.0 / rate)
        assert fitted == pytest.approx(-rate, rel=0.10)

    def test_monotone_decay_envelope(self):
        lags = default_lag_grid(P, X0_VALLEY)
        est = empirical_kernel(P, X0_VALLEY, lags, 600, NoiseStream(1, 0), kernel_cfg(P, lags))
        assert np.all(est.values[0] >= est.values - 3.0 * est.stderr)


@pytest.fixture(scope="module")
def small_valley_estimate():
    p = P_SMALL
    x0 = np.pi / p.omega
    lags = default_lag_grid(p, x0)
    est = empirical_kernel(p, x0, lags, 2000, NoiseStream(1, 0), kernel_cfg(p, lags))
    return p, x0, lags, est


class TestAgreementRegime:
    def test_strong_coupling_case_meets_tight_envelope(self):
        lags = default_lag_grid(P, X0_VALLEY)
        est = empirical_kernel(P, X0_VALLEY, lags, 2000, NoiseStream(1, 0), kernel_cfg(P, lags))
        rate = kernel_decay_rate(P, X0_VALLEY)
        mask = lags <= 2.0 / rate * (1.0 + 1e-12)
        ref = approx_kernel(P, lags[mask], X0_VALLEY)
        diff = np.abs(est.values[mask] - ref)
        assert np.all((diff <= 0.10 * np.abs(ref)) | (diff <= 3.0 * est.stderr[mask]))

    @pytest.mark.xfail(
        strict=True,
        reason="initial fluctuation std 1/sqrt(lam beta) ~ 0.22 exceeds tau=0.2, so the"
        " linearised kernel is up to ~8.3% off over the fit window; the seed-1 Monte Carlo"
        " estimate sits about 1 stderr low, 10.1-11.1% off, beyond max(10%, 3 stderr) at"
        " n=2000, where the stderr is only ~3-4%, so the outcome depends on the seed",
    )
    def test_weak_coupling_case_tight_envelope(self, small_valley_estimate):
        p, x0, lags, est = small_valley_estimate
        rate = kernel_decay_rate(p, x0)
        mask = lags <= 2.0 / rate * (1.0 + 1e-12)
        ref = approx_kernel(p, lags[mask], x0)
        diff = np.abs(est.values[mask] - ref)
        assert np.all((diff <= 0.10 * np.abs(ref)) | (diff <= 3.0 * est.stderr[mask]))

    def test_weak_coupling_case_within_achievable_envelope(self, small_valley_estimate):
        p, x0, lags, est = small_valley_estimate
        rate = kernel_decay_rate(p, x0)
        mask = lags <= 2.0 / rate * (1.0 + 1e-12)
        ref = approx_kernel(p, lags[mask], x0)
        diff = np.abs(est.values[mask] - ref)
        assert np.all((diff <= 0.15 * np.abs(ref)) | (diff <= 3.0 * est.stderr[mask]))

    def test_weak_coupling_decay_rate_within_ten_percent(self, small_valley_estimate):
        p, x0, lags, est = small_valley_estimate
        rate = kernel_decay_rate(p, x0)
        fitted = fit_decay_rate(lags, est.values, s_max=2.0 / rate)
        assert fitted == pytest.approx(-rate, rel=0.10)


class TestKernelMatrix:
    def test_resolved_block_equals_scalar_kernel_bitwise(self):
        cg = build_cg_map([[1.0, 0.0]])
        lags = default_lag_grid(P, X0_VALLEY, n_lags=16)
        cfg = kernel_cfg(P, lags)
        est = empirical_kernel(P, X0_VALLEY, lags, 256, NoiseStream(1, 0), cfg)
        mat = empirical_kernel_matrix(P, cg, X0_VALLEY, lags, 256, NoiseStream(1, 0), cfg)
        assert np.array_equal(mat.values[:, 0, 0], est.values)
        assert np.array_equal(mat.stderr[:, 0, 0], est.stderr)

    def test_cross_block_vanishes_at_zero_lag_for_crest(self):
        cg = build_cg_map([[1.0, 0.0]])
        lags = default_lag_grid(P, X0_CREST, n_lags=10)
        mat = empirical_kernel_matrix(P, cg, X0_CREST, lags, 64, NoiseStream(1, 0),
                                      kernel_cfg(P, lags))
        # resolved drift at lag 0 carries the cos(omega x0) ~ 6e-17 factor
        assert abs(mat.values[0, 0, 1]) < 1e-6

    def test_cross_block_decays_rapidly_at_valley(self):
        # log |M12| drops by at least 4 over ten decay windows, n=2000.
        cg = build_cg_map([[1.0, 0.0]])
        lags = default_lag_grid(P, X0_VALLEY, n_lags=40, efolds=10.0)
        mat = empirical_kernel_matrix(P, cg, X0_VALLEY, lags, 2000, NoiseStream(1, 0),
                                      kernel_cfg(P, lags))
        m12 = mat.values[:, 0, 1]
        window = 10.0 / (P.lam * (1.0 + P.tau**2 * P.omega**2))
        in_window = lags <= window * (1.0 + 1e-12)
        drop = np.log(np.abs(m12[0])) - np.log(np.abs(m12[in_window][-1]))
        assert drop >= 4.0


class TestEstimateTypes:
    def test_kernel_estimate_validation(self):
        good = dict(x0=0.0, lags=np.array([0.0, 1.0]), values=np.zeros(2),
                    stderr=np.zeros(2), n_samples=2)
        KernelEstimate(**good)
        with pytest.raises(ValueError):
            KernelEstimate(**{**good, "lags": np.array([0.5, 1.0])})
        with pytest.raises(ValueError):
            KernelEstimate(**{**good, "n_samples": 1})
        with pytest.raises(ValueError):
            KernelEstimate(**{**good, "values": np.zeros(3)})


class TestLagGridAndFit:
    def test_default_grid_shape(self):
        lags = default_lag_grid(P, X0_VALLEY, n_lags=60, efolds=5.0)
        assert lags[0] == 0.0
        assert len(lags) == 60
        assert np.all(np.diff(lags) > 0.0)
        assert lags[-1] == pytest.approx(5.0 / kernel_decay_rate(P, X0_VALLEY))

    def test_fit_recovers_exact_exponential(self):
        s = np.linspace(0.0, 1.0, 50)
        v = 3.0 * np.exp(-7.5 * s)
        assert fit_decay_rate(s, v) == pytest.approx(-7.5, rel=1e-10)
