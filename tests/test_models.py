import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzcg.benchmark import BenchmarkParams
from mzcg.kernel import memory_integral_closed_form
from mzcg.models import (
    MEMORY_CORRECTED,
    MEMORY_FREE,
    MODEL_KINDS,
    NAIVE_MEMORY,
    EffectiveModel,
    UnsupportedModelError,
    diffusion,
    drift,
    thermostatted_coefficients,
)

P = BenchmarkParams(mu=2.0, lam=20.0, tau=2.0, omega=10.0, beta=1.0)


def params_with_beta(beta):
    return BenchmarkParams(mu=2.0, lam=20.0, tau=2.0, omega=10.0, beta=beta)


class TestKinds:
    def test_unknown_kind_rejected(self):
        with pytest.raises(UnsupportedModelError):
            EffectiveModel("markovian", P)


class TestDrift:
    def test_memory_corrected_reduces_to_bare_descent_at_crest(self):
        h = np.pi / 20.0  # cos(omega h) = 0
        assert drift(EffectiveModel(MEMORY_CORRECTED, P), h) == pytest.approx(-P.mu * h)

    def test_memory_corrected_valley_slowdown(self):
        h = np.pi / 10.0  # cos^2(omega h) = 1
        assert drift(EffectiveModel(MEMORY_CORRECTED, P), h) == pytest.approx(
            -2.0 * h / 401.0
        )

    def test_memory_free_is_linear(self):
        h = np.linspace(-2, 2, 9)
        assert drift(EffectiveModel(MEMORY_FREE, P), h) == pytest.approx(-P.mu * h)

    def test_naive_memory_repels_at_valley_floor(self):
        h = np.pi / 10.0  # cos^2 = 1, sin(2 omega h) = 0
        value = drift(EffectiveModel(NAIVE_MEMORY, P), h)
        assert value == pytest.approx((8000.0 - 1.0) * 2.0 * h)
        assert value > 0.0  # pushes away from the origin

    def test_all_drifts_vanish_at_origin(self):
        for kind in (MEMORY_CORRECTED, MEMORY_FREE, NAIVE_MEMORY):
            assert drift(EffectiveModel(kind, P), 0.0) == 0.0

    def test_memory_corrected_beta_independent_bitwise(self):
        h = np.linspace(-3, 3, 101)
        a = drift(EffectiveModel(MEMORY_CORRECTED, params_with_beta(1.0)), h)
        b = drift(EffectiveModel(MEMORY_CORRECTED, params_with_beta(100.0)), h)
        assert np.array_equal(a, b)

    def test_memory_corrected_only_slows_relaxation(self):
        rng = np.random.default_rng(9)
        h = rng.uniform(-5, 5, 500)
        assert np.all(np.abs(drift(EffectiveModel(MEMORY_CORRECTED, P), h)) <= P.mu * np.abs(h))

    def test_memory_corrected_consistent_with_collapsed_memory_integral(self):
        # -(mu h - drift_term) == -mu h / (1 + tau^2 omega^2 cos^2) to 1e-12.
        rng = np.random.default_rng(10)
        h = rng.uniform(-3, 3, 200)
        drift_term, _ = memory_integral_closed_form(P, h)
        reconstructed = -(P.mu * h - drift_term)
        direct = drift(EffectiveModel(MEMORY_CORRECTED, P), h)
        assert np.max(np.abs(reconstructed - direct)) < 1e-12


def same_float(a, b):
    """Equal bits, or both nan (whose sign and payload are not compared)."""
    a, b = np.float64(a), np.float64(b)
    return bool(np.isnan(a) and np.isnan(b)) or a.tobytes() == b.tobytes()


class TestDriftOnFloats:
    """A Python float is evaluated in Python floats, as the model flows of
    ``mean-trajectory`` step it, with the bits of a one-element array."""

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @settings(max_examples=300, deadline=None)
    @given(h=st.floats(allow_nan=False, allow_infinity=False))
    @example(h=5e-324)
    @example(h=-2.2250738585072014e-308)
    @example(h=1e-300)
    @example(h=-0.0)
    @example(h=1e12)
    @example(h=1.7976931348623157e308)
    def test_float_matches_one_element_array_bitwise(self, kind, h):
        model = EffectiveModel(kind, P)
        with np.errstate(all="ignore"):
            value = drift(model, h)
            expected = drift(model, np.array([h]))[0]
        if math.isfinite(2.0 * P.omega * h):
            assert type(value) is float
        assert same_float(value, expected)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("h", [math.inf, -math.inf, math.nan])
    def test_non_finite_float_gives_what_the_array_gives(self, kind, h):
        model = EffectiveModel(kind, P)
        with np.errstate(all="ignore"):
            value = drift(model, h)
            assert same_float(value, drift(model, np.array([h]))[0])
        if kind != MEMORY_FREE or math.isnan(h):
            assert math.isnan(value)


class TestDiffusion:
    def test_memory_corrected_crest(self):
        assert diffusion(EffectiveModel(MEMORY_CORRECTED, P), np.pi / 20.0) == pytest.approx(1.0)

    def test_memory_corrected_valley(self):
        assert diffusion(EffectiveModel(MEMORY_CORRECTED, P), np.pi / 10.0) == pytest.approx(
            1.0 / np.sqrt(401.0)
        )

    def test_memory_free_constant(self):
        h = np.linspace(-2, 2, 7)
        assert diffusion(EffectiveModel(MEMORY_FREE, P), h) == pytest.approx(np.ones(7))

    def test_naive_memory_has_no_noise_closure(self):
        with pytest.raises(UnsupportedModelError):
            diffusion(EffectiveModel(NAIVE_MEMORY, P), 0.1)


class TestThermostattedCoefficients:
    def test_memory_free_has_no_noise_induced_drift(self):
        model = EffectiveModel(MEMORY_FREE, P)
        h = np.linspace(-2, 2, 9)
        b, sigma = thermostatted_coefficients(model, h)
        assert np.array_equal(b, drift(model, h))
        assert np.array_equal(sigma, diffusion(model, h))

    def test_naive_memory_has_no_noise_closure(self):
        with pytest.raises(UnsupportedModelError):
            thermostatted_coefficients(EffectiveModel(NAIVE_MEMORY, P), 0.1)
