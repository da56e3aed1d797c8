import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzcg.benchmark import BenchmarkParams, bind_valley_coupling, valley_coupling
from mzcg.kernel import memory_integral_closed_form
from mzcg.models import (
    MEMORY_CORRECTED,
    MEMORY_FREE,
    MODEL_KINDS,
    NAIVE_MEMORY,
    EffectiveModel,
    UnsupportedModelError,
    bind_coefficients,
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


# Signed zeros, subnormals, the blowup limit, huge and non-finite arguments.
EDGE_H = np.array([
    0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e12, -1e12, 1e300, -1e300,
    1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan,
])


def same_bits(a, b):
    """Equal shapes and bits, nan payloads included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_coefficients(model, h, beta):
    """(b, sigma) of the thermostatted model from drift, diffusion and the
    kernel's closed-form noise-induced drift, one beta at a time: a
    reference written apart from thermostatted_coefficients."""
    if model.kind == MEMORY_FREE:
        return drift(model, h), diffusion(model, h)
    rows = [
        drift(model, h) + memory_integral_closed_form(replace(P, beta=float(b)), h)[1]
        for b in np.ravel(P.beta if beta is None else beta)
    ]
    return (np.stack(rows) if np.ndim(beta) == 2 else rows[0]), diffusion(model, h)


class TestInPlaceCoefficients:
    """The coefficients, in caller buffers or new ones, have the bits of the
    model's drift, diffusion and closed-form noise-induced drift, which the
    engine's model planes rely on."""

    @pytest.mark.parametrize("kind", [MEMORY_CORRECTED, MEMORY_FREE])
    @settings(max_examples=100, deadline=None)
    @given(
        h=st.lists(st.floats(), max_size=20),
        beta=st.one_of(
            st.none(),
            st.floats(1e-3, 1e3),
            st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4),
        ),
    )
    def test_out_equals_allocating_call_bitwise(self, kind, h, beta):
        model = EffectiveModel(kind, P)
        h = np.concatenate([np.array(h, dtype=float), EDGE_H])
        if isinstance(beta, list):
            beta = np.array(beta).reshape(-1, 1)
        shape = np.broadcast_shapes(h.shape, np.shape(beta) if beta is not None else ())
        with np.errstate(all="ignore"):
            b, sigma = reference_coefficients(model, h, beta)
            allocated = thermostatted_coefficients(model, h, beta)
        assert same_bits(allocated[0], np.broadcast_to(b, shape))
        assert same_bits(allocated[1], np.broadcast_to(sigma, shape))

    @pytest.mark.parametrize("kind", [MEMORY_CORRECTED, MEMORY_FREE])
    @settings(max_examples=100, deadline=None)
    @given(
        h=st.lists(st.floats(), min_size=1, max_size=20),
        beta=st.one_of(
            st.floats(1e-3, 1e3), st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4)
        ),
    )
    def test_bound_function_equals_thermostatted_coefficients_bitwise(self, kind, h, beta):
        # Bound once, as the engine binds each model per march, and called on
        # two arguments in turn: each call has the bits of its own
        # thermostatted_coefficients call.
        model = EffectiveModel(kind, P)
        h = np.concatenate([np.array(h, dtype=float), EDGE_H])
        if isinstance(beta, list):
            beta = np.array(beta).reshape(-1, 1)
        shape = np.broadcast_shapes(h.shape, np.shape(beta))
        out = (np.empty(shape), np.empty(shape))
        coefficients = bind_coefficients(model, out, beta, np.empty(shape))
        with np.errstate(all="ignore"):
            for arg in (h, h[::-1] * 0.5):
                assert coefficients(arg) is None
                b, sigma = thermostatted_coefficients(model, arg, beta)
                assert same_bits(out[0], b) and same_bits(out[1], sigma)

    def test_naive_memory_cannot_be_bound(self):
        with pytest.raises(UnsupportedModelError):
            bind_coefficients(EffectiveModel(NAIVE_MEMORY, P), (np.empty(1), np.empty(1)))

    @settings(max_examples=100, deadline=None)
    @given(h=st.lists(st.floats(), max_size=20))
    def test_valley_coupling_out_equals_allocating_call_bitwise(self, h):
        h = np.concatenate([np.array(h, dtype=float), EDGE_H])
        out = tuple(np.empty_like(h) for _ in range(3))
        with np.errstate(all="ignore"):
            expected = valley_coupling(P, h)
            assert bind_valley_coupling(P, out)(h) is None
        for g, e in zip(out, expected[1:]):
            assert same_bits(g, e)
        assert np.isnan(out[1][-1]) and np.isnan(out[2][-1])
