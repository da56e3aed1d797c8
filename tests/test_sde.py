import functools
import math
import os
import pickle
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzcg import kernel
from mzcg.benchmark import BenchmarkParams, grad_potential
from mzcg.kernel import _sample_orthogonal_drifts, memory_integral_closed_form
from mzcg.models import (
    MEMORY_CORRECTED,
    MEMORY_FREE,
    NAIVE_MEMORY,
    EffectiveModel,
    diffusion,
    drift,
)
from mzcg.sde import (
    GridMismatchError,
    IntegratorConfig,
    NoiseStream,
    NumericalBlowupError,
    Trajectory,
    ensemble_mean,
    integrate_crn_batch,
    integrate_flow_batch,
    integrate_full_batch,
    integrate_scalar_batch,
    map_stream_blocks,
    simulate_full,
    simulate_scalar,
)

P = BenchmarkParams(mu=2.0, lam=20.0, tau=2.0, omega=10.0, beta=1.0)
# tau=0 decouples the coordinates: x is an exact Ornstein-Uhlenbeck process.
P_OU = BenchmarkParams(mu=0.5, lam=20.0, tau=0.0, omega=10.0, beta=1.0)


class TestNoiseStream:
    def test_replay_reproduces_draws(self):
        a = NoiseStream(123, 7).pairs(100)
        b = NoiseStream(123, 7).pairs(100)
        assert np.array_equal(a, b)

    def test_chunking_invariant(self):
        whole = NoiseStream(5, 9).pairs(64)
        s = NoiseStream(5, 9)
        parts = np.vstack([s.pairs(10), s.pairs(1), s.pairs(53)])
        assert np.array_equal(whole, parts)

    def test_position_addressing(self):
        whole = NoiseStream(5, 9).pairs(20)
        assert np.array_equal(NoiseStream(5, 9, position=13).pairs(7), whole[13:])

    def test_scalars_equal_first_pair_component_bitwise(self):
        pair_view = NoiseStream(77, 3).pairs(500)
        scalar_view = NoiseStream(77, 3).scalars(500)
        assert np.array_equal(scalar_view, pair_view[:, 0])

    def test_streams_are_distinct_and_standard_normal(self):
        x = NoiseStream(1, 0).scalars(50_000)
        y = NoiseStream(1, 1).scalars(50_000)
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.02
        assert abs(x.mean()) < 0.02
        assert x.std() == pytest.approx(1.0, abs=0.02)

    def test_master_seed_changes_draws(self):
        assert not np.array_equal(NoiseStream(1, 0).pairs(8), NoiseStream(2, 0).pairs(8))

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        stream_id=st.integers(0, 2**64 - 1),
        ops=st.lists(
            st.tuples(st.sampled_from(["pairs", "scalars", "seek"]), st.integers(0, 40)),
            max_size=12,
        ),
    )
    def test_chunks_and_seeks_reproduce_one_draw(self, seed, stream_id, ops):
        # Any split into chunks, any external reset of position, and scalar
        # draws between them give the pairs of one draw at the same positions.
        whole = NoiseStream(seed, stream_id).pairs(40 + 12 * 40)  # past any reach
        s = NoiseStream(seed, stream_id)
        for op, n in ops:
            pos = s.position
            if op == "seek":
                s.position = n
                continue
            got = getattr(s, op)(n)
            want = whole[pos:pos + n]
            assert np.array_equal(got, want if op == "pairs" else want[:, 0])
            assert s.position == pos + n


class TestIntegratorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.0, t_final=1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.1, t_final=0.05)
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.1, t_final=1.0, record_stride=0)

    def test_step_count_bounded(self):
        assert IntegratorConfig(dt=1.0, t_final=2.0**53).n_steps == 2**53
        for t_final, dt in [(2.0**54, 1.0), (1e300, 1e-10), (math.inf, 1.0), (math.nan, 1.0)]:
            with pytest.raises(ValueError, match="2\\*\\*53"):
                IntegratorConfig(dt=dt, t_final=t_final)

    def test_record_steps_cover_endpoints(self):
        cfg = IntegratorConfig(dt=0.1, t_final=1.0, record_stride=3)
        assert cfg.record_steps()[0] == 0
        assert cfg.record_steps()[-1] == cfg.n_steps


class TestTrajectory:
    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.zeros(2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.zeros(3))


class TestSimulateFull:
    def test_origin_is_fixed_point(self):
        cfg = IntegratorConfig(dt=1e-3, t_final=0.5)
        traj = simulate_full(P, np.zeros(2), cfg, NoiseStream(1, 0), thermostat=False)
        assert np.all(traj.states == 0.0)

    def test_full_step_is_minus_gradient_times_dt(self):
        # The in-place step of sde._march against the potential's gradient.
        rng = np.random.default_rng(3)
        xy0 = rng.uniform(-3.0, 3.0, size=(64, 2))
        dt = 1e-3
        cfg = IntegratorConfig(dt=dt, t_final=dt)
        _, rec = integrate_full_batch(P, xy0, cfg, thermostat=False)
        expected = xy0 - grad_potential(P, xy0[:, 0], xy0[:, 1]) * dt
        np.testing.assert_allclose(rec[:, 1], expected, rtol=1e-15, atol=1e-15)

    def test_deterministic_exponential_decay(self):
        # tau=0 on-manifold start: x(t) = x0 exp(-mu t) exactly.
        cfg = IntegratorConfig(dt=1e-5, t_final=1.0, record_stride=1000)
        traj = simulate_full(P_OU, np.array([1.0, 0.0]), cfg, NoiseStream(1, 0), thermostat=False)
        exact = np.exp(-P_OU.mu * traj.times)
        assert np.max(np.abs(traj.x - exact) / exact) < 1e-3

    def test_ou_variance_growth(self):
        # Var(x_t) = (1/(beta mu)) (1 - exp(-2 mu t)) for the tau=0 process.
        n, t = 10_000, 1.0
        cfg = IntegratorConfig(dt=1e-3, t_final=t, record_stride=1000)
        streams = [NoiseStream(3, i) for i in range(n)]
        x0 = np.zeros((n, 2))
        _, rec = integrate_full_batch(P_OU, x0, cfg, streams, thermostat=True)
        var = rec[:, -1, 0].var()
        target = (1.0 / (P_OU.beta * P_OU.mu)) * (1.0 - np.exp(-2.0 * P_OU.mu * t))
        mc = target * np.sqrt(2.0 / n)
        assert abs(var - target) < 4.0 * mc

    def test_weak_convergence_order_one(self):
        err = {}
        for dt in (2e-3, 1e-3):
            cfg = IntegratorConfig(dt=dt, t_final=1.0, record_stride=int(1.0 / dt))
            traj = simulate_full(P_OU, np.array([1.0, 0.0]), cfg, NoiseStream(1, 0), thermostat=False)
            err[dt] = abs(traj.x[-1] - np.exp(-P_OU.mu))
        ratio = err[2e-3] / err[1e-3]
        assert 1.7 < ratio < 2.3

    def test_blowup_carries_step_and_partial_trajectory(self):
        bad = BenchmarkParams(mu=1e9, lam=5e9, tau=1.0, omega=1.0, beta=1.0)
        cfg = IntegratorConfig(dt=1.0, t_final=50.0, record_stride=1)
        with pytest.raises(NumericalBlowupError) as info:
            simulate_full(bad, np.array([1.0, 1.0]), cfg, NoiseStream(1, 0), thermostat=False)
        assert info.value.step >= 1
        assert isinstance(info.value.trajectory, Trajectory)
        assert len(info.value.trajectory.times) >= 1

    def test_blowup_error_keeps_its_fields_when_pickled(self):
        # Worker processes send a blowup back to the parent pickled.
        times = np.array([0.0, 0.5])
        err = NumericalBlowupError(
            7, stream_id=3, trajectory=Trajectory(times, np.array([1.0, 2.0])),
            recorded=(times, np.ones((2, 2))), beta=10.0,
        )
        back = pickle.loads(pickle.dumps(err))
        assert (back.step, back.stream_id, back.beta) == (7, 3, 10.0)
        assert str(back) == str(err)
        assert np.array_equal(back.trajectory.states, err.trajectory.states)
        assert np.array_equal(back.recorded[0], times)
        assert np.array_equal(back.recorded[1], np.ones((2, 2)))


class TestSimulateScalar:
    def test_memory_free_exponential(self):
        model = EffectiveModel(MEMORY_FREE, P)
        cfg = IntegratorConfig(dt=1e-5, t_final=1.0, record_stride=1000)
        traj = simulate_scalar(model, P, 1.0, cfg, NoiseStream(1, 0), thermostat=False)
        exact = np.exp(-P.mu * traj.times)
        assert np.max(np.abs(traj.states - exact) / exact) < 1e-3

    def test_zero_is_fixed_point_for_all_models(self):
        cfg = IntegratorConfig(dt=1e-3, t_final=0.1)
        for kind in ("memory-corrected", "memory-free", "naive-memory"):
            traj = simulate_scalar(EffectiveModel(kind, P), P, 0.0, cfg,
                                   NoiseStream(1, 0), thermostat=False)
            assert np.all(traj.states == 0.0)

    def test_naive_memory_cannot_be_thermostatted(self):
        cfg = IntegratorConfig(dt=1e-3, t_final=0.1)
        from mzcg.models import UnsupportedModelError

        with pytest.raises(UnsupportedModelError):
            simulate_scalar(EffectiveModel(NAIVE_MEMORY, P), P, 0.1, cfg, NoiseStream(1, 0))

    def test_scalar_noise_is_resolved_component_of_full_noise(self):
        # Identical stream address: the reduced model and the full system
        # consume bitwise-equal resolved-component increments.
        assert np.array_equal(
            NoiseStream(9, 4).scalars(256), NoiseStream(9, 4).pairs(256)[:, 0]
        )

    def test_crn_batch_matches_separate_integrations_bitwise(self):
        model = EffectiveModel(MEMORY_FREE, P)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.5, record_stride=10)
        x0, y0 = 0.3, P.tau * np.sin(P.omega * 0.3)
        times, full_x, model_recs = integrate_crn_batch(
            P, [model], (x0, y0), x0, cfg, [NoiseStream(2, 5)]
        )
        full_alone = simulate_full(P, np.array([x0, y0]), cfg, NoiseStream(2, 5))
        scalar_alone = simulate_scalar(model, P, x0, cfg, NoiseStream(2, 5))
        assert np.array_equal(full_x[0], full_alone.x)
        assert np.array_equal(model_recs[0][0], scalar_alone.states)

    def test_crn_batch_matches_separate_integrations_bitwise_memory_corrected(self):
        # memory-corrected is the model with a noise-induced drift, so both
        # engines must apply it identically.
        model = EffectiveModel(MEMORY_CORRECTED, P)
        cfg = IntegratorConfig(dt=1e-4, t_final=0.05, record_stride=10)
        x0, y0 = 0.3, P.tau * np.sin(P.omega * 0.3)
        times, full_x, model_recs = integrate_crn_batch(
            P, [model], (x0, y0), x0, cfg, [NoiseStream(2, 5)]
        )
        full_alone = simulate_full(P, np.array([x0, y0]), cfg, NoiseStream(2, 5))
        scalar_alone = simulate_scalar(model, P, x0, cfg, NoiseStream(2, 5))
        assert np.array_equal(full_x[0], full_alone.x)
        assert np.array_equal(model_recs[0][0], scalar_alone.states)

    def test_crn_several_betas_match_single_beta_calls_bitwise(self):
        # One call over beta = 1, 10, 100 shares each stream's noise across
        # the betas; every beta block must equal a one-beta call bit for bit.
        betas = (1.0, 10.0, 100.0)
        cfg = IntegratorConfig(dt=1e-4, t_final=0.05, record_stride=10)
        x0, y0 = 0.3, P.tau * np.sin(P.omega * 0.3)
        for a, b in ((0, 3), (3, 5)):  # two stream blocks
            _, full_x, model_recs = integrate_crn_batch(
                P, [EffectiveModel(MEMORY_CORRECTED, P), EffectiveModel(MEMORY_FREE, P)],
                (x0, y0), x0, cfg, [NoiseStream(2, i) for i in range(a, b)], betas,
            )
            assert full_x.shape[:2] == (3, b - a)
            for k, beta in enumerate(betas):
                pk = replace(P, beta=beta)
                _, one_x, one_recs = integrate_crn_batch(
                    pk, [EffectiveModel(MEMORY_CORRECTED, pk), EffectiveModel(MEMORY_FREE, pk)],
                    (x0, y0), x0, cfg, [NoiseStream(2, i) for i in range(a, b)],
                )
                assert np.array_equal(full_x[k], one_x)
                assert np.array_equal(model_recs[0][k], one_recs[0])
                assert np.array_equal(model_recs[1][k], one_recs[1])

    def test_crn_blowup_reports_stream_beta_and_prefix(self):
        # dt = 0.2 is far beyond the explicit stability limit of the stiff
        # mode, so the full system blows up; the CRN engine must name the
        # same step and stream as the full engine and keep what it recorded.
        cfg = IntegratorConfig(dt=0.2, t_final=20.0)
        x0, y0 = 0.3, P.tau * np.sin(P.omega * 0.3)
        with pytest.raises(NumericalBlowupError) as crn:
            integrate_crn_batch(
                P, [EffectiveModel(MEMORY_CORRECTED, P), EffectiveModel(MEMORY_FREE, P)],
                (x0, y0), x0, cfg, [NoiseStream(2, i) for i in range(4)],
            )
        with pytest.raises(NumericalBlowupError) as full:
            integrate_full_batch(
                P, np.tile([x0, y0], (4, 1)), cfg, [NoiseStream(2, i) for i in range(4)]
            )
        err = crn.value
        assert err.step == full.value.step
        assert full.value.stream_id is not None
        assert err.stream_id == full.value.stream_id
        assert err.beta == P.beta
        times, full_x, model_recs = err.recorded
        full_times, full_rec = full.value.recorded
        assert np.array_equal(times, full_times)
        assert np.array_equal(full_x, full_rec[:, :, 0])
        assert [r.shape for r in model_recs] == [full_x.shape] * 2


class TestFlowBatch:
    """The unthermostatted full system with the reduced models as planes of
    one engine call, as ``mean-trajectory`` runs it."""

    CFG = IntegratorConfig(dt=1e-3, t_final=0.5, record_stride=3)
    X0 = 2.0

    def starts(self, n):
        streams = [NoiseStream(4, i) for i in range(n)]
        y0 = [P.tau * np.sin(P.omega * self.X0) + 0.2 * s.scalars(1)[0] for s in streams]
        return np.stack([np.full(n, self.X0), y0], axis=-1), streams

    def test_each_model_matches_its_one_row_scalar_run_bitwise(self):
        x0s, streams = self.starts(5)
        kinds = (MEMORY_CORRECTED, NAIVE_MEMORY, MEMORY_FREE)
        times, full_x, runs = integrate_flow_batch(
            P, [EffectiveModel(k, P) for k in kinds], x0s, self.X0, self.CFG, streams
        )
        _, full_rec = integrate_full_batch(P, x0s, self.CFG, thermostat=False)
        assert np.array_equal(full_x, full_rec[:, :, 0])
        assert np.array_equal(times, self.CFG.record_steps() * self.CFG.dt)
        for kind, (values, step) in zip(kinds, runs):
            model = EffectiveModel(kind, P)
            if kind == NAIVE_MEMORY:
                with pytest.raises(NumericalBlowupError) as err:
                    simulate_scalar(model, P, self.X0, self.CFG, NoiseStream(1, 0),
                                    thermostat=False)
                assert step == err.value.step
                assert np.array_equal(values, err.value.trajectory.states)
            else:
                alone = simulate_scalar(model, P, self.X0, self.CFG, NoiseStream(1, 0),
                                        thermostat=False)
                assert step is None
                assert np.array_equal(values, alone.states)
        # The naive-memory model blows up mid-run, between two records.
        assert 0 < runs[1][1] < self.CFG.n_steps
        assert 0 < len(runs[1][0]) < len(times)

    @pytest.mark.parametrize("kind", [MEMORY_CORRECTED, MEMORY_FREE, NAIVE_MEMORY])
    def test_float_flow_matches_numpy_engine_over_mean_relax_window(self, kind):
        # The benchmark's mean-relax window (desk dt, t_final = 2): the
        # Python-float flow against the numpy engine of simulate_scalar,
        # through naive-memory's blowup step and truncated prefix.
        cfg = IntegratorConfig(dt=1e-4, t_final=2.0, record_stride=10)
        model = EffectiveModel(kind, P)
        x0s, streams = self.starts(1)
        _, _, [(values, step)] = integrate_flow_batch(P, [model], x0s, self.X0, cfg, streams)
        try:
            alone = simulate_scalar(model, P, self.X0, cfg, NoiseStream(1, 0), thermostat=False)
        except NumericalBlowupError as err:
            assert step == err.step
            assert np.array_equal(values, err.trajectory.states)
        else:
            assert step is None
            assert np.array_equal(values, alone.states)
        if kind == NAIVE_MEMORY:
            assert 0 < step < cfg.n_steps
            assert 0 < len(values) < len(cfg.record_steps())

    def test_truncated_model_leaves_the_other_planes_bit_identical(self):
        x0s, streams = self.starts(5)
        kinds = (MEMORY_CORRECTED, MEMORY_FREE)
        _, full_x, runs = integrate_flow_batch(
            P, [EffectiveModel(k, P) for k in (NAIVE_MEMORY,) + kinds], x0s, self.X0,
            self.CFG, streams,
        )
        _, full_without, runs_without = integrate_flow_batch(
            P, [EffectiveModel(k, P) for k in kinds], x0s, self.X0, self.CFG, streams
        )
        assert runs[0][1] is not None
        assert np.array_equal(full_x, full_without)
        for (values, step), (values_without, step_without) in zip(runs[1:], runs_without):
            assert step is None and step_without is None
            assert np.array_equal(values, values_without)

    def test_full_system_blowup_raises_naming_its_stream(self):
        # dt = 0.2 is beyond the stiff mode's stability limit; the truncated
        # naive-memory plane must not hide the full system's blowup.
        cfg = IntegratorConfig(dt=0.2, t_final=20.0)
        x0s, streams = self.starts(4)
        with pytest.raises(NumericalBlowupError) as flow:
            integrate_flow_batch(
                P, [EffectiveModel(NAIVE_MEMORY, P)], x0s, self.X0, cfg, streams
            )
        with pytest.raises(NumericalBlowupError) as full:
            integrate_full_batch(P, x0s, cfg, streams, thermostat=False)
        assert flow.value.step == full.value.step
        assert full.value.stream_id is not None
        assert flow.value.stream_id == full.value.stream_id
        assert flow.value.beta is None


class TestThermostattedStationarity:
    @pytest.mark.parametrize("beta", [1.0, 10.0, 100.0])
    def test_gibbs_marginal_has_zero_flux(self, beta):
        # The Ito SDE dh = b dt + sigma sqrt(2/beta) dW has probability flux
        # b p - (1/beta) (sigma^2 p)'.  For the Gibbs marginal
        # p ~ exp(-beta mu h^2 / 2) it vanishes iff
        # b - (1/beta) (sigma^2)' + mu h sigma^2 = 0.  The drift b the engine
        # integrates is read off one unit step with known noise; (sigma^2)' is
        # taken by central differences of diffusion().  The bare drift misses
        # by the whole noise-induced term (1/beta) (sigma^2)'.
        p = BenchmarkParams(mu=2.0, lam=20.0, tau=2.0, omega=10.0, beta=beta)
        model = EffectiveModel(MEMORY_CORRECTED, p)
        h0 = np.linspace(-3.0, 3.0, 1001)
        streams = [NoiseStream(3, i) for i in range(len(h0))]
        z = np.array([NoiseStream(3, i).scalars(1)[0] for i in range(len(h0))])
        _, rec = integrate_scalar_batch(
            model, p, h0, IntegratorConfig(dt=1.0, t_final=1.0), streams
        )
        b = rec[:, 1] - h0 - diffusion(model, h0) * (np.sqrt(2.0 / beta) * z)

        eps = 1e-7
        dsig2 = (diffusion(model, h0 + eps) ** 2 - diffusion(model, h0 - eps) ** 2) / (2 * eps)
        flux = b - dsig2 / beta + p.mu * h0 * diffusion(model, h0) ** 2
        assert np.max(np.abs(flux)) < 1e-6 * np.max(np.abs(dsig2)) / beta

        _, div_term = memory_integral_closed_form(p, h0)
        assert np.max(np.abs((b - drift(model, h0)) - div_term)) < 1e-12


class TestEnsembleMean:
    def test_single_trajectory_is_identity_with_zero_stderr(self):
        traj = Trajectory(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        mean, stderr = ensemble_mean([traj])
        assert np.array_equal(mean.states, traj.states)
        assert np.all(stderr == 0.0)

    def test_mirrored_pair_averages_to_zero(self):
        t = np.linspace(0.0, 1.0, 5)
        f = np.sin(t) + 0.5
        mean, _ = ensemble_mean([Trajectory(t, f), Trajectory(t, -f)])
        assert np.allclose(mean.states, 0.0, atol=1e-15)

    def test_grid_mismatch(self):
        a = Trajectory(np.array([0.0, 1.0]), np.zeros(2))
        b = Trajectory(np.array([0.0, 2.0]), np.zeros(2))
        with pytest.raises(GridMismatchError):
            ensemble_mean([a, b])

    def test_ou_ensemble_mean_tracks_analytic_decay(self):
        # 500 thermostatted OU trajectories: mean within 3 stderr of x0 e^{-mu t}.
        n = 500
        cfg = IntegratorConfig(dt=1e-3, t_final=1.0, record_stride=250)
        trajs = []
        for i in range(n):
            traj = simulate_full(P_OU, np.array([1.0, 0.0]), cfg, NoiseStream(8, i))
            trajs.append(Trajectory(traj.times, traj.x))
        mean, stderr = ensemble_mean(trajs)
        analytic = np.exp(-P_OU.mu * mean.times)
        for k in (2, 4):
            assert abs(mean.states[k] - analytic[k]) < 3.0 * stderr[k]


# The engines of the partition sweep; each returns its outputs stream axis first.
WIDEST = 600
PART_CFG = IntegratorConfig(dt=1e-3, t_final=0.02, record_stride=5)
PART_BETAS = (1.0, 10.0, 100.0)
PART_LAGS = np.array([0.0, 2e-4, 1e-3])


def _part_streams(a, b):
    return [NoiseStream(6, i) for i in range(a, b)]


def _part_starts(a, b):
    rows = np.arange(a, b)
    return np.stack([0.2 + 1e-3 * rows, 0.4 - 2e-3 * rows], axis=-1)


def _part_models():
    return [EffectiveModel(MEMORY_CORRECTED, P), EffectiveModel(MEMORY_FREE, P)]


def _part_full(a, b):
    return [integrate_full_batch(P, _part_starts(a, b), PART_CFG, _part_streams(a, b))[1]]


def _part_scalar(a, b):
    h0s = _part_starts(a, b)[:, 0]
    model = EffectiveModel(MEMORY_CORRECTED, P)
    return [integrate_scalar_batch(model, P, h0s, PART_CFG, _part_streams(a, b))[1]]


def _part_crn(a, b):
    x0, y0 = 0.3, P.tau * np.sin(P.omega * 0.3)
    _, full_x, recs = integrate_crn_batch(
        P, _part_models(), (x0, y0), x0, PART_CFG, _part_streams(a, b), PART_BETAS
    )
    return [np.moveaxis(r, 1, 0) for r in [full_x, *recs]]


def _part_flow(a, b):
    # The model flows are one row whatever the batch, so only x is compared.
    _, full_x, _ = integrate_flow_batch(
        P, _part_models(), _part_starts(a, b), 0.2, PART_CFG, _part_streams(a, b)
    )
    return [full_x]


def _part_kernel_sampler(a, b):
    # The sampler's own block worker, run on samples a..b alone.
    def one_block(worker, n_items, threads):
        return [worker(a, b)]

    cfg = IntegratorConfig(dt=1e-4, t_final=PART_LAGS[-1])
    with mock.patch.object(kernel, "map_stream_blocks", one_block):
        drifts = _sample_orthogonal_drifts(
            P, 0.3, PART_LAGS, WIDEST, NoiseStream(6, 0), cfg, 1
        )
    return [np.moveaxis(drifts, 1, 0)]


PART_ENGINES = {
    "full": _part_full,
    "scalar": _part_scalar,
    "crn": _part_crn,
    "flow": _part_flow,
    "kernel-sampler": _part_kernel_sampler,
}


@functools.cache
def _part_widest(engine):
    return PART_ENGINES[engine](0, WIDEST)


class TestDeterminism:
    def test_repeat_runs_are_bit_identical(self):
        cfg = IntegratorConfig(dt=1e-3, t_final=0.5, record_stride=10)
        a = simulate_full(P, np.array([0.5, 1.0]), cfg, NoiseStream(4, 2))
        b = simulate_full(P, np.array([0.5, 1.0]), cfg, NoiseStream(4, 2))
        assert np.array_equal(a.states, b.states)

    def test_thread_count_does_not_change_results(self):
        cfg = IntegratorConfig(dt=1e-3, t_final=0.2, record_stride=10)

        def worker(a, b):
            streams = [NoiseStream(6, i) for i in range(a, b)]
            x0 = np.tile([0.2, 0.4], (b - a, 1))
            _, rec = integrate_full_batch(P, x0, cfg, streams, thermostat=True)
            return rec

        lone = np.concatenate(map_stream_blocks(worker, 600, threads=1), axis=0)
        pooled = np.concatenate(map_stream_blocks(worker, 600, threads=8), axis=0)
        assert np.array_equal(lone, pooled)

    @pytest.mark.parametrize("n_items", [512, 200, 300])
    def test_blocks_run_in_worker_processes(self, n_items):
        def worker(a, b):
            time.sleep(0.1)  # so that one process cannot take both blocks
            return os.getpid()

        pids = map_stream_blocks(worker, n_items, threads=2)
        assert len(pids) == len(set(pids)) == 2
        assert os.getpid() not in pids

    @pytest.mark.parametrize("engine", sorted(PART_ENGINES))
    @pytest.mark.parametrize("width", [1, 7, 8, 9, 255, 256, 257, WIDEST])
    def test_batch_partition_does_not_change_results(self, engine, width):
        # Row-wise elementwise arithmetic: every block of any width (these
        # straddle SIMD lane counts) must equal the matching rows of the
        # widest batch bit for bit.  This lets the worker count choose the
        # partition.
        widest = _part_widest(engine)
        for a in range(0, WIDEST, width):
            b = min(a + width, WIDEST)
            for block, rows in zip(PART_ENGINES[engine](a, b), widest):
                assert np.array_equal(block, rows[a:b])

    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    def test_blowup_reported_alike_for_any_partition(self, threads):
        # Stream 1 blows up at step 9; streams 300, 450 and 590 at step 4,
        # so later blocks fail earlier than block 0.  One batch of every
        # stream would report the earliest step, then the lowest stream.
        fail_at = {1: 9, 300: 4, 450: 4, 590: 4}

        def worker(a, b):
            fails = [(fail_at[i], i) for i in range(a, b) if i in fail_at]
            if fails:
                step, stream = min(fails)
                raise NumericalBlowupError(step, stream_id=stream)
            return b - a

        with pytest.raises(NumericalBlowupError) as err:
            map_stream_blocks(worker, WIDEST, threads=threads)
        assert (err.value.step, err.value.stream_id) == (4, 300)


class TestStationarity:
    def test_coarse_step_destroys_invariant_measure(self):
        # At dt=1e-3 the stiff transverse curvature lam (1 + tau^2 omega^2)
        # puts Euler-Maruyama far beyond its stability bound; the chain stays
        # finite but equilibrium statistics are destroyed.
        cfg = IntegratorConfig(dt=1e-3, t_final=100.0, record_stride=100)
        streams = [NoiseStream(13, i) for i in range(16)]
        x0 = np.tile([0.0, 0.0], (16, 1))
        _, rec = integrate_full_batch(P, x0, cfg, streams, thermostat=True)
        var = rec[:, 10:, 0].var()
        assert var > 10.0 * (1.0 / (P.beta * P.mu))

    def test_gibbs_variance_at_stable_step(self):
        # Equilibrium-initialised ensemble at a stable step: Var(x) matches
        # the Gibbs marginal 1/(beta mu) within 10%.
        n = 256
        cfg = IntegratorConfig(dt=1.5e-4, t_final=50.0, record_stride=50)
        sd_x = np.sqrt(1.0 / (P.beta * P.mu))
        sd_r = np.sqrt(1.0 / (P.beta * P.lam))

        def worker(a, b):
            streams = [NoiseStream(21, i) for i in range(a, b)]
            x0 = np.empty((b - a, 2))
            for i, s in enumerate(streams):
                zx, zy = s.pairs(1)[0]
                x = sd_x * zx
                x0[i] = (x, P.tau * np.sin(P.omega * x) + sd_r * zy)
            _, rec = integrate_full_batch(P, x0, cfg, streams, thermostat=True)
            return rec[:, :, 0]

        xs = np.concatenate(map_stream_blocks(worker, n, threads=1), axis=0)
        assert xs.var() == pytest.approx(1.0 / (P.beta * P.mu), rel=0.10)
