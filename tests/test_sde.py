import contextlib
import decimal
import functools
import math
import os
import pickle
import time
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.random import Philox
from scipy.special import ndtri

from mzcg import experiments, kernel, sde
from mzcg.benchmark import BenchmarkParams, conditional_y_sample, grad_potential
from mzcg.config import params_from_config, resolve
from mzcg.kernel import _sample_orthogonal_drifts, memory_integral_closed_form
from mzcg.models import (
    MEMORY_CORRECTED,
    MEMORY_FREE,
    MODEL_KINDS,
    NAIVE_MEMORY,
    EffectiveModel,
    UnsupportedModelError,
    diffusion,
    drift,
)
from mzcg.sde import (
    BLOWUP_LIMIT,
    IntegratorConfig,
    NoiseStream,
    NumericalBlowupError,
    integrate_crn_batch,
    integrate_flow_batch,
    integrate_full_batch,
    integrate_scalar_batch,
    map_stream_blocks,
    mean_stderr,
    next_pairs,
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


    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        stream_id=st.integers(0, 2**64 - 1),
        position=st.one_of(st.integers(0, 9), st.integers(0, 2**62)),
        count=st.integers(0, 9),
        other=st.integers(0, 2**64 - 1),
    )
    def test_pairs_come_from_the_keyed_philox_words(
        self, seed, stream_id, position, count, other
    ):
        # The words of Philox(key=(seed, stream)) from word 2 * position,
        # whatever stream drew before or between the draws.
        g = Philox(key=np.array([seed, stream_id], dtype=np.uint64))
        start = 2 * position
        g.advance(start // 4)
        words = g.random_raw(start % 4 + 2 * count + 2)[start % 4:].reshape(count + 1, 2)
        want = ndtri(((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53)
        s = NoiseStream(seed, stream_id, position=position)
        NoiseStream(other, stream_id).pairs(3)
        assert np.array_equal(s.pairs(count), want[:count])
        NoiseStream(seed, other, position=position).pairs(1)
        assert np.array_equal(s.pairs(1), want[count:])

    @pytest.mark.parametrize("count", [0, 1, 7, 4096])
    def test_pairs_into_a_buffer_equal_pairs(self, count):
        buf = np.full(2 * count, np.nan)
        s = NoiseStream(31, 4, position=3)
        got = s.pairs(count, out=buf)
        assert np.shares_memory(got, buf) or count == 0
        assert np.array_equal(got, NoiseStream(31, 4, position=3).pairs(count))
        assert s.position == 3 + count

    def test_centred_uniform_is_scaled_uniform_plus_half_spacing(self):
        # pairs forms ((w >> 11) + 0.5) * 2**-53 as (w >> 11) * 2**-53 + 2**-54.
        edges = [0, 2**11 - 1, 2**11, 2**63, 2**64 - 2**11, 2**64 - 1, (2**52) << 11]
        words = np.concatenate([
            np.array(edges, dtype=np.uint64),
            np.random.default_rng(0).integers(0, 2**64, 200_000, dtype=np.uint64),
        ])
        k = (words >> np.uint64(11)).astype(np.float64)
        assert np.array_equal((k + 0.5) * 2.0**-53, k * 2.0**-53 + 2.0**-54)

    def test_top_word_gives_a_finite_normal(self):
        # numpy's largest uniform, (2**53 - 1) * 2**-53, has the centre
        # 1 - 2**-54, which rounds to 1, whose ndtri is inf; the clamp takes
        # it to the largest double below 1, and leaves the next word's centre.
        NoiseStream(0, 0).pairs(1)  # makes the shared generator to patch
        top, next_ = 2**53 - 1, 2**53 - 2
        for k, want in [(top, 1.0 - 2.0**-53), (next_, next_ * 2.0**-53 + 2.0**-54)]:
            with mock.patch.object(sde, "_uniform", lambda out: out.fill(k * 2.0**-53)):
                z = NoiseStream(0, 0).pairs(2)
            assert np.all(np.isfinite(z))
            assert np.all(z == ndtri(want))
        assert abs(ndtri(1.0 - 2.0**-53)) < sde.NORMAL_BOUND == -ndtri(2.0**-54)


def _group(span):
    """The number of streams _draw_noise draws per group at ``span``."""
    return max(1, sde.NOISE_GROUP_BYTES // (16 * span))


class TestDrawNoise:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        span=st.sampled_from([1, 2, 37, sde.NOISE_CHUNK]),
        group=st.one_of(st.just(None), st.integers(1, 40)),
        which=st.sampled_from(["one", "group-1", "group", "group+1", "600"]),
        offset=st.integers(0, 3),
    )
    @example(seed=1, span=sde.NOISE_CHUNK, group=None, which="group+1", offset=1)
    @example(seed=1, span=sde.NOISE_CHUNK, group=None, which="600", offset=0)
    def test_equals_one_stack_of_stream_draws(self, seed, span, group, which, offset):
        # group None keeps the module's budget; otherwise the budget is set
        # to give exactly that many streams per group at this span.
        budget = sde.NOISE_GROUP_BYTES if group is None else 16 * span * group
        with mock.patch.object(sde, "NOISE_GROUP_BYTES", budget):
            g = _group(span)
            n = {"one": 1, "group-1": g - 1, "group": g, "group+1": g + 1, "600": 600}[which]
            assume(1 <= n <= 2000)
            # Positions 0 to 3 mix even and odd starts (the skipped words).
            streams = [NoiseStream(seed, i, position=(i + offset) % 4) for i in range(n)]
            copies = [NoiseStream(seed, i, position=(i + offset) % 4) for i in range(n)]
            got = sde._draw_noise(streams, span)
        want = np.stack([s.pairs(span) for s in copies], axis=-1)
        assert got.shape == (span, 2, n)
        assert np.array_equal(got, want)
        assert [s.position for s in streams] == [s.position for s in copies]

    @pytest.mark.parametrize("span", [1, sde.NOISE_CHUNK])
    def test_calls_pairs_once_per_stream(self, span):
        # bench/layertrace.py counts normals from each call's positional count.
        n = _group(span) + 3 if span > 1 else 5
        with mock.patch.object(NoiseStream, "pairs", autospec=True,
                               side_effect=NoiseStream.pairs) as pairs:
            sde._draw_noise([NoiseStream(2, i) for i in range(n)], span)
        assert pairs.call_count == n
        assert all(call.args[1] == span for call in pairs.call_args_list)


class TestNoiseChunk:
    def test_steps_by_bytes_with_a_floor(self):
        # Every benchmark width (200 to 600 streams) keeps the whole chunk.
        for n in (1, 200, 256, 600):
            assert sde.noise_chunk_steps(n, 10**6) == sde.NOISE_CHUNK
        assert sde.noise_chunk_steps(600, 37) == 37
        assert sde.noise_chunk_steps(2000, 10**6) == sde.NOISE_CHUNK_BYTES // (16 * 2000)
        assert sde.noise_chunk_steps(200_000, 10**6) == sde.NOISE_CHUNK_FLOOR
        assert sde.noise_chunk_steps(200_000, 100) == 100
        assert sde.noise_chunk_steps(10**6, 0) == 0
        assert 16 * 600 * sde.NOISE_CHUNK <= sde.NOISE_CHUNK_BYTES

    def test_wide_march_holds_one_budgeted_chunk(self):
        # 4,000 streams over 200 steps would draw 12.8 MB of noise at once;
        # a budget of 1 MiB cuts the chunk to 16 steps.
        n, n_steps = 4000, 200
        cfg = IntegratorConfig(dt=1e-3, t_final=n_steps * 1e-3, record_stride=n_steps)
        xy0 = np.tile([0.1, 0.2], (n, 1))
        streams = [NoiseStream(4, i) for i in range(n)]
        with mock.patch.object(sde, "NOISE_CHUNK_BYTES", 1 << 20), \
                mock.patch.object(sde, "NOISE_CHUNK_FLOOR", 4):
            assert sde.noise_chunk_steps(n, n_steps) == 16
            tracemalloc.start()
            try:
                integrate_full_batch(P, xy0, cfg, streams)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # The chunk, the group buffer of NOISE_GROUP_BYTES and a few
        # state-sized arrays of 64 kB each.
        assert peak < (1 << 20) + sde.NOISE_GROUP_BYTES + (1 << 20)
        assert [s.position for s in streams] == [n_steps] * n


def traced_peak(run):
    """The peak of what ``run()`` allocates, under tracemalloc, to which numpy
    reports its buffers."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryCounts:
    """Each count of the memory check against the peak of the code that
    allocates what it counts, the times of its records besides.  SLACK
    covers Python objects, such as the streams' positions and the arrays'
    headers."""

    SLACK = 64 << 10
    KINDS = (MEMORY_CORRECTED, MEMORY_FREE)

    @pytest.mark.parametrize("n, steps", [(200, 4096), (2000, 64), (20000, 8)])
    def test_crn_march_with_a_sink(self, n, steps):
        # Three betas and both models, as ensemble runs them in one block:
        # the march, its record block and the reduction's copy of it.
        cfg = IntegratorConfig(dt=1e-4, t_final=steps * 1e-4, record_stride=1)
        betas = (1.0, 10.0, 100.0)
        model_list = [EffectiveModel(kind, P) for kind in self.KINDS]
        streams = [NoiseStream(1, i) for i in range(n)]
        _, sink = experiments._record_sink(cfg, (3, len(betas)))
        peak = traced_peak(lambda: integrate_crn_batch(
            P, model_list, (0.1, 0.2), 0.1, cfg, streams, betas, sink=sink))
        count = (sde.march_floats(self.KINDS, len(betas), n, steps)
                 + sde.sink_floats(3 * len(betas) * n, cfg.n_records) + cfg.n_records)
        assert peak <= 8 * count + self.SLACK

    @pytest.mark.parametrize("n, steps", [(200, 4096), (20000, 8)])
    def test_full_batch(self, n, steps):
        # Thermostatted, as stationary runs it: the march and every record.
        cfg = IntegratorConfig(dt=1e-4, t_final=steps * 1e-4, record_stride=64)
        xy0 = np.tile([0.1, 0.2], (n, 1))
        streams = [NoiseStream(1, i) for i in range(n)]
        peak = traced_peak(lambda: integrate_full_batch(P, xy0, cfg, streams))
        count = sde.march_floats((), 1, n, steps) + (2 * n + 1) * cfg.n_records
        assert peak <= 8 * count + self.SLACK

    def test_flow_batch_with_a_sink(self):
        # As mean-trajectory runs it in one block: the unthermostatted
        # march, its record block and the reduction's copy, and each
        # model's values.
        n = 2000
        cfg = IntegratorConfig(dt=1e-3, t_final=1.0, record_stride=1)
        x0s = np.tile([0.1, 0.2], (n, 1))
        model_list = [EffectiveModel(kind, P) for kind in MODEL_KINDS]
        _, sink = experiments._record_sink(cfg, (1,))
        peak = traced_peak(
            lambda: integrate_flow_batch(P, model_list, x0s, 0.1, cfg, sink=sink))
        count = (sde.march_floats((), 1, n) + sde.sink_floats(n, cfg.n_records)
                 + (len(model_list) + 1) * cfg.n_records)
        assert peak <= 8 * count + self.SLACK


class TestNextPairs:
    @settings(max_examples=200, deadline=None)
    @given(
        addresses=st.lists(
            st.tuples(
                st.integers(0, 2**64 - 1),
                st.integers(0, 2**64 - 1),
                st.one_of(st.integers(0, 3), st.integers(0, 2**62)),
            ),
            min_size=1,
            max_size=12,
        ),
        draws=st.integers(1, 3),
    )
    @example(addresses=[(0, 0, 0), (2**64 - 1, 2**64 - 1, 2**64 - 2)], draws=2)
    def test_equals_each_streams_next_pair(self, addresses, draws):
        # Seeds, ids and positions mixed in one call; each call moves every
        # position on by exactly one, so the next call reads the next pair.
        streams = [NoiseStream(seed, i, position=pos) for seed, i, pos in addresses]
        for d in range(draws):
            got = next_pairs(streams)
            want = [NoiseStream(seed, i, position=pos + d).pairs(1)[0]
                    for seed, i, pos in addresses]
            assert got.shape == (2, len(addresses))
            assert np.array_equal(got, np.stack(want, axis=-1))
            assert [s.position for s in streams] == [pos + d + 1 for *_, pos in addresses]

    @pytest.mark.parametrize("position", [-1, -(2**70)])
    def test_negative_position_is_refused(self, position):
        # Its counter block would wrap to the top of Philox's counter space.
        with pytest.raises(ValueError, match="non-negative"):
            NoiseStream(1, 0, position=position).pairs(1)
        streams = [NoiseStream(1, 0), NoiseStream(1, 1, position=position)]
        with pytest.raises(ValueError, match="2\\*\\*64"):
            next_pairs(streams)
        assert [s.position for s in streams] == [0, position]

    @pytest.mark.parametrize("position", [2**64, 2**70])
    def test_position_past_uint64_is_refused(self, position):
        streams = [NoiseStream(1, 0), NoiseStream(1, 1, position=position)]
        with pytest.raises(ValueError, match="2\\*\\*64"):
            next_pairs(streams)
        assert [s.position for s in streams] == [0, position]

    def test_starts_make_no_per_stream_draw(self):
        # The kernel's conditional y and the stationary check's equilibrium
        # points draw one pair per stream through next_pairs, not pairs(1).
        cfg = resolve("stationary", set_pairs=["n_samples=4", "t_main=0.01",
                                               "t_resid=0.001"])
        p = experiments.params_from_config(cfg)
        starts = []

        def integrate(p_, x0s, icfg, streams, thermostat):
            starts.append((x0s, [s.stream_id for s in streams]))
            return None, np.zeros((len(streams), 2, 2))

        with mock.patch.object(NoiseStream, "pairs", autospec=True,
                               side_effect=NoiseStream.pairs) as pairs:
            y = conditional_y_sample(P, 0.3, [NoiseStream(2, i) for i in range(5)])
            with mock.patch.object(experiments, "integrate_full_batch", integrate):
                experiments.simulate_stationary(cfg, threads=1)
        assert pairs.call_count == 0
        sd = np.sqrt(1.0 / (P.beta * P.lam))
        want = [P.tau * np.sin(P.omega * 0.3) + sd * NoiseStream(2, i).scalars(1)[0]
                for i in range(5)]
        assert np.array_equal(y, want)
        assert [ids for _, ids in starts] == [[0, 1, 2, 3], [4, 5, 6, 7]]
        sd_x, sd_r = math.sqrt(1.0 / (p.beta * p.mu)), math.sqrt(1.0 / (p.beta * p.lam))
        for x0s, ids in starts:
            for (x, y0), i in zip(x0s, ids):
                zx, zy = NoiseStream(cfg["master_seed"], i).pairs(1)[0]
                assert x == sd_x * zx
                assert y0 == p.tau * math.sin(p.omega * x) + sd_r * zy


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

    @settings(max_examples=200, deadline=None)
    @given(n_steps=st.integers(1, 10**5), stride=st.integers(1, 2 * 10**5))
    @example(n_steps=1, stride=1)
    @example(n_steps=6, stride=3)
    @example(n_steps=7, stride=3)
    @example(n_steps=7, stride=8)
    def test_n_records_is_the_length_of_record_steps(self, n_steps, stride):
        cfg = IntegratorConfig(dt=1.0, t_final=float(n_steps), record_stride=stride)
        assert cfg.n_steps == n_steps
        assert cfg.n_records == len(cfg.record_steps())


class TestSimulateFull:
    def test_origin_is_fixed_point(self):
        cfg = IntegratorConfig(dt=1e-3, t_final=0.5)
        _, rec = integrate_full_batch(P, np.zeros((1, 2)), cfg, thermostat=False)
        assert np.all(rec[0] == 0.0)

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
        times, rec = integrate_full_batch(P_OU, np.array([[1.0, 0.0]]), cfg, thermostat=False)
        exact = np.exp(-P_OU.mu * times)
        assert np.max(np.abs(rec[0][:, 0] - exact) / exact) < 1e-3

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
            _, rec = integrate_full_batch(P_OU, np.array([[1.0, 0.0]]), cfg, thermostat=False)
            err[dt] = abs(rec[0, -1, 0] - np.exp(-P_OU.mu))
        ratio = err[2e-3] / err[1e-3]
        assert 1.7 < ratio < 2.3

    def test_blowup_carries_step_and_partial_trajectory(self):
        bad = BenchmarkParams(mu=1e9, lam=5e9, tau=1.0, omega=1.0, beta=1.0)
        cfg = IntegratorConfig(dt=1.0, t_final=50.0, record_stride=1)
        with pytest.raises(NumericalBlowupError) as info:
            integrate_full_batch(bad, np.array([[1.0, 1.0]]), cfg, thermostat=False)
        assert info.value.step >= 1
        times, _ = info.value.recorded
        assert len(times) >= 1

    def test_blowup_error_keeps_its_fields_when_pickled(self):
        # Worker processes send a blowup back to the parent pickled.
        times = np.array([0.0, 0.5])
        err = NumericalBlowupError(7, stream_id=3, recorded=(times, np.ones((2, 2))), beta=10.0)
        back = pickle.loads(pickle.dumps(err))
        assert (back.step, back.stream_id, back.beta) == (7, 3, 10.0)
        assert str(back) == str(err)
        assert np.array_equal(back.recorded[0], times)
        assert np.array_equal(back.recorded[1], np.ones((2, 2)))


class TestFullStepTanForm:
    """One unthermostatted step of the engine, whose drift takes sin and cos
    from tan(omega x / 2), agrees with a sin/cos reference to a few ulps of
    the terms it carries: the sine's tau and the gap, each times its
    prefactor, the mu x term, and the state the increment lands on."""

    DT = 1.0
    ULPS = 4

    def step(self, x, y):
        """(x, y) after one step, also where the step leaves range."""
        state = np.array([[[x]], [[y]]])
        cfg = IntegratorConfig(dt=self.DT, t_final=self.DT)
        with np.errstate(all="ignore"):
            try:
                sde._march(P, cfg, state, True, (), None, None, state, lambda times, recs: None)
            except NumericalBlowupError:
                pass
        return state[0, 0, 0], state[1, 0, 0]

    def reference(self, x, y):
        with np.errstate(all="ignore"):
            gap = P.tau * np.sin(P.omega * x) - y
            g = P.lam * P.tau * P.omega * gap * np.cos(P.omega * x) + P.mu * x
            return x - g * self.DT, y - -P.lam * gap * self.DT, gap

    def close(self, got, want, scale):
        # A few ulps of the increment's terms, and one of the state landed on.
        eps = np.finfo(float).eps
        return bool(
            got == want
            or (np.isnan(got) and np.isnan(want))
            or abs(got - want) <= eps * (self.ULPS * scale + abs(want))
        )

    @settings(max_examples=500, deadline=None)
    @given(
        x=st.floats(allow_nan=False, allow_infinity=False),
        offset=st.floats(min_value=-1e3, max_value=1e3),
    )
    @example(x=0.0, offset=1.0)
    @example(x=5e-324, offset=0.0)
    @example(x=-2.2250738585072014e-308, offset=0.5)
    @example(x=math.pi / P.omega, offset=0.0)  # tan(omega x / 2) ~ 1.6e16
    @example(x=np.nextafter(-math.pi / P.omega, 0.0), offset=-1.0)
    @example(x=3.0 * math.pi / P.omega, offset=0.0)
    @example(x=1e12, offset=0.0)
    @example(x=1e300, offset=2.0)
    @example(x=1.7976931348623157e308, offset=0.0)
    def test_matches_sincos_reference(self, x, offset):
        # Beyond overflow of omega x the reference has no angle.
        assume(math.isfinite(P.omega * x))
        y = P.tau * math.sin(P.omega * x) + offset
        x1, y1 = self.step(x, y)
        ref_x, ref_y, gap = self.reference(x, y)
        carried = (P.tau + abs(gap)) * self.DT
        lto = P.lam * P.tau * P.omega
        assert self.close(y1, ref_y, P.lam * carried)
        assert self.close(x1, ref_x, lto * carried + P.mu * abs(x) * self.DT)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_x_gives_nan_and_a_blowup(self, x):
        state = np.array([[[x, 0.1]], [[1.0, 1.0]]])
        cfg = IntegratorConfig(dt=1e-3, t_final=1e-3)
        with np.errstate(all="ignore"), pytest.raises(NumericalBlowupError) as err:
            sde._march(P, cfg, state, True, (), None, None, state, lambda times, recs: None)
        assert err.value.step == 1
        assert np.isnan(state[:, 0, 0]).all() and np.isfinite(state[:, 0, 1]).all()


# Entries on both sides of the blowup limit, and ones whose squares misbehave.
_NEAR_LIMIT = np.nextafter(BLOWUP_LIMIT, 0.0)
_EDGE_VALUES = [
    math.nan, math.inf, -math.inf, BLOWUP_LIMIT, -BLOWUP_LIMIT, _NEAR_LIMIT,
    -_NEAR_LIMIT, 1e200, -1e200, 5e-324, -2.2250738585072014e-308, 0.0, -0.0,
]


class TestBlowupDecision:
    """The engine's blowup test, a sum of squares with an exact fallback,
    raises exactly when some entry is not below the limit in magnitude."""

    def raises(self, state):
        # No plane is stepped, so the test sees the state as given.
        cfg = IntegratorConfig(dt=1.0, t_final=1.0)
        with np.errstate(all="ignore"):
            try:
                sde._march(P, cfg, state, False, (), None, None, state, lambda times, recs: None)
            except NumericalBlowupError as err:
                assert err.step == 1
                return True
        return False

    @settings(max_examples=300, deadline=None)
    @given(arrays(
        np.float64,
        st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 40)),
        elements=st.one_of(
            st.sampled_from(_EDGE_VALUES),
            st.floats(min_value=-1.5e12, max_value=1.5e12),
            st.floats(width=64),
        ),
    ))
    def test_raises_iff_an_entry_leaves_range(self, state):
        expected = not (np.abs(state) < BLOWUP_LIMIT).all()
        assert self.raises(state) == expected

    @pytest.mark.parametrize("value", _EDGE_VALUES)
    def test_each_edge_value_alone(self, value):
        state = np.zeros((2, 1, 3))
        state[-1, 0, 1] = value
        assert self.raises(state) == (not abs(value) < BLOWUP_LIMIT)

    def test_state_that_is_not_contiguous_is_refused(self):
        # The test reads the state through a flat view, which a copy would not be.
        state = np.zeros((4, 1, 3))[::2]
        with pytest.raises(ValueError, match="contiguous"):
            self.raises(state)

    @pytest.mark.parametrize("n", [2, 64, 10_000])
    def test_many_entries_below_the_limit_do_not_raise(self, n):
        # Their squares sum far past BLOWUP_LIMIT**2: the fallback decides.
        state = np.full((2, 1, n), _NEAR_LIMIT)
        state[1] *= -1.0
        assert np.dot(state.ravel(), state.ravel()) >= sde.BLOWUP_SQUARED
        assert not self.raises(state)


class TestSimulateScalar:
    def test_memory_free_exponential(self):
        model = EffectiveModel(MEMORY_FREE, P)
        cfg = IntegratorConfig(dt=1e-5, t_final=1.0, record_stride=1000)
        values, _ = simulate_scalar(model, 1.0, cfg)
        exact = np.exp(-P.mu * cfg.record_steps() * cfg.dt)
        assert np.max(np.abs(values - exact) / exact) < 1e-3

    def test_zero_is_fixed_point_for_all_models(self):
        cfg = IntegratorConfig(dt=1e-3, t_final=0.1)
        for kind in ("memory-corrected", "memory-free", "naive-memory"):
            values, _ = simulate_scalar(EffectiveModel(kind, P), 0.0, cfg)
            assert np.all(values == 0.0)

    def test_naive_memory_cannot_be_thermostatted(self):
        cfg = IntegratorConfig(dt=1e-3, t_final=0.1)
        from mzcg.models import UnsupportedModelError

        with pytest.raises(UnsupportedModelError):
            integrate_scalar_batch(EffectiveModel(NAIVE_MEMORY, P), P, np.array([0.1]), cfg,
                                   [NoiseStream(1, 0)])

    def test_crn_batch_refuses_naive_memory_before_any_step(self):
        cfg = IntegratorConfig(dt=1e-3, t_final=0.1)
        model_list = [EffectiveModel(MEMORY_CORRECTED, P), EffectiveModel(NAIVE_MEMORY, P)]
        streams = [NoiseStream(1, i) for i in range(3)]
        # The full system's drift is bound once per march and called per step.
        with mock.patch.object(sde, "_draw_noise") as draw, \
                mock.patch.object(sde, "bind_orthogonal_drift") as bind_drift:
            with pytest.raises(UnsupportedModelError):
                integrate_crn_batch(P, model_list, (0.1, 0.2), 0.1, cfg, streams, (1.0, 10.0))
        draw.assert_not_called()
        bind_drift.return_value.assert_not_called()

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
        _, full_alone = integrate_full_batch(P, np.array([[x0, y0]]), cfg, [NoiseStream(2, 5)])
        _, scalar_alone = integrate_scalar_batch(model, P, np.array([x0]), cfg,
                                                 [NoiseStream(2, 5)])
        assert np.array_equal(full_x[0], full_alone[0][:, 0])
        assert np.array_equal(model_recs[0][0], scalar_alone[0])

    def test_crn_batch_matches_separate_integrations_bitwise_memory_corrected(self):
        # memory-corrected is the model with a noise-induced drift, so both
        # engines must apply it identically.
        model = EffectiveModel(MEMORY_CORRECTED, P)
        cfg = IntegratorConfig(dt=1e-4, t_final=0.05, record_stride=10)
        x0, y0 = 0.3, P.tau * np.sin(P.omega * 0.3)
        times, full_x, model_recs = integrate_crn_batch(
            P, [model], (x0, y0), x0, cfg, [NoiseStream(2, 5)]
        )
        _, full_alone = integrate_full_batch(P, np.array([[x0, y0]]), cfg, [NoiseStream(2, 5)])
        _, scalar_alone = integrate_scalar_batch(model, P, np.array([x0]), cfg,
                                                 [NoiseStream(2, 5)])
        assert np.array_equal(full_x[0], full_alone[0][:, 0])
        assert np.array_equal(model_recs[0][0], scalar_alone[0])

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


def _model_coefficients(model, h, beta):
    """(b, sigma) of the thermostatted model at ``h`` (one row per entry of
    the column ``beta``) from drift, diffusion and the kernel's closed-form
    noise-induced drift: a reference written apart from
    thermostatted_coefficients."""
    if model.kind == MEMORY_FREE:
        return drift(model, h), diffusion(model, h)
    b = np.stack([
        drift(model, row) + memory_integral_closed_form(replace(model.params, beta=float(bk)), row)[1]
        for row, bk in zip(h, beta[:, 0])
    ])
    return b, diffusion(model, h)


def _allocating_crn_steps(p, model_list, x0, y0, h0, dt, n_steps, streams, betas):
    """The engine's steps written out with an allocating expression per
    plane: the full system's step as x (1 - mu dt) and y plus the
    increments of the tan-form orthogonal drift, whose constants lam and
    -(lam tau omega) carry dt, and each model as h + b dt + sigma az with
    (b, sigma) from _model_coefficients.  ``betas`` None steps with no
    thermostat, ``streams`` then giving only the width.  Returns x, y and each model's h after every
    step, shaped (n_beta, n, n_steps)."""
    thermostat = betas is not None
    beta = np.asarray(betas if thermostat else p.beta, dtype=float).reshape(-1, 1)
    if thermostat:
        amp = np.sqrt(2.0 * dt / beta)
        xi = np.stack([s.pairs(n_steps) for s in streams], axis=-1)  # (steps, 2, n)
    shape = (len(beta), len(streams))
    x, y = np.full(shape, x0), np.full(shape, y0)
    hs = [np.full(shape, h0) for _ in model_list]
    xs, ys, hrecs = [], [], [[] for _ in model_list]
    for j in range(n_steps):
        u = np.tan((0.5 * p.omega) * x)
        u2 = u * u
        w = u2 + 1.0
        gap = (u + u) / w * p.tau - y
        dx = -(p.lam * p.tau * p.omega) * dt * gap * ((1.0 - u2) / w)
        dy = gap * (p.lam * dt)
        x, y = x * (1.0 - p.mu * dt) + dx, y + dy
        if thermostat:
            az, ay = amp * xi[j, 0], amp * xi[j, 1]
            for i, model in enumerate(model_list):
                b, sigma = _model_coefficients(model, hs[i], beta)
                hs[i] = hs[i] + b * dt + sigma * az
                hrecs[i].append(hs[i])
            x, y = x + az, y + ay
        xs.append(x)
        ys.append(y)
    return (np.stack(xs, axis=-1), np.stack(ys, axis=-1),
            [np.stack(r, axis=-1) for r in hrecs])


class TestModelPlanes:
    @pytest.mark.parametrize("betas", [(1.0,), (1.0, 10.0, 100.0)])
    @pytest.mark.parametrize("width", [1, 7, 600])
    def test_crn_steps_equal_the_allocating_form_bitwise(self, width, betas):
        # Every plane writes into the engine's shared drift and noise
        # buffers, and one update serves them all; each element must still
        # see the operations of the separate allocating steps.
        model_list = [EffectiveModel(MEMORY_CORRECTED, P), EffectiveModel(MEMORY_FREE, P)]
        n_steps, dt = 6, 1e-3
        x0, h0 = 0.3, 0.17
        y0 = P.tau * np.sin(P.omega * x0)
        cfg = IntegratorConfig(dt=dt, t_final=n_steps * dt)
        assert cfg.n_steps == n_steps
        streams = [NoiseStream(8, i) for i in range(width)]
        _, full_x, recs = integrate_crn_batch(
            P, model_list, (x0, y0), h0, cfg, streams, betas
        )
        xs, _, hs = _allocating_crn_steps(
            P, model_list, x0, y0, h0, dt, n_steps,
            [NoiseStream(8, i) for i in range(width)], betas,
        )
        assert np.array_equal(full_x[..., 1:], xs)
        for rec, h in zip(recs, hs):
            assert np.array_equal(rec[..., 1:], h)

    @pytest.mark.parametrize("thermostat", [True, False])
    @pytest.mark.parametrize("width", [1, 7, 600])
    def test_full_steps_equal_the_allocating_form_bitwise(self, width, thermostat):
        # The engine steps x (1 - mu dt) and y plus the orthogonal drift's
        # increments; x and y must keep the bits of that gradient step.
        n_steps, dt = 6, 1e-4
        x0 = np.linspace(-1.0, 1.0, width)
        y0 = P.tau * np.sin(P.omega * x0) + np.linspace(0.5, -0.5, width)
        cfg = IntegratorConfig(dt=dt, t_final=n_steps * dt)
        assert cfg.n_steps == n_steps
        streams = [NoiseStream(8, i) for i in range(width)]
        _, rec = integrate_full_batch(
            P, np.stack([x0, y0], axis=-1), cfg, streams if thermostat else None, thermostat
        )
        xs, ys, _ = _allocating_crn_steps(
            P, [], x0, y0, 0.0, dt, n_steps, [NoiseStream(8, i) for i in range(width)],
            (P.beta,) if thermostat else None,
        )
        assert rec[:, 1:, 0].tobytes() == xs[0].tobytes()
        assert rec[:, 1:, 1].tobytes() == ys[0].tobytes()


class _FilledStream:
    """A stand-in NoiseStream whose pairs all equal ``value``, filled
    without a ufunc call."""

    def __init__(self, stream_id, value=0.1):
        self.stream_id = stream_id
        self.value = value

    def pairs(self, count, out):
        out.fill(self.value)
        return out.reshape(count, 2)


class _CountingUfunc:
    """A ufunc that counts its calls in ``counts`` and is otherwise the ufunc."""

    def __init__(self, ufunc, counts):
        self._ufunc, self._counts = ufunc, counts

    def __call__(self, *args, **kwargs):
        self._counts.append(self._ufunc.__name__)
        return self._ufunc(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._ufunc, name)


# The ufuncs that _march, bind_orthogonal_drift and models.bind_coefficients
# bind.
ENGINE_UFUNCS = ("add", "subtract", "multiply", "divide", "tan", "sqrt", "square")


def _ufunc_calls_per_step(run):
    """The ufunc calls of one step of ``run(n_steps)``: the difference of two
    march lengths, so that the calls made once per march cancel."""
    def calls(n_steps):
        counts = []
        with contextlib.ExitStack() as stack:
            for name in ENGINE_UFUNCS:
                stack.enter_context(mock.patch.object(
                    np, name, _CountingUfunc(getattr(np, name), counts)))
            run(n_steps)
        return len(counts)

    return (calls(9) - calls(4)) / 5


class TestEngineCalls:
    """A step of the engine costs its ufunc calls at the widths the
    experiments run, so their count per step is pinned."""

    N = 7

    def starts(self):
        x0 = np.linspace(-0.4, 0.5, self.N)
        return np.stack([x0, P.tau * np.sin(P.omega * x0)], axis=-1)

    @staticmethod
    def cfg(n_steps):
        return IntegratorConfig(dt=1e-3, t_final=n_steps * 1e-3)

    def test_unthermostatted_full_step_makes_fourteen_calls(self):
        # Twelve for the orthogonal drift's increment, the decay of x and
        # the update.
        assert _ufunc_calls_per_step(lambda n_steps: integrate_full_batch(
            P, self.starts(), self.cfg(n_steps), None, False)) == 14

    def test_thermostatted_full_step_makes_sixteen_calls(self):
        # Two more: amp times the increments, and adding them.
        assert _ufunc_calls_per_step(lambda n_steps: integrate_full_batch(
            P, self.starts(), self.cfg(n_steps),
            [_FilledStream(i) for i in range(self.N)])) == 16

    def test_three_beta_crn_step_makes_thirty_six_calls(self):
        # Beside the sixteen: memory-corrected's seventeen, memory-free's
        # one, the models' noise term and their drifts times dt.
        model_list = [EffectiveModel(MEMORY_CORRECTED, P), EffectiveModel(MEMORY_FREE, P)]
        assert _ufunc_calls_per_step(lambda n_steps: integrate_crn_batch(
            P, model_list, self.starts()[0], 0.2, self.cfg(n_steps),
            [_FilledStream(i) for i in range(self.N)], (1.0, 10.0, 100.0))) == 36

    @pytest.mark.parametrize("engine", ["flow", "full", "crn"])
    def test_stable_desk_march_tests_fewer_than_one_step_in_100(self, engine):
        # The desk step, 1e-4, of mean-trajectory (flow) and ensemble (crn).
        n, n_steps = 200, 4096
        cfg = IntegratorConfig(dt=1e-4, t_final=n_steps * 1e-4)
        x0 = np.linspace(-0.4, 0.5, n)
        starts = np.stack([x0, P.tau * np.sin(P.omega * x0) + 0.1], axis=-1)
        streams = [NoiseStream(1, i) for i in range(n)]
        model_list = [EffectiveModel(MEMORY_CORRECTED, P), EffectiveModel(MEMORY_FREE, P)]
        run = {
            "flow": lambda: integrate_flow_batch(P, model_list, starts, 2.0, cfg),
            "full": lambda: integrate_full_batch(P, starts, cfg, streams),
            "crn": lambda: integrate_crn_batch(P, model_list, starts[0], 0.2, cfg, streams,
                                               (1.0, 10.0, 100.0)),
        }[engine]
        assert _dot_calls(run) < n_steps / 100

    def test_march_that_the_bound_cannot_clear_tests_every_step(self):
        # Entries near the limit, which memory-free relaxes too slowly to
        # leave its bound's reach in a few steps.
        def run(n_steps):
            return integrate_scalar_batch(
                EffectiveModel(MEMORY_FREE, P), P, np.full(self.N, 0.9 * BLOWUP_LIMIT),
                self.cfg(n_steps), [_FilledStream(i) for i in range(self.N)])

        assert (_dot_calls(lambda: run(9)) - _dot_calls(lambda: run(4))) / 5 == 1


class _DotCounting(np.ndarray):
    """An array whose ``dot`` calls are counted in ``calls``."""

    calls = 0

    def dot(self, *args, **kwargs):
        _DotCounting.calls += 1
        return super().dot(*args, **kwargs)


def _dot_calls(run):
    """The calls that ``run()`` makes of its engine state's ``dot``, the
    blowup test's sum of squares."""
    march = sde._march

    def counted(p, cfg, state, *args):
        return march(p, cfg, state.view(_DotCounting), *args)

    _DotCounting.calls = 0
    with mock.patch.object(sde, "_march", counted):
        run()
    return _DotCounting.calls


@contextlib.contextmanager
def _every_step():
    """The engine with its blowup test on every step, as it was before the
    growth bound's schedule: the reference that the schedule must match."""
    with mock.patch.object(sde, "_steps_to_test",
                           lambda squares, growth, offset, steps_left: min(1, steps_left)):
        yield


def _flat(value):
    """``value``'s arrays, as (shape, bytes), and other leaves, in order."""
    if isinstance(value, (tuple, list)):
        return [leaf for item in value for leaf in _flat(item)]
    if isinstance(value, np.ndarray):
        return [(value.shape, value.tobytes())]
    return [value]


def _same_blowup(run):
    """The blowup that ``run()`` raises, after checking that it raises the
    same one, with the same step, stream, beta and records, when the
    engine tests every step."""
    with pytest.raises(NumericalBlowupError) as info:
        run()
    with _every_step(), pytest.raises(NumericalBlowupError) as ref:
        run()
    err, ref = info.value, ref.value
    assert (err.step, err.stream_id, err.beta) == (ref.step, ref.stream_id, ref.beta)
    assert _flat(err.recorded) == _flat(ref.recorded)
    return err


@st.composite
def _growth_cases(draw, full, thermostat):
    """Parameters, dt, a state in range, betas (None unthermostatted) and
    a noise value for one engine step: states near the crests of x (where
    tan(omega x / 2) is huge) and of h (tan(omega h)), and up to 1e11."""
    mu = draw(st.floats(1e-3, 1e3))
    p = BenchmarkParams(mu=mu, lam=mu * draw(st.floats(6.0, 1e3)),
                        tau=draw(st.floats(0.0, 10.0)),
                        omega=draw(st.one_of(st.just(0.0), st.floats(1e-3, 100.0))),
                        beta=1.0)
    dt = draw(st.floats(1e-8, 1.0))
    crest = st.tuples(st.integers(-10**6, 10**6), st.sampled_from([1.0, 2.0]),
                      st.sampled_from([-math.inf, 0.0, math.inf])).map(
        lambda c: np.nextafter((c[0] + 0.5) * c[1] * math.pi / (p.omega or 1.0), c[2])
        if c[2] else (c[0] + 0.5) * c[1] * math.pi / (p.omega or 1.0))
    values = st.one_of(st.floats(-1e11, 1e11), st.floats(-1.0, 1.0), crest)
    n_beta = draw(st.integers(1, 3)) if thermostat else 1
    shape = (2 if full else 1, n_beta, draw(st.integers(1, 4)))
    state = draw(arrays(np.float64, shape, elements=values))
    beta = (np.array(draw(st.lists(st.floats(1e-3, 1e6), min_size=n_beta, max_size=n_beta)))
            .reshape(-1, 1) if thermostat else None)
    z = draw(st.one_of(st.just(0.0), st.floats(-50.0, 50.0))) if thermostat else 0.0
    return p, dt, state, beta, z


class TestBlowupSchedule:
    """The engine tests for blowup only on steps that its growth bound per
    step cannot clear, so it must report what a test on every step does."""

    @pytest.mark.parametrize("full, thermostat, kinds", [
        (True, False, ()), (True, True, ()),
        (False, True, (MEMORY_CORRECTED,)), (False, True, (MEMORY_FREE,)),
    ], ids=["full", "full-thermostatted", "memory-corrected", "memory-free"])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_step_stays_within_the_growth_bound(self, full, thermostat, kinds, data):
        # (1 + e) m + c + k |z|, m the largest |entry| before the step.
        p, dt, state, beta, z = data.draw(_growth_cases(full, thermostat))
        stepped = [EffectiveModel(kind, p) for kind in kinds]
        m = np.abs(state).max()
        growth, offset, gain = sde._step_growth(p, dt, full, stepped, beta)
        streams = [_FilledStream(i, z) for i in range(state.shape[-1])]
        with np.errstate(all="ignore"):
            try:
                sde._march(p, IntegratorConfig(dt=dt, t_final=dt), state, full, stepped, beta,
                           streams, state, lambda times, recs: None)
            except NumericalBlowupError:
                pass
        assert np.abs(state).max() <= (1.0 + growth) * m + offset + gain * abs(z)

    @settings(max_examples=300, deadline=None)
    @given(
        squares=st.one_of(st.floats(0.0, 1e30), st.sampled_from([0.0, 5e-324, 1e24, 2e24])),
        growth=st.floats(sde.ROUNDING_MARGIN, 1e3),
        offset=st.floats(0.0, 2e12),
    )
    def test_schedule_clears_only_steps_that_stay_in_range(self, squares, growth, offset):
        # The bound (1 + e)^j (m + d) - d, d = c / e, in 60 digits, from the
        # largest m that the rounded squares allow (each square rounds by a
        # relative 2**-53 or, below the normals, by 2**-1075): below the
        # limit one step before the test, and near it at the test.
        steps = sde._steps_to_test(squares, growth, offset, 2**62)
        assert 1 <= steps <= 2**62
        ctx = decimal.Context(prec=60)
        m = ctx.sqrt((decimal.Decimal(squares) + decimal.Decimal(5e-324))
                     * (1 + decimal.Decimal(2.0**-52)))
        a, d = 1 + decimal.Decimal(growth), decimal.Decimal(offset) / decimal.Decimal(growth)
        limit = decimal.Decimal(BLOWUP_LIMIT)

        def bound(j):
            return ctx.power(a, j) * (m + d) - d

        if steps > 1:
            assert bound(steps - 1) < limit
        if steps < 2**62:
            assert bound(steps) >= limit * decimal.Decimal(1 - 1e-6)

    @pytest.mark.parametrize("dt, step", [(0.12, 67), (0.15, 34)])
    def test_mean_trajectory_blowup(self, dt, step):
        cfg = resolve("mean-trajectory", set_pairs=["n_samples=4", f"dt={dt}", "t_final=20"])
        p, x0 = params_from_config(cfg), cfg["x0"]
        icfg = IntegratorConfig(dt, 20.0, cfg["record_stride"])
        models = [EffectiveModel(kind, p) for kind in cfg["models"]]

        def run():
            # The runner's engine call, keeping every record.
            streams = [NoiseStream(1, i) for i in range(4)]
            x0s = np.stack([np.full(4, x0), conditional_y_sample(p, x0, streams)], axis=-1)
            integrate_flow_batch(p, models, x0s, x0, icfg, streams)

        err = _same_blowup(run)
        assert (err.step, err.stream_id, err.beta) == (step, 0, None)
        with pytest.raises(NumericalBlowupError) as runner:
            experiments.simulate_mean_trajectory(cfg, 1)
        assert (runner.value.step, runner.value.stream_id) == (step, 0)

    @pytest.mark.parametrize("dt, step", [(0.12, 68), (0.15, 35)])
    def test_ensemble_blowup(self, dt, step):
        cfg = resolve("ensemble", set_pairs=["n_samples=4", f"dt={dt}", "t_final=20"])
        x0 = cfg["x0"]
        models = [EffectiveModel(MEMORY_CORRECTED, P), EffectiveModel(MEMORY_FREE, P)]
        icfg = IntegratorConfig(dt, 20.0, cfg["record_stride"])
        err = _same_blowup(lambda: integrate_crn_batch(
            P, models, (x0, P.tau * math.sin(P.omega * x0)), x0, icfg,
            [NoiseStream(1, i) for i in range(4)], cfg["beta_list"]))
        assert (err.step, err.stream_id, err.beta) == (step, 0, 1.0)
        with pytest.raises(NumericalBlowupError) as runner:
            experiments.simulate_ensemble(cfg, 1)
        assert (runner.value.step, runner.value.stream_id, runner.value.beta) == (step, 0, 1.0)

    def test_stationary_blowup(self):
        cfg = resolve("stationary", set_pairs=["n_samples=4", "dt_main=0.12"])
        err = _same_blowup(lambda: experiments.simulate_stationary(cfg, 1))
        assert (err.step, err.stream_id, err.beta) == (67, 0, 1.0)

    def test_noise_past_the_normal_bound_is_bounded(self):
        # A stand-in stream's 1e12, far past NORMAL_BOUND, drives the state
        # out of range at step 23, which the drift alone would never do.
        cfg = IntegratorConfig(dt=1e-3, t_final=0.1)
        err = _same_blowup(lambda: integrate_scalar_batch(
            EffectiveModel(MEMORY_FREE, P), P, np.zeros(3), cfg,
            [_FilledStream(i, 1e12) for i in range(3)]))
        assert (err.step, err.stream_id) == (23, 0)

    def test_noise_induced_drift_is_bounded(self):
        # At tau omega = 0.1, memory-corrected's noise-induced drift nears
        # its bound tau^2 omega^3 / beta = 1e12, and one step of 2 from a
        # crest leaves range, which the slope mu alone would not allow.
        p = BenchmarkParams(mu=1.0, lam=20.0, tau=1e-15, omega=1e14, beta=1.0)
        cfg = IntegratorConfig(dt=2.0, t_final=200.0)
        err = _same_blowup(lambda: integrate_scalar_batch(
            EffectiveModel(MEMORY_CORRECTED, p), p, np.full(2, math.pi / (4.0 * p.omega)), cfg,
            [_FilledStream(i, 0.0) for i in range(2)]))
        assert (err.step, err.stream_id) == (1, 0)


def _record_runs(engine, stride, n_rec):
    """``engine``'s records over a run of ``n_rec`` records at ``stride``,
    and the same records taken one at a time, each as the last record of a
    run that ends at its step; both in the layout of the engine's return
    value."""
    n, dt = 3, 1e-3
    x0s = np.stack([np.linspace(-0.4, 0.5, n), np.linspace(0.3, -0.2, n)], axis=-1)
    model_list = [EffectiveModel(MEMORY_CORRECTED, P), EffectiveModel(MEMORY_FREE, P)]
    betas = {"crn-1": 1.0, "crn-3": (1.0, 10.0, 100.0)}.get(engine)

    def run(n_steps, stride):
        cfg = IntegratorConfig(dt=dt, t_final=n_steps * dt, record_stride=stride)
        assert cfg.n_steps == n_steps
        streams = [NoiseStream(5, i) for i in range(n)]
        if engine == "full":
            # (n, n_rec, 2) with the record axis last, as the others have it.
            return integrate_full_batch(P, x0s, cfg, streams)[1].transpose(0, 2, 1)
        if engine == "scalar":
            return integrate_scalar_batch(model_list[0], P, x0s[:, 0], cfg, streams)[1]
        if engine == "flow":
            return integrate_flow_batch(P, model_list, x0s, 0.2, cfg, streams)[1]
        _, full_x, recs = integrate_crn_batch(P, model_list, x0s[0], 0.2, cfg, streams, betas)
        return np.stack([full_x] + recs)

    # The last record falls between strides when stride > 1.
    n_steps = (n_rec - 2) * stride + max(1, stride // 2)
    steps = IntegratorConfig(dt=dt, t_final=n_steps * dt, record_stride=stride).record_steps()
    assert len(steps) == n_rec
    reference = [run(max(k, 1), max(k, 1))[..., -1 if k else 0] for k in steps]
    return run(n_steps, stride), np.stack(reference, axis=-1)


class TestRecordMajorRecords:
    """Each record is one row of a record-major array, copied from the state
    at its step; every front end's records, in the layout it returns, must
    be those of a run that ends at that step."""

    @pytest.mark.parametrize("engine", ["full", "scalar", "crn-1", "crn-3", "flow"])
    @pytest.mark.parametrize("stride", [1, 3, 7])
    @pytest.mark.parametrize("n_rec", [3, 4, 5, 11])
    def test_records_equal_per_step_records(self, engine, stride, n_rec):
        records, reference = _record_runs(engine, stride, n_rec)
        assert records.shape == reference.shape
        assert records.tobytes() == reference.tobytes()

    def test_blowup_carries_the_per_step_prefix(self):
        # dt = 0.2 blows the full system up part of the way through the run;
        # its prefix must hold each record as a run ending at its step has it.
        dt = 0.2
        x0, y0 = 0.3, P.tau * np.sin(P.omega * 0.3)
        model_list = [EffectiveModel(MEMORY_CORRECTED, P), EffectiveModel(MEMORY_FREE, P)]

        def run(t_final):
            return integrate_crn_batch(
                P, model_list, (x0, y0), x0, IntegratorConfig(dt=dt, t_final=t_final),
                [NoiseStream(2, i) for i in range(4)], (1.0, 10.0, 100.0),
            )

        with pytest.raises(NumericalBlowupError) as err:
            run(20.0)
        times, full_x, model_recs = err.value.recorded
        assert 1 < err.value.step < 100
        assert full_x.shape[-1] == len(times) == err.value.step
        got = np.stack([full_x, *model_recs])
        for k in range(1, err.value.step):
            want_times, want_x, want_recs = run(k * dt)
            assert times[k] == want_times[-1]
            assert got[..., k].tobytes() == np.stack([want_x, *want_recs])[..., -1].tobytes()
        assert np.all(got[..., 0] == np.array([x0, x0, x0])[:, None, None])


class TestRecordSink:
    """With a sink, the engine hands over its records a block at a time:
    the records of the same call without one, in order, every record before
    a blowup included."""

    MODELS = [EffectiveModel(MEMORY_CORRECTED, P), EffectiveModel(MEMORY_FREE, P)]

    def crn(self, cfg, sink=None):
        x0, y0 = 0.3, P.tau * np.sin(P.omega * 0.3)
        return integrate_crn_batch(
            P, self.MODELS, (x0, y0), x0, cfg, [NoiseStream(2, i) for i in range(4)],
            (1.0, 10.0, 100.0), sink=sink,
        )

    @staticmethod
    def collector(block_records, record_bytes):
        """A sink that copies each block it gets, patched to take
        ``block_records`` records of ``record_bytes`` at a time."""
        blocks = []

        def sink(start, block):
            assert start == sum(map(len, blocks))
            assert 0 < len(block) <= block_records
            blocks.append(block.copy())

        budget = mock.patch.object(sde, "RECORD_BLOCK_BYTES", block_records * record_bytes)
        return blocks, sink, budget

    @pytest.mark.parametrize("block_records", [1, 3, 7])
    def test_blocks_hold_the_records_of_a_call_without_a_sink(self, block_records):
        cfg = IntegratorConfig(dt=1e-3, t_final=0.02, record_stride=1)
        times, full_x, model_recs = self.crn(cfg)
        blocks, sink, budget = self.collector(block_records, 3 * 3 * 4 * 8)
        with budget:
            sunk_times, none_x, none_recs = self.crn(cfg, sink)
        assert none_x is None and none_recs is None
        assert sunk_times.tobytes() == times.tobytes()
        want = np.moveaxis(np.stack([full_x, *model_recs]), -1, 0)
        assert len(blocks) == -(-len(times) // block_records)
        assert np.concatenate(blocks).tobytes() == want.tobytes()

    def test_blowup_hands_over_every_record_before_its_step(self):
        # dt = 0.2 blows the full system up after several blocks of 3.
        cfg = IntegratorConfig(dt=0.2, t_final=20.0)
        with pytest.raises(NumericalBlowupError) as plain:
            self.crn(cfg)
        blocks, sink, budget = self.collector(3, 3 * 3 * 4 * 8)
        with budget, pytest.raises(NumericalBlowupError) as sunk:
            self.crn(cfg, sink)
        times, full_x, model_recs = plain.value.recorded
        assert (sunk.value.step, sunk.value.stream_id, sunk.value.beta) == (
            plain.value.step, plain.value.stream_id, plain.value.beta)
        assert len(times) == plain.value.step > 3 * 3
        assert sunk.value.recorded[0].tobytes() == times.tobytes()
        want = np.moveaxis(np.stack([full_x, *model_recs]), -1, 0)
        assert np.concatenate(blocks).tobytes() == want.tobytes()

    def test_flow_batch_hands_over_the_full_records(self):
        cfg = IntegratorConfig(dt=1e-3, t_final=0.05, record_stride=2)
        x0s = np.stack([np.linspace(-0.4, 0.5, 5), np.linspace(0.3, -0.2, 5)], axis=-1)
        times, full_x, runs = integrate_flow_batch(P, self.MODELS, x0s, 0.2, cfg)
        blocks, sink, budget = self.collector(4, 5 * 8)
        with budget:
            _, none_x, sunk_runs = integrate_flow_batch(P, self.MODELS, x0s, 0.2, cfg, sink=sink)
        assert none_x is None
        assert np.concatenate(blocks).tobytes() == full_x.T[:, None].tobytes()
        for (values, step), (sunk_values, sunk_step) in zip(runs, sunk_runs):
            assert step == sunk_step and values.tobytes() == sunk_values.tobytes()


def engine_model_flow(model, h0, cfg):
    """An unthermostatted reduced model stepped as the numpy engine stepped
    one before the float flow replaced it: a one-element array, h + drift(h)
    dt per step, and the engine's blowup rule (a sum of squares not below
    BLOWUP_SQUARED, then the exact test).  Returns the values recorded
    before the blowup and its step, or None, as ``sde.simulate_scalar`` does."""
    h = np.array([h0], dtype=float)
    rec_steps = cfg.record_steps()
    values = [h[0]]
    with np.errstate(over="ignore"):
        for step in range(1, cfg.n_steps + 1):
            h = h + drift(model, h) * cfg.dt
            if not h.dot(h) < sde.BLOWUP_SQUARED and not np.abs(h).max() < BLOWUP_LIMIT:
                return np.array(values), step
            if len(values) < len(rec_steps) and step == rec_steps[len(values)]:
                values.append(h[0])
    return np.array(values), None


class TestFlowBatch:
    """The unthermostatted full system beside the reduced models as float
    flows, as ``mean-trajectory`` runs it; the flows, and
    ``simulate_scalar`` alone, against the engine's per-step form
    (:func:`engine_model_flow`) bit for bit."""

    def assert_engine_bits(self, model, h0, cfg, values, step):
        want, want_step = engine_model_flow(model, h0, cfg)
        assert step == want_step
        assert values.tobytes() == want.tobytes()
        alone, alone_step = simulate_scalar(model, h0, cfg)
        assert alone_step == want_step
        assert alone.tobytes() == want.tobytes()

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
            self.assert_engine_bits(EffectiveModel(kind, P), self.X0, self.CFG, values, step)
        # The naive-memory model blows up mid-run, between two records.
        assert 0 < runs[1][1] < self.CFG.n_steps
        assert 0 < len(runs[1][0]) < len(times)

    @pytest.mark.parametrize("kind", [MEMORY_CORRECTED, MEMORY_FREE, NAIVE_MEMORY])
    def test_float_flow_matches_numpy_engine_over_mean_relax_window(self, kind):
        # The benchmark's mean-relax window (desk dt, t_final = 2): the
        # Python-float flow against the numpy engine's per-step form,
        # through naive-memory's blowup step and truncated prefix.
        cfg = IntegratorConfig(dt=1e-4, t_final=2.0, record_stride=10)
        model = EffectiveModel(kind, P)
        x0s, streams = self.starts(1)
        _, _, [(values, step)] = integrate_flow_batch(P, [model], x0s, self.X0, cfg, streams)
        self.assert_engine_bits(model, self.X0, cfg, values, step)
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
    def test_mirrored_pair_averages_to_zero(self):
        t = np.linspace(0.0, 1.0, 5)
        f = np.sin(t) + 0.5
        mean, _ = mean_stderr(np.stack([f, -f]))
        assert np.allclose(mean, 0.0, atol=1e-15)

    def test_ou_ensemble_mean_tracks_analytic_decay(self):
        # 500 thermostatted OU trajectories: mean within 3 stderr of x0 e^{-mu t}.
        n = 500
        cfg = IntegratorConfig(dt=1e-3, t_final=1.0, record_stride=250)
        streams = [NoiseStream(8, i) for i in range(n)]
        _, rec = integrate_full_batch(P_OU, np.tile([1.0, 0.0], (n, 1)), cfg, streams)
        mean, stderr = mean_stderr(rec[:, :, 0])
        analytic = np.exp(-P_OU.mu * cfg.record_steps() * cfg.dt)
        for k in (2, 4):
            assert abs(mean[k] - analytic[k]) < 3.0 * stderr[k]

    def test_factor_scales_before_dividing(self):
        # The runners' and the kernel estimators' expressions, bit for bit.
        samples = np.random.default_rng(4).normal(size=(9, 33))
        beta = 0.3
        mean, stderr = mean_stderr(samples)
        assert np.array_equal(mean, samples.mean(axis=0))
        assert np.array_equal(stderr, samples.std(axis=0, ddof=1) / np.sqrt(9))
        mean, stderr = mean_stderr(samples, axis=1, factor=beta)
        assert np.array_equal(mean, beta * samples.mean(axis=1))
        assert np.array_equal(stderr, beta * samples.std(axis=1, ddof=1) / np.sqrt(33))
        # One component of record-major records, (record, beta, stream): a
        # view that is not C-contiguous, reduced along its contiguous stream
        # axis, with more streams than numpy's pairwise block of 128.
        records = np.random.default_rng(5).normal(size=(6, 3, 2, 257))
        rows = records[:, 1]
        assert not rows.flags.c_contiguous and rows.strides[-1] == rows.itemsize
        mean, stderr = mean_stderr(rows, axis=-1, factor=beta)
        assert np.array_equal(mean, beta * rows.mean(axis=-1))
        assert np.array_equal(stderr, beta * rows.std(axis=-1, ddof=1) / np.sqrt(257))

    def test_stream_statistics_of_a_block_are_those_of_each_row(self):
        # One call over a (record, component, beta, stream) block has the
        # bits of a call per (component, beta) on its record-major view,
        # with more streams than numpy's pairwise block of 128.
        records = np.random.default_rng(6).normal(size=(7, 3, 2, 257))
        stats = np.full((2, 9, 3, 2), np.nan)
        sde.stream_statistics(stats, 2, records)
        assert np.isnan(stats[:, :2]).all()
        for c in range(3):
            for k in range(2):
                mean, stderr = mean_stderr(records[:, c, k], axis=-1)
                assert stats[0, 2:, c, k].tobytes() == mean.tobytes()
                assert stats[1, 2:, c, k].tobytes() == stderr.tobytes()

    @pytest.mark.parametrize("block_records", [1, 3, 4, 64])
    def test_join_statistics_of_pieces_in_any_layout(self, block_records):
        # Stream blocks of 7, 1 and 12 streams, components in any layout,
        # joined a record block at a time: the statistics of the whole.
        records = np.random.default_rng(7).normal(size=(10, 3, 2, 20))
        want = np.empty((2, 10, 3, 2))
        sde.stream_statistics(want, 0, records)
        pieces = [[layout(records[:, c, :, a:b]) for c in range(3)]
                  for layout, (a, b) in zip((np.asarray, np.asfortranarray, np.asarray),
                                            ((0, 7), (7, 8), (8, 20)))]
        with mock.patch.object(sde, "RECORD_BLOCK_BYTES", block_records * records[0].nbytes):
            got = sde.join_statistics(pieces)
        assert got.tobytes() == want.tobytes()
        # One component without a beta axis, as mean-trajectory has it.
        got = sde.join_statistics([[records[:, 0, 0, :9]], [records[:, 0, 0, 9:]]])
        assert got.tobytes() == want[:, :, :1, 0].tobytes()


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
        _, a = integrate_full_batch(P, np.array([[0.5, 1.0]]), cfg, [NoiseStream(4, 2)])
        _, b = integrate_full_batch(P, np.array([[0.5, 1.0]]), cfg, [NoiseStream(4, 2)])
        assert np.array_equal(a[0], b[0])

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
