"""Euler-Maruyama integration of the full 2D dynamics and of scalar reduced
models, driven by counter-addressed Gaussian streams so that runs are exactly
reproducible, ensembles are independent of how they are split into stream
blocks, and reduced models can share the resolved-component Brownian
increments of the full system (common random numbers).

One chunked loop, ``_march``, steps every batch; ``integrate_full_batch``,
``integrate_scalar_batch`` and ``integrate_crn_batch`` only choose its
planes, betas and output layout.
The state is laid out (plane, beta, stream): one contiguous plane per
coordinate (x and y of the full system, h of each reduced model) and rows
indexed by (beta, stream), so several inverse temperatures run as one wide
batch.  Each stream's noise is drawn once per chunk and broadcast over the
betas without a copy; the amplitude sqrt(2 dt / beta) and 1/beta are per row.
Every operation is elementwise in a fixed order, so a row's bits do not
depend on the batch around it, and a multi-beta run equals one-beta runs bit
for bit.

A blowup raises ``NumericalBlowupError`` at the first step that leaves range,
naming the lowest stream, then the first beta, that left it.

``integrate_flow_batch`` runs the unthermostatted full system in ``_march``
and each deterministic reduced model beside it as a recurrence in Python
floats (``_flow``), which costs far less than a one-row engine step and
has the bits of a one-row ``integrate_scalar_batch`` call.  A model that leaves
range ends there, keeping its blowup step and its records before it, while
the full system and the other models go on.

``map_stream_blocks`` splits an ensemble into one stream block per worker and
runs them in forked processes: the per-step loop holds the interpreter lock,
so threads would not overlap.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from . import models

# Any coordinate beyond this magnitude (or non-finite) counts as a blowup.
BLOWUP_LIMIT = 1e12

# Most steps one integration may take: beyond 2**53, round(t_final / dt) no
# longer counts steps exactly (and no such run would finish).
MAX_STEPS = 2**53

# Steps of noise generated per block inside the integration loops.
NOISE_CHUNK = 4096

# The worker of the running map_stream_blocks call.  Workers are closures,
# which cannot be pickled; forked children inherit this instead.
_block_worker = None


class GridMismatchError(ValueError):
    """Trajectories passed to an ensemble reduction have different time grids."""


class NumericalBlowupError(RuntimeError):
    """State left the representable range during integration.

    Carries the failing ``step`` index and, when known, the ``stream_id`` and
    inverse temperature ``beta`` of the offending trajectory.  Batch
    integrators stash the prefix recorded before the failure in ``recorded``,
    shaped like their return value; the single-trajectory wrappers re-raise
    with that prefix as a ``trajectory``.
    """

    def __init__(self, step, stream_id=None, trajectory=None, recorded=None, beta=None):
        self.step = step
        self.stream_id = stream_id
        self.trajectory = trajectory
        self.recorded = recorded
        self.beta = beta
        super().__init__(f"state exceeded {BLOWUP_LIMIT:g} at step {step}{self.where}")

    def __reduce__(self):
        # Keep every field when a worker process sends the error back.
        return type(self), (self.step, self.stream_id, self.trajectory, self.recorded, self.beta)

    @property
    def where(self) -> str:
        """The known stream and beta as " (stream i, beta b)", or ""."""
        parts = []
        if self.stream_id is not None:
            parts.append(f"stream {self.stream_id}")
        if self.beta is not None:
            parts.append(f"beta {self.beta:g}")
        return f" ({', '.join(parts)})" if parts else ""


@dataclass
class NoiseStream:
    """Deterministic Gaussian increment source addressed by
    (master_seed, stream_id, position).

    Position ``n`` owns two dedicated 64-bit words of a Philox counter stream
    keyed by (master_seed, stream_id); the words become a standard-normal pair
    through the inverse normal CDF.  Every draw is therefore a pure function
    of the address, independent of chunking, replay, or thread schedule, and
    distinct stream ids give independent sequences.

    ``scalars`` returns the first component of the pair at the same position,
    which is what lets a reduced scalar model consume exactly the resolved
    component of the 2D increments driving the full model.
    """

    master_seed: int
    stream_id: int
    position: int = 0
    _key: np.ndarray = field(init=False, repr=False)
    _bitgen: Philox | None = field(init=False, repr=False, default=None)
    _word_cursor: int = field(init=False, repr=False, default=-1)

    def __post_init__(self):
        self._key = np.array(
            [self.master_seed % 2**64, self.stream_id % 2**64], dtype=np.uint64
        )

    def _take_words(self, count: int) -> np.ndarray:
        # Words [2*position, 2*position + count) of the keyed counter stream.
        # The generator persists between calls; it is reseeked only when
        # ``position`` was changed externally (Philox advances in 4-word
        # blocks, so a reseek may discard up to 2 words).
        word_start = 2 * self.position
        if self._bitgen is None or self._word_cursor != word_start:
            self._bitgen = Philox(key=self._key)
            if word_start >= 4:
                self._bitgen.advance(word_start // 4)
            skip = word_start % 4
            if skip:
                self._bitgen.random_raw(skip)
            self._word_cursor = word_start
        words = self._bitgen.random_raw(count)
        self._word_cursor += count
        return words

    def pairs(self, count: int) -> np.ndarray:
        """Next ``count`` standard-normal pairs, shape (count, 2)."""
        words = self._take_words(2 * count).reshape(count, 2)
        self.position += count
        u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        return ndtri(u)

    def scalars(self, count: int) -> np.ndarray:
        """Next ``count`` scalar draws: component 0 of :meth:`pairs` at the
        same positions, bit for bit."""
        return self.pairs(count)[:, 0]


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration window: step ``dt``, horizon ``t_final``, and the
    number of steps between recorded samples."""

    dt: float
    t_final: float
    record_stride: int = 1

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.t_final < self.dt:
            raise ValueError("t_final must be at least dt")
        if not self.t_final / self.dt <= MAX_STEPS:
            raise ValueError("t_final / dt must be at most 2**53 steps")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_final / self.dt)))

    def record_steps(self) -> np.ndarray:
        """Step indices at which the state is recorded (0 and n_steps always)."""
        idx = np.arange(0, self.n_steps + 1, self.record_stride)
        if idx[-1] != self.n_steps:
            idx = np.append(idx, self.n_steps)
        return idx


@dataclass(frozen=True)
class Trajectory:
    """One recorded realisation: strictly increasing ``times`` and per-time
    ``states`` (shape (n,) for scalar models, (n, 2) for the full system)."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0.0):
            raise ValueError("times must be strictly increasing")

    @property
    def x(self) -> np.ndarray:
        """The resolved component (first coordinate for 2D states)."""
        return self.states if self.states.ndim == 1 else self.states[:, 0]


def _draw_noise(streams, span):
    """The next ``span`` increment pairs of every stream, shape
    (span, 2, n_streams), so that each step's components are contiguous rows."""
    noise = np.empty((span, 2, len(streams)))
    for i, s in enumerate(streams):
        noise[:, :, i] = s.pairs(span)
    return noise


def _blowup_error(step, state, beta, streams, recorded):
    """The error for the lowest stream of ``state`` that left the
    representable range, at the first of its betas that did."""
    bad = ~(np.abs(state) < BLOWUP_LIMIT).all(axis=0)
    i, k = np.argwhere(bad.T)[0]
    return NumericalBlowupError(
        step,
        stream_id=streams[i].stream_id if streams is not None else None,
        recorded=recorded,
        beta=float(beta[k, 0]) if beta is not None else None,
    )


def _march(p, cfg, state, full, stepped, beta, streams, records, package):
    """The one chunked Euler-Maruyama loop behind the batch integrators.

    ``state`` has shape (planes, n_beta, n_streams) and is stepped in place.
    With ``full`` set, its first and last planes are the full system's x and
    y.  ``stepped`` holds one (model, h) pair per reduced model, ``h`` being
    the plane of ``state`` that the model steps.  ``beta`` is None for an
    unthermostatted run, which steps the drift alone and draws no noise, or
    a column of shape (n_beta, 1): row block k then runs at inverse
    temperature beta[k], and all row blocks share the noise drawn once per
    stream and chunk.  The full system
    consumes each stream's increment pair, every model its first component.

    After each recorded step ``dst[..., pos] = src`` for each (src, dst) of
    ``records``.  ``package(times, k)`` turns the first k records into the
    caller's return value; a blowup raises at its step, carrying that value
    for the records taken before it as ``recorded``.
    """
    n_steps = cfg.n_steps
    rec_idx = cfg.record_steps()
    times = rec_idx * cfg.dt
    rec_steps = rec_idx.tolist() + [-1]
    for src, dst in records:
        dst[..., 0] = src
    rec_pos = 1

    dt = cfg.dt
    thermostat = beta is not None
    if thermostat:
        amp = np.sqrt(2.0 * dt / beta)
        az = np.empty(state.shape[1:])  # amp * resolved noise component
    if full:
        x, y = state[0], state[-1]
        mu, lam, tau, omega = p.mu, p.lam, p.tau, p.omega
        lto = lam * tau * omega
        wx, c, gap, g = (np.empty_like(x) for _ in range(4))
    mag = np.empty_like(state)

    # In-place ufuncs take their output positionally: the out= keyword adds a
    # per-call cost that shows on narrow batches, such as one-row models.
    add, sub, mul = np.add, np.subtract, np.multiply
    step = 0
    while step < n_steps:
        span = min(NOISE_CHUNK, n_steps - step)
        if thermostat:
            noise = _draw_noise(streams, span)
        for j in range(span):
            if thermostat:
                mul(amp, noise[j, 0], az)
            if full:
                # x - (mu x + lam tau omega gap cos(omega x)) dt and
                # y - (-lam gap) dt, with gap = tau sin(omega x) - y.
                mul(omega, x, wx)
                np.cos(wx, c)
                np.sin(wx, gap)
                mul(gap, tau, gap)
                sub(gap, y, gap)
                mul(lto, gap, g)
                mul(g, c, g)
                mul(mu, x, c)
                add(g, c, g)
                mul(g, dt, g)
                sub(x, g, x)
                mul(gap, -lam, gap)
                mul(gap, dt, gap)
                sub(y, gap, y)
                if thermostat:
                    add(x, az, x)
                    mul(amp, noise[j, 1], gap)
                    add(y, gap, y)
            for model, h in stepped:
                if thermostat:
                    b, sigma = models.thermostatted_coefficients(model, h, beta)
                    mul(sigma, az, sigma)
                else:
                    b = models.drift(model, h)
                mul(b, dt, b)
                add(h, b, h)
                if thermostat:
                    add(h, sigma, h)
            step += 1
            if not np.abs(state, mag).max() < BLOWUP_LIMIT:
                raise _blowup_error(
                    step, state, beta, streams, package(times[:rec_pos], rec_pos)
                )
            if step == rec_steps[rec_pos]:
                for src, dst in records:
                    dst[..., rec_pos] = src
                rec_pos += 1

    return package(times, rec_pos)


def integrate_full_batch(p, x0s, cfg, streams=None, thermostat=True):
    """Euler-Maruyama on the full 2D dynamics for a batch of trajectories.

    ``x0s`` has shape (n, 2); ``streams`` supplies one NoiseStream per row and
    may be omitted when ``thermostat`` is off (no noise is consumed then).
    Returns (times, recorded) with recorded of shape (n, n_rec, 2).
    """
    x0s = np.asarray(x0s, dtype=float)
    n = x0s.shape[0]
    if thermostat and (streams is None or len(streams) != n):
        raise ValueError("thermostatted runs need one stream per trajectory")
    state = np.empty((2, 1, n))
    state[:, 0] = x0s.T
    recorded = np.empty((n, len(cfg.record_steps()), 2))
    return _march(
        p, cfg, state, True, (), np.array([[p.beta]]) if thermostat else None,
        streams, [(state, recorded.transpose(2, 0, 1)[:, None])],
        lambda times, k: (times, recorded[:, :k]),
    )


def integrate_scalar_batch(model, p, h0s, cfg, streams=None, thermostat=True):
    """Euler-Maruyama on a reduced scalar model for a batch of trajectories.

    Thermostatted runs step the Ito SDE of
    :func:`models.thermostatted_coefficients` at ``p.beta``: drift plus
    noise-induced drift, and noise term
    ``diffusion(model, h) * sqrt(2 dt / beta) * xi`` with ``xi`` the scalar
    view of each stream, so runs share the resolved-component increments of
    :func:`integrate_full_batch` at equal stream addresses.
    Unthermostatted runs step ``drift`` alone.
    Returns (times, recorded) with recorded of shape (n, n_rec).
    """
    if thermostat:
        models.diffusion(model, 0.0)  # rejects models with no noise closure
    h0s = np.asarray(h0s, dtype=float)
    n = h0s.shape[0]
    if thermostat and (streams is None or len(streams) != n):
        raise ValueError("thermostatted runs need one stream per trajectory")
    state = np.empty((1, 1, n))
    state[0, 0] = h0s
    recorded = np.empty((n, len(cfg.record_steps())))
    return _march(
        p, cfg, state, False, [(model, state[0])],
        np.array([[p.beta]]) if thermostat else None, streams,
        [(state, recorded[None, None])], lambda times, k: (times, recorded[:, :k]),
    )


def integrate_crn_batch(p, scalar_models, xy0, h0, cfg, streams, beta=None):
    """Integrate the full 2D dynamics and several reduced scalar models side by
    side under common random numbers: per stream and step, the full system
    consumes the increment pair while every scalar model consumes its first
    component, exactly as in the separate batch integrators.

    ``beta`` is one inverse temperature or a 1-D sequence of them (default
    ``p.beta``); it overrides the models' own ``params.beta``.  Each beta is
    a block of rows over the same streams and consumes the same increments,
    and every block matches a one-beta call bit for bit.

    All trajectories start from the same ``xy0`` (full) and ``h0`` (models).
    Returns (times, full_x, model_recs) where full_x has shape (n, n_rec),
    with a leading beta axis when ``beta`` is a sequence, and model_recs is
    one same-shaped array per model.
    """
    beta = np.asarray(p.beta if beta is None else beta, dtype=float)
    if beta.ndim > 1 or not np.all(beta > 0.0):
        raise ValueError("beta must be one positive value or a 1-D sequence of them")
    for model in scalar_models:
        models.diffusion(model, 0.0)
    column = beta.reshape(-1, 1)
    x0, y0 = np.asarray(xy0, dtype=float)
    state = np.empty((len(scalar_models) + 2, len(column), len(streams)))
    state[0] = x0
    state[1:-1] = float(h0)
    state[-1] = y0
    out = np.empty((len(scalar_models) + 1,) + state.shape[1:] + (len(cfg.record_steps()),))
    rows = 0 if beta.ndim == 0 else slice(None)

    def package(times, k):
        recs = out[:, rows, :, :k]
        return times, recs[0], list(recs[1:])

    return _march(
        p, cfg, state, True, list(zip(scalar_models, state[1:-1])), column, streams,
        [(state[:-1], out)], package,
    )


def _flow(model, h, cfg):
    """The unthermostatted reduced model from ``h`` as a recurrence in Python
    floats, with the bits of a one-row :func:`integrate_scalar_batch` call.

    Returns (values, blowup_step): the values recorded at
    ``cfg.record_steps()`` before the first step that leaves range, and that
    step, or None for a run that reaches the end.
    """
    rec_steps = cfg.record_steps().tolist() + [-1]
    values = np.empty(len(rec_steps) - 1)
    h = values[0] = float(h)
    dt = cfg.dt
    drift = models.drift
    rec_pos = 1
    for step in range(1, cfg.n_steps + 1):
        h = h + drift(model, h) * dt
        if not abs(h) < BLOWUP_LIMIT:
            return values[:rec_pos], step
        if step == rec_steps[rec_pos]:
            values[rec_pos] = h
            rec_pos += 1
    return values, None


def integrate_flow_batch(p, scalar_models, x0s, h0, cfg, streams=None):
    """Unthermostatted full 2D dynamics for a batch of starts ``x0s`` (shape
    (n, 2)), and beside them each reduced scalar model as a deterministic
    flow from ``h0``.

    Each model steps as a recurrence in Python floats, with the bits of a
    one-row :func:`integrate_scalar_batch` call; a model that blows up ends
    there and the rest go on.  A blowup of the full system raises, naming
    the row's stream when ``streams`` (one per row, never drawn from) is
    given.

    Returns (times, full_x, model_runs): full_x of shape (n, n_rec) records
    the full system's x, and model_runs holds one (values, blowup_step) per
    model, with values recorded up to the blowup and blowup_step None for a
    model that ran to the end.
    """
    runs = [_flow(model, h0, cfg) for model in scalar_models]
    x0s = np.asarray(x0s, dtype=float)
    state = np.empty((2, 1, x0s.shape[0]))
    state[:, 0] = x0s.T
    full_x = np.empty((x0s.shape[0], len(cfg.record_steps())))
    return _march(
        p, cfg, state, True, (), None, streams, [(state[0], full_x[None])],
        lambda times, k: (times, full_x[:, :k], runs),
    )


def _one_trajectory(stream, integrate, *args):
    """Row 0 of the one-row batch ``integrate(*args)`` as a Trajectory; a
    blowup is raised again with ``stream``'s id and the recorded prefix as
    its trajectory."""
    try:
        times, rec = integrate(*args)
    except NumericalBlowupError as err:
        t_part, rec_part = err.recorded
        raise NumericalBlowupError(
            err.step, stream_id=stream.stream_id,
            trajectory=Trajectory(t_part, rec_part[0]), beta=err.beta,
        ) from None
    return Trajectory(times, rec[0])


def simulate_full(p, x0, cfg, stream, thermostat=True) -> Trajectory:
    """Integrate one realisation of the full 2D dynamics from ``x0``.

    With the thermostat off the Brownian term is dropped entirely and the run
    is a deterministic gradient flow.  On blowup the raised error carries the
    trajectory recorded so far.
    """
    return _one_trajectory(
        stream, integrate_full_batch, p, np.asarray(x0, dtype=float)[None, :], cfg,
        None if not thermostat else [stream], thermostat,
    )


def simulate_scalar(model, p, h0, cfg, stream, thermostat=True) -> Trajectory:
    """Integrate one realisation of a reduced scalar model from ``h0``."""
    return _one_trajectory(
        stream, integrate_scalar_batch, model, p, np.array([h0], dtype=float), cfg,
        None if not thermostat else [stream], thermostat,
    )


def ensemble_mean(trajectories) -> tuple[Trajectory, np.ndarray]:
    """Pointwise mean of trajectories on one common grid, plus the pointwise
    standard error of the mean (zero for a single trajectory)."""
    if not trajectories:
        raise ValueError("need at least one trajectory")
    times = trajectories[0].times
    for t in trajectories[1:]:
        if t.times.shape != times.shape or not np.array_equal(t.times, times):
            raise GridMismatchError("trajectories are on different time grids")
    stack = np.stack([t.states for t in trajectories])
    mean = stack.mean(axis=0)
    if len(trajectories) == 1:
        stderr = np.zeros_like(mean)
    else:
        stderr = stack.std(axis=0, ddof=1) / np.sqrt(stack.shape[0])
    return Trajectory(times, mean), stderr


def raise_earliest_blowup(results):
    """Raise the earliest-step, then lowest-stream, blowup among ``results``."""
    errors = [r for r in results if isinstance(r, NumericalBlowupError)]
    if errors:
        raise min(errors, key=lambda err: (err.step, err.stream_id))


def _run_block(a, b):
    """The running map's worker on streams [a, b), or the blowup it raised."""
    try:
        return _block_worker(a, b)
    except NumericalBlowupError as err:
        return err


def map_stream_blocks(worker, n_items, threads=1):
    """Run ``worker(start, stop)`` over ``min(threads, n_items)`` near-equal
    contiguous index blocks and return the results in block order.

    A row's bits do not depend on its batch, so one worker takes every item
    in one batch and the results are the same for any count.  Several blocks
    run in forked processes (serially without ``fork``), so ``worker`` may be
    a closure but its side effects stay in the child.  Blowups go through
    :func:`raise_earliest_blowup` once every block has run; other errors
    come from the first block that raised one.  A fork copies only the
    calling thread, so a pooled call must not race other threads holding
    locks; the package starts none.
    """
    global _block_worker
    k = min(threads, n_items)
    bounds = [n_items * j // k for j in range(k + 1)]
    _block_worker = worker
    try:
        if k > 1 and hasattr(os, "fork"):
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(k, mp_context=context) as pool:
                results = list(pool.map(_run_block, bounds[:-1], bounds[1:]))
        else:
            results = list(map(_run_block, bounds[:-1], bounds[1:]))
    finally:
        _block_worker = None
    raise_earliest_blowup(results)
    return results
