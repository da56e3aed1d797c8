"""Euler-Maruyama integration of the full 2D dynamics and of scalar reduced
models, driven by counter-addressed Gaussian streams so that runs are exactly
reproducible, ensembles are independent of how they are split into stream
blocks, and reduced models can share the resolved-component Brownian
increments of the full system (common random numbers).

The batch front ends, ``integrate_full_batch``, ``integrate_scalar_batch``,
``integrate_crn_batch`` and ``integrate_flow_batch``, are the engine's API.
One chunked loop, ``_march``, steps every batch; the front ends only choose
its planes, betas and output layout.
The state is laid out (plane, beta, stream): one contiguous plane per
coordinate (x and y of the full system, h of each reduced model) and rows
indexed by (beta, stream), so several inverse temperatures run as one wide
batch.  Each stream's noise is drawn once per chunk and broadcast over the
betas without a copy; the amplitude sqrt(2 dt / beta) and 1/beta are per row.
A chunk is drawn a group of streams at a time (``_draw_noise``): each stream
turns its Philox words into normals in place in its row of one reused buffer
(:meth:`NoiseStream.pairs`), and the group goes into the step-major chunk in
one blocked copy, so no write strides across the chunk one stream at a time.
A start drawn once per stream (the kernel's conditional y, the stationary
check's equilibrium point) takes its one pair per stream from
:func:`next_pairs` instead: one Philox pass on arrays of every stream's key
and counter, the same bits as each stream's ``pairs(1)``, without a seek of
the shared generator per stream.
Every operation is elementwise in a fixed order, so a row's bits do not
depend on the batch around it, and a multi-beta run equals one-beta runs bit
for bit.

A blowup raises ``NumericalBlowupError`` at the first step that leaves range,
naming the lowest stream, then the first beta, that left it.  The exact
test runs only on the steps that a growth bound per step, formed once per
march from each plane's drift and once per chunk from its noise, cannot
clear (``_step_growth``, ``_steps_to_test``); no other step can leave range.
At the widths the experiments run, a step costs ufunc calls more than
arithmetic, so ``_march`` makes as few calls as it can and allocates no
array of the batch's width: every plane, the full system's and each
reduced model's, writes its increment and its noise term into two buffers
shaped like the state, and one update steps them all (see its docstring).
Each model's coefficient function is bound once per march
(:func:`models.bind_coefficients`), and so is the full system's drift: the
one definition of the benchmark's orthogonal drift,
:func:`~mzcg.benchmark.bind_orthogonal_drift`, bound at scale dt to the x
and y planes so that it writes the drift's increment, while its
conditional average (-mu x, 0) steps x in place as x *= 1 - mu dt; the
kernel sampler takes its lag-0 drift from the same function at scale 1.
A chunk holds at most NOISE_CHUNK steps, fewer for a batch so wide that
they would pass NOISE_CHUNK_BYTES (:func:`noise_chunk_steps`).
Records are record-major, laid out
(record, plane, beta, stream): each is one contiguous row, copied from the
state at its step.  The batch front ends return record-last views of them.
Given a sink, the engine instead keeps one record block of about
RECORD_BLOCK_BYTES and hands it to the sink each time it fills, so a run of
every stream can reduce its stream statistics as it goes
(:func:`stream_statistics`) and never holds every record; records split into
stream blocks are reduced the same way, a joined record block at a time
(:func:`join_statistics`).

An unthermostatted reduced model has one path, ``simulate_scalar``: a
recurrence in Python floats on its drift bound once
(:func:`models.bind_float_drift`), which costs far less than a one-row
engine step.  ``integrate_flow_batch`` runs the unthermostatted full system
in ``_march`` and each model beside it that way.  A model that leaves range
ends there, keeping its blowup step and its records before it, while the
full system and the other models go on.

Each array that the memory check of :mod:`mzcg.config` counts is counted
beside the code that allocates it: the march's by :func:`march_floats`, the
record block and its reduction's copy by :func:`sink_floats`.

``map_stream_blocks`` splits an ensemble into one stream block per worker and
runs them in forked processes: the per-step loop holds the interpreter lock,
so threads would not overlap.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from . import models
from .benchmark import bind_orthogonal_drift, orthogonal_drift_bound

# Any coordinate beyond this magnitude (or non-finite) counts as a blowup.
BLOWUP_LIMIT = 1e12
# Its square rounded: |v| >= BLOWUP_LIMIT gives v * v >= BLOWUP_SQUARED.
BLOWUP_SQUARED = BLOWUP_LIMIT**2
# The relative margin by which the blowup schedule widens its growth bound
# (see _step_growth): far above the rounding of a step's few dozen
# operations and of the schedule's own logarithms, a few units of 2**-53
# each, and far below any growth it bounds.
ROUNDING_MARGIN = 2.0**-30

# Most steps one integration may take: beyond 2**53, round(t_final / dt) no
# longer counts steps exactly (and no such run would finish).
MAX_STEPS = 2**53

# Most steps of noise generated per block inside the integration loops.
NOISE_CHUNK = 4096

# Bytes of one noise chunk at most, and the fewest steps a chunk keeps however
# wide the batch (see noise_chunk_steps): 2 x NOISE_CHUNK steps of the widest
# benchmark batch, 600 streams, fit the budget, and below 512 steps a draw's
# fixed cost shows per normal (see ROADMAP).
NOISE_CHUNK_BYTES = 64 << 20
NOISE_CHUNK_FLOOR = 512

# Bytes of one group of streams' pairs in _draw_noise: small enough that the
# group's words, their transform and their copy into the step-major chunk
# stay in the L2 cache (see ROADMAP for the measurements).
NOISE_GROUP_BYTES = 1 << 20

# Bytes of the record block that _march hands to its sink, and of the joined
# block that join_statistics reduces: small enough that the block and its
# reduction's temporaries stay in the L2 cache, as NOISE_GROUP_BYTES does.
RECORD_BLOCK_BYTES = 1 << 20

# The one Philox generator of the process, which every NoiseStream seeks to
# its own key and counter before it draws: far cheaper than a new Philox per
# stream, whose constructor draws OS entropy for a seed sequence that a keyed
# generator never uses.  ``_uniform`` is the fill method of a Generator on
# it.  Made on first draw; the lock keeps each seek and its draw together.
_philox = None
_uniform = None
_philox_lock = threading.Lock()
_EMPTY_BUFFER = np.zeros(4, dtype=np.uint64)
# Half of the 2**-53 spacing of the uniforms: centres each one in its cell.
_HALF_SPACING = np.array(2.0**-54)
# The largest double below 1, at which the centred uniforms are clamped: the
# top word's centre, 1 - 2**-54, rounds to 1, whose ndtri is inf.
_BELOW_ONE = np.array(1.0 - 2.0**-53)
# No normal that a NoiseStream draws exceeds this in magnitude: |ndtri(2**-54)|,
# the lowest centred uniform's, is above ndtri(1 - 2**-53), the highest's.
NORMAL_BOUND = float(-ndtri(2.0**-54))
# Philox4x64-10's constants, as numpy's Philox uses them, shaped for
# (2, n_streams) arrays of counter words 0 and 2 (see next_pairs): the
# multipliers of those words, whole and split into their (low, high) 32-bit
# halves, and the increments of key words 0 and 1 after each round.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
_HALF_BITS = np.uint64(32)
_PHILOX_M_HALVES = np.stack([_PHILOX_M & _LOW32, _PHILOX_M >> _HALF_BITS])[:, None]
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
# The spacing of numpy's uniforms, which are (w >> 11) * 2**-53.
_SPACING = np.array(2.0**-53)

# The worker of the running map_stream_blocks call.  Workers are closures,
# which cannot be pickled; forked children inherit this instead.
_block_worker = None


class NumericalBlowupError(RuntimeError):
    """State left the representable range during integration.

    Carries the failing ``step`` index and, when known, the ``stream_id`` and
    inverse temperature ``beta`` of the offending trajectory.  The function
    that raises it stashes the prefix recorded before the failure in
    ``recorded``, shaped like its return value.
    """

    def __init__(self, step, stream_id=None, recorded=None, beta=None):
        self.step = step
        self.stream_id = stream_id
        self.recorded = recorded
        self.beta = beta
        super().__init__(f"state exceeded {BLOWUP_LIMIT:g} at step {step}{self.where}")

    def __reduce__(self):
        # Keep every field when a worker process sends the error back.
        return type(self), (self.step, self.stream_id, self.recorded, self.beta)

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

    The key is kept as a tuple of two ints, (master_seed, stream_id) modulo
    2**64, which Philox's state setter takes as it is.  :func:`next_pairs`
    draws the next pair of many streams at once, bit for bit as ``pairs(1)``
    of each; a position is never negative.
    """

    master_seed: int
    stream_id: int
    position: int = 0
    _key: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self._key = (self.master_seed % 2**64, self.stream_id % 2**64)

    def pairs(self, count: int, out=None) -> np.ndarray:
        """Next ``count`` standard-normal pairs, shape (count, 2).

        ``out``, a C-contiguous float64 array of ``2 * count`` elements,
        receives them in place and is returned as that (count, 2) view.

        Position n owns words [2n, 2n + 2) of the keyed counter stream, the
        words of Philox(key=...) from there.  The draw seeks the shared
        generator to this key and counter (Philox makes 4 words per counter
        value, so it discards up to 2 words first) and turns each word w into
        ndtri(min(((w >> 11) + 0.5) * 2**-53, 1 - 2**-53)), computed in place
        as numpy's (w >> 11) * 2**-53 plus 2**-54, then the clamp: scaling by
        a power of two commutes with rounding, so the bits are the same and no
        temporary is made.  The clamp moves only the top word, w >> 11 =
        2**53 - 1, whose centre rounds to 1 (an infinite normal) and goes to
        1 - 2**-53 instead; every other centre rounds to at most that.  A
        negative position raises ValueError: its block would wrap to the top
        of the counter space.
        """
        global _philox, _uniform
        if self.position < 0:
            raise ValueError(f"position must be non-negative, not {self.position}")
        if out is None:
            out = np.empty(2 * count)
        block, skip = divmod(2 * self.position, 4)
        state = {
            "bit_generator": "Philox",
            "state": {"counter": [(block >> s) % 2**64 for s in (0, 64, 128, 192)],
                      "key": self._key},
            "buffer": _EMPTY_BUFFER,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        with _philox_lock:
            if _philox is None:
                # Any key: the state set next replaces it.  The constructor,
                # unlike the state setter, warns on a tuple key above 2**63.
                _philox = Philox(key=0)
                _uniform = np.random.Generator(_philox).random
            _philox.state = state
            if skip:
                _philox.random_raw(skip)
            _uniform(out=out)
        self.position += count
        np.add(out, _HALF_SPACING, out)
        np.minimum(out, _BELOW_ONE, out=out)
        ndtri(out, out=out)
        return out.reshape(count, 2)

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

    @property
    def n_records(self) -> int:
        """The length of :meth:`record_steps`, without building it."""
        return -(-self.n_steps // self.record_stride) + 1

    def record_steps(self) -> np.ndarray:
        """Step indices at which the state is recorded (0 and n_steps always)."""
        idx = np.arange(0, self.n_steps + 1, self.record_stride)
        if idx[-1] != self.n_steps:
            idx = np.append(idx, self.n_steps)
        return idx


def noise_chunk_steps(n_streams, steps):
    """Steps of noise that ``_march`` draws at once for ``n_streams`` streams
    over a run of ``steps`` steps: NOISE_CHUNK, fewer when its 16 bytes per
    stream and step would pass NOISE_CHUNK_BYTES, but never fewer than
    NOISE_CHUNK_FLOOR, and never more than the run takes.  Noise is
    addressed by position, so no value depends on the chunk."""
    by_bytes = NOISE_CHUNK_BYTES // (16 * max(1, n_streams))
    return min(NOISE_CHUNK, steps, max(NOISE_CHUNK_FLOOR, by_bytes))


def _noise_group(n_streams, span):
    """Streams that ``_draw_noise`` draws into its reused buffer at once."""
    return max(1, min(n_streams, NOISE_GROUP_BYTES // (16 * span)))


def _draw_noise(streams, span):
    """The next ``span`` increment pairs of every stream, shape
    (span, 2, n_streams), so that each step's components are contiguous rows.

    The streams are drawn a group at a time, each into its row of one reused
    buffer of about NOISE_GROUP_BYTES, and each group is copied into the chunk
    with one blocked transpose: writing one stream's column alone would touch
    a new cache line per element."""
    n = len(streams)
    noise = np.empty((span, 2, n))
    group = _noise_group(n, span)
    buf = np.empty((group, 2 * span))
    # One pass over the streams: a slice per group would be a list as long.
    rest = iter(streams)
    for a in range(0, n, group):
        k = min(group, n - a)
        for row, s in zip(buf[:k], rest):
            s.pairs(span, row)
        noise[:, :, a:a + k] = buf[:k].reshape(k, span, 2).transpose(1, 2, 0)
    return noise


def next_pairs(streams):
    """The next increment pair of every stream, shape (2, n_streams): bit for
    bit what ``pairs(1)`` of each stream would draw, and each stream's
    position advances by one.

    One Philox4x64-10 pass encrypts the counter blocks of all the streams,
    each under its own key, on uint64 arrays, where ``pairs`` seeks the
    shared generator once per stream.  numpy's Philox increments its counter
    before it encrypts, so position p reads words 2 (p mod 2) and the one
    after of the encryption of block p // 2 + 1.  The 128-bit products of
    each round are built from 32-bit halves, and the words become normals by
    the operations of ``pairs``, in its order.  Per-stream fills in numpy's
    C Philox cost less at the widths of a chunk, so ``_draw_noise`` keeps
    them (see ROADMAP).  Positions must lie in [0, 2**64)."""
    positions = [s.position for s in streams]
    if positions and not (min(positions) >= 0 and max(positions) < 2**64):
        raise ValueError("positions must lie in [0, 2**64)")
    n = len(streams)
    pos = np.array(positions, dtype=np.uint64)
    key = np.fromiter(chain.from_iterable([s._key for s in streams]), np.uint64, 2 * n)
    key = key.reshape(n, 2).T.copy()
    # ctr[0] holds counter words 0 and 2, which a round multiplies, and
    # ctr[1] words 1 and 3.  No block exceeds 2**63, so words 1 to 3 start 0.
    ctr = np.zeros((2, 2, n), dtype=np.uint64)
    lanes, side = ctr
    np.right_shift(pos, np.uint64(1), lanes[0])
    lanes[0] += np.uint64(1)
    lo = np.empty_like(lanes)
    halves = np.empty_like(ctr)
    # The partial products of the lanes' (low, high) halves by the
    # multipliers' low halves, then by their high halves, named lane half
    # first.
    parts = np.empty((2, 2, 2, n), dtype=np.uint64)
    ll, hl, lh, hh = parts.reshape(4, 2, n)
    middle = parts.reshape(4, 2, n)[1:3]
    for _ in range(10):
        np.bitwise_and(lanes, _LOW32, halves[0])
        np.right_shift(lanes, _HALF_BITS, halves[1])
        np.multiply(lanes, _PHILOX_M, lo)
        np.multiply(halves, _PHILOX_M_HALVES, parts)
        # The high words: hh plus the carries out of the lower partial
        # products, every sum below 2**64.
        ll >>= _HALF_BITS
        hl += ll
        np.bitwise_and(hl, _LOW32, ll)
        lh += ll
        middle >>= _HALF_BITS
        hh += hl
        hh += lh
        # (w0, w1, w2, w3) -> (hi2 ^ w1 ^ k0, lo2, hi0 ^ w3 ^ k1, lo0), where
        # hiJ and loJ are the halves of word J's product.
        np.bitwise_xor(hh[::-1], side, lanes)
        lanes ^= key
        np.copyto(side, lo[::-1])
        key += _PHILOX_W
    words = np.where((pos & np.uint64(1)).astype(bool), ctr[:, 1], ctr[:, 0])
    words >>= np.uint64(11)
    out = np.multiply(words, _SPACING)
    np.add(out, _HALF_SPACING, out)
    np.minimum(out, _BELOW_ONE, out=out)
    ndtri(out, out=out)
    for s in streams:
        s.position += 1
    return out


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


def _step_growth(p, dt, full, stepped, beta):
    """The growth of one ``_march`` step at ``dt`` as (e, c, k): a state
    whose entries are at most m in magnitude steps to one whose entries are
    at most (1 + e) m + c + k z, z the largest |normal| it consumes.  x
    steps to x (1 - mu dt) plus the orthogonal drift's increment, y to y
    plus it (:func:`~mzcg.benchmark.orthogonal_drift_bound` at scale dt),
    and each model to h + b dt (:func:`models.coefficients_bound`); the
    thermostat adds amp z to x and y and sigma amp z to each model.  Each
    is widened by the relative ROUNDING_MARGIN for the rounding of a step,
    and e by ROUNDING_MARGIN besides, so e > 0."""
    growth, offset, sigma = [0.0], [0.0], [0.0]
    if full:
        (kx, cx), (ky, cy) = orthogonal_drift_bound(p, dt)
        growth += [abs(1.0 - p.mu * dt) - 1.0 + kx, ky]
        offset += [cx, cy]
        sigma.append(1.0)
    for model in stepped:
        k, c, s = models.coefficients_bound(model, beta)
        growth.append(k * dt)
        offset.append(c * dt)
        sigma.append(s)
    amp = 0.0 if beta is None else float(np.sqrt(2.0 * dt / beta).max())
    widen = 1.0 + ROUNDING_MARGIN
    return (max(growth) * widen + ROUNDING_MARGIN, max(offset) * widen,
            amp * max(sigma) * widen)


def _steps_to_test(squares, growth, offset, steps_left):
    """Steps from a state whose sum of squares is ``squares`` to the next
    blowup test, at most ``steps_left``.  No entry exceeds m = sqrt(squares)
    in magnitude (widened for the rounding of the squares and their sum,
    and for squares that underflow), and if a step maps a max-norm M to at
    most (1 + e) M + c, then j steps give at most (1 + e)^j (m + d) - d
    with d = c / e: the test is due at the first j at which that reaches
    BLOWUP_LIMIT, found with log1p, which keeps a growth e near 0 exact.
    It is due at the next step where one step's bound reaches the limit
    (or is not finite), which also keeps e L below overflow."""
    m = math.sqrt(squares + 5e-324) * (1.0 + ROUNDING_MARGIN)
    if not (1.0 + growth) * m + offset < BLOWUP_LIMIT:
        return min(1, steps_left)
    ratio = (growth * BLOWUP_LIMIT + offset) / (growth * m + offset)
    return math.ceil(min(math.log(ratio) / math.log1p(growth), steps_left))


def _block_rows(record_bytes):
    """Records of ``record_bytes`` each in one record block."""
    return max(1, RECORD_BLOCK_BYTES // record_bytes)


def march_floats(kinds, n_beta, n_streams, noise_steps=0):
    """Floats that :func:`_march` holds at once besides its records, its
    state included, for the full system beside reduced models of ``kinds``
    at ``n_beta`` betas over ``n_streams`` streams, in planes of n_beta x
    n_streams: the state, its increment ``g`` and its noise term, of 2 +
    len(kinds) planes each, and as many planes again for the models' noise
    multipliers and the two scratch planes of the drifts; the planes that
    each model's bound coefficients make (:func:`models.coefficient_planes`);
    and, for a thermostatted run of ``noise_steps`` steps (0 for none), the
    noise chunk of :func:`noise_chunk_steps` and the group buffer of
    :func:`_draw_noise`."""
    planes = 4 * (2 + len(kinds)) + sum(map(models.coefficient_planes, kinds))
    floats = planes * n_beta * n_streams
    if noise_steps:
        span = noise_chunk_steps(n_streams, noise_steps)
        floats += 2 * span * (n_streams + _noise_group(n_streams, span))
    return floats


def _march(p, cfg, state, full, stepped, beta, streams, record, package, sink=None):
    """The one chunked Euler-Maruyama loop behind the batch integrators.

    ``state`` has shape (planes, n_beta, n_streams) and is stepped in place.
    With ``full`` set, its first and last planes are the full system's x and
    y.  ``stepped`` holds the reduced models, one per remaining plane in
    order: the planes between x and y with ``full`` set, every plane
    otherwise.  ``beta`` is None for an unthermostatted run of the full
    system alone (no model in ``stepped``), which steps its drift and draws
    no noise, or a column of shape (n_beta, 1): row
    block k then runs at inverse temperature beta[k], and all row blocks
    share the noise drawn once per stream and chunk.  The full system
    consumes each stream's increment pair, every model its first component.

    Records are record-major: record ``pos`` is ``record``, a view of the
    state, copied after its step into row ``pos`` of one array.
    ``package(times, recs)`` turns the records into the caller's return
    value; a blowup raises at its step, carrying that value for the records
    taken before it as ``recorded``.  With a ``sink``, the records go into
    one reused block of about RECORD_BLOCK_BYTES instead, and
    ``sink(start, block)`` receives it, records ``start`` on, each time it
    fills, at the end and before a blowup raises; the sink must copy what it
    keeps, and ``recs`` is None.

    A step costs ufunc calls more than arithmetic, so it makes few, and
    allocates no array of the batch's width.  Every plane writes its
    increment into one buffer ``g`` and its noise into one buffer
    ``noise_term``, both shaped like the state.  The full system's drift
    -grad V is the orthogonal drift plus its conditional average (-mu x, 0).
    The orthogonal drift's increment over a step goes to the x and y planes
    of ``g``, from :func:`~mzcg.benchmark.bind_orthogonal_drift` bound to
    them at scale dt once per march, and the conditional average is applied
    to the state in place, as x *= 1 - mu dt; the thermostat's amp * xi goes
    to the x and y planes of the noise term.  Each model's drift goes to its
    plane of ``g`` (from its :func:`models.bind_coefficients` function,
    bound once per march), which ``*= dt`` makes its increment, and its
    sigma times the first component of amp * xi to its plane of the noise
    term.  One update then serves every plane: the state gains ``g``, then
    the noise term.  An unthermostatted step of the full system makes
    fourteen ufunc calls (twelve for the drift's increment, the decay and
    the update), a thermostatted one sixteen, and the models add their
    coefficients' calls and two more: their noise term and ``*= dt``.
    Each element sees the operations, in the order, of a separate step per
    plane.  Every constant is a 0-d array made once (a ufunc takes one for
    less per call than a Python float, with the same bits).  The blowup test
    is one dot product of the state with itself, through the state's bound
    ``dot``, which skips ``np.dot``'s dispatch; only when the sum of squares
    reaches BLOWUP_SQUARED (or is not finite) does the exact test of every
    entry decide, so the decision is always that of the exact test.

    The test runs only on the steps that an a-priori bound cannot clear.  A
    passed test bounds every entry by the root of its sum of squares, and a
    step grows that bound at most as :func:`_step_growth` says, from the
    constants of each plane's drift, formed once per march, and the largest
    |normal| of each noise chunk: :func:`_steps_to_test` gives the first
    step at which the grown bound can reach BLOWUP_LIMIT, and the test is
    due there.  No step before it can leave range, so a blowup is still
    reported at its first step.  A chunk's last step is always tested, so
    that no schedule runs on past the noise that set it.  At the desk steps
    the test runs once in hundreds of steps, on wide and narrow batches
    alike; a state whose bound cannot clear a step is tested on every step.
    """
    n_steps = cfg.n_steps
    stride = cfg.record_stride
    times = cfg.record_steps() * cfg.dt
    rows = len(times) if sink is None else min(len(times), _block_rows(record.nbytes))
    out = np.empty((rows,) + record.shape)
    out[0] = record
    # Records taken, the record in row 0 of ``out``, and the step of the
    # next record: record k is at step k * stride, the last at n_steps.
    rec_pos, start, rec_step = 1, 0, min(stride, n_steps)

    def package_taken():
        """The package of the records taken, handed to the sink first."""
        if sink is None:
            return package(times[:rec_pos], out[:rec_pos])
        sink(start, out[:rec_pos - start])
        return package(times[:rec_pos], None)

    dt = np.array(cfg.dt)
    thermostat = beta is not None
    # Every plane's increment.  The update reads every plane, so it starts
    # at zero: a call with no plane stepped must leave the state alone.
    g = np.zeros_like(state)
    h_planes = slice(1, -1) if full else slice(None)
    h, gh = state[h_planes], g[h_planes]
    if full:
        x, y = state[0], state[-1]
        orthogonal_increment = bind_orthogonal_drift(
            p, x, y, (g[0], g[-1]), np.empty_like(x), cfg.dt)
        decay = np.array(1.0 - p.mu * cfg.dt)
    if thermostat:
        amp = np.sqrt(2.0 * dt / beta)
        noise_term = np.empty_like(state)
        nh = noise_term[h_planes]
        # amp times each stream's increment pair, in the x and y planes of
        # the noise term as one view of planes 0 and -1 (or apart, with no
        # full system); az, its first component, is what the models take.
        daz = noise_term[::len(state) - 1] if full else np.empty((2,) + state.shape[1:])
        az = daz[0]
        # Each model's noise multiplier, kept apart from its noise term so
        # that a constant one is written once, when the model is bound.
        sigma = np.empty_like(nh)
        work = np.empty(state.shape[1:])
        planes = [(models.bind_coefficients(model, (b, s), beta, work), hm)
                  for model, hm, b, s in zip(stepped, h, gh, sigma)]
    # The blowup test reads the live state through this view; a copy would
    # go stale, and ravel copies a state that is not contiguous.
    flat = state.ravel()
    if not np.may_share_memory(flat, state):
        raise ValueError("the state must be one contiguous array")
    # The bound method skips np.dot's dispatch for the same BLAS ddot.
    sum_of_squares = flat.dot
    chunk = noise_chunk_steps(state.shape[-1], n_steps)
    growth, offset, gain = _step_growth(p, cfg.dt, full, stepped, beta)

    # In-place ufuncs take their output positionally: the out= keyword adds a
    # per-call cost that shows on narrow batches, such as one-row models.
    add, mul = np.add, np.multiply
    step = 0
    # Overflow is silent inside the loop: the blowup test's sum of squares
    # overflows for a state far out of range, and the exact test then
    # decides.  A step from a state in range overflows elsewhere only when
    # it leaves range too, and then raises.
    with np.errstate(over="ignore"):
        # The sum of squares at the last test, here of the start.
        squares = sum_of_squares(flat)
        while step < n_steps:
            span = min(chunk, n_steps - step)
            c = offset
            if thermostat:
                noise = None  # the last chunk goes before the next is drawn
                noise = _draw_noise(streams, span)[:, :, None]
                # The largest |normal| of the chunk, with no temporary.
                c += gain * float(max(noise.max(), -noise.min()))
            # A chunk ends on a test, so that the next one's schedule, with
            # its own noise, starts from a test.
            end = step + span
            due = step + _steps_to_test(squares, growth, c, span)
            for j in range(span):
                if full:
                    # -grad V dt: the orthogonal drift's increment, then
                    # (-mu x, 0) dt as a decay of x, once the drift has
                    # read it.
                    orthogonal_increment()
                    mul(x, decay, x)
                if thermostat:
                    mul(amp, noise[j], daz)
                    for coefficients, hm in planes:
                        coefficients(hm)
                    if planes:
                        mul(sigma, az, nh)
                        mul(gh, dt, gh)
                # The update: state + g, then + noise.
                add(state, g, state)
                if thermostat:
                    add(state, noise_term, state)
                step += 1
                if step == due:
                    # The sum of squares is at least each rounded square, so
                    # passing it means every |entry| < BLOWUP_LIMIT; nan, inf
                    # and overflowing squares fail it and fall through to the
                    # exact test.
                    squares = sum_of_squares(flat)
                    if not squares < BLOWUP_SQUARED and not (
                        np.abs(state).max() < BLOWUP_LIMIT
                    ):
                        raise _blowup_error(step, state, beta, streams, package_taken())
                    due = step + _steps_to_test(squares, growth, c, end - step)
                if step == rec_step:
                    if rec_pos - start == rows:
                        sink(start, out)
                        start = rec_pos
                    out[rec_pos - start] = record
                    rec_pos += 1
                    rec_step = min(rec_pos * stride, n_steps)

    return package_taken()


def integrate_full_batch(p, x0s, cfg, streams=None, thermostat=True):
    """Euler-Maruyama on the full 2D dynamics for a batch of trajectories.

    ``x0s`` has shape (n, 2); ``streams`` supplies one NoiseStream per row and
    may be omitted when ``thermostat`` is off (no noise is consumed then).
    Returns (times, recorded) with recorded of shape (n, n_rec, 2), a view
    of the record-major records.
    """
    x0s = np.asarray(x0s, dtype=float)
    n = x0s.shape[0]
    if thermostat and (streams is None or len(streams) != n):
        raise ValueError("thermostatted runs need one stream per trajectory")
    state = np.empty((2, 1, n))
    state[:, 0] = x0s.T
    return _march(
        p, cfg, state, True, (), np.array([[p.beta]]) if thermostat else None,
        streams, state, lambda times, recs: (times, recs[:, :, 0].transpose(2, 0, 1)),
    )


# The name stays for bench/probes.py, which times it, and bench/layertrace.py, which wraps it.
def integrate_scalar_batch(model, p, h0s, cfg, streams):
    """Euler-Maruyama on a thermostatted reduced scalar model for a batch of
    trajectories, one stream per row of ``h0s``.

    Each run steps the Ito SDE of :func:`models.thermostatted_coefficients`
    at ``p.beta``: drift plus noise-induced drift, and noise term
    ``diffusion(model, h) * sqrt(2 dt / beta) * xi`` with ``xi`` the scalar
    view of each stream, so runs share the resolved-component increments of
    :func:`integrate_full_batch` at equal stream addresses; ``naive-memory``
    raises :class:`~mzcg.models.UnsupportedModelError` before any step.
    Returns (times, recorded) with recorded of shape (n, n_rec), a view of
    the record-major records.
    """
    h0s = np.asarray(h0s, dtype=float)
    n = h0s.shape[0]
    if len(streams) != n:
        raise ValueError("thermostatted runs need one stream per trajectory")
    state = np.empty((1, 1, n))
    state[0, 0] = h0s
    return _march(
        p, cfg, state, False, [model], np.array([[p.beta]]), streams,
        state, lambda times, recs: (times, recs[:, 0, 0].T),
    )


def integrate_crn_batch(p, scalar_models, xy0, h0, cfg, streams, beta=None, sink=None):
    """Integrate the full 2D dynamics and several reduced scalar models side by
    side under common random numbers: per stream and step, the full system
    consumes the increment pair while every scalar model consumes its first
    component, exactly as in the separate batch integrators.

    ``beta`` is one inverse temperature or a 1-D sequence of them (default
    ``p.beta``); it overrides the models' own ``params.beta``.  Each beta is
    a block of rows over the same streams and consumes the same increments,
    and every block matches a one-beta call bit for bit.

    All trajectories start from the same ``xy0`` (full) and ``h0`` (models).
    ``naive-memory`` raises :class:`~mzcg.models.UnsupportedModelError`
    before any step.
    Returns (times, full_x, model_recs) where full_x has shape (n, n_rec),
    with a leading beta axis when ``beta`` is a sequence, and model_recs is
    one same-shaped array per model: record-last views of the record-major
    records, whose stream axis is contiguous.  With a ``sink``, the records
    go to it instead, a block at a time (see :func:`_march`), laid out
    (record, component, beta, stream) with component x then each model, and
    full_x and model_recs are None.
    """
    beta = np.asarray(p.beta if beta is None else beta, dtype=float)
    if beta.ndim > 1 or not np.all(beta > 0.0):
        raise ValueError("beta must be one positive value or a 1-D sequence of them")
    column = beta.reshape(-1, 1)
    x0, y0 = np.asarray(xy0, dtype=float)
    state = np.empty((len(scalar_models) + 2, len(column), len(streams)))
    state[0] = x0
    state[1:-1] = float(h0)
    state[-1] = y0
    rows = 0 if beta.ndim == 0 else slice(None)

    def package(times, recs):
        if recs is None:
            return times, None, None
        recs = np.moveaxis(recs, 0, -1)[:, rows]
        return times, recs[0], list(recs[1:])

    return _march(p, cfg, state, True, scalar_models, column, streams, state[:-1], package,
                  sink)


# The name stays for bench/layertrace.py, which wraps it.
def simulate_scalar(model, h0, cfg):
    """The unthermostatted reduced model from ``h0`` as a recurrence in Python
    floats: each step is h + b(h) dt, with b the model's drift bound once
    (:func:`models.bind_float_drift`), so no step resolves the model's kind
    or constants, and a value has the bits of the same step on a one-element
    array with :func:`models.drift`.  A step leaves range when its value is
    not below BLOWUP_LIMIT in magnitude, as in the engine.

    Returns (values, blowup_step): the values recorded at
    ``cfg.record_steps()`` before the first step that leaves range, and that
    step, or None for a run that reaches the end.
    """
    n_steps, stride = cfg.n_steps, cfg.record_stride
    values = np.empty(cfg.n_records)
    h = values[0] = float(h0)
    dt = cfg.dt
    drift = models.bind_float_drift(model)
    # Record k is at step k * stride, the last at n_steps.
    rec_pos, rec_step = 1, min(stride, n_steps)
    for step in range(1, n_steps + 1):
        h = h + drift(h) * dt
        if not abs(h) < BLOWUP_LIMIT:
            return values[:rec_pos], step
        if step == rec_step:
            values[rec_pos] = h
            rec_pos += 1
            rec_step = min(rec_pos * stride, n_steps)
    return values, None


def integrate_flow_batch(p, scalar_models, x0s, h0, cfg, streams=None, sink=None):
    """Unthermostatted full 2D dynamics for a batch of starts ``x0s`` (shape
    (n, 2)), and beside them each reduced scalar model as a deterministic
    flow from ``h0``.

    Each model steps as a recurrence in Python floats
    (:func:`simulate_scalar`); a model that blows up ends there and the rest
    go on.  A blowup of the full system raises, naming the row's stream when
    ``streams`` (one per row, never drawn from) is given.

    Returns (times, full_x, model_runs): full_x of shape (n, n_rec), a view
    of the record-major records, holds the full system's x, and model_runs
    holds one (values, blowup_step) per model, with values recorded up to
    the blowup and blowup_step None for a model that ran to the end.  With a
    ``sink``, the full system's records go to it instead, a block at a time
    (see :func:`_march`), laid out (record, 1, stream), and full_x is None.
    """
    runs = [simulate_scalar(model, h0, cfg) for model in scalar_models]
    x0s = np.asarray(x0s, dtype=float)
    state = np.empty((2, 1, x0s.shape[0]))
    state[:, 0] = x0s.T
    return _march(
        p, cfg, state, True, (), None, streams, state[0],
        lambda times, recs: (times, None if recs is None else recs[:, 0].T, runs), sink,
    )


def mean_stderr(samples, axis=0, factor=1.0):
    """``factor`` times the mean of ``samples`` along ``axis``, and its
    standard error ``(factor * std(ddof=1)) / sqrt(n)`` over the ``n``
    samples: the one reduction of the ensembles and the kernel estimators.
    It makes the calls of ``samples.mean(axis)`` and ``samples.std(axis,
    ddof=1)``, so it has their bits, but sums the samples once."""
    n = samples.shape[axis]
    mean = np.add.reduce(samples, axis=axis, keepdims=True)
    mean /= n
    dev = samples - mean
    np.multiply(dev, dev, dev)
    var = np.add.reduce(dev, axis=axis)
    var /= n - 1
    return factor * mean.squeeze(axis), factor * np.sqrt(var) / np.sqrt(n)


def stream_statistics(stats, start, block):
    """Reduce a stream-complete record ``block``, laid out (record,
    component, ..., stream), into rows ``start`` on of ``stats``, shaped
    (2, record, component, ...): each row's mean over the streams, then its
    standard error.  One :func:`mean_stderr` call sums every row along its
    contiguous stream axis, pairwise, so a row's bits do not depend on the
    block around it, nor on how the records were cut into blocks.  Its
    arguments are those of a :func:`_march` sink after ``stats``."""
    stats[:, start:start + len(block)] = mean_stderr(block, axis=-1)


def sink_floats(record_floats, n_records):
    """Floats of the record block that :func:`_march` hands its sink, for
    ``n_records`` records of ``record_floats`` floats, and of the one copy
    of it that :func:`stream_statistics` makes (the deviations of
    :func:`mean_stderr`): two blocks.  :func:`join_statistics` holds as
    much for its joined block of the same records."""
    return 2 * min(n_records, _block_rows(8 * record_floats)) * record_floats


def join_statistics(pieces):
    """The stream statistics, as :func:`stream_statistics` lays them out,
    of records split into stream blocks: ``pieces[j]`` holds stream block
    j's components in order, each laid out (record, ..., stream).  The
    pieces are joined a record block of about RECORD_BLOCK_BYTES at a time
    into one stream-complete block, whatever layout they arrive in, so no
    joined copy of every record is made."""
    first = pieces[0][0]
    bounds = list(accumulate([0] + [comps[0].shape[-1] for comps in pieces]))
    shape = (len(pieces[0]),) + first.shape[1:-1] + (bounds[-1],)
    n_rec = len(first)
    block = np.empty((min(n_rec, _block_rows(8 * math.prod(shape))),) + shape)
    stats = np.empty((2, n_rec) + shape[:-1])
    for start in range(0, n_rec, len(block)):
        part = block[:n_rec - start]
        for comps, a, b in zip(pieces, bounds, bounds[1:]):
            for c, comp in enumerate(comps):
                part[:, c, ..., a:b] = comp[start:start + len(part)]
        stream_statistics(stats, start, part)
    return stats


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
