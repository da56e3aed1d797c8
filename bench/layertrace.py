"""Aggregating tracer for the benchmark's traced runs.

The tracer wraps functions of the ``mzcg`` modules at their layer boundaries
and keeps, per span name, a call count, the busy time (sum of call durations)
and the self time (busy time minus the time of spans nested inside it).
Calls are aggregated rather than recorded one by one, because the per-step
layers are called hundreds of thousands of times in one run.

Self times add up to the wall time of the outermost span.  Blocks that
``map_stream_blocks`` runs on pool threads overlap in time, so the self times
recorded on those threads are scaled by the share of the map call's wall time
that they cover; busy times and counters stay unscaled.
"""

from __future__ import annotations

import math
import os
import threading
from time import perf_counter, thread_time


class Sink:
    """Per-span statistics and named counters."""

    def __init__(self):
        self.spans = {}  # name -> [calls, busy_s, self_s]
        self.counters = {}

    def add(self, name, busy, self_time):
        entry = self.spans.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += busy
        entry[2] += self_time

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def merge(self, other, weight):
        for name, (calls, busy, self_time) in other.spans.items():
            entry = self.spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += busy
            entry[2] += self_time * weight
        for name, amount in other.counters.items():
            self.count(name, amount)

    def to_json(self):
        return {"spans": self.spans, "counters": self.counters}


class Tracer:
    def __init__(self):
        self.sink = Sink()
        self._tls = threading.local()

    def _state(self):
        tls = self._tls
        if not hasattr(tls, "stack"):
            tls.stack = []
            tls.sink = None
        return tls

    def _sink(self, tls):
        return tls.sink if tls.sink is not None else self.sink

    def span(self, name, fn, count=None):
        """Wrap ``fn`` as span ``name``.  ``count(sink, args, kwargs, result,
        error)`` may add counters after each call, failed calls included."""

        def wrapper(*args, **kwargs):
            tls = self._state()
            frame = [0.0]  # time covered by nested spans
            tls.stack.append(frame)
            result = error = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                raise
            finally:
                busy = perf_counter() - t0
                tls.stack.pop()
                if tls.stack:
                    tls.stack[-1][0] += busy
                sink = self._sink(tls)
                sink.add(name, busy, busy - frame[0])
                if count is not None:
                    count(sink, args, kwargs, result, error)

        return wrapper

    def counter(self, fn, count):
        """Wrap ``fn`` to add counters only, with no timing."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(self._sink(self._state()), args, kwargs, result, None)
            return result

        return wrapper

    def block_map(self, fn):
        """Wrap ``map_stream_blocks(worker, n_items, threads=1, ...)``.

        The map call is span ``sde.blocks`` and each worker call is span
        ``sde.block``; counter ``sde.blocks.cpu_s`` adds the workers' thread
        CPU time, which unlike their wall time excludes waiting for the
        interpreter lock.  A worker call on a pool thread starts a private
        sink; when the map returns, those sinks are merged with their self
        times scaled so that they cover at most the map call's wall time.
        """

        def wrapper(worker, n_items, threads=1, **kwargs):
            pending = []
            lock = threading.Lock()

            def block(a, b):
                tls = self._state()
                pooled = not tls.stack
                if pooled:
                    tls.sink = Sink()
                frame = [0.0]
                tls.stack.append(frame)
                t0 = perf_counter()
                cpu0 = thread_time()
                try:
                    return worker(a, b)
                finally:
                    busy = perf_counter() - t0
                    cpu = thread_time() - cpu0
                    tls.stack.pop()
                    sink = self._sink(tls)
                    sink.add("sde.block", busy, busy - frame[0])
                    sink.count("sde.blocks.cpu_s", cpu)
                    if pooled:
                        with lock:
                            pending.append((busy, sink))
                        tls.sink = None
                    else:
                        tls.stack[-1][0] += busy

            tls = self._state()
            frame = [0.0]
            tls.stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(block, n_items, threads=threads, **kwargs)
            finally:
                wall = perf_counter() - t0
                tls.stack.pop()
                sink = self._sink(tls)
                pooled = sum(busy for busy, _ in pending)
                weight = min(1.0, wall / pooled) if pooled > 0.0 else 1.0
                for _, block_sink in pending:
                    sink.merge(block_sink, weight)
                frame[0] += pooled * weight
                if tls.stack:
                    tls.stack[-1][0] += wall
                sink.add("sde.blocks", wall, wall - frame[0])
                sink.count("sde.blocks.capacity_s", wall * max(1, threads))

        return wrapper


def _integrate_counter(rows_at, cfg_at, models_at=None):
    """Counters for one call of a batch integrator, given the positions of
    its batch argument, its IntegratorConfig and (CRN only) its scalar models:
    batch steps completed, trajectory-steps completed and requested, blowups.
    """

    def count(sink, args, kwargs, result, error):
        rows = len(args[rows_at])
        width = 1 + (len(args[models_at]) if models_at is not None else 0)
        requested = args[cfg_at].n_steps
        done = requested
        if error is not None and hasattr(error, "step"):
            done = error.step
            sink.count("sde.blowup.count", 1)
        sink.count("sde.integrate.steps", done)
        sink.count("sde.integrate.traj_steps", rows * width * done)
        sink.count("sde.integrate.traj_steps_requested", rows * width * requested)

    return count


def _noise_count(sink, args, kwargs, result, error):
    sink.count("sde.noise.normals", 2 * args[1])


def _stream_count(sink, args, kwargs, result, error):
    sink.count("sde.noise.streams_opened", 1)


def _rk4_count(sink, args, kwargs, result, error):
    # _rk4_march(p, x, y, span, dt): same substep rule as the march itself.
    x, span, dt = args[1], args[3], args[4]
    substeps = max(1, math.ceil(span / dt - 1e-12))
    sink.count("kernel.rk4.substeps", substeps)
    sink.count("kernel.rk4.sample_substeps", substeps * len(x))


def _csv_count(sink, args, kwargs, result, error):
    path, _, header, columns = args[:4]
    rows = max((len(c) for c in columns), default=0)
    sink.count("csvio.write.rows", rows)
    sink.count("csvio.write.cells", rows * len(header))
    if error is None:
        sink.count("csvio.write.bytes", os.path.getsize(path))


def install(tracer):
    """Wrap the layer boundaries of an imported ``mzcg`` package in place.

    ``experiments`` and ``kernel`` import some functions by name, so those
    names are replaced in the importing module as well as in the defining one.
    """
    from mzcg import benchmark, experiments, kernel, models, sde

    def replace(wrapped, *places):
        for module, name in places:
            setattr(module, name, wrapped)

    # The integrators take these arguments positionally wherever mzcg calls them.
    full = tracer.span("sde.integrate", sde.integrate_full_batch, _integrate_counter(1, 2))
    replace(full, (sde, "integrate_full_batch"), (experiments, "integrate_full_batch"))
    crn = tracer.span("sde.integrate", sde.integrate_crn_batch, _integrate_counter(5, 4, 1))
    replace(crn, (sde, "integrate_crn_batch"), (experiments, "integrate_crn_batch"))
    scalar = tracer.span("sde.integrate", sde.integrate_scalar_batch, _integrate_counter(2, 3))
    replace(scalar, (sde, "integrate_scalar_batch"))
    simulate = tracer.span("sde.scalar", sde.simulate_scalar)
    replace(simulate, (sde, "simulate_scalar"), (experiments, "simulate_scalar"))

    sde.NoiseStream.pairs = tracer.span("sde.noise", sde.NoiseStream.pairs, _noise_count)
    sde.NoiseStream.__post_init__ = tracer.counter(
        sde.NoiseStream.__post_init__, _stream_count
    )

    blocks = tracer.block_map(sde.map_stream_blocks)
    replace(
        blocks,
        (sde, "map_stream_blocks"),
        (experiments, "map_stream_blocks"),
        (kernel, "map_stream_blocks"),
    )

    replace(tracer.span("models.drift", models.drift), (models, "drift"))
    replace(tracer.span("models.diffusion", models.diffusion), (models, "diffusion"))

    estimate = tracer.span("kernel.estimate", kernel.empirical_kernel)
    replace(estimate, (kernel, "empirical_kernel"), (experiments, "empirical_kernel"))
    replace(tracer.span("kernel.rk4", kernel._rk4_march, _rk4_count), (kernel, "_rk4_march"))

    cond_y = tracer.span("benchmark.cond_y", benchmark.conditional_y_sample)
    replace(
        cond_y,
        (benchmark, "conditional_y_sample"),
        (experiments, "conditional_y_sample"),
    )

    replace(tracer.span("csvio.write", experiments.write_csv, _csv_count),
            (experiments, "write_csv"))
