"""Span tracing for the benchmark's traced run, installed from outside ``src/``.

Nothing here is imported by the program. :func:`install` replaces public
functions and methods of the program's modules with thin wrappers that
record a span around each call (or only count calls, for lookups too hot
to time), and returns a handle whose ``remove()`` puts every original back.
The timed runs never call :func:`install`; they run the untouched program.

Where a module imported a function by name (``from x import f``), the
wrapper is installed under the name the *calling* module resolves at call
time — e.g. ``repro.graft.trace.record_to_row`` rather than
``repro.graft.capture.record_to_row`` — so the trace store's encode calls
are the ones measured and the debug server's JSON rendering is not.

Spans are kept in memory as compact columns (name, start, end, parent) and
written out by :meth:`Tracer.dump` when the run ends. Self time — a span's
duration minus the part its child spans cover — is accumulated as spans
close, keyed by the name of the root span they ran under, so a layer's
cost inside the timed jobs is kept apart from its cost while inspecting.
Spans from forked worker processes are recorded in the child's copy of
the tracer and lost with it; the parent-side spans still cover the
parent's whole wall time.
"""

import gzip
import json
import time
from array import array
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder for one single-threaded traced run."""

    def __init__(self):
        self._origin = _clock()
        self._names = []
        self._name_ids = {}
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        # One [span index, time covered by children] pair per open span.
        self._stack = []
        #: ``(root name, span name) -> seconds`` of self time.
        self.self_seconds = defaultdict(float)
        #: ``(root name, span name) -> seconds`` of whole span durations.
        self.total_seconds = defaultdict(float)
        #: Call counters for wrapped functions that carry no span.
        self.counts = defaultdict(int)
        #: Free-form accumulators filled by probes (barrier, fork/join).
        self.totals = defaultdict(float)

    def _name_id(self, name):
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return name_id

    def begin(self, name):
        index = len(self._start)
        self._name.append(self._name_id(name))
        self._parent.append(self._stack[-1][0] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append([index, 0.0])
        self._start.append(_clock())

    def end(self):
        now = _clock()
        index, covered = self._stack.pop()
        self._end[index] = now
        duration = now - self._start[index]
        if self._stack:
            self._stack[-1][1] += duration
            root = self._names[self._name[self._stack[0][0]]]
        else:
            root = self._names[self._name[index]]
        key = (root, self._names[self._name[index]])
        self.self_seconds[key] += duration - covered
        self.total_seconds[key] += duration
        return duration

    def span(self, name):
        return _Span(self, name)

    def by_name(self, root, totals=False):
        """``span name -> seconds`` of every span under ``root`` (self time,
        or whole durations with ``totals=True``)."""
        source = self.total_seconds if totals else self.self_seconds
        return {
            name: seconds
            for (root_name, name), seconds in source.items()
            if root_name == root
        }

    def dump(self, path):
        """Write every recorded span as gzipped JSON columns."""
        origin = self._origin
        payload = {
            "names": self._names,
            "columns": ["name", "start_us", "end_us", "parent"],
            "spans": [
                [
                    self._name[i],
                    round((self._start[i] - origin) * 1e6, 1),
                    round((self._end[i] - origin) * 1e6, 1),
                    self._parent[i],
                ]
                for i in range(len(self._start))
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as handle:
            json.dump(payload, handle, separators=(",", ":"))
        return len(self._start)


class _Span:
    __slots__ = ("_tracer", "_name", "duration")

    def __init__(self, tracer, name):
        self._tracer = tracer
        self._name = name
        self.duration = None

    def __enter__(self):
        self._tracer.begin(self._name)
        return self

    def __exit__(self, *exc_info):
        self.duration = self._tracer.end()
        return False


def spanned(tracer, name, function):
    """``function`` wrapped in a span called ``name``."""
    begin = tracer.begin
    end = tracer.end

    def wrapper(*args, **kwargs):
        begin(name)
        try:
            return function(*args, **kwargs)
        finally:
            end()

    wrapper.__wrapped__ = function
    return wrapper


def counted(tracer, name, function):
    """``function`` wrapped in a call counter (no span: too hot to time)."""
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return function(*args, **kwargs)

    wrapper.__wrapped__ = function
    return wrapper


class Patches:
    """Attribute replacements that :meth:`remove` undoes in reverse order."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attribute, replacement):
        original = owner.__dict__[attribute]
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def remove(self):
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


class BarrierProbe:
    """Engine listener: superstep wall time outside the worker steps.

    ``on_master_computed`` fires just before the worker steps are
    scheduled and ``on_superstep_end`` after the barrier (and after every
    listener registered before this one, such as the Graft session). The
    difference minus the backend's step-execution wall time (the row's
    ``wall_seconds``) is what the superstep spent routing, merging,
    transporting and flushing.
    """

    def __init__(self, tracer):
        self._tracer = tracer
        self._started = None

    def on_master_computed(self, superstep, master_ctx):
        self._started = _clock()

    def on_superstep_end(self, superstep, metrics):
        if self._started is None:
            return
        wall = _clock() - self._started
        self._tracer.totals["pregel.barrier_s"] += max(
            wall - metrics.wall_seconds, 0.0
        )
        self._started = None


#: Span names, one per layer the traced run attributes time to.
LAYER_SPANS = (
    "pregel.compute_user",
    "pregel.worker",
    "runtime.backend",
    "columnar.retrieve",
    "store.spill_io",
    "store.run_add",
    "checkpoint.write",
    "graft.instrument",
    "capture.encode",
    "trace.write",
    "trace.digest",
    "trace.open",
)


def install(tracer):
    """Wrap the program's layer boundaries; returns the :class:`Patches`."""
    import repro.graft.trace as trace_module
    import repro.pregel.engine as engine_module
    import repro.serve.sessions as sessions_module
    from repro.graft.instrumenter import InstrumentedComputation
    from repro.graft.trace import TraceReader, TraceStore
    from repro.pregel.columnar import ShmTransport
    from repro.pregel.partition import HashPartitioner
    from repro.pregel.runtime import ProcessBackend, SerialBackend
    from repro.pregel.store.runs import RunRouter, SpilledMessageStore
    from repro.pregel.store.spill import SpillStore
    from repro.pregel.worker import SpilledWorker, Worker

    patches = Patches()

    def span(owner, attribute, name):
        patches.replace(
            owner, attribute, spanned(tracer, name, owner.__dict__[attribute])
        )

    for worker_class in (Worker, SpilledWorker):
        if "run_superstep" in worker_class.__dict__:
            span(worker_class, "run_superstep", "pregel.worker")
    span(SerialBackend, "run_superstep", "runtime.backend")

    process_run = ProcessBackend.__dict__["run_superstep"]

    def process_superstep(self, steps):
        tracer.begin("runtime.backend")
        try:
            outcomes = process_run(self, steps)
        finally:
            elapsed = tracer.end()
        slowest = max((outcome.elapsed for outcome in outcomes), default=0.0)
        tracer.totals["runtime.fork_join_s"] += max(elapsed - slowest, 0.0)
        return outcomes

    patches.replace(ProcessBackend, "run_superstep", process_superstep)

    span(ShmTransport, "retrieve", "columnar.retrieve")
    span(engine_module, "parse_frame", "columnar.retrieve")
    for attribute in ("acquire", "release", "flush"):
        span(SpillStore, attribute, "store.spill_io")
    span(SpilledMessageStore, "load_partition", "store.spill_io")
    span(RunRouter, "add", "store.run_add")
    span(RunRouter, "add_broadcast", "store.run_add")
    patches.replace(
        HashPartitioner, "partition_for",
        counted(tracer, "partition.lookups",
                HashPartitioner.__dict__["partition_for"]),
    )
    span(engine_module, "write_checkpoint", "checkpoint.write")

    span(InstrumentedComputation, "compute", "graft.instrument")
    span(trace_module, "record_to_row", "capture.encode")
    span(trace_module, "record_to_line", "capture.encode")
    for attribute in ("write_vertex_record", "write_vertex_records",
                      "write_master_record", "flush", "close"):
        span(TraceStore, attribute, "trace.write")
    span(trace_module, "canonical_trace_digest", "trace.digest")
    span(sessions_module, "canonical_trace_digest", "trace.digest")
    span(TraceReader, "__init__", "trace.open")

    engine_class = engine_module.PregelEngine
    engine_run = engine_class.__dict__["run"]

    def run_with_probe(self):
        self.add_listener(BarrierProbe(tracer))
        return engine_run(self)

    patches.replace(engine_class, "run", run_with_probe)
    return patches


def instrument_config(tracer, config):
    """Count and time one DebugConfig instance's constraint calls.

    Only the instance is touched: the class (which Graft inspects to learn
    which constraints are overridden) stays as it is.
    """
    for attribute in ("vertex_value_constraint", "message_value_constraint"):
        bound = getattr(config, attribute)
        timed = spanned(tracer, "graft.instrument", bound)
        setattr(config, attribute, counted(tracer, "graft.constraint_checks", timed))
    return config
