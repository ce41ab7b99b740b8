"""The benchmark's workloads, their oracle checks and their measurements.

Each workload is one cell of a Figure 7 style grid — PageRank x dataset
x data plane x executor x workers — driven closed-loop by one client
through the program's public entry points only: ``PregelEngine.run``,
``debug_run``, ``TraceReader``, ``canonical_trace_digest``,
``Router.handle`` and ``DebugRun.reproduce``.

A run of one workload is:

1. **Set-up**, repeated :data:`SETUP_REPEATS` times and charged to
   ``setup_s`` as the median: a warm-up on a tiny graph that pays
   first-use costs (imports, lint cache, fork paths), the seeded dataset,
   the oracles (one-worker, in-memory, envelope-plane runs: a no-debug run
   for the vertex values and one run of every debug job of a round for its
   canonical trace digest and capture count, plus an eager trace reader
   over the inspected job's trace), and a cold graft-lint of PageRank.
2. **Rounds** until the time budget is spent (at least
   :data:`MIN_ROUNDS`). A round times, each after a ``gc.collect()`` with
   the previous job released: the workload's *main job* (the one
   ``calls_per_s`` measures), the no-debug job and the five Table 3
   DebugConfigs on the same cell (the cell's Figure 7 row), then opens a
   fresh ``ReaderPool``/``Router`` on the inspected job's trace, runs a
   seeded mixed query session against it and replays a few captured
   vertices with ``DebugRun.reproduce``.

The timed run scales each time by runs of a host-speed kernel around it
(see ``hostspeed.py``); the traced run reports wall seconds.

Every output is checked: vertex values against the oracle values (Graft's
noninterference guarantee, and plane/backend equivalence), every debug
job's canonical digest and capture count against its oracle run's, the
inspected trace's ETag against the oracle digest, point and history
responses against the eager reader, and every ``reproduce`` with
``verify=True``. A check that fails is a failed operation.
"""

import gc
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.algorithms import PageRank
from repro.analysis import analyze_computation
from repro.analysis.rules import all_rules
from repro.common.serialization import default_codec
from repro.datasets import make
from repro.graft import debug_run
from repro.graft.capture import record_to_row, vertex_field_names
from repro.graft.config import CaptureAllActiveConfig, standard_configs
from repro.graft.trace import TraceReader, canonical_trace_digest
from repro.pregel.checkpoint import CheckpointConfig
from repro.pregel.computation import Computation
from repro.pregel.engine import PregelEngine
from repro.serve.router import Router
from repro.serve.sessions import ReaderPool
from repro.simfs import SimFileSystem

import hostspeed
import tracing

clock = time.perf_counter

NO_DEBUG = "no-debug"
CAPTURE_ALL = "capture-all"

#: Table 3 of the paper, in the figure's bar order, with the metric key
#: each config's seconds are reported under.
TABLE3 = {
    "DC-sp": "dc_sp",
    "DC-sp+nbr": "dc_sp_nbr",
    "DC-msg": "dc_msg",
    "DC-vv": "dc_vv",
    "DC-full": "dc_full",
}

SETUP_REPEATS = 3
MIN_ROUNDS = 2
QUERIES_PER_ROUND = 500
#: ``DebugRun.reproduce`` replays per round, after the query session.
REPRODUCES_PER_ROUND = 10
#: The query session brackets every block of this many queries with runs
#: of the host-speed kernel.
QUERIES_PER_CALIBRATION = 20
#: After the first round, a job kind faster than this is repeated (up to
#: MAX_REPEATS times per round) so short jobs get more samples.
REPEAT_BELOW_SECONDS = 1.2
MAX_REPEATS = 4
WARMUP_VERTICES = 120
#: Share of the graph's volume (see :func:`specified_vertices`) that the
#: Table 3 configs' specified vertices and their out-neighbors hold.
CAPTURED_SHARE = 0.12

#: The query mix of the inspect session: the request classes and weights
#: of the debug-server benchmark's plan (``scripts/bench_serve.py``).
#: Interactive point and history queries dominate; scans fill the rest.
QUERY_MIX = (
    ("point", 0.45),
    ("history", 0.15),
    ("tabular", 0.12),
    ("violations", 0.08),
    ("profile", 0.08),
    ("summary", 0.06),
    ("nodelink", 0.06),
)
QUERY_CLASSES = tuple(name for name, _weight in QUERY_MIX)


@dataclass(frozen=True)
class Workload:
    """One benchmark cell; every field is part of the workload's shape."""

    name: str
    #: Why this cell is in the benchmark (see :attr:`why` for the line
    #: BENCHMARK.json records).
    reason: str
    dataset: str
    num_vertices: int
    iterations: int
    num_workers: int
    executor: str = "serial"
    #: ``"memory"`` runs the in-memory columnar plane; ``"spill"`` the
    #: partitioned out-of-core store (streamed input, a page cache of
    #: ``page_cache_bytes``, checkpoints every ``checkpoint_every``).
    store: str = "memory"
    main: str = NO_DEBUG
    #: Whose trace the inspect phase opens: ``"main"`` or a Table 3 name.
    inspect: str = "DC-full"
    page_cache_bytes: int = None
    checkpoint_every: int = None

    @property
    def inspected(self):
        return self.main if self.inspect == "main" else self.inspect

    @property
    def why(self):
        """The workload's shape and reason, as one line."""
        plane = "spill" if self.store == "spill" else "columnar"
        return (
            f"PageRank x{self.iterations}, {self.dataset} {self.num_vertices}v,"
            f" {self.num_workers} workers, {self.executor}, {plane}, main "
            f"{self.main}, 1 closed-loop client: {self.reason}"
        )


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="fig7-pagerank",
            reason="the Figure 7 cell; broadcasts drive the send observer "
                   "under DC-msg and DC-full",
            dataset="web-BS",
            num_vertices=1000,
            iterations=10,
            num_workers=4,
        ),
        Workload(
            name="capture-inspect",
            reason="loads capture encoding and trace writes, then the "
                   "read side: digest, lazy index, LRUs, router",
            dataset="web-BS",
            num_vertices=600,
            iterations=5,
            num_workers=4,
            main=CAPTURE_ALL,
            inspect="main",
        ),
        Workload(
            name="spill-debug",
            reason="out-of-core debugging: page cache below the graph, "
                   "run files, spill barrier, checkpoints",
            dataset="web-BS",
            num_vertices=600,
            iterations=6,
            num_workers=2,
            store="spill",
            main="DC-sp",
            # Below the graph's pages, so every superstep pages partitions
            # out and back in (at 768 KiB they would all stay resident).
            page_cache_bytes=256 * 1024,
            checkpoint_every=5,
        ),
        Workload(
            name="process-transport",
            reason="fork/join and shared-memory frames; Graft-free "
                   "main job as bypass control",
            dataset="web-BS",
            num_vertices=1000,
            iterations=10,
            num_workers=2,
            executor="processes",
        ),
    )
}


# -- checks ------------------------------------------------------------------


class Checks:
    """Operations attempted and failed; a failed check is a failed op."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def expected_record_fields(record, codec=default_codec):
    """A record's served fields as JSON values, worker placement excluded."""
    row = record_to_row(record, codec)
    fields = dict(zip(vertex_field_names(), row[1:]))
    fields.pop("worker_id", None)
    return json.loads(json.dumps(fields, sort_keys=True, default=repr))


def record_matches(payload, record):
    """Whether a served record JSON equals the oracle's record."""
    if record is None:
        return False
    expected = expected_record_fields(record)
    return all(payload.get(key) == value for key, value in expected.items())


# -- jobs --------------------------------------------------------------------


def config_for(kind, specified_ids):
    if kind == CAPTURE_ALL:
        return CaptureAllActiveConfig()
    return standard_configs(specified_ids)[kind]


def job_id_for(kind):
    return kind.lower().replace("+", "-")


def engine_kwargs(workload, seed):
    kwargs = {
        "num_workers": workload.num_workers,
        "seed": seed,
        "executor": workload.executor,
    }
    if workload.store == "spill":
        kwargs.update(
            store="spill",
            page_cache_bytes=workload.page_cache_bytes,
            spill_filesystem=SimFileSystem(),
            checkpoint_config=CheckpointConfig(
                SimFileSystem(), every_n_supersteps=workload.checkpoint_every
            ),
        )
    else:
        kwargs.update(store="memory", columnar=True)
    return kwargs


class UserComputation(Computation):
    """Delegating wrapper whose ``compute()`` is a span: user self time."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer

    def initial_value(self, vertex_id, input_value):
        return self._inner.initial_value(vertex_id, input_value)

    def default_vertex_value(self, vertex_id):
        return self._inner.default_vertex_value(vertex_id)

    def pre_superstep(self, worker_info):
        self._inner.pre_superstep(worker_info)

    def post_superstep(self, worker_info):
        self._inner.post_superstep(worker_info)

    def compute(self, ctx, messages):
        tracer = self._tracer
        tracer.begin("pregel.compute_user")
        try:
            self._inner.compute(ctx, messages)
        finally:
            tracer.end()


def computation_factory(workload, tracer=None):
    iterations = workload.iterations
    if tracer is None:
        return lambda: PageRank(iterations=iterations)
    return lambda: UserComputation(PageRank(iterations=iterations), tracer)


@dataclass
class Job:
    kind: str
    seconds: float
    values: dict
    compute_calls: int
    messages: int
    metrics: object
    run: object = None
    filesystems: list = field(default_factory=list)
    checkpoint_fs: object = None
    failure: object = None

    @property
    def trace_fs(self):
        return self.run.session.filesystem if self.run is not None else None

    @property
    def job_id(self):
        return self.run.session.job_id if self.run is not None else None


def run_job(workload, kind, graph, specified_ids, seed, tracer=None,
            kwargs=None, lint=True):
    """Run and time one job; the timed region is the public call only.

    Traced jobs skip graft-lint: their factory builds the benchmark's
    delegating wrapper, not the user's class (the traced run's untraced
    round passes ``lint=False`` to match).
    """
    kwargs = dict(kwargs if kwargs is not None else engine_kwargs(workload, seed))
    factory = computation_factory(workload, tracer)
    checkpoint_fs = getattr(kwargs.get("checkpoint_config"), "filesystem", None)
    filesystems = [fs for fs in (kwargs.get("spill_filesystem"), checkpoint_fs)
                   if fs is not None]
    if kind == NO_DEBUG:
        def call():
            return PregelEngine(factory, graph, **kwargs).run()
    else:
        config = config_for(kind, specified_ids)
        if tracer is not None:
            tracing.instrument_config(tracer, config)
        trace_fs = SimFileSystem()
        filesystems.append(trace_fs)

        def call():
            return debug_run(
                factory, graph, config, filesystem=trace_fs,
                job_id=job_id_for(kind), lint=lint and tracer is None,
                **kwargs,
            )
    gc.collect()
    with tracer.span("job") if tracer is not None else nullcontext():
        start = clock()
        outcome = call()
        seconds = clock() - start
    if kind == NO_DEBUG:
        result, run, failure = outcome, None, None
    else:
        result, run, failure = outcome.result, outcome, outcome.failure
    if result is None:
        return Job(kind, seconds, {}, 0, 0, None, run, filesystems,
                   checkpoint_fs, failure)
    metrics = result.metrics
    return Job(
        kind=kind,
        seconds=seconds,
        values=dict(result.vertex_values),
        compute_calls=metrics.total_compute_calls,
        messages=metrics.total_messages,
        metrics=metrics,
        run=run,
        filesystems=filesystems,
        checkpoint_fs=checkpoint_fs,
        failure=failure,
    )


# -- set-up ------------------------------------------------------------------


@dataclass
class Environment:
    """What set-up hands to the rounds: inputs and oracles."""

    graph: object
    specified_ids: list
    reference_values: dict
    #: Debug job kind -> (canonical digest, capture count) of its oracle run.
    reference_traces: dict
    oracle: object
    pairs: list
    supersteps: list
    timings: dict
    #: The debug job kind whose trace the eager ``oracle`` reads.
    oracle_kind: str

    @property
    def inspected_digest(self):
        return self.reference_traces[self.oracle_kind][0]


def make_graph(workload, seed, num_vertices=None):
    scale = "full" if workload.store == "spill" else "demo"
    return make(
        workload.dataset, scale=scale, seed=seed,
        num_vertices=num_vertices or workload.num_vertices,
    )


def specified_vertices(graph, count=10):
    """``count`` vertices for the Table 3 configs that name vertices.

    A captured vertex's record carries its inbox, its edges (before and
    after) and its sends, about ``in + 3 * out`` entries, and DC-sp+nbr
    and DC-full also capture its out-neighbors. On a power-law graph that
    volume ranges over orders of magnitude (one hub neighbor dominates),
    and neighbors shared between specified vertices are captured once, so
    vertices picked by their own volume make the Table 3 numbers a lottery
    over the seed. Each pick here is the vertex whose newly captured
    volume brings the captured set's volume closest to ``k / count`` of
    :data:`CAPTURED_SHARE` of the graph's volume after the ``k``-th pick,
    so the captured volume is a fixed share of the graph instead.
    """
    out = {vertex: list(graph.neighbors(vertex)) for vertex in graph.vertex_ids()}
    in_degree = {}
    for targets in out.values():
        for target in targets:
            in_degree[target] = in_degree.get(target, 0) + 1

    def size(vertex):
        return in_degree.get(vertex, 0) + 3 * len(out.get(vertex, ()))

    share = CAPTURED_SHARE * sum(size(vertex) for vertex in out) / count
    candidates = sorted(out, key=repr)
    chosen, captured, total = [], set(), 0
    for pick in range(1, count + 1):
        def gap(vertex):
            added = {vertex, *out[vertex]} - captured
            return abs(total + sum(size(member) for member in added)
                       - share * pick)

        vertex = min((vertex for vertex in candidates if vertex not in chosen),
                     key=gap)
        chosen.append(vertex)
        added = {vertex, *out[vertex]} - captured
        captured |= added
        total += sum(size(member) for member in added)
    return chosen


def in_memory(graph):
    return graph.materialize() if hasattr(graph, "materialize") else graph


def debug_kinds(workload):
    return [kind for kind in round_kinds(workload) if kind != NO_DEBUG]


def set_up_once(workload, seed):
    timings = {}
    # The warm-up comes first, while this process is small: on
    # process-transport its forked workers then stay below the rounds'.
    start = clock()
    tiny = make_graph(workload, seed, num_vertices=WARMUP_VERTICES)
    tiny_ids = specified_vertices(in_memory(tiny))
    for kind in dict.fromkeys((workload.main, "DC-full")):
        run_job(workload, kind, tiny, tiny_ids, seed)
    del tiny
    timings["warmup_s"] = clock() - start

    start = clock()
    graph = make_graph(workload, seed)
    timings["generate_s"] = clock() - start

    start = clock()
    reference_graph = in_memory(graph)
    specified_ids = specified_vertices(reference_graph)
    oracle_kwargs = {"num_workers": 1, "seed": seed, "store": "memory",
                     "columnar": False}
    reference_values = run_job(workload, NO_DEBUG, reference_graph,
                               specified_ids, seed, kwargs=oracle_kwargs).values
    reference_traces = {}
    oracle = None
    for kind in debug_kinds(workload):
        job = run_job(workload, kind, reference_graph, specified_ids, seed,
                      kwargs=oracle_kwargs, lint=False)
        reference_traces[kind] = (
            canonical_trace_digest(job.trace_fs, job.job_id),
            job.run.capture_count,
        )
        if kind == workload.inspected:
            oracle = TraceReader(job.trace_fs, job.job_id, mode="eager")
        del job
    del reference_graph
    pairs = [(record.vertex_id, record.superstep)
             for record in oracle.vertex_records]
    timings["oracle_s"] = clock() - start

    start = clock()
    analyze_computation(PageRank, rules=all_rules())
    timings["lint_cold_s"] = clock() - start

    return Environment(
        graph=graph,
        specified_ids=specified_ids,
        reference_values=reference_values,
        reference_traces=reference_traces,
        oracle=oracle,
        pairs=pairs,
        supersteps=oracle.supersteps(),
        timings=timings,
        oracle_kind=workload.inspected,
    )


def set_up(workload, seed, repeats, host=None):
    """Set up ``repeats`` times; returns the last environment and totals.

    The totals are scaled by ``host`` (wall seconds by default).
    """
    host = host or hostspeed.WallClock()
    totals = []
    environment = None
    for _ in range(repeats):
        environment = None
        gc.collect()
        before = host.calibrate()
        start = clock()
        environment = set_up_once(workload, seed)
        totals.append(host.scale(clock() - start, before))
    return environment, totals


# -- the inspect session -----------------------------------------------------


def dealt(rng, items, count):
    """``count`` items dealt from seeded shuffles of ``items``, one by one.

    Each item comes up once before any comes up again, so which supersteps
    or vertices a session hits, and how often, varies less between seeds
    than independent draws would.
    """
    items = list(items)
    out = []
    while len(out) < count:
        rng.shuffle(items)
        out.extend(items)
    return iter(out[:count])


def query_plan(rng, job_id, pairs, supersteps, count):
    """A seeded mixed session of router requests: ``(class, path)`` pairs.

    Each class gets its weight's share of ``count`` exactly, in seeded
    order. Drawn at random, the share of fast point queries varies by a
    few percent between seeds, and the median falls on either side of the
    gap between them and the slower classes. Targets are dealt
    (:func:`dealt`), not drawn.
    """
    classes = [name for name, weight in QUERY_MIX
               for _ in range(round(weight * count))]
    classes = (classes + [QUERY_MIX[0][0]] * count)[:count]
    rng.shuffle(classes)
    vertices = sorted({vertex for vertex, _superstep in pairs}, key=repr)
    points = dealt(rng, pairs, count)
    histories = dealt(rng, vertices, count)
    tabulars = dealt(rng, supersteps, count)
    nodelinks = dealt(rng, supersteps, count)
    profiles = dealt(rng, ("heatmap", "skew"), count)
    plan = []
    for query_class in classes:
        if query_class == "point":
            vertex, superstep = next(points)
            target = f"/jobs/{job_id}/vertex/{vertex}?superstep={superstep}"
        elif query_class == "history":
            target = f"/jobs/{job_id}/vertex/{next(histories)}/history"
        elif query_class == "tabular":
            target = (f"/jobs/{job_id}/views/tabular?limit=50"
                      f"&superstep={next(tabulars)}")
        elif query_class == "violations":
            target = f"/jobs/{job_id}/views/violations"
        elif query_class == "profile":
            target = f"/jobs/{job_id}/profile/{next(profiles)}"
        elif query_class == "summary":
            target = f"/jobs/{job_id}"
        else:
            target = (f"/jobs/{job_id}/views/nodelink?limit=25"
                      f"&superstep={next(nodelinks)}")
        plan.append((query_class, target))
    return plan


def check_response(checks, query_class, target, response, oracle):
    """Status check, plus the eager-oracle comparison for point/history."""
    if not checks.check(response.status == 200,
                        f"{target} answered {response.status}"):
        return
    if query_class == "point":
        payload = json.loads(response.body)
        record = oracle.get(payload.get("vertex_id"), payload.get("superstep"))
        checks.check(record_matches(payload, record),
                     f"{target} differs from the eager oracle")
    elif query_class == "history":
        payload = json.loads(response.body)
        records = oracle.history(payload.get("vertex_id"))
        served = payload.get("records", [])
        checks.check(
            payload.get("total_records") == len(records)
            and all(record_matches(item, record)
                    for item, record in zip(served, records)),
            f"{target} differs from the eager oracle",
        )


@dataclass
class InspectSample:
    first_query_s: float
    #: Query class -> latencies in ms, plus ``"reproduce"`` for the replays.
    latencies_ms: dict
    trace_bytes: int
    cache_stats: dict


def inspect(job, environment, checks, rng, num_queries, tracer=None,
            host=None):
    """Fresh pool + router on ``job``'s trace: first query, a session, replays.

    The replays go through ``DebugRun.reproduce(verify=True)``; they are
    timed apart from the router session, whose classes are the debug
    server's. Times are scaled by ``host`` (wall seconds by default).
    """
    host = host or hostspeed.WallClock()
    trace_fs = job.trace_fs
    job_id = job.job_id
    plan = query_plan(rng, job_id, environment.pairs, environment.supersteps,
                      num_queries)
    vertex, superstep = rng.choice(environment.pairs)
    first_target = f"/jobs/{job_id}/vertex/{vertex}?superstep={superstep}"
    replays = [rng.choice(environment.pairs)
               for _ in range(REPRODUCES_PER_ROUND)]
    latencies = {name: [] for name in (*QUERY_CLASSES, "reproduce")}
    gc.collect()
    # The session stays in this process: on process-transport it is pinned
    # to one CPU and calibrated there.
    with host.pinned():
        with tracer.span("inspect") if tracer is not None else nullcontext():
            before = host.calibrate()
            start = clock()
            router = Router(ReaderPool(trace_fs))
            response = router.handle("GET", first_target)
            first_query_s = host.scale(clock() - start, before)
            check_response(checks, "point", first_target, response,
                           environment.oracle)
            checks.check(
                response.etag == environment.inspected_digest,
                f"{job_id}: ETag {str(response.etag)[:12]} is not the "
                f"oracle digest {environment.inspected_digest[:12]}",
            )
            # Adjacent blocks share the kernel run between them.
            for first in range(0, len(plan), QUERIES_PER_CALIBRATION):
                block = []
                before = host.last
                for query_class, target in plan[
                        first:first + QUERIES_PER_CALIBRATION]:
                    start = clock()
                    response = router.handle("GET", target)
                    block.append((query_class, clock() - start))
                    check_response(checks, query_class, target, response,
                                   environment.oracle)
                factor = host.scale(1e3, before)
                for query_class, seconds in block:
                    latencies[query_class].append(seconds * factor)
            stats = router.pool.cache_stats()
        block = []
        before = host.last
        for vertex, superstep in replays:
            start = clock()
            report = job.run.reproduce(vertex, superstep, verify=True)
            block.append(clock() - start)
            checks.check(report.faithful,
                         f"reproduce {(vertex, superstep)} is not faithful")
        factor = host.scale(1e3, before)
        latencies["reproduce"] = [seconds * factor for seconds in block]
    return InspectSample(first_query_s, latencies, job.run.trace_bytes, stats)


# -- rounds ------------------------------------------------------------------


@dataclass
class RoundSample:
    """A round's numbers; the jobs themselves only with ``keep_jobs``."""

    #: Job kind -> seconds of each repetition.
    seconds: dict = field(default_factory=dict)
    #: Main job compute calls / seconds, one per repetition.
    calls_per_s: list = field(default_factory=list)
    inspect: InspectSample = None
    main: Job = None
    jobs: dict = field(default_factory=dict)


def repeats_after(sample):
    """Per-kind repetitions for later rounds, from a first round's times."""
    return {
        kind: min(MAX_REPEATS,
                  max(1, math.ceil(REPEAT_BELOW_SECONDS / min(times))))
        for kind, times in sample.seconds.items()
    }


def round_kinds(workload):
    """Job order within a round: main job first, then the Figure 7 row."""
    return list(dict.fromkeys((workload.main, NO_DEBUG, *TABLE3)))


def check_job(checks, environment, job, trace=True):
    label = f"{job.kind} job"
    if not checks.check(job.failure is None, f"{label} failed: {job.failure}"):
        return
    checks.check(job.values == environment.reference_values,
                 f"{label}: vertex values differ from the oracle run")
    if trace and job.run is not None:
        check_trace(checks, environment, job)


def check_trace(checks, environment, job):
    """Canonical digest and capture count equal to the oracle run's."""
    observed = (canonical_trace_digest(job.trace_fs, job.job_id),
                job.run.capture_count)
    expected = environment.reference_traces[job.kind]
    checks.check(observed == expected,
                 f"{job.kind}: digest/captures {observed[0][:12]}/"
                 f"{observed[1]} differ from the oracle run's "
                 f"{expected[0][:12]}/{expected[1]}")


def run_round(workload, environment, checks, rng, num_queries, seed,
              tracer=None, keep_jobs=False, repeats=None, host=None,
              lint=True):
    """Time every job kind of a round, check it, then inspect one trace.

    Times are scaled by ``host`` (wall seconds by default).
    """
    host = host or hostspeed.WallClock()
    sample = RoundSample()
    inspected = None
    for kind in round_kinds(workload):
        for _ in range((repeats or {}).get(kind, 1)):
            before = host.calibrate()
            job = run_job(workload, kind, environment.graph,
                          environment.specified_ids, seed, tracer=tracer,
                          lint=lint)
            seconds = host.scale(job.seconds, before)
            sample.seconds.setdefault(kind, []).append(seconds)
            if kind == workload.main:
                sample.calls_per_s.append(job.compute_calls / seconds)
            # The inspected trace is checked by its first ETag instead.
            first_inspected = kind == workload.inspected and inspected is None
            check_job(checks, environment, job, trace=not first_inspected)
            if first_inspected:
                inspected = job
            if keep_jobs:
                sample.jobs[kind] = job
                if kind == workload.main:
                    sample.main = job
            else:
                job.values = None
                if job is not inspected:
                    job.run = job.filesystems = None
            del job
    if checks.check(inspected is not None and inspected.failure is None,
                    f"{workload.inspected} job produced no trace to inspect"):
        sample.inspect = inspect(inspected, environment, checks, rng,
                                 num_queries, tracer=tracer, host=host)
    if not keep_jobs and inspected is not None:
        inspected.run = inspected.filesystems = None
    return sample


# -- reporting helpers -------------------------------------------------------


def percentile(samples, fraction):
    """Nearest-rank percentile of a non-empty sample list."""
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[index]


def reset_peak_rss():
    """Restart this process's peak resident set (Linux ``VmHWM``)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb(children):
    """Peak resident set since :func:`reset_peak_rss`, in MiB.

    With ``children``, the largest waited-for child's peak counts too
    (forked workers inherit the parent's pages, so theirs is the higher).
    """
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    peak_kb = int(line.split()[1])
    except OSError:
        pass
    if children:
        peak_kb = max(peak_kb,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def assert_untraced():
    if tracemalloc.is_tracing():
        raise RuntimeError(
            "tracemalloc is tracing; timed runs must not pay for it "
            "(unset PYTHONTRACEMALLOC)"
        )


def log(message):
    print(message, file=sys.stderr, flush=True)


# -- the two run modes -------------------------------------------------------


def measure(workload, seed, seconds):
    """The timed run: every end-to-end metric, tracing off.

    Every timed operation is scaled by the host-speed kernel runs around it
    (see ``hostspeed.py``); standard error lists the scaled samples.
    """
    assert_untraced()
    checks = Checks()
    children = workload.executor == "processes"
    host = hostspeed.HostSpeed(os.sched_getaffinity(0) if children else ())
    environment, setup_totals = set_up(workload, seed, SETUP_REPEATS, host)
    peak_after_setup = peak_rss_mb(children)
    reset_peak_rss()
    rng = random.Random(seed)
    rounds = []
    repeats = None
    started = clock()
    while True:
        assert_untraced()
        round_start = clock()
        rounds.append(run_round(workload, environment, checks, rng,
                                QUERIES_PER_ROUND, seed, repeats=repeats,
                                host=host))
        if repeats is None:
            repeats = repeats_after(rounds[0])
        round_seconds = clock() - round_start
        elapsed = clock() - started
        if len(rounds) >= MIN_ROUNDS and elapsed + round_seconds > seconds:
            break
    inspected = [sample.inspect for sample in rounds
                 if sample.inspect is not None]
    latencies = [
        value
        for sample in inspected
        for query_class in QUERY_CLASSES
        for value in sample.latencies_ms[query_class]
    ]
    metrics = {
        "setup_s": metric(statistics.median(setup_totals), "s"),
        "calls_per_s": metric(
            statistics.median(value for sample in rounds
                              for value in sample.calls_per_s),
            "calls/s"),
    }
    for kind, key in TABLE3.items():
        metrics[f"{key}_s"] = metric(
            statistics.median(value for sample in rounds
                              for value in sample.seconds[kind]), "s")
    metrics["first_query_s"] = metric(
        statistics.median(sample.first_query_s for sample in inspected), "s")
    metrics["query_p50_ms"] = metric(percentile(latencies, 0.50), "ms")
    metrics["query_p99_ms"] = metric(percentile(latencies, 0.99), "ms")
    metrics["trace_mb"] = metric(
        statistics.median(sample.trace_bytes for sample in inspected) / 1e6,
        "MB")
    metrics["peak_rss_mb"] = metric(peak_rss_mb(children), "MB")
    log(f"{workload.name} seed={seed}: {len(rounds)} rounds in "
        f"{clock() - started:.1f}s; scaled seconds below; host kernel "
        f"median {statistics.median(host.samples) * 1e3:.2f} ms over "
        f"{len(host.samples)} runs (reference "
        f"{hostspeed.REFERENCE_SECONDS * 1e3:.2f} ms); peak RSS of set-up "
        f"{peak_after_setup:.1f} MiB")
    log(f"  setup: {[round(value, 3) for value in setup_totals]}")
    for kind in round_kinds(workload):
        times = [value for sample in rounds for value in sample.seconds[kind]]
        log(f"  {kind}: {len(times)} samples "
            f"{[round(value, 3) for value in times]}")
    log(f"  first_query: {len(inspected)} samples "
        f"{[round(sample.first_query_s, 4) for sample in inspected]}")
    replays = [value for sample in inspected
               for value in sample.latencies_ms["reproduce"]]
    log(f"  queries: {len(latencies)} samples, p50 "
        f"{percentile(latencies, 0.50):.2f} ms, p99 "
        f"{percentile(latencies, 0.99):.1f} ms; reproduce: {len(replays)} "
        f"samples, p50 {percentile(replays, 0.50):.1f} ms, max "
        f"{max(replays):.1f} ms")
    return checks, metrics


def hit_rate(stats):
    lookups = stats["hits"] + stats["misses"]
    return stats["hits"] / lookups if lookups else 0.0


def profile(workload, seed, spans_path=None):
    """The traced run: one untraced round, then the same round traced.

    Both rounds run with graft-lint off, so they do the same work apart
    from the wrappers; their seconds are wall seconds.
    """
    assert_untraced()
    checks = Checks()
    environment, _totals = set_up(workload, seed, 1)
    timings = environment.timings
    plain = run_round(workload, environment, checks, random.Random(seed),
                      QUERIES_PER_ROUND, seed, keep_jobs=True, lint=False)

    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        run_round(workload, environment, checks, random.Random(seed),
                  QUERIES_PER_ROUND, seed, tracer=tracer, lint=False)
    finally:
        patches.remove()

    metrics = {}
    seconds = "s"

    # Layer self times over every timed job of the traced round. With the
    # time no layer span covers (the job roots' own self time) they add up
    # exactly to the traced jobs' wall time.
    layers = tracer.by_name("job")
    jobs_traced = tracer.by_name("job", totals=True).get("job", 0.0)
    jobs_plain = sum(sum(times) for times in plain.seconds.values())
    for name in tracing.LAYER_SPANS:
        label = "trace.open_in_jobs" if name == "trace.open" else name
        if name != "trace.digest":
            metrics[f"{label}_s"] = metric(layers.get(name, 0.0), seconds)
    metrics["unattributed_s"] = metric(layers.get("job", 0.0), seconds)
    metrics["jobs.traced_s"] = metric(jobs_traced, seconds)
    metrics["jobs.untraced_s"] = metric(jobs_plain, seconds)
    metrics["tracing_overhead"] = metric(jobs_traced / jobs_plain, "x")
    metrics["pregel.barrier_s"] = metric(
        tracer.totals["pregel.barrier_s"], seconds)
    metrics["runtime.fork_join_s"] = metric(
        tracer.totals["runtime.fork_join_s"], seconds)
    metrics["partition.lookups"] = metric(
        tracer.counts["partition.lookups"], "count")
    metrics["graft.constraint_checks"] = metric(
        tracer.counts["graft.constraint_checks"], "count")

    # The read side, while inspecting: whole digest and reader-open time.
    reading = tracer.by_name("inspect", totals=True)
    metrics["trace.digest_s"] = metric(reading.get("trace.digest", 0.0),
                                       seconds)
    metrics["trace.open_s"] = metric(reading.get("trace.open", 0.0), seconds)

    # Counters the program returns, from the untraced round.
    main = plain.main
    run_metrics = main.metrics
    metrics["pregel.compute_calls"] = metric(main.compute_calls, "count")
    metrics["pregel.messages"] = metric(main.messages, "count")
    metrics["columnar.transport_bytes"] = metric(
        run_metrics.total_transport_bytes, "bytes")
    metrics["columnar.batches"] = metric(
        run_metrics.total_transport_batches, "count")
    metrics["columnar.pickle_fallbacks"] = metric(
        run_metrics.total_pickle_fallbacks, "count")
    metrics["store.bytes_spilled"] = metric(
        run_metrics.total_store_bytes_spilled, "bytes")
    metrics["store.bytes_loaded"] = metric(
        run_metrics.total_store_bytes_loaded, "bytes")
    metrics["store.page_cache_hit_rate"] = metric(
        run_metrics.page_cache_hit_rate or 0.0, "ratio")
    metrics["checkpoint.bytes"] = metric(
        main.checkpoint_fs.total_bytes() if main.checkpoint_fs else 0,
        "bytes")
    debug_jobs = [job for job in plain.jobs.values() if job.run is not None]
    metrics["graft.captures"] = metric(
        sum(job.run.capture_count for job in debug_jobs), "count")
    metrics["trace.bytes.main"] = metric(
        main.run.trace_bytes if main.run is not None else 0, "bytes")
    for kind, key in TABLE3.items():
        job = plain.jobs[kind]
        metrics[f"trace.bytes.{key}"] = metric(
            job.run.trace_bytes if job.run is not None else 0, "bytes")
    stats = plain.inspect.cache_stats
    metrics["trace.record_cache_hit_rate"] = metric(
        hit_rate(stats["record_cache"]), "ratio")
    metrics["trace.block_cache_hit_rate"] = metric(
        hit_rate(stats["block_cache"]), "ratio")
    filesystems = {id(fs): fs for job in plain.jobs.values()
                   for fs in job.filesystems}.values()
    metrics["simfs.bytes_written"] = metric(
        sum(fs.bytes_written for fs in filesystems), "bytes")
    metrics["simfs.bytes_read"] = metric(
        sum(fs.bytes_read for fs in filesystems), "bytes")
    metrics["simfs.read_calls"] = metric(
        sum(fs.read_calls for fs in filesystems), "count")
    for query_class, samples in plain.inspect.latencies_ms.items():
        for label, fraction in (("p50", 0.50), ("p99", 0.99)):
            metrics[f"router.{query_class}_{label}_ms"] = metric(
                percentile(samples, fraction) if samples else 0.0, "ms")
    metrics["analysis.lint_cold_s"] = metric(timings["lint_cold_s"], seconds)
    metrics["datasets.generate_s"] = metric(timings["generate_s"], seconds)

    no_debug = plain.seconds[NO_DEBUG][0]
    metrics["fig7.no_debug_s"] = metric(no_debug, seconds)
    for kind, key in TABLE3.items():
        metrics[f"fig7.slowdown.{key}"] = metric(
            plain.seconds[kind][0] / no_debug, "x")
        metrics[f"fig7.overhead_s.{key}"] = metric(
            plain.seconds[kind][0] - no_debug, seconds)

    if spans_path is not None:
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        count = tracer.dump(spans_path)
        log(f"wrote {count} spans to {spans_path}")
    return checks, metrics
