"""Columnar-transport determinism: packed batches change nothing observable.

The contract of the columnar data plane (ISSUE 7): for the same job, runs
with ``columnar=True`` (packed batches, shared-memory frames under the
processes backend) and ``columnar=False`` (per-envelope object lists) must
produce the same :class:`~repro.pregel.PregelResult` and byte-identical
Graft traces — per-worker file hashes AND the canonical merged digest —
across backends and worker counts. This is the tier-1 matrix gate: if a
packed column, a compact broadcast record, or a shared-memory frame ever
reorders or rewrites a message, a digest here splits.
"""

import hashlib

import pytest

from repro.algorithms import PageRank, ShortestPaths
from repro.datasets import load_dataset
from repro.graft import CaptureAllActiveConfig, debug_run
from repro.graft.trace import canonical_trace_digest, worker_trace_path
from repro.pregel import Computation, MinCombiner

WORKER_COUNTS = (1, 2, 4)
EXECUTORS = ("serial", "processes")


class TopologyChurn(Computation):
    """Mutates topology every superstep while messages keep flowing.

    Exercises every columnar fallback edge at once: dirty-adjacency
    workers file explicit broadcasts, messages to missing targets force
    vertex creation at the barrier, and explicit add/remove requests make
    the barrier materialize envelopes before mutating.
    """

    def initial_value(self, vertex_id, input_value):
        return 0.0

    def default_vertex_value(self, vertex_id):
        return -1.0

    def compute(self, ctx, messages):
        ctx.set_value(ctx.value + float(sum(messages)))
        step = ctx.superstep
        if step == 0:
            ctx.send_message_to_all_neighbors(1.0)
        elif step == 1:
            for target in sorted(ctx.neighbor_ids(), key=repr)[:1]:
                ctx.remove_edge(target)
            spawn = f"spawn:{ctx.vertex_id}"
            ctx.add_edge(spawn)
            ctx.send_message(spawn, ctx.value + 1.0)
        elif step == 2:
            ctx.add_vertex_request(f"req:{ctx.vertex_id}", 7.0)
            ctx.send_message_to_all_neighbors(0.5)
        else:
            ctx.vote_to_halt()


class SelfRemoval(Computation):
    """Vertices remove themselves while their neighbours keep messaging.

    Every fifth vertex requests its own removal in superstep 1 while all
    vertices broadcast through superstep 2. The removing barrier finds
    messages already in flight to the removed vertices (on the spill
    plane, the resolver's removed-vertex run scan), and superstep 2
    messages address vertices that are gone — or were recreated, under
    the ``create`` policy.
    """

    def initial_value(self, vertex_id, input_value):
        return 0.0

    def default_vertex_value(self, vertex_id):
        return -1.0

    def compute(self, ctx, messages):
        ctx.set_value(ctx.value + float(sum(messages)))
        if ctx.superstep == 1 and ctx.vertex_id % 5 == 0:
            ctx.remove_vertex_request(ctx.vertex_id)
        if ctx.superstep <= 2:
            ctx.send_message_to_all_neighbors(1.0)
        else:
            ctx.vote_to_halt()


class TuplePing(Computation):
    """Sends tuple payloads — no packed column exists for them.

    Every column degrades to the pickled-object fallback mid-superstep;
    delivery order and traces must still match the envelope plane.
    """

    def initial_value(self, vertex_id, input_value):
        return (0, 0.0)

    def compute(self, ctx, messages):
        if ctx.superstep == 0:
            ctx.send_message_to_all_neighbors((1, 0.5))
        elif ctx.superstep < 3:
            hops = max((m[0] for m in messages), default=0)
            weight = sum(m[1] for m in messages)
            ctx.set_value((hops, weight))
            ctx.send_message_to_all_neighbors((hops + 1, weight / 2.0))
        else:
            ctx.vote_to_halt()


JOBS = {
    "pagerank": (lambda: PageRank(iterations=4), {}),
    "sssp_combined": (lambda: ShortestPaths(0), {"combiner": MinCombiner()}),
    "mutation": (TopologyChurn, {}),
    "removal": (SelfRemoval, {}),
    "removal_drop": (SelfRemoval, {"on_message_to_missing": "drop"}),
    "tuple_fallback": (TuplePing, {}),
}


def _graph():
    return load_dataset("web-BS", num_vertices=90, seed=11)


_CACHE = {}


def _run(job, executor, workers, columnar):
    """Run one debugged job; memoized so each config executes once."""
    key = (job, executor, workers, columnar)
    if key not in _CACHE:
        factory, extra_kwargs = JOBS[job]
        run = debug_run(
            factory,
            _graph(),
            CaptureAllActiveConfig(),
            job_id="col",
            lint=False,
            seed=7,
            num_workers=workers,
            executor=executor,
            max_supersteps=8,
            columnar=columnar,
            **extra_kwargs,
        )
        assert run.ok, f"{key}: {run.failure}"
        fs = run.session.filesystem
        file_hashes = {
            worker_id: hashlib.sha256(
                fs.read_bytes(worker_trace_path("col", worker_id))
            ).hexdigest()
            for worker_id in range(workers)
        }
        _CACHE[key] = {
            "values": dict(run.result.vertex_values),
            "supersteps": run.result.num_supersteps,
            "halt_reason": run.result.halt_reason,
            "captures": run.capture_count,
            "file_hashes": file_hashes,
            "canonical_digest": canonical_trace_digest(fs, "col"),
        }
    return _CACHE[key]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("job", sorted(JOBS))
def test_columnar_matches_envelope(job, executor, workers):
    """columnar on/off parity at every (backend, worker count) cell."""
    envelope = _run(job, executor, workers, columnar=False)
    columnar = _run(job, executor, workers, columnar=True)
    assert columnar["values"] == envelope["values"]
    assert columnar["supersteps"] == envelope["supersteps"]
    assert columnar["halt_reason"] == envelope["halt_reason"]
    assert columnar["captures"] == envelope["captures"]
    assert columnar["file_hashes"] == envelope["file_hashes"]
    assert columnar["canonical_digest"] == envelope["canonical_digest"]


@pytest.mark.parametrize("job", sorted(JOBS))
def test_columnar_processes_matches_serial(job):
    """Shared-memory frames reproduce the serial backend byte-for-byte."""
    reference = _run(job, "serial", 4, columnar=True)
    candidate = _run(job, "processes", 4, columnar=True)
    assert candidate["values"] == reference["values"]
    assert candidate["file_hashes"] == reference["file_hashes"]
    assert candidate["canonical_digest"] == reference["canonical_digest"]


@pytest.mark.parametrize("job", sorted(JOBS))
def test_columnar_digest_stable_across_worker_counts(job):
    """The canonical merged trace is one hash whatever the partitioning."""
    digests = {
        workers: _run(job, "serial", workers, columnar=True)[
            "canonical_digest"
        ]
        for workers in WORKER_COUNTS
    }
    assert len(set(digests.values())) == 1, digests

