"""graft-san runs on every message plane and reports the same thing.

The planes differ only in how they produce an inbox: the envelope plane
merges grouped outboxes, the columnar plane materializes packed batches
when a schedule is installed, and the spill plane merges sorted run
files partition by partition. Each then permutes at the same
``(seed, schedule, delivery superstep, target)`` coordinates, before
combining. So a sanitizer sweep must yield the same baseline digest,
per-schedule digests, first divergence and permuted-inbox count on every
plane, under every backend.
"""

import pytest

from repro.algorithms import BuggyLabelPropagation, LabelPropagation, PageRank
from repro.datasets import load_dataset
from repro.graft.sanitizer import run_sanitizer
from repro.graph import to_undirected
from repro.pregel import SumCombiner

SCHEDULES = 2
EXECUTORS = ("serial", "processes")

#: plane -> engine kwargs.
PLANES = {
    "envelope": {"columnar": False},
    "columnar": {"columnar": True},
    "spill-3": {"store": "spill", "num_partitions": 3},
    "spill-8": {"store": "spill", "num_partitions": 8},
}

#: job -> (factory, engine kwargs). The summed float PageRank messages
#: make the combiner fold order-sensitive, so permute-before-combine
#: shows in the digests.
JOBS = {
    "label-prop": (lambda: LabelPropagation(iterations=5), {}),
    "label-prop-buggy": (lambda: BuggyLabelPropagation(iterations=5), {}),
    "pagerank-combined": (
        lambda: PageRank(iterations=4), {"combiner": SumCombiner()}
    ),
}


def _graph():
    return to_undirected(load_dataset("web-BS", num_vertices=60, seed=3))


_CACHE = {}


def _sweep(job, plane, executor):
    """One sanitizer sweep per (job, plane, executor); memoized."""
    key = (job, plane, executor)
    if key not in _CACHE:
        factory, kwargs = JOBS[job]
        report = run_sanitizer(
            factory,
            _graph(),
            schedules=SCHEDULES,
            seed=7,
            num_workers=2,
            executor=executor,
            lint=False,
            **kwargs,
            **PLANES[plane],
        )
        assert report.ok, f"{key}: {report.failures}"
        _CACHE[key] = {
            "baseline_digest": report.baseline_digest,
            "schedule_digests": dict(report.schedule_digests),
            "first_divergence": report.first_divergence,
            "inboxes_permuted": report.inboxes_permuted,
        }
    return _CACHE[key]


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("plane", sorted(PLANES))
@pytest.mark.parametrize("job", sorted(JOBS))
def test_sanitizer_matches_envelope_plane(job, plane, executor):
    reference = _sweep(job, "envelope", "serial")
    assert _sweep(job, plane, executor) == reference
    assert reference["inboxes_permuted"] > 0


def test_reference_sweep_separates_clean_from_buggy():
    """The parity above is not vacuous: the reference sweep passes the
    clean program and catches the seeded bug, so every plane does."""
    clean = _sweep("label-prop", "envelope", "serial")
    buggy = _sweep("label-prop-buggy", "envelope", "serial")
    assert set(clean["schedule_digests"].values()) == {
        clean["baseline_digest"]
    }
    assert buggy["first_divergence"] is not None
