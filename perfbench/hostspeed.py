"""Host-speed calibration for the timed run.

On a small shared virtual machine the CPU speed one process gets drifts
by up to 1.7x in phases that last from a second to minutes, and each vCPU
drifts on its own. Two runs of the same code a few minutes apart can then
differ by more than any useful regression bound, and within one run a job
can take 0.8 s or 1.4 s. Running longer does not help: a phase outlasts a
run.

The timed run therefore brackets every timed operation (each job, each
set-up, the first query, and each block of queries) with calibrations,
each the median of :data:`RUNS` back-to-back runs of a fixed reference
kernel, and reports the operation's wall seconds times
``REFERENCE_SECONDS / mean of the two calibrations``. Host slow phases
stretch the kernel and the program alike and the factor cancels the part
they share: timing one Table 3 job kind (DC-sp+nbr on fig7-pagerank's
graph) back to back for 100 seconds on the machine the benchmark was
tuned on, single jobs spread by 35% of their median in wall seconds and
by 9% scaled, and the medians of 10-second windows by 20% and 3.5%.
The kernel is pure Python of the same kind as the program's hot loops
(dict lookups, attribute access, float arithmetic, list appends, method
calls) over a graph built once from a fixed seed. It does not touch the
program, so a change that makes the program faster or slower moves the
scaled times exactly as it moves the wall times.

``REFERENCE_SECONDS`` is about the kernel's median time on the 2-vCPU
virtual machine the benchmark was tuned on, so there scaled seconds read
close to wall seconds. The timed run logs the kernel's median time and
the scaled samples to standard error.
"""

import gc
import os
import random
import time
from contextlib import contextmanager

clock = time.perf_counter

#: About the kernel's median time on the machine the benchmark was tuned on.
REFERENCE_SECONDS = 0.005

#: Kernel runs per calibration; the calibration reads their median.
RUNS = 3

_VERTICES = 800
_STEPS = 5


def _reference_graph():
    rng = random.Random(20150531)
    return {
        vertex: [rng.randrange(_VERTICES) for _ in range(1 + rng.randrange(9))]
        for vertex in range(_VERTICES)
    }


_GRAPH = _reference_graph()


class _Vertex:
    __slots__ = ("edges", "value", "inbox")

    def __init__(self, edges):
        self.edges = edges
        self.value = 1.0 / _VERTICES
        self.inbox = []

    def send(self, vertices):
        share = self.value / len(self.edges)
        for target in self.edges:
            vertices[target].inbox.append(share)


def kernel():
    """A few PageRank supersteps over the fixed graph; returns the sum."""
    vertices = {vertex: _Vertex(edges) for vertex, edges in _GRAPH.items()}
    for step in range(_STEPS):
        for vertex in vertices.values():
            if step:
                vertex.value = 0.15 / _VERTICES + 0.85 * sum(vertex.inbox)
            vertex.inbox = []
        for vertex in vertices.values():
            vertex.send(vertices)
    return sum(vertex.value for vertex in vertices.values())


class HostSpeed:
    """Kernel runs around timed operations, and the scale they give."""

    def __init__(self, cpus=()):
        self.samples = []
        #: The latest kernel time, to start the next bracket from.
        self.last = None
        #: CPUs whose speeds are averaged; none: wherever this process runs.
        #: Each vCPU drifts on its own, and a job that forks workers onto
        #: every CPU runs as fast as they do together.
        self.cpus = sorted(cpus)

    def calibrate(self):
        """Run the kernel :data:`RUNS` times, collector paused; the median.

        A single run now and then reads 30% fast or slow for no reason the
        program shares; the median of three back-to-back runs drops it.
        With :attr:`cpus`, the mean over those CPUs of the median there.
        """
        if not self.cpus:
            return self._median_run()
        allowed = os.sched_getaffinity(0)
        try:
            medians = []
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                medians.append(self._median_run())
        finally:
            os.sched_setaffinity(0, allowed)
        return sum(medians) / len(medians)

    @contextmanager
    def pinned(self):
        """Run the block, and calibrate within it, on one CPU only.

        For work that stays in this process while :attr:`cpus` names
        several: their mean speed is not the speed of the one CPU the work
        runs on.
        """
        if len(self.cpus) < 2:
            yield
            return
        allowed = os.sched_getaffinity(0)
        cpus = self.cpus
        self.cpus = cpus[:1]
        os.sched_setaffinity(0, self.cpus)
        try:
            yield
        finally:
            self.cpus = cpus
            os.sched_setaffinity(0, allowed)

    def _median_run(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(RUNS):
                start = clock()
                kernel()
                times.append(clock() - start)
        finally:
            if enabled:
                gc.enable()
        self.samples.extend(times)
        return sorted(times)[len(times) // 2]

    def scale(self, seconds, before):
        """Scale wall ``seconds`` timed since the kernel run ``before``.

        Runs the kernel once more (its time becomes :attr:`last`) and
        divides by the mean of the two runs.
        """
        self.last = self.calibrate()
        return seconds * 2 * REFERENCE_SECONDS / (before + self.last)


class WallClock(HostSpeed):
    """Leaves wall seconds as they are, without running the kernel."""

    def calibrate(self):
        return REFERENCE_SECONDS
