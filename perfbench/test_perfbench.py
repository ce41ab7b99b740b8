"""Self-tests of the benchmark at tiny sizes: workloads, oracles, tracing.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py

Every workload is shrunk to a few dozen vertices so the whole file runs
in seconds. Each oracle check is also fed a wrong expected value and must
count a failed operation.
"""

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.algorithms import PageRank  # noqa: E402
from repro.pregel.engine import PregelEngine  # noqa: E402

SEED = 5


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _tiny(name):
    workload = workloads.WORKLOADS[name]
    return dataclasses.replace(workload, num_vertices=60, iterations=3)


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 2)
    monkeypatch.setattr(workloads, "MIN_ROUNDS", 2)
    monkeypatch.setattr(workloads, "QUERIES_PER_ROUND", 25)
    monkeypatch.setattr(workloads, "WARMUP_VERTICES", 30)


def _environment(name):
    workload = _tiny(name)
    environment, _totals = workloads.set_up(workload, SEED, 1)
    return workload, environment


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_timed_run_reports_every_end_to_end_metric(quick, name):
    checks, metrics = workloads.measure(_tiny(name), SEED, 1)
    assert checks.failed == 0, checks.failures
    assert checks.attempted > 0
    spec = {entry["name"]: entry["unit"] for entry in _benchmark_spec()["end_to_end"]}
    assert {key: value["unit"] for key, value in metrics.items()} == spec
    assert all(value["value"] > 0 for value in metrics.values()), metrics


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_and_adds_up(quick, tmp_path, name):
    original_run = PregelEngine.__dict__["run"]
    spans = tmp_path / "spans.json.gz"
    checks, metrics = workloads.profile(_tiny(name), SEED, str(spans))
    assert checks.failed == 0, checks.failures
    spec = {entry["name"]: entry["unit"] for entry in _benchmark_spec()["per_layer"]}
    assert {key: value["unit"] for key, value in metrics.items()} == spec

    layer_metrics = [
        "trace.open_in_jobs_s" if name == "trace.open" else f"{name}_s"
        for name in tracing.LAYER_SPANS if name != "trace.digest"
    ]
    covered = sum(metrics[key]["value"] for key in layer_metrics)
    total = covered + metrics["unattributed_s"]["value"]
    assert total == pytest.approx(metrics["jobs.traced_s"]["value"], rel=1e-9)
    assert metrics["pregel.compute_calls"]["value"] > 0
    assert spans.exists()
    # The wrappers are gone once the traced run ends.
    assert PregelEngine.__dict__["run"] is original_run


def test_tracer_self_time_subtracts_children():
    tracer = tracing.Tracer()
    with tracer.span("job"):
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                sum(range(20000))
    self_times = tracer.by_name("job")
    totals = tracer.by_name("job", totals=True)
    assert self_times["inner"] == pytest.approx(inner.duration)
    assert self_times["outer"] == pytest.approx(totals["outer"] - totals["inner"])
    assert sum(self_times.values()) == pytest.approx(totals["job"])


def test_job_check_fails_on_wrong_values():
    workload, environment = _environment("fig7-pagerank")
    job = workloads.run_job(workload, workloads.NO_DEBUG, environment.graph,
                            environment.specified_ids, SEED)
    checks = workloads.Checks()
    workloads.check_job(checks, environment, job)
    assert checks.failed == 0
    vertex = next(iter(environment.reference_values))
    environment.reference_values[vertex] += 1.0
    workloads.check_job(checks, environment, job)
    assert checks.failed == 1


def test_trace_check_fails_on_wrong_digest():
    workload, environment = _environment("spill-debug")
    # The spilled DC-sp job against the in-memory oracle run's trace.
    job = workloads.run_job(workload, workload.main, environment.graph,
                            environment.specified_ids, SEED)
    checks = workloads.Checks()
    workloads.check_job(checks, environment, job)
    assert checks.attempted == 3 and checks.failed == 0
    digest, captures = environment.reference_traces[workload.main]
    environment.reference_traces[workload.main] = ("0" * 64, captures)
    workloads.check_trace(checks, environment, job)
    environment.reference_traces[workload.main] = (digest, captures + 1)
    workloads.check_trace(checks, environment, job)
    assert checks.failed == 2


def _inspect_failures(workload, environment, job):
    checks = workloads.Checks()
    workloads.inspect(job, environment, checks, random.Random(SEED), 40)
    return checks


def test_inspect_checks_fail_on_wrong_oracles():
    workload, environment = _environment("capture-inspect")
    job = workloads.run_job(workload, workload.main, environment.graph,
                            environment.specified_ids, SEED)
    assert _inspect_failures(workload, environment, job).failed == 0

    # A wrong oracle digest: the first response's ETag no longer matches.
    good = environment.reference_traces[workload.main]
    environment.reference_traces[workload.main] = ("0" * 64, good[1])
    assert _inspect_failures(workload, environment, job).failed == 1
    environment.reference_traces[workload.main] = good

    # A replay against a different program is not faithful.
    job.run.computation_factory = lambda: PageRank(iterations=0)
    assert _inspect_failures(workload, environment, job).failed > 0


def test_record_oracle_rejects_a_different_record():
    _workload, environment = _environment("capture-inspect")
    first, second = environment.oracle.vertex_records[:2]
    payload = workloads.expected_record_fields(first)
    assert workloads.record_matches(payload, first)
    assert not workloads.record_matches(payload, second)
    assert not workloads.record_matches(payload, None)


def test_query_plan_uses_the_debug_server_classes():
    pairs = [(vertex, superstep) for vertex in range(5) for superstep in range(3)]
    plan = workloads.query_plan(random.Random(SEED), "job", pairs, [0, 1, 2], 400)
    counts = {}
    for query_class, _target in plan:
        counts[query_class] = counts.get(query_class, 0) + 1
    assert counts == {name: round(weight * 400)
                      for name, weight in workloads.QUERY_MIX}
    other = workloads.query_plan(random.Random(SEED + 1), "job", pairs,
                                 [0, 1, 2], 400)
    assert other != plan
    assert "reproduce" not in counts
    assert all(target.startswith("/jobs/job") for _class, target in plan)


def test_dealt_items_come_up_once_before_any_repeats():
    items = list(range(7))
    dealt = list(workloads.dealt(random.Random(SEED), items, 17))
    assert len(dealt) == 17
    assert sorted(dealt[:7]) == sorted(dealt[7:14]) == items
    assert len(set(dealt[14:])) == 3


def test_host_speed_scales_by_the_kernel_runs_around_a_time():
    host = hostspeed.HostSpeed()
    before = host.calibrate()
    assert len(host.samples) == hostspeed.RUNS
    assert before == sorted(host.samples)[hostspeed.RUNS // 2] > 0
    reference = hostspeed.REFERENCE_SECONDS
    host.calibrate = lambda: 3 * reference
    assert host.scale(4.0, reference) == pytest.approx(2.0)
    assert hostspeed.WallClock().scale(4.0, reference) == pytest.approx(4.0)


def test_host_speed_averages_over_the_given_cpus():
    allowed = os.sched_getaffinity(0)
    host = hostspeed.HostSpeed(allowed)
    assert host.calibrate() > 0
    assert len(host.samples) == hostspeed.RUNS * len(allowed)
    assert os.sched_getaffinity(0) == allowed


def test_host_speed_pins_work_of_this_process_to_one_cpu():
    allowed = os.sched_getaffinity(0)
    host = hostspeed.HostSpeed(allowed)
    with host.pinned():
        assert len(os.sched_getaffinity(0)) == 1
        assert host.calibrate() > 0
        assert len(host.samples) == hostspeed.RUNS
    assert os.sched_getaffinity(0) == allowed
    assert host.cpus == sorted(allowed)


def test_peak_rss_restarts_after_reset():
    ballast = b"\x01" * (64 * 2**20)
    before = workloads.peak_rss_mb(children=False)
    del ballast
    if not workloads.reset_peak_rss():
        pytest.skip("no /proc/self/clear_refs here")
    assert workloads.peak_rss_mb(children=False) < before - 32


def test_setup_and_inputs_are_seeded():
    workload = _tiny("fig7-pagerank")
    first = workloads.make_graph(workload, SEED)
    again = workloads.make_graph(workload, SEED)
    other = workloads.make_graph(workload, SEED + 1)
    assert first == again
    assert first != other


def test_benchmark_json_matches_the_workloads():
    spec = _benchmark_spec()
    assert [entry["name"] for entry in spec["workloads"]] == list(workloads.WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200


def test_no_helper_process_outlives_the_run(quick):
    from multiprocessing import resource_tracker

    checks, _metrics = workloads.measure(_tiny("process-transport"), SEED, 1)
    assert checks.failed == 0, checks.failures
    tracker = resource_tracker._resource_tracker._pid
    assert tracker is not None, "the shared-memory transport starts a tracker"
    run.stop_helpers()
    assert not os.path.exists(f"/proc/{tracker}")
    assert resource_tracker._resource_tracker._pid is None


def test_exits_non_zero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig7-pagerank",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
