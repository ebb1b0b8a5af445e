"""Tests of the benchmark itself, on a tiny config.

    python3 -m pytest perfbench
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
from perftrace import self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(name, trace, tmp_path):
    return run.run_benchmark(
        name, 3, 0.0, trace, tiny=True, setup_repeats=1,
        results_dir=str(tmp_path / "results"), work_dir=str(tmp_path / "work"),
    )


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result = _run(name, trace, tmp_path)
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (2 if trace else 1)
    with open(tmp_path / "results" / f"{name}-seed3-trace{int(trace)}.json") as fh:
        written = json.load(fh)
    assert {"numpy", "blas", "OPENBLAS_NUM_THREADS", "jobs", "nproc", "cpu_model",
            "loadavg_at_start"} <= set(written["fingerprint"])
    assert set(written["metrics"]) == set(result["metrics"])


def test_declared_workloads_are_the_ones_run():
    declared = {w["name"]: w["why"] for w in _declared()["workloads"]}
    assert declared == {name: cls.why for name, cls in WORKLOADS.items()}


def test_metric_names_and_units_use_the_allowed_characters():
    declared = _declared()
    metrics = declared["end_to_end"] + declared["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    assert [n for n in names if not NAME.match(n)] == []
    assert [m["unit"] for m in metrics if not UNIT.match(m["unit"])] == []
    assert set(run.per_layer_units()) == {m["name"] for m in declared["per_layer"]}
    assert set(run.END_TO_END) == {m["name"] for m in declared["end_to_end"]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_reference_fails_the_check(name, tmp_path):
    workload = WORKLOADS[name].tiny(3, str(tmp_path))
    workload.warm_up()
    for _ in range(2):
        outcome = workload.finish(workload.run())
        assert workload.check(outcome) == []
    key = sorted(workload.ref.values)[0]
    workload.ref.values[key] = "corrupted"
    assert workload.check(outcome) != []


class _Sleeper:
    """A workload whose iterations sleep for a fixed time."""

    def __init__(self, seconds):
        self.seconds = seconds

    def warm_up(self):
        pass

    def run(self):
        time.sleep(self.seconds)

    def finish(self, raw):
        return types.SimpleNamespace(miou=0.5, stages={})

    def check(self, outcome):
        return []

    def artifact_mismatch(self, outcome):
        return 0


def test_a_run_stops_when_its_fastest_iteration_no_longer_fits():
    assert len(run.measure(_Sleeper(0.05), 0.0)) == run.MIN_ITERATIONS
    walls = [it["wall"] for it in run.measure(_Sleeper(0.05), 0.32)]
    assert len(walls) >= 4
    assert sum(walls) < 0.32 + 0.05


def test_wall_and_cpu_are_the_fastest_iteration_setup_the_median():
    assert run.summarize([3.0, 1.0, 2.0, 5.0], fastest=True)["value"] == 1.0
    assert run.summarize([3.0, 1.0, 2.0, 5.0])["value"] == 2.5
    metrics = run.end_to_end_metrics(
        [{"wall": 4.0, "cpu": 3.5}, {"wall": 3.0, "cpu": 3.9}], [0.3, 0.1, 0.2]
    )
    assert metrics["wall_s"]["value"] == 3.0
    assert metrics["cpu_s"]["value"] == 3.5
    assert metrics["setup_s"]["value"] == 0.2


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        (0, None, "root", "", 0.0, 10.0, 0),
        (1, 0, "a", "", 1.0, 4.0, 0),
        (2, 0, "b", "", 3.0, 6.0, 0),  # overlaps a, as pool workers do
        (3, 1, "c", "", 2.0, 3.0, 0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(5.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run-default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
