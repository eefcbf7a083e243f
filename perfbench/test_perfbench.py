"""Self-test of the benchmark: every workload at smoke size.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import hostref
from spans import LAYERS, attribute

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)
with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as _f:
    PINS = json.load(_f)

WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
#: the pin entries the seed-0 smoke runs are checked against
SMOKE_PIN_KEYS = {"figures": "figures/full/0", "campaign": "campaign/smoke/0",
                  "certify": "certify/full/0"}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module", params=[(w, t) for w in WORKLOADS
                                         for t in (0, 1)],
                ids=lambda p: f"{p[0]}-trace{p[1]}")
def smoke_run(request):
    workload, trace = request.param
    done = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    return workload, trace, json.loads(done.stdout.strip().splitlines()[-1])


def test_every_metric_is_emitted_with_its_unit(smoke_run):
    _, trace, result = smoke_run
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name for name in result["metrics"]} == \
        {metric["name"] for metric in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])


def test_outputs_and_pins_hold(smoke_run):
    workload, _, result = smoke_run
    assert SMOKE_PIN_KEYS[workload] in PINS  # the pin check is not vacuous
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1


def test_traced_self_times_sum_to_traced_wall(smoke_run):
    workload, trace, result = smoke_run
    if not trace:
        pytest.skip("per-layer metrics come from the traced run")
    metrics = {name: value["value"]
               for name, value in result["metrics"].items()}
    total = sum(metrics[f"self.{layer}_s"] for layer in LAYERS)
    assert total == pytest.approx(metrics["trace.wall_s"], rel=1e-6)
    assert metrics["trace.lost_procs"] == 0
    if workload == "campaign":
        # spans from forked shard and batch-worker processes arrived
        assert metrics["fabric.shard_busy_min_s"] > 0
        assert metrics["inject.runner_s"] > 0
        assert metrics["tensor.trials"] == metrics["inject.trials_drawn"]


def test_host_sampler_samples_and_restores_the_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = hostref.Sampler()
    sampler.start()
    deadline = time.perf_counter() + 4 * hostref.PERIOD_S
    while time.perf_counter() < deadline:
        pass
    sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= hostref.MIN_SAMPLES
    assert 0 < sampler.spent < 4 * hostref.PERIOD_S
    assert sampler.scale() > 0


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "figures", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert "metrics" not in done.stdout


def test_attribution_splits_concurrent_children():
    # main-process root 0..10 s; two forked children busy 2..6 s and 4..8 s
    records = [
        {"pid": 1, "spans": [
            {"id": "1:1", "parent": None, "layer": "other", "name": "op",
             "start": 0.0, "end": 10.0, "attrs": {}},
            {"id": "1:2", "parent": "1:1", "layer": "fabric",
             "name": "fabric.coordinator", "start": 1.0, "end": 9.0,
             "attrs": {}}], "leaves": [], "counters": {}},
        {"pid": 2, "spans": [
            {"id": "2:1", "parent": "1:2", "layer": "inject",
             "name": "inject.runner", "start": 2.0, "end": 6.0,
             "attrs": {}}],
         "leaves": [["2:1", "journal.append", 3, 1.0, 0.0]],
         "counters": {}},
        {"pid": 3, "spans": [
            {"id": "3:1", "parent": "1:2", "layer": "tensor",
             "name": "tensor.run_trials", "start": 4.0, "end": 8.0,
             "attrs": {}}], "leaves": [], "counters": {}},
    ]
    selfs = attribute(records, "1:1")
    assert sum(selfs.values()) == pytest.approx(10.0)
    assert selfs["other"] == pytest.approx(2.0)
    assert selfs["fabric"] == pytest.approx(2.0)
    # 2..4 alone (2 s) + 4..6 shared (1 s); a quarter of it in journal
    assert selfs["inject"] + selfs["journal"] == pytest.approx(3.0)
    assert selfs["journal"] == pytest.approx(0.75)
    assert selfs["tensor"] == pytest.approx(3.0)
