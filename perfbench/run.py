#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, a fixed measuring time.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload figures|campaign|certify \\
        --seed N --seconds S --trace 0|1

It runs closed-loop operations of the workload until the next
one would overrun ``--seconds`` (always at least one; with ``--trace 1``
at least one untraced and one traced, alternating).  It prints a
human-readable report, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``, measured
with tracing off; with ``--trace 1`` they are the per-layer metrics of
the traced operations.  Every time is host time; the end-to-end times
are host seconds normalised to a reference host speed sampled while
they were measured (:mod:`hostref`), and the report prints the raw host
seconds beside them.  Simulated quantities are named ``sim_``.  The
cycle model has no hardware reference results in this repository, so it
is unvalidated and no error figure is given.

Outputs are checked on every operation; on the seeds recorded in
``pins.json`` they must also equal the recorded pins.  Any failed check
makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

import hostref

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINS = os.path.join(HERE, "pins.json")
WORK_ROOT = os.path.join(ROOT, ".perfbench_run")
#: fresh-interpreter set-ups per run; setup_s is their median
SETUP_REPEATS = 5
#: kernel calls timed right before and right after each set-up
SETUP_SPEED_CALLS = 10


def _require_checkout() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program sources at {SRC} "
                         f"(run from the root of a checkout)\n")
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return value


def _parse(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "campaign", "certify"))
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest inputs (the self-test's size)")
    parser.add_argument("--record-pins", action="store_true",
                        help="write this run's outputs into pins.json")
    parser.add_argument("--setup-probe", metavar="WORKDIR",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _setup_seconds(args: argparse.Namespace, workdir: str
                   ) -> Tuple[List[float], List[float]]:
    """Host and normalised seconds of fresh interpreters importing and
    building inputs (the probe's host-speed samples taken out)."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe", workdir] + (["--smoke"] if args.smoke else [])
    times, normalised = [], []
    for _ in range(SETUP_REPEATS):
        # no timeout: with one, the wait polls in sleeps of up to 50 ms,
        # which quantizes the measured time
        start = time.perf_counter()
        done = subprocess.run(command, check=True, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
        probe = json.loads(done.stdout.splitlines()[-1])
        seconds = time.perf_counter() - start - probe["sampling_s"]
        times.append(seconds)
        normalised.append(seconds * probe["scale"])
    return times, normalised


def _setup_probe(args: argparse.Namespace) -> None:
    """One set-up in this fresh interpreter, with the host's speed.

    A set-up is too short for the in-region samples alone, so the
    kernel is also timed right before and right after it, once warm
    (its first call runs bytecode the interpreter has not specialised).
    """
    import cases
    started = time.perf_counter()
    hostref.sample(1)
    samples = hostref.sample(SETUP_SPEED_CALLS)
    sampler = hostref.Sampler()
    sampling = time.perf_counter() - started
    sampler.start()
    try:
        cases.CASES[args.workload].setup(args.seed, args.smoke,
                                         args.setup_probe)
    finally:
        sampler.stop()
    started = time.perf_counter()
    samples += sampler.samples + hostref.sample(SETUP_SPEED_CALLS)
    sampling += sampler.spent + time.perf_counter() - started
    print(json.dumps({"sampling_s": sampling,
                      "scale": hostref.NOMINAL_S / statistics.fmean(samples)}))


def _load_pins() -> Dict[str, Any]:
    if not os.path.exists(PINS):
        return {}
    with open(PINS, "r", encoding="utf-8") as handle:
        return json.load(handle)


class Run:
    """The measuring loop of one invocation."""

    def __init__(self, args: argparse.Namespace, workdir: str):
        import cases
        from spans import Tracer
        self.args = args
        self.case = cases.CASES[args.workload]
        self.workdir = workdir
        self.tracer = Tracer(os.path.join(workdir, "spool"))
        os.makedirs(self.tracer.spool_dir)
        self.key = (f"{args.workload}/{self.case.pin_size(args.smoke)}/"
                    f"{args.seed}")
        self.pinned = _load_pins().get(self.key)
        self.untraced: List[Any] = []
        self.traced: List[Dict[str, Any]] = []
        self.first_pins: Optional[Dict[str, Any]] = None
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    @contextlib.contextmanager
    def _traced_region(self, outcome) -> Iterator[Any]:
        start = time.perf_counter()
        with self.tracer.span("other", "op"):
            yield lambda: time.perf_counter() - start
        root = self.tracer.spans[-1]
        outcome.wall_s = root["end"] - root["start"]

    def one_op(self, traced: bool):
        import cases
        import probes
        if traced:
            self.tracer.collect()
            probes.install(self.tracer)
            try:
                outcome = self.case.run_op(
                    self.args.seed, self.args.smoke, self.workdir,
                    self._traced_region, self.tracer.span)
            finally:
                records, lost = self.tracer.collect()
                self.tracer.unpatch()
            root = next(span["id"] for span in records[0]["spans"]
                        if span["name"] == "op")
            self.traced.append({"records": records, "root": root,
                                "wall_s": outcome.wall_s, "lost": lost,
                                "retries": outcome.facts.get("retries", 0)})
        else:
            outcome = self.case.run_op(
                self.args.seed, self.args.smoke, self.workdir,
                cases.plain_region, self.tracer.span)
            self.untraced.append(outcome)
        self._check(outcome, "traced" if traced else "untraced")
        return outcome

    def _check(self, outcome, label: str) -> None:
        """Count the op's own checks plus one for its pinned outputs."""
        import cases
        mismatches = []
        if self.first_pins is None:
            self.first_pins = outcome.pins
        elif outcome.pins != self.first_pins:
            mismatches.append("outputs differ from this run's first op")
        if self.pinned is not None:
            mismatches.extend(
                f"pin mismatch: {key}"
                for key in cases.subset_mismatches(self.pinned, outcome.pins))
        self.attempted += outcome.checked + 1
        self.failed += len(outcome.failures) + bool(mismatches)
        self.failures.extend(f"[{label} op] {reason}"
                             for reason in outcome.failures + mismatches)

    def warm_up(self) -> None:
        """One untimed smoke-size op: lazy imports and caches fill here."""
        import cases
        outcome = self.case.run_op(self.args.seed, True, self.workdir,
                                   cases.plain_region, self.tracer.span)
        self.attempted += outcome.checked
        self.failed += len(outcome.failures)
        self.failures.extend(f"[warm-up op] {reason}"
                             for reason in outcome.failures)

    def loop(self) -> None:
        seconds = self.args.seconds
        self.warm_up()
        start = time.perf_counter()
        op_index = 0
        while True:
            traced = bool(self.args.trace) and op_index % 2 == 1
            op_start = time.perf_counter()
            self.one_op(traced)
            op_index += 1
            now = time.perf_counter()
            minimum = 2 if self.args.trace else 1
            if op_index >= minimum and \
                    now - start + (now - op_start) > seconds:
                return


def _emit(metrics: Dict[str, Any], units: Dict[str, str], run: Run) -> None:
    result = {"correct": run.failed == 0,
              "attempted": max(1, run.attempted),
              "failed": run.failed,
              "metrics": {name: {"value": float(metrics[name]),
                                 "unit": units[name]}
                          for name in units}}
    print(json.dumps(result, sort_keys=False))


def _units(kind: str) -> Dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _report(args: argparse.Namespace, run: Run,
            setup: Tuple[List[float], List[float]], wall: float) -> None:
    import spans
    case = run.case
    print(f"perfbench {args.workload}: seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}; closed loop, one main "
          f"process, {case.busy_workers} busy process(es); host time "
          f"unless named sim_ (cycle model unvalidated against hardware, "
          f"no error figure)")
    ops = run.untraced
    walls = [op.wall_s for op in ops]
    norm_walls = [op.wall_s * op.scale for op in ops]
    rates = [op.work / op.work_s for op in ops if op.work_s > 0]
    norm_rates = [op.work / (op.work_s * op.scale)
                  for op in ops if op.work_s > 0]
    setup_host, setup_norm = setup
    error_rate = run.failed / max(1, run.attempted)
    metrics: Dict[str, float] = {
        "setup_s": statistics.median(setup_norm),
        "norm_wall_s": statistics.median(norm_walls),
        "peak_rss_mb": _peak_rss_mb(),
        "norm_work_per_s": statistics.median(norm_rates)
        if norm_rates else 0.0,
    }
    speed = statistics.median(1.0 / op.scale for op in ops)
    print(f"  host speed   {speed:.3f}x the reference kernel's nominal "
          f"time (median over ops; normalised seconds = host seconds / "
          f"this)")
    print(f"  setup_s      {metrics['setup_s']:.4f} s    normalised, median "
          f"of {len(setup_norm)} fresh-interpreter set-ups (host "
          f"{statistics.median(setup_host):.4f} s)")
    print(f"  wall_s       {statistics.median(walls):.4f} s    host seconds "
          f"per operation, median of {len(walls)} untraced ops: "
          + " ".join(f"{value:.3f}" for value in walls))
    print(f"  norm_wall_s  {metrics['norm_wall_s']:.4f} s    the same, "
          f"normalised: " + " ".join(f"{value:.3f}" for value in norm_walls))
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB   max RSS of "
          f"the main process and its children")
    print(f"  error_rate   {error_rate:.4f} ratio  {run.failed} "
          f"failed of {run.attempted} checks")
    print(f"  {case.work_name} {statistics.median(rates) if rates else 0:.4f}"
          f" 1/s  {case.work_what}; normalised "
          f"{metrics['norm_work_per_s']:.4f} 1/s (norm_work_per_s)")
    for key, value in (ops[0].facts if ops else {}).items():
        print(f"  {key:<14} {value}")
    if "drawn" in (ops[0].facts if ops else {}):
        facts = ops[0].facts
        print(f"  campaign accounting: {facts['visible']} visible (fired) "
              f"of {facts['drawn']} drawn plans; not_hit "
              f"{facts['not_hit']} = "
              f"{facts['not_hit'] / max(1, facts['drawn']):.3f} of drawn")
    layer = None
    if args.trace:
        layer = spans.layer_metrics(run.traced)
        layer["trace.overhead_frac"] = spans.overhead_fraction(
            [op["wall_s"] for op in run.traced], walls)
        print(spans.render_self_table(layer))
        for name in sorted(layer):
            print(f"  {name:<30} {layer[name]:.6g}")
    for reason in run.failures[:20]:
        print(f"  FAILED: {reason}")
    print(f"  run took {wall:.1f} s")
    if args.trace:
        _emit(layer, _units("per_layer"), run)
    else:
        _emit(metrics, _units("end_to_end"), run)


def _record_pins(run: Run) -> None:
    pins = _load_pins()
    pins[run.key] = run.first_pins
    with open(PINS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    _require_checkout()
    if args.setup_probe:
        _setup_probe(args)
        return 0
    started = time.perf_counter()
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        setup = _setup_seconds(args, workdir)
        run = Run(args, workdir)
        run.loop()
        if args.record_pins and not run.failed:
            _record_pins(run)
        _report(args, run, setup, time.perf_counter() - started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    return 0 if not run.failed else 1


if __name__ == "__main__":
    sys.exit(main())
