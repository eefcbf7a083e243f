"""The benchmark's workloads: ``figures``, ``campaign`` and ``certify``.

Each workload is a closed batch loop run by one main process, which
starts the next operation only after the previous one returned.  An
operation is one figures pass, one sharded campaign, or one
certification cycle.  ``run_op`` times only the calls into the program
(set-up of scratch directories and the output checks sit outside the
timed region; the host-speed samples taken inside it, see
:mod:`hostref`, are taken out of its time) and returns an
:class:`Outcome` whose ``pins`` are the simulated or computed outputs a
speed-only change must leave identical.

Inputs come from the benchmark seed alone: it is the workload-instance
data seed, the fault-plan seed of every campaign unit, and the
certifier's fault-model seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List

import hostref

#: the five programs the figures workload regenerates, and why each is
#: there: matmul (32 warps/CTA, most of the time), lavamd (2 warps,
#: fp64, the paper's worst case), bfs (8 warps, divergent), snap
#: (shuffles, so the inter-thread pass rejects it), gaussian (tiny
#: multi-CTA program dominated by per-launch overhead)
FIGURE_PROGRAMS = ("lavamd", "bfs", "snap", "gaussian", "matmul")
#: every program is at its minimum problem size for scale <= 0.1
FIGURE_SCALE = 0.1

#: campaign units: (workload, compile scheme), in shard round-robin
#: order, so shard 0 runs bfs + gaussian and shard 1 snap + saxpy
CAMPAIGN_UNITS = (("bfs", "swap-ecc"), ("snap", "swdup"),
                  ("gaussian", "baseline"), ("saxpy", "swap-ecc"))
CAMPAIGN_SHARDS = 2
#: input size of each unit: batch_size trials per engine batch (one
#: forked worker each), max_batches batches, at workload scale 0.25
CAMPAIGN_SIZE = {"full": {"batch_size": 128, "max_batches": 4},
                 "smoke": {"batch_size": 16, "max_batches": 2}}

#: warm lookups per certification cycle: rounds over every cold scheme
CERTIFY_BURST_ROUNDS = {"full": 200, "smoke": 5}
#: smoke cycles certify a subset (incl. the two the drift phase needs)
CERTIFY_SMOKE_SCHEMES = ("parity", "mod3", "secded-dp", "secded-dp-strict")
DRIFTED_SCHEME = "secded-dp"
#: the registered scheme that is a full sweep of the drifted factory
DRIFT_REFERENCE = "secded-dp-strict"


def canonical(value: Any) -> str:
    """Sorted-key compact JSON, the form every digest is taken over."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Outcome:
    """What one operation did and whether its outputs were right."""

    #: host seconds of the timed region
    wall_s: float = 0.0
    #: work items done (see each workload's ``work_name``)
    work: float = 0.0
    #: host seconds the work items took (the whole op unless noted)
    work_s: float = 0.0
    #: factor from this op's host seconds to normalised seconds
    #: (:mod:`hostref`); 1.0 where the host speed was not sampled
    scale: float = 1.0
    #: output checks made and the ones that failed (with a reason each)
    checked: int = 0
    failures: List[str] = field(default_factory=list)
    #: outputs pinned per seed; identical across ops of one run
    pins: Dict[str, Any] = field(default_factory=dict)
    #: human-readable facts for the report
    facts: Dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, reason: str) -> None:
        self.checked += 1
        if not ok:
            self.failures.append(reason)


#: a region times the block it wraps into ``outcome.wall_s`` and yields
#: a clock: host seconds since the region began, for timing a phase
Clock = Callable[[], float]
Region = Callable[[Outcome], "contextlib.AbstractContextManager[Clock]"]


@contextlib.contextmanager
def plain_region(outcome: Outcome) -> Iterator[Clock]:
    """The timed region without tracing, sampling the host's speed."""
    sampler = hostref.Sampler()
    start = time.perf_counter()

    def clock() -> float:
        return time.perf_counter() - start - sampler.spent

    sampler.start()
    try:
        yield clock
        outcome.wall_s = clock()
    finally:
        sampler.stop()
    outcome.scale = sampler.scale()


# ---------------------------------------------------------------------------
# figures

class Figures:
    """Figs. 12(+13), 15 and 16, as ``examples/performance_study.py``."""

    name = "figures"
    work_name = "sim_warp_insts_per_s"
    work_what = "simulated warp instructions per host second"
    busy_workers = 1  # the main process itself

    def programs(self, smoke: bool):
        return ("snap", "gaussian") if smoke else FIGURE_PROGRAMS

    def pin_size(self, smoke: bool) -> str:
        return "full"  # a smoke pass is a subset of the full grid's cells

    def setup(self, seed: int, smoke: bool, workdir: str) -> None:
        from repro.workloads import get_workload
        for program in self.programs(smoke):
            get_workload(program).build(scale=FIGURE_SCALE, seed=seed)

    def run_op(self, seed: int, smoke: bool, workdir: str,
               region: Region, span) -> Outcome:
        from repro.experiments import (FIG12_SCHEMES, FIG15_SCHEMES,
                                       FIG16_SCHEMES, run_performance_study)
        programs = self.programs(smoke)
        outcome = Outcome()
        studies = {}
        with region(outcome):
            for figure, schemes in (("fig12", FIG12_SCHEMES),
                                    ("fig15", FIG15_SCHEMES),
                                    ("fig16", FIG16_SCHEMES)):
                with span("experiments", f"experiments.{figure}"):
                    studies[figure] = run_performance_study(
                        schemes, programs, scale=FIGURE_SCALE, seed=seed)
        outcome.work_s = outcome.wall_s
        by_pair: Dict[str, Any] = {}
        for figure, study in studies.items():
            for program, runs in study.grid.items():
                for scheme, run in runs.items():
                    cell = {"cycles": run.cycles,
                            "mix": [run.mix.not_eligible,
                                    run.mix.checked_predicted,
                                    run.mix.checked_duplicated,
                                    run.mix.inserted, run.mix.checking,
                                    run.mix.plain_eligible],
                            "warps_per_sm": run.warps_per_sm,
                            "registers_per_thread":
                                run.registers_per_thread,
                            "verified": run.verified,
                            "rejected": run.rejected}
                    label = f"{figure}/{program}/{scheme}"
                    outcome.pins[label] = cell
                    outcome.check(run.verified or run.rejected,
                                  f"{label}: output failed verification")
                    # a (program, scheme) pair measured by two figures
                    # must measure identically
                    pair = f"{program}/{scheme}"
                    if pair in by_pair:
                        outcome.check(by_pair[pair] == cell,
                                      f"{label}: differs from the same "
                                      f"pair in another figure")
                    by_pair[pair] = cell
                    if not run.rejected:
                        outcome.work += run.mix.total
        outcome.facts = {"cells": len(outcome.pins),
                         "distinct_pairs": len(by_pair),
                         "sim_warp_insts": int(outcome.work),
                         "sim_cycles": sum(cell["cycles"] for cell
                                           in outcome.pins.values())}
        return outcome


# ---------------------------------------------------------------------------
# campaign

class Campaign:
    """One 2-shard leased-fabric GPU campaign over four units."""

    name = "campaign"
    work_name = "visible_trials_per_s"
    work_what = "fired (visible) fault trials per host second"
    busy_workers = CAMPAIGN_SHARDS  # one batch worker per shard at a time

    def pin_size(self, smoke: bool) -> str:
        return "smoke" if smoke else "full"

    def units(self, seed: int):
        from repro.inject.engine import gpu_work_unit
        return [gpu_work_unit(workload, scheme, scale=0.25, build_seed=seed,
                              seed=seed)
                for workload, scheme in CAMPAIGN_UNITS]

    def config(self, smoke: bool):
        from repro.inject.engine import EngineConfig
        from repro.inject.fabric import FabricConfig
        size = CAMPAIGN_SIZE[self.pin_size(smoke)]
        return FabricConfig(
            shards=CAMPAIGN_SHARDS, mode="partition",
            install_signal_handlers=False,
            engine=EngineConfig(ci_half_width=None, timeout_s=60.0, **size))

    def setup(self, seed: int, smoke: bool, workdir: str) -> None:
        self.units(seed)
        self.config(smoke)

    def run_op(self, seed: int, smoke: bool, workdir: str,
               region: Region, span) -> Outcome:
        from repro.inject.fabric import run_fabric_campaign
        units = self.units(seed)
        config = self.config(smoke)
        batch_size = config.engine.batch_size
        fabric_dir = tempfile.mkdtemp(prefix="fabric-", dir=workdir)
        outcome = Outcome()
        try:
            with region(outcome):
                report = run_fabric_campaign(units, fabric_dir, config)
            with open(report.merged_report_path, "rb") as handle:
                merged = handle.read()
        finally:
            shutil.rmtree(fabric_dir, ignore_errors=True)
        outcome.work_s = outcome.wall_s
        outcome.check(not report.paused and all(
            status == "completed" for status in report.shard_status.values()),
            f"fabric did not complete: {report.shard_status}")
        drawn = visible = not_hit = retries = 0
        units_pin = {}
        for unit in units:
            unit_report = report.report.units.get(unit.unit_id)
            if unit_report is None:
                outcome.check(False, f"{unit.unit_id}: missing from report")
                continue
            counts = {key: value for key, value in unit_report.counts.items()
                      if value}
            unit_drawn = unit_report.batches * batch_size
            binned = sum(value for key, value in counts.items()
                         if key not in ("corrected_in_place", "recovered"))
            outcome.check(
                unit_report.status == "completed" and binned == unit_drawn
                and unit_drawn - counts.get("not_hit", 0)
                == unit_report.trials,
                f"{unit.unit_id}: status {unit_report.status}, "
                f"{binned} binned of {unit_drawn} drawn, "
                f"{unit_report.trials} visible")
            units_pin[unit.unit_id] = {"trials": unit_report.trials,
                                       "counts": counts}
            drawn += unit_drawn
            visible += unit_report.trials
            not_hit += counts.get("not_hit", 0)
            retries += unit_report.retries
        outcome.work = visible
        outcome.pins = {"merged_report_sha256": hashlib.sha256(
            merged).hexdigest(), "units": units_pin}
        outcome.facts = {"drawn": drawn, "visible": visible,
                         "not_hit": not_hit, "retries": retries}
        return outcome


# ---------------------------------------------------------------------------
# certify

class Certify:
    """One CertificateService over a fresh store, in three phases."""

    name = "certify"
    work_name = "cold_certs_per_s"
    work_what = "cold certificates (miss: sweep + store write) per host " \
                "second of phase 1"
    busy_workers = 1  # sweeps run inline in the main process

    def pin_size(self, smoke: bool) -> str:
        return "full"  # a smoke cycle certifies a subset of the schemes

    def schemes(self, smoke: bool) -> List[str]:
        from repro.certify.engine import certification_registry
        names = sorted(certification_registry())
        return [name for name in names
                if name in CERTIFY_SMOKE_SCHEMES] if smoke else names

    def setup(self, seed: int, smoke: bool, workdir: str) -> None:
        from repro.certify.engine import certification_registry
        from repro.certify.service import CertificateService
        from repro.certify.store import CertificateStore
        store = CertificateStore(tempfile.mkdtemp(prefix="store-",
                                                  dir=workdir))
        CertificateService(store, seed=seed)
        for factory in certification_registry().values():
            factory()

    def run_op(self, seed: int, smoke: bool, workdir: str,
               region: Region, span) -> Outcome:
        from repro.certify.engine import certification_registry
        from repro.certify.service import CertificateService
        from repro.certify.store import CertificateStore
        from repro.ecc import SecDedDpSwap
        schemes = self.schemes(smoke)
        rounds = CERTIFY_BURST_ROUNDS["smoke" if smoke else "full"]
        drifted = certification_registry()
        drifted[DRIFTED_SCHEME] = \
            lambda: SecDedDpSwap(check_correction="strict")
        root = tempfile.mkdtemp(prefix="certify-", dir=workdir)
        outcome = Outcome()
        cold: Dict[str, Any] = {}
        warm: List[Any] = []
        try:
            with region(outcome) as clock:
                # phase 1: cold lookups (journaled sweep + store write)
                service = CertificateService(
                    CertificateStore(os.path.join(root, "store")), seed=seed)
                start = clock()
                for name in schemes:
                    cold[name] = service.lookup(name)
                outcome.work_s = clock() - start
                # phase 2: warm lookups (store read + envelope check)
                for _ in range(rounds):
                    for name in schemes:
                        warm.append(service.lookup(name))
                # phase 3: the drifted secded-dp factory.  Its key equals
                # the registered secded-dp-strict key, which phase 1
                # certified, so it runs against a second store holding
                # only the accept-policy secded-dp certificate.
                drift_dir = os.path.join(root, "drift")
                prior = CertificateService(CertificateStore(drift_dir),
                                           seed=seed).lookup(DRIFTED_SCHEME)
                incremental = CertificateService(
                    CertificateStore(drift_dir), seed=seed,
                    registry=drifted).lookup(DRIFTED_SCHEME)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        outcome.work = len(cold)
        for name, served in cold.items():
            certificate = served.payload["certificate"]
            outcome.check(served.cache == "miss" and certificate["passed"],
                          f"{name}: cold lookup was {served.cache}, "
                          f"passed={certificate['passed']}")
            outcome.pins[name] = {
                "passed": certificate["passed"],
                "strikes_swept": certificate["strikes_swept"],
                "verdicts": {claim: report["verdict"] for claim, report
                             in certificate["claims"].items()},
                "certificate_sha256": sha256(canonical(certificate))}
        written = {name: canonical(served.payload)
                   for name, served in cold.items()}
        for index, served in enumerate(warm):
            name = schemes[index % len(schemes)]
            outcome.check(served.cache == "hit"
                          and canonical(served.payload) == written[name],
                          f"{name}: warm lookup was {served.cache} or not "
                          f"byte-identical to the payload the miss wrote")
        outcome.check(prior.cache == "miss",
                      f"drift prior lookup was {prior.cache}")
        reference = cold[DRIFT_REFERENCE].payload["certificate"]["claims"]
        stitched = incremental.payload["certificate"]["claims"]
        outcome.check(
            incremental.cache == "incremental" and {
                claim: report["verdict"] for claim, report
                in stitched.items()} == {
                claim: report["verdict"] for claim, report
                in reference.items()},
            f"drifted {DRIFTED_SCHEME}: served {incremental.cache}, "
            f"verdicts differ from a full sweep of {DRIFT_REFERENCE}")
        outcome.pins["incremental"] = {
            "recertified": incremental.payload["provenance"]["recertified"],
            "strikes_swept":
                incremental.payload["certificate"]["strikes_swept"],
            "verdicts": {claim: report["verdict"]
                         for claim, report in stitched.items()}}
        outcome.facts = {"cold": len(cold), "warm": len(warm),
                         "incremental": 1}
        return outcome


CASES = {case.name: case for case in (Figures(), Campaign(), Certify())}


def subset_mismatches(pinned: Dict[str, Any], got: Dict[str, Any]
                      ) -> List[str]:
    """Keys of ``got`` whose values differ from (or are absent in) pins."""
    return [key for key, value in got.items()
            if key not in pinned or pinned[key] != value]
