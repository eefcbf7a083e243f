"""Golden pins for the cycle-timing path (``Device.launch`` via ``run_scheme``).

Every value the SM scheduler produces for a figure cell is pinned here:
per launch the cycle count, issue counts (total and per pipe), memory
transactions, L1 hits/misses and idle cycles; per cell the dynamic
instruction mix, occupancy, verification/rejection flags and the power
estimate.  A speed-only change to ``gpu/sm.py`` or ``gpu/warp.py`` must
leave every one of them bit-identical.

The cells are the whole figure grid: every ``ALL_ORDER`` program under
every scheme of Figures 12, 15 and 16 (150 cells).  Among them,
``DRIVER_CELLS`` name the scheduler's cost drivers: a 32-warp CTA
(matmul), a divergent program (bfs), a multi-CTA grid (gaussian),
Swap-ECC write-after-write shadows, fp64 (lavamd), shuffles (snap) and
a scheme the compiler rejects.

Regenerate the golden file only for a change that is *meant* to move
timing, and say so in the change description::

    PYTHONPATH=src python tests/gpu/test_timing_golden.py --write
"""

import dataclasses
import json
import os
import sys
from functools import lru_cache

import pytest

from repro.experiments.common import run_scheme
from repro.experiments.figures_perf import (FIG12_SCHEMES, FIG15_SCHEMES,
                                            FIG16_SCHEMES)
from repro.gpu import Device
from repro.workloads import ALL_ORDER, get_workload

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "timing_golden.json")
SCALE = 0.1
SEED = 0

#: the cells each named for the scheduler cost driver it exercises
DRIVER_CELLS = (
    ("matmul", "baseline"),       # 32 warps/CTA
    ("bfs", "swap-ecc"),          # divergence + Swap-ECC shadows
    ("bfs", "swdup"),             # divergence + duplicated checking
    ("gaussian", "baseline"),     # multi-CTA grid
    ("gaussian", "interthread"),  # multi-CTA, inter-thread pairs
    ("lavamd", "baseline"),       # fp64
    ("lavamd", "swap-ecc"),       # fp64 write-after-write shadows
    ("snap", "swdup"),            # shuffles
    ("snap", "interthread"),      # rejected by the compiler
)

#: every scheme any performance figure sweeps, in first-use order
GRID_SCHEMES = tuple(dict.fromkeys(FIG12_SCHEMES + FIG15_SCHEMES +
                                   FIG16_SCHEMES))

#: (program, scheme) cells: the whole figure grid
CELLS = tuple((program, scheme) for program in ALL_ORDER
              for scheme in GRID_SCHEMES)


class _RecordingDevice(Device):
    """A :class:`Device` that keeps every :class:`LaunchResult`."""

    def __init__(self):
        super().__init__()
        self.results = []

    def launch(self, *args, **kwargs):
        result = super().launch(*args, **kwargs)
        self.results.append(result)
        return result


@lru_cache(maxsize=None)
def _instance(program: str):
    return get_workload(program).build(scale=SCALE, seed=SEED)


def measure(program: str, scheme: str) -> dict:
    """Everything the timing path reports for one cell, JSON-ready."""
    device = _RecordingDevice()
    run = run_scheme(_instance(program), scheme, device)
    return {
        "launches": [{
            "cycles": result.cycles,
            "issued": result.issued,
            "issued_by_pipe": dict(sorted(result.issued_by_pipe.items())),
            "memory_transactions": result.memory_transactions,
            "l1_hits": result.l1_hits,
            "l1_misses": result.l1_misses,
            "idle_cycles": result.idle_cycles,
        } for result in device.results],
        "cycles": run.cycles,
        "mix": dataclasses.asdict(run.mix),
        "warps_per_sm": run.warps_per_sm,
        "registers_per_thread": run.registers_per_thread,
        "verified": run.verified,
        "rejected": run.rejected,
        "power": dataclasses.asdict(run.power),
    }


def _label(program: str, scheme: str) -> str:
    return f"{program}/{scheme}"


@lru_cache(maxsize=None)
def _golden() -> dict:
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_golden_covers_every_cell():
    assert sorted(_golden()) == sorted(_label(*cell) for cell in CELLS)


def test_subset_spans_the_cost_drivers():
    golden = _golden()
    assert len(CELLS) == len(ALL_ORDER) * len(GRID_SCHEMES) == 150
    assert set(DRIVER_CELLS) <= set(CELLS)
    assert golden["snap/interthread"]["rejected"]
    assert golden["snap/interthread"]["launches"] == []
    assert golden["gaussian/baseline"]["launches"][0]["cycles"] > 0
    # Swap-ECC and fp64 cells really exercised their pipes
    assert golden["lavamd/swap-ecc"]["launches"][0][
        "issued_by_pipe"].get("fma64", 0) > 0
    for label, cell in golden.items():
        assert cell["verified"] or cell["rejected"], label


@pytest.mark.parametrize("program,scheme", CELLS,
                         ids=[_label(*cell) for cell in CELLS])
def test_cell_matches_golden(program, scheme):
    assert measure(program, scheme) == _golden()[_label(program, scheme)]


def main(argv) -> int:
    if argv[1:] != ["--write"]:
        sys.stderr.write(__doc__)
        return 2
    golden = {_label(*cell): measure(*cell) for cell in CELLS}
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
