"""Tests for the timing model (occupancy, pipes, cache) and fault model."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.ecc import SecDedDpSwap, DetectOnlySwap, ResidueCode
from repro.errors import SimulationError
from repro.gpu import (Device, FaultPlan, LaunchConfig, MemorySpace,
                       ResilienceState, TimingParams, assemble,
                       run_functional)
from repro.gpu.isa import Pipe


def simple_kernel(body="IADD R1, R1, 1"):
    return assemble("t", f"""
        S2R R0, SR_TID
        {body}
        STG [R0], R1
        EXIT
    """)


class TestOccupancy:
    params = TimingParams()

    def test_register_pressure_limits_ctas(self):
        light = assemble("light", "MOV R1, 1\nEXIT")
        heavy_moves = "\n".join(f"MOV R{i}, {i}" for i in range(1, 65))
        heavy = assemble("heavy", heavy_moves + "\nEXIT")
        launch = LaunchConfig(1, 128)
        light_occ = self.params.occupancy(light, launch)
        heavy_occ = self.params.occupancy(heavy, launch)
        assert heavy_occ.ctas_per_sm < light_occ.ctas_per_sm
        assert heavy_occ.limiter == "registers"

    def test_warp_limit(self):
        kernel = assemble("k", "MOV R1, 1\nEXIT")
        occupancy = self.params.occupancy(kernel, LaunchConfig(64, 1024))
        assert occupancy.warps_per_sm == self.params.max_warps_per_sm

    def test_shared_memory_limit(self):
        kernel = assemble("k", "MOV R1, 1\nEXIT")
        occupancy = self.params.occupancy(
            kernel, LaunchConfig(8, 32, shared_words_per_cta=6144))
        assert occupancy.ctas_per_sm == 2
        assert occupancy.limiter == "shared"

    def test_impossible_launch_raises(self):
        kernel = assemble("k", "MOV R1, 1\nEXIT")
        with pytest.raises(SimulationError):
            self.params.occupancy(
                kernel, LaunchConfig(1, 32, shared_words_per_cta=999999))


class TestTimingBehaviour:
    def test_duplicated_arithmetic_costs_cycles_when_saturated(self):
        # A dense fp64 loop saturates the half-rate pipe: doubling the
        # DFMAs roughly doubles runtime.
        def build(dup):
            body = "DFMA RD2, RD4, RD4, RD2\n" * (2 if dup else 1)
            return assemble("k", f"""
                S2R R0, SR_TID
                MOV R1, 0
            loop:
                {body}
                IADD R1, R1, 1
                ISETP.LT P0, R1, 32
            @P0 BRA loop
                STG [R0], R1
                EXIT
            """)

        device = Device(TimingParams(num_sms=1))
        memory = MemorySpace(4096)
        single = device.launch(build(False), LaunchConfig(8, 128), memory)
        double = device.launch(build(True), LaunchConfig(8, 128),
                               MemorySpace(4096))
        assert double.cycles > single.cycles * 1.5

    def test_cache_hits_shorten_reuse(self):
        # Re-loading the same word repeatedly should hit in L1.
        kernel = assemble("k", """
            S2R R0, SR_TID
            MOV R1, 0
            MOV R2, 0
        loop:
            LDG R3, [0]
            IADD R2, R2, R3
            IADD R1, R1, 1
            ISETP.LT P0, R1, 16
        @P0 BRA loop
            STG [R0+8], R2
            EXIT
        """)
        warm = Device(TimingParams(num_sms=1)).launch(
            kernel, LaunchConfig(1, 32), MemorySpace(256))
        cold = Device(TimingParams(num_sms=1, l1_lines=0)).launch(
            kernel, LaunchConfig(1, 32), MemorySpace(256))
        assert warm.cycles < cold.cycles

    def test_coalescing_cost(self):
        # Strided accesses touch more segments and hold the LSU longer.
        def kernel(stride):
            return assemble("k", f"""
                S2R R0, SR_TID
                IMUL R1, R0, {stride}
                LDG R2, [R1]
                STG [R0+4096], R2
                EXIT
            """)

        device = Device(TimingParams(num_sms=1, l1_lines=0))
        unit = device.launch(kernel(1), LaunchConfig(8, 128),
                             MemorySpace(16384))
        strided = device.launch(kernel(32), LaunchConfig(8, 128),
                                MemorySpace(16384))
        assert strided.memory_transactions > unit.memory_transactions
        assert strided.cycles > unit.cycles

    def test_results_match_functional_mode(self):
        kernel = simple_kernel("IMAD R1, R0, R0, R0")
        timed_memory = MemorySpace(256)
        Device().launch(kernel, LaunchConfig(1, 64), timed_memory)
        functional_memory = MemorySpace(256)
        run_functional(kernel, LaunchConfig(1, 64), functional_memory)
        assert np.array_equal(timed_memory.words, functional_memory.words)


class TestFaultModel:
    def make_state(self, occurrence=1, lane=0, bit=3, where="result",
                   scheme=None):
        return ResilienceState(
            mode="swap" if scheme else "none", scheme=scheme,
            fault=FaultPlan(0, 0, occurrence, lane, bit, where))

    def test_unprotected_fault_corrupts_output(self):
        kernel = simple_kernel("IMAD R1, R0, 3, R0")
        memory = MemorySpace(256)
        state = self.make_state()
        run_functional(kernel, LaunchConfig(1, 32), memory, state)
        assert state.fault_fired
        out = memory.read_words(0, 32)
        want = np.arange(32) * 4
        assert (out != want).sum() == 1  # exactly one lane corrupted

    def test_swap_taint_detected_on_read(self):
        kernel = simple_kernel("IMAD R1, R0, 3, R0")
        memory = MemorySpace(256)
        state = self.make_state(scheme=SecDedDpSwap())
        # Without a shadow, the original writes a valid codeword of the
        # bad value; this kernel is un-duplicated so the fault escapes.
        run_functional(kernel, LaunchConfig(1, 32), memory, state)
        assert state.fault_fired and not state.detected

    def test_fault_plan_validation(self):
        with pytest.raises(SimulationError):
            FaultPlan(0, 0, 0, lane=99, bit=0)
        with pytest.raises(SimulationError):
            FaultPlan(0, 0, 0, lane=0, bit=99)
        with pytest.raises(SimulationError):
            FaultPlan(0, 0, 0, lane=0, bit=0, where="everywhere")

    def test_inactive_lane_fault_is_masked(self):
        kernel = assemble("k", """
            S2R R0, SR_TID
            ISETP.LT P0, R0, 8
        @P0 IADD R1, R0, 1
            STG [R0], R1
            EXIT
        """)
        memory = MemorySpace(256)
        state = ResilienceState(
            mode="none", fault=FaultPlan(0, 0, 1, lane=20, bit=0))
        run_functional(kernel, LaunchConfig(1, 32), memory, state)
        assert not state.fault_fired  # lane 20 never executed the IADD

    def test_detection_event_recording(self):
        from repro.compiler import compile_for_scheme
        kernel = assemble("k", """
            S2R R0, SR_TID
            IADD R1, R0, 5
            IMAD R2, R1, 2, R0
            STG [R0], R2
            EXIT
        """)
        launch = LaunchConfig(1, 32)
        compiled = compile_for_scheme(kernel, launch, "swap-ecc")
        memory = MemorySpace(256)
        state = ResilienceState(
            mode="swap", scheme=DetectOnlySwap(ResidueCode(7)),
            fault=FaultPlan(0, 0, 2, lane=4, bit=7))
        run_functional(compiled.kernel, launch, memory, state)
        assert state.detected
        assert state.events[0].kind == "due"


class TestAccessProfiles:
    """Direct unit tests for the single-pass coalescing/bank helpers.

    These run once per memory instruction on the simulator's hot path
    (see ``Warp._exec_memory``); the cases pin the transaction and
    conflict counts the timing model bills against.
    """

    def test_global_coalesced_single_segment(self):
        from repro.gpu.warp import global_access_profile
        addresses = np.arange(32, dtype=np.uint32)
        mask = np.ones(32, dtype=bool)
        transactions, segments = global_access_profile(
            addresses, mask, wide=False)
        assert transactions == 1
        assert segments == (0,)

    def test_global_strided_counts_distinct_segments(self):
        from repro.gpu.warp import global_access_profile
        addresses = np.arange(32, dtype=np.uint32) * 32
        mask = np.ones(32, dtype=bool)
        transactions, segments = global_access_profile(
            addresses, mask, wide=False)
        assert transactions == 32
        assert segments == tuple(range(32))

    def test_global_wide_issues_each_part(self):
        from repro.gpu.warp import global_access_profile
        # Even addresses 0..62: low parts span segments 0-1, high parts
        # (address + 1) span the same two segments -> 2 + 2.
        addresses = np.arange(32, dtype=np.uint32) * 2
        mask = np.ones(32, dtype=bool)
        transactions, segments = global_access_profile(
            addresses, mask, wide=True)
        assert transactions == 4
        assert segments == (0, 1)

    def test_global_inactive_lanes_ignored(self):
        from repro.gpu.warp import global_access_profile
        addresses = np.zeros(32, dtype=np.uint32)
        addresses[7] = 4096  # would add a segment if lane 7 were active
        mask = np.ones(32, dtype=bool)
        mask[7] = False
        transactions, segments = global_access_profile(
            addresses, mask, wide=False)
        assert transactions == 1
        assert segments == (0,)
        assert global_access_profile(
            addresses, np.zeros(32, dtype=bool), wide=False) == (0, ())

    def test_shared_broadcast_is_conflict_free(self):
        from repro.gpu.warp import shared_bank_conflicts
        addresses = np.full(32, 5, dtype=np.uint32)
        mask = np.ones(32, dtype=bool)
        assert shared_bank_conflicts(addresses, mask, wide=False) == 1

    def test_shared_same_bank_serializes(self):
        from repro.gpu.warp import shared_bank_conflicts
        # Eight distinct addresses all hitting bank 0.
        addresses = (np.arange(32, dtype=np.uint32) % 8) * 32
        mask = np.ones(32, dtype=bool)
        assert shared_bank_conflicts(addresses, mask, wide=False) == 8

    def test_shared_wide_sums_both_parts(self):
        from repro.gpu.warp import shared_bank_conflicts
        addresses = np.arange(32, dtype=np.uint32) * 2
        mask = np.ones(32, dtype=bool)
        # Each part lands 2 distinct addresses per touched bank.
        assert shared_bank_conflicts(addresses, mask, wide=True) == 4

    def test_shared_empty_mask_is_free(self):
        from repro.gpu.warp import shared_bank_conflicts
        addresses = np.zeros(32, dtype=np.uint32)
        assert shared_bank_conflicts(
            addresses, np.zeros(32, dtype=bool), wide=False) == 0


def _reference_bank_conflicts(addresses, mask, wide):
    """The two-``np.unique`` bank-conflict count the one-pass one replaced."""
    def max_addresses_per_bank(active):
        unique_addresses = np.unique(active)
        __, counts = np.unique(unique_addresses % 32, return_counts=True)
        return int(counts.max())

    if not mask.any():
        return 0
    active = addresses[mask]
    conflicts = max_addresses_per_bank(active)
    if wide:
        conflicts += max_addresses_per_bank(active + 1)
    return conflicts


def _reference_global_profile(addresses, mask, wide):
    """The ``np.unique``/``union1d`` coalescing profile, for comparison."""
    if not mask.any():
        return 0, ()
    active = addresses[mask]
    low = np.unique(active // 32)
    if wide:
        high = np.unique((active + 1) // 32)
        transactions = int(low.size + high.size)
        segments = np.union1d(low, high)
    else:
        transactions = int(low.size)
        segments = low
    return transactions, tuple(int(s) for s in segments)


#: per-lane addresses: a dense window (bank conflicts, broadcasts), the
#: whole uint32 range, and the top of it (the wide part's wrap to 0)
LANE_ADDRESS = st.one_of(st.integers(0, 127), st.integers(0, 2**32 - 1),
                         st.integers(2**32 - 64, 2**32 - 1))
ACCESS = st.tuples(st.lists(LANE_ADDRESS, min_size=32, max_size=32),
                   st.lists(st.booleans(), min_size=32, max_size=32),
                   st.booleans())
ALL_LANES = [True] * 32
#: all-lanes broadcast, empty mask, and the uint32 wrap, narrow and wide
EDGE_ACCESSES = [([5] * 32, ALL_LANES, False), ([5] * 32, ALL_LANES, True),
                 (list(range(32)), [False] * 32, True),
                 ([0xFFFF_FFFF] * 16 + [0] * 16, ALL_LANES, True),
                 ([0xFFFF_FFFF - lane for lane in range(32)], ALL_LANES,
                  True)]


def _with_edges(test):
    for access in EDGE_ACCESSES:
        test = example(access)(test)
    return given(ACCESS)(test)


def _arrays(access):
    addresses, mask, wide = access
    return (np.array(addresses, dtype=np.uint32),
            np.array(mask, dtype=bool), wide)


class TestAccessProfileEquivalence:
    """The one-pass profiles equal the ``np.unique`` ones they replaced."""

    @_with_edges
    def test_bank_conflicts_match_reference(self, access):
        from repro.gpu.warp import shared_bank_conflicts
        addresses, mask, wide = _arrays(access)
        assert shared_bank_conflicts(addresses, mask, wide) == \
            _reference_bank_conflicts(addresses, mask, wide)

    @_with_edges
    def test_global_profile_matches_reference(self, access):
        from repro.gpu.warp import global_access_profile
        addresses, mask, wide = _arrays(access)
        assert global_access_profile(addresses, mask, wide) == \
            _reference_global_profile(addresses, mask, wide)


class TestSchedulerSkip:
    """``_skip_to_next_event`` when no warp issued in a cycle."""

    def _slot(self, next_free):
        from repro.gpu.sm import StreamingMultiprocessor, _Slot
        kernel = assemble("k", "MOV R1, 1\nEXIT")
        params = TimingParams()
        sm = StreamingMultiprocessor(0, params, kernel, LaunchConfig(1, 32),
                                     MemorySpace(64), ResilienceState())
        cta = sm._make_cta(0)
        pipe_free = {pipe: [0] * params.pipe_units(pipe) for pipe in Pipe}
        return sm, _Slot(cta.warps[0], cta, next_free), pipe_free

    def test_jumps_to_the_earliest_ready_warp(self):
        sm, slot, pipe_free = self._slot(next_free=9)
        assert sm._skip_to_next_event([slot], pipe_free, 5) == 9
        assert sm.stats.idle_cycles == 4

    def test_warp_ready_now_raises(self):
        sm, slot, pipe_free = self._slot(next_free=5)
        with pytest.raises(SimulationError, match="ready at cycle 5") as info:
            sm._skip_to_next_event([slot], pipe_free, 5)
        assert info.value.code == "gpu.simulation"
        assert info.value.context == {"cycle": 5, "earliest": 5}

    def test_warp_admitted_this_cycle_issues_next_cycle(self):
        sm, slot, pipe_free = self._slot(next_free=5)
        assert sm._skip_to_next_event([slot], pipe_free, 5,
                                      admitted=True) == 6
        assert sm.stats.idle_cycles == 0

    def test_admission_in_an_idle_cycle_keeps_cycle_counts(self, monkeypatch):
        # srad_v2 under inter-thread duplication at scale 0.25 admits a
        # CTA at the end of a cycle that issued nothing, with a warp of
        # it ready at once; 1317 cycles is the count from before the
        # scheduler cached slot state.
        from repro.experiments.common import run_scheme
        from repro.gpu.sm import StreamingMultiprocessor
        from repro.workloads import get_workload
        skip = StreamingMultiprocessor._skip_to_next_event
        admissions = []

        def spy(sm, slots, pipe_free, cycle, admitted=False):
            next_cycle = skip(sm, slots, pipe_free, cycle, admitted)
            if admitted and next_cycle == cycle + 1:
                admissions.append(cycle)
            return next_cycle

        monkeypatch.setattr(StreamingMultiprocessor, "_skip_to_next_event",
                            spy)
        run = run_scheme(get_workload("srad_v2").build(scale=0.25),
                         "interthread")
        assert admissions
        assert run.verified and run.cycles == 1317
