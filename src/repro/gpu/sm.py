"""The streaming multiprocessor timing model.

Each SM hosts the CTAs occupancy allows, issuing up to ``issue_width``
instructions per cycle from ready warps (greedy round-robin).  A warp can
issue when its source registers/predicates are ready (scoreboard) and its
target pipe's initiation interval has elapsed.  Global memory instructions
occupy the LSU in proportion to their coalescing transaction count and
complete after the load latency; barriers park warps until the whole CTA
arrives.

Writes to the same register from an instruction pair (Swap-ECC's original
and shadow) do not stall each other — the in-order pipeline retires them in
order — but any reader waits for the *later* writeback, which is exactly
the write-after-write dependence Section III-A describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.gpu.decode import Decoded
from repro.gpu.isa import Pipe
from repro.gpu.memory import MemorySpace
from repro.gpu.program import Kernel, LaunchConfig
from repro.gpu.resilience import ResilienceState
from repro.gpu.timing import TimingParams
from repro.gpu.warp import StackEntry, Warp


@dataclass
class SmStats:
    """Issue and utilization counters for one SM."""

    cycles: int = 0
    issued: int = 0
    issued_by_pipe: Dict[str, int] = field(default_factory=dict)
    memory_transactions: int = 0
    idle_cycles: int = 0
    l1_hits: int = 0
    l1_misses: int = 0

    def count(self, pipe: str) -> None:
        """Tally one issued instruction against its pipe (by name)."""
        self.issued += 1
        self.issued_by_pipe[pipe] = self.issued_by_pipe.get(pipe, 0) + 1


class L1Cache:
    """A simple LRU cache of 128-byte global-memory lines."""

    def __init__(self, lines: int):
        self.capacity = lines
        self._lines: Dict[int, None] = {}

    def access(self, segment: int) -> bool:
        """Touch one line; returns True on hit."""
        if self.capacity <= 0:
            return False
        hit = segment in self._lines
        if hit:
            self._lines.pop(segment)
        elif len(self._lines) >= self.capacity:
            self._lines.pop(next(iter(self._lines)))
        self._lines[segment] = None
        return hit


#: scoreboard sizes: every register index below RZ, every predicate
_REGISTER_SLOTS = 256
_PREDICATE_SLOTS = 8


class _Cta:
    """One resident CTA: its warps and shared memory."""

    def __init__(self, cta_index: int, warps: List[Warp]):
        self.cta_index = cta_index
        self.warps = warps

    @property
    def done(self) -> bool:
        return all(warp.done for warp in self.warps)

    def barrier_release(self) -> bool:
        """If every live warp is at the barrier, release them all."""
        for warp in self.warps:
            if not warp.done and not warp.at_barrier:
                return False
        for warp in self.warps:
            warp.at_barrier = False
        return True


class _Slot:
    """Scheduler state for one resident warp.

    Besides the scoreboard, a slot caches what the scheduler asks of its
    warp every cycle: the runnable stack entry, the decoded instruction
    at its pc, the units of that instruction's pipe, and the cycle its
    operands are ready.  All of it changes only when this warp steps
    (the scoreboard is written by the same issue), so a step marks the
    cache ``stale`` and :meth:`refresh` recomputes it on the scheduler's
    next visit.  The scoreboard is indexed by register and predicate
    number: ``reg_ready[r]`` is the cycle register ``r`` is written back.
    """

    __slots__ = ("warp", "cta", "reg_ready", "pred_ready", "next_free",
                 "stale", "entry", "decoded", "units", "ready")

    def __init__(self, warp: Warp, cta: _Cta, next_free: int):
        self.warp = warp
        self.cta = cta
        self.reg_ready: List[int] = [0] * _REGISTER_SLOTS
        self.pred_ready: List[int] = [0] * _PREDICATE_SLOTS
        self.next_free = next_free
        self.stale = True
        self.entry: Optional[StackEntry] = None
        self.decoded: Optional[Decoded] = None
        self.units: List[int] = []
        self.ready = 0

    def refresh(self, pipe_free: Dict[Pipe, List[int]]
                ) -> Optional[StackEntry]:
        """Recompute the cached issue state; None once the warp is done.

        Called lazily — on the first visit after a step, never right
        after the step itself — because :meth:`Warp.current_entry` is
        what marks a finished warp ``done``, and CTA retirement reads
        ``done`` at the end of every cycle.  Refreshing eagerly would
        mark a warp done in the cycle of its last ``EXIT`` and retire
        its CTA a cycle early.
        """
        self.stale = False
        entry = self.entry = self.warp.current_entry()
        if entry is not None:
            decoded = self.decoded = self.warp.program[entry.pc]
            self.units = pipe_free[decoded.pipe]
            self.ready = self.ready_cycle(decoded)
        return entry

    def ready_cycle(self, decoded: Decoded) -> int:
        """Earliest cycle this instruction's operands are all available.

        Predicated execution reads the guard predicate and SEL reads one
        too; both are in ``decoded.pred_reads``.
        """
        ready = self.next_free
        reg_ready = self.reg_ready
        for register in decoded.src_regs:
            if reg_ready[register] > ready:
                ready = reg_ready[register]
        pred_ready = self.pred_ready
        for index in decoded.pred_reads:
            if pred_ready[index] > ready:
                ready = pred_ready[index]
        # Write-after-write needs no issue stall: the in-order pipeline
        # retires same-register writes in order (Section III-A), so a
        # Swap-ECC shadow issues right behind its original.  Readers wait
        # for the *latest* in-flight write via the max() in _account.
        return ready


class StreamingMultiprocessor:
    """Executes a queue of CTAs with cycle-approximate timing."""

    def __init__(self, sm_index: int, params: TimingParams, kernel: Kernel,
                 launch: LaunchConfig, global_memory: MemorySpace,
                 resilience: ResilienceState, observer=None, watchdog=None,
                 program: Optional[Sequence[Decoded]] = None):
        self.sm_index = sm_index
        self.params = params
        self.kernel = kernel
        self.launch = launch
        self.global_memory = global_memory
        self.resilience = resilience
        self.observer = observer
        self.watchdog = watchdog
        self.stats = SmStats()
        self.register_count = max(kernel.register_count(), 1)
        self.l1 = L1Cache(params.l1_lines)
        #: the launch's pre-decoded instruction stream (shared by its SMs)
        self.program = program if program is not None \
            else Warp.decode(kernel)
        #: some warp finished since CTA retirement last looked
        self._retiring = False

    # ------------------------------------------------------------------
    def _make_cta(self, cta_index: int) -> _Cta:
        shared = None
        if self.launch.shared_words_per_cta:
            shared = MemorySpace(self.launch.shared_words_per_cta,
                                 name=f"shared.cta{cta_index}")
        warps = []
        threads_left = self.launch.threads_per_cta
        for warp_index in range(self.launch.warps_per_cta):
            count = min(32, threads_left)
            threads_left -= count
            warp = Warp(self.kernel, cta_index, warp_index, count,
                        self.launch.threads_per_cta, self.launch.grid_ctas,
                        self.register_count, self.global_memory, shared,
                        self.resilience, self.program)
            warp.observer = self.observer
            warps.append(warp)
        return _Cta(cta_index, warps)

    # ------------------------------------------------------------------
    def run(self, cta_indices: List[int]) -> int:
        """Run the given CTAs to completion; returns total cycles.

        The whole issue loop runs under ``np.errstate(all="ignore")``:
        IEEE special results of the simulated arithmetic (division by
        zero, overflow, NaN casts) are data, not host warnings.
        """
        with np.errstate(all="ignore"):
            cycle = self._schedule(list(cta_indices))
        self.stats.cycles = cycle
        return cycle

    def _schedule(self, pending: List[int]) -> int:
        """The issue loop behind :meth:`run`; returns total cycles."""
        occupancy = self.params.occupancy(self.kernel, self.launch)
        issue_width = self.params.issue_width
        watchdog = self.watchdog
        slots: List[_Slot] = []
        ctas: List[_Cta] = []
        pipe_free: Dict[Pipe, List[int]] = {
            pipe: [0] * self.params.pipe_units(pipe) for pipe in Pipe}
        cycle = 0
        rr_pointer = 0

        def admit() -> bool:
            admitted = False
            while pending and len(ctas) < occupancy.ctas_per_sm:
                cta = self._make_cta(pending.pop(0))
                ctas.append(cta)
                slots.extend(_Slot(warp, cta, cycle) for warp in cta.warps)
                admitted = True
            return admitted

        admit()
        while slots or pending:
            issued = 0
            count = len(slots)
            for position in chain(range(rr_pointer, count),
                                  range(rr_pointer)):
                if issued >= issue_width:
                    break
                slot = slots[position]
                warp = slot.warp
                if warp.done or warp.at_barrier:
                    continue
                if slot.stale and slot.refresh(pipe_free) is None:
                    self._retiring = True
                    continue
                if slot.ready > cycle or min(slot.units) > cycle:
                    continue
                info = warp.step(slot.entry)
                slot.stale = True
                issued += 1
                if watchdog is not None:
                    watchdog.tick(slot.cta.cta_index, warp.warp_index)
                rr_pointer = (position + 1) % count
                self._account(slot, info, cycle)
                if info.barrier:
                    slot.cta.barrier_release()

            # Retire finished CTAs and admit new ones.  A CTA can only
            # have finished if one of its warps did since the last look.
            admitted = False
            if self._retiring:
                self._retiring = False
                finished = [cta for cta in ctas if cta.done]
                if finished:
                    for cta in finished:
                        ctas.remove(cta)
                    slots = [slot for slot in slots if not slot.warp.done]
                    rr_pointer = 0
                    admitted = admit()

            if not slots and not pending:
                break
            if issued:
                cycle += 1
            else:
                if watchdog is not None:
                    watchdog.check_deadline()
                cycle = self._skip_to_next_event(slots, pipe_free, cycle,
                                                 admitted)
        return cycle

    # ------------------------------------------------------------------
    def _account(self, slot: _Slot, info, cycle: int) -> None:
        decoded = slot.decoded
        interval = decoded.interval
        latency = decoded.latency
        if decoded.lsu:
            transactions = max(1, info.transactions)
            interval = interval + self.params.lsu_cycles_per_transaction * \
                (transactions - 1)
            segments = info.segments
            if segments:
                hits = sum(self.l1.access(segment) for segment in segments)
                misses = len(segments) - hits
                self.stats.l1_hits += hits
                self.stats.l1_misses += misses
                if decoded.l1_load and misses == 0:
                    latency = self.params.l1_hit_latency
            latency = latency + 2 * (transactions - 1)
            self.stats.memory_transactions += transactions
        units = slot.units
        # the first free unit of the pipe takes the instruction
        units[units.index(min(units))] = cycle + interval
        slot.next_free = cycle + 1
        written = cycle + latency
        reg_ready = slot.reg_ready
        for register in decoded.dst_regs:
            if reg_ready[register] < written:
                reg_ready[register] = written
        if decoded.pred_dest is not None:
            slot.pred_ready[decoded.pred_dest] = written
        self.stats.count(decoded.pipe_name)

    def _skip_to_next_event(self, slots: List[_Slot],
                            pipe_free: Dict[Pipe, List[int]],
                            cycle: int, admitted: bool = False) -> int:
        """Nothing issued: jump to the earliest cycle something could.

        ``admitted`` says CTAs were admitted at the end of this cycle.
        Their warps may be ready now, but like warps admitted after a
        cycle that issued, they first issue on the next cycle.  Any
        other warp ready now should have issued this cycle: that state
        means the issue loop and the cached slot state disagree, and it
        raises :class:`~repro.errors.SimulationError`.
        """
        candidates = []
        for slot in slots:
            warp = slot.warp
            if warp.done or warp.at_barrier:
                continue
            if slot.stale and slot.refresh(pipe_free) is None:
                self._retiring = True
                continue
            candidates.append(max(slot.ready, min(slot.units)))
        if not candidates:
            barriers = [slot for slot in slots
                        if not slot.warp.done and slot.warp.at_barrier]
            if barriers:
                raise SimulationError(
                    f"{self.kernel.name}: deadlock — warps stuck at a "
                    f"barrier that can never release")
            return cycle
        earliest = min(candidates)
        if earliest > cycle:
            self.stats.idle_cycles += earliest - cycle
            return earliest
        if admitted:
            return cycle + 1
        raise SimulationError(
            f"{self.kernel.name}: no warp issued at cycle {cycle}, yet "
            f"one was ready at cycle {earliest}",
            context={"cycle": cycle, "earliest": earliest})
