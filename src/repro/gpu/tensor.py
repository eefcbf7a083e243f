"""Trial-batched tensor execution: N fault trials as one wide warp.

The scalar executor (:mod:`repro.gpu.warp` / :mod:`repro.gpu.device`)
runs one fault trial per kernel launch, which leaves campaign throughput
dominated by per-instruction Python overhead.  This module amortizes
that overhead across a whole *batch* of independent trials: a
:class:`TrialWarp` stacks the 32-lane state of ``trials`` runs into one
``(trials * 32,)``-wide virtual warp that decodes each instruction once
and executes it for every trial with a single numpy operation.

The design invariant is **exact per-trial equivalence with the scalar
oracle**: restricting a batched run to one trial's 32 lanes must
reproduce that trial's scalar execution step for step — same register
values, same memory image, same detection events, same outcome bin.
The pieces that make that hold:

* **Shared instruction stream, stacked masks.**  All trials share one
  pc and one SIMT reconvergence stack whose masks are
  ``(trials * 32,)`` boolean vectors; divergence pushes entries whose
  masks carry the union of every trial's lanes on that path, and a
  trial simply has no active lanes in steps its scalar run would not
  execute.  Instruction semantics inherit unchanged from
  :class:`~repro.gpu.warp.Warp` — they are already width-agnostic — and
  run from the same pre-decoded stream (:mod:`repro.gpu.decode`),
  decoded once per batched launch for this class.
* **Per-trial memory.**  :class:`TrialMemory` tiles the launch image
  ``trials`` times in one flat uint32 array and offsets every lane's
  address by its trial's base, so stores never leak across trials and
  out-of-bounds accesses crash only the offending trial.
* **Per-trial fault state.**  Each trial carries its own
  :class:`~repro.gpu.resilience.ResilienceState` (and fault plan);
  strikes route through the same
  :func:`~repro.gpu.warp.apply_fault_strike` the scalar path uses, on
  the firing trial's 32-lane slice.
* **Per-trial termination.**  A detected DUE/trap, a hang (per-trial
  step budget), or a crash (out-of-bounds access, running off the end)
  removes exactly that trial's lanes from the batch, launch-wide, while
  every other trial continues.  Mid-instruction halts suppress the
  halted trial's remaining writes, mirroring how a scalar
  :class:`~repro.gpu.warp.KernelHalt` aborts before them.
* **Scalar fallback flagging.**  The one construct a shared stack
  cannot replay per trial is a barrier some trials reach while others
  are elsewhere (cross-trial divergent ``BAR`` arrival).  Such trials —
  and all live trials of a batch that deadlocks or dies at union level
  — are flagged ``"fallback"`` instead of guessed at; the injection
  engine reruns them through the scalar oracle, so the batch result is
  exact in every case and merely slower in the degenerate ones.

Dtype/shape contracts: register state is ``(registers, trials * 32)``
uint32, predicates ``(8, trials * 32)`` bool, per-trial counters are
``(trials,)`` int64, and every mask handed to an execution method is a
``(trials * 32,)`` bool whose trial ``t`` occupies flat lanes
``[32 * t, 32 * (t + 1))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.ecc.vectorized import READ_CORRECTED, READ_DUE
from repro.errors import SimulationError
from repro.gpu.decode import Decoded
from repro.gpu.isa import PT, WARP_SIZE
from repro.gpu.memory import MemorySpace
from repro.gpu.program import Kernel, LaunchConfig
from repro.gpu.resilience import ResilienceState, TaintTracker
from repro.gpu.warp import StackEntry, Warp, apply_fault_strike

#: outcome labels a batched trial can finish with
TRIAL_OK = "ok"            #: ran to completion (state may hold events)
TRIAL_HALT = "halt"        #: detection halted the launch (DUE or trap)
TRIAL_HANG = "hang"        #: exceeded its per-trial step budget
TRIAL_CRASH = "crash"      #: out-of-bounds access or ran off the end
TRIAL_FALLBACK = "fallback"  #: needs a scalar rerun for exactness


class TrialMemory:
    """``trials`` private copies of one memory image in a flat array.

    Lane ``l`` of the batched warp addresses words of trial ``l // 32``
    only: every gather/scatter/atomic offsets the lane's word address by
    ``(l // 32) * words_per_trial``.  Addresses are per-trial word
    indices (uint32), exactly as the scalar
    :class:`~repro.gpu.memory.MemorySpace` sees them.

    Bounds are *not* checked here — callers run :meth:`oob_trials`
    first and crash the offending trials, so by the time an access
    lands every masked lane is in range.
    """

    def __init__(self, image: np.ndarray, trials: int,
                 name: str = "global"):
        image = np.asarray(image, dtype=np.uint32)
        if image.size == 0:
            raise SimulationError(f"{name}: empty memory image")
        self.name = name
        self.trials = trials
        self.words_per_trial = len(image)
        self.words = np.tile(image, trials)
        self._offsets = np.repeat(
            np.arange(trials, dtype=np.int64) * self.words_per_trial,
            WARP_SIZE)

    def oob_trials(self, parts: Sequence[np.ndarray],
                   mask: np.ndarray) -> np.ndarray:
        """Trial indices with any masked address outside the trial image.

        ``parts`` are the per-lane address vectors of each 32-bit part
        of the access (one for narrow, two for wide); the scalar oracle
        raises :class:`~repro.errors.SimulationError` for these, so the
        batched executor bins the trials as crashed.
        """
        bad = np.zeros(self.trials, dtype=bool)
        for part in parts:
            lane_bad = mask & (part >= self.words_per_trial)
            if lane_bad.any():
                bad |= lane_bad.reshape(self.trials, WARP_SIZE).any(axis=1)
        return np.nonzero(bad)[0]

    def gather(self, addresses: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Masked per-lane load (trial-offset); inactive lanes read zero."""
        result = np.zeros(len(addresses), dtype=np.uint32)
        if mask.any():
            flat = addresses.astype(np.int64) + self._offsets
            result[mask] = self.words[flat[mask]]
        return result

    def scatter(self, addresses: np.ndarray, values: np.ndarray,
                mask: np.ndarray) -> None:
        """Masked per-lane store; lane order resolves write conflicts."""
        if mask.any():
            flat = addresses.astype(np.int64) + self._offsets
            self.words[flat[mask]] = values[mask]

    def atomic(self, op: str, addresses: np.ndarray, values: np.ndarray,
               mask: np.ndarray) -> np.ndarray:
        """Per-lane read-modify-write in flat lane order; returns olds.

        Flat lane order is trial-major with lanes ascending inside each
        trial, so each trial's restriction serializes exactly like the
        scalar :meth:`~repro.gpu.memory.MemorySpace.atomic` while
        different trials touch disjoint words.
        """
        result = np.zeros(len(addresses), dtype=np.uint32)
        flat = addresses.astype(np.int64) + self._offsets
        for lane in np.nonzero(mask)[0]:
            address = int(flat[lane])
            old = int(self.words[address])
            value = int(values[lane])
            if op == "ADD":
                new = (old + value) & 0xFFFF_FFFF
            elif op == "MAX":
                new = max(old, value)
            elif op == "MIN":
                new = min(old, value)
            elif op == "EXCH":
                new = value
            else:
                raise SimulationError(f"unknown atomic op {op!r}")
            self.words[address] = new
            result[lane] = old
        return result

    def image_of(self, trial: int) -> np.ndarray:
        """Trial ``trial``'s final memory image, as a fresh uint32 copy."""
        base = trial * self.words_per_trial
        return self.words[base:base + self.words_per_trial].copy()

    def space_of(self, trial: int) -> MemorySpace:
        """Trial ``trial``'s image wrapped as a scalar MemorySpace.

        This is what workload ``verify`` callbacks consume — they only
        ever see one trial's words, shaped exactly like a scalar run's
        global memory.
        """
        space = MemorySpace(self.words_per_trial, name=self.name)
        space.words[:] = self.image_of(trial)
        return space


class TrialBatch:
    """Liveness, outcomes, and step budgets of one batch of trials.

    One instance spans the whole launch (all CTAs): per-trial step
    counters accumulate across CTAs exactly as the scalar watchdog's
    global budget does, and a terminated trial stays terminated in every
    later CTA.  ``lanes_live`` is the ``(trials * 32,)`` expansion of
    the ``(trials,)`` ``live`` flags that execution masks AND against.
    """

    def __init__(self, trials: int, max_steps: Optional[int]):
        if trials < 1:
            raise SimulationError(f"need at least one trial, got {trials}")
        self.trials = trials
        self.max_steps = max_steps
        self.live = np.ones(trials, dtype=bool)
        self.lanes_live = np.ones(trials * WARP_SIZE, dtype=bool)
        self.outcomes: List[Optional[str]] = [None] * trials
        #: why a trial fell back to the scalar oracle (None for trials
        #: that got a tensor verdict): ``divergent_barrier``,
        #: ``union_error``, or ``union_deadlock``
        self.fallback_reasons: List[Optional[str]] = [None] * trials
        self.steps = np.zeros(trials, dtype=np.int64)

    def finish(self, trial: int, outcome: str,
               reason: Optional[str] = None) -> None:
        """Terminate ``trial`` with ``outcome``; its lanes vanish batch-wide."""
        if not self.live[trial]:
            return
        self.live[trial] = False
        self.outcomes[trial] = outcome
        if outcome == TRIAL_FALLBACK:
            self.fallback_reasons[trial] = reason
        base = trial * WARP_SIZE
        self.lanes_live[base:base + WARP_SIZE] = False

    def finish_live(self, outcome: str,
                    reason: Optional[str] = None) -> None:
        """Terminate every still-running trial with ``outcome``."""
        for trial in np.nonzero(self.live)[0]:
            self.finish(int(trial), outcome, reason)

    def tick(self, trial_active: np.ndarray) -> None:
        """Account one executed step for the active, still-live trials.

        Mirrors the scalar :meth:`~repro.gpu.watchdog.Watchdog.tick`
        discipline: a trial halted *during* the step does not tick it
        (the scalar run aborts before the tick), and a trial pushed past
        ``max_steps`` finishes as a hang — the
        :class:`~repro.errors.HangError` bin of the scalar path.
        """
        ticking = trial_active & self.live
        if not ticking.any():
            return
        self.steps[ticking] += 1
        if self.max_steps is not None:
            hung = ticking & (self.steps > self.max_steps)
            for trial in np.nonzero(hung)[0]:
                self.finish(int(trial), TRIAL_HANG)


class _IndexedWords(dict):
    """Taint-word map with a register → lanes index kept in sync.

    The scalar tracker scans its (tiny) word map per register access;
    a batched warp can carry one taint per struck trial — thousands —
    so every mutation path of :class:`~repro.gpu.resilience.TaintTracker`
    (``words[key] = ...``, ``words.pop(key)``) maintains the index here
    and :meth:`TrialWarp._tainted_lanes_of` becomes one dict lookup.
    """

    def __init__(self):
        super().__init__()
        self.by_register: dict = {}

    def __setitem__(self, key, value):
        if key not in self:
            self.by_register.setdefault(key[0], set()).add(key[1])
        super().__setitem__(key, value)

    def __delitem__(self, key):
        super().__delitem__(key)
        self._drop(key)

    def pop(self, key, *default):
        had = key in self
        value = super().pop(key, *default)
        if had:
            self._drop(key)
        return value

    def _drop(self, key):
        lanes = self.by_register.get(key[0])
        if lanes is not None:
            lanes.discard(key[1])
            if not lanes:
                del self.by_register[key[0]]


class _OffsetTaint:
    """Adapter translating one trial's local lanes to flat taint keys.

    :func:`~repro.gpu.warp.apply_fault_strike` speaks scalar lane
    indices (0..31); the batched warp's :class:`TaintTracker` keys lanes
    flat.  This exposes exactly the taint methods the strike path calls,
    offsetting each lane by the firing trial's base.
    """

    def __init__(self, taint: TaintTracker, base: int):
        self._taint = taint
        self._base = base

    def taint_original(self, register: int, lane: int,
                       bad_value: int) -> None:
        """Delegate with the trial-offset lane."""
        self._taint.taint_original(register, lane + self._base, bad_value)

    def taint_data_with_true_check(self, register: int, lane: int,
                                   bad_value: int, true_value: int) -> None:
        """Delegate with the trial-offset lane."""
        self._taint.taint_data_with_true_check(
            register, lane + self._base, bad_value, true_value)

    def taint_storage_mask(self, register: int, lane: int, true_value: int,
                           strike_mask: int) -> None:
        """Delegate with the trial-offset lane."""
        self._taint.taint_storage_mask(
            register, lane + self._base, true_value, strike_mask)

    def taint_check_strike(self, register: int, lane: int, true_value: int,
                           bits: Sequence[int]) -> bool:
        """Delegate with the trial-offset lane."""
        return self._taint.taint_check_strike(
            register, lane + self._base, true_value, bits)


class TrialWarp(Warp):
    """One warp position executed for every trial of a batch at once.

    State vectors are ``(trials * 32,)`` wide; flat lane ``l`` belongs
    to trial ``l // 32`` at local lane ``l % 32``.  Instruction
    semantics inherit from :class:`~repro.gpu.warp.Warp` unchanged —
    only the trial-aware handlers and hooks are overridden: per-trial
    fault gating, per-trial detection halts (``BPT``, tainted reads),
    per-trial crash/hang termination, divergent-barrier flagging,
    trial-blocked SHFL lane arithmetic, and trial-offset memory access.
    """

    def __init__(self, kernel: Kernel, cta_index: int, warp_index: int,
                 thread_count: int, threads_per_cta: int, grid_ctas: int,
                 register_count: int, global_memory: TrialMemory,
                 shared_memory: Optional[TrialMemory],
                 states: Sequence[ResilienceState], batch: TrialBatch,
                 program: Optional[Sequence[Decoded]] = None):
        trials = batch.trials
        self.kernel = kernel
        self.program = program if program is not None \
            else self.decode(kernel)
        self.cta_index = cta_index
        self.warp_index = warp_index
        self.global_memory = global_memory
        self.shared_memory = shared_memory
        self.resilience = None  # per-trial states replace the shared one
        self.states = list(states)
        self.batch = batch
        self.trials = trials
        self.width = trials * WARP_SIZE

        self.regs = np.zeros((max(register_count, 1), self.width),
                             dtype=np.uint32)
        self.preds = np.zeros((8, self.width), dtype=bool)
        self.preds[PT] = True
        lanes32 = np.arange(WARP_SIZE, dtype=np.uint32)
        self.alive = np.tile(lanes32 < thread_count, trials) \
            & batch.lanes_live
        self.stack: List[StackEntry] = [
            StackEntry(0, self.alive.copy(), None)]
        self.active = self.alive
        self.at_barrier = False
        self.done = False
        #: per-trial datapath occurrence counters, ``(trials,)`` int64
        self.datapath_counter = np.zeros(trials, dtype=np.int64)
        mode = self.states[0].mode
        self.taint: Optional[TaintTracker] = (
            TaintTracker(self.states[0].scheme)
            if mode == "swap" else None)
        if self.taint is not None:
            self.taint.words = _IndexedWords()

        self.special = {
            "SR_TID": np.tile(
                (warp_index * WARP_SIZE + lanes32).astype(np.uint32),
                trials),
            "SR_CTAID": np.full(self.width, cta_index, dtype=np.uint32),
            "SR_NTID": np.full(self.width, threads_per_cta,
                               dtype=np.uint32),
            "SR_NCTAID": np.full(self.width, grid_ctas, dtype=np.uint32),
            "SR_LANE": np.tile(lanes32, trials),
        }
        self.observer = None
        self._last_segments: tuple = ()

        # Per-trial fault-plan placement, vectorized for the write gate
        # (-1 where a trial carries no plan, so it can never match).
        self._plan_cta = np.full(trials, -1, dtype=np.int64)
        self._plan_warp = np.full(trials, -1, dtype=np.int64)
        self._plan_occurrence = np.full(trials, -1, dtype=np.int64)
        self._fired = np.zeros(trials, dtype=bool)
        for trial, state in enumerate(self.states):
            plan = state.fault
            self._fired[trial] = state.fault_fired
            if plan is not None:
                self._plan_cta[trial] = plan.cta_index
                self._plan_warp[trial] = plan.warp_index
                self._plan_occurrence[trial] = plan.occurrence

    # ------------------------------------------------------------------
    # per-trial liveness plumbing
    # ------------------------------------------------------------------
    def _trials_of(self, mask: np.ndarray) -> np.ndarray:
        """Trial indices with at least one set lane in ``mask``."""
        return np.nonzero(
            mask.reshape(self.trials, WARP_SIZE).any(axis=1))[0]

    def _tainted_lanes_of(self, register: int) -> list:
        """Indexed lookup into the batch-wide taint map (vs. a scan)."""
        lanes = self.taint.words.by_register.get(register)
        return list(lanes) if lanes else []

    def _writeback_mask(self, mask: np.ndarray) -> np.ndarray:
        """Drop lanes of trials halted earlier in this instruction."""
        return mask & self.batch.lanes_live

    def current_entry(self) -> Optional[StackEntry]:
        """Pop finished entries; return the runnable top (None when done).

        Running off the end of the kernel — the scalar ``missing EXIT?``
        :class:`~repro.errors.SimulationError` — crashes exactly the
        trials whose lanes sit in the offending entry; everyone else
        keeps executing.  Like the scalar fetch, it leaves the top's
        active lanes in ``self.active``.
        """
        while self.stack:
            top = self.stack[-1]
            if top.reconv is not None and top.pc == top.reconv:
                self.stack.pop()
                continue
            mask = top.mask & self.alive & self.batch.lanes_live
            if not mask.any():
                self.stack.pop()
                continue
            if top.pc >= len(self.program):
                for trial in self._trials_of(mask):
                    self.batch.finish(int(trial), TRIAL_CRASH)
                continue
            self.active = mask
            return top
        self.done = True
        return None

    # ------------------------------------------------------------------
    # per-trial detection and fault injection
    # ------------------------------------------------------------------
    def _check_tainted_read(self, registers, mask) -> None:
        taint = self.taint
        if not taint or not taint.words:
            return
        live_mask = mask & self.batch.lanes_live
        keys = [(register, lane)
                for register in registers
                for lane in sorted(
                    lane for lane in self._tainted_lanes_of(register)
                    if live_mask[lane])]
        if not keys:
            return
        decoded = taint.read_many(keys)
        pc = self.stack[-1].pc if self.stack else -1
        for (register, lane), status, data in zip(keys, decoded.status,
                                                  decoded.data):
            trial = lane // WARP_SIZE
            if not self.batch.live[trial]:
                # This trial halted at an earlier key of the same read;
                # its scalar run never reaches the later lanes.
                continue
            state = self.states[trial]
            if status == READ_DUE:
                state.record("due", self.cta_index, self.warp_index, pc,
                             f"R{register} lane {lane % WARP_SIZE}")
                if state.halt_on_detect:
                    self.batch.finish(trial, TRIAL_HALT)
            elif status == READ_CORRECTED:
                state.record("corrected", self.cta_index, self.warp_index,
                             pc, f"R{register} lane {lane % WARP_SIZE}")
                self.regs[register][lane] = int(data) & 0xFFFF_FFFF

    def _maybe_inject_fault(self, rec: Decoded, values: np.ndarray,
                            mask: np.ndarray, is_64bit: bool):
        """Fire each trial's plan on its own 32-lane slice when due.

        The placement gate is vectorized over trials (one boolean
        reduction per datapath writeback); the strike itself — at most
        once per trial per run — delegates to the shared scalar
        :func:`~repro.gpu.warp.apply_fault_strike` on the slice, with
        taint keys and protections offset back to flat lanes.
        """
        if not rec.datapath:
            return values, set()
        due = (~self._fired
               & (self._plan_cta == self.cta_index)
               & (self._plan_warp == self.warp_index)
               & (self._plan_occurrence == self.datapath_counter)
               & self.batch.live)
        if not due.any():
            return values, set()
        role = rec.role
        dest = rec.dest_reg
        protected = set()
        values = values.copy()
        for trial in np.nonzero(due)[0]:
            trial = int(trial)
            state = self.states[trial]
            base = trial * WARP_SIZE
            block = slice(base, base + WARP_SIZE)
            taint_view = _OffsetTaint(self.taint, base) \
                if self.taint is not None else None
            struck, keys = apply_fault_strike(
                state.fault, state, taint_view, role, dest,
                values[block], mask[block], is_64bit)
            values[block] = struck
            protected.update((register, lane + base)
                             for register, lane in keys)
            self._fired[trial] = state.fault_fired
        return values, protected

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> Optional[np.ndarray]:
        """Execute one instruction for every live trial at once.

        Returns the ``(trials,)`` boolean vector of trials that had
        active lanes this step (the scalar runs that would have called
        ``step()`` here) — the caller ticks those trials' budgets — or
        None when the warp has finished.
        """
        entry = self.current_entry()
        if entry is None:
            return None
        pc = entry.pc
        rec = self.program[pc]
        active = self.active
        trial_active = active.reshape(self.trials, WARP_SIZE).any(axis=1)
        predicate = rec.predicate
        if predicate is None:
            exec_mask = active
        elif rec.predicate_negated:
            exec_mask = active & ~self.preds[predicate]
        else:
            exec_mask = active & self.preds[predicate]

        entry.pc = pc + 1
        if rec.control:
            rec.execute(self, rec, entry, active, exec_mask)
        elif exec_mask.any():
            rec.execute(self, rec, exec_mask)

        if rec.advances:
            exec_trials = exec_mask.reshape(
                self.trials, WARP_SIZE).any(axis=1)
            # Trials halted mid-instruction never reach the scalar
            # counter increment, so only still-live trials advance.
            self.datapath_counter[exec_trials & self.batch.live] += 1
        return trial_active

    def _exec_trap(self, rec: Decoded, entry: StackEntry,
                   active: np.ndarray, mask: np.ndarray) -> None:
        """``BPT``: record a trap (and halt) in each executing live trial."""
        exec_trials = mask.reshape(self.trials, WARP_SIZE).any(axis=1)
        for trial in np.nonzero(exec_trials & self.batch.live)[0]:
            trial = int(trial)
            state = self.states[trial]
            state.record("trap", self.cta_index, self.warp_index, rec.pc,
                         "BPT")
            if state.halt_on_detect:
                self.batch.finish(trial, TRIAL_HALT)

    def _exec_barrier(self, rec: Decoded, entry: StackEntry,
                      active: np.ndarray, mask: np.ndarray) -> None:
        """Arrive at a BAR; flag cross-trial divergent arrivals.

        A trial whose lanes are alive in this warp but absent from the
        arriving stack entry has *not* reached this barrier in its own
        scalar schedule — blocking the shared warp would synchronize it
        spuriously.  Those trials are handed to the scalar oracle
        (``fallback``); trials arriving with all their live lanes (or
        with none left in this warp) block exactly as scalar does.
        """
        alive_trials = (self.alive & self.batch.lanes_live).reshape(
            self.trials, WARP_SIZE).any(axis=1)
        arrived = active.reshape(self.trials, WARP_SIZE).any(axis=1)
        divergent = alive_trials & ~arrived & self.batch.live
        for trial in np.nonzero(divergent)[0]:
            self.batch.finish(int(trial), TRIAL_FALLBACK,
                              reason="divergent_barrier")
        self.at_barrier = True

    def _exec_shfl(self, rec: Decoded, mask: np.ndarray) -> None:
        """Warp shuffle with lane arithmetic inside each trial's block."""
        value = self.read_u32(rec.srcs[0], mask)
        amount = self.read_u32(rec.srcs[1], mask).astype(np.int64)
        flat = np.arange(self.width, dtype=np.int64)
        local = flat % WARP_SIZE
        base = flat - local
        source_local = rec.fn(local, amount)
        valid = (source_local >= 0) & (source_local < WARP_SIZE)
        source_lane = np.where(valid, base + source_local, flat)
        gathered = value[source_lane]
        src_active = mask[source_lane]
        result = np.where(valid & src_active, gathered, value)
        self.write_result(rec, result.astype(np.uint32), mask, False)

    def _exec_memory(self, rec: Decoded, mask: np.ndarray) -> int:
        """Trial-offset memory access with per-trial crash containment.

        An out-of-bounds lane address — the scalar oracle's
        :class:`~repro.errors.SimulationError` — crashes only that
        trial: its lanes drop out before any word is read or written,
        and every in-range trial proceeds.
        """
        space = self.global_memory if rec.global_space \
            else self.shared_memory
        if space is None:
            raise SimulationError(f"{rec.op} executed without shared memory")
        wide = rec.wide
        srcs = rec.srcs
        addresses = self.read_u32(srcs[0], mask).astype(np.int64) \
            + rec.offset
        mask = mask & self.batch.lanes_live  # address read may halt trials
        checked = np.where(mask, addresses, 0).astype(np.uint32)
        parts = [checked]
        if wide:
            parts.append((checked + 1).astype(np.uint32))
        for trial in space.oob_trials(parts, mask):
            self.batch.finish(int(trial), TRIAL_CRASH)
        mask = mask & self.batch.lanes_live
        if not mask.any():
            return 0

        kind = rec.mem_kind
        if kind == "load":
            low = space.gather(checked, mask)
            if wide:
                high = space.gather(parts[1], mask)
                value = low.astype(np.uint64) | (
                    high.astype(np.uint64) << np.uint64(32))
                self.write_result(rec, value, mask, True)
            else:
                self.write_result(rec, low, mask, False)
        elif kind == "store":
            if wide:
                value = self.read_u64(srcs[1], mask)
                mask = mask & self.batch.lanes_live
                space.scatter(checked,
                              (value & np.uint64(0xFFFF_FFFF)).astype(
                                  np.uint32), mask)
                space.scatter(parts[1],
                              (value >> np.uint64(32)).astype(np.uint32),
                              mask)
            else:
                value = self.read_u32(srcs[1], mask)
                mask = mask & self.batch.lanes_live
                space.scatter(checked, value, mask)
        else:  # atom
            value = self.read_u32(srcs[1], mask)
            mask = mask & self.batch.lanes_live
            old = space.atomic(rec.atom_op, checked, value, mask)
            self.write_result(rec, old, mask, False)
        return 0


@dataclass
class TrialRunResult:
    """What one batched launch reports back, per trial.

    ``outcomes[t]`` is one of the ``TRIAL_*`` labels; ``states[t]`` is
    the trial's own resilience state (events, ``fault_fired``);
    ``steps[t]`` the functional steps its scalar run would have
    executed; ``memory.space_of(t)`` its final global-memory image.
    Trials labelled :data:`TRIAL_FALLBACK` carry no verdict — rerun
    them through the scalar oracle.
    """

    outcomes: List[str]
    states: List[ResilienceState]
    steps: np.ndarray
    memory: TrialMemory
    #: per-trial fallback attribution (``divergent_barrier`` /
    #: ``union_error`` / ``union_deadlock``; None for decided trials)
    fallback_reasons: List[Optional[str]] = field(default_factory=list)


def run_trials(kernel: Kernel, launch: LaunchConfig, image: np.ndarray,
               states: Sequence[ResilienceState],
               max_steps: Optional[int] = 50_000_000,
               register_count: Optional[int] = None) -> TrialRunResult:
    """Run ``len(states)`` independent fault trials as one tensor sweep.

    The batched counterpart of calling
    :func:`repro.gpu.device.run_functional` once per trial on a fresh
    copy of ``image`` (a ``(words,)`` uint32 launch memory): CTAs run
    sequentially, warps within a CTA round-robin until blocked, and
    every instruction executes once for the whole ``(trials * 32)``-wide
    virtual warp.  Each state must be fresh (unfired, eventless) and all
    must share one resilience mode; in ``swap`` mode the first state's
    scheme decodes every trial's taints (schemes are stateless codecs,
    so sharing one is observationally identical to the scalar path's
    per-trial instances).

    Exactness contract: every returned trial matches its scalar oracle
    run bit for bit — outcome bin, detection events, memory image, and
    step count — except trials labelled ``fallback``, which the caller
    must rerun scalar to get a verdict (cross-trial divergent barrier
    arrivals and union-level deadlocks/errors take that route rather
    than guessing).
    """
    kernel.validate()
    states = list(states)
    if not states:
        raise SimulationError("run_trials needs at least one trial state")
    mode = states[0].mode
    for state in states:
        if state.mode != mode:
            raise SimulationError(
                "all trial states must share one resilience mode")
        if state.fault_fired or state.events:
            raise SimulationError(
                "trial states must be fresh (unfired, no events)")
    trials = len(states)
    batch = TrialBatch(trials, max_steps)
    memory = TrialMemory(image, trials)
    if register_count is None:
        register_count = max(kernel.register_count(), 1)
    program = TrialWarp.decode(kernel)

    with np.errstate(all="ignore"):
        for cta_index in range(launch.grid_ctas):
            if not batch.live.any():
                break
            try:
                _run_cta(kernel, launch, cta_index, memory, states, batch,
                         register_count, program)
            except SimulationError:
                # A union-level failure (unimplemented opcode, deadlock
                # shape the shared stack cannot attribute): hand every
                # still-running trial to the scalar oracle.
                batch.finish_live(TRIAL_FALLBACK, reason="union_error")
                break
    for trial in range(trials):
        if batch.outcomes[trial] is None:
            batch.outcomes[trial] = TRIAL_OK
    return TrialRunResult(outcomes=batch.outcomes, states=states,
                          steps=batch.steps, memory=memory,
                          fallback_reasons=batch.fallback_reasons)


def _run_cta(kernel: Kernel, launch: LaunchConfig, cta_index: int,
             memory: TrialMemory, states: Sequence[ResilienceState],
             batch: TrialBatch, register_count: int,
             program: Sequence[Decoded]) -> None:
    """One CTA of the batched launch (mirrors ``run_functional_cta``).

    The caller runs it under ``np.errstate(all="ignore")``.
    """
    shared = None
    if launch.shared_words_per_cta:
        shared = TrialMemory(
            np.zeros(launch.shared_words_per_cta, dtype=np.uint32),
            batch.trials, name=f"shared.cta{cta_index}")
    warps = []
    threads_left = launch.threads_per_cta
    for warp_index in range(launch.warps_per_cta):
        count = min(WARP_SIZE, threads_left)
        threads_left -= count
        warps.append(TrialWarp(kernel, cta_index, warp_index, count,
                               launch.threads_per_cta, launch.grid_ctas,
                               register_count, memory, shared, states,
                               batch, program))
    while True:
        progressed = False
        barrier_waiters = 0
        for warp in warps:
            if warp.done:
                continue
            if warp.at_barrier:
                barrier_waiters += 1
                continue
            while not warp.done and not warp.at_barrier:
                trial_active = warp.step()
                if trial_active is None:
                    break
                progressed = True
                batch.tick(trial_active)
                if not batch.live.any():
                    return
        if all(warp.done for warp in warps):
            return
        if not progressed:
            released = False
            if barrier_waiters:
                live_warps = [w for w in warps if not w.done]
                if live_warps and all(w.at_barrier for w in live_warps):
                    for warp in live_warps:
                        warp.at_barrier = False
                    released = True
            if not released:
                # The union deadlocked; per-trial attribution is not
                # sound here, so every live trial goes to the oracle.
                batch.finish_live(TRIAL_FALLBACK,
                                  reason="union_deadlock")
                return
