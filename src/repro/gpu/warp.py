"""Warp-level functional execution with SIMT divergence.

A :class:`Warp` executes one instruction per :meth:`step` across its 32
lanes (vectorized with numpy).  Divergence uses a post-dominator SIMT
stack: every potentially-divergent branch carries a reconvergence point
(explicit ``reconv=`` label, defaulting to the fall-through instruction,
which is correct for backward loop branches); entries pop when execution
reaches their reconvergence pc.

Each step executes a record of the launch's pre-decoded instruction
stream (:mod:`repro.gpu.decode`): the record names the handler method
for its opcode and carries every operand, role and width the handler
needs, so a step neither dispatches on the opcode nor re-derives them.

This module is the *scalar* (one-trial) executor and the exact-
equivalence oracle for the trial-batched tensor executor in
:mod:`repro.gpu.tensor`, which stacks N independent fault trials into
one ``(trials * 32)``-wide virtual warp and runs the same handlers.  The
pieces both executors share live here as module-level helpers: the
fault-strike application (:func:`apply_fault_strike`) and the
single-pass memory-access profiles (:func:`global_access_profile`,
:func:`shared_bank_conflicts`).

Floating-point handlers raise no numpy warnings for IEEE special
results (division by zero, overflow, NaN casts): the loops that drive
an executor (the SM scheduler, ``run_functional_cta``, ``run_trials``)
run it under ``np.errstate(all="ignore")``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ecc.vectorized import READ_CORRECTED, READ_DUE
from repro.errors import SimulationError
from repro.gpu.decode import Decoded, decode_kernel
from repro.gpu.isa import (PT, RZ, WARP_SIZE, Instruction, Operand,
                           OperandKind)
from repro.gpu.memory import MemorySpace
from repro.gpu.program import Kernel
from repro.gpu.resilience import ResilienceState, TaintTracker

try:
    from numpy._core.multiarray import count_nonzero
except ImportError:  # numpy < 2
    from numpy.core.multiarray import count_nonzero

_REGISTER = OperandKind.REGISTER
_REGISTER64 = OperandKind.REGISTER64
_IMMEDIATE = OperandKind.IMMEDIATE
_SPECIAL = OperandKind.SPECIAL
_LOW32 = np.uint64(0xFFFF_FFFF)
_SHIFT32 = np.uint64(32)
_LANES = np.arange(WARP_SIZE, dtype=np.int64)
#: the protected-keys result of a write no fault plan struck
_NO_KEYS = frozenset()


class KernelHalt(Exception):
    """Raised to stop a launch after a detected error (DUE or trap)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class StackEntry:
    """One SIMT reconvergence-stack entry: a pc, its mask, its join pc.

    ``mask`` is a boolean lane vector — ``(32,)`` in the scalar executor,
    ``(trials * 32,)`` in the trial-batched one, where one entry tracks
    the union of every trial's lanes walking this path.
    """

    pc: int
    mask: np.ndarray
    reconv: Optional[int]


@dataclass(slots=True)
class StepInfo:
    """What one executed instruction did (for timing and profiling)."""

    #: the executed instruction's pre-decoded record
    decoded: Decoded
    pc: int
    active_lanes: int
    transactions: int = 0
    #: 128B global-memory segments touched (for the SM cache model)
    segments: tuple = ()

    @property
    def instruction(self) -> Instruction:
        """The executed instruction."""
        return self.decoded.instruction

    @property
    def barrier(self) -> bool:
        """True for a ``BAR`` (the warp now waits for its CTA)."""
        return self.decoded.barrier

    @property
    def exited(self) -> bool:
        """True for an ``EXIT``."""
        return self.decoded.exits


class Warp:
    """One warp's architectural state and executor.

    All lane vectors are ``width`` wide — 32 here; ``trials * 32`` in the
    :class:`repro.gpu.tensor.TrialWarp` subclass, which reuses the
    execution methods below unchanged across its stacked trials.
    """

    #: lanes per state vector (overridden per instance by TrialWarp)
    width: int = WARP_SIZE

    def __init__(self, kernel: Kernel, cta_index: int, warp_index: int,
                 thread_count: int, threads_per_cta: int, grid_ctas: int,
                 register_count: int, global_memory: MemorySpace,
                 shared_memory: Optional[MemorySpace],
                 resilience: ResilienceState,
                 program: Optional[Sequence[Decoded]] = None):
        self.kernel = kernel
        #: the launch's pre-decoded instruction stream, indexed by pc
        self.program = program if program is not None \
            else self.decode(kernel)
        self.cta_index = cta_index
        self.warp_index = warp_index
        self.global_memory = global_memory
        self.shared_memory = shared_memory
        self.resilience = resilience

        self.regs = np.zeros((max(register_count, 1), WARP_SIZE),
                             dtype=np.uint32)
        self.preds = np.zeros((8, WARP_SIZE), dtype=bool)
        self.preds[PT] = True
        self.alive = np.zeros(WARP_SIZE, dtype=bool)
        self.alive[:thread_count] = True
        self.stack: List[StackEntry] = [
            StackEntry(0, self.alive.copy(), None)]
        #: active lanes of the runnable top, set by :meth:`current_entry`
        self.active = self.alive
        self.at_barrier = False
        self.done = False
        self.datapath_counter = 0
        self.taint: Optional[TaintTracker] = (
            TaintTracker(resilience.scheme)
            if resilience.mode == "swap" else None)

        lanes = np.arange(WARP_SIZE, dtype=np.uint32)
        self.special = {
            "SR_TID": (warp_index * WARP_SIZE + lanes).astype(np.uint32),
            "SR_CTAID": np.full(WARP_SIZE, cta_index, dtype=np.uint32),
            "SR_NTID": np.full(WARP_SIZE, threads_per_cta, dtype=np.uint32),
            "SR_NCTAID": np.full(WARP_SIZE, grid_ctas, dtype=np.uint32),
            "SR_LANE": lanes.copy(),
        }
        #: optional observer with on_step(warp, info) and wants_values
        self.observer = None
        self._last_segments: tuple = ()

    # ------------------------------------------------------------------
    # fetch
    # ------------------------------------------------------------------
    @classmethod
    def decode(cls, kernel: Kernel) -> Tuple[Decoded, ...]:
        """``kernel``'s pre-decoded instruction stream for this executor.

        Built once per launch and shared by every warp of it; handlers
        resolve on ``cls``, so subclass overrides land in the table.
        """
        return decode_kernel(kernel, cls)

    def current_entry(self) -> Optional[StackEntry]:
        """Pop finished entries; return the runnable top (None when done).

        The top's active lanes (its mask AND the live lanes) are left in
        ``self.active`` for the :meth:`step` that executes it.
        """
        stack = self.stack
        while stack:
            top = stack[-1]
            if top.reconv is not None and top.pc == top.reconv:
                stack.pop()
                continue
            active = top.mask & self.alive
            if not count_nonzero(active):
                stack.pop()
                continue
            if top.pc >= len(self.program):
                raise SimulationError(
                    f"{self.kernel.name}: warp ran off the end "
                    f"(pc={top.pc}); missing EXIT?")
            self.active = active
            return top
        self.done = True
        return None

    # ------------------------------------------------------------------
    # register access
    # ------------------------------------------------------------------
    def _check_tainted_read(self, registers: Tuple[int, ...],
                            mask: np.ndarray) -> None:
        taint = self.taint
        if not taint or not taint.words:
            return
        # Gather every tainted lane this read touches and decode them all
        # in one vectorized register-file pass (read order: register as
        # listed, then lane ascending — matching the scalar read port).
        keys = [(register, lane)
                for register in registers
                for lane in sorted(
                    lane for lane in self._tainted_lanes_of(register)
                    if mask[lane])]
        if not keys:
            return
        batch = taint.read_many(keys)
        pc = self.stack[-1].pc if self.stack else -1
        for (register, lane), status, data in zip(keys, batch.status,
                                                  batch.data):
            if status == READ_DUE:
                self.resilience.record("due", self.cta_index,
                                       self.warp_index, pc,
                                       f"R{register} lane {lane}")
                if self.resilience.halt_on_detect:
                    raise KernelHalt("ecc-due")
            elif status == READ_CORRECTED:
                self.resilience.record("corrected", self.cta_index,
                                       self.warp_index, pc,
                                       f"R{register} lane {lane}")
                self.regs[register][lane] = int(data) & 0xFFFF_FFFF
            # OK: the (possibly wrong) stored data flows on.

    def read_u32(self, operand: Operand, mask: np.ndarray) -> np.ndarray:
        """Read ``operand`` as a ``(32,)`` uint32 lane vector.

        Register reads of tainted lanes run the scheme decoder first
        (:meth:`_check_tainted_read`), which is where Swap-ECC detection
        and in-place correction happen; with no taint live, a register
        read is a plain row lookup.
        """
        kind = operand.kind
        if kind is _REGISTER:
            index = operand.value
            if index == RZ:
                return np.zeros(self.width, dtype=np.uint32)
            taint = self.taint
            if taint is not None and taint.words:
                self._check_tainted_read((index,), mask)
            return self.regs[index]
        if kind is _IMMEDIATE:
            return np.full(self.width, operand.value & 0xFFFF_FFFF,
                           dtype=np.uint32)
        if kind is _SPECIAL:
            return self.special[operand.name]
        raise SimulationError(f"cannot read {operand} as 32-bit value")

    def read_i32(self, operand: Operand, mask: np.ndarray) -> np.ndarray:
        """Read ``operand`` as a ``(32,)`` int32 lane vector."""
        return self.read_u32(operand, mask).view(np.int32)

    def read_f32(self, operand: Operand, mask: np.ndarray) -> np.ndarray:
        """Read ``operand`` as a ``(32,)`` float32 lane vector."""
        return self.read_u32(operand, mask).view(np.float32)

    def read_u64(self, operand: Operand, mask: np.ndarray) -> np.ndarray:
        """Read a 64-bit operand (even register pair) as ``(32,)`` uint64."""
        kind = operand.kind
        index = operand.value
        if kind is _REGISTER64:
            if index == RZ:
                return np.zeros(self.width, dtype=np.uint64)
            taint = self.taint
            if taint is not None and taint.words:
                self._check_tainted_read((index, index + 1), mask)
            low = self.regs[index].astype(np.uint64)
            high = self.regs[index + 1].astype(np.uint64)
            return low | (high << _SHIFT32)
        if kind is _REGISTER and index == RZ:
            return np.zeros(self.width, dtype=np.uint64)
        raise SimulationError(f"cannot read {operand} as 64-bit value")

    def read_f64(self, operand: Operand, mask: np.ndarray) -> np.ndarray:
        """Read a 64-bit operand (even register pair) as ``(32,)`` float64."""
        return self.read_u64(operand, mask).view(np.float64)

    def read_pred(self, index: int) -> np.ndarray:
        """The ``(32,)`` boolean lane vector of predicate ``index``."""
        return self.preds[index]

    def _tainted_lanes_of(self, register: int) -> List[int]:
        """Lanes of ``register`` currently tainted (any order).

        The scalar tracker holds at most a couple of taints, so a scan
        of the word map is fine here; the trial-batched executor — whose
        map carries one taint per struck trial — overrides this with an
        indexed lookup.
        """
        return [lane for (tainted_register, lane) in self.taint.words
                if tainted_register == register]

    def _writeback_mask(self, mask: np.ndarray) -> np.ndarray:
        """Lanes allowed to commit architectural state.

        The scalar executor commits every execution-masked lane; the
        trial-batched executor overrides this to additionally drop lanes
        of trials halted (DUE/trap/crash) earlier in the same
        instruction, mirroring how a scalar :class:`KernelHalt` aborts
        before the remaining writes of that instruction happen.
        """
        return mask

    # ------------------------------------------------------------------
    # writeback with SwapCodes roles
    # ------------------------------------------------------------------
    def write_result(self, rec: Decoded, values: np.ndarray,
                     mask: np.ndarray, is_64bit: bool) -> None:
        """Write an instruction result honouring its resilience role."""
        dest = rec.dest_reg
        if dest is None:
            return
        mask = self._writeback_mask(mask)
        values, protected = self._maybe_inject_fault(
            rec, values, mask, is_64bit)
        if is_64bit:
            parts = ((dest, (values & _LOW32).astype(np.uint32)),
                     (dest + 1, (values >> _SHIFT32).astype(np.uint32)))
        else:
            parts = ((dest, values.astype(np.uint32, copy=False)),)
        regs = self.regs
        taint = self.taint
        if taint is None:
            for register, part in parts:
                np.copyto(regs[register], part, where=mask)
            return

        if rec.shadow:
            # Masked writeback: check bits only.  Any mismatch against the
            # stored data means a fault hit this shadow's computation (or
            # the original's data is still wrong, in which case the check
            # bits now encode the recomputed value and the mismatch is
            # caught at the next read).  The fault-free fast path is one
            # vectorized compare per register — the per-lane Python loop
            # only runs over the (rare) tainted or mismatching lanes.
            words = taint.words
            for register, part in parts:
                stored = regs[register]
                for lane in list(self._tainted_lanes_of(register)):
                    if mask[lane]:
                        taint.on_shadow_write(register, lane,
                                              int(part[lane]))
                differs = mask & (stored != part)
                if differs.any():
                    for lane in np.nonzero(differs)[0]:
                        lane = int(lane)
                        if (register, lane) not in words:
                            taint.taint_check_only(
                                register, lane, int(stored[lane]),
                                int(part[lane]))
            return

        for register, part in parts:
            np.copyto(regs[register], part, where=mask)
            if taint.words:
                # Iterate the (small) taint map, not all 32 lanes.
                for lane in list(self._tainted_lanes_of(register)):
                    if mask[lane] and (register, lane) not in protected:
                        taint.on_full_write(register, lane)

    def _maybe_inject_fault(self, rec: Decoded, values: np.ndarray,
                            mask: np.ndarray, is_64bit: bool):
        """Apply a pending FaultPlan to this result; returns (values, keys).

        Placement gating (cta/warp/occurrence/pipe) lives here; the
        strike itself is :func:`apply_fault_strike`, shared with the
        trial-batched executor.  ``keys`` is the set of freshly-tainted
        (register, lane) pairs the writeback must not clear.
        """
        state = self.resilience
        plan = state.fault
        if (plan is None or state.fault_fired
                or plan.cta_index != self.cta_index
                or plan.warp_index != self.warp_index
                or self.datapath_counter != plan.occurrence
                or not rec.datapath):
            return values, _NO_KEYS
        return apply_fault_strike(plan, state, self.taint, rec.role,
                                  rec.dest_reg, values, mask, is_64bit)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self, entry: Optional[StackEntry] = None) -> Optional[StepInfo]:
        """Execute one instruction; None when the warp has finished.

        ``entry`` is the runnable top a :meth:`current_entry` call just
        returned, for a caller that already has it (the SM scheduler);
        nothing may have stepped this warp since.  Without it the step
        fetches the top itself.  The instruction's handler comes from
        the pre-decoded stream (:mod:`repro.gpu.decode`).
        """
        if entry is None:
            entry = self.current_entry()
            if entry is None:
                return None
        pc = entry.pc
        rec = self.program[pc]
        active = self.active
        predicate = rec.predicate
        if predicate is None:
            exec_mask = active
        elif rec.predicate_negated:
            exec_mask = active & ~self.preds[predicate]
        else:
            exec_mask = active & self.preds[predicate]

        active_lanes = count_nonzero(exec_mask)
        info = StepInfo(rec, pc, active_lanes)
        entry.pc = pc + 1
        if rec.control:
            rec.execute(self, rec, entry, active, exec_mask)
        elif active_lanes:
            transactions = rec.execute(self, rec, exec_mask)
            if transactions:
                info.transactions = transactions
                info.segments = self._last_segments
        if active_lanes and rec.advances:
            self.datapath_counter += 1
        if self.observer is not None:
            self.observer.on_step(self, info)
        return info

    # control handlers: handler(rec, entry, active, mask), run even when
    # no lane executes; ``entry.pc`` already points past the instruction
    def _exec_branch(self, rec: Decoded, entry: StackEntry,
                     active: np.ndarray, taken: np.ndarray) -> None:
        if not count_nonzero(taken):
            return
        not_taken = active & ~taken
        if not count_nonzero(not_taken):
            entry.pc = rec.target_pc
            return
        reconv = rec.reconv_pc
        entry.pc = reconv
        self.stack.append(StackEntry(rec.pc + 1, not_taken.copy(), reconv))
        self.stack.append(StackEntry(rec.target_pc, taken.copy(), reconv))

    def _exec_exit(self, rec: Decoded, entry: StackEntry,
                   active: np.ndarray, mask: np.ndarray) -> None:
        self.alive &= ~mask

    def _exec_barrier(self, rec: Decoded, entry: StackEntry,
                      active: np.ndarray, mask: np.ndarray) -> None:
        self.at_barrier = True

    def _exec_trap(self, rec: Decoded, entry: StackEntry,
                   active: np.ndarray, mask: np.ndarray) -> None:
        if count_nonzero(mask):
            self.resilience.record("trap", self.cta_index,
                                   self.warp_index, rec.pc, "BPT")
            if self.resilience.halt_on_detect:
                raise KernelHalt("trap")

    def _exec_nop(self, rec: Decoded, entry: StackEntry,
                  active: np.ndarray, mask: np.ndarray) -> None:
        pass

    # data handlers: handler(rec, mask) -> memory transactions (or None),
    # run only when some lane executes
    def _exec_unimplemented(self, rec: Decoded, mask: np.ndarray) -> None:
        raise SimulationError(f"unimplemented opcode {rec.op}")

    def _exec_alu(self, rec: Decoded, mask: np.ndarray) -> None:
        read = self.read_u32
        self.write_result(rec, rec.fn(*[read(src, mask) for src in rec.srcs]),
                          mask, False)

    def _exec_fp32(self, rec: Decoded, mask: np.ndarray) -> None:
        read = self.read_f32
        result = rec.fn(*[read(src, mask) for src in rec.srcs])
        self.write_result(rec, result.astype(np.float32, copy=False).view(
            np.uint32), mask, False)

    def _exec_fp64(self, rec: Decoded, mask: np.ndarray) -> None:
        read = self.read_f64
        result = rec.fn(*[read(src, mask) for src in rec.srcs])
        self.write_result(rec, result.astype(np.float64, copy=False).view(
            np.uint64), mask, True)

    def _exec_mov(self, rec: Decoded, mask: np.ndarray) -> None:
        self.write_result(rec, self.read_u32(rec.srcs[0], mask), mask, False)

    def _exec_mov64(self, rec: Decoded, mask: np.ndarray) -> None:
        self.write_result(rec, self.read_u64(rec.srcs[0], mask), mask, True)

    def _exec_i2f(self, rec: Decoded, mask: np.ndarray) -> None:
        value = self.read_i32(rec.srcs[0], mask)
        self.write_result(rec, value.astype(np.float32).view(np.uint32),
                          mask, False)

    def _exec_f2i(self, rec: Decoded, mask: np.ndarray) -> None:
        value = self.read_f32(rec.srcs[0], mask)
        clipped = np.clip(np.nan_to_num(value), -2**31, 2**31 - 1)
        self.write_result(rec, clipped.astype(np.int32).view(np.uint32),
                          mask, False)

    def _exec_setp(self, rec: Decoded, mask: np.ndarray) -> None:
        read = rec.read
        a = read(self, rec.srcs[0], mask)
        b = read(self, rec.srcs[1], mask)
        result = rec.fn(a, b)
        index = rec.pred_dest
        if index != PT:
            np.copyto(self.preds[index], result,
                      where=self._writeback_mask(mask))

    def _exec_sel(self, rec: Decoded, mask: np.ndarray) -> None:
        srcs = rec.srcs
        a = self.read_u32(srcs[0], mask)
        b = self.read_u32(srcs[1], mask)
        chooser = self.preds[srcs[2].value]
        self.write_result(rec, np.where(chooser, a, b).astype(np.uint32),
                          mask, False)

    def _exec_s2r(self, rec: Decoded, mask: np.ndarray) -> None:
        self.write_result(rec, self.special[rec.srcs[0].name], mask, False)

    def _exec_shfl(self, rec: Decoded, mask: np.ndarray) -> None:
        value = self.read_u32(rec.srcs[0], mask)
        amount = self.read_u32(rec.srcs[1], mask).astype(np.int64)
        source_lane = rec.fn(_LANES, amount)
        valid = (source_lane >= 0) & (source_lane < WARP_SIZE)
        source_lane = np.where(valid, source_lane, _LANES)
        gathered = value[source_lane]
        # Lanes whose source is inactive keep their own value (defined
        # behaviour here; CUDA leaves it undefined).
        src_active = mask[source_lane]
        result = np.where(valid & src_active, gathered, value)
        self.write_result(rec, result.astype(np.uint32), mask, False)

    def _exec_memory(self, rec: Decoded, mask: np.ndarray) -> int:
        space = self.global_memory if rec.global_space \
            else self.shared_memory
        if space is None:
            raise SimulationError(f"{rec.op} executed without shared memory")
        wide = rec.wide
        srcs = rec.srcs
        addresses = self.read_u32(srcs[0], mask).astype(np.int64) + \
            rec.offset
        checked = np.where(mask, addresses, 0).astype(np.uint32)

        kind = rec.mem_kind
        if kind == "load":
            low = space.gather(checked, mask)
            if wide:
                high = space.gather((checked + 1).astype(np.uint32), mask)
                value = low.astype(np.uint64) | (
                    high.astype(np.uint64) << _SHIFT32)
                self.write_result(rec, value, mask, True)
            else:
                self.write_result(rec, low, mask, False)
        elif kind == "store":
            if wide:
                value = self.read_u64(srcs[1], mask)
                space.scatter(checked, (value & _LOW32).astype(np.uint32),
                              mask)
                space.scatter((checked + 1).astype(np.uint32),
                              (value >> _SHIFT32).astype(np.uint32), mask)
            else:
                space.scatter(checked, self.read_u32(srcs[1], mask), mask)
        else:  # atom
            old = space.atomic(rec.atom_op, checked,
                               self.read_u32(srcs[1], mask), mask)
            self.write_result(rec, old, mask, False)

        if rec.global_space:
            transactions, self._last_segments = global_access_profile(
                checked, mask, wide)
            return max(1, transactions)
        self._last_segments = ()
        return max(1, shared_bank_conflicts(checked, mask, wide))


def apply_fault_strike(plan, state: ResilienceState,
                       taint: Optional[TaintTracker], role: Optional[str],
                       dest: int, values: np.ndarray, mask: np.ndarray,
                       is_64bit: bool):
    """Strike one warp-width instruction result with a placed FaultPlan.

    Shared by the scalar :class:`Warp` and the trial-batched executor in
    :mod:`repro.gpu.tensor` (which passes the firing trial's 32-lane
    slice).  The caller has already verified the plan's placement gates
    (cta/warp/occurrence/pipe); this function decides whether the event
    *fires* and what it corrupts.  ``dest`` is the destination register
    index; ``values`` is the ``(32,)`` uint32 (or uint64 when
    ``is_64bit``) result vector and ``mask`` the boolean execution mask.

    Returns ``(values, protected)``: the possibly-corrupted result and
    the set of freshly-tainted ``(register, lane)`` keys the writeback
    must not clear.  One event may flip several bits
    (``plan.strike_bits``) in several lanes (``plan.strike_lanes``);
    bits past the value's width are dropped, not wrapped, and lanes
    that are inactive under the execution mask are untouched.
    """
    protected = set()
    active_lanes = [lane for lane in plan.strike_lanes if mask[lane]]
    if not active_lanes:
        return values, protected  # struck only inactive lanes: masked
    if plan.where == "storage" and role == "shadow":
        # Shadows own no data segment, so there is no stored data bit
        # for a storage strike to hit; the plan stays unfired.
        return values, protected
    state.fault_fired = True
    width = 64 if is_64bit else 32
    strike = plan.strike_mask(width)
    if strike == 0:
        # Every strike bit clipped past the value's edge: the event
        # fired without corrupting anything (campaigns bin it masked).
        return values, protected
    halves = _strike_halves(strike, is_64bit)

    if plan.where == "predictor":
        if taint is not None and role == "predicted":
            for lane in active_lanes:
                true_value = int(values[lane])
                for offset, half_mask in halves:
                    register = dest + offset
                    true_word = (true_value >> (32 * offset)) \
                        & 0xFFFF_FFFF
                    bits = [index for index in range(32)
                            if half_mask >> index & 1]
                    if taint.taint_check_strike(
                            register, lane, true_word, bits):
                        protected.add((register, lane))
        return values, protected

    corrupted = values.copy()
    for lane in active_lanes:
        true_value = int(corrupted[lane])
        bad_value = true_value ^ strike
        if is_64bit:
            corrupted[lane] = np.uint64(bad_value)
        else:
            corrupted[lane] = np.uint32(bad_value & 0xFFFF_FFFF)

        if plan.where == "storage":
            # The strike lands in the RF cell after the pair
            # completes: the architectural data flips, but the check
            # bits (and the DP bit) keep describing the true value,
            # so correcting schemes scrub it at the next read.
            if taint is not None:
                for offset, half_mask in halves:
                    register = dest + offset
                    true_word = (true_value >> (32 * offset)) \
                        & 0xFFFF_FFFF
                    taint.taint_storage_mask(
                        register, lane, true_word, half_mask)
                    protected.add((register, lane))
            continue

        # Data-path fault: corrupt the computed value.
        if taint is not None and role != "shadow":
            # Shadows never write data: the masked-writeback compare
            # in write_result turns their corrupted value into a
            # check-only taint, so no word is created here.
            for offset, half_mask in halves:
                register = dest + offset
                true_word = (true_value >> (32 * offset)) & 0xFFFF_FFFF
                bad_word = true_word ^ half_mask
                if role == "predicted":
                    taint.taint_data_with_true_check(
                        register, lane, bad_word, true_word)
                else:
                    # Originals (and unpaired writes) emit a valid
                    # codeword of the bad value; the shadow's later
                    # masked write exposes it.
                    taint.taint_original(register, lane, bad_word)
                protected.add((register, lane))
    return corrupted, protected


def _strike_halves(strike: int, is_64bit: bool):
    """Split a strike mask into per-register (offset, 32-bit mask) parts.

    64-bit values live in two consecutive 32-bit registers, so a wide
    strike may taint both; each returned entry names the register
    offset from the destination and the mask within that word.
    """
    if not is_64bit:
        return [(0, strike & 0xFFFF_FFFF)]
    halves = []
    if strike & 0xFFFF_FFFF:
        halves.append((0, strike & 0xFFFF_FFFF))
    if strike >> 32:
        halves.append((1, strike >> 32))
    return halves


def global_access_profile(addresses: np.ndarray, mask: np.ndarray,
                          wide: bool) -> Tuple[int, tuple]:
    """Coalescing profile of one global access in a single pass.

    Returns ``(transactions, segments)``.  ``transactions`` is the
    number of distinct 128-byte (32-word) segments touched, summed over
    the one (narrow) or two (wide) 32-bit parts — wide accesses issue
    each part as its own warp-wide transaction.  ``segments`` is
    the sorted tuple of all distinct segment indices (for the SM cache
    model).  ``addresses`` must already be masked-safe (inactive lanes
    zeroed) uint32 words; the high part of a wide access wraps at 2**32
    like the uint32 address arithmetic it models.
    """
    active = addresses[mask].tolist()
    if not active:
        return 0, ()
    low = {address >> 5 for address in active}
    if not wide:
        return len(low), tuple(sorted(low))
    high = {((address + 1) & 0xFFFF_FFFF) >> 5 for address in active}
    return len(low) + len(high), tuple(sorted(low | high))


def shared_bank_conflicts(addresses: np.ndarray, mask: np.ndarray,
                          wide: bool) -> int:
    """Serialized shared-memory conflict count for one access.

    Lanes reading the same address broadcast (one access), so each
    32-bit part counts *distinct* addresses per bank, maximized over
    the 32 banks; wide accesses sum their two parts (the high part's
    address wraps at 2**32, as uint32 arithmetic does).
    """
    active = addresses[mask].tolist()
    if not active:
        return 0
    conflicts = _max_addresses_per_bank(set(active))
    if wide:
        conflicts += _max_addresses_per_bank(
            {(address + 1) & 0xFFFF_FFFF for address in active})
    return conflicts


def _max_addresses_per_bank(distinct) -> int:
    """The most distinct word addresses any one of the 32 banks serves."""
    per_bank = [0] * 32
    for address in distinct:
        per_bank[address & 31] += 1
    return max(per_bank)
