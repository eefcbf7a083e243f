"""The pre-decoded instruction stream shared by every warp executor.

A kernel's :class:`~repro.gpu.isa.Instruction` objects are rich and
mutable: compiler passes edit their ``meta``, and answering "which pipe,
which registers, which role" from them means enum lookups, dict probes
and operand walks.  The executors ask those questions on every step, so
each launch first decodes its kernel into a flat tuple of
:class:`Decoded` records — one per instruction, indexed by pc — that
hold every answer as a plain attribute, plus the execute handler
resolved on the executing warp class.

The table is built per launch (``Warp.decode``), never cached on the
instructions: a kernel edited between two launches is decoded afresh,
so nothing here can go stale.  Decoding never fails on an opcode
without semantics; such a record carries a handler that raises
:class:`~repro.errors.SimulationError` ("unimplemented opcode") when the
instruction is *executed*.

This module also owns the opcode semantics tables the handlers apply
and the Figure 13 mix classification (:func:`mix_category`).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from repro.gpu.isa import (OPCODES, RZ, DupClass, Instruction, OperandKind,
                           OpSpec, Pipe)
from repro.gpu.program import Kernel

#: pipes whose register-writing instructions advance the datapath
#: occurrence counter (the fault-injection window of a FaultPlan)
DATAPATH_PIPES = ("alu", "fma32", "fma64", "sfu")

#: Figure 13 stack order, bottom to top
MIX_CATEGORIES = ("not_eligible", "checked_predicted", "checked_duplicated",
                  "inserted", "checking")

#: what decoding assumes of an opcode the ISA does not define (it can
#: still be scheduled; executing it raises)
_UNDEFINED_SPEC = OpSpec("?", Pipe.ALU, 1, 1, DupClass.NEUTRAL,
                         writes_dest=False)

_U32_MASK = np.uint64(0xFFFF_FFFF)


def _shift_mask(values: np.ndarray) -> np.ndarray:
    return values & np.uint32(31)


def _imad(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    wide = a.astype(np.uint64) * b.astype(np.uint64) + c.astype(np.uint64)
    return (wide & _U32_MASK).astype(np.uint32)


#: 32-bit integer ops: uint32 lane vectors in, uint32 out
ALU_OPS: Dict[str, Callable] = {
    "IADD": lambda a, b: a + b,
    "ISUB": lambda a, b: a - b,
    "IMUL": lambda a, b: a * b,
    "IMAD": _imad,
    "IMIN": lambda a, b: np.minimum(a.view(np.int32),
                                    b.view(np.int32)).view(np.uint32),
    "IMAX": lambda a, b: np.maximum(a.view(np.int32),
                                    b.view(np.int32)).view(np.uint32),
    "SHL": lambda a, b: a << _shift_mask(b),
    "SHR": lambda a, b: a >> _shift_mask(b),
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "NOT": lambda a: ~a,
}

FP32_OPS: Dict[str, Callable] = {
    "FADD": lambda a, b: a + b,
    "FSUB": lambda a, b: a - b,
    "FMUL": lambda a, b: a * b,
    "FFMA": lambda a, b, c: a * b + c,
    "FMIN": np.minimum,
    "FMAX": np.maximum,
    "FRCP": lambda a: np.float32(1.0) / a,
    "FSQRT": np.sqrt,
    "FEXP": np.exp,
    "FLOG": lambda a: np.log(np.abs(a) + np.float32(1e-30)),
}

FP64_OPS: Dict[str, Callable] = {
    "DADD": lambda a, b: a + b,
    "DSUB": lambda a, b: a - b,
    "DMUL": lambda a, b: a * b,
    "DFMA": lambda a, b, c: a * b + c,
    "DRCP": lambda a: 1.0 / a,
}

COMPARES: Dict[str, Callable] = {
    "LT": lambda a, b: a < b,
    "LE": lambda a, b: a <= b,
    "EQ": lambda a, b: a == b,
    "NE": lambda a, b: a != b,
    "GE": lambda a, b: a >= b,
    "GT": lambda a, b: a > b,
}

#: SHFL modes: (lane, amount) -> the lane each lane reads from
SHUFFLES: Dict[str, Callable] = {
    "BFLY": lambda lanes, amount: lanes ^ amount,
    "UP": lambda lanes, amount: lanes - amount,
    "DOWN": lambda lanes, amount: lanes + amount,
    "IDX": lambda lanes, amount: amount,
}

#: memory opcode -> what ``_exec_memory`` does with the addressed words
_MEMORY_KINDS = {"LDG": "load", "LDS": "load", "STG": "store",
                 "STS": "store", "ATOM": "atom"}

#: opcode -> executor method implementing it (MOV picks its 32- or
#: 64-bit form from the destination at decode time)
HANDLERS: Dict[str, str] = {
    **{op: "_exec_alu" for op in ALU_OPS},
    **{op: "_exec_fp32" for op in FP32_OPS},
    **{op: "_exec_fp64" for op in FP64_OPS},
    "MOV": "_exec_mov", "I2F": "_exec_i2f", "F2I": "_exec_f2i",
    "ISETP": "_exec_setp", "FSETP": "_exec_setp", "DSETP": "_exec_setp",
    "SEL": "_exec_sel", "S2R": "_exec_s2r", "SHFL": "_exec_shfl",
    **{op: "_exec_memory" for op in _MEMORY_KINDS},
    "BRA": "_exec_branch", "EXIT": "_exec_exit", "BAR": "_exec_barrier",
    "BPT": "_exec_trap", "NOP": "_exec_nop",
}

#: control opcodes: their handlers run even with no executing lane and
#: take the stack entry (``handler(warp, rec, entry, active, mask)``);
#: every other handler is ``handler(warp, rec, mask) -> transactions``
CONTROL_OPS = frozenset(("BRA", "EXIT", "BAR", "BPT", "NOP"))

#: the operand reader each SETP flavour compares with
_SETP_READERS = {"ISETP": "read_i32", "FSETP": "read_f32",
                 "DSETP": "read_f64"}


def mix_category(instruction: Instruction) -> str:
    """The Figure 13 class one dynamic instance of ``instruction`` counts in.

    One of :data:`MIX_CATEGORIES`, or ``plain_eligible`` for an
    eligible instruction of an untransformed kernel.
    """
    klass = instruction.meta.get("klass", "baseline")
    if klass in ("checking", "inserted"):
        return klass
    if klass == "duplicated":
        return "checked_duplicated"
    if klass == "predicted":
        return "checked_predicted"
    # a baseline instruction of the original program
    role = instruction.meta.get("role")
    if role == "original":
        return "checked_duplicated"
    if role == "predicted":
        return "checked_predicted"
    spec = OPCODES.get(instruction.op, _UNDEFINED_SPEC)
    if spec.dup_class in (DupClass.BOUNDARY, DupClass.NEUTRAL):
        return "not_eligible"
    return "plain_eligible"


class Decoded:
    """One instruction, decoded for execution and scheduling."""

    __slots__ = (
        "instruction", "pc", "op", "control", "execute", "fn", "read",
        "srcs", "dest_reg", "pred_dest", "predicate", "predicate_negated",
        "pipe", "pipe_name", "latency", "interval", "lsu",
        "l1_load", "datapath", "advances", "src_regs", "dst_regs",
        "pred_reads", "role", "shadow", "wide", "global_space", "mem_kind",
        "atom_op", "offset", "target_pc", "reconv_pc",
        "barrier", "exits", "mix")

    def __init__(self, instruction: Instruction, pc: int,
                 labels: Dict[str, int], executor: type):
        op = instruction.op
        spec = OPCODES.get(op, _UNDEFINED_SPEC)
        meta = instruction.meta
        modifiers = meta.get("modifiers", ())
        dest = instruction.dest
        sources = tuple(instruction.sources)

        self.instruction = instruction
        self.pc = pc
        self.op = op
        self.control = op in CONTROL_OPS
        handler = HANDLERS.get(op, "_exec_unimplemented")
        if op == "MOV" and dest is not None \
                and dest.kind is OperandKind.REGISTER64:
            handler = "_exec_mov64"
        self.execute = getattr(executor, handler)
        self.fn = (ALU_OPS.get(op) or FP32_OPS.get(op) or FP64_OPS.get(op)
                   or COMPARES.get(instruction.compare))
        if op == "SHFL":
            self.fn = SHUFFLES[next((mode for mode in ("BFLY", "UP", "DOWN")
                                     if mode in modifiers), "IDX")]
        self.read = getattr(executor, _SETP_READERS[op]) \
            if op in _SETP_READERS else None
        self.srcs = sources

        # operands
        predicate_dest = dest is not None \
            and dest.kind is OperandKind.PREDICATE
        self.pred_dest = dest.value if predicate_dest else None
        self.dest_reg = None if (dest is None or predicate_dest
                                 or dest.value == RZ) else dest.value
        self.predicate = instruction.predicate
        self.predicate_negated = instruction.predicate_negated
        self.src_regs = tuple(register for operand in sources
                              for register in operand.registers())
        self.dst_regs = dest.registers() \
            if dest is not None and spec.writes_dest else ()
        pred_reads = [] if instruction.predicate is None \
            else [instruction.predicate]
        pred_reads.extend(operand.value for operand in sources
                          if operand.kind is OperandKind.PREDICATE)
        self.pred_reads = tuple(pred_reads)

        # timing
        self.pipe = spec.pipe
        self.pipe_name = spec.pipe.value
        self.latency = spec.latency
        self.interval = spec.initiation_interval
        self.lsu = spec.pipe is Pipe.LSU
        self.l1_load = op in ("LDG", "ATOM")
        self.datapath = self.pipe_name in DATAPATH_PIPES
        self.advances = spec.writes_dest and self.datapath

        # resilience role and Figure 13 class
        self.role = meta.get("role")
        self.shadow = self.role == "shadow"
        self.mix = mix_category(instruction)

        # memory and shuffle shape
        self.global_space = op in ("LDG", "STG", "ATOM")
        self.mem_kind = _MEMORY_KINDS.get(op)
        self.wide = "64" in modifiers or (
            dest is not None and dest.kind is OperandKind.REGISTER64) or (
            op in ("STG", "STS") and len(sources) > 1
            and sources[1].kind is OperandKind.REGISTER64)
        self.atom_op = next((m for m in modifiers
                             if m in ("ADD", "MAX", "MIN", "EXCH")), None)
        self.offset = instruction.offset

        # control flow
        self.target_pc = labels[instruction.target] \
            if instruction.target is not None else None
        self.reconv_pc = labels[instruction.reconverge] \
            if instruction.reconverge is not None else pc + 1
        self.barrier = op == "BAR"
        self.exits = op == "EXIT"

    def __repr__(self) -> str:
        return f"Decoded({self.pc}: {self.instruction})"


def decode_kernel(kernel: Kernel, executor: type) -> Tuple[Decoded, ...]:
    """Decode every instruction of ``kernel`` for ``executor`` (a warp class).

    Handlers resolve on ``executor``, so a subclass that overrides one
    (the trial-batched ``TrialWarp``) gets its own in the table.  The
    kernel is validated first (every branch label must resolve).
    """
    kernel.validate()
    labels = kernel.labels
    return tuple(Decoded(instruction, pc, labels, executor)
                 for pc, instruction in enumerate(kernel.instructions))
