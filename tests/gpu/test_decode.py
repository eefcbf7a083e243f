"""The pre-decoded instruction stream and the executors' errstate scope.

Every executor runs a launch from a per-launch table of decoded records
(:mod:`repro.gpu.decode`).  These tests pin what that table promises:
every ISA opcode has a handler, an opcode without one fails when it is
executed (not when it is decoded), a kernel edited between launches is
decoded afresh, and IEEE special results raise no host warning on any
execution path — the loops that drive the executors own the
``np.errstate`` scope.
"""

import warnings

import numpy as np
import pytest

from repro.compiler import CodeMixProfiler
from repro.errors import SimulationError
from repro.gpu import Device, LaunchConfig, MemorySpace, assemble
from repro.gpu import run_functional, run_functional_cta
from repro.gpu.decode import (CONTROL_OPS, HANDLERS, Decoded, decode_kernel,
                              mix_category)
from repro.gpu.isa import (OPCODES, DupClass, Instruction, Operand, OpSpec,
                           Pipe)
from repro.gpu.program import Kernel
from repro.gpu.resilience import ResilienceState
from repro.gpu.tensor import (TRIAL_FALLBACK, TRIAL_OK, TrialWarp,
                              run_trials)
from repro.gpu.warp import Warp

#: one lane vector per IEEE corner: 1/0, 1/0 (fp64), exp overflow,
#: log(0), and F2I of NaN, +inf and -inf
IEEE_SPECIALS = """
    S2R R0, SR_TID
    SHL R8, R0, 1
    MOV R1, 0
    FRCP R2, R1
    STG [R0], R2
    DRCP RD4, RD6
    STG [R8+32], RD4
    MOV R3, 100.0
    FEXP R9, R3
    STG [R0+96], R9
    FLOG R10, R1
    STG [R0+128], R10
    MOV R11, 0x7FC00000
    F2I R12, R11
    STG [R0+160], R12
    MOV R13, 0x7F800000
    F2I R14, R13
    STG [R0+192], R14
    MOV R15, 0xFF800000
    F2I R16, R15
    STG [R0+224], R16
    EXIT
"""
IEEE_WORDS = 256
IEEE_LAUNCH = LaunchConfig(1, 32)


def ieee_expected() -> np.ndarray:
    """The result image, as the simulator computed it before the hoist."""
    words = np.zeros(IEEE_WORDS, dtype=np.uint32)
    words[0:32] = 0x7F800000                  # FRCP(0) = +inf
    words[33:96:2] = 0x7FF00000               # DRCP(0) = +inf (high words)
    words[96:128] = 0x7F800000                # FEXP(100) overflows to +inf
    words[128:160] = 0xC28A27B5               # FLOG(0) = log(1e-30)
    words[160:192] = 0                        # F2I(NaN) = 0
    words[192:224] = 0x80000000               # F2I(+inf)
    words[224:256] = 0x80000000               # F2I(-inf) = INT_MIN
    return words


class TestErrstateHoist:
    """No RuntimeWarning escapes any executor on IEEE special results."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_device_launch(self):
        memory = MemorySpace(IEEE_WORDS)
        Device().launch(assemble("ieee", IEEE_SPECIALS), IEEE_LAUNCH, memory)
        assert np.array_equal(memory.words, ieee_expected())

    def test_run_functional(self):
        memory = MemorySpace(IEEE_WORDS)
        run_functional(assemble("ieee", IEEE_SPECIALS), IEEE_LAUNCH, memory)
        assert np.array_equal(memory.words, ieee_expected())

    def test_run_functional_cta(self):
        memory = MemorySpace(IEEE_WORDS)
        run_functional_cta(assemble("ieee", IEEE_SPECIALS), IEEE_LAUNCH, 0,
                           memory)
        assert np.array_equal(memory.words, ieee_expected())

    def test_run_trials(self):
        result = run_trials(assemble("ieee", IEEE_SPECIALS), IEEE_LAUNCH,
                            np.zeros(IEEE_WORDS, dtype=np.uint32),
                            [ResilienceState(), ResilienceState()])
        assert result.outcomes == [TRIAL_OK, TRIAL_OK]
        for trial in range(2):
            assert np.array_equal(result.memory.image_of(trial),
                                  ieee_expected())

    def test_the_kernel_does_warn_outside_an_executor(self):
        # The corners are real: the same arithmetic on the host warns.
        with pytest.raises(RuntimeWarning):
            np.float32(1.0) / np.zeros(1, dtype=np.float32)


def _every_opcode_kernel() -> Kernel:
    return Kernel("every-op", [Instruction(op=op) for op in OPCODES])


class TestDecodeCoverage:
    def test_every_opcode_has_a_handler_on_both_executors(self):
        assert set(HANDLERS) == set(OPCODES)
        for executor in (Warp, TrialWarp):
            for op, name in HANDLERS.items():
                assert callable(getattr(executor, name)), (executor, op)

    def test_every_opcode_decodes_to_its_handler(self):
        kernel = _every_opcode_kernel()
        for executor in (Warp, TrialWarp):
            for rec in decode_kernel(kernel, executor):
                assert rec.execute is getattr(executor, HANDLERS[rec.op])
                assert rec.control == (rec.op in CONTROL_OPS)
                assert rec.mix == mix_category(rec.instruction)

    def test_trial_overrides_land_in_the_trial_table(self):
        kernel = _every_opcode_kernel()
        table = {rec.op: rec for rec in TrialWarp.decode(kernel)}
        for op, name in (("SHFL", "_exec_shfl"), ("LDG", "_exec_memory"),
                         ("BAR", "_exec_barrier"), ("BPT", "_exec_trap")):
            assert table[op].execute is getattr(TrialWarp, name)
            assert table[op].execute is not getattr(Warp, name)

    def test_decoded_fields_mirror_the_instruction(self):
        kernel = assemble("k", """
            ISETP.LT P1, R2, R3
        @!P1 DFMA RD4, RD6, RD8, RD10
            SEL R12, R13, R14, P1
            EXIT
        """)
        setp, dfma, sel, __ = Warp.decode(kernel)
        assert setp.pred_dest == 1 and setp.dest_reg is None
        assert setp.src_regs == (2, 3) and not setp.advances
        assert dfma.predicate == 1 and dfma.predicate_negated
        assert dfma.pred_reads == (1,) and dfma.wide
        assert dfma.dst_regs == (4, 5) and dfma.dest_reg == 4
        assert (dfma.pipe, dfma.latency, dfma.interval) == (Pipe.FMA64, 8, 2)
        assert dfma.datapath and dfma.advances
        assert sel.pred_reads == (1,)


def _kernel_with(instruction: Instruction) -> Kernel:
    kernel = assemble("k", "MOV R1, 1\nEXIT")
    kernel.instructions.insert(1, instruction)
    return kernel


class TestUnimplementedOpcode:
    """Decoding succeeds; executing the instruction raises."""

    @pytest.fixture(params=["isa", "unknown"])
    def kernel(self, request, monkeypatch):
        if request.param == "isa":
            # an opcode the ISA defines but no executor implements
            monkeypatch.setitem(OPCODES, "FAKE", OpSpec(
                "FAKE", Pipe.ALU, 6, 1, DupClass.ELIGIBLE))
        return _kernel_with(Instruction(
            op="FAKE", dest=Operand.reg(2), sources=[Operand.reg(1)]))

    def test_decoding_does_not_raise(self, kernel):
        for executor in (Warp, TrialWarp):
            rec = executor.decode(kernel)[1]
            assert rec.execute is executor._exec_unimplemented

    def test_functional_execution_raises(self, kernel):
        with pytest.raises(SimulationError, match="unimplemented opcode"):
            run_functional(kernel, LaunchConfig(1, 32), MemorySpace(8))

    def test_timed_execution_raises(self, kernel):
        with pytest.raises(SimulationError, match="unimplemented opcode"):
            Device().launch(kernel, LaunchConfig(1, 32), MemorySpace(8))

    def test_batched_execution_falls_back(self, kernel):
        result = run_trials(kernel, LaunchConfig(1, 32),
                            np.zeros(8, dtype=np.uint32),
                            [ResilienceState()])
        assert result.outcomes == [TRIAL_FALLBACK]
        assert result.fallback_reasons == ["union_error"]

    def test_an_unexecuted_instance_never_raises(self, kernel):
        kernel.instructions[1].predicate = 0  # P0 is false in every lane
        run_functional(kernel, LaunchConfig(1, 32), MemorySpace(8))


class TestPerLaunchDecode:
    def test_kernel_edited_between_launches_is_decoded_afresh(self):
        kernel = assemble("k", """
            MOV R1, 1
            IADD R2, R1, R1
            EXIT
        """)
        counts = []
        for role in (None, "original"):
            if role is not None:
                kernel.instructions[1].meta["role"] = role
            profiler = CodeMixProfiler()
            Device().launch(kernel, LaunchConfig(1, 32), MemorySpace(8),
                            observer=profiler)
            counts.append(profiler.counts)
        assert counts[0].plain_eligible == 2      # MOV and IADD
        assert counts[0].checked_duplicated == 0
        assert counts[1].plain_eligible == 1      # MOV
        assert counts[1].checked_duplicated == 1  # IADD, now an original

    def test_records_are_built_per_call(self):
        kernel = assemble("k", "IADD R2, R1, R1\nEXIT")
        first = Warp.decode(kernel)
        kernel.instructions[0].meta["role"] = "shadow"
        second = Warp.decode(kernel)
        assert first[0] is not second[0]
        assert (first[0].role, first[0].shadow) == (None, False)
        assert (second[0].role, second[0].shadow) == ("shadow", True)
        assert isinstance(second[0], Decoded)
