/**
 * @file
 * Functional emulator tests: architectural semantics, call/return,
 * recursion, memory, tracing, statistics.
 */

#include <gtest/gtest.h>

#include "arch/emulator.hh"
#include "compiler/compile.hh"
#include "test_programs.hh"

namespace dvi
{
namespace arch
{
namespace
{

std::int64_t
globalWord(const Emulator &emu, unsigned index)
{
    return emu.memory().read(emu.executable().globalBase + 8 * index);
}

TEST(Emulator, SumLoopComputesCorrectResult)
{
    comp::Executable exe = comp::compile(testprog::sumProgram(100));
    Emulator emu(exe);
    emu.run();
    EXPECT_TRUE(emu.halted());
    EXPECT_EQ(globalWord(emu, 0), 5050);
}

TEST(Emulator, RecursiveFactorial)
{
    comp::Executable exe =
        comp::compile(testprog::factorialProgram(10));
    EmulatorOptions opts;
    opts.strictDeadReads = true;  // also validates E-DVI soundness
    Emulator emu(exe, opts);
    emu.run();
    EXPECT_TRUE(emu.halted());
    EXPECT_EQ(globalWord(emu, 0), 3628800);
    // main->fact(10)->...->fact(1)->fact(0): depth 11.
    EXPECT_EQ(emu.stats().maxCallDepth, 11u);
    EXPECT_EQ(emu.stats().deadReads, 0u);
}

TEST(Emulator, Fig7ProgramRunsAndCounts)
{
    comp::Executable exe = comp::compile(testprog::fig7Program());
    EmulatorOptions opts;
    opts.strictDeadReads = true;
    Emulator emu(exe, opts);
    emu.run();
    EXPECT_TRUE(emu.halted());
    const EmulatorStats &s = emu.stats();
    EXPECT_EQ(s.calls, s.returns + 0u);  // every call returned
    EXPECT_GT(s.saves, 0u);
    EXPECT_EQ(s.saves, s.restores);
    // Two eliminable pairs: the callee's save of s0 under caller2's
    // kill at its second call, and caller2's own prologue save of s0
    // (main's first cross-call value dies before it calls caller2,
    // so main kills s0 too). caller1's path eliminates nothing.
    EXPECT_EQ(s.saveElimOracle, 2u);
    EXPECT_EQ(s.restoreElimOracle, 2u);
}

TEST(Emulator, StepProducesTraceRecords)
{
    comp::Executable exe = comp::compile(testprog::sumProgram(3));
    Emulator emu(exe);
    TraceRecord tr;
    std::uint64_t steps = 0;
    std::uint64_t branches = 0, taken = 0;
    while (emu.step(&tr)) {
        ++steps;
        if (tr.inst.isCondBranch()) {
            ++branches;
            taken += tr.taken;
        }
        if (!tr.inst.isControl() && !tr.inst.isHalt()) {
            EXPECT_EQ(tr.nextPc, tr.pc + 1);
        }
    }
    EXPECT_EQ(steps, emu.stats().insts);
    EXPECT_EQ(branches, 3u);  // loop executes 3 times
    EXPECT_EQ(taken, 2u);     // last iteration falls through
}

TEST(Emulator, StepAfterHaltReturnsFalse)
{
    comp::Executable exe = comp::compile(testprog::sumProgram(1));
    Emulator emu(exe);
    emu.run();
    EXPECT_TRUE(emu.halted());
    EXPECT_FALSE(emu.step());
}

TEST(Emulator, RunWithBudgetStopsEarly)
{
    comp::Executable exe = comp::compile(testprog::sumProgram(1000));
    Emulator emu(exe);
    EXPECT_EQ(emu.run(50), 50u);
    EXPECT_FALSE(emu.halted());
}

TEST(Emulator, MemoryRoundTrip)
{
    Memory mem;
    EXPECT_EQ(mem.read(0x1000), 0);  // unwritten reads as zero
    mem.write(0x1000, -42);
    EXPECT_EQ(mem.read(0x1000), -42);
}

/** First byte of 4 KB page `idx`; Memory's page table has 16 sets,
 * indexed by the page number's low four bits. */
constexpr Addr
pageAddr(std::uint64_t idx)
{
    return idx * 4096;
}

TEST(Memory, PagesSharingASetKeepTheirOwnWords)
{
    // Pages 3 and 19 share a set, so alternating between them
    // misses every time; each access must still reach its own page.
    Memory mem;
    for (int k = 0; k < 4; ++k) {
        mem.write(pageAddr(3) + 8 * k, 100 + k);
        mem.write(pageAddr(19) + 8 * k, 200 + k);
        EXPECT_EQ(mem.read(pageAddr(3) + 8 * k), 100 + k);
    }
    for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(mem.read(pageAddr(19) + 8 * k), 200 + k);
        EXPECT_EQ(mem.read(pageAddr(3) + 8 * k), 100 + k);
    }
}

TEST(Memory, HoldsMorePagesThanThePageTableHasSets)
{
    Memory mem;
    constexpr int pages = 40;
    for (int p = 0; p < pages; ++p)
        mem.write(pageAddr(p) + 8, -p - 1);
    for (int p = pages - 1; p >= 0; --p) {
        EXPECT_EQ(mem.read(pageAddr(p) + 8), -p - 1) << "page " << p;
        EXPECT_EQ(mem.read(pageAddr(p)), 0) << "page " << p;
    }
}

TEST(Memory, NeverWrittenPageReadsZero)
{
    Memory mem;
    mem.write(pageAddr(5), 9);
    // Page 21 shares page 5's set; reading it allocates nothing and
    // leaves page 5 in place.
    EXPECT_EQ(mem.read(pageAddr(21)), 0);
    EXPECT_EQ(mem.read(pageAddr(0x7ffff) + 8), 0);
    EXPECT_EQ(mem.read(pageAddr(5)), 9);
}

TEST(MemoryDeath, UnalignedAccessPanics)
{
    Memory mem;
    EXPECT_DEATH(mem.write(0x1001, 1), "unaligned");
    EXPECT_DEATH((void)mem.read(0x1007), "unaligned");
}

TEST(Emulator, DivisionByZeroYieldsZero)
{
    using namespace prog;
    Module mod;
    mod.globalWords = 2;
    mod.procs.resize(1);
    Procedure &main = mod.procs[0];
    main.name = "main";
    VReg a = main.newVReg(), z = main.newVReg(), d = main.newVReg(),
         gp = main.newVReg();
    int b0 = main.newBlock();
    main.emit(b0, irLoadImm(a, 7));
    main.emit(b0, irLoadImm(z, 0));
    main.emit(b0, irAlu(IrOp::Div, d, a, z));
    main.emit(b0, irLoadImm(gp, static_cast<std::int32_t>(
                                    Module::globalBase)));
    main.emit(b0, irStore(d, gp, 0));
    main.emit(b0, irHalt());

    Emulator emu(comp::compile(mod));
    emu.run();
    EXPECT_EQ(emu.memory().read(Module::globalBase), 0);
}

TEST(Emulator, ResultHashIsDeterministic)
{
    comp::Executable exe = comp::compile(testprog::sumProgram(50));
    Emulator a(exe), b(exe);
    a.run();
    b.run();
    EXPECT_EQ(a.resultHash(), b.resultHash());
}

TEST(Emulator, ResultHashSensitiveToResult)
{
    comp::Executable e1 = comp::compile(testprog::sumProgram(50));
    comp::Executable e2 = comp::compile(testprog::sumProgram(51));
    Emulator a(e1), b(e2);
    a.run();
    b.run();
    EXPECT_NE(a.resultHash(), b.resultHash());
}

TEST(Emulator, StatsClassifyInstructionMix)
{
    comp::Executable exe =
        comp::compile(testprog::factorialProgram(6));
    Emulator emu(exe);
    emu.run();
    const EmulatorStats &s = emu.stats();
    EXPECT_EQ(s.insts, s.progInsts + s.kills);
    EXPECT_EQ(s.memRefs, s.loads + s.stores);
    EXPECT_GT(s.calls, 0u);
    EXPECT_GT(s.condBranches, 0u);
    EXPECT_GE(s.condBranches, s.takenBranches);
}

TEST(Emulator, LvmSaveLoadInstructions)
{
    using namespace prog;
    // Hand-assemble at machine level: kill some registers, lvm-save,
    // define one again, lvm-load, halt — then inspect the LVM.
    comp::Executable exe;
    exe.name = "lvmtest";
    exe.globalBase = Module::globalBase;
    exe.globalWords = 2;
    using isa::Instruction;
    exe.code.push_back(
        Instruction::aluImm(isa::Opcode::Addi, 8, 0, 1));  // t0 live
    exe.code.push_back(
        Instruction::aluImm(isa::Opcode::Addi, 10, 0, 3)); // t2 live
    exe.code.push_back(Instruction::kill(RegMask{8, 9}));
    exe.code.push_back(Instruction::lvmSave(isa::regSp, -8));
    exe.code.push_back(
        Instruction::aluImm(isa::Opcode::Addi, 8, 0, 2));  // t0 live
    exe.code.push_back(Instruction::lvmLoad(isa::regSp, -8));
    exe.code.push_back(Instruction::halt());
    exe.procs.push_back(comp::ProcInfo{"main", 0, 7});
    exe.entry = 0;

    Emulator emu(exe);
    emu.run();
    // The lvm-load restored the mask saved at the kill point: t0
    // dead again even though it was redefined in between.
    EXPECT_FALSE(emu.lvm().isLive(8));
    EXPECT_FALSE(emu.lvm().isLive(9));
    EXPECT_TRUE(emu.lvm().isLive(10));
}

TEST(EmulatorDeath, RunawayPcPanics)
{
    comp::Executable exe;
    exe.name = "nohalt";
    exe.code.push_back(isa::Instruction::nop());
    exe.procs.push_back(comp::ProcInfo{"main", 0, 1});
    exe.entry = 0;
    Emulator emu(exe);
    EXPECT_DEATH(emu.run(), "outside code image");
}

} // namespace
} // namespace arch
} // namespace dvi
