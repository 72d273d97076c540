/**
 * @file
 * Tier-1 translation tests: basic-block formation, the pre-baked
 * dead-read probe lists and per-block probe summaries, the hoisted
 * liveness probes, interpreter/cache lockstep over branches,
 * fuel-guarded back edges and mutual recursion, misaligned-fault
 * paths (mid-block prefix stats), and TranslationCache keying —
 * per-executable invalidation, LRU eviction, recompile staleness,
 * and multi-threaded sharing of one translation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/emulator.hh"
#include "arch/xlate.hh"
#include "arch/xlate_cache.hh"
#include "compiler/compile.hh"
#include "fuzz/oracle.hh"
#include "fuzz/program_gen.hh"
#include "isa/decode.hh"
#include "test_programs.hh"

namespace dvi
{
namespace arch
{
namespace
{

using isa::Instruction;
using isa::Opcode;

/** Minimal runnable image around a hand-assembled code vector. */
comp::Executable
assemble(std::vector<Instruction> code)
{
    comp::Executable exe;
    exe.name = "xlate-test";
    exe.globalBase = prog::Module::globalBase;
    exe.globalWords = 8;
    exe.code = std::move(code);
    exe.procs.push_back(comp::ProcInfo{
        "main", 0, static_cast<int>(exe.code.size())});
    exe.entry = 0;
    return exe;
}

/** Stats equality across every EmulatorStats field. */
void
expectStatsEq(const EmulatorStats &a, const EmulatorStats &b)
{
    EmulatorStats::forEachCounter([&](const char *name, auto field) {
        EXPECT_EQ(a.*field, b.*field) << name;
    });
}

/** Run `exe` under both tiers with identical options and require
 * bit-identical stats, halt state, registers, liveness state (LVM,
 * LVM-Stack, live FP registers) and result hash. */
void
expectTierParity(const comp::Executable &exe, EmulatorOptions opts,
                 std::uint64_t max_insts = 0)
{
    opts.tier = ExecTier::Interp;
    Emulator interp(exe, opts);
    interp.run(max_insts);

    opts.tier = ExecTier::Xlate;
    Emulator xlate(exe, opts);
    xlate.run(max_insts);

    EXPECT_EQ(interp.halted(), xlate.halted());
    EXPECT_EQ(interp.faulted(), xlate.faulted());
    EXPECT_EQ(interp.faultPc(), xlate.faultPc());
    EXPECT_EQ(interp.pc(), xlate.pc());
    expectStatsEq(interp.stats(), xlate.stats());
    for (RegIndex r = 0; r < isa::numIntRegs; ++r)
        EXPECT_EQ(interp.intReg(r), xlate.intReg(r)) << "r" << int(r);
    EXPECT_EQ(interp.lvm().mask(), xlate.lvm().mask());
    EXPECT_EQ(interp.lvmStack().size(), xlate.lvmStack().size());
    EXPECT_EQ(interp.lvmStack().top(), xlate.lvmStack().top());
    EXPECT_EQ(interp.fpLive(), xlate.fpLive());
    EXPECT_EQ(interp.resultHash(), xlate.resultHash());
}

/** Stats of a run of `exe` on the translation tier. */
EmulatorStats
xlateStats(const comp::Executable &exe, EmulatorOptions opts)
{
    opts.tier = ExecTier::Xlate;
    Emulator emu(exe, opts);
    emu.run();
    return emu.stats();
}

// ------------------------------------------------- block formation

TEST(TranslateBlock, StraightLineEndsAtHaltInclusive)
{
    const comp::Executable exe = assemble({
        Instruction::aluImm(Opcode::Addi, 8, 0, 1),
        Instruction::aluImm(Opcode::Addi, 9, 8, 2),
        Instruction::halt(),
        Instruction::nop(),  // unreachable, next block's leader
    });
    const XBlock b = translateBlock(exe.code, 0);
    EXPECT_EQ(b.entryPc, 0u);
    EXPECT_EQ(b.len, 3u);  // halt is the terminator, inclusive
    EXPECT_EQ(b.stat.insts, 3u);
    EXPECT_EQ(b.stat.progInsts, 3u);
    EXPECT_EQ(b.stat.aluOps, 2u);
}

/** Every opcode's BlockStats delta written out literally: the
 * counters a one-instruction block of {op, rd=3, rs1=4, rs2=5,
 * imm=0xf0} sets, each to 1, in BlockStats member order. */
const std::pair<Opcode, const char *> kBlockStatsRows[] = {
    {Opcode::Nop, "insts progInsts"},
    {Opcode::Halt, "insts progInsts"},
    {Opcode::Add, "insts progInsts aluOps"},
    {Opcode::Sub, "insts progInsts aluOps"},
    {Opcode::Mul, "insts progInsts aluOps"},
    {Opcode::Div, "insts progInsts aluOps"},
    {Opcode::And, "insts progInsts aluOps"},
    {Opcode::Or, "insts progInsts aluOps"},
    {Opcode::Xor, "insts progInsts aluOps"},
    {Opcode::Slt, "insts progInsts aluOps"},
    {Opcode::Sll, "insts progInsts aluOps"},
    {Opcode::Srl, "insts progInsts aluOps"},
    {Opcode::Addi, "insts progInsts aluOps"},
    {Opcode::Andi, "insts progInsts aluOps"},
    {Opcode::Ori, "insts progInsts aluOps"},
    {Opcode::Xori, "insts progInsts aluOps"},
    {Opcode::Slti, "insts progInsts aluOps"},
    {Opcode::Lui, "insts progInsts aluOps"},
    {Opcode::Load, "insts progInsts memRefs loads"},
    {Opcode::Store, "insts progInsts memRefs stores"},
    {Opcode::LiveLoad, "insts progInsts memRefs loads restores"},
    {Opcode::LiveStore, "insts progInsts memRefs stores saves"},
    {Opcode::Fadd, "insts progInsts fpOps"},
    {Opcode::Fmul, "insts progInsts fpOps"},
    {Opcode::Fload, "insts progInsts memRefs loads fpOps"},
    {Opcode::Fstore, "insts progInsts memRefs stores fpOps"},
    {Opcode::Beq, "insts progInsts condBranches"},
    {Opcode::Bne, "insts progInsts condBranches"},
    {Opcode::Blt, "insts progInsts condBranches"},
    {Opcode::Bge, "insts progInsts condBranches"},
    {Opcode::Jump, "insts progInsts"},
    {Opcode::Call, "insts progInsts calls"},
    {Opcode::Ret, "insts progInsts returns"},
    {Opcode::Kill, "insts kills"},
    {Opcode::LvmSave, "insts progInsts memRefs stores"},
    {Opcode::LvmLoad, "insts progInsts memRefs loads"},
};

/** The nonzero counters of `s`, space-separated in member order, each
 * followed by "=N" unless it is 1. */
std::string
countersOf(const BlockStats &s)
{
    std::string out;
    const auto add = [&out](std::uint32_t v, const char *name) {
        if (!v)
            return;
        if (!out.empty())
            out += ' ';
        out += name;
        if (v != 1)
            out += "=" + std::to_string(v);
    };
    add(s.insts, "insts");
    add(s.progInsts, "progInsts");
    add(s.kills, "kills");
    add(s.aluOps, "aluOps");
    add(s.memRefs, "memRefs");
    add(s.loads, "loads");
    add(s.stores, "stores");
    add(s.fpOps, "fpOps");
    add(s.saves, "saves");
    add(s.restores, "restores");
    add(s.condBranches, "condBranches");
    add(s.calls, "calls");
    add(s.returns, "returns");
    return out;
}

TEST(TranslateBlock, EveryOpcodesStatsDeltaMatchesItsLiteralRow)
{
    ASSERT_EQ(std::size(kBlockStatsRows),
              static_cast<std::size_t>(Opcode::NumOpcodes));
    for (std::size_t k = 0; k < std::size(kBlockStatsRows); ++k) {
        const auto &[op, counters] = kBlockStatsRows[k];
        ASSERT_EQ(static_cast<std::size_t>(op), k);
        Instruction i;
        i.op = op;
        i.rd = 3;
        i.rs1 = 4;
        i.rs2 = 5;
        i.imm = 0xf0;
        const XBlock b = translateBlock({i}, 0);
        ASSERT_EQ(b.len, 1u);
        EXPECT_EQ(countersOf(b.stat), counters) << i.toString();
        EXPECT_EQ(countersOf(blockPrefixStats(b, 1)), counters)
            << i.toString();
    }
}

TEST(TranslateBlock, BranchTerminatesAndKillsFlowThrough)
{
    const comp::Executable exe = assemble({
        Instruction::kill(RegMask{9}),
        Instruction::aluImm(Opcode::Addi, 8, 0, 5),
        Instruction::branch(Opcode::Bne, 8, 0, 0),
        Instruction::halt(),
    });
    const XBlock b = translateBlock(exe.code, 0);
    EXPECT_EQ(b.len, 3u);  // kill is NOT a terminator
    EXPECT_EQ(b.stat.kills, 1u);
    EXPECT_EQ(b.stat.progInsts, 2u);
    EXPECT_EQ(b.stat.condBranches, 1u);
    // The kill mask rides in the micro-op's imm, pre-baked.
    EXPECT_EQ(b.uops[0].op, Opcode::Kill);
    EXPECT_EQ(static_cast<std::uint32_t>(b.uops[0].imm),
              RegMask{9}.raw());
}

TEST(TranslateBlock, CapsAtMaxBlockLenWithoutTerminator)
{
    std::vector<Instruction> code(maxBlockLen + 20,
                                  Instruction::nop());
    code.push_back(Instruction::halt());
    const comp::Executable exe = assemble(std::move(code));
    const XBlock head = translateBlock(exe.code, 0);
    EXPECT_EQ(head.len, maxBlockLen);
    // Successor picks up at the fall-through pc and reaches halt.
    const XBlock tail = translateBlock(exe.code, head.len);
    EXPECT_EQ(tail.entryPc, maxBlockLen);
    EXPECT_EQ(tail.len, 21u);
}

TEST(TranslateBlock, CapsAtEndOfImage)
{
    const comp::Executable exe = assemble({
        Instruction::nop(),
        Instruction::aluImm(Opcode::Addi, 8, 0, 1),
    });
    const XBlock b = translateBlock(exe.code, 1);
    EXPECT_EQ(b.len, 1u);  // image ends before any terminator
}

TEST(TranslateBlock, MidBlockEntryDecodesOverlappingBlock)
{
    const comp::Executable exe = assemble({
        Instruction::aluImm(Opcode::Addi, 8, 0, 1),
        Instruction::aluImm(Opcode::Addi, 9, 0, 2),
        Instruction::halt(),
    });
    const XBlock whole = translateBlock(exe.code, 0);
    const XBlock mid = translateBlock(exe.code, 1);
    EXPECT_EQ(whole.len, 3u);
    EXPECT_EQ(mid.len, 2u);
    EXPECT_EQ(mid.uops[0].pc, 1u);
    EXPECT_EQ(mid.uops[0].imm, whole.uops[1].imm);
}

// ------------------------------------- dead-read probe pre-baking

TEST(DeadCheckRegs, StoreProbesDataBeforeBase)
{
    RegIndex chk[2];
    const Instruction st = Instruction::store(10, 11, 0);
    ASSERT_EQ(isa::deadCheckRegs(st, chk), 2u);
    EXPECT_EQ(chk[0], st.rs2);  // data register first
    EXPECT_EQ(chk[1], st.rs1);  // then the base
}

TEST(DeadCheckRegs, LiveStoreDataRegisterIsExempt)
{
    RegIndex chk[2];
    const Instruction sv = Instruction::liveStore(20, isa::regSp, -8);
    ASSERT_EQ(isa::deadCheckRegs(sv, chk), 1u);
    EXPECT_EQ(chk[0], isa::regSp);  // base only: dead saves squash
}

TEST(DeadCheckRegs, ZeroRegisterIsExcluded)
{
    RegIndex chk[2];
    EXPECT_EQ(isa::deadCheckRegs(
                  Instruction::alu(Opcode::Add, 8, 0, 0), chk),
              0u);
    EXPECT_EQ(isa::deadCheckRegs(
                  Instruction::aluImm(Opcode::Addi, 8, 0, 1), chk),
              0u);
}

TEST(DeadCheckRegs, DuplicateSourceProbedTwice)
{
    RegIndex chk[2];
    ASSERT_EQ(isa::deadCheckRegs(
                  Instruction::alu(Opcode::Add, 8, 9, 9), chk),
              2u);
    EXPECT_EQ(chk[0], 9);
    EXPECT_EQ(chk[1], 9);
}

TEST(DeadCheckRegs, RetProbesReturnAddress)
{
    RegIndex chk[2];
    ASSERT_EQ(isa::deadCheckRegs(Instruction::ret(), chk), 1u);
    EXPECT_EQ(chk[0], isa::regRa);
}

TEST(TranslateBlock, MicroOpsCarryTheProbeList)
{
    const comp::Executable exe = assemble({
        Instruction::store(10, 11, 8),
        Instruction::halt(),
    });
    const XBlock b = translateBlock(exe.code, 0);
    ASSERT_EQ(b.uops[0].nChk, 2u);
    EXPECT_EQ(b.uops[0].chk0, 10);
    EXPECT_EQ(b.uops[0].chk1, 11);
    EXPECT_EQ(b.uops[1].nChk, 0u);
}

// ------------------------------------------- block probe summaries
//
// At process entry the LVM holds only zero, a0-a3, gp, sp and ra
// (isa::abiEntryLiveMask), so the blocks below read registers that
// are dead at entry on purpose.

TEST(ProbeSummary, RedefinedRegisterLeavesTheEntryMask)
{
    const comp::Executable exe = assemble({
        Instruction::aluImm(Opcode::Addi, 5, 5, 1),  // probes r5 first
        Instruction::aluImm(Opcode::Addi, 8, 0, 1),
        Instruction::alu(Opcode::Add, 9, 8, 10),     // r8 redefined
        Instruction::halt(),
    });
    const XBlock b = translateBlock(exe.code, 0);
    for (const ProbeSummary &ps : b.probes) {
        EXPECT_EQ(ps.entryProbes, (RegMask{5, 10}));
        EXPECT_FALSE(ps.innerProbe);
    }
}

TEST(ProbeSummary, KillThenReadIsFlaggedOnlyWhenEdviIsHonored)
{
    const comp::Executable exe = assemble({
        Instruction::aluImm(Opcode::Addi, 8, 0, 1),
        Instruction::kill(RegMask{8, 9}),
        Instruction::aluImm(Opcode::Addi, 10, 8, 1),  // r8 killed
        Instruction::aluImm(Opcode::Addi, 9, 0, 2),
        Instruction::aluImm(Opcode::Addi, 11, 9, 1),  // r9 redefined
        Instruction::halt(),
    });
    const XBlock b = translateBlock(exe.code, 0);
    const ProbeSummary &ignored = b.probes[false];
    const ProbeSummary &honored = b.probes[true];
    EXPECT_TRUE(ignored.entryProbes.empty());
    EXPECT_FALSE(ignored.innerProbe);
    EXPECT_TRUE(honored.entryProbes.empty());
    EXPECT_TRUE(honored.innerProbe);

    // A kill of a register the block then redefines before reading
    // it fixes nothing: no flag.
    const comp::Executable redefined = assemble({
        Instruction::kill(RegMask{8}),
        Instruction::aluImm(Opcode::Addi, 8, 0, 1),
        Instruction::aluImm(Opcode::Addi, 10, 8, 1),
        Instruction::halt(),
    });
    const XBlock r = translateBlock(redefined.code, 0);
    EXPECT_FALSE(r.probes[true].innerProbe);
    EXPECT_TRUE(r.probes[true].entryProbes.empty());
}

TEST(ProbeSummary, ReadAfterLvmLoadIsFlagged)
{
    const comp::Executable exe = assemble({
        Instruction::lvmLoad(isa::regSp, -8),  // probes sp first
        Instruction::aluImm(Opcode::Addi, 9, 0, 1),
        Instruction::aluImm(Opcode::Addi, 10, 9, 1),
        Instruction::halt(),
    });
    const XBlock b = translateBlock(exe.code, 0);
    for (const ProbeSummary &ps : b.probes) {
        EXPECT_EQ(ps.entryProbes, RegMask{isa::regSp});
        EXPECT_TRUE(ps.innerProbe);
    }
}

TEST(ProbeSummary, StoreProbesBothRegisters)
{
    const comp::Executable exe = assemble({
        Instruction::store(10, 11, 8),
        Instruction::aluImm(Opcode::Addi, 12, 0, 1),
        Instruction::store(12, 13, 8),  // data redefined, base not
        Instruction::halt(),
    });
    const XBlock b = translateBlock(exe.code, 0);
    for (const ProbeSummary &ps : b.probes) {
        EXPECT_EQ(ps.entryProbes, (RegMask{10, 11, 13}));
        EXPECT_FALSE(ps.innerProbe);
    }
}

// ------------------------------------------------ execution parity

TEST(XlateTier, BranchTakenAndNotTakenMatchInterpreter)
{
    // sumProgram's loop branch is taken n-1 times then falls
    // through: both terminator outcomes on the same block.
    expectTierParity(comp::compile(testprog::sumProgram(100)),
                     EmulatorOptions{});

    // Integer overflow wraps in both tiers, and INT64_MIN / -1 is
    // INT64_MIN (RISC-V's rule) instead of a SIGFPE.
    const comp::Executable exe = assemble({
        Instruction::aluImm(Opcode::Addi, 5, 0, 1),
        Instruction::aluImm(Opcode::Addi, 6, 0, 63),
        Instruction::alu(Opcode::Sll, 7, 5, 6),     // r7 = 1 << 63
        Instruction::aluImm(Opcode::Addi, 8, 0, -1),
        Instruction::alu(Opcode::Div, 9, 7, 8),     // MIN / -1
        Instruction::alu(Opcode::Sub, 10, 7, 5),    // MIN - 1
        Instruction::alu(Opcode::Add, 11, 10, 5),   // MAX + 1
        Instruction::alu(Opcode::Mul, 12, 7, 8),    // MIN * -1
        Instruction::aluImm(Opcode::Addi, 13, 10, 1),  // MAX + 1
        Instruction::alu(Opcode::Div, 14, 5, 0),    // 1 / 0
        Instruction::halt(),
    });
    expectTierParity(exe, EmulatorOptions{});
    const std::int64_t min = std::numeric_limits<std::int64_t>::min();
    const std::int64_t max = std::numeric_limits<std::int64_t>::max();
    for (const ExecTier tier : {ExecTier::Interp, ExecTier::Xlate}) {
        EmulatorOptions opts;
        opts.tier = tier;
        Emulator emu(exe, opts);
        emu.run();
        EXPECT_TRUE(emu.halted());
        EXPECT_EQ(emu.intReg(7), min);
        EXPECT_EQ(emu.intReg(9), min);
        EXPECT_EQ(emu.intReg(10), max);
        EXPECT_EQ(emu.intReg(11), min);
        EXPECT_EQ(emu.intReg(12), min);
        EXPECT_EQ(emu.intReg(13), min);
        EXPECT_EQ(emu.intReg(14), 0);
    }
}

TEST(XlateTier, RecursionAndLvmOracleMatchInterpreter)
{
    EmulatorOptions opts;
    opts.strictDeadReads = true;
    expectTierParity(comp::compile(testprog::factorialProgram(10)),
                     opts);
    expectTierParity(comp::compile(testprog::fig7Program()), opts);
}

TEST(XlateTier, FuelGuardedBackEdgesAndMutualRecursion)
{
    // The adversarial generator emits exactly the block shapes the
    // translator must not get wrong: fuel-guarded back edges,
    // mutual recursion, forward branches into block middles.
    for (std::uint64_t seed : {7u, 19u, 401u}) {
        fuzz::ProgramParams params;
        params.seed = seed;
        params.numProcs = 3;
        params.backEdgeProb = 0.4;
        params.callProb = 0.5;
        const comp::Executable exe =
            comp::compile(fuzz::generateProgram(params));
        EmulatorOptions opts;
        opts.faultOnMisaligned = true;
        expectTierParity(exe, opts, /*max_insts=*/200000);
    }
}

TEST(XlateTier, BudgetedRunStopsAtTheSameInstruction)
{
    const comp::Executable exe =
        comp::compile(testprog::sumProgram(1000));
    // Budgets that land mid-block force the interpreter tail path.
    for (std::uint64_t budget : {1u, 2u, 3u, 50u, 63u, 64u, 65u}) {
        EmulatorOptions opts;
        opts.tier = ExecTier::Xlate;
        Emulator emu(exe, opts);
        EXPECT_EQ(emu.run(budget), budget);
        EXPECT_FALSE(emu.halted());
        expectTierParity(exe, EmulatorOptions{}, budget);
    }
}

TEST(XlateTier, StepBatchRecordsMatchInterpreter)
{
    const comp::Executable exe =
        comp::compile(testprog::factorialProgram(8));
    EmulatorOptions opts;
    opts.tier = ExecTier::Interp;
    Emulator a(exe, opts);
    opts.tier = ExecTier::Xlate;
    Emulator b(exe, opts);

    TraceRecord ra, rb[7];
    bool done = false;
    while (!done) {
        // An awkward batch size so batches straddle block edges.
        const std::size_t n = b.stepBatch(rb, 7);
        if (n == 0)
            break;
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_TRUE(a.step(&ra));
            EXPECT_EQ(ra.pc, rb[i].pc);
            EXPECT_EQ(ra.nextPc, rb[i].nextPc);
            EXPECT_EQ(ra.effAddr, rb[i].effAddr);
            EXPECT_EQ(ra.taken, rb[i].taken);
            EXPECT_EQ(ra.inst.op, rb[i].inst.op);
        }
        done = b.halted();
    }
    EXPECT_TRUE(a.halted());
    EXPECT_TRUE(b.halted());
    expectStatsEq(a.stats(), b.stats());
}

TEST(XlateTier, ProgInstGateFallsBackExactly)
{
    const comp::Executable exe =
        comp::compile(testprog::sumProgram(200));
    for (std::uint64_t gate : {1u, 5u, 17u, 64u}) {
        EmulatorOptions opts;
        opts.tier = ExecTier::Interp;
        Emulator a(exe, opts);
        opts.tier = ExecTier::Xlate;
        Emulator b(exe, opts);
        TraceRecord bufA[256], bufB[256];
        const std::size_t na = a.stepBatch(bufA, 256, gate);
        const std::size_t nb = b.stepBatch(bufB, 256, gate);
        ASSERT_EQ(na, nb) << "gate " << gate;
        for (std::size_t i = 0; i < na; ++i)
            EXPECT_EQ(bufA[i].pc, bufB[i].pc);
        expectStatsEq(a.stats(), b.stats());
    }
}

// -------------------------------------------- misaligned faults

TEST(XlateTier, MisalignedFaultMidBlockMatchesInterpreter)
{
    // addi lands the bad address in r9 (pc 0-1), then two ALU ops
    // retire before the faulting store — the fault is mid-block, so
    // the prefix-stats path is exercised.
    const comp::Executable exe = assemble({
        Instruction::aluImm(Opcode::Addi, 9, 0, 0x1001),
        Instruction::aluImm(Opcode::Addi, 8, 0, 7),
        Instruction::aluImm(Opcode::Addi, 8, 8, 1),
        Instruction::store(8, 9, 0),  // faults: 0x1001 unaligned
        Instruction::halt(),
    });
    EmulatorOptions opts;
    opts.faultOnMisaligned = true;
    expectTierParity(exe, opts);

    opts.tier = ExecTier::Xlate;
    Emulator emu(exe, opts);
    emu.run();
    EXPECT_TRUE(emu.faulted());
    EXPECT_EQ(emu.faultPc(), 3u);
    // The faulting store still retires (stats count it); the write
    // itself is suppressed.
    EXPECT_EQ(emu.stats().insts, 4u);
    EXPECT_EQ(emu.stats().stores, 1u);
    EXPECT_EQ(emu.memory().read(0x1000), 0);
}

TEST(XlateTier, MisalignedFaultedLoadReadsZero)
{
    const comp::Executable exe = assemble({
        Instruction::aluImm(Opcode::Addi, 9, 0, 0x1003),
        Instruction::aluImm(Opcode::Addi, 8, 0, 55),
        Instruction::load(8, 9, 0),  // faults: result forced to 0
        Instruction::halt(),
    });
    EmulatorOptions opts;
    opts.faultOnMisaligned = true;
    expectTierParity(exe, opts);

    opts.tier = ExecTier::Xlate;
    Emulator emu(exe, opts);
    emu.run();
    EXPECT_TRUE(emu.faulted());
    EXPECT_EQ(emu.intReg(8), 0);
}

// ------------------------------------------------- memory pages

TEST(XlateTier, OneBlockAcrossMorePagesThanPageTableSets)
{
    // One block stores to the 18 pages 16..33 (4 KB each), so pages
    // 16 and 32, and 17 and 33, share a set of Memory's 16-set page
    // table; it then loads the sharing pairs back interleaved, a
    // never-stored word of a stored page and a never-stored page.
    constexpr std::int32_t page = 4096;
    std::vector<Instruction> code;
    code.push_back(Instruction::aluImm(Opcode::Addi, 8, 0, 1));
    for (std::int32_t p = 16; p < 34; ++p) {
        code.push_back(Instruction::store(8, 0, p * page));
        code.push_back(Instruction::aluImm(Opcode::Addi, 8, 8, 1));
    }
    code.push_back(Instruction::load(10, 0, 16 * page));
    code.push_back(Instruction::load(11, 0, 32 * page));
    code.push_back(Instruction::load(12, 0, 17 * page));
    code.push_back(Instruction::load(13, 0, 33 * page));
    code.push_back(Instruction::load(14, 0, 16 * page));
    code.push_back(Instruction::alu(Opcode::Add, 15, 10, 11));
    code.push_back(Instruction::store(15, 0, 32 * page + 8));
    code.push_back(Instruction::load(16, 0, 16 * page + 8));
    code.push_back(Instruction::load(17, 0, 32 * page + 8));
    code.push_back(Instruction::load(18, 0, 40 * page));
    code.push_back(Instruction::halt());
    const comp::Executable exe = assemble(code);
    ASSERT_EQ(translateBlock(exe.code, 0).len, exe.code.size());

    for (bool live : {false, true}) {
        SCOPED_TRACE(live ? "liveness on" : "liveness off");
        EmulatorOptions opts;
        opts.trackLiveness = live;
        expectTierParity(exe, opts);

        opts.tier = ExecTier::Xlate;
        Emulator emu(exe, opts);
        emu.run();
        EXPECT_EQ(emu.intReg(10), 1);   // page 16
        EXPECT_EQ(emu.intReg(11), 17);  // page 32
        EXPECT_EQ(emu.intReg(12), 2);   // page 17
        EXPECT_EQ(emu.intReg(13), 18);  // page 33
        EXPECT_EQ(emu.intReg(14), 1);   // page 16 again
        EXPECT_EQ(emu.intReg(16), 0);
        EXPECT_EQ(emu.intReg(17), 18);
        EXPECT_EQ(emu.intReg(18), 0);
        EXPECT_EQ(emu.stats().deadReads, 0u);
    }
}

// ------------------------------------------ dead-read diagnostics

TEST(XlateTier, FirstDeadReadDiagnosticsMatchInterpreter)
{
    // Corrupt one kill mask so the E-DVI binary really has a dead
    // read, then require identical firstDeadReadPc/Reg on both
    // tiers (the probe-order contract, end to end).
    comp::CompileOptions copts;
    copts.edvi = comp::EdviPolicy::Dense;
    comp::Executable exe =
        comp::compile(testprog::fig7Program(), copts);
    fuzz::FaultSpec fault;
    fault.enabled = true;
    fault.killOrdinal = 2;
    fault.reg = 4;  // an argument register: read soon after the kill
    bool applied = false;
    for (RegIndex r = 4; r < 16 && !applied; ++r) {
        fault.reg = r;
        applied = fuzz::applyKillFault(exe, fault);
    }
    ASSERT_TRUE(applied);

    EmulatorOptions opts;  // strictDeadReads off: count, don't panic
    opts.tier = ExecTier::Interp;
    Emulator a(exe, opts);
    a.run();
    opts.tier = ExecTier::Xlate;
    Emulator b(exe, opts);
    b.run();
    expectStatsEq(a.stats(), b.stats());
}

TEST(XlateTier, DeadReadAtBlockEntryMatchesInterpreter)
{
    // r9 is dead at process entry; the entry test must send the
    // block down the per-micro-op probes.
    const comp::Executable exe = assemble({
        Instruction::aluImm(Opcode::Addi, 8, 0, 1),
        Instruction::alu(Opcode::Add, 10, 8, 9),
        Instruction::halt(),
    });
    expectTierParity(exe, EmulatorOptions{});
    const EmulatorStats st = xlateStats(exe, EmulatorOptions{});
    EXPECT_EQ(st.deadReads, 1u);
    EXPECT_EQ(st.firstDeadReadPc, 1u);
    EXPECT_EQ(st.firstDeadReadReg, 9);
}

TEST(XlateTier, DeadReadAfterInBlockKillMatchesInterpreter)
{
    const comp::Executable exe = assemble({
        Instruction::aluImm(Opcode::Addi, 8, 0, 1),
        Instruction::kill(RegMask{8}),
        Instruction::aluImm(Opcode::Addi, 9, 8, 1),  // reads killed r8
        Instruction::halt(),
    });
    EmulatorOptions opts;
    expectTierParity(exe, opts);
    EmulatorStats st = xlateStats(exe, opts);
    EXPECT_EQ(st.deadReads, 1u);
    EXPECT_EQ(st.firstDeadReadPc, 2u);
    EXPECT_EQ(st.firstDeadReadReg, 8);

    // With E-DVI ignored the kill is a no-op: no dead read.
    opts.honorEdvi = false;
    expectTierParity(exe, opts);
    st = xlateStats(exe, opts);
    EXPECT_EQ(st.deadReads, 0u);
}

TEST(XlateTier, ProbeAfterLvmLoadMatchesInterpreter)
{
    // One block: it saves an LVM with r8 live, kills r8, restores
    // the save and reads r8 (live again, no dead read). Then it
    // restores an all-dead mask (a stored zero) and reads a0, which
    // was live before that restore: one dead read.
    const comp::Executable exe = assemble({
        Instruction::aluImm(Opcode::Addi, 8, 0, 5),
        Instruction::lvmSave(isa::regSp, -8),
        Instruction::kill(RegMask{8}),
        Instruction::lvmLoad(isa::regSp, -8),
        Instruction::aluImm(Opcode::Addi, 9, 8, 1),
        Instruction::store(0, isa::regSp, -16),
        Instruction::lvmLoad(isa::regSp, -16),
        Instruction::aluImm(Opcode::Addi, 10, isa::regA0, 1),
        Instruction::halt(),
    });
    expectTierParity(exe, EmulatorOptions{});
    const EmulatorStats st = xlateStats(exe, EmulatorOptions{});
    EXPECT_EQ(st.deadReads, 1u);
    EXPECT_EQ(st.firstDeadReadPc, 7u);
    EXPECT_EQ(st.firstDeadReadReg, isa::regA0);
}

TEST(XlateTier, MisalignedFaultMidBlockKeepsTheLvm)
{
    // Liveness on (the default): the block's definitions and kill
    // before the faulting store must reach lvm_ on the fault exit.
    const comp::Executable exe = assemble({
        Instruction::aluImm(Opcode::Addi, 9, 0, 0x1001),
        Instruction::aluImm(Opcode::Addi, 8, 0, 7),
        Instruction::kill(RegMask{isa::regA0}),
        Instruction::store(8, 9, 0),  // faults: 0x1001 unaligned
        Instruction::aluImm(Opcode::Addi, 10, 0, 1),
        Instruction::halt(),
    });
    EmulatorOptions opts;
    opts.faultOnMisaligned = true;
    expectTierParity(exe, opts);

    opts.tier = ExecTier::Xlate;
    Emulator emu(exe, opts);
    emu.run();
    EXPECT_TRUE(emu.faulted());
    EXPECT_TRUE(emu.lvm().isLive(8));
    EXPECT_TRUE(emu.lvm().isLive(9));
    EXPECT_FALSE(emu.lvm().isLive(isa::regA0));
    EXPECT_FALSE(emu.lvm().isLive(10));
}

TEST(XlateTier, LiveStoreReadsTheBlocksOwnLiveness)
{
    // s0 (r16) is dead at entry. Redefined in the block, its save is
    // live; killed after that, its save is eliminable — but only
    // when E-DVI is honored.
    const comp::Executable redefined = assemble({
        Instruction::aluImm(Opcode::Addi, 16, 0, 3),
        Instruction::liveStore(16, isa::regSp, -8),
        Instruction::halt(),
    });
    expectTierParity(redefined, EmulatorOptions{});
    EXPECT_EQ(xlateStats(redefined, EmulatorOptions{}).saveElimOracle,
              0u);

    const comp::Executable killed = assemble({
        Instruction::aluImm(Opcode::Addi, 16, 0, 3),
        Instruction::kill(RegMask{16}),
        Instruction::liveStore(16, isa::regSp, -8),
        Instruction::halt(),
    });
    EmulatorOptions opts;
    expectTierParity(killed, opts);
    EXPECT_EQ(xlateStats(killed, opts).saveElimOracle, 1u);
    opts.honorEdvi = false;
    expectTierParity(killed, opts);
    EXPECT_EQ(xlateStats(killed, opts).saveElimOracle, 0u);
}

// --------------------------------------------- translation cache

TEST(TranslationCache, HitsMissesAndInvalidation)
{
    TranslationCache cache(4);
    const comp::Executable exe =
        comp::compile(testprog::sumProgram(10));

    const auto p1 = cache.acquire(exe);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.size(), 1u);
    const auto p2 = cache.acquire(exe);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(p1.get(), p2.get());  // shared, not re-translated

    EXPECT_TRUE(cache.invalidate(exe));
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.invalidate(exe));  // already gone

    const auto p3 = cache.acquire(exe);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_NE(p1.get(), p3.get());
    // The old handle stays valid after eviction.
    EXPECT_TRUE(p1->matches(exe));
}

TEST(TranslationCache, RecompileNeverSeesStaleTranslation)
{
    // Same name, same shape, different code: the content key must
    // separate them — a stale translation surviving a recompile is
    // exactly the bug this cache design rules out.
    TranslationCache cache(4);
    const comp::Executable v1 =
        comp::compile(testprog::sumProgram(10));
    comp::Executable v2 = comp::compile(testprog::sumProgram(11));
    v2.name = v1.name;

    const auto p1 = cache.acquire(v1);
    const auto p2 = cache.acquire(v2);
    EXPECT_NE(p1.get(), p2.get());
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_TRUE(p1->matches(v1));
    EXPECT_FALSE(p1->matches(v2));

    // And execution through the process cache agrees: each binary
    // computes its own result.
    EmulatorOptions opts;
    opts.tier = ExecTier::Xlate;
    Emulator e1(v1, opts), e2(v2, opts);
    e1.run();
    e2.run();
    EXPECT_NE(e1.resultHash(), e2.resultHash());
}

TEST(TranslationCache, LruEvictionKeepsLiveHandlesValid)
{
    TranslationCache cache(2);
    const comp::Executable a =
        comp::compile(testprog::sumProgram(1));
    const comp::Executable b =
        comp::compile(testprog::sumProgram(2));
    const comp::Executable c =
        comp::compile(testprog::sumProgram(3));

    const auto pa = cache.acquire(a);
    const auto pb = cache.acquire(b);
    (void)cache.acquire(a);  // refresh a: b is now LRU
    const auto pc = cache.acquire(c);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);

    // b was evicted: re-acquiring misses and re-translates.
    const std::uint64_t misses = cache.misses();
    const auto pb2 = cache.acquire(b);
    EXPECT_EQ(cache.misses(), misses + 1);
    EXPECT_NE(pb.get(), pb2.get());
    EXPECT_TRUE(pb->matches(b));  // evicted handle still usable
}

TEST(TranslationCache, EqualContentHitsAndSameSizeDifferentCodeMisses)
{
    // Lookup is by content alone: a separately built copy of the image
    // hits, and an image of the same size that differs in one operand
    // misses.
    TranslationCache cache(4);
    const comp::Executable exe =
        comp::compile(testprog::sumProgram(10));
    const comp::Executable copy = exe;
    comp::Executable other = exe;
    other.code.back().imm ^= 1;

    const auto p1 = cache.acquire(exe);
    EXPECT_EQ(cache.acquire(copy).get(), p1.get());
    EXPECT_EQ(cache.hits(), 1u);
    const auto p2 = cache.acquire(other);
    EXPECT_NE(p2.get(), p1.get());
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(TranslationCache, ClearDropsEverything)
{
    TranslationCache cache;
    (void)cache.acquire(comp::compile(testprog::sumProgram(5)));
    (void)cache.acquire(comp::compile(testprog::sumProgram(6)));
    EXPECT_EQ(cache.size(), 2u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
}

TEST(TranslatedProgram, LazyBlockIndexGrowsOnDemand)
{
    const comp::Executable exe =
        comp::compile(testprog::factorialProgram(5));
    TranslatedProgram prog(exe);
    EXPECT_EQ(prog.blockCount(), 0u);
    EXPECT_EQ(prog.blockAt(static_cast<std::uint32_t>(exe.entry)),
              nullptr);
    const XBlock &b =
        prog.getOrTranslate(static_cast<std::uint32_t>(exe.entry));
    EXPECT_EQ(prog.blockCount(), 1u);
    EXPECT_EQ(&prog.getOrTranslate(
                  static_cast<std::uint32_t>(exe.entry)),
              &b);  // idempotent, same storage
    EXPECT_EQ(prog.blockAt(static_cast<std::uint32_t>(exe.entry)),
              &b);
}

TEST(TranslationCache, ConcurrentEmulatorsShareOneTranslation)
{
    const comp::Executable exe =
        comp::compile(testprog::factorialProgram(9));
    TranslationCache cache(8);
    const auto shared = cache.acquire(exe);

    // Reference result from a solo run.
    EmulatorOptions opts;
    opts.tier = ExecTier::Xlate;
    Emulator ref(exe, opts);
    ref.run();

    std::vector<std::thread> threads;
    std::vector<std::uint64_t> hashes(8, 0);
    for (unsigned t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            // All eight race on the same lazy block table via the
            // process cache (the TSan leg runs this too).
            EmulatorOptions o;
            o.tier = ExecTier::Xlate;
            Emulator emu(exe, o);
            emu.run();
            hashes[t] = emu.resultHash();
        });
    }
    for (auto &th : threads)
        th.join();
    for (const std::uint64_t h : hashes)
        EXPECT_EQ(h, ref.resultHash());
}

TEST(TranslatedProgram, DecodeTableFollowsTheCode)
{
    const comp::Executable exe =
        comp::compile(testprog::factorialProgram(5));
    TranslatedProgram prog(exe);
    for (std::size_t pc = 0; pc < exe.code.size(); ++pc) {
        const isa::DecodedInst want = isa::decodeInst(exe.code[pc]);
        const isa::DecodedInst &got = prog.decoded()[pc];
        EXPECT_EQ(got.flags, want.flags) << "pc " << pc;
        EXPECT_EQ(got.killMask, want.killMask) << "pc " << pc;
        EXPECT_EQ(got.dest, want.dest) << "pc " << pc;
    }
}

TEST(XlateTier, EveryTierSharesOneDecodeTablePerBinary)
{
    // The timing core reads the decode table through program(): two
    // emulators of one binary see the same table, under either tier.
    const comp::Executable exe =
        comp::compile(testprog::sumProgram(12));
    EmulatorOptions interp;
    interp.tier = ExecTier::Interp;
    Emulator a(exe, interp), b(exe);
    EXPECT_EQ(a.translation(), nullptr);
    EXPECT_EQ(a.program().decoded(), b.program().decoded());
    EXPECT_EQ(a.translation(), &b.program());
}

TEST(XlateTier, EmulatorExposesItsTranslation)
{
    const comp::Executable exe =
        comp::compile(testprog::sumProgram(10));
    EmulatorOptions opts;
    opts.tier = ExecTier::Xlate;
    Emulator emu(exe, opts);
    EXPECT_EQ(emu.translation(), nullptr);  // lazy until first run
    emu.run();
    ASSERT_NE(emu.translation(), nullptr);
    EXPECT_GT(emu.translation()->blockCount(), 0u);
    EXPECT_TRUE(emu.translation()->matches(exe));
}

} // namespace
} // namespace arch
} // namespace dvi
