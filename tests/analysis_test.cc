/**
 * @file
 * Tests for the static verification framework (src/analysis/):
 * dataflow engine fixpoints, every rule's positive and negative
 * case, agreement with the compiler's independent liveness, and
 * fault-injection detection with exact sites.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/dataflow.hh"
#include "analysis/ir_checks.hh"
#include "analysis/lint.hh"
#include "analysis/machine_checks.hh"
#include "base/rng.hh"
#include "base/test_seed.hh"
#include "compiler/compile.hh"
#include "compiler/machine_liveness.hh"
#include "fuzz/oracle.hh"
#include "fuzz/program_gen.hh"
#include "isa/registers.hh"
#include "program/ir.hh"
#include "workload/benchmarks.hh"

using namespace dvi;

namespace
{

/** Count findings matching a rule (and optionally a severity). */
std::size_t
countRule(const analysis::FindingReport &report,
          const std::string &rule)
{
    std::size_t n = 0;
    for (const analysis::Finding &f : report.findings())
        if (f.rule == rule)
            ++n;
    return n;
}

/** A well-formed single-proc module: main computes and halts. */
prog::Module
cleanModule()
{
    prog::Module mod;
    mod.name = "clean";
    prog::Procedure proc;
    proc.name = "main";
    const int b0 = proc.newBlock();
    const prog::VReg v1 = proc.newVReg();
    const prog::VReg v2 = proc.newVReg();
    proc.emit(b0, prog::irLoadImm(v1, 7));
    proc.emit(b0, prog::irAluImm(prog::IrOp::AddImm, v2, v1, 1));
    proc.emit(b0, prog::irStoreStack(v2, 0));
    proc.emit(b0, prog::irHalt());
    proc.numLocalSlots = 1;
    mod.procs.push_back(std::move(proc));
    return mod;
}

} // namespace

// ------------------------------------------------------- dataflow

TEST(Dataflow, ForwardUnionReachesFixpointOnDiamond)
{
    // 0 -> {1,2} -> 3
    analysis::Cfg cfg;
    cfg.succs = {{1, 2}, {3}, {3}, {}};
    cfg.preds = {{}, {0}, {0}, {1, 2}};

    std::vector<analysis::Transfer> transfers(4);
    for (auto &t : transfers) {
        t.gen = DynBitset(4);
        t.kill = DynBitset(4);
    }
    transfers[1].gen.set(1);  // block 1 generates bit 1
    transfers[2].gen.set(2);  // block 2 generates bit 2
    DynBitset boundary(4);
    boundary.set(0);

    const analysis::DataflowResult r = analysis::solve(
        cfg, analysis::Direction::Forward, analysis::Meet::Union, 4,
        transfers, boundary);
    ASSERT_TRUE(r.converged);
    // Union join: block 3 sees bits from both arms plus the
    // boundary bit flowing through.
    EXPECT_TRUE(r.in[3].test(0));
    EXPECT_TRUE(r.in[3].test(1));
    EXPECT_TRUE(r.in[3].test(2));
}

TEST(Dataflow, ForwardIntersectDropsOneArmedFacts)
{
    analysis::Cfg cfg;
    cfg.succs = {{1, 2}, {3}, {3}, {}};
    cfg.preds = {{}, {0}, {0}, {1, 2}};

    std::vector<analysis::Transfer> transfers(4);
    for (auto &t : transfers) {
        t.gen = DynBitset(4);
        t.kill = DynBitset(4);
    }
    transfers[0].gen.set(0);  // established on every path
    transfers[1].gen.set(1);  // only on the left arm
    const analysis::DataflowResult r = analysis::solve(
        cfg, analysis::Direction::Forward,
        analysis::Meet::Intersect, 4, transfers, DynBitset(4));
    ASSERT_TRUE(r.converged);
    EXPECT_TRUE(r.in[3].test(0));
    EXPECT_FALSE(r.in[3].test(1));
}

TEST(Dataflow, BackwardUnionPropagatesThroughLoop)
{
    // 0 -> 1 -> 2 -> 1 (back edge), 2 -> 3
    analysis::Cfg cfg;
    cfg.succs = {{1}, {2}, {1, 3}, {}};
    cfg.preds = {{}, {0, 2}, {1}, {2}};

    std::vector<analysis::Transfer> transfers(4);
    for (auto &t : transfers) {
        t.gen = DynBitset(2);
        t.kill = DynBitset(2);
    }
    transfers[3].gen.set(0);  // "used" at the exit block
    const analysis::DataflowResult r = analysis::solve(
        cfg, analysis::Direction::Backward, analysis::Meet::Union, 2,
        transfers, DynBitset(2));
    ASSERT_TRUE(r.converged);
    // The use at block 3 is live-in around the whole loop.
    EXPECT_TRUE(r.in[0].test(0));
    EXPECT_TRUE(r.in[1].test(0));
    EXPECT_TRUE(r.in[2].test(0));
}

TEST(Dataflow, ConvergesOnGeneratedIrregularCfgs)
{
    // Adversarial generated programs: irregular CFGs, back edges,
    // unreachable regions. Both directions must reach a fixpoint
    // well under the iteration cap.
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        Rng rng(mixSeed(0xcf9, seed));
        const prog::Module mod =
            fuzz::generateProgram(fuzz::randomProgramParams(rng));
        for (const prog::Procedure &proc : mod.procs) {
            const analysis::Cfg cfg =
                analysis::cfgFromProcedure(proc);
            const int n = cfg.numBlocks();
            ASSERT_EQ(static_cast<std::size_t>(n),
                      proc.blocks.size());
            // RPO is a permutation of all blocks even with
            // unreachable ones.
            std::set<int> rpo_set;
            for (int b : cfg.reversePostorder())
                rpo_set.insert(b);
            EXPECT_EQ(rpo_set.size(), static_cast<std::size_t>(n));

            std::vector<analysis::Transfer> transfers(
                static_cast<std::size_t>(n));
            for (int b = 0; b < n; ++b) {
                transfers[static_cast<std::size_t>(b)].gen =
                    DynBitset(proc.nextVReg);
                transfers[static_cast<std::size_t>(b)].kill =
                    DynBitset(proc.nextVReg);
            }
            for (auto dir : {analysis::Direction::Forward,
                             analysis::Direction::Backward}) {
                for (auto meet : {analysis::Meet::Union,
                                  analysis::Meet::Intersect}) {
                    const analysis::DataflowResult r =
                        analysis::solve(cfg, dir, meet,
                                        proc.nextVReg, transfers,
                                        DynBitset(proc.nextVReg));
                    EXPECT_TRUE(r.converged);
                }
            }
        }
    }
}

// ------------------------------------------------------- IR rules

TEST(IrChecks, CleanModuleHasNoFindings)
{
    const analysis::FindingReport r =
        analysis::checkModule(cleanModule(), true);
    EXPECT_TRUE(r.empty());
}

TEST(IrChecks, StructureFlagsBadBranchTarget)
{
    prog::Module mod = cleanModule();
    prog::Procedure &proc = mod.procs[0];
    proc.blocks[0].insts.back() = prog::irJump(7);  // no block 7
    const analysis::FindingReport r = analysis::checkModule(mod);
    EXPECT_GE(countRule(r, "ir-structure"), 1u);
    EXPECT_TRUE(r.failing());
}

TEST(IrChecks, StructureFlagsMisplacedTerminator)
{
    prog::Module mod = cleanModule();
    prog::Procedure &proc = mod.procs[0];
    proc.blocks[0].insts.insert(proc.blocks[0].insts.begin(),
                                prog::irHalt());
    const analysis::FindingReport r = analysis::checkModule(mod);
    EXPECT_GE(countRule(r, "ir-structure"), 1u);
}

TEST(IrChecks, DefBeforeUseFlagsNeverDefinedVreg)
{
    prog::Module mod = cleanModule();
    prog::Procedure &proc = mod.procs[0];
    const prog::VReg ghost = proc.newVReg();  // allocated, never set
    proc.blocks[0].insts.insert(
        proc.blocks[0].insts.end() - 1,
        prog::irStoreStack(ghost, 0));
    const analysis::FindingReport r = analysis::checkModule(mod);
    ASSERT_EQ(countRule(r, "ir-def-before-use"), 1u);
    const analysis::Finding &f = r.findings()[0];
    EXPECT_EQ(f.severity, analysis::Severity::Error);
    EXPECT_EQ(f.site.block, 0);
    EXPECT_NE(f.message.find("never defined"), std::string::npos);
}

TEST(IrChecks, DefBeforeUseFlagsOneArmedDefinition)
{
    // b0: branch to b2 ; b1: define v ; b2: use v. The read is
    // definitely-assigned only through b1, so the b0->b2 path trips
    // definite assignment.
    prog::Module mod;
    mod.name = "one-armed";
    prog::Procedure proc;
    proc.name = "main";
    const int b0 = proc.newBlock();
    const int b1 = proc.newBlock();
    const int b2 = proc.newBlock();
    const prog::VReg c = proc.newVReg();
    const prog::VReg v = proc.newVReg();
    proc.emit(b0, prog::irLoadImm(c, 0));
    proc.emit(b0, prog::irBranch(prog::IrOp::Beq, c, c, b2));
    proc.emit(b1, prog::irLoadImm(v, 1));
    proc.emit(b2, prog::irStoreStack(v, 0));
    proc.emit(b2, prog::irHalt());
    proc.numLocalSlots = 1;
    mod.procs.push_back(std::move(proc));

    const analysis::FindingReport r = analysis::checkModule(mod);
    ASSERT_EQ(countRule(r, "ir-def-before-use"), 1u);
    const analysis::Finding &f = r.findings()[0];
    EXPECT_EQ(f.site.block, 2);
    EXPECT_NE(f.message.find("may be read before"),
              std::string::npos);
}

TEST(IrChecks, UnreachableBlockIsAdvisoryOnly)
{
    prog::Module mod;
    mod.name = "island";
    prog::Procedure proc;
    proc.name = "main";
    const int b0 = proc.newBlock();
    const int b1 = proc.newBlock();  // never targeted
    const int b2 = proc.newBlock();
    proc.emit(b0, prog::irJump(b2));
    proc.emit(b1, prog::irJump(b2));
    proc.emit(b2, prog::irHalt());
    mod.procs.push_back(std::move(proc));

    const analysis::FindingReport quiet = analysis::checkModule(mod);
    EXPECT_EQ(countRule(quiet, "ir-unreachable"), 0u);

    const analysis::FindingReport adv =
        analysis::checkModule(mod, true);
    ASSERT_EQ(countRule(adv, "ir-unreachable"), 1u);
    EXPECT_FALSE(adv.failing());  // Info never fails lint
    EXPECT_EQ(adv.findings()[0].site.block, b1);
}

TEST(IrChecks, DeadStoreIsAdvisoryOnly)
{
    prog::Module mod = cleanModule();
    prog::Procedure &proc = mod.procs[0];
    const prog::VReg w = proc.newVReg();
    proc.blocks[0].insts.insert(proc.blocks[0].insts.begin(),
                                prog::irLoadImm(w, 99));  // unread
    EXPECT_EQ(countRule(analysis::checkModule(mod), "ir-dead-store"),
              0u);
    const analysis::FindingReport adv =
        analysis::checkModule(mod, true);
    ASSERT_EQ(countRule(adv, "ir-dead-store"), 1u);
    EXPECT_EQ(adv.findings()[0].severity, analysis::Severity::Info);
    EXPECT_FALSE(adv.failing());
}

TEST(IrChecks, ValidateAndLintBothRejectExcessCallArgs)
{
    // main passes two args to a one-parameter procedure.
    prog::Module mod = cleanModule();
    prog::Procedure callee;
    callee.name = "callee";
    callee.params.push_back(callee.newVReg());
    callee.emit(callee.newBlock(), prog::irRet());
    mod.procs.push_back(std::move(callee));
    prog::Procedure &main = mod.procs[0];
    auto &insts = main.blocks[0].insts;
    insts.insert(insts.end() - 1, prog::irCall(1, {1, 2}));

    EXPECT_NE(mod.validate(), "");
    EXPECT_NE(analysis::firstModuleError(mod), "");
}

TEST(IrChecks, ValidateAndLintBothRejectReadBeyondNextVReg)
{
    prog::Module mod = cleanModule();
    prog::Procedure &main = mod.procs[0];
    auto &insts = main.blocks[0].insts;
    insts.insert(insts.end() - 1, prog::irStoreStack(7, 0));
    ASSERT_LT(main.nextVReg, 7u);

    EXPECT_NE(mod.validate(), "");
    EXPECT_NE(analysis::firstModuleError(mod), "");
}

// -------------------------------------------------- machine rules

namespace
{

/** Hand-built executable: one procedure over raw instructions. */
comp::Executable
makeExe(std::vector<isa::Instruction> code, const char *name = "f")
{
    comp::Executable exe;
    exe.name = "handmade";
    comp::ProcInfo pi;
    pi.name = name;
    pi.entry = 0;
    pi.end = static_cast<int>(code.size());
    exe.procs.push_back(pi);
    exe.code = std::move(code);
    return exe;
}

} // namespace

TEST(MachineChecks, SoundKillIsClean)
{
    using isa::Instruction;
    using isa::Opcode;
    const comp::Executable exe = makeExe({
        Instruction::aluImm(Opcode::Addi, 8, 0, 1),   // t0 = 1
        Instruction::alu(Opcode::Add, 9, 8, 8),       // t1 = t0+t0
        Instruction::kill(RegMask{8}),                // t0 now dead
        Instruction::aluImm(Opcode::Addi, 10, 9, 0),  // t2 = t1
        Instruction::halt(),
    });
    const analysis::FindingReport r =
        analysis::checkExecutable(exe);
    EXPECT_TRUE(r.empty()) << (r.empty()
                                   ? ""
                                   : r.findings()[0].toString());
    EXPECT_EQ(analysis::verifyKills(exe), "");
}

TEST(MachineChecks, KillOfLiveRegisterIsFlaggedAtSite)
{
    using isa::Instruction;
    using isa::Opcode;
    const comp::Executable exe = makeExe({
        Instruction::aluImm(Opcode::Addi, 8, 0, 1),
        Instruction::kill(RegMask{8}),           // r8 still read below
        Instruction::alu(Opcode::Add, 9, 8, 8),  // the live use
        Instruction::halt(),
    });
    const analysis::FindingReport r =
        analysis::checkExecutable(exe);
    ASSERT_EQ(countRule(r, "edvi-kill-live"), 1u);
    const analysis::Finding &f = r.findings()[0];
    EXPECT_EQ(f.severity, analysis::Severity::Error);
    EXPECT_TRUE(f.site.machine);
    EXPECT_EQ(f.site.inst, 1);  // the kill's exact code index
    EXPECT_NE(analysis::verifyKills(exe), "");
}

TEST(MachineChecks, StructureFlagsEscapingBranch)
{
    using isa::Instruction;
    using isa::Opcode;
    const comp::Executable exe = makeExe({
        Instruction::aluImm(Opcode::Addi, 8, 0, 1),
        Instruction::jump(40),  // outside [0, 3)
        Instruction::halt(),
    });
    const analysis::FindingReport r =
        analysis::checkExecutable(exe);
    EXPECT_GE(countRule(r, "mc-structure"), 1u);
    EXPECT_TRUE(r.failing());
}

TEST(MachineChecks, StructureFlagsFallthroughPastEnd)
{
    using isa::Instruction;
    using isa::Opcode;
    const comp::Executable exe = makeExe({
        Instruction::aluImm(Opcode::Addi, 8, 0, 1),
        Instruction::alu(Opcode::Add, 9, 8, 8),  // no terminator
    });
    const analysis::FindingReport r =
        analysis::checkExecutable(exe);
    EXPECT_GE(countRule(r, "mc-structure"), 1u);
}

TEST(MachineChecks, RedundantKillIsAdvisoryOnly)
{
    using isa::Instruction;
    using isa::Opcode;
    const comp::Executable exe = makeExe({
        Instruction::aluImm(Opcode::Addi, 8, 0, 1),
        Instruction::alu(Opcode::Add, 9, 8, 8),
        Instruction::kill(RegMask{8}),
        Instruction::kill(RegMask{8}),  // already dead on all paths
        Instruction::aluImm(Opcode::Addi, 10, 9, 0),
        Instruction::halt(),
    });
    EXPECT_EQ(countRule(analysis::checkExecutable(exe),
                        "edvi-kill-redundant"),
              0u);
    const analysis::FindingReport adv =
        analysis::checkExecutable(exe, true);
    ASSERT_EQ(countRule(adv, "edvi-kill-redundant"), 1u);
    EXPECT_EQ(adv.findings()[0].site.inst, 3);
    EXPECT_FALSE(adv.failing());
}

TEST(MachineChecks, MissedKillIsAdvisoryOnly)
{
    using isa::Instruction;
    using isa::Opcode;
    const comp::Executable exe = makeExe({
        Instruction::aluImm(Opcode::Addi, 8, 0, 1),
        Instruction::alu(Opcode::Add, 9, 8, 8),  // t0's last use
        Instruction::aluImm(Opcode::Addi, 10, 9, 0),
        Instruction::halt(),
    });
    EXPECT_EQ(countRule(analysis::checkExecutable(exe),
                        "edvi-kill-missed"),
              0u);
    const analysis::FindingReport adv =
        analysis::checkExecutable(exe, true);
    EXPECT_GE(countRule(adv, "edvi-kill-missed"), 1u);
    EXPECT_FALSE(adv.failing());
}

TEST(MachineChecks, SpecPreconditionWantsFrameSave)
{
    using isa::Instruction;
    using isa::Opcode;
    // A returning procedure killing callee-saved s0 with no save.
    const comp::Executable no_save = makeExe({
        Instruction::kill(RegMask{16}),
        Instruction::liveLoad(16, isa::regSp, 0),  // restore s0
        Instruction::ret(),
    });
    const analysis::FindingReport r =
        analysis::checkExecutable(no_save);
    ASSERT_EQ(countRule(r, "edvi-spec-precondition"), 1u);
    EXPECT_EQ(r.findings()[0].severity, analysis::Severity::Warn);
    EXPECT_TRUE(r.failing());

    // Same shape with the frame save present: clean.
    const comp::Executable saved = makeExe({
        Instruction::liveStore(16, isa::regSp, 0),
        Instruction::kill(RegMask{16}),
        Instruction::liveLoad(16, isa::regSp, 0),
        Instruction::ret(),
    });
    EXPECT_EQ(countRule(analysis::checkExecutable(saved),
                        "edvi-spec-precondition"),
              0u);

    // A non-returning procedure (main) has no caller to restore
    // for; the precondition is vacuous.
    const comp::Executable halts = makeExe({
        Instruction::kill(RegMask{16}),
        Instruction::halt(),
    });
    EXPECT_EQ(countRule(analysis::checkExecutable(halts),
                        "edvi-spec-precondition"),
              0u);
}

// ------------------------------------- agreement with the compiler

TEST(Agreement, EveryBenchmarkBinaryLintsClean)
{
    for (workload::BenchmarkId id : workload::allBenchmarks()) {
        const prog::Module mod = workload::generateBenchmark(id);
        EXPECT_TRUE(analysis::checkModule(mod).empty())
            << workload::benchmarkName(id);
        for (comp::EdviPolicy policy :
             {comp::EdviPolicy::None, comp::EdviPolicy::CallSites,
              comp::EdviPolicy::Dense}) {
            const comp::Executable exe = comp::compile(
                mod, comp::CompileOptions{policy});
            const analysis::FindingReport r =
                analysis::checkExecutable(exe);
            EXPECT_TRUE(r.empty())
                << workload::benchmarkName(id) << ": "
                << (r.empty() ? "" : r.findings()[0].toString());
        }
    }
}

TEST(Agreement, DensePolicyLeavesFewerMissedKills)
{
    // The Dense emitter kills at death points the *compiler's*
    // liveness finds; the advisory missed-kill rule counts death
    // points the *independent* liveness finds. If the two models
    // agree, densifying must strictly shrink the miss count.
    const prog::Module mod =
        workload::generateBenchmark(workload::BenchmarkId::Compress);
    const comp::Executable plain = comp::compile(
        mod, comp::CompileOptions{comp::EdviPolicy::None});
    const comp::Executable dense = comp::compile(
        mod, comp::CompileOptions{comp::EdviPolicy::Dense});
    const std::size_t missed_plain = countRule(
        analysis::checkExecutable(plain, true), "edvi-kill-missed");
    const std::size_t missed_dense = countRule(
        analysis::checkExecutable(dense, true), "edvi-kill-missed");
    EXPECT_GT(missed_plain, 0u);
    EXPECT_LT(missed_dense, missed_plain);
}

TEST(Agreement, GeneratedCorpusLintsClean)
{
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        Rng rng(mixSeed(0xab5, seed));
        const prog::Module mod =
            fuzz::generateProgram(fuzz::randomProgramParams(rng));
        if (!analysis::firstModuleError(mod).empty())
            continue;  // generator emits only valid modules
        for (comp::EdviPolicy policy :
             {comp::EdviPolicy::CallSites,
              comp::EdviPolicy::Dense}) {
            const comp::Executable exe = comp::compile(
                mod, comp::CompileOptions{policy});
            EXPECT_EQ(analysis::verifyKills(exe), "")
                << "seed " << seed;
        }
    }
}

// ---------------------------------------------- fault injection

TEST(FaultInjection, EveryApplicableFaultIsCaughtAtExactSite)
{
    // For each benchmark: use the *compiler's* liveness to find a
    // register that is provably live after some kill, corrupt that
    // kill's mask with it, and require the independent prover to
    // flag exactly that code index.
    unsigned proven = 0;
    for (workload::BenchmarkId id : workload::allBenchmarks()) {
        const prog::Module mod = workload::generateBenchmark(id);
        comp::Executable exe = comp::compile(
            mod,
            comp::CompileOptions{comp::EdviPolicy::CallSites});

        // All kill sites, in code order (applyKillFault's ordinal
        // space).
        std::vector<int> kills;
        for (std::size_t i = 0; i < exe.code.size(); ++i)
            if (exe.code[i].isKill())
                kills.push_back(static_cast<int>(i));
        if (kills.empty())
            continue;

        // Pick the first (kill, live reg) pair.
        int target = -1;
        unsigned ordinal = 0;
        RegIndex reg = 0;
        for (std::size_t p = 0;
             p < exe.procs.size() && target < 0; ++p) {
            const comp::ProcInfo &pi = exe.procs[p];
            if (pi.end <= pi.entry)
                continue;
            const comp::MachineLiveness ml =
                comp::analyzeProcedure(exe, static_cast<int>(p));
            for (int i = pi.entry; i < pi.end && target < 0; ++i) {
                const isa::Instruction &inst =
                    exe.code[static_cast<std::size_t>(i)];
                if (!inst.isKill())
                    continue;
                const RegMask live_not_killed =
                    ml.liveAfter[static_cast<std::size_t>(
                                     i - pi.entry)]
                        .minus(inst.killMask());
                live_not_killed.forEach([&](RegIndex r) {
                    if (target < 0 && r != isa::regZero) {
                        target = i;
                        reg = r;
                    }
                });
            }
        }
        if (target < 0)
            continue;
        for (unsigned k = 0; k < kills.size(); ++k)
            if (kills[k] == target)
                ordinal = k;

        fuzz::FaultSpec fault;
        fault.enabled = true;
        fault.killOrdinal = ordinal;
        fault.reg = reg;
        ASSERT_TRUE(fuzz::applyKillFault(exe, fault))
            << workload::benchmarkName(id);

        const analysis::FindingReport r =
            analysis::checkExecutable(exe);
        bool caught_at_site = false;
        for (const analysis::Finding &f : r.findings()) {
            if (f.rule == "edvi-kill-live" &&
                f.site.inst == target)
                caught_at_site = true;
        }
        EXPECT_TRUE(caught_at_site)
            << workload::benchmarkName(id) << ": corrupted kill at "
            << target << " (reg " << int(reg) << ") not flagged";
        ++proven;
    }
    // The benchmark suite must actually exercise this path.
    EXPECT_GE(proven, 3u);
}

TEST(FaultInjection, OracleStaticLayerRejectsCorruptedKill)
{
    // End-to-end through the fuzz oracle facade: the rebased layer 0
    // fails with the "static: " prefix the minimizer classifies on.
    // An injection can be benign (the extra bit may name a register
    // that is genuinely dead there) — sweep seeds and require the
    // static layer to catch at least one real corruption, and that
    // no corruption slips past it to a later layer.
    unsigned static_catches = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(mixSeed(0x51a7, seed));
        const prog::Module mod =
            fuzz::generateProgram(fuzz::randomProgramParams(rng));
        fuzz::OracleOptions opts;
        opts.maxProgInsts = 50000;
        opts.runCore = false;
        opts.fault.enabled = true;
        opts.fault.killOrdinal = seed;
        opts.fault.reg = 16 + (seed % 4);
        const fuzz::OracleReport rep = fuzz::runOracle(mod, opts);
        if (rep.ok)
            continue;  // benign injection: bit was already dead
        if (rep.failure.rfind("fault injection not applicable", 0) ==
            0)
            continue;  // no kill absorbed the spec
        EXPECT_EQ(rep.failure.rfind("static", 0), 0u)
            << "corruption escaped the static layer: "
            << rep.failure;
        if (rep.failure.rfind("static", 0) == 0)
            ++static_catches;
    }
    EXPECT_GE(static_catches, 1u);
}
