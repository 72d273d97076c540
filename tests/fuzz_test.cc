/**
 * @file
 * Tests for the differential-validation subsystem (src/fuzz/):
 * generator well-formedness and determinism, oracle layers, static
 * kill verification, fault injection end-to-end (catch -> minimize
 * -> replayable byte-identical repro), and the centralized test
 * seeding.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "arch/emulator.hh"
#include "base/fault.hh"
#include "base/test_seed.hh"
#include "analysis/lint.hh"
#include "compiler/compile.hh"
#include "fuzz/campaign.hh"
#include "fuzz/minimizer.hh"
#include "fuzz/oracle.hh"
#include "fuzz/program_gen.hh"
#include "fuzz/repro.hh"
#include "program/ir_json.hh"
#include "uarch/core.hh"
#include "workload/benchmarks.hh"
#include "workload/generator.hh"

namespace dvi
{
namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(TestSeed, EnvOverridesFallback)
{
    // Save and restore any real override: clobbering it would break
    // exactly the replay contract this variable exists for in every
    // later test of this binary.
    const char *prev = ::getenv("DVI_TEST_SEED");
    const std::string saved = prev ? prev : "";

    ::setenv("DVI_TEST_SEED", "1234", 1);
    EXPECT_EQ(testSeedQuiet(7), 1234u);
    ::setenv("DVI_TEST_SEED", "0x20", 1);
    EXPECT_EQ(testSeedQuiet(7), 32u);
    ::setenv("DVI_TEST_SEED", "bogus", 1);
    EXPECT_EQ(testSeedQuiet(7), 7u);
    ::unsetenv("DVI_TEST_SEED");
    EXPECT_EQ(testSeedQuiet(7), 7u);

    if (prev)
        ::setenv("DVI_TEST_SEED", saved.c_str(), 1);
}

TEST(TestSeed, MixSeedDecorrelatesAndNeverReturnsZero)
{
    EXPECT_NE(mixSeed(1, 0), mixSeed(1, 1));
    EXPECT_NE(mixSeed(1, 0), mixSeed(2, 0));
    for (std::uint64_t s = 0; s < 64; ++s)
        EXPECT_NE(mixSeed(0, s), 0u);
}

TEST(ProgramGen, DeterministicInSeed)
{
    Rng r1(42), r2(42);
    const fuzz::ProgramParams p1 = fuzz::randomProgramParams(r1);
    const fuzz::ProgramParams p2 = fuzz::randomProgramParams(r2);
    const prog::Module m1 = fuzz::generateProgram(p1);
    const prog::Module m2 = fuzz::generateProgram(p2);
    EXPECT_EQ(prog::moduleToJson(m1).dump(0),
              prog::moduleToJson(m2).dump(0));
}

TEST(ProgramGen, ProgramsAreWellFormedAndTerminate)
{
    const std::uint64_t base =
        testSeed(5, "ProgramGen.ProgramsAreWellFormedAndTerminate");
    for (unsigned i = 0; i < 10; ++i) {
        Rng rng(mixSeed(base, i));
        const prog::Module mod =
            fuzz::generateProgram(fuzz::randomProgramParams(rng));
        ASSERT_EQ(mod.validate(), "");
        const comp::Executable exe = comp::compile(
            mod, comp::CompileOptions{comp::EdviPolicy::None});
        arch::EmulatorOptions eo;
        eo.faultOnMisaligned = true;
        arch::Emulator emu(exe, eo);
        emu.run(300000);
        EXPECT_FALSE(emu.faulted()) << "seed index " << i;
        EXPECT_EQ(emu.stats().deadReads, 0u) << "seed index " << i;
    }
}

TEST(IrJson, RoundTripsByteIdentical)
{
    Rng rng(mixSeed(testSeed(9, "IrJson.RoundTripsByteIdentical"),
                    0));
    const prog::Module mod =
        fuzz::generateProgram(fuzz::randomProgramParams(rng));
    const std::string text = prog::moduleToJson(mod).dump(2);
    const json::ParseResult parsed = json::parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    prog::Module loaded;
    ASSERT_EQ(prog::moduleFromJson(parsed.value, loaded), "");
    EXPECT_EQ(prog::moduleToJson(loaded).dump(2), text);
}

TEST(IrJson, RejectsMalformedDocuments)
{
    prog::Module out;
    EXPECT_NE(moduleFromJson(json::Value(std::uint64_t(3)), out),
              "");
    json::Value obj = json::Value::object();
    obj.set("name", json::Value("x"));
    EXPECT_NE(moduleFromJson(obj, out), "");  // missing everything
}

TEST(IrJson, RejectsReadBeyondNextVRegNamingItsSite)
{
    // Serialization does not validate, so a repro can carry a read of
    // a vreg the procedure never allocated; loading must refuse it.
    prog::Module mod;
    mod.name = "stray-read";
    mod.procs.resize(1);
    prog::Procedure &main = mod.procs[0];
    main.name = "main";
    main.numLocalSlots = 1;
    const int b = main.newBlock();
    const prog::VReg v = main.newVReg();
    main.emit(b, prog::irLoadImm(v, 1));
    main.emit(b, prog::irStoreStack(7, 0));  // nextVReg is 2
    main.emit(b, prog::irHalt());

    prog::Module out;
    const std::string err =
        prog::moduleFromJson(prog::moduleToJson(mod), out);
    EXPECT_NE(err.find("proc main block 0 inst 1"), std::string::npos)
        << err;
    EXPECT_NE(err.find("vreg 7"), std::string::npos) << err;
}

/** Load a one-procedure module's JSON (mainIndex 0, globalWords 40,
 * nextVReg 2) with the text `from` replaced by `to`; return the
 * loader's diagnostic. */
std::string
loadEdited(const std::string &from, const std::string &to)
{
    prog::Module mod;
    mod.name = "edited";
    mod.globalWords = 40;
    mod.procs.resize(1);
    prog::Procedure &main = mod.procs[0];
    main.name = "main";
    const int b = main.newBlock();
    main.emit(b, prog::irLoadImm(main.newVReg(), 1));
    main.emit(b, prog::irHalt());

    std::string text = prog::moduleToJson(mod).dump(2);
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << text;
    if (at != std::string::npos)
        text.replace(at, from.size(), to);
    const json::ParseResult parsed = json::parse(text);
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    prog::Module out;
    return prog::moduleFromJson(parsed.value, out);
}

TEST(IrJson, RejectsMainIndexBeyondInt)
{
    EXPECT_EQ(loadEdited("\"mainIndex\": 0", "\"mainIndex\": 0"), "");
    const std::string err =
        loadEdited("\"mainIndex\": 0", "\"mainIndex\": 4294967296");
    EXPECT_NE(err.find("mainIndex"), std::string::npos) << err;
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;
}

TEST(IrJson, RejectsGlobalWordsBeyondUnsigned)
{
    const std::string err = loadEdited("\"globalWords\": 40",
                                       "\"globalWords\": 4294967336");
    EXPECT_NE(err.find("globalWords"), std::string::npos) << err;
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;
}

TEST(IrJson, RejectsNextVRegAboveTheLoadLimit)
{
    // It fits a VReg, but liveness would size bit sets by it.
    const std::string err = loadEdited("\"nextVReg\": 2",
                                       "\"nextVReg\": 2000000000");
    EXPECT_NE(err.find("proc 0: nextVReg"), std::string::npos) << err;
    EXPECT_NE(err.find("load limit"), std::string::npos) << err;
}

TEST(Oracle, PassesOnGeneratedPrograms)
{
    fuzz::FuzzConfig cfg;
    cfg.seed = testSeed(11, "Oracle.PassesOnGeneratedPrograms");
    cfg.programs = 30;
    cfg.oracle.maxProgInsts = 30000;
    cfg.reproPrefix =
        ::testing::TempDir() + "fuzz-test-oracle";
    const fuzz::FuzzResult result =
        fuzz::runFuzzCampaign(cfg, nullptr);
    EXPECT_EQ(result.failures, 0u) << result.firstFailure;
    EXPECT_EQ(result.programsRun, 30u);
    EXPECT_GT(result.totalProgInsts, 0u);
    // The stream must actually exercise DVI.
    EXPECT_GT(result.totalStaticKills, 0u);
    EXPECT_GT(result.totalSavesEliminated, 0u);
}

TEST(Oracle, RejectsUseOfUndefinedVReg)
{
    prog::Module mod;
    mod.name = "bad";
    mod.globalWords = 16;
    mod.procs.resize(1);
    prog::Procedure &main = mod.procs[0];
    main.name = "main";
    const int b = main.newBlock();
    const prog::VReg ghost = main.newVReg();
    prog::VReg dst = main.newVReg();
    main.emit(b, prog::irAluImm(prog::IrOp::AddImm, dst, ghost, 1));
    main.emit(b, prog::irHalt());
    ASSERT_EQ(mod.validate(), "");  // structurally fine...

    const fuzz::OracleReport rep =
        fuzz::runOracle(mod, fuzz::OracleOptions{});
    EXPECT_FALSE(rep.ok);
    EXPECT_EQ(rep.failure.rfind("invalid module", 0), 0u)
        << rep.failure;
}

TEST(Oracle, MisalignedAccessIsClassedIllFormed)
{
    prog::Module mod;
    mod.name = "misaligned";
    mod.globalWords = 16;
    mod.procs.resize(1);
    prog::Procedure &main = mod.procs[0];
    main.name = "main";
    const int b = main.newBlock();
    prog::VReg base = main.newVReg();
    main.emit(b, prog::irLoadImm(
                     base, static_cast<std::int32_t>(
                               prog::Module::globalBase)));
    prog::VReg t = main.newVReg();
    main.emit(b, prog::irLoad(t, base, 4));  // not 8-aligned
    main.emit(b, prog::irHalt());
    ASSERT_EQ(mod.validate(), "");

    const fuzz::OracleReport rep =
        fuzz::runOracle(mod, fuzz::OracleOptions{});
    EXPECT_FALSE(rep.ok);
    EXPECT_NE(rep.failure.find("ill-formed program"),
              std::string::npos)
        << rep.failure;
    // The class is excluded from real failures, so the minimizer
    // will never chase it.
    EXPECT_FALSE(
        fuzz::realOracleFailure(mod, fuzz::OracleOptions{}));
}

TEST(Emulator, MisalignedFaultIsGracefulWhenEnabled)
{
    prog::Module mod;
    mod.name = "misaligned";
    mod.globalWords = 16;
    mod.procs.resize(1);
    prog::Procedure &main = mod.procs[0];
    main.name = "main";
    const int b = main.newBlock();
    prog::VReg base = main.newVReg();
    main.emit(b, prog::irLoadImm(
                     base, static_cast<std::int32_t>(
                               prog::Module::globalBase)));
    prog::VReg t = main.newVReg();
    main.emit(b, prog::irLoad(t, base, 4));
    main.emit(b, prog::irHalt());
    const comp::Executable exe = comp::compile(
        mod, comp::CompileOptions{comp::EdviPolicy::None});

    arch::EmulatorOptions graceful;
    graceful.faultOnMisaligned = true;
    arch::Emulator soft(exe, graceful);
    soft.run(100);
    EXPECT_TRUE(soft.faulted());
    EXPECT_TRUE(soft.halted());

    arch::Emulator hard(exe);  // default: alignment panics
    EXPECT_DEATH(hard.run(100), "unaligned");
}

TEST(StaticVerifier, CleanOnEveryBenchmarkAndPolicy)
{
    for (workload::BenchmarkId id : workload::allBenchmarks()) {
        const prog::Module mod = workload::generateBenchmark(id);
        for (comp::EdviPolicy policy :
             {comp::EdviPolicy::CallSites, comp::EdviPolicy::Dense}) {
            const comp::Executable exe = comp::compile(
                mod, comp::CompileOptions{policy});
            EXPECT_EQ(analysis::verifyKills(exe), "")
                << workload::benchmarkName(id);
        }
    }
}

TEST(StaticVerifier, FlagsCorruptedKillMask)
{
    const prog::Module mod =
        workload::generateBenchmark(workload::BenchmarkId::Perl);
    comp::Executable exe = comp::compile(
        mod, comp::CompileOptions{comp::EdviPolicy::CallSites});
    ASSERT_GT(exe.countKills(), 0u);

    // Find an applicable corruption (some bits are already set).
    bool applied = false;
    for (unsigned ordinal = 0; ordinal < 8 && !applied; ++ordinal) {
        for (RegIndex reg = 4; reg < 24 && !applied; ++reg) {
            fuzz::FaultSpec f;
            f.enabled = true;
            f.killOrdinal = ordinal;
            f.reg = reg;
            comp::Executable candidate = exe;
            if (fuzz::applyKillFault(candidate, f)) {
                applied = true;
                EXPECT_NE(analysis::verifyKills(candidate), "");
            }
        }
    }
    ASSERT_TRUE(applied);
}

/** End-to-end acceptance: an intentionally-broken kill mask is
 * caught, minimized, and replayed byte-identically from its emitted
 * manifest — with the static layer on (cheapest catch) and off (the
 * dynamic dead-read layer must catch it instead). */
class FaultInjectionTest : public ::testing::TestWithParam<bool>
{
};

TEST_P(FaultInjectionTest, CaughtMinimizedAndReplayable)
{
    const bool static_check = GetParam();
    fuzz::FuzzConfig cfg;
    cfg.seed = 1;
    cfg.programs = 10;
    cfg.maxFailures = 1;
    cfg.oracle.maxProgInsts = 40000;
    cfg.oracle.staticCheck = static_check;
    cfg.oracle.fault.enabled = true;
    cfg.oracle.fault.killOrdinal = 1;
    cfg.oracle.fault.reg = 17;
    cfg.reproPrefix = ::testing::TempDir() + "fuzz-test-fault-" +
                      (static_check ? "static" : "dynamic");

    const fuzz::FuzzResult result =
        fuzz::runFuzzCampaign(cfg, nullptr);
    ASSERT_EQ(result.failures, 1u);
    ASSERT_EQ(result.reproPaths.size(), 1u);
    if (static_check)
        EXPECT_NE(result.firstFailure.find("static:"),
                  std::string::npos)
            << result.firstFailure;
    else
        EXPECT_NE(result.firstFailure.find("dead read"),
                  std::string::npos)
            << result.firstFailure;

    // The repro loads, replays to the same failure, and re-emits
    // byte-identically.
    const std::string text = readFile(result.reproPaths[0]);
    ASSERT_FALSE(text.empty());
    fuzz::Repro repro;
    ASSERT_EQ(fuzz::reproFromJson(text, repro), "");
    EXPECT_EQ(fuzz::reproToJson(repro), text);
    const fuzz::OracleReport replayed = fuzz::replay(repro);
    EXPECT_FALSE(replayed.ok);
    EXPECT_EQ(replayed.failure, repro.failure);

    // Minimization really shrank it.
    std::size_t insts = 0;
    for (const auto &p : repro.program.procs)
        insts += p.instCount();
    EXPECT_LE(insts, 200u);
}

INSTANTIATE_TEST_SUITE_P(StaticAndDynamic, FaultInjectionTest,
                         ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? "StaticLayer"
                                               : "DynamicLayers";
                         });

#ifndef NDEBUG
TEST(CoreInvariant, DispatchReadOfKilledRegisterThrows)
{
    // The debug-build hook in uarch::Core::doDispatch: a committed
    // instruction reading a register whose mapping a kill reclaimed
    // is incorrect E-DVI and must stop the run with a permanent
    // fault, not simulate on (nor abort the process).
    using isa::Instruction;
    using isa::Opcode;
    comp::Executable exe;
    exe.code.push_back(Instruction::aluImm(Opcode::Addi, 5, 0, 7));
    exe.code.push_back(Instruction::kill(RegMask{5}));
    exe.code.push_back(Instruction::alu(Opcode::Add, 6, 5, 5));
    exe.code.push_back(Instruction::halt());
    exe.procs.push_back(comp::ProcInfo{"main", 0, 4});
    exe.entry = 0;

    uarch::CoreConfig cc;
    cc.dvi = uarch::DviConfig::full();
    uarch::Core core(exe, cc);
    try {
        core.run();
        ADD_FAILURE() << "dead read was not caught";
    } catch (const base::Fault &f) {
        EXPECT_EQ(f.kind(), base::FaultKind::Permanent);
        EXPECT_NE(std::string(f.what()).find("DVI invariant"),
                  std::string::npos)
            << f.what();
    }
}
#endif

TEST(Minimizer, ShrinksToThePredicateCore)
{
    // A synthetic failure: "main contains a Div". The minimizer
    // should strip nearly everything else.
    prog::Module mod;
    mod.name = "shrink";
    mod.globalWords = 16;
    mod.procs.resize(1);
    prog::Procedure &main = mod.procs[0];
    main.name = "main";
    const int b = main.newBlock();
    prog::VReg a = main.newVReg();
    main.emit(b, prog::irLoadImm(a, 5));
    for (int i = 0; i < 30; ++i) {
        prog::VReg t = main.newVReg();
        main.emit(b, prog::irAluImm(prog::IrOp::AddImm, t, a, i));
    }
    prog::VReg d = main.newVReg();
    main.emit(b, prog::irAlu(prog::IrOp::Div, d, a, a));
    main.emit(b, prog::irHalt());
    ASSERT_EQ(mod.validate(), "");

    const auto has_div = [](const prog::Module &m) {
        for (const auto &p : m.procs)
            for (const auto &blk : p.blocks)
                for (const auto &inst : blk.insts)
                    if (inst.op == prog::IrOp::Div)
                        return true;
        return false;
    };
    fuzz::MinimizeStats stats;
    const prog::Module small =
        fuzz::minimize(mod, has_div, 1000, &stats);
    EXPECT_TRUE(has_div(small));
    EXPECT_LT(stats.instsAfter, stats.instsBefore);
    EXPECT_LE(small.procs[0].instCount(), 3u);
    EXPECT_GT(stats.probes, 0u);
}

TEST(Minimizer, DropsUncalledProcedures)
{
    Rng rng(mixSeed(
        testSeed(21, "Minimizer.DropsUncalledProcedures"), 3));
    fuzz::ProgramParams params = fuzz::randomProgramParams(rng);
    params.numProcs = 5;
    const prog::Module mod = fuzz::generateProgram(params);
    const auto always = [](const prog::Module &m) {
        return !m.procs.empty();
    };
    fuzz::MinimizeStats stats;
    const prog::Module small =
        fuzz::minimize(mod, always, 2000, &stats);
    EXPECT_EQ(small.procs.size(), 1u);  // only main survives
    EXPECT_EQ(small.mainIndex, 0);
}

} // namespace
} // namespace dvi
