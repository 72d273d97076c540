/**
 * @file
 * Cross-module integration tests: the full generate -> compile ->
 * emulate -> time pipeline, plus the end-to-end properties the
 * paper's evaluation depends on.
 */

#include <gtest/gtest.h>

#include "arch/emulator.hh"
#include "compiler/compile.hh"
#include "compiler/rewriter.hh"
#include "driver/regfile_timing.hh"
#include "os/scheduler.hh"
#include "sim/scenario.hh"
#include "uarch/core.hh"
#include "workload/benchmarks.hh"

namespace dvi
{
namespace
{

/** Benchmark `id` compiled under an E-DVI policy. */
comp::Executable
compiled(workload::BenchmarkId id, comp::EdviPolicy policy)
{
    return comp::compile(workload::generateBenchmark(id),
                         comp::CompileOptions{policy});
}

class IntegrationTest
    : public ::testing::TestWithParam<workload::BenchmarkId>
{
};

TEST_P(IntegrationTest, FullPipelineRunsClean)
{
    const comp::Executable edvi =
        compiled(GetParam(), comp::EdviPolicy::CallSites);

    // Functional, strict liveness.
    arch::EmulatorOptions opts;
    opts.strictDeadReads = true;
    opts.lvmStackDepth = 16;
    arch::Emulator emu(edvi, opts);
    emu.run(40000);
    EXPECT_EQ(emu.stats().deadReads, 0u);

    // Timing, full DVI.
    uarch::CoreConfig cfg;
    cfg.maxInsts = 20000;
    cfg.dvi = uarch::DviConfig::full();
    uarch::Core core(edvi, cfg);
    const uarch::CoreStats &s = core.run();
    EXPECT_GT(s.ipc(), 0.3);
    EXPECT_LE(s.savesEliminated, s.savesSeen);
    EXPECT_LE(s.restoresEliminated, s.restoresSeen);
}

TEST_P(IntegrationTest, StackDepthBenefitIsMonotonic)
{
    const comp::Executable edvi =
        compiled(GetParam(), comp::EdviPolicy::CallSites);
    std::uint64_t prev = 0;
    for (unsigned depth : {2u, 4u, 8u, 16u, 0u}) {  // 0 = unbounded
        arch::EmulatorOptions opts;
        opts.lvmStackDepth = depth;
        arch::Emulator emu(edvi, opts);
        emu.run(60000);
        const std::uint64_t elim = emu.stats().restoreElimOracle;
        EXPECT_GE(elim, prev) << "depth " << depth;
        prev = elim;
    }
}

TEST_P(IntegrationTest, DviPresetsOrderedByCapability)
{
    auto elim_at = [&](const sim::DviPreset &preset) {
        arch::EmulatorOptions opts;
        // A no-DVI machine has no LVM at all.
        opts.trackLiveness = preset.hw.useIdvi || preset.hw.useEdvi;
        opts.honorEdvi = preset.hw.useEdvi;
        opts.honorIdvi = preset.hw.useIdvi;
        opts.lvmStackDepth = 16;
        arch::Emulator emu(compiled(GetParam(), preset.edvi), opts);
        emu.run(60000);
        return emu.stats().saveElimOracle +
               emu.stats().restoreElimOracle;
    };

    const auto none = elim_at(sim::presetNone());
    const auto idvi = elim_at(sim::presetIdvi());
    const auto full = elim_at(sim::presetFull());
    EXPECT_EQ(none, 0u);
    // E-DVI kills callee-saved registers, which is what save/restore
    // elimination targets; I-DVI alone contributes little here but
    // must never *hurt*.
    EXPECT_GE(full, idvi);
    EXPECT_GT(full, 0u);
}

TEST_P(IntegrationTest, ContextSwitchReductionConsistent)
{
    const comp::Executable edvi =
        compiled(GetParam(), comp::EdviPolicy::CallSites);
    os::SchedulerOptions so;
    so.quantum = 5000;
    so.maxTotalInsts = 60000;
    os::Scheduler sched(so);
    sched.addThread("t", edvi, arch::EmulatorOptions{});
    sched.run();
    const os::SwitchStats &s = sched.stats();
    ASSERT_GT(s.contextSwitches, 0u);
    // Reduction percent must match the histogram arithmetic.
    const double expected =
        100.0 *
        (1.0 - s.liveIntAtSwitch.mean() /
                   isa::contextSwitchSavedMask().count());
    // Switch-in restores use the stored LVM of the same switch, so
    // out+in pairs agree with the histogram within rounding and the
    // first-dispatch edge.
    EXPECT_NEAR(s.intReductionPercent(), expected, 2.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, IntegrationTest,
    ::testing::ValuesIn(workload::allBenchmarks()),
    [](const auto &info) {
        return workload::benchmarkName(info.param);
    });

TEST(Integration, RegfilePerformanceModelComposition)
{
    // IPC from the core composes with the timing model into the
    // Fig. 6 metric, and DVI's peak lands at a smaller file.
    timing::RegFileTimingModel model;

    auto perf = [&](const sim::DviPreset &preset, unsigned nregs) {
        uarch::CoreConfig cfg;
        cfg.dvi = preset.hw;
        cfg.numPhysRegs = nregs;
        cfg.maxInsts = 20000;
        uarch::Core core(
            compiled(workload::BenchmarkId::Gcc, preset.edvi), cfg);
        return model.performance(core.run().ipc(), nregs, 4);
    };

    // At a small file DVI wins on both IPC and cycle time.
    EXPECT_GT(perf(sim::presetFull(), 42),
              perf(sim::presetNone(), 42));
}

TEST(Integration, RewrittenBinaryDrivesTheCore)
{
    comp::Executable rewritten = comp::insertEdvi(
        compiled(workload::BenchmarkId::Perl, comp::EdviPolicy::None));

    uarch::CoreConfig cfg;
    cfg.maxInsts = 20000;
    cfg.dvi = uarch::DviConfig::full();
    uarch::Core core(rewritten, cfg);
    const uarch::CoreStats &s = core.run();
    EXPECT_GT(s.savesEliminated, 0u);
    EXPECT_GT(s.restoresEliminated, 0u);
}

} // namespace
} // namespace dvi
