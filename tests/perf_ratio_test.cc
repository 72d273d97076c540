/**
 * @file
 * Simulator-throughput gate built from ratios measured in one
 * process, so it needs no baseline and holds on any host.
 *
 *  - Window scaling: host time per committed instruction at a
 *    256-entry window over a 32-entry one, on a loop that keeps
 *    either window full. The event-driven core does O(1) scheduler
 *    work per instruction, so the ratio stays near 1; a scan over
 *    the window per dispatch or per cycle makes it grow with the
 *    window.
 *  - Tier speedup: the oracle runner's throughput on the
 *    translation-cache tier over the interpreter, on the benchmark
 *    suite, once with liveness tracking off and once with it on
 *    (where the translation tier tests each block's dead-read
 *    probes once at entry and keeps the LVM in a register).
 *
 * Each check runs its two sides back to back in pairs, after one
 * untimed warm-up of each (compiles and block translations stay
 * outside), and takes the median of the paired ratios. The two runs
 * of a pair share the host's speed at that moment, so a slow spell
 * moves only the pairs it covers; a best-of-N taken per side would
 * pair one side's fast run from before the spell with the other's
 * slow run from inside it. CMake runs this test alone (RUN_SERIAL),
 * since other tests' cache traffic slows the larger window more.
 * Optimized builds only: Debug and sanitizer builds skip it, since
 * their costs are not the ones gated here.
 *
 * perfbench/ measures end-to-end throughput; this test only keeps
 * the three ratios from regressing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "compiler/compile.hh"
#include "driver/campaign.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "test_programs.hh"
#include "uarch/core.hh"
#include "workload/benchmarks.hh"

namespace dvi
{
namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Largest allowed (ns/inst at window 256) / (ns/inst at window 32). */
constexpr double maxWindowRatio = 1.8;

/** Smallest allowed xlate / interp oracle throughput, liveness off. */
constexpr double minTierSpeedup = 1.5;

/** The same with liveness tracking on. */
constexpr double minLiveTierSpeedup = 1.9;

/** Median over `pairs` back-to-back runs of num() / den(), after one
 * untimed warm-up of each. */
template <class Num, class Den>
double
medianPairedRatio(int pairs, Num num, Den den)
{
    num();
    den();
    std::vector<double> ratios;
    for (int i = 0; i < pairs; ++i) {
        const double d = den();
        ratios.push_back(num() / d);
    }
    std::nth_element(ratios.begin(), ratios.begin() + pairs / 2,
                     ratios.end());
    return ratios[pairs / 2];
}

/** Host nanoseconds per committed instruction of one timed run. */
double
coreNsPerInst(const comp::Executable &exe, unsigned window)
{
    uarch::CoreConfig cfg;
    cfg.windowSize = window;
    cfg.numPhysRegs = window + 64;
    uarch::Core core(exe, cfg);
    const Clock::time_point t0 = Clock::now();
    const uarch::CoreStats &stats = core.run();
    const double secs = secondsSince(t0);
    EXPECT_GT(stats.committedProgInsts, 0u);
    return secs * 1e9 / static_cast<double>(stats.committedProgInsts);
}

TEST(PerfRatio, HostCostPerInstDoesNotGrowWithWindow)
{
#ifndef NDEBUG
    GTEST_SKIP() << "timing gate runs in optimized builds only";
#endif
    const comp::Executable exe =
        comp::compile(testprog::windowFillProgram(4000));
    const double ratio = medianPairedRatio(
        15, [&] { return coreNsPerInst(exe, 256); },
        [&] { return coreNsPerInst(exe, 32); });
    std::printf("ns/inst at window 256 over window 32: %.3f "
                "(limit %.2f)\n",
                ratio, maxWindowRatio);
    EXPECT_LT(ratio, maxWindowRatio);
}

/** Median over 7 pairs of the oracle suite's interpreter time over
 * its translation-tier time: one oracle job per benchmark, compiled
 * once up front, with liveness tracking on or off. */
double
oracleTierSpeedup(bool track_liveness)
{
    driver::ExecutableCache cache;
    std::vector<sim::Scenario> jobs;
    std::vector<std::shared_ptr<const comp::Executable>> exes;
    for (const workload::BenchmarkId bench :
         workload::allBenchmarks()) {
        sim::Scenario s;
        s.runner = "oracle";
        s.workload = bench;
        sim::applyPreset(s, sim::presetFull());
        s.emu.trackLiveness = track_liveness;
        s.budget.maxInsts = 500000;
        exes.push_back(cache.get(s.workload, s.binary.edvi));
        jobs.push_back(s);
    }
    const sim::Runner &oracle = sim::runnerFor("oracle");

    // Both tiers must retire the same stream, so the time ratio is
    // the throughput ratio.
    std::uint64_t insts[2] = {0, 0};
    auto suiteSeconds = [&](arch::ExecTier tier) {
        std::uint64_t total = 0;
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            sim::Scenario s = jobs[i];
            s.emu.tier = tier;
            total += oracle.simulatedInsts(oracle.run(s, *exes[i]));
        }
        const double secs = secondsSince(t0);
        insts[tier == arch::ExecTier::Xlate] = total;
        return secs;
    };
    const double speedup = medianPairedRatio(
        7, [&] { return suiteSeconds(arch::ExecTier::Interp); },
        [&] { return suiteSeconds(arch::ExecTier::Xlate); });
    EXPECT_EQ(insts[0], insts[1]);
    std::printf("oracle suite, liveness %s, %llu insts: xlate over "
                "interp %.3f\n",
                track_liveness ? "on" : "off",
                static_cast<unsigned long long>(insts[0]), speedup);
    return speedup;
}

TEST(PerfRatio, XlateTierOutrunsInterpreter)
{
#ifndef NDEBUG
    GTEST_SKIP() << "timing gate runs in optimized builds only";
#endif
    // Raw emulation, as the timing core's own emulator runs.
    EXPECT_GE(oracleTierSpeedup(false), minTierSpeedup);
}

TEST(PerfRatio, XlateTierOutrunsInterpreterWithLiveness)
{
#ifndef NDEBUG
    GTEST_SKIP() << "timing gate runs in optimized builds only";
#endif
    // The functional LVM oracle, as the oracle and context-switch
    // runs and the fuzz oracle use it.
    EXPECT_GE(oracleTierSpeedup(true), minLiveTierSpeedup);
}

} // namespace
} // namespace dvi
