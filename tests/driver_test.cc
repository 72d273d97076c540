/**
 * @file
 * Tests for the campaign driver: compile-once executable cache,
 * runner dispatch, deterministic report emission, and the headline
 * guarantee that a parallel campaign is byte-identical to a serial
 * one.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "driver/campaign.hh"
#include "driver/report.hh"
#include "driver/scenario_registry.hh"
#include "obs/telemetry.hh"

namespace dvi
{
namespace
{

sim::Scenario
timingScenario(workload::BenchmarkId id, const sim::DviPreset &preset,
               std::uint64_t insts)
{
    sim::Scenario s;
    s.runner = "timing";
    s.workload = id;
    s.budget.maxInsts = insts;
    sim::applyPreset(s, preset);
    return s;
}

/** A small mixed-runner campaign that runs in well under a second. */
driver::Campaign
smallCampaign(std::uint64_t insts = 5000)
{
    driver::Campaign c("test-campaign");
    for (auto id :
         {workload::BenchmarkId::Li, workload::BenchmarkId::Perl}) {
        for (const sim::DviPreset &preset : sim::paperPresets())
            c.add(timingScenario(id, preset, insts));

        sim::Scenario oracle;
        oracle.runner = "oracle";
        oracle.workload = id;
        oracle.budget.maxInsts = insts;
        sim::applyPreset(oracle, sim::presetFull());
        oracle.label = "oracle";
        c.add(oracle);

        sim::Scenario sw = oracle;
        sw.runner = "switch";
        sw.budget.quantum = 1000;
        sw.label = "switch";
        c.add(sw);
    }
    return c;
}

TEST(ExecutableCache, CompilesOncePerPolicyAndShares)
{
    driver::ExecutableCache cache;
    const auto a = cache.get(workload::BenchmarkId::Li,
                             comp::EdviPolicy::CallSites);
    const auto b = cache.get(workload::BenchmarkId::Li,
                             comp::EdviPolicy::CallSites);
    ASSERT_TRUE(a);
    EXPECT_EQ(a.get(), b.get());  // same object, not a recompile
    EXPECT_EQ(cache.size(), 1u);

    // A different policy of the same benchmark is a distinct entry.
    const auto c = cache.get(workload::BenchmarkId::Li,
                             comp::EdviPolicy::None);
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_GT(a->textBytes(), c->textBytes());  // kills cost bytes

    const auto d = cache.get(workload::BenchmarkId::Go,
                             comp::EdviPolicy::CallSites);
    EXPECT_NE(a.get(), d.get());
    EXPECT_EQ(cache.size(), 3u);
}

TEST(ExecutableCache, SafeUnderConcurrentGet)
{
    driver::ExecutableCache cache;
    driver::ThreadPool pool(4);
    std::atomic<const comp::Executable *> seen{nullptr};
    std::atomic<int> mismatches{0};
    driver::parallelFor(pool, 32, [&](std::size_t) {
        const auto exe = cache.get(workload::BenchmarkId::Gcc,
                                   comp::EdviPolicy::CallSites);
        const comp::Executable *expected = nullptr;
        if (!seen.compare_exchange_strong(expected, exe.get()) &&
            expected != exe.get())
            ++mismatches;
    });
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(Job, SeedIsDeterministicAndDistinct)
{
    EXPECT_EQ(driver::jobSeed(0), driver::jobSeed(0));
    EXPECT_NE(driver::jobSeed(0), driver::jobSeed(1));
    EXPECT_NE(driver::jobSeed(1), driver::jobSeed(2));
}

TEST(Job, RunnersProduceTheirStats)
{
    driver::ExecutableCache cache;
    driver::JobSpec spec;
    spec.scenario = timingScenario(workload::BenchmarkId::Li,
                                   sim::presetFull(), 3000);

    driver::JobResult timing = driver::runJob(spec, cache);
    EXPECT_GT(timing.run.core.cycles, 0u);
    EXPECT_GT(timing.run.ipc, 0.0);
    EXPECT_GT(timing.textBytes, 0u);

    spec.scenario.runner = "oracle";
    driver::JobResult oracle = driver::runJob(spec, cache);
    EXPECT_GT(oracle.run.oracle.insts, 0u);
    EXPECT_EQ(oracle.run.core.cycles, 0u);

    spec.scenario.runner = "switch";
    spec.scenario.budget.quantum = 500;
    driver::JobResult sw = driver::runJob(spec, cache);
    EXPECT_GT(sw.run.sw.contextSwitches, 0u);
}

TEST(Campaign, ResultsOrderedByJobIndex)
{
    const driver::Campaign c = smallCampaign();
    const driver::CampaignReport rep =
        c.run(driver::CampaignOptions{4});
    ASSERT_EQ(rep.results.size(), c.size());
    for (std::size_t i = 0; i < rep.results.size(); ++i) {
        EXPECT_EQ(rep.results[i].spec.index, i);
        EXPECT_EQ(rep.results[i].spec.scenario.workload,
                  c.jobs()[i].scenario.workload);
        EXPECT_EQ(rep.results[i].spec.scenario.label,
                  c.jobs()[i].scenario.label);
    }
}

TEST(Campaign, ParallelReportIsByteIdenticalToSerial)
{
    const driver::Campaign c = smallCampaign();

    const driver::CampaignReport serial =
        c.run(driver::CampaignOptions{1});
    const driver::CampaignReport parallel =
        c.run(driver::CampaignOptions{8});

    EXPECT_EQ(serial.toJson(), parallel.toJson());
    EXPECT_EQ(serial.toCsv(), parallel.toCsv());
    // And re-running serially is reproducible, not just consistent.
    EXPECT_EQ(serial.toJson(),
              c.run(driver::CampaignOptions{1}).toJson());
}

TEST(Campaign, FigureScenarioParallelMatchesSerial)
{
    // The acceptance-criterion shape at a test-sized budget:
    // figure 10's grid with 1 worker vs. 8 workers.
    const driver::Campaign c =
        driver::scenarioFor("fig10").build(4000);
    EXPECT_EQ(c.size(),
              3 * workload::saveRestoreBenchmarks().size());
    const std::string serial =
        c.run(driver::CampaignOptions{1}).toJson();
    const std::string parallel =
        c.run(driver::CampaignOptions{8}).toJson();
    EXPECT_EQ(serial, parallel);
}

TEST(Campaign, CancelBeforeRunSkipsEveryJob)
{
    const driver::Campaign c = smallCampaign(2000);
    std::atomic<bool> cancel{true};  // raised before run() starts
    driver::CampaignOptions copts;
    copts.jobs = 2;
    copts.cancel = &cancel;

    const driver::CampaignReport rep = c.run(copts);
    EXPECT_TRUE(rep.cancelled);
    ASSERT_EQ(rep.results.size(), c.size());
    // No job ran: every result slot is default-constructed.
    for (const driver::JobResult &r : rep.results) {
        EXPECT_EQ(r.run.core.cycles, 0u);
        EXPECT_EQ(r.run.oracle.insts, 0u);
        EXPECT_EQ(r.textBytes, 0u);
    }
}

TEST(Campaign, CancelMidRunDrainsInFlightJobsOnly)
{
    const driver::Campaign c = smallCampaign(2000);
    std::atomic<bool> cancel{false};

    // Raise the flag from the telemetry stream after the first job
    // finishes — the cooperative contract says jobs already started
    // drain normally and the rest are skipped.
    obs::TelemetrySink sink;
    sink.addObserver([&cancel](const obs::Event &e) {
        if (std::string(e.kind) == "job-end")
            cancel.store(true);
    });

    driver::CampaignOptions copts;
    copts.jobs = 1;  // serial: at most one job in flight at cancel
    copts.telemetry = &sink;
    copts.cancel = &cancel;

    const driver::CampaignReport rep = c.run(copts);
    EXPECT_TRUE(rep.cancelled);
    ASSERT_EQ(rep.results.size(), c.size());

    std::size_t completed = 0;
    for (const driver::JobResult &r : rep.results)
        if (r.textBytes > 0)
            ++completed;
    EXPECT_GE(completed, 1u);          // the in-flight job drained
    EXPECT_LT(completed, c.size());    // the tail was skipped
}

TEST(Campaign, UncancelledRunReportsCancelledFalse)
{
    const driver::Campaign c = smallCampaign(2000);
    std::atomic<bool> cancel{false};
    driver::CampaignOptions copts;
    copts.jobs = 2;
    copts.cancel = &cancel;
    EXPECT_FALSE(c.run(copts).cancelled);
    EXPECT_FALSE(c.run(driver::CampaignOptions{2}).cancelled);
}

TEST(Report, JsonIsWellFormedEnough)
{
    const driver::Campaign c = smallCampaign(2000);
    const std::string json =
        c.run(driver::CampaignOptions{2}).toJson();
    EXPECT_NE(json.find("\"campaign\": \"test-campaign\""),
              std::string::npos);
    EXPECT_NE(json.find("\"runner\": \"timing\""), std::string::npos);
    EXPECT_NE(json.find("\"runner\": \"oracle\""), std::string::npos);
    EXPECT_NE(json.find("\"runner\": \"switch\""), std::string::npos);
    EXPECT_NE(json.find("\"preset\": \"idvi\""), std::string::npos);
    // Balanced braces and brackets.
    long depth = 0;
    for (char ch : json) {
        if (ch == '{' || ch == '[')
            ++depth;
        if (ch == '}' || ch == ']')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(Report, FormatParse)
{
    EXPECT_EQ(driver::parseReportFormat("json"),
              driver::ReportFormat::Json);
    EXPECT_EQ(driver::parseReportFormat("csv"),
              driver::ReportFormat::Csv);
}

TEST(Figures, EverySupportedFigureIsRegistered)
{
    // Every paper figure runs one way: `dvi-run --scenario figNN`.
    for (const char *name :
         {"fig02", "fig03", "fig05", "fig06", "fig09", "fig10",
          "fig11", "fig12", "fig13"}) {
        const driver::RegisteredScenario *s =
            driver::ScenarioRegistry::instance().find(name);
        ASSERT_NE(s, nullptr) << name;
        EXPECT_FALSE(s->description.empty());
        EXPECT_GT(s->defaultInsts, 0u);
        EXPECT_TRUE(static_cast<bool>(s->render)) << name;
    }
}

TEST(Figures, Fig02RendersTheMachineItRan)
{
    const driver::RegisteredScenario &fig02 =
        driver::scenarioFor("fig02");
    const driver::CampaignReport report =
        fig02.build(1000).run(driver::CampaignOptions{});
    std::ostringstream os;
    fig02.render(report, os);
    ASSERT_EQ(report.results.size(), 1u);
    EXPECT_FALSE(report.results[0].failed);
    EXPECT_NE(os.str().find("Figure 2: Machine configuration"),
              std::string::npos);
    EXPECT_NE(os.str().find("Phys. Registers"), std::string::npos);
}

} // namespace
} // namespace dvi
