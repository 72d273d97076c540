/**
 * @file
 * Tests for the scenario layer: preset decomposition and round-trip,
 * runner and scenario registries, the fluent ScenarioGrid against
 * the hand-built reference campaign, and report file round-trips.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "driver/campaign.hh"
#include "driver/figures.hh"
#include "driver/scenario_registry.hh"
#include "sim/grid.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"

namespace dvi
{
namespace
{

TEST(Preset, RoundTripsThroughParse)
{
    for (const sim::DviPreset &p : sim::allPresets()) {
        const auto parsed = sim::parsePreset(p.name);
        ASSERT_TRUE(parsed.has_value()) << p.name;
        EXPECT_EQ(parsed->name, p.name);
    }
    // Case-insensitive.
    const auto upper = sim::parsePreset("FULL");
    ASSERT_TRUE(upper.has_value());
    EXPECT_EQ(upper->name, "full");
    // Unknown names are a soft error.
    EXPECT_FALSE(sim::parsePreset("bogus").has_value());
    EXPECT_FALSE(sim::parsePreset("").has_value());
}

TEST(Preset, DecomposesBinaryAndHardwareAxes)
{
    // The paper's three columns: binary axis and hardware axis are
    // independent — idvi uses a plain binary with DVI hardware on.
    EXPECT_EQ(sim::presetNone().edvi, comp::EdviPolicy::None);
    EXPECT_FALSE(sim::presetNone().hw.useIdvi);
    EXPECT_EQ(sim::presetIdvi().edvi, comp::EdviPolicy::None);
    EXPECT_TRUE(sim::presetIdvi().hw.useIdvi);
    EXPECT_FALSE(sim::presetIdvi().hw.useEdvi);
    EXPECT_EQ(sim::presetFull().edvi, comp::EdviPolicy::CallSites);
    EXPECT_TRUE(sim::presetFull().hw.useEdvi);
    EXPECT_EQ(sim::presetDense().edvi, comp::EdviPolicy::Dense);
}

TEST(Preset, ApplyStampsScenario)
{
    sim::Scenario s;
    sim::applyPreset(s, sim::presetIdvi());
    EXPECT_EQ(s.preset, "idvi");
    EXPECT_EQ(s.binary.edvi, comp::EdviPolicy::None);
    EXPECT_TRUE(s.hardware.dvi.useIdvi);
}

TEST(ParseEdviPolicy, OptionalAndCaseInsensitive)
{
    EXPECT_EQ(sim::parseEdviPolicy("CallSites"),
              comp::EdviPolicy::CallSites);
    EXPECT_EQ(sim::parseEdviPolicy("dense"),
              comp::EdviPolicy::Dense);
    EXPECT_FALSE(sim::parseEdviPolicy("sparse").has_value());
    for (comp::EdviPolicy p :
         {comp::EdviPolicy::None, comp::EdviPolicy::CallSites,
          comp::EdviPolicy::Dense})
        EXPECT_EQ(sim::parseEdviPolicy(sim::edviPolicyName(p)), p);
}

TEST(RunnerRegistry, BuiltinsRegisteredAndSorted)
{
    const std::vector<std::string> names =
        sim::RunnerRegistry::instance().names();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    for (const char *builtin : {"oracle", "switch", "timing"}) {
        const sim::Runner *r =
            sim::RunnerRegistry::instance().find(builtin);
        ASSERT_NE(r, nullptr) << builtin;
        EXPECT_EQ(r->name(), builtin);
        EXPECT_FALSE(r->description().empty());
    }
    EXPECT_EQ(sim::RunnerRegistry::instance().find("warp-drive"),
              nullptr);
}

TEST(RunnerRegistry, CustomRunnerPlugsIntoTheDriver)
{
    // A new kind of run: count static kills without simulating.
    // Registering it is the only step — runJob dispatches by name.
    class KillCountRunner : public sim::Runner
    {
      public:
        std::string name() const override { return "kill-count"; }
        std::string
        description() const override
        {
            return "static kill count";
        }
        sim::RunResult
        run(const sim::Scenario &,
            const comp::Executable &exe) const override
        {
            sim::RunResult r;
            r.oracle.kills = exe.countKills();
            return r;
        }
        std::vector<sim::Metric>
        reportMetrics() const override
        {
            return {DVI_FIELD_METRIC(oracle, kills)};
        }
    };
    if (!sim::RunnerRegistry::instance().find("kill-count"))
        sim::RunnerRegistry::instance().add(
            std::make_unique<KillCountRunner>());

    sim::Scenario s;
    s.runner = "kill-count";
    s.workload = workload::BenchmarkId::Li;
    s.binary.edvi = comp::EdviPolicy::CallSites;

    driver::ExecutableCache cache;
    driver::JobSpec spec;
    spec.scenario = s;
    const driver::JobResult r = driver::runJob(spec, cache);
    EXPECT_GT(r.run.oracle.kills, 0u);

    // The plain binary has no kills — the binary axis is honored.
    spec.scenario.binary.edvi = comp::EdviPolicy::None;
    EXPECT_EQ(driver::runJob(spec, cache).run.oracle.kills, 0u);
}

TEST(ScenarioRegistry, ListingIsSortedAndStable)
{
    const std::vector<std::string> first =
        driver::ScenarioRegistry::instance().names();
    EXPECT_TRUE(std::is_sorted(first.begin(), first.end()));
    EXPECT_EQ(first, driver::ScenarioRegistry::instance().names());

    // All figure campaigns plus the ablations are enumerable.
    for (const char *name :
         {"fig02", "fig03", "fig05", "fig06", "fig09", "fig10",
          "fig11", "fig12", "fig13", "ablation-edvi-density",
          "ablation-lvm-stack-depth", "regfile-dense"}) {
        EXPECT_NE(std::find(first.begin(), first.end(), name),
                  first.end())
            << name;
        const driver::RegisteredScenario &s =
            driver::scenarioFor(name);
        EXPECT_FALSE(s.description.empty());
        EXPECT_TRUE(static_cast<bool>(s.build));
    }
    EXPECT_EQ(driver::ScenarioRegistry::instance().find("nope"),
              nullptr);
}

TEST(ScenarioRegistry, AblationGridsHaveTheExpectedShape)
{
    // 5 jobs per save/restore benchmark (2 oracle + 3 timing).
    const driver::Campaign density =
        driver::scenarioFor("ablation-edvi-density").build(2000);
    EXPECT_EQ(density.size(),
              5 * workload::saveRestoreBenchmarks().size());

    // Unbounded + 5 depths per benchmark, all oracle runs.
    const driver::Campaign depth =
        driver::scenarioFor("ablation-lvm-stack-depth").build(2000);
    EXPECT_EQ(depth.size(),
              6 * workload::saveRestoreBenchmarks().size());
    for (const driver::JobSpec &job : depth.jobs())
        EXPECT_EQ(job.scenario.runner, "oracle");
    EXPECT_EQ(depth.jobs()[0].scenario.label, "unbounded");
    EXPECT_EQ(depth.jobs()[0].scenario.emu.lvmStackDepth, 0u);
}

TEST(ScenarioGrid, MatchesHandBuiltRegfileCampaign)
{
    const std::vector<unsigned> sizes = {40, 56, 72};
    const driver::Campaign grid = driver::Campaign(
        driver::regfileGrid(sizes, sim::paperPresets(), 7000,
                            "regfile"));
    const driver::Campaign hand = driver::regfileCampaign(
        sizes, sim::paperPresets(), 7000, "regfile");

    ASSERT_EQ(grid.size(), hand.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const sim::Scenario &g = grid.jobs()[i].scenario;
        const sim::Scenario &h = hand.jobs()[i].scenario;
        EXPECT_EQ(g.runner, h.runner);
        EXPECT_EQ(g.workload, h.workload);
        EXPECT_EQ(g.preset, h.preset);
        EXPECT_EQ(g.binary.edvi, h.binary.edvi);
        EXPECT_EQ(g.hardware.dvi.useIdvi, h.hardware.dvi.useIdvi);
        EXPECT_EQ(g.hardware.dvi.useEdvi, h.hardware.dvi.useEdvi);
        EXPECT_EQ(g.hardware.core.numPhysRegs,
                  h.hardware.core.numPhysRegs);
        EXPECT_EQ(g.budget.maxInsts, h.budget.maxInsts);
    }
}

TEST(ScenarioGrid, FiltersAndLabels)
{
    sim::Scenario proto;
    proto.runner = "timing";
    const std::vector<sim::Scenario> scenarios =
        sim::ScenarioGrid("filtered")
            .base(proto)
            .overPresets(sim::paperPresets())
            .overRegfileSizes({40, 80})
            .filter([](const sim::Scenario &s) {
                return s.preset != "idvi";
            })
            .label([](const sim::Scenario &s) {
                return s.preset + "@" +
                       std::to_string(s.hardware.core.numPhysRegs);
            })
            .scenarios();
    ASSERT_EQ(scenarios.size(), 4u);  // 3 presets * 2 sizes - idvi row
    EXPECT_EQ(scenarios[0].label, "none@40");
    EXPECT_EQ(scenarios[1].label, "none@80");
    EXPECT_EQ(scenarios[2].label, "full@40");
    EXPECT_EQ(scenarios[3].label, "full@80");
}

TEST(CampaignReport, FileRoundTripsBothFormats)
{
    driver::Campaign c("roundtrip");
    sim::Scenario s;
    s.runner = "oracle";
    s.workload = workload::BenchmarkId::Li;
    s.budget.maxInsts = 2000;
    sim::applyPreset(s, sim::presetFull());
    c.add(s);

    const driver::CampaignReport report =
        c.run(driver::CampaignOptions{1});

    const auto readBack = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        return buf.str();
    };

    const std::string jsonPath = "scenario_test_roundtrip.json";
    report.writeFile(jsonPath, driver::ReportFormat::Json);
    EXPECT_EQ(readBack(jsonPath), report.toJson());
    std::remove(jsonPath.c_str());

    const std::string csvPath = "scenario_test_roundtrip.csv";
    report.writeFile(csvPath, driver::ReportFormat::Csv);
    EXPECT_EQ(readBack(csvPath), report.toCsv());
    std::remove(csvPath.c_str());

    // Emission is a pure function of the results.
    EXPECT_EQ(report.toJson(), report.toJson());
    EXPECT_EQ(report.toCsv(), report.toCsv());
}

} // namespace
} // namespace dvi
