/**
 * @file
 * Tests for the manifest layer: field bindings over scenarios,
 * sparse JSON round trips, the emit -> load -> run byte-identity
 * contract for every registered scenario, declarative axes grids,
 * report-as-manifest provenance, and the diagnostics malformed
 * manifests must produce (the offending dotted path, softly).
 */

#include <gtest/gtest.h>

#include <string>

#include "base/fields.hh"
#include "driver/campaign.hh"
#include "driver/scenario_registry.hh"
#include "sim/manifest.hh"

namespace dvi
{
namespace
{

TEST(ScenarioFields, DottedPathOverridesSetTypedFields)
{
    sim::Scenario s;
    fields::FieldSet fs = sim::scenarioFields(s);

    EXPECT_EQ(fs.applyString("hardware.core.windowSize", "128"), "");
    EXPECT_EQ(s.hardware.core.windowSize, 128u);
    EXPECT_EQ(fs.applyString("binary.edvi", "dense"), "");
    EXPECT_EQ(s.binary.edvi, comp::EdviPolicy::Dense);
    EXPECT_EQ(fs.applyString("budget.maxInsts", "123456789"), "");
    EXPECT_EQ(s.budget.maxInsts, 123456789u);
    EXPECT_EQ(fs.applyString("hardware.dvi.earlyReclaim", "false"),
              "");
    EXPECT_FALSE(s.hardware.dvi.earlyReclaim);
    EXPECT_EQ(fs.applyString("workload", "gcc"), "");
    EXPECT_EQ(s.workload, workload::BenchmarkId::Gcc);
    EXPECT_EQ(fs.applyString("label", "my-row"), "");
    EXPECT_EQ(s.label, "my-row");

    // `preset` expands both axes, exactly like applyPreset.
    EXPECT_EQ(fs.applyString("preset", "dense"), "");
    EXPECT_EQ(s.preset, "dense");
    EXPECT_EQ(s.binary.edvi, comp::EdviPolicy::Dense);
    EXPECT_TRUE(s.hardware.dvi.useEdvi);

    // Errors are soft and name the path.
    const std::string unknown =
        fs.applyString("hardware.core.windoSize", "1");
    EXPECT_NE(unknown.find("hardware.core.windoSize"),
              std::string::npos);
    EXPECT_NE(unknown.find("unknown"), std::string::npos);
    EXPECT_NE(fs.applyString("hardware.core.windowSize", "soon")
                  .find("unsigned integer"),
              std::string::npos);
    EXPECT_NE(fs.applyString("binary.edvi", "sparse")
                  .find("callsites"),
              std::string::npos);
    EXPECT_NE(fs.applyString("runner", "warp-drive")
                  .find("warp-drive"),
              std::string::npos);
    // Out-of-range for a 32-bit unsigned field.
    EXPECT_NE(fs.applyString("hardware.core.windowSize",
                             "4294967296")
                  .find("out of range"),
              std::string::npos);
}

TEST(ScenarioJson, SparseDiffRoundTripsDeviationsFromPreset)
{
    // fig10's "lvm" row: preset full, then two deviations — one of
    // which (elimRestores=false) matches the *built-in* default, so
    // only a preset-aware diff baseline keeps it in the document.
    sim::Scenario s;
    s.runner = "timing";
    s.workload = workload::BenchmarkId::Perl;
    s.budget.maxInsts = 4000;
    sim::applyPreset(s, sim::presetFull());
    s.hardware.dvi = uarch::DviConfig::lvmScheme();
    s.hardware.dvi.earlyReclaim = false;

    const json::Value diff = sim::scenarioToJsonDiff(s);
    sim::Scenario back;
    ASSERT_EQ(sim::scenarioFromJson(diff, back), "");
    EXPECT_EQ(sim::scenarioToJson(back), sim::scenarioToJson(s));
    EXPECT_FALSE(back.hardware.dvi.elimRestores);
    EXPECT_FALSE(back.hardware.dvi.earlyReclaim);
    EXPECT_EQ(back.preset, "full");
}

TEST(ScenarioJson, DiffAlwaysNamesRunnerAndWorkload)
{
    const sim::Scenario s;  // everything default
    const json::Value diff = sim::scenarioToJsonDiff(s);
    ASSERT_NE(diff.find("runner"), nullptr);
    EXPECT_EQ(diff.find("runner")->str(), "timing");
    ASSERT_NE(diff.find("workload"), nullptr);
    EXPECT_EQ(diff.find("workload")->str(), "compress");
}

TEST(Manifest, EmitLoadRunIsByteIdenticalForEveryScenario)
{
    // The acceptance criterion: for every registered scenario,
    // emit-manifest -> load -> run reproduces the registry-direct
    // report byte for byte (profiling off on both sides; profiled
    // reports are documented as not byte-stable).
    for (const std::string &name :
         driver::ScenarioRegistry::instance().names()) {
        const driver::RegisteredScenario &entry =
            driver::scenarioFor(name);
        const std::uint64_t insts = 600;

        const driver::Campaign direct = entry.build(insts);
        sim::CampaignManifest emitted =
            driver::scenarioManifest(entry, insts);

        sim::CampaignManifest loaded;
        ASSERT_EQ(sim::manifestFromJson(
                      sim::manifestToJson(emitted), loaded),
                  "")
            << name;
        ASSERT_EQ(loaded.scenarios.size(), direct.size()) << name;
        for (std::size_t i = 0; i < loaded.scenarios.size(); ++i)
            ASSERT_EQ(sim::scenarioToJson(loaded.scenarios[i]),
                      sim::scenarioToJson(
                          direct.jobs()[i].scenario))
                << name << " job " << i;

        const driver::Campaign replay(loaded.name,
                                      loaded.scenarios);
        driver::CampaignOptions opts;
        opts.jobs = 4;
        EXPECT_EQ(replay.run(opts).toJson(),
                  direct.run(opts).toJson())
            << name;
    }
}

TEST(Manifest, ReportsAreRunnableArtifacts)
{
    // A report embeds each job's resolved scenario; feeding the
    // report back through the manifest loader reproduces it.
    const driver::Campaign original =
        driver::scenarioFor("fig10").build(800);
    const driver::CampaignReport report =
        original.run(driver::CampaignOptions{2});

    sim::CampaignManifest m;
    ASSERT_EQ(sim::manifestFromJson(report.toJson(), m), "");
    EXPECT_EQ(m.name, "fig10");
    ASSERT_EQ(m.scenarios.size(), original.size());
    const driver::Campaign replay(m.name, m.scenarios);
    EXPECT_EQ(replay.run(driver::CampaignOptions{1}).toJson(),
              report.toJson());
}

TEST(Manifest, AxesExpandFirstDeclaredOutermost)
{
    const std::string text = R"({
      "campaign": "grid",
      "defaults": {"runner": "timing", "budget": {"maxInsts": 1000}},
      "axes": [
        {"path": "hardware.core.numPhysRegs", "values": [40, 56],
         "label": true},
        {"path": "preset", "values": ["none", "full"], "label": true}
      ]
    })";
    sim::CampaignManifest m;
    ASSERT_EQ(sim::manifestFromJson(text, m), "");
    EXPECT_EQ(m.name, "grid");
    ASSERT_EQ(m.scenarios.size(), 4u);
    EXPECT_EQ(m.scenarios[0].hardware.core.numPhysRegs, 40u);
    EXPECT_EQ(m.scenarios[0].preset, "none");
    EXPECT_EQ(m.scenarios[0].label, "40-none");
    EXPECT_EQ(m.scenarios[1].label, "40-full");
    EXPECT_EQ(m.scenarios[1].binary.edvi,
              comp::EdviPolicy::CallSites);
    EXPECT_EQ(m.scenarios[2].label, "56-none");
    EXPECT_EQ(m.scenarios[3].hardware.core.numPhysRegs, 56u);
    for (const sim::Scenario &s : m.scenarios)
        EXPECT_EQ(s.budget.maxInsts, 1000u);
}

TEST(Manifest, MalformedDocumentsNameTheDottedPath)
{
    sim::CampaignManifest m;

    // Unknown key, deep in the tree.
    std::string err = sim::manifestFromJson(
        R"({"jobs": [{"hardware": {"core": {"windoSize": 64}}}]})",
        m);
    EXPECT_NE(err.find("jobs[0].hardware.core.windoSize"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("unknown"), std::string::npos) << err;

    // Wrong type.
    err = sim::manifestFromJson(
        R"({"jobs": [{"hardware": {"core": {"windowSize": "big"}}}]})",
        m);
    EXPECT_NE(err.find("hardware.core.windowSize"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("unsigned integer"), std::string::npos)
        << err;

    // Bad enum token lists the valid spellings.
    err = sim::manifestFromJson(
        R"({"jobs": [{"binary": {"edvi": "sparse"}}]})", m);
    EXPECT_NE(err.find("jobs[0].binary.edvi"), std::string::npos)
        << err;
    EXPECT_NE(err.find("callsites"), std::string::npos) << err;

    // Bad preset token.
    err = sim::manifestFromJson(
        R"({"defaults": {"preset": "mega"}})", m);
    EXPECT_NE(err.find("defaults.preset"), std::string::npos)
        << err;

    // Out-of-range narrowing.
    err = sim::manifestFromJson(
        R"({"jobs": [{"hardware": {"core":
            {"windowSize": 4294967296}}}]})",
        m);
    EXPECT_NE(err.find("hardware.core.windowSize"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;

    // Axes naming an unknown path.
    err = sim::manifestFromJson(
        R"({"axes": [{"path": "hardware.core.windoSize",
                      "values": [1]}]})",
        m);
    EXPECT_NE(err.find("axes[0].path"), std::string::npos) << err;
    EXPECT_NE(err.find("hardware.core.windoSize"),
              std::string::npos)
        << err;

    // Mutually exclusive job sources.
    err = sim::manifestFromJson(
        R"({"jobs": [], "axes": []})", m);
    EXPECT_NE(err.find("mutually exclusive"), std::string::npos)
        << err;

    // A misspelled job source must not silently degrade into the
    // single-defaults campaign.
    err = sim::manifestFromJson(R"({"Jobs": [{}]})", m);
    EXPECT_NE(err.find("Jobs"), std::string::npos) << err;
    EXPECT_NE(err.find("unknown"), std::string::npos) << err;

    // defaults cannot retro-apply to a report's embedded scenarios.
    err = sim::manifestFromJson(
        R"({"defaults": {"budget": {"maxInsts": 3000}},
            "results": []})",
        m);
    EXPECT_NE(err.find("defaults"), std::string::npos) << err;

    // Unparsable JSON stays a soft, positioned error.
    err = sim::manifestFromJson("{\"jobs\": [", m);
    EXPECT_NE(err.find("line "), std::string::npos) << err;
}

TEST(Manifest, DefaultsAloneMakeASingleJob)
{
    sim::CampaignManifest m;
    ASSERT_EQ(sim::manifestFromJson(
                  R"({"campaign": "one",
                      "defaults": {"runner": "oracle",
                                   "workload": "li",
                                   "budget": {"maxInsts": 2000}}})",
                  m),
              "");
    ASSERT_EQ(m.scenarios.size(), 1u);
    EXPECT_EQ(m.scenarios[0].runner, "oracle");
    EXPECT_EQ(m.scenarios[0].workload, workload::BenchmarkId::Li);
    EXPECT_EQ(m.scenarios[0].budget.maxInsts, 2000u);
}

} // namespace
} // namespace dvi
