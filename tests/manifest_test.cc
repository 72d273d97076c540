/**
 * @file
 * Tests for the manifest layer: the scenario field table and
 * `--set` overrides, sparse JSON round trips, the emit -> load ->
 * run byte-identity contract for every registered scenario,
 * declarative axes grids, report-as-manifest provenance, and the
 * diagnostics malformed manifests must produce (the offending
 * dotted path, softly), including the job-count cap.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

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
    const auto set = [&s](const std::string &path,
                          const std::string &text) {
        return sim::setScenarioField(s, path, text);
    };

    EXPECT_EQ(set("hardware.core.windowSize", "128"), "");
    EXPECT_EQ(s.hardware.core.windowSize, 128u);
    EXPECT_EQ(set("binary.edvi", "dense"), "");
    EXPECT_EQ(s.binary.edvi, comp::EdviPolicy::Dense);
    EXPECT_EQ(set("budget.maxInsts", "123456789"), "");
    EXPECT_EQ(s.budget.maxInsts, 123456789u);
    EXPECT_EQ(set("hardware.dvi.earlyReclaim", "false"), "");
    EXPECT_FALSE(s.hardware.dvi.earlyReclaim);
    EXPECT_EQ(set("workload", "gcc"), "");
    EXPECT_EQ(s.workload, workload::BenchmarkId::Gcc);
    EXPECT_EQ(set("label", "my-row"), "");
    EXPECT_EQ(s.label, "my-row");

    // `preset` expands both axes, exactly like applyPreset.
    EXPECT_EQ(set("preset", "dense"), "");
    EXPECT_EQ(s.preset, "dense");
    EXPECT_EQ(s.binary.edvi, comp::EdviPolicy::Dense);
    EXPECT_TRUE(s.hardware.dvi.useEdvi);

    // Errors are soft and name the path.
    const std::string unknown = set("hardware.core.windoSize", "1");
    EXPECT_NE(unknown.find("hardware.core.windoSize"),
              std::string::npos);
    EXPECT_NE(unknown.find("unknown"), std::string::npos);
    EXPECT_NE(set("hardware.core.windowSize", "soon")
                  .find("unsigned integer"),
              std::string::npos);
    EXPECT_NE(set("binary.edvi", "sparse").find("callsites"),
              std::string::npos);
    EXPECT_NE(set("runner", "warp-drive").find("warp-drive"),
              std::string::npos);
    // Out-of-range for a 32-bit unsigned field.
    EXPECT_NE(set("hardware.core.windowSize", "4294967296")
                  .find("out of range"),
              std::string::npos);
}

/** (dotted path, compact value) of every leaf, in document order. */
std::vector<std::pair<std::string, std::string>>
leaves(const json::Value &obj, const std::string &prefix = "")
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto &kv : obj.members()) {
        const std::string path =
            prefix.empty() ? kv.first : prefix + "." + kv.first;
        if (kv.second.isObject()) {
            for (auto &leaf : leaves(kv.second, path))
                out.push_back(std::move(leaf));
        } else {
            out.emplace_back(path, kv.second.dump(0));
        }
    }
    return out;
}

TEST(ScenarioFields, FieldTableIsTheManifestContract)
{
    // Every report and manifest embeds these paths, in this order.
    // Emit -> load -> run tests cannot see a dropped, renamed or
    // reordered path (both sides would change together); this list
    // can.
    const std::vector<std::string> expected = {
        "runner",
        "workload",
        "preset",
        "label",
        "binary.edvi",
        "hardware.dvi.useIdvi",
        "hardware.dvi.useEdvi",
        "hardware.dvi.earlyReclaim",
        "hardware.dvi.elimSaves",
        "hardware.dvi.elimRestores",
        "hardware.dvi.lvmStackDepth",
        "hardware.core.fetchWidth",
        "hardware.core.decodeWidth",
        "hardware.core.issueWidth",
        "hardware.core.commitWidth",
        "hardware.core.windowSize",
        "hardware.core.fetchQueueSize",
        "hardware.core.numPhysRegs",
        "hardware.core.cachePorts",
        "hardware.core.intAlus",
        "hardware.core.intMulDivs",
        "hardware.core.fpAlus",
        "hardware.core.fpMulDivs",
        "hardware.core.memLatency",
        "hardware.core.maxCycles",
        "hardware.core.il1.sizeBytes",
        "hardware.core.il1.assoc",
        "hardware.core.il1.lineBytes",
        "hardware.core.il1.hitLatency",
        "hardware.core.dl1.sizeBytes",
        "hardware.core.dl1.assoc",
        "hardware.core.dl1.lineBytes",
        "hardware.core.dl1.hitLatency",
        "hardware.core.l2.sizeBytes",
        "hardware.core.l2.assoc",
        "hardware.core.l2.lineBytes",
        "hardware.core.l2.hitLatency",
        "hardware.core.bp.historyBits",
        "hardware.core.bp.gshareEntries",
        "hardware.core.bp.bimodEntries",
        "hardware.core.bp.chooserEntries",
        "hardware.core.bp.btbEntries",
        "hardware.core.bp.rasEntries",
        "emu.trackLiveness",
        "emu.honorEdvi",
        "emu.honorIdvi",
        "emu.lvmStackDepth",
        "emu.strictDeadReads",
        "emu.tier",
        "budget.maxInsts",
        "budget.quantum",
        "budget.maxWallMs",
        "budget.hardMaxInsts",
    };
    const auto defaults = leaves(sim::scenarioToJson(sim::Scenario{}));
    std::vector<std::string> paths;
    for (const auto &leaf : defaults)
        paths.push_back(leaf.first);
    EXPECT_EQ(paths, expected);

    // Each path writes its own member and nothing else. `preset`
    // is the exception: it expands into the DVI axes by design.
    const std::map<std::string, std::string> tokens = {
        {"runner", "oracle"},      {"workload", "gcc"},
        {"label", "x"},            {"binary.edvi", "dense"},
        {"emu.tier", "interp"},
    };
    for (const auto &leaf : defaults) {
        const std::string &path = leaf.first;
        if (path == "preset")
            continue;
        std::string text;
        if (leaf.second == "true" || leaf.second == "false")
            text = leaf.second == "true" ? "false" : "true";
        else if (leaf.second[0] != '"')
            text = std::to_string(std::stoull(leaf.second) + 1);
        else if (tokens.count(path))
            text = tokens.at(path);
        ASSERT_FALSE(text.empty()) << "no test value for " << path;

        sim::Scenario s;
        ASSERT_EQ(sim::setScenarioField(s, path, text), "") << path;
        const auto changed = leaves(sim::scenarioToJson(s));
        ASSERT_EQ(changed.size(), defaults.size()) << path;
        for (std::size_t i = 0; i < defaults.size(); ++i) {
            if (defaults[i].first == path)
                EXPECT_NE(changed[i].second, defaults[i].second)
                    << path;
            else
                EXPECT_EQ(changed[i], defaults[i])
                    << "setting " << path;
        }
    }
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

    // A key with an embedded NUL is unknown, whatever it prefixes.
    err = sim::manifestFromJson(
        R"({"jobs": [{"runner\u0000zz": {}}]})", m);
    EXPECT_EQ(err, std::string("jobs[0].runner") + '\0' +
                       "zz: unknown field")
        << err;

    // Unparsable JSON stays a soft, positioned error.
    err = sim::manifestFromJson("{\"jobs\": [", m);
    EXPECT_NE(err.find("line "), std::string::npos) << err;
}

/** An "axes" manifest of `axes` axes, each of `points` values. */
std::string
gridText(unsigned axes, unsigned points)
{
    const char *paths[] = {"hardware.core.windowSize",
                           "hardware.core.numPhysRegs",
                           "budget.maxInsts", "budget.quantum"};
    std::string text = "{\"axes\": [";
    for (unsigned a = 0; a < axes; ++a) {
        text += a ? ", " : "";
        text += "{\"path\": \"" + std::string(paths[a]) +
                "\", \"values\": [";
        for (unsigned v = 1; v <= points; ++v)
            text += (v > 1 ? ", " : "") + std::to_string(v);
        text += "]}";
    }
    return text + "]}";
}

/** {"<source>": [{}, {}, ...]} with `n` entries. */
std::string
emptyEntries(const std::string &source, std::size_t n)
{
    std::string text = "{\"" + source + "\": [";
    for (std::size_t i = 0; i < n; ++i)
        text += i ? ", {}" : "{}";
    return text + "]}";
}

TEST(Manifest, JobCountIsCapped)
{
    sim::CampaignManifest m;

    // 100 x 100 x 100 fails at the third axis, before expanding it.
    std::string err = sim::manifestFromJson(gridText(3, 100), m);
    EXPECT_EQ(err, "axes[2]: 1000000 jobs exceed the manifest limit "
                   "of 100000");

    err = sim::manifestFromJson(
        emptyEntries("jobs", sim::maxManifestJobs + 1), m);
    EXPECT_EQ(err, "jobs: 100001 jobs exceed the manifest limit of "
                   "100000");
    err = sim::manifestFromJson(
        emptyEntries("results", sim::maxManifestJobs + 1), m);
    EXPECT_EQ(err, "results: 100001 jobs exceed the manifest limit "
                   "of 100000");

    // Under the cap, grids still expand in full.
    ASSERT_EQ(sim::manifestFromJson(gridText(4, 10), m), "");
    EXPECT_EQ(m.scenarios.size(), 10000u);
    EXPECT_EQ(m.scenarios.back().budget.quantum, 10u);
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
