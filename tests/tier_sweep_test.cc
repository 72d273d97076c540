/**
 * @file
 * Differential registry sweep: every registered scenario must
 * produce a byte-identical campaign report whether its emulators run
 * on the tier-0 interpreter or the tier-1 translation cache. The
 * execution tier is a throughput knob, never a results axis — this
 * is the system-level restatement of the fuzz oracle's tier-lockstep
 * layer, over the real campaigns users run.
 *
 * Reports embed each job's resolved scenario (sparse diff form), so
 * the one field that legitimately differs — `emu.tier` itself — is
 * stripped from the provenance before comparison; every metric byte
 * must then match. The interpreter side runs on one worker and the
 * translation side on four, so the sweep also proves every
 * registered scenario's report is independent of the job count.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/json.hh"
#include "driver/campaign.hh"
#include "driver/scenario_registry.hh"
#include "sim/manifest.hh"

namespace dvi
{
namespace
{

/** Deep copy with scenario provenance's `emu.tier` removed (and an
 * `emu` object left empty by the removal dropped entirely, matching
 * the sparse form of a scenario that never mentioned it). */
json::Value
stripEmuTier(const json::Value &v)
{
    if (v.isArray()) {
        json::Value out = json::Value::array();
        for (const json::Value &item : v.items())
            out.push(stripEmuTier(item));
        return out;
    }
    if (v.isObject()) {
        json::Value out = json::Value::object();
        for (const auto &m : v.members()) {
            if (m.first == "emu" && m.second.isObject()) {
                json::Value emu = json::Value::object();
                for (const auto &e : m.second.members())
                    if (e.first != "tier")
                        emu.set(e.first, stripEmuTier(e.second));
                if (!emu.members().empty())
                    out.set(m.first, std::move(emu));
                continue;
            }
            out.set(m.first, stripEmuTier(m.second));
        }
        return out;
    }
    return v;
}

/** The scenario's report with every job forced to `tier`, run on
 * `jobs` workers. */
json::Value
reportWithTier(const driver::RegisteredScenario &entry,
               std::uint64_t insts, arch::ExecTier tier,
               unsigned jobs)
{
    const driver::Campaign base = entry.build(insts);
    std::vector<sim::Scenario> scenarios;
    scenarios.reserve(base.size());
    for (const driver::JobSpec &job : base.jobs()) {
        sim::Scenario s = job.scenario;
        s.emu.tier = tier;
        scenarios.push_back(std::move(s));
    }
    const driver::Campaign campaign(entry.name,
                                    std::move(scenarios));
    driver::CampaignOptions opts;
    opts.jobs = jobs;
    const json::ParseResult parsed =
        json::parse(campaign.run(opts).toJson());
    EXPECT_EQ(parsed.error, "") << entry.name;
    return parsed.value;
}

TEST(TierSweep, EveryRegisteredScenarioIsTierInvariant)
{
    for (const std::string &name :
         driver::ScenarioRegistry::instance().names()) {
        const driver::RegisteredScenario &entry =
            driver::scenarioFor(name);
        // Small budgets keep the sweep fast; both sides see the
        // same budget, so the comparison is exact regardless.
        const std::uint64_t insts = 600;
        const json::Value interp = stripEmuTier(
            reportWithTier(entry, insts, arch::ExecTier::Interp, 1));
        const json::Value xlate = stripEmuTier(
            reportWithTier(entry, insts, arch::ExecTier::Xlate, 4));
        EXPECT_EQ(interp.dump(), xlate.dump()) << name;
    }
}

} // namespace
} // namespace dvi
