/**
 * @file
 * Named scenario campaigns.
 *
 * The registry maps a scenario name ("fig05", "ablation-lvm-stack-
 * depth", ...) to a campaign builder and a renderer. `dvi-run
 * --scenario NAME` and `--list`, `dvi-lint`, and the manifest
 * emitter all resolve through it; callers build the campaign, run it
 * and render the report themselves, so every figure runs one way and
 * a new experiment is one registration — no driver changes.
 *
 * The built-in entries (the paper's figure campaigns from
 * figures.cc and the ablations from ablations.cc) are registered on
 * first use; clients may add their own before looking them up.
 */

#ifndef DVI_DRIVER_SCENARIO_REGISTRY_HH
#define DVI_DRIVER_SCENARIO_REGISTRY_HH

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "driver/campaign.hh"
#include "sim/manifest.hh"

namespace dvi
{
namespace driver
{

/** One named, CLI-drivable campaign. */
struct RegisteredScenario
{
    std::string name;         ///< stable lower-case key
    std::string description;  ///< one line for --list

    /** Default per-run dynamic instruction budget; `dvi-run
     * --max-insts` overrides it. */
    std::uint64_t defaultInsts = 200000;

    /** Build the job grid for the given budget (never 0 — the
     * registry resolves defaults before calling). */
    std::function<Campaign(std::uint64_t insts)> build;

    /** Fold an index-ordered report into the scenario's tables; when
     * null, callers fall back to the generic report table. Display
     * only — suppressed by --quiet and preset filters. */
    std::function<void(const CampaignReport &, std::ostream &)>
        render;
};

/** Name-to-scenario resolution. */
class ScenarioRegistry
{
  public:
    static ScenarioRegistry &instance();

    /** Register a scenario under s.name; fatal on duplicate. */
    void add(RegisteredScenario s);

    /** Look up by name; nullptr if unknown. */
    const RegisteredScenario *find(const std::string &name) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

  private:
    ScenarioRegistry();

    struct Impl;
    std::shared_ptr<Impl> impl;
};

/** Resolve by name; fatal with the known names if absent. */
const RegisteredScenario &scenarioFor(const std::string &name);

/** Budget resolution: explicit max_insts, else the scenario's
 * default. */
std::uint64_t resolveScenarioInsts(const RegisteredScenario &s,
                                   std::uint64_t max_insts);

/**
 * Expand a registered scenario into its manifest payload: the fully
 * built job grid at the resolved budget (`dvi-run --emit-manifest`).
 * Loading the result back (sim::manifestFromJson) and running it
 * reproduces the registry-direct report byte for byte.
 */
sim::CampaignManifest scenarioManifest(const RegisteredScenario &s,
                                       std::uint64_t max_insts);

} // namespace driver
} // namespace dvi

#endif // DVI_DRIVER_SCENARIO_REGISTRY_HH
