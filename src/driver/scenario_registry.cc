#include "driver/scenario_registry.hh"

#include <map>
#include <mutex>

#include "base/logging.hh"
#include "driver/ablations.hh"
#include "driver/figures.hh"

namespace dvi
{
namespace driver
{

struct ScenarioRegistry::Impl
{
    mutable std::mutex mu;
    std::map<std::string, RegisteredScenario> scenarios;
};

ScenarioRegistry::ScenarioRegistry() : impl(std::make_shared<Impl>())
{
    // Built-ins registered here, not via static initializers: the
    // library is linked statically, and an object file whose only
    // job is self-registration would be dropped by the linker.
    registerFigureScenarios(*this);
    registerAblationScenarios(*this);
}

ScenarioRegistry &
ScenarioRegistry::instance()
{
    static ScenarioRegistry registry;
    return registry;
}

void
ScenarioRegistry::add(RegisteredScenario s)
{
    fatal_if(s.name.empty(), "scenario needs a name");
    fatal_if(!s.build, "scenario '", s.name, "' needs a builder");
    std::lock_guard<std::mutex> lk(impl->mu);
    fatal_if(impl->scenarios.count(s.name), "scenario '", s.name,
             "' is already registered");
    const std::string key = s.name;
    impl->scenarios.emplace(key, std::move(s));
}

const RegisteredScenario *
ScenarioRegistry::find(const std::string &name) const
{
    std::lock_guard<std::mutex> lk(impl->mu);
    const auto it = impl->scenarios.find(name);
    return it == impl->scenarios.end() ? nullptr : &it->second;
}

std::vector<std::string>
ScenarioRegistry::names() const
{
    std::lock_guard<std::mutex> lk(impl->mu);
    std::vector<std::string> out;
    out.reserve(impl->scenarios.size());
    for (const auto &kv : impl->scenarios)
        out.push_back(kv.first);
    return out;  // std::map iteration is already sorted
}

const RegisteredScenario &
scenarioFor(const std::string &name)
{
    const RegisteredScenario *s =
        ScenarioRegistry::instance().find(name);
    if (!s) {
        std::string known;
        for (const std::string &n :
             ScenarioRegistry::instance().names())
            known += known.empty() ? n : ", " + n;
        fatal("unknown scenario '", name, "' (registered: ", known,
              ")");
    }
    return *s;
}

std::uint64_t
resolveScenarioInsts(const RegisteredScenario &s,
                     std::uint64_t max_insts)
{
    return max_insts ? max_insts : s.defaultInsts;
}

sim::CampaignManifest
scenarioManifest(const RegisteredScenario &s,
                 std::uint64_t max_insts)
{
    const Campaign campaign =
        s.build(resolveScenarioInsts(s, max_insts));
    sim::CampaignManifest m;
    m.name = campaign.name();
    m.scenarios.reserve(campaign.size());
    for (const JobSpec &job : campaign.jobs())
        m.scenarios.push_back(job.scenario);
    return m;
}

} // namespace driver
} // namespace dvi
