#include "sim/scenario.hh"

#include <cctype>

#include "base/logging.hh"

namespace dvi
{
namespace sim
{

namespace
{

std::string
lower(const std::string &s)
{
    std::string out = s;
    for (char &c : out)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return out;
}

} // namespace

std::string
edviPolicyName(comp::EdviPolicy policy)
{
    switch (policy) {
      case comp::EdviPolicy::None: return "none";
      case comp::EdviPolicy::CallSites: return "callsites";
      case comp::EdviPolicy::Dense: return "dense";
    }
    panic("bad EdviPolicy");
}

std::optional<comp::EdviPolicy>
parseEdviPolicy(const std::string &name)
{
    const std::string t = lower(name);
    if (t == "none")
        return comp::EdviPolicy::None;
    if (t == "callsites")
        return comp::EdviPolicy::CallSites;
    if (t == "dense")
        return comp::EdviPolicy::Dense;
    return std::nullopt;
}

DviPreset
presetNone()
{
    return DviPreset{"none", "No DVI", comp::EdviPolicy::None,
                     uarch::DviConfig::none()};
}

DviPreset
presetIdvi()
{
    return DviPreset{"idvi", "I-DVI", comp::EdviPolicy::None,
                     uarch::DviConfig::idviOnly()};
}

DviPreset
presetFull()
{
    return DviPreset{"full", "E-DVI and I-DVI",
                     comp::EdviPolicy::CallSites,
                     uarch::DviConfig::full()};
}

DviPreset
presetDense()
{
    return DviPreset{"dense", "Dense E-DVI", comp::EdviPolicy::Dense,
                     uarch::DviConfig::full()};
}

const std::vector<DviPreset> &
paperPresets()
{
    static const std::vector<DviPreset> presets = {
        presetNone(), presetIdvi(), presetFull()};
    return presets;
}

const std::vector<DviPreset> &
allPresets()
{
    static const std::vector<DviPreset> presets = {
        presetNone(), presetIdvi(), presetFull(), presetDense()};
    return presets;
}

std::optional<DviPreset>
parsePreset(const std::string &name)
{
    const std::string t = lower(name);
    for (const DviPreset &p : allPresets())
        if (p.name == t)
            return p;
    return std::nullopt;
}

std::string
presetTokens()
{
    std::string out;
    for (const DviPreset &p : allPresets()) {
        if (!out.empty())
            out += ", ";
        out += p.name;
    }
    return out;
}

void
applyPreset(Scenario &s, const DviPreset &preset)
{
    s.binary.edvi = preset.edvi;
    s.hardware.dvi = preset.hw;
    s.preset = preset.name;
}

} // namespace sim
} // namespace dvi
