#include "sim/manifest.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <utility>

#include "sim/runner.hh"

namespace dvi
{
namespace sim
{

namespace
{

// ------------------------------------------------------ enum tokens

/** Ordered (token, value) spellings of an enum field. */
template <typename E>
using Tokens = std::vector<std::pair<std::string, E>>;

const Tokens<comp::EdviPolicy> &
tokensOf(comp::EdviPolicy)
{
    static const Tokens<comp::EdviPolicy> tokens = {
        {"none", comp::EdviPolicy::None},
        {"callsites", comp::EdviPolicy::CallSites},
        {"dense", comp::EdviPolicy::Dense},
    };
    return tokens;
}

const Tokens<arch::ExecTier> &
tokensOf(arch::ExecTier)
{
    static const Tokens<arch::ExecTier> tokens = {
        {"interp", arch::ExecTier::Interp},
        {"xlate", arch::ExecTier::Xlate},
    };
    return tokens;
}

/** Paper reporting order. */
const Tokens<workload::BenchmarkId> &
tokensOf(workload::BenchmarkId)
{
    static const Tokens<workload::BenchmarkId> tokens = [] {
        Tokens<workload::BenchmarkId> t;
        for (workload::BenchmarkId id : workload::allBenchmarks())
            t.emplace_back(workload::benchmarkName(id), id);
        return t;
    }();
    return tokens;
}

// ----------------------------------------- encode / decode by type
//
// Each decode returns "" on success or a reason without the path
// (the caller prefixes it); unsigned fields use json::decode.

template <typename T>
using IfUnsigned =
    std::enable_if_t<std::is_unsigned<T>::value &&
                         !std::is_same<T, bool>::value,
                     int>;

template <typename T, IfUnsigned<T> = 0>
json::Value
encode(T v)
{
    return json::Value(static_cast<std::uint64_t>(v));
}

json::Value
encode(bool v)
{
    return json::Value(v);
}

std::string
decode(const json::Value &v, bool &out)
{
    if (!v.isBool())
        return std::string("expected true or false, got ") +
               v.typeName();
    out = v.boolean();
    return "";
}

json::Value
encode(const std::string &v)
{
    return json::Value(v);
}

std::string
decode(const json::Value &v, std::string &out)
{
    if (!v.isString())
        return std::string("expected a string, got ") + v.typeName();
    out = v.str();
    return "";
}

template <typename E,
          std::enable_if_t<std::is_enum<E>::value, int> = 0>
json::Value
encode(E v)
{
    for (const auto &t : tokensOf(v))
        if (t.second == v)
            return json::Value(t.first);
    return json::Value("<unnamed>");
}

template <typename E,
          std::enable_if_t<std::is_enum<E>::value, int> = 0>
std::string
decode(const json::Value &v, E &out)
{
    if (!v.isString())
        return std::string("expected a string token, got ") +
               v.typeName();
    std::string valid;
    for (const auto &t : tokensOf(out)) {
        if (t.first == v.str()) {
            out = t.second;
            return "";
        }
        valid += valid.empty() ? t.first : ", " + t.first;
    }
    return "unknown token '" + v.str() + "' (valid: " + valid + ")";
}

// ------------------------------------------------------ field table

/** How `--set` text parses; JSON values carry their own type. */
enum class Kind
{
    U64,
    Bool,
    Text,
};

template <typename T>
constexpr Kind
kindOf()
{
    return std::is_same<T, bool>::value   ? Kind::Bool
           : std::is_unsigned<T>::value ? Kind::U64
                                        : Kind::Text;
}

/** One scalar field of a Scenario. */
struct Field
{
    const char *path;
    Kind kind;
    json::Value (*get)(const Scenario &);
    /** "" on success, else a reason without the path. */
    std::string (*set)(Scenario &, const json::Value &);
};

/** The field at member path `member` of a Scenario: its dotted path
 * is the member expression itself. */
#define DVI_FIELD(member)                                            \
    Field                                                            \
    {                                                                \
        #member,                                                     \
            kindOf<decltype(std::declval<Scenario &>().member)>(),   \
            [](const Scenario &s) { return encode(s.member); },      \
            [](Scenario &s, const json::Value &v) {                  \
                return decode(v, s.member);                          \
            }                                                        \
    }

/** `runner` validates against the live registry, so a manifest
 * naming a custom runner loads once that runner is registered. */
std::string
setRunner(Scenario &s, const json::Value &v)
{
    if (!v.isString())
        return std::string("expected a string token, got ") +
               v.typeName();
    if (!RunnerRegistry::instance().find(v.str())) {
        std::string known;
        for (const std::string &n : RunnerRegistry::instance().names())
            known += known.empty() ? n : ", " + n;
        return "unknown runner '" + v.str() + "' (registered: " +
               known + ")";
    }
    s.runner = v.str();
    return "";
}

/** `preset` expands into the binary and hardware DVI axes, like
 * applyPreset. */
std::string
setPreset(Scenario &s, const json::Value &v)
{
    if (!v.isString())
        return std::string("expected a string token, got ") +
               v.typeName();
    if (v.str().empty()) {
        s.preset.clear();
        return "";
    }
    const std::optional<DviPreset> p = parsePreset(v.str());
    if (!p)
        return "unknown preset '" + v.str() + "' (valid: " +
               presetTokens() + ")";
    applyPreset(s, *p);
    return "";
}

/**
 * Every field, in emission order. `preset` precedes the binary and
 * hardware fields so later explicit fields win, exactly as
 * applyPreset-then-override does in C++. Deliberately absent:
 * cache `name`s (identity, not configuration), `hardware.core.dvi`
 * (hardware.dvi is authoritative; the runner copies it over before
 * simulating) and `hardware.core.maxInsts` (owned by
 * budget.maxInsts).
 */
const Field fieldTable[] = {
    {"runner", Kind::Text,
     [](const Scenario &s) { return encode(s.runner); }, setRunner},
    DVI_FIELD(workload),
    {"preset", Kind::Text,
     [](const Scenario &s) { return encode(s.preset); }, setPreset},
    DVI_FIELD(label),
    DVI_FIELD(binary.edvi),
    DVI_FIELD(hardware.dvi.useIdvi),
    DVI_FIELD(hardware.dvi.useEdvi),
    DVI_FIELD(hardware.dvi.earlyReclaim),
    DVI_FIELD(hardware.dvi.elimSaves),
    DVI_FIELD(hardware.dvi.elimRestores),
    DVI_FIELD(hardware.dvi.lvmStackDepth),
    DVI_FIELD(hardware.core.fetchWidth),
    DVI_FIELD(hardware.core.decodeWidth),
    DVI_FIELD(hardware.core.issueWidth),
    DVI_FIELD(hardware.core.commitWidth),
    DVI_FIELD(hardware.core.windowSize),
    DVI_FIELD(hardware.core.fetchQueueSize),
    DVI_FIELD(hardware.core.numPhysRegs),
    DVI_FIELD(hardware.core.cachePorts),
    DVI_FIELD(hardware.core.intAlus),
    DVI_FIELD(hardware.core.intMulDivs),
    DVI_FIELD(hardware.core.fpAlus),
    DVI_FIELD(hardware.core.fpMulDivs),
    DVI_FIELD(hardware.core.memLatency),
    DVI_FIELD(hardware.core.maxCycles),
    DVI_FIELD(hardware.core.il1.sizeBytes),
    DVI_FIELD(hardware.core.il1.assoc),
    DVI_FIELD(hardware.core.il1.lineBytes),
    DVI_FIELD(hardware.core.il1.hitLatency),
    DVI_FIELD(hardware.core.dl1.sizeBytes),
    DVI_FIELD(hardware.core.dl1.assoc),
    DVI_FIELD(hardware.core.dl1.lineBytes),
    DVI_FIELD(hardware.core.dl1.hitLatency),
    DVI_FIELD(hardware.core.l2.sizeBytes),
    DVI_FIELD(hardware.core.l2.assoc),
    DVI_FIELD(hardware.core.l2.lineBytes),
    DVI_FIELD(hardware.core.l2.hitLatency),
    DVI_FIELD(hardware.core.bp.historyBits),
    DVI_FIELD(hardware.core.bp.gshareEntries),
    DVI_FIELD(hardware.core.bp.bimodEntries),
    DVI_FIELD(hardware.core.bp.chooserEntries),
    DVI_FIELD(hardware.core.bp.btbEntries),
    DVI_FIELD(hardware.core.bp.rasEntries),
    DVI_FIELD(emu.trackLiveness),
    DVI_FIELD(emu.honorEdvi),
    DVI_FIELD(emu.honorIdvi),
    DVI_FIELD(emu.lvmStackDepth),
    DVI_FIELD(emu.strictDeadReads),
    // Throughput-only knob (tiers are proven bit-identical), so
    // `--set emu.tier=interp` A/Bs the translation cache.
    DVI_FIELD(emu.tier),
    DVI_FIELD(budget.maxInsts),
    DVI_FIELD(budget.quantum),
    DVI_FIELD(budget.maxWallMs),
    DVI_FIELD(budget.hardMaxInsts),
};

#undef DVI_FIELD

const Field *
findField(const std::string &path)
{
    for (const Field &f : fieldTable)
        if (path == f.path)
            return &f;
    return nullptr;
}

/** Some field lives below `path` (it is an interior object key).
 * Compared by length, so a key with an embedded NUL matches
 * nothing. */
bool
isInterior(const std::string &path)
{
    for (const Field &f : fieldTable) {
        const std::string_view p = f.path;
        if (p.size() > path.size() && p[path.size()] == '.' &&
            p.substr(0, path.size()) == path)
            return true;
    }
    return false;
}

/** Descend into (creating) the objects named by the path's parent
 * segments and set the leaf member. */
void
setNested(json::Value &root, const char *path, json::Value leaf)
{
    json::Value *node = &root;
    const char *seg = path;
    for (const char *dot; (dot = std::strchr(seg, '.')); seg = dot + 1) {
        const std::string key(seg, dot);
        if (!node->find(key))
            node->set(key, json::Value::object());
        // find() returns const; the address is stable until the
        // next set() on this node, which is fine for one
        // descend-then-write pass.
        node = const_cast<json::Value *>(node->find(key));
    }
    node->set(seg, std::move(leaf));
}

std::string
applyObject(const json::Value &obj, const std::string &prefix,
            Scenario &s)
{
    for (const auto &kv : obj.members()) {
        const std::string path =
            prefix.empty() ? kv.first : prefix + "." + kv.first;
        if (const Field *f = findField(path)) {
            const std::string err = f->set(s, kv.second);
            if (!err.empty())
                return path + ": " + err;
            continue;
        }
        // Not a leaf: recurse when some field lives below it,
        // otherwise the key is unknown at this level.
        if (!isInterior(path))
            return path + ": unknown field";
        if (!kv.second.isObject())
            return path + ": expected an object, got " +
                   std::string(kv.second.typeName());
        const std::string err = applyObject(kv.second, path, s);
        if (!err.empty())
            return err;
    }
    return "";
}

/** The soft error for a source that would expand to `jobs` jobs. */
std::string
overCap(const std::string &where, std::uint64_t jobs)
{
    return where + ": " + std::to_string(jobs) +
           " jobs exceed the manifest limit of " +
           std::to_string(maxManifestJobs);
}

} // namespace

json::Value
scenarioToJson(const Scenario &s)
{
    json::Value out = json::Value::object();
    for (const Field &f : fieldTable)
        setNested(out, f.path, f.get(s));
    return out;
}

json::Value
scenarioToJsonDiff(const Scenario &s)
{
    // The diff baseline is a default scenario with this scenario's
    // preset already applied — mirroring the loader, which sees the
    // `preset` member first and expands it before the explicit
    // fields. Deviations *from the preset* (e.g. fig10's
    // earlyReclaim=false rows) therefore survive the round trip.
    Scenario base;
    if (!s.preset.empty()) {
        if (const std::optional<DviPreset> p = parsePreset(s.preset))
            applyPreset(base, *p);
        // Clearing the stamp keeps `preset` itself in the diff.
        base.preset.clear();
    }
    json::Value out = json::Value::object();
    for (const Field &f : fieldTable) {
        // Identity fields always appear, so every emitted job
        // answers "what runs on what" without consulting the
        // defaults.
        const bool forced = !std::strcmp(f.path, "runner") ||
                            !std::strcmp(f.path, "workload");
        json::Value v = f.get(s);
        if (forced || v != f.get(base))
            setNested(out, f.path, std::move(v));
    }
    return out;
}

std::string
scenarioFromJson(const json::Value &obj, Scenario &s)
{
    if (!obj.isObject())
        return std::string("expected an object, got ") +
               obj.typeName();
    return applyObject(obj, "", s);
}

std::string
setScenarioField(Scenario &s, const std::string &path,
                 const std::string &text)
{
    const Field *f = findField(path);
    if (!f)
        return path + ": unknown field";

    json::Value v;
    switch (f->kind) {
      case Kind::U64: {
        errno = 0;
        char *end = nullptr;
        const unsigned long long parsed =
            std::strtoull(text.c_str(), &end, 10);
        if (text.empty() || text[0] == '-' || errno != 0 || !end ||
            *end != '\0')
            return path + ": expected an unsigned integer, got '" +
                   text + "'";
        v = json::Value(static_cast<std::uint64_t>(parsed));
        break;
      }
      case Kind::Bool:
        if (text == "true" || text == "1")
            v = json::Value(true);
        else if (text == "false" || text == "0")
            v = json::Value(false);
        else
            return path + ": expected true or false, got '" + text +
                   "'";
        break;
      case Kind::Text:
        v = json::Value(text);
        break;
    }

    const std::string err = f->set(s, v);
    return err.empty() ? "" : path + ": " + err;
}

std::string
manifestToJson(const CampaignManifest &m)
{
    json::Value doc = json::Value::object();
    doc.set("campaign", m.name);
    if (m.profile)
        doc.set("profile", true);
    json::Value jobs = json::Value::array();
    for (const Scenario &s : m.scenarios)
        jobs.push(scenarioToJsonDiff(s));
    doc.set("jobs", std::move(jobs));
    return doc.dump() + "\n";
}

namespace
{

/** String form of an axis value, for row labels. */
std::string
labelToken(const json::Value &v)
{
    switch (v.type()) {
      case json::Value::Type::String: return v.str();
      case json::Value::Type::U64:
        return std::to_string(v.u64());
      case json::Value::Type::F64: return json::formatDouble(v.f64());
      case json::Value::Type::Bool:
        return v.boolean() ? "true" : "false";
      default: return v.typeName();
    }
}

std::string
expandAxes(const json::Value &axes, const Scenario &def,
           std::vector<Scenario> &out)
{
    if (!axes.isArray())
        return std::string("axes: expected an array, got ") +
               axes.typeName();
    out.assign(1, def);
    for (std::size_t a = 0; a < axes.items().size(); ++a) {
        const std::string where = "axes[" + std::to_string(a) + "]";
        const json::Value &axis = axes.items()[a];
        if (!axis.isObject())
            return where + ": expected an object, got " +
                   std::string(axis.typeName());
        const json::Value *path = axis.find("path");
        if (!path || !path->isString())
            return where + ".path: expected a string dotted path";
        const json::Value *values = axis.find("values");
        if (!values || !values->isArray() ||
            values->items().empty())
            return where +
                   ".values: expected a non-empty array of values";
        const json::Value *label = axis.find("label");
        if (label && !label->isBool())
            return where + ".label: expected true or false, got " +
                   std::string(label->typeName());
        const bool labeled = label && label->boolean();
        for (const auto &kv : axis.members())
            if (kv.first != "path" && kv.first != "values" &&
                kv.first != "label")
                return where + "." + kv.first + ": unknown field";

        const Field *field = findField(path->str());
        if (!field)
            return where + ".path: unknown field '" + path->str() +
                   "'";
        const std::vector<json::Value> &points = values->items();
        if (points.size() > maxManifestJobs / out.size())
            return overCap(where, std::uint64_t(out.size()) *
                                      points.size());

        // First-declared axis outermost: each pass expands every
        // scenario built so far across this axis's values.
        std::vector<Scenario> next;
        next.reserve(out.size() * points.size());
        for (const Scenario &base : out) {
            for (std::size_t i = 0; i < points.size(); ++i) {
                Scenario s = base;
                const std::string err = field->set(s, points[i]);
                if (!err.empty())
                    return where + ".values[" + std::to_string(i) +
                           "] (" + path->str() + "): " + err;
                if (labeled) {
                    const std::string tok = labelToken(points[i]);
                    s.label += s.label.empty() ? tok : "-" + tok;
                }
                next.push_back(std::move(s));
            }
        }
        out = std::move(next);
    }
    return "";
}

} // namespace

std::string
manifestFromJson(const std::string &text, CampaignManifest &out)
{
    const json::ParseResult parsed = json::parse(text);
    if (!parsed.ok())
        return parsed.error;
    const json::Value &doc = parsed.value;
    if (!doc.isObject())
        return std::string(
                   "manifest: expected a top-level object, got ") +
               doc.typeName();

    out.name = "manifest";
    out.profile = false;
    out.scenarios.clear();

    // Unknown top-level keys are diagnosed like any other unknown
    // field: a misspelled job source ("Jobs", "axis") must not
    // silently degrade into the single-defaults campaign.
    // `degraded` appears in reports from fault-tolerant runs; it is
    // accepted (and ignored) here so a degraded report still replays
    // through --manifest.
    for (const auto &kv : doc.members()) {
        if (kv.first != "campaign" && kv.first != "profile" &&
            kv.first != "defaults" && kv.first != "jobs" &&
            kv.first != "axes" && kv.first != "results" &&
            kv.first != "degraded")
            return kv.first + ": unknown manifest field (want "
                              "campaign, profile, defaults, jobs, "
                              "axes, or results)";
    }

    if (const json::Value *name = doc.find("campaign")) {
        if (!name->isString())
            return std::string(
                       "campaign: expected a string, got ") +
                   name->typeName();
        out.name = name->str();
    }
    if (const json::Value *profile = doc.find("profile")) {
        if (!profile->isBool())
            return std::string(
                       "profile: expected true or false, got ") +
                   profile->typeName();
        out.profile = profile->boolean();
    }

    Scenario def;
    if (const json::Value *defaults = doc.find("defaults")) {
        const std::string err = scenarioFromJson(*defaults, def);
        if (!err.empty())
            return "defaults." + err;
    }

    const json::Value *jobs = doc.find("jobs");
    const json::Value *axes = doc.find("axes");
    const json::Value *results = doc.find("results");
    // In a report, "jobs" is the job *count* next to "results";
    // only an array of job objects is a job source.
    if (jobs && !jobs->isArray() && results)
        jobs = nullptr;
    const int sources = (jobs ? 1 : 0) + (axes ? 1 : 0) +
                        (results ? 1 : 0);
    if (sources > 1)
        return "manifest: 'jobs', 'axes', and 'results' are "
               "mutually exclusive";

    if (jobs) {
        if (!jobs->isArray())
            return std::string("jobs: expected an array, got ") +
                   jobs->typeName();
        if (jobs->items().size() > maxManifestJobs)
            return overCap("jobs", jobs->items().size());
        for (std::size_t i = 0; i < jobs->items().size(); ++i) {
            Scenario s = def;
            const std::string err =
                scenarioFromJson(jobs->items()[i], s);
            if (!err.empty())
                return "jobs[" + std::to_string(i) + "]." + err;
            out.scenarios.push_back(std::move(s));
        }
    } else if (axes) {
        const std::string err = expandAxes(*axes, def,
                                           out.scenarios);
        if (!err.empty())
            return err;
    } else if (results) {
        // A campaign report: provenance makes it a runnable
        // artifact. Each result embeds its resolved scenario —
        // diffed against the built-in defaults, so a "defaults"
        // section cannot apply here and silently honoring half of
        // the document would mislead.
        if (doc.find("defaults"))
            return "defaults: does not combine with a report's "
                   "'results' (use --set to adjust a replay)";
        if (!results->isArray())
            return std::string(
                       "results: expected an array, got ") +
                   results->typeName();
        if (results->items().size() > maxManifestJobs)
            return overCap("results", results->items().size());
        for (std::size_t i = 0; i < results->items().size(); ++i) {
            const std::string where =
                "results[" + std::to_string(i) + "]";
            const json::Value *scn =
                results->items()[i].find("scenario");
            if (!scn)
                return where + ": missing the 'scenario' object "
                               "(not a provenance-bearing report?)";
            Scenario s;  // reports diff against built-in defaults
            const std::string err = scenarioFromJson(*scn, s);
            if (!err.empty())
                return where + ".scenario." + err;
            out.scenarios.push_back(std::move(s));
        }
    } else {
        out.scenarios.push_back(def);
    }

    if (out.scenarios.empty())
        return "manifest: no jobs (empty job source)";
    return "";
}

} // namespace sim
} // namespace dvi
