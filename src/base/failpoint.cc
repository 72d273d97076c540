#include "base/failpoint.hh"

#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "base/fault.hh"

namespace dvi
{
namespace fail
{

namespace
{

enum class Action
{
    Throw,
    Delay,
    Error,
};

enum class Freq
{
    Always,
    Once,
    OneIn,
};

struct Site
{
    std::string name;
    Action action = Action::Throw;
    base::FaultKind kind = base::FaultKind::Transient;
    std::uint64_t delayMs = 0;
    Freq freq = Freq::Always;
    std::uint64_t n = 1;        // the N of 1inN
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> fires{0};
};

// The configured sites. A plain vector scanned linearly: chaos specs
// name a handful of sites, and the scan only happens once g_armed is
// observed true. configure()/reset() swap the vector while no
// evaluation is running (documented contract).
std::vector<std::unique_ptr<Site>> g_sites;
std::uint64_t g_seed = 0;
std::atomic<bool> g_armed{false};

std::uint64_t
fnv1a(const char *s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (; *s; ++s) {
        h ^= static_cast<unsigned char>(*s);
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

Site *
find(const char *name)
{
    for (auto &s : g_sites)
        if (s->name == name)
            return s.get();
    return nullptr;
}

/** Decide whether this hit fires, deterministically. */
bool
shouldFire(Site &s)
{
    // fetch_add gives each hit a unique index even under concurrent
    // evaluation; the firing decision is a pure function of
    // (seed, site name, index), so a fixed spec+seed fires on the
    // same hit indices regardless of thread interleaving.
    std::uint64_t idx = s.hits.fetch_add(1, std::memory_order_relaxed);
    switch (s.freq) {
    case Freq::Always:
        return true;
    case Freq::Once:
        return idx == 0;
    case Freq::OneIn:
        return splitmix64(g_seed ^ fnv1a(s.name.c_str()) ^ idx) % s.n == 0;
    }
    return false;
}

bool
parseU64(const std::string &text, std::uint64_t &out)
{
    if (text.empty())
        return false;
    std::uint64_t v = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false;
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    out = v;
    return true;
}

/** Parse one `site=action[@freq]` clause into *out; "" or error. */
std::string
parseClause(const std::string &clause, Site &out)
{
    auto eq = clause.find('=');
    if (eq == std::string::npos || eq == 0)
        return "clause '" + clause + "' is not site=action";
    out.name = clause.substr(0, eq);
    std::string rhs = clause.substr(eq + 1);

    std::string action = rhs;
    auto at = rhs.find('@');
    if (at != std::string::npos) {
        action = rhs.substr(0, at);
        std::string freq = rhs.substr(at + 1);
        if (freq == "always") {
            out.freq = Freq::Always;
        } else if (freq == "once") {
            out.freq = Freq::Once;
        } else if (freq.size() > 3 && freq.compare(0, 3, "1in") == 0) {
            out.freq = Freq::OneIn;
            if (!parseU64(freq.substr(3), out.n) || out.n == 0)
                return "bad frequency '" + freq + "' in '" + clause + "'";
        } else {
            return "bad frequency '" + freq + "' in '" + clause + "'";
        }
    }

    if (action == "throw" || action == "throw:transient") {
        out.action = Action::Throw;
        out.kind = base::FaultKind::Transient;
    } else if (action == "throw:permanent") {
        out.action = Action::Throw;
        out.kind = base::FaultKind::Permanent;
    } else if (action.compare(0, 6, "delay:") == 0) {
        out.action = Action::Delay;
        if (!parseU64(action.substr(6), out.delayMs))
            return "bad delay '" + action + "' in '" + clause + "'";
    } else if (action == "error") {
        out.action = Action::Error;
    } else {
        return "unknown action '" + action + "' in '" + clause + "'";
    }
    return "";
}

} // namespace

std::string
configure(const std::string &spec)
{
    std::vector<std::unique_ptr<Site>> sites;
    std::uint64_t seed = 0;

    std::size_t pos = 0;
    while (pos <= spec.size()) {
        auto comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string clause = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (clause.empty())
            continue;
        if (clause.compare(0, 5, "seed=") == 0) {
            if (!parseU64(clause.substr(5), seed))
                return "bad seed in '" + clause + "'";
            continue;
        }
        auto site = std::make_unique<Site>();
        std::string err = parseClause(clause, *site);
        if (!err.empty())
            return err;
        sites.push_back(std::move(site));
    }

    g_armed.store(false, std::memory_order_relaxed);
    g_sites = std::move(sites);
    g_seed = seed;
    if (!g_sites.empty())
        g_armed.store(true, std::memory_order_relaxed);
    return "";
}

std::string
configureFromEnv()
{
    const char *spec = std::getenv("DVI_CHAOS");
    if (!spec || !*spec)
        return "";
    return configure(spec);
}

cli::Flag
chaosFlag(const char *help, std::string *given)
{
    const std::string err = configureFromEnv();
    fatal_if(!err.empty(), "DVI_CHAOS: ", err);
    return {"--chaos", "SPEC", help, [given](const cli::Arg &a) {
                const std::string err = configure(a.text);
                fatal_if(!err.empty(), "--chaos: ", err);
                if (given)
                    *given = a.text;
            }};
}

void
reset()
{
    g_armed.store(false, std::memory_order_relaxed);
    g_sites.clear();
    g_seed = 0;
}

bool
armed()
{
    return g_armed.load(std::memory_order_relaxed);
}

void
evaluate(const char *site)
{
    Site *s = find(site);
    if (!s || !shouldFire(*s))
        return;
    switch (s->action) {
    case Action::Throw:
        s->fires.fetch_add(1, std::memory_order_relaxed);
        throw base::FaultInjected(s->kind, s->name);
    case Action::Delay:
        s->fires.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(s->delayMs));
        return;
    case Action::Error:
        // Error actions only fire at DVI_FAILPOINT_ERROR sites; at a
        // throw-style site the hit is counted but nothing happens.
        return;
    }
}

bool
evaluateError(const char *site)
{
    Site *s = find(site);
    if (!s || !shouldFire(*s))
        return false;
    switch (s->action) {
    case Action::Throw:
    case Action::Error:
        // This flavor must not unwind, so a throw action degrades to
        // a synthetic error return.
        s->fires.fetch_add(1, std::memory_order_relaxed);
        return true;
    case Action::Delay:
        s->fires.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(s->delayMs));
        return false;
    }
    return false;
}

std::uint64_t
fireCount(const std::string &site)
{
    for (auto &s : g_sites)
        if (s->name == site)
            return s->fires.load(std::memory_order_relaxed);
    return 0;
}

} // namespace fail
} // namespace dvi
