#include "analysis/findings.hh"

#include <sstream>

#include "obs/telemetry.hh"

namespace dvi
{
namespace analysis
{

namespace
{

/** One finding as the JSON report's element and the `lint` event's
 * payload. */
json::Value
findingJson(const Finding &f)
{
    json::Value o = json::Value::object();
    o.set("severity", severityName(f.severity));
    o.set("rule", f.rule);
    o.set("unit", f.site.unit);
    if (!f.site.proc.empty())
        o.set("proc", f.site.proc);
    if (f.site.machine) {
        if (f.site.inst >= 0)
            o.set("pc", static_cast<std::uint64_t>(f.site.inst));
    } else {
        if (f.site.block >= 0)
            o.set("block", static_cast<std::uint64_t>(f.site.block));
        if (f.site.inst >= 0)
            o.set("inst", static_cast<std::uint64_t>(f.site.inst));
    }
    o.set("message", f.message);
    return o;
}

} // namespace

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Error:
        return "error";
      case Severity::Warn:
        return "warn";
      case Severity::Info:
        return "info";
    }
    return "?";
}

std::string
Site::toString() const
{
    std::ostringstream os;
    if (proc.empty()) {
        os << "module";
        return os.str();
    }
    os << "proc " << proc;
    if (machine) {
        if (inst >= 0)
            os << " pc " << inst;
    } else {
        if (block >= 0)
            os << " block " << block;
        if (inst >= 0)
            os << " inst " << inst;
    }
    return os.str();
}

std::string
Finding::toString() const
{
    std::ostringstream os;
    os << severityName(severity) << "[" << rule << "] "
       << site.toString() << ": " << message;
    return os.str();
}

void
FindingReport::add(Severity sev, std::string rule, Site site,
                   std::string message)
{
    Finding f;
    f.severity = sev;
    f.rule = std::move(rule);
    f.site = std::move(site);
    f.message = std::move(message);
    findings_.push_back(std::move(f));
}

void
FindingReport::merge(FindingReport other)
{
    for (Finding &f : other.findings_)
        findings_.push_back(std::move(f));
}

std::size_t
FindingReport::count(Severity s) const
{
    std::size_t n = 0;
    for (const Finding &f : findings_)
        if (f.severity == s)
            ++n;
    return n;
}

bool
FindingReport::failing() const
{
    for (const Finding &f : findings_)
        if (f.severity != Severity::Info)
            return true;
    return false;
}

Table
FindingReport::toTable(const std::string &title) const
{
    Table t(title);
    t.setHeader({"severity", "rule", "unit", "site", "message"});
    for (const Finding &f : findings_) {
        t.addRow({severityName(f.severity), f.rule, f.site.unit,
                  f.site.toString(), f.message});
    }
    return t;
}

json::Value
FindingReport::toJson() const
{
    json::Value arr = json::Value::array();
    for (const Finding &f : findings_)
        arr.push(findingJson(f));
    json::Value root = json::Value::object();
    root.set("findings", std::move(arr));
    root.set("errors",
             static_cast<std::uint64_t>(count(Severity::Error)));
    root.set("warnings",
             static_cast<std::uint64_t>(count(Severity::Warn)));
    root.set("infos",
             static_cast<std::uint64_t>(count(Severity::Info)));
    return root;
}

void
FindingReport::emitTelemetry(obs::TelemetrySink *sink,
                             std::size_t units) const
{
    if (!sink)
        return;
    for (const Finding &f : findings_)
        sink->event("lint", findingJson(f));
    json::Value s = json::Value::object();
    s.set("units", static_cast<std::uint64_t>(units));
    s.set("findings", static_cast<std::uint64_t>(findings_.size()));
    s.set("errors",
          static_cast<std::uint64_t>(count(Severity::Error)));
    s.set("warnings",
          static_cast<std::uint64_t>(count(Severity::Warn)));
    s.set("infos",
          static_cast<std::uint64_t>(count(Severity::Info)));
    sink->event("lint-summary", std::move(s));
}

} // namespace analysis
} // namespace dvi
