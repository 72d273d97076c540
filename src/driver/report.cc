#include "driver/report.hh"

#include <fstream>

#include "base/logging.hh"
#include "sim/manifest.hh"

namespace dvi
{
namespace driver
{

ReportFormat
parseReportFormat(const std::string &name)
{
    if (name == "json")
        return ReportFormat::Json;
    if (name == "csv")
        return ReportFormat::Csv;
    fatal("unknown report format '", name, "' (want json or csv)");
}

namespace
{

/** The runner's metrics as an insertion-ordered JSON object. */
json::Value
metricsJson(const JobResult &r, const sim::Runner &runner)
{
    json::Value out = json::Value::object();
    for (const sim::Metric &m : runner.metricTable()) {
        const sim::MetricValue v = m.read(r.run);
        if (v.type == sim::MetricValue::Type::U64)
            out.set(m.name, json::Value(v.u));
        else
            out.set(m.name, json::Value(v.f));
    }
    return out;
}

/** ';'-joined "name=value" runner metrics for the table column. */
std::string
metricsCell(const JobResult &r, const sim::Runner &runner)
{
    std::string out;
    for (const sim::Metric &m : runner.metricTable()) {
        const sim::MetricValue v = m.read(r.run);
        if (!out.empty())
            out += ";";
        out += m.name + "=";
        out += v.type == sim::MetricValue::Type::U64
                   ? Table::fmt(v.u)
                   : Table::fmt(v.f, 4);
    }
    return out;
}

} // namespace

Table
CampaignReport::toTable() const
{
    Table t("Campaign: " + campaign);
    std::vector<std::string> header = {
        "idx",  "runner",   "benchmark", "preset", "label",
        "regs", "maxInsts", "ipc",       "metrics"};
    if (profiled) {
        header.push_back("wall_s");
        header.push_back("Minsts/s");
    }
    t.setHeader(header);
    for (const JobResult &r : results) {
        const sim::Scenario &s = r.spec.scenario;
        const bool timing = s.runner == "timing";
        std::vector<std::string> row = {
            Table::fmt(static_cast<std::uint64_t>(r.spec.index)),
            s.runner,
            workload::benchmarkName(s.workload),
            s.preset,
            s.label,
            timing ? Table::fmt(
                         std::uint64_t(s.hardware.core.numPhysRegs))
                   : std::string("-"),
            Table::fmt(s.budget.maxInsts),
            timing && !r.failed ? Table::fmt(r.run.ipc, 4)
                                : std::string("-"),
            r.failed ? "FAILED(" +
                           std::string(base::faultKindName(
                               r.error.kind)) +
                           "): " + r.error.message
                     : metricsCell(r, sim::runnerFor(s.runner)),
        };
        if (profiled) {
            row.push_back(Table::fmt(r.wallSeconds, 4));
            row.push_back(Table::fmt(
                r.instsPerSec(sim::runnerFor(s.runner)) / 1e6, 3));
        }
        t.addRow(row);
    }
    return t;
}

std::string
CampaignReport::toCsv() const
{
    return toTable().renderCsv();
}

json::Value
CampaignReport::toJsonValue() const
{
    json::Value doc = json::Value::object();
    doc.set("campaign", campaign);
    doc.set("jobs",
            static_cast<std::uint64_t>(results.size()));
    // Emitted only when true: fault-free (and transient-recovered)
    // reports stay byte-identical to pre-fault-layer reports.
    if (degraded)
        doc.set("degraded", true);
    json::Value arr = json::Value::array();
    for (const JobResult &r : results) {
        const sim::Scenario &s = r.spec.scenario;

        json::Value o = json::Value::object();
        o.set("index", static_cast<std::uint64_t>(r.spec.index));
        o.set("seed", r.spec.seed);
        // Provenance: the fully resolved scenario through the same
        // field table the manifest loader reads, so this report
        // re-runs via `dvi-run --manifest`.
        o.set("scenario", sim::scenarioToJsonDiff(s));
        if (r.failed) {
            // Quarantined job: an error record replaces the metrics
            // (the run section is default-constructed garbage).
            json::Value err = json::Value::object();
            err.set("kind", base::faultKindName(r.error.kind));
            err.set("message", r.error.message);
            err.set("retries",
                    static_cast<std::uint64_t>(r.retries));
            o.set("error", std::move(err));
            arr.push(std::move(o));
            continue;
        }
        const sim::Runner &runner = sim::runnerFor(s.runner);
        o.set("textBytes", r.textBytes);
        o.set("metrics", metricsJson(r, runner));
        if (profiled) {
            o.set("wallSeconds", r.wallSeconds);
            o.set("instsPerSec", r.instsPerSec(runner));
        }
        arr.push(std::move(o));
    }
    doc.set("results", std::move(arr));
    return doc;
}

std::string
CampaignReport::toJson() const
{
    return toJsonValue().dump() + "\n";
}

void
CampaignReport::writeFile(const std::string &path,
                          ReportFormat fmt) const
{
    std::ofstream out(path, std::ios::binary);
    fatal_if(!out, "cannot open '", path, "' for writing");
    out << (fmt == ReportFormat::Json ? toJson() : toCsv());
    out.flush();
    fatal_if(!out, "write to '", path, "' failed");
}

} // namespace driver
} // namespace dvi
