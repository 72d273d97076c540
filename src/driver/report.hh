/**
 * @file
 * Deterministic campaign reports.
 *
 * A CampaignReport is the index-ordered vector of JobResults plus
 * emitters: a human table (stats/table), CSV (the same table's CSV
 * rendering), and JSON built through base/json. All three are pure
 * functions of the results, with no timestamps, wall-clock, host
 * names, or thread counts, so a report is byte-identical across
 * serial and parallel runs of the same campaign.
 *
 * Every JSON result embeds its job's fully resolved scenario, sparse,
 * through the manifest's field table (sim/manifest.hh), which makes
 * a report a runnable artifact: `dvi-run --manifest report.json`
 * replays the exact campaign that produced it. Each job's runner is
 * resolved through sim::runnerFor, and its metric keys come from
 * the runner's own Runner::metricTable(), built once per process.
 */

#ifndef DVI_DRIVER_REPORT_HH
#define DVI_DRIVER_REPORT_HH

#include <string>
#include <vector>

#include "base/json.hh"
#include "driver/job.hh"
#include "stats/table.hh"

namespace dvi
{
namespace driver
{

/** Report file formats. */
enum class ReportFormat
{
    Json,
    Csv,
};

/** Parse "json" / "csv"; fatal on anything else. */
ReportFormat parseReportFormat(const std::string &name);

/** Index-ordered results of one campaign run. */
struct CampaignReport
{
    std::string campaign;
    std::vector<JobResult> results;

    /** Jobs carry wall-clock measurements (CampaignOptions::profile):
     * reports grow wallSeconds / instsPerSec fields and are no
     * longer byte-stable across runs. */
    bool profiled = false;

    /** The run was aborted via CampaignOptions::cancel: results for
     * jobs that never started are default-constructed, so the
     * report is partial and must not be emitted as a campaign
     * result. Never serialized. */
    bool cancelled = false;

    /** Some jobs were quarantined after exhausting retries: their
     * result slots carry `error` records instead of metrics, and
     * every other job's metrics are exactly what a fault-free run
     * produces. Serialized only when true, so fault-free reports
     * are byte-identical to pre-fault-layer ones. */
    bool degraded = false;

    /** One row per job: identity, config, and headline stats. */
    Table toTable() const;

    /** toTable() in CSV form (cells escaped per RFC 4180). */
    std::string toCsv() const;

    /** The report as a JSON document: campaign, job count, and one
     * result object per job (scenario provenance + metrics). */
    json::Value toJsonValue() const;

    /** toJsonValue() serialized; stable keys, stable order. */
    std::string toJson() const;

    /** Write in the given format; fatal on I/O failure. */
    void writeFile(const std::string &path, ReportFormat fmt) const;
};

} // namespace driver
} // namespace dvi

#endif // DVI_DRIVER_REPORT_HH
