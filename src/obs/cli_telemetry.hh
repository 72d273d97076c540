/**
 * @file
 * The telemetry front end of the command-line tools.
 *
 * A CliTelemetry owns a tool's telemetry from its flags to its
 * teardown: the sink (the --telemetry file, '-' = stderr, or an
 * observer-only sink under a bare --progress), the progress renderer
 * watching it, the metric registry and its --metrics-interval
 * flusher, and the process-global sink and core-sample interval that
 * layers with no plumbing reach. dvi-run and dvi-fuzz use all of it,
 * dvi-serve installs a sink without metrics, dvi-lint only opens one.
 */

#ifndef DVI_OBS_CLI_TELEMETRY_HH
#define DVI_OBS_CLI_TELEMETRY_HH

#include <memory>
#include <string>

#include "base/cli.hh"
#include "obs/metrics.hh"
#include "obs/progress.hh"
#include "obs/telemetry.hh"

namespace dvi
{
namespace obs
{

class CliTelemetry
{
  public:
    CliTelemetry() = default;
    ~CliTelemetry() { close(); }

    CliTelemetry(const CliTelemetry &) = delete;
    CliTelemetry &operator=(const CliTelemetry &) = delete;

    /** The --telemetry row, with the tool's help text. */
    cli::Flag
    fileFlag(const char *help)
    {
        return {"--telemetry", "F", help, cli::store(path_)};
    }

    cli::Flag
    intervalFlag()
    {
        return {"--metrics-interval", "N",
                "flush a `metrics` event every N ms (requires "
                "--telemetry)",
                cli::store(intervalMs_)};
    }

    cli::Flag
    progressFlag()
    {
        return {"--progress", "",
                "live progress line on stderr, rendered from the "
                "telemetry event stream",
                cli::set(progress_)};
    }

    /** Whether any of the rows asked for telemetry. */
    bool
    requested() const
    {
        return !path_.empty() || intervalMs_ || progress_;
    }

    /** Open the sink the flags ask for, or an observer-only one when
     * `always`; nullptr when there is none. Fatal when
     * --metrics-interval lacks --telemetry. */
    TelemetrySink *open(bool always = false);

    /** Install the open sink (if any) as the process-global sink,
     * with a core sample every 10,000 committed instructions. */
    void installGlobal();

    /** The registry a campaign updates (nullptr without a sink), with
     * the --metrics-interval flusher started. */
    MetricRegistry *startMetrics();

    /** Tear down, also at destruction: stop the flusher, write the
     * final `metrics` event, clear the globals, close the sink. */
    void close();

  private:
    std::string path_;
    unsigned intervalMs_ = 0;
    bool progress_ = false;
    bool global_ = false;
    bool metrics_ = false;

    // Declared so they die after the sink that calls them.
    ProgressRenderer renderer_;
    MetricRegistry registry_;
    std::unique_ptr<TelemetrySink> sink_;
    std::unique_ptr<MetricFlusher> flusher_;
};

} // namespace obs
} // namespace dvi

#endif // DVI_OBS_CLI_TELEMETRY_HH
