/**
 * @file
 * dvi-run — unified simulation-campaign CLI.
 *
 * Front end over the scenario registry and the manifest layer. A
 * campaign can come from three sources — a registered scenario
 * (--scenario; paper figure N is `figNN`), a user-authored JSON
 * manifest (--manifest), or a previous report (reports embed their
 * resolved scenarios, so they load as manifests too) — and every source
 * accepts the same dotted-path overrides (--set). Reports are
 * deterministic: `--jobs 8` emits a byte-identical file to
 * `--jobs 1` (wall-clock goes to stderr, not into the report).
 *
 * Usage:
 *   dvi-run --scenario NAME [--jobs N] [--max-insts M]
 *           [--mode none|idvi|full|dense] [--set path=value]...
 *           [--out results.json] [--format json|csv] [--quiet]
 *   dvi-run --manifest FILE [same options]
 *   dvi-run --emit-manifest NAME [--max-insts M] [--set ...]
 *           [--out manifest.json]
 *   dvi-run --list
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/lint.hh"
#include "base/cli.hh"
#include "base/failpoint.hh"
#include "base/logging.hh"
#include "driver/scenario_registry.hh"
#include "obs/metrics.hh"
#include "obs/progress.hh"
#include "obs/trace.hh"
#include "sim/manifest.hh"
#include "sim/scenario.hh"

using namespace dvi;

namespace
{

/** Calls `f` once, when the guard goes out of scope. */
template <typename F>
class OnExit
{
  public:
    explicit OnExit(F f) : f_(std::move(f)) {}
    ~OnExit() { f_(); }
    OnExit(const OnExit &) = delete;
    OnExit &operator=(const OnExit &) = delete;

  private:
    F f_;
};

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s --scenario NAME [options]\n"
        "       %s --manifest FILE [options]\n"
        "       %s --emit-manifest NAME [--out FILE]\n"
        "       %s --list\n"
        "\n"
        "campaign sources (exactly one):\n"
        "  --scenario NAME registered scenario to run (see --list);\n"
        "                  paper figure N is figNN\n"
        "  --manifest FILE run a JSON campaign manifest; campaign\n"
        "                  reports also load here (they embed their\n"
        "                  resolved scenarios)\n"
        "\n"
        "options:\n"
        "  --emit-manifest NAME  write the named scenario's fully\n"
        "                  expanded manifest (to --out, else stdout)\n"
        "                  instead of running it\n"
        "  --set PATH=VALUE      override one bound scenario field\n"
        "                  on every job, e.g. --set\n"
        "                  hardware.core.windowSize=128 or --set\n"
        "                  preset=dense; repeatable, applies to any\n"
        "                  campaign source\n"
        "  --jobs N        worker threads (default 1; 0 = one per\n"
        "                  hardware thread)\n"
        "  --max-insts M   per-run dynamic instruction budget\n"
        "                  (default: the scenario's own)\n"
        "  --mode M        run only the jobs of one DVI preset\n"
        "                  (none, idvi, full, dense); renders the\n"
        "                  generic report table\n"
        "  --profile       measure per-job wall-clock; adds wallSeconds\n"
        "                  and instsPerSec to reports (breaks report\n"
        "                  byte-stability across runs)\n"
        "  --out FILE      write a machine-readable report (or the\n"
        "                  manifest, under --emit-manifest)\n"
        "  --format F      report format: json (default) or csv\n"
        "  --telemetry F   stream NDJSON telemetry events to file F\n"
        "                  ('-' = stderr); reports stay\n"
        "                  byte-identical with or without it\n"
        "  --metrics-interval N\n"
        "                  flush a `metrics` event every N ms\n"
        "                  (requires --telemetry)\n"
        "  --progress      live progress line on stderr, rendered\n"
        "                  from the telemetry event stream\n"
        "  --retries N     per-job retry budget for transient\n"
        "                  failures (default 2); exhausted retries\n"
        "                  quarantine the job and mark the report\n"
        "                  degraded (exit 3)\n"
        "  --chaos SPEC    arm deterministic failpoints, e.g.\n"
        "                  'driver.compile=throw@1in20,seed=42'\n"
        "                  (also: DVI_CHAOS env var); see DESIGN.md\n"
        "                  §12\n"
        "  --lint          statically verify every binary the\n"
        "                  campaign will run (src/analysis rules,\n"
        "                  including the independent E-DVI kill-mask\n"
        "                  prover) before any job launches; findings\n"
        "                  abort the run with exit 1\n"
        "  --quiet         suppress the tables on stdout\n"
        "  --list          list registered scenarios and exit\n"
        "  --help          this text\n",
        argv0, argv0, argv0, argv0);
}

void
listScenarios()
{
    // Job counts come from actually building each grid (cheap: no
    // compilation or simulation), so the listing is what
    // --emit-manifest will expand, not an estimate.
    std::printf("%-26s %6s  description\n", "scenario", "jobs");
    for (const std::string &name :
         driver::ScenarioRegistry::instance().names()) {
        const driver::RegisteredScenario &s =
            driver::scenarioFor(name);
        const std::size_t jobs =
            s.build(driver::resolveScenarioInsts(s, 0)).size();
        std::printf("%-26s %6zu  %s\n", name.c_str(), jobs,
                    s.description.c_str());
    }
}

using cli::parseUint;
using cli::readFile;

/** One --set override, kept in command-line order. */
struct Override
{
    std::string path;
    std::string value;
};

/** Apply every --set override to one scenario; fatal with the
 * offending dotted path on error. */
void
applyOverrides(sim::Scenario &s,
               const std::vector<Override> &overrides)
{
    for (const Override &o : overrides) {
        const std::string err =
            sim::setScenarioField(s, o.path, o.value);
        fatal_if(!err.empty(), "--set ", o.path, "=", o.value, ": ",
                 err);
    }
}

// SIGINT/SIGTERM request a *cooperative* stop: the campaign skips
// jobs that have not started, in-flight jobs stop at their next
// cancel poll, and every sink flushes whole NDJSON lines before
// exit 0. The handler itself only flips the lock-free atomic
// (async-signal-safe); the jobs poll it directly.
std::atomic<bool> g_interrupted{false};

void
onSignal(int)
{
    g_interrupted.store(true);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string scenario;
    std::string manifest_path;
    std::string emit_manifest;
    unsigned jobs = 1;
    std::uint64_t max_insts = 0;
    bool profile = false;
    std::string out_path;
    std::string format = "json";
    std::string mode_filter;
    std::vector<Override> overrides;
    bool quiet = false;
    bool jobs_given = false;
    std::string telemetry_path;
    unsigned metrics_interval = 0;
    bool progress = false;
    std::string chaos_spec;
    bool retries_given = false;
    unsigned retries = 0;
    bool lint = false;

    // Failpoints arm before anything can hit one; an explicit
    // --chaos below replaces the environment's spec.
    {
        const std::string err = fail::configureFromEnv();
        fatal_if(!err.empty(), "DVI_CHAOS: ", err);
    }

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            fatal_if(i + 1 >= argc, arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--scenario") {
            scenario = value();
        } else if (arg == "--manifest") {
            manifest_path = value();
        } else if (arg == "--emit-manifest") {
            emit_manifest = value();
        } else if (arg == "--set") {
            const std::string kv = value();
            const std::size_t eq = kv.find('=');
            fatal_if(eq == std::string::npos || eq == 0,
                     "--set wants PATH=VALUE, got '", kv, "'");
            overrides.push_back(
                {kv.substr(0, eq), kv.substr(eq + 1)});
        } else if (arg == "--jobs") {
            jobs = parseUint<unsigned>("--jobs", value());
            jobs_given = true;
        } else if (arg == "--max-insts") {
            max_insts = parseUint("--max-insts", value());
        } else if (arg == "--mode") {
            mode_filter = value();
        } else if (arg == "--out") {
            out_path = value();
        } else if (arg == "--format") {
            format = value();
        } else if (arg == "--profile") {
            profile = true;
        } else if (arg == "--telemetry") {
            telemetry_path = value();
        } else if (arg == "--metrics-interval") {
            metrics_interval =
                parseUint<unsigned>("--metrics-interval", value());
        } else if (arg == "--progress") {
            progress = true;
        } else if (arg == "--chaos") {
            chaos_spec = value();
            const std::string err = fail::configure(chaos_spec);
            fatal_if(!err.empty(), "--chaos: ", err);
        } else if (arg == "--retries") {
            retries = parseUint<unsigned>("--retries", value());
            retries_given = true;
        } else if (arg == "--lint") {
            lint = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--list") {
            listScenarios();
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            fatal("unknown argument '", arg, "'");
        }
    }

    // ------------------------------------------------ emit-manifest
    if (!emit_manifest.empty()) {
        fatal_if(!scenario.empty() || !manifest_path.empty(),
                 "--emit-manifest does not combine with --scenario/"
                 "--manifest");
        // Run-only flags are rejected rather than silently ignored:
        // a user passing --mode expects a smaller manifest, not the
        // full grid.
        fatal_if(!mode_filter.empty() || jobs_given ||
                     format != "json" || profile || quiet ||
                     !telemetry_path.empty() || metrics_interval ||
                     progress || lint || retries_given ||
                     !chaos_spec.empty(),
                 "--emit-manifest only combines with --max-insts, "
                 "--set, and --out");
        sim::CampaignManifest m = driver::scenarioManifest(
            driver::scenarioFor(emit_manifest), max_insts);
        for (sim::Scenario &s : m.scenarios)
            applyOverrides(s, overrides);
        const std::string text = sim::manifestToJson(m);
        if (out_path.empty()) {
            std::fputs(text.c_str(), stdout);
        } else {
            std::ofstream out(out_path, std::ios::binary);
            fatal_if(!out, "cannot open '", out_path,
                     "' for writing");
            out << text;
            out.flush();
            fatal_if(!out, "write to '", out_path, "' failed");
        }
        return 0;
    }

    // ------------------------------------------- resolve the source
    fatal_if(!scenario.empty() && !manifest_path.empty(),
             "--scenario and --manifest are mutually exclusive");
    if (scenario.empty() && manifest_path.empty()) {
        usage(argv[0]);
        fatal("--scenario is required (or --manifest / --list)");
    }
    const driver::ReportFormat fmt =
        driver::parseReportFormat(format);

    // Resolve the preset filter up front so a typo is a friendly
    // usage error, not an abort mid-campaign. The preset table is
    // the paper's three columns (none/idvi/full) plus the dense
    // design point, parsed case-insensitively.
    std::string preset_token;
    if (!mode_filter.empty()) {
        const std::optional<sim::DviPreset> preset =
            sim::parsePreset(mode_filter);
        if (!preset) {
            std::fprintf(stderr,
                         "%s: invalid DVI mode '%s' for --mode; "
                         "valid values: %s\n",
                         argv[0], mode_filter.c_str(),
                         sim::presetTokens().c_str());
            usage(argv[0]);
            return 2;
        }
        preset_token = preset->name;
    }

    const driver::RegisteredScenario *entry = nullptr;
    driver::Campaign campaign("");
    if (!scenario.empty()) {
        entry = &driver::scenarioFor(scenario);
        campaign = entry->build(
            driver::resolveScenarioInsts(*entry, max_insts));
    } else {
        sim::CampaignManifest m;
        const std::string err =
            sim::manifestFromJson(readFile(manifest_path), m);
        fatal_if(!err.empty(), manifest_path, ": ", err);
        fatal_if(max_insts != 0,
                 "--max-insts does not apply to manifests; use "
                 "--set budget.maxInsts=",
                 max_insts, " instead");
        campaign = driver::Campaign(m.name, std::move(m.scenarios));
        profile = profile || m.profile;
    }

    // A figure-specific renderer assumes the exact grid its builder
    // laid out; --set and --mode both break that assumption, so
    // either falls back to the generic table.
    bool generic_render = false;

    // Dotted-path overrides apply to every job, whatever the
    // source — this replaces per-flag plumbing for each knob.
    if (!overrides.empty()) {
        std::vector<sim::Scenario> adjusted;
        adjusted.reserve(campaign.size());
        for (const driver::JobSpec &job : campaign.jobs()) {
            sim::Scenario s = job.scenario;
            applyOverrides(s, overrides);
            adjusted.push_back(std::move(s));
        }
        campaign = driver::Campaign(campaign.name(),
                                    std::move(adjusted));
        generic_render = true;
    }

    // A preset filter re-shapes the grid.
    if (!preset_token.empty()) {
        std::vector<sim::Scenario> kept;
        for (const driver::JobSpec &job : campaign.jobs())
            if (job.scenario.preset == preset_token)
                kept.push_back(job.scenario);
        fatal_if(kept.empty(), "campaign '", campaign.name(),
                 "' has no jobs with preset '", preset_token, "'");
        campaign = driver::Campaign(
            campaign.name() + "-" + preset_token, std::move(kept));
        generic_render = true;
    }

    driver::CampaignOptions copts;
    copts.jobs = jobs;
    copts.profile = profile;
    if (retries_given)
        copts.retry.maxRetries = retries;

    // Telemetry is strictly out of band: the sink (a file under
    // --telemetry, observer-only under a bare --progress) sees every
    // event, and the report is byte-identical either way.
    fatal_if(metrics_interval && telemetry_path.empty(),
             "--metrics-interval requires --telemetry");
    std::unique_ptr<obs::TelemetrySink> sink;
    if (!telemetry_path.empty())
        sink = obs::TelemetrySink::open(telemetry_path);
    else if (progress)
        sink = std::make_unique<obs::TelemetrySink>();
    obs::ProgressRenderer renderer;
    if (sink && progress)
        sink->addObserver(
            [&renderer](const obs::Event &e) { renderer.observe(e); });
    obs::MetricRegistry metrics;
    std::unique_ptr<obs::MetricFlusher> flusher;
    if (sink) {
        copts.telemetry = sink.get();
        copts.metrics = &metrics;
        // Global escape hatch for layers without plumbing: the
        // timing core's mid-run samples and the warn()/inform()
        // mirror. Cleared before the sink dies, below.
        obs::setGlobalSink(sink.get());
        obs::setCoreSampleInsts(10000);
        if (metrics_interval)
            flusher = std::make_unique<obs::MetricFlusher>(
                metrics, *sink, metrics_interval);
    }
    // Every exit from here on ends telemetry the same way: stop the
    // periodic flusher, write the final metrics event (after the
    // aggregate phase on a normal run) and detach the global sink
    // before it dies.
    const OnExit endTelemetry([&] {
        flusher.reset();
        if (sink) {
            metrics.flush(*sink);
            obs::setGlobalSink(nullptr);
            obs::setCoreSampleInsts(0);
        }
    });

    // ------------------------------------------- pre-launch lint
    // Statically verify every distinct (benchmark, policy) binary
    // the campaign references before any job launches: a campaign
    // burning hours on an unsoundly annotated binary is wasted
    // compute AND a wrong conclusion.
    if (lint) {
        std::vector<sim::Scenario> scenarios;
        for (const driver::JobSpec &job : campaign.jobs())
            scenarios.push_back(job.scenario);
        analysis::LintRun run;
        run.lintScenarios(scenarios);
        const analysis::FindingReport &findings = run.report();
        const std::size_t binaries = run.binaries();
        findings.emitTelemetry(sink.get(), run.units());
        if (findings.failing()) {
            findings.toTable("pre-launch lint findings").print();
            std::fprintf(
                stderr,
                "dvi-run: --lint found %zu finding(s) across %zu "
                "binar%s; campaign %s not started\n",
                findings.size(), binaries,
                binaries == 1 ? "y" : "ies",
                campaign.name().c_str());
            return 1;
        }
        std::fprintf(stderr,
                     "dvi-run: lint clean (%zu module(s), %zu "
                     "binar%s)\n",
                     run.units(), binaries,
                     binaries == 1 ? "y" : "ies");
    }

    copts.cancel = &g_interrupted;
    std::signal(SIGINT, &onSignal);
    std::signal(SIGTERM, &onSignal);

    const auto t0 = std::chrono::steady_clock::now();
    driver::CampaignReport report;
    try {
        report = campaign.run(copts);
    } catch (const std::exception &e) {
        // A campaign-level fault (aggregation, pool teardown) is
        // beyond per-job isolation; report it as a hard failure.
        std::fprintf(stderr, "dvi-run: campaign %s failed: %s\n",
                     campaign.name().c_str(), e.what());
        return 1;
    }
    const auto t1 = std::chrono::steady_clock::now();

    // An interrupted campaign has well-formed telemetry but a
    // partial result set; emitting the report would look complete,
    // so it is withheld and the interruption is announced instead.
    if (report.cancelled) {
        std::fprintf(stderr,
                     "dvi-run: interrupted; campaign %s stopped "
                     "before all %zu job(s) ran, report not written\n",
                     campaign.name().c_str(), campaign.size());
        return 0;
    }

    const double secs =
        std::chrono::duration<double>(t1 - t0).count();

    {
        obs::PhaseSpan span(sink.get(), "aggregate");
        if (!quiet) {
            if (!generic_render && entry && entry->render)
                entry->render(report, std::cout);
            else
                std::cout << report.toTable().render();
        }
        if (!out_path.empty())
            report.writeFile(out_path, fmt);
    }

    // Wall-clock goes to stderr so report files and stdout captures
    // stay byte-identical across worker counts.
    const unsigned workers =
        copts.jobs ? copts.jobs
                   : driver::ThreadPool::hardwareThreads();
    std::fprintf(
        stderr, "dvi-run: scenario %s, %zu jobs, %u worker%s, %.2fs\n",
        campaign.name().c_str(), campaign.size(), workers,
        workers == 1 ? "" : "s", secs);

    // A degraded campaign still wrote its (partial) report above —
    // quarantined jobs carry error records in it — but the exit
    // code must not look like success to scripts.
    if (report.degraded) {
        std::size_t failedJobs = 0;
        for (const driver::JobResult &r : report.results)
            if (r.failed)
                ++failedJobs;
        std::fprintf(stderr,
                     "dvi-run: campaign degraded: %zu of %zu job(s) "
                     "quarantined after retries; see the report's "
                     "error records\n",
                     failedJobs, report.results.size());
        return 3;
    }
    return 0;
}
