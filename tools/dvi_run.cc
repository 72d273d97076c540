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
 * Each flag is one row of the cli::Parser table in main(), which
 * also prints `dvi-run --help`.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/lint.hh"
#include "base/cli.hh"
#include "base/failpoint.hh"
#include "base/logging.hh"
#include "driver/scenario_registry.hh"
#include "obs/cli_telemetry.hh"
#include "obs/trace.hh"
#include "sim/manifest.hh"
#include "sim/scenario.hh"

using namespace dvi;

namespace
{

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

} // namespace

int
main(int argc, char **argv)
{
    std::string scenario;
    std::string manifest_path;
    std::string emit_manifest;
    std::optional<unsigned> jobs;
    std::uint64_t max_insts = 0;
    bool profile = false;
    std::string out_path;
    std::string format = "json";
    std::string mode_filter;
    std::vector<Override> overrides;
    bool quiet = false;
    obs::CliTelemetry telemetry;
    std::string chaos_spec;
    std::optional<unsigned> retries;
    bool lint = false;

    const cli::Parser cli{
        {"--scenario NAME [options]", "--manifest FILE [options]",
         "--emit-manifest NAME [--out FILE]", "--list"},
        {
            cli::heading("campaign sources (exactly one):"),
            {"--scenario", "NAME",
             "registered scenario to run (see --list); paper figure "
             "N is figNN",
             cli::store(scenario)},
            {"--manifest", "FILE",
             "run a JSON campaign manifest; campaign reports also "
             "load here (they embed their resolved scenarios)",
             cli::store(manifest_path)},
            cli::heading("options:"),
            {"--emit-manifest", "NAME",
             "write the named scenario's fully expanded manifest (to "
             "--out, else stdout) instead of running it",
             cli::store(emit_manifest)},
            {"--set", "PATH=VALUE",
             "override one bound scenario field on every job, e.g. "
             "--set hardware.core.windowSize=128 or --set "
             "preset=dense; repeatable, applies to any campaign "
             "source",
             [&](const cli::Arg &a) {
                 const std::string kv = a.text;
                 const std::size_t eq = kv.find('=');
                 fatal_if(eq == std::string::npos || eq == 0,
                          "--set wants PATH=VALUE, got '", kv, "'");
                 overrides.push_back(
                     {kv.substr(0, eq), kv.substr(eq + 1)});
             }},
            {"--jobs", "N",
             "worker threads (default 1; 0 = one per hardware "
             "thread)",
             cli::store(jobs)},
            {"--max-insts", "M",
             "per-run dynamic instruction budget (default: the "
             "scenario's own)",
             cli::store(max_insts)},
            {"--mode", "M",
             "run only the jobs of one DVI preset (none, idvi, full, "
             "dense); renders the generic report table",
             cli::store(mode_filter)},
            {"--profile", "",
             "measure per-job wall-clock; adds wallSeconds and "
             "instsPerSec to reports (breaks report byte-stability "
             "across runs)",
             cli::set(profile)},
            {"--out", "FILE",
             "write a machine-readable report (or the manifest, "
             "under --emit-manifest)",
             cli::store(out_path)},
            {"--format", "F", "report format: json (default) or csv",
             cli::store(format)},
            telemetry.fileFlag(
                "stream NDJSON telemetry events to file F ('-' = "
                "stderr); reports stay byte-identical with or "
                "without it"),
            telemetry.intervalFlag(),
            telemetry.progressFlag(),
            {"--retries", "N",
             "per-job retry budget for transient failures (default "
             "2); exhausted retries quarantine the job and mark the "
             "report degraded (exit 3)",
             cli::store(retries)},
            fail::chaosFlag(
                "arm deterministic failpoints, e.g. "
                "'driver.compile=throw@1in20,seed=42' (also: "
                "DVI_CHAOS env var); see DESIGN.md §12",
                &chaos_spec),
            {"--lint", "",
             "statically verify every binary the campaign will run "
             "(src/analysis rules, including the independent E-DVI "
             "kill-mask prover) before any job launches; findings "
             "abort the run with exit 1",
             cli::set(lint)},
            {"--quiet", "", "suppress the tables on stdout",
             cli::set(quiet)},
            {"--list", "", "list registered scenarios and exit",
             [](const cli::Arg &) {
                 listScenarios();
                 std::exit(0);
             }},
        }};
    cli.parse(argc, argv);

    // ------------------------------------------------ emit-manifest
    if (!emit_manifest.empty()) {
        fatal_if(!scenario.empty() || !manifest_path.empty(),
                 "--emit-manifest does not combine with --scenario/"
                 "--manifest");
        // Run-only flags are rejected rather than silently ignored:
        // a user passing --mode expects a smaller manifest, not the
        // full grid.
        fatal_if(!mode_filter.empty() || jobs ||
                     format != "json" || profile || quiet ||
                     telemetry.requested() || lint || retries ||
                     !chaos_spec.empty(),
                 "--emit-manifest only combines with --max-insts, "
                 "--set, and --out");
        sim::CampaignManifest m = driver::scenarioManifest(
            driver::scenarioFor(emit_manifest), max_insts);
        for (sim::Scenario &s : m.scenarios)
            applyOverrides(s, overrides);
        const std::string text = sim::manifestToJson(m);
        if (out_path.empty())
            std::fputs(text.c_str(), stdout);
        else
            cli::writeFile(out_path, text);
        return 0;
    }

    // ------------------------------------------- resolve the source
    fatal_if(!scenario.empty() && !manifest_path.empty(),
             "--scenario and --manifest are mutually exclusive");
    if (scenario.empty() && manifest_path.empty()) {
        cli.printHelp(argv[0]);
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
            cli.printHelp(argv[0]);
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
            sim::manifestFromJson(cli::readFile(manifest_path), m);
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
    copts.jobs = jobs.value_or(1);
    copts.profile = profile;
    copts.retry.maxRetries = retries.value_or(copts.retry.maxRetries);

    // Telemetry is strictly out of band: the sink (a file under
    // --telemetry, observer-only under a bare --progress) sees every
    // event, and the report is byte-identical either way. Every exit
    // from here on ends it the same way, when `telemetry` dies.
    copts.telemetry = telemetry.open();
    telemetry.installGlobal();
    copts.metrics = telemetry.startMetrics();

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
        findings.emitTelemetry(copts.telemetry, run.units());
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

    // SIGINT/SIGTERM request a *cooperative* stop: the campaign
    // skips jobs that have not started, in-flight jobs stop at their
    // next cancel poll, and every sink flushes whole NDJSON lines
    // before exit 0.
    copts.cancel = &cli::stopOnSignal();

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
        obs::PhaseSpan span(copts.telemetry, "aggregate");
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
