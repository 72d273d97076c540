/**
 * @file
 * dvi-lint — static IR and binary verification CLI.
 *
 * Lints anything the repo can name: every registered scenario's
 * binaries (--all, the default), one scenario (--scenario), a
 * campaign manifest (--manifest), a fuzz repro (--repro), or a
 * freshly generated fuzz corpus (--fuzz N, byte-identical to the
 * corpus dvi-fuzz would generate from the same seed). Each unit runs
 * the src/analysis rule pipeline: IR structure, def-before-use and
 * unreachable-code checks on the module, then machine CFG integrity
 * and the independent E-DVI kill-mask soundness proof on every
 * compiled (benchmark, policy) variant.
 *
 * `--inject-kill-bit ORDINAL:REG` corrupts one kill instruction in
 * every E-DVI binary before linting — the fault-detection proof: a
 * clean tree must exit 0, an injected fault must exit 1 with an
 * `edvi-kill-live` finding naming the exact site.
 *
 * Each flag is one row of the cli::Parser table in main(), which
 * also prints `dvi-lint --help`.
 *
 * Exit status: 0 when no Error/Warn findings (Info is advisory),
 * 1 otherwise.
 */

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "analysis/lint.hh"
#include "base/cli.hh"
#include "base/logging.hh"
#include "base/test_seed.hh"
#include "compiler/compile.hh"
#include "driver/scenario_registry.hh"
#include "fuzz/campaign.hh"
#include "fuzz/oracle.hh"
#include "fuzz/repro.hh"
#include "obs/cli_telemetry.hh"
#include "sim/manifest.hh"

using namespace dvi;

namespace
{

void
lintRegistered(analysis::LintRun &run, const std::string &name)
{
    const driver::RegisteredScenario &s = driver::scenarioFor(name);
    const driver::Campaign campaign =
        s.build(driver::resolveScenarioInsts(s, 0));
    std::vector<sim::Scenario> scenarios;
    for (const driver::JobSpec &job : campaign.jobs())
        scenarios.push_back(job.scenario);
    run.lintScenarios(scenarios);
}

/** Lint the corpus dvi-fuzz runs from the same seed and fraction. */
void
lintFuzzCorpus(analysis::LintRun &run, std::uint64_t seed,
               std::uint64_t count, double structured_fraction)
{
    fuzz::FuzzConfig corpus;
    corpus.seed = seed;
    corpus.structuredFraction = structured_fraction;
    for (std::uint64_t i = 0; i < count; ++i) {
        run.lintUnit("fuzz-" + std::to_string(i),
                     fuzz::generateOne(corpus, i),
                     {comp::EdviPolicy::None,
                      comp::EdviPolicy::CallSites,
                      comp::EdviPolicy::Dense});
    }
}

} // namespace

int
main(int argc, char **argv)
{
    analysis::LintOptions lint_opts;
    fuzz::FaultSpec fault;
    std::vector<std::string> scenario_names;
    bool all = false;
    bool list = false;
    bool json = false;
    bool quiet = false;
    std::string manifest_path;
    std::string repro_path;
    std::uint64_t fuzz_count = 0;
    SeedOption seed(1);
    double structured_fraction = 0.25;
    obs::CliTelemetry telemetry;

    const cli::Parser cli{
        {"[options]"},
        {
            cli::heading("what to lint (default: --all):"),
            {"--all", "", "every registered scenario's binaries",
             cli::set(all)},
            {"--scenario", "NAME", "one registered scenario",
             [&](const cli::Arg &a) {
                 scenario_names.push_back(a.text);
             }},
            {"--manifest", "FILE", "a campaign manifest's binaries",
             cli::store(manifest_path)},
            {"--repro", "FILE", "a fuzz repro's program and binaries",
             cli::store(repro_path)},
            {"--fuzz", "N",
             "N generated fuzz programs (the corpus dvi-fuzz would "
             "generate from --seed)",
             cli::store(fuzz_count)},
            {"--list", "", "list registered scenario names",
             cli::set(list)},
            cli::heading("options:"),
            seed.flag("S", "fuzz corpus seed (default 1; "
                           "DVI_TEST_SEED overrides when absent)"),
            {"--structured-fraction", "F",
             "share of paper-shaped programs in the fuzz corpus "
             "(default 0.25)",
             cli::store(structured_fraction)},
            {"--advisory", "",
             "also run the Info density rules (ir-dead-store, "
             "edvi-kill-redundant, edvi-kill-missed); never affects "
             "the exit status",
             cli::set(lint_opts.advisory)},
            fuzz::killFaultFlag(
                "corrupt kill #ORDINAL (mod kill count) in every "
                "E-DVI binary by asserting REG dead before linting",
                fault),
            {"--json", "", "print the finding report as JSON",
             cli::set(json)},
            telemetry.fileFlag("stream `lint` NDJSON events to file F "
                               "('-' = stderr)"),
            {"--quiet", "", "suppress the findings table",
             cli::set(quiet)},
        }};
    cli.parse(argc, argv);

    if (list) {
        for (const std::string &name :
             driver::ScenarioRegistry::instance().names())
            std::printf("%s\n", name.c_str());
        return 0;
    }

    analysis::LintRun run(lint_opts);
    std::size_t faulted = 0;
    if (fault.enabled) {
        run.beforeLint = [&](comp::Executable &exe) {
            faulted += fuzz::applyKillFault(exe, fault);
        };
    }

    const bool explicit_source = !scenario_names.empty() ||
                                 !manifest_path.empty() ||
                                 !repro_path.empty() || fuzz_count;
    if (all || !explicit_source) {
        for (const std::string &name :
             driver::ScenarioRegistry::instance().names())
            lintRegistered(run, name);
    }
    for (const std::string &name : scenario_names)
        lintRegistered(run, name);

    if (!manifest_path.empty()) {
        sim::CampaignManifest manifest;
        const std::string err = sim::manifestFromJson(
            cli::readFile(manifest_path), manifest);
        fatal_if(!err.empty(), manifest_path, ": ", err);
        run.lintScenarios(manifest.scenarios);
    }

    if (!repro_path.empty()) {
        fuzz::Repro repro;
        const std::string err =
            fuzz::reproFromJson(cli::readFile(repro_path), repro);
        fatal_if(!err.empty(), repro_path, ": ", err);
        std::set<comp::EdviPolicy> policies = {
            comp::EdviPolicy::None, comp::EdviPolicy::CallSites};
        if (repro.oracle.runDense)
            policies.insert(comp::EdviPolicy::Dense);
        run.lintUnit("repro:" + repro.program.name, repro.program,
                     policies);
    }

    if (fuzz_count)
        lintFuzzCorpus(run, seed.value(), fuzz_count,
                       structured_fraction);

    if (fault.enabled && !faulted) {
        std::fprintf(stderr,
                     "dvi-lint: --inject-kill-bit matched no kill "
                     "instruction in any linted binary\n");
    }

    run.report().emitTelemetry(telemetry.open(), run.units());

    if (json) {
        std::printf("%s", run.report().toJson().dump(2).c_str());
        std::printf("\n");
    } else if (!quiet && !run.report().empty()) {
        run.report().toTable().print();
    }
    const analysis::FindingReport &report = run.report();
    std::fprintf(
        stderr,
        "dvi-lint: %zu module%s, %zu binar%s, %zu finding%s "
        "(%zu error%s, %zu warning%s, %zu info%s)%s\n",
        run.units(), run.units() == 1 ? "" : "s", run.binaries(),
        run.binaries() == 1 ? "y" : "ies", report.size(),
        report.size() == 1 ? "" : "s",
        report.count(analysis::Severity::Error),
        report.count(analysis::Severity::Error) == 1 ? "" : "s",
        report.count(analysis::Severity::Warn),
        report.count(analysis::Severity::Warn) == 1 ? "" : "s",
        report.count(analysis::Severity::Info),
        report.count(analysis::Severity::Info) == 1 ? "" : "s",
        fault.enabled ? " [fault injection ON]" : "");
    return report.failing() ? 1 : 0;
}
