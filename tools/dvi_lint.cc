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
 * Exit status: 0 when no Error/Warn findings (Info is advisory),
 * 1 otherwise.
 */

#include <cstdio>
#include <memory>
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
#include "obs/telemetry.hh"
#include "sim/manifest.hh"

using namespace dvi;

namespace
{

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "\n"
        "what to lint (default: --all):\n"
        "  --all             every registered scenario's binaries\n"
        "  --scenario NAME   one registered scenario\n"
        "  --manifest FILE   a campaign manifest's binaries\n"
        "  --repro FILE      a fuzz repro's program and binaries\n"
        "  --fuzz N          N generated fuzz programs (the corpus\n"
        "                    dvi-fuzz would generate from --seed)\n"
        "  --list            list registered scenario names\n"
        "\n"
        "options:\n"
        "  --seed S          fuzz corpus seed (default 1;\n"
        "                    DVI_TEST_SEED overrides when absent)\n"
        "  --structured-fraction F  share of paper-shaped programs\n"
        "                    in the fuzz corpus (default 0.25)\n"
        "  --advisory        also run the Info density rules\n"
        "                    (ir-dead-store, edvi-kill-redundant,\n"
        "                    edvi-kill-missed); never affects the\n"
        "                    exit status\n"
        "  --inject-kill-bit ORDINAL:REG  corrupt kill #ORDINAL (mod\n"
        "                    kill count) in every E-DVI binary by\n"
        "                    asserting REG dead before linting\n"
        "  --json            print the finding report as JSON\n"
        "  --telemetry F     stream `lint` NDJSON events to file F\n"
        "                    ('-' = stderr)\n"
        "  --quiet           suppress the findings table\n",
        argv0);
}

using cli::parseFraction;
using cli::parseUint;
using cli::readFile;

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
    std::uint64_t seed = 1;
    bool seed_given = false;
    double structured_fraction = 0.25;
    std::string telemetry_path;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            fatal_if(i + 1 >= argc, arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--scenario") {
            scenario_names.push_back(value());
        } else if (arg == "--all") {
            all = true;
        } else if (arg == "--manifest") {
            manifest_path = value();
        } else if (arg == "--repro") {
            repro_path = value();
        } else if (arg == "--fuzz") {
            fuzz_count = parseUint("--fuzz", value());
        } else if (arg == "--seed") {
            seed = parseUint("--seed", value());
            seed_given = true;
        } else if (arg == "--structured-fraction") {
            structured_fraction =
                parseFraction("--structured-fraction", value());
        } else if (arg == "--advisory") {
            lint_opts.advisory = true;
        } else if (arg == "--inject-kill-bit") {
            const std::string kv = value();
            const std::size_t colon = kv.find(':');
            fatal_if(colon == std::string::npos || colon == 0 ||
                         colon + 1 >= kv.size(),
                     "--inject-kill-bit wants ORDINAL:REG, got '",
                     kv, "'");
            fault.enabled = true;
            fault.killOrdinal = parseUint<unsigned>(
                "--inject-kill-bit", kv.substr(0, colon).c_str());
            const std::uint64_t reg = parseUint(
                "--inject-kill-bit", kv.substr(colon + 1).c_str());
            fatal_if(reg == 0 || reg >= 32,
                     "--inject-kill-bit register must be 1..31");
            fault.reg = static_cast<RegIndex>(reg);
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--telemetry") {
            telemetry_path = value();
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            fatal("unknown argument '", arg, "'");
        }
    }

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
            readFile(manifest_path), manifest);
        fatal_if(!err.empty(), manifest_path, ": ", err);
        run.lintScenarios(manifest.scenarios);
    }

    if (!repro_path.empty()) {
        fuzz::Repro repro;
        const std::string err =
            fuzz::reproFromJson(readFile(repro_path), repro);
        fatal_if(!err.empty(), repro_path, ": ", err);
        std::set<comp::EdviPolicy> policies = {
            comp::EdviPolicy::None, comp::EdviPolicy::CallSites};
        if (repro.oracle.runDense)
            policies.insert(comp::EdviPolicy::Dense);
        run.lintUnit("repro:" + repro.program.name, repro.program,
                     policies);
    }

    if (fuzz_count) {
        if (!seed_given)
            seed = testSeedQuiet(seed);
        lintFuzzCorpus(run, seed, fuzz_count, structured_fraction);
    }

    if (fault.enabled && !faulted) {
        std::fprintf(stderr,
                     "dvi-lint: --inject-kill-bit matched no kill "
                     "instruction in any linted binary\n");
    }

    std::unique_ptr<obs::TelemetrySink> sink;
    if (!telemetry_path.empty()) {
        sink = obs::TelemetrySink::open(telemetry_path);
        run.report().emitTelemetry(sink.get(), run.units());
    }

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
