/**
 * @file
 * dvi-fuzz — differential-validation fuzzer CLI.
 *
 * Proves the DVI invariance claim (§7: killing dead values is
 * invisible to architectural state) on streams of generated
 * adversarial programs, via the layered oracle in src/fuzz/. Every
 * run logs its seed and honors DVI_TEST_SEED, so any failure is
 * replayable; failures are minimized and written as self-contained
 * JSON repro manifests that `--replay` re-runs byte-identically.
 * Each flag is one row of the cli::Parser table in main(), which
 * also prints `dvi-fuzz --help`.
 *
 * Exit status: 0 when every program passes (or a replayed repro
 * still fails exactly as recorded), 1 on failures.
 */

#include <cstdio>
#include <string>

#include "base/cli.hh"
#include "base/logging.hh"
#include "base/test_seed.hh"
#include "fuzz/campaign.hh"
#include "fuzz/oracle.hh"
#include "fuzz/repro.hh"
#include "obs/cli_telemetry.hh"

using namespace dvi;

namespace
{

int
doReplay(const std::string &path, const std::string &emit_path)
{
    fuzz::Repro repro;
    const std::string err = fuzz::reproFromJson(cli::readFile(path),
                                                repro);
    fatal_if(!err.empty(), path, ": ", err);

    if (!emit_path.empty())
        cli::writeFile(emit_path, fuzz::reproToJson(repro));

    const fuzz::OracleReport rep = fuzz::replay(repro);
    if (rep.ok) {
        std::fprintf(stderr,
                     "dvi-fuzz: repro %s did NOT reproduce "
                     "(recorded failure: %s)\n",
                     path.c_str(), repro.failure.c_str());
        return 1;
    }
    const bool same = rep.failure == repro.failure;
    std::fprintf(stderr,
                 "dvi-fuzz: repro %s reproduces%s: %s\n",
                 path.c_str(),
                 same ? " exactly" : " (different message)",
                 rep.failure.c_str());
    if (!same) {
        std::fprintf(stderr, "dvi-fuzz: recorded failure was: %s\n",
                     repro.failure.c_str());
    }
    return same ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    fuzz::FuzzConfig cfg;
    cfg.programs = 200;
    std::string replay_path;
    std::string emit_path;
    SeedOption seed(cfg.seed);
    obs::CliTelemetry telemetry;

    const cli::Parser cli{
        {"[options]", "--replay FILE [--emit FILE]"},
        {
            cli::heading("campaign options:"),
            seed.flag("N", "campaign seed (default 1; DVI_TEST_SEED "
                           "overrides when --seed is absent)"),
            {"--programs", "K", "programs to generate (default 200)",
             cli::store(cfg.programs)},
            {"--max-insts", "M",
             "per-program differential budget (default 200000)",
             cli::store(cfg.oracle.maxProgInsts)},
            {"--stack-depth", "D",
             "LVM-Stack depth for oracle and core (default 16)",
             cli::store(cfg.oracle.lvmStackDepth)},
            {"--structured-fraction", "F",
             "share of paper-shaped programs in the mix (default "
             "0.25)",
             cli::store(cfg.structuredFraction)},
            {"--no-core", "", "skip the uarch::Core commit-stream layer",
             cli::set(cfg.oracle.runCore, false)},
            {"--no-dense", "", "skip the Dense-policy lockstep layer",
             cli::set(cfg.oracle.runDense, false)},
            {"--no-static", "", "skip the static kill-mask verifier",
             cli::set(cfg.oracle.staticCheck, false)},
            {"--no-minimize", "", "write failing programs unminimized",
             cli::set(cfg.minimizeFailures, false)},
            {"--repro-prefix", "PATH",
             "repro file prefix (default fuzz-repro)",
             cli::store(cfg.reproPrefix)},
            fuzz::killFaultFlag(
                "corrupt kill #ORDINAL (mod kill count) by asserting "
                "REG dead — fault injection to prove detection",
                cfg.oracle.fault),
            telemetry.fileFlag("stream NDJSON telemetry events to "
                               "file F ('-' = stderr)"),
            telemetry.intervalFlag(),
            telemetry.progressFlag(),
            cli::heading("replay options:"),
            {"--replay", "FILE",
             "load a repro manifest, re-run its oracle, verify the "
             "recorded failure reproduces",
             cli::store(replay_path)},
            {"--emit", "FILE",
             "re-emit the loaded repro (byte-identical to its input "
             "by construction)",
             cli::store(emit_path)},
        }};
    cli.parse(argc, argv);

    if (!replay_path.empty())
        return doReplay(replay_path, emit_path);
    fatal_if(!emit_path.empty(),
             "--emit only combines with --replay");

    cfg.seed = seed.value();
    std::fprintf(stderr,
                 "dvi-fuzz: seed %llu, %u programs, budget %llu "
                 "insts, stack depth %u%s (override seed with "
                 "--seed or DVI_TEST_SEED)\n",
                 static_cast<unsigned long long>(cfg.seed),
                 cfg.programs,
                 static_cast<unsigned long long>(
                     cfg.oracle.maxProgInsts),
                 cfg.oracle.lvmStackDepth,
                 cfg.oracle.fault.enabled ? ", fault injection ON"
                                          : "");

    cfg.telemetry = telemetry.open();
    telemetry.installGlobal();
    cfg.metrics = telemetry.startMetrics();

    const fuzz::FuzzResult result =
        fuzz::runFuzzCampaign(cfg, stderr);
    telemetry.close();
    std::fprintf(
        stderr,
        "dvi-fuzz: %u programs (%u completed in budget), %llu "
        "program insts diffed, %llu static kills, %llu saves + "
        "%llu restores eliminable, %u failure%s\n",
        result.programsRun, result.halted,
        static_cast<unsigned long long>(result.totalProgInsts),
        static_cast<unsigned long long>(result.totalStaticKills),
        static_cast<unsigned long long>(
            result.totalSavesEliminated),
        static_cast<unsigned long long>(
            result.totalRestoresEliminated),
        result.failures, result.failures == 1 ? "" : "s");
    return result.failures ? 1 : 0;
}
