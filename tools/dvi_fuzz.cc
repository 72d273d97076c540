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
 *
 * Usage:
 *   dvi-fuzz [--seed N] [--programs K] [--max-insts M]
 *            [--stack-depth D] [--structured-fraction F]
 *            [--no-core] [--no-dense] [--no-static] [--no-minimize]
 *            [--repro-prefix PATH]
 *            [--inject-kill-bit ORDINAL:REG]
 *            [--telemetry FILE|-] [--metrics-interval N]
 *            [--progress]
 *   dvi-fuzz --replay FILE [--emit FILE]
 *
 * Exit status: 0 when every program passes (or a replayed repro
 * still fails exactly as recorded), 1 on failures.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "base/cli.hh"
#include "base/logging.hh"
#include "base/test_seed.hh"
#include "fuzz/campaign.hh"
#include "fuzz/repro.hh"
#include "obs/metrics.hh"
#include "obs/progress.hh"

using namespace dvi;

namespace
{

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "       %s --replay FILE [--emit FILE]\n"
        "\n"
        "campaign options:\n"
        "  --seed N        campaign seed (default 1; DVI_TEST_SEED\n"
        "                  overrides when --seed is absent)\n"
        "  --programs K    programs to generate (default 200)\n"
        "  --max-insts M   per-program differential budget\n"
        "                  (default 200000)\n"
        "  --stack-depth D LVM-Stack depth for oracle and core\n"
        "                  (default 16)\n"
        "  --structured-fraction F  share of paper-shaped programs\n"
        "                  in the mix (default 0.25)\n"
        "  --no-core       skip the uarch::Core commit-stream layer\n"
        "  --no-dense      skip the Dense-policy lockstep layer\n"
        "  --no-static     skip the static kill-mask verifier\n"
        "  --no-minimize   write failing programs unminimized\n"
        "  --repro-prefix PATH  repro file prefix\n"
        "                  (default fuzz-repro)\n"
        "  --inject-kill-bit ORDINAL:REG  corrupt kill #ORDINAL\n"
        "                  (mod kill count) by asserting REG dead —\n"
        "                  fault injection to prove detection\n"
        "  --telemetry F   stream NDJSON telemetry events to file F\n"
        "                  ('-' = stderr)\n"
        "  --metrics-interval N  flush a `metrics` event every N ms\n"
        "                  (requires --telemetry)\n"
        "  --progress      live progress line on stderr, rendered\n"
        "                  from the telemetry event stream\n"
        "\n"
        "replay options:\n"
        "  --replay FILE   load a repro manifest, re-run its oracle,\n"
        "                  verify the recorded failure reproduces\n"
        "  --emit FILE     re-emit the loaded repro (byte-identical\n"
        "                  to its input by construction)\n",
        argv0, argv0);
}

using cli::parseFraction;
using cli::parseUint;
using cli::readFile;

int
doReplay(const std::string &path, const std::string &emit_path)
{
    fuzz::Repro repro;
    const std::string err = fuzz::reproFromJson(readFile(path),
                                                repro);
    fatal_if(!err.empty(), path, ": ", err);

    if (!emit_path.empty()) {
        std::ofstream out(emit_path, std::ios::binary);
        fatal_if(!out, "cannot open '", emit_path,
                 "' for writing");
        out << fuzz::reproToJson(repro);
        out.flush();
        fatal_if(!out, "write to '", emit_path, "' failed");
    }

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
    bool seed_given = false;
    std::string telemetry_path;
    unsigned metrics_interval = 0;
    bool progress = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            fatal_if(i + 1 >= argc, arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--seed") {
            cfg.seed = parseUint("--seed", value());
            seed_given = true;
        } else if (arg == "--programs") {
            cfg.programs = parseUint<unsigned>("--programs", value());
        } else if (arg == "--max-insts") {
            cfg.oracle.maxProgInsts =
                parseUint("--max-insts", value());
        } else if (arg == "--stack-depth") {
            cfg.oracle.lvmStackDepth =
                parseUint<unsigned>("--stack-depth", value());
        } else if (arg == "--structured-fraction") {
            cfg.structuredFraction =
                parseFraction("--structured-fraction", value());
        } else if (arg == "--no-core") {
            cfg.oracle.runCore = false;
        } else if (arg == "--no-dense") {
            cfg.oracle.runDense = false;
        } else if (arg == "--no-static") {
            cfg.oracle.staticCheck = false;
        } else if (arg == "--no-minimize") {
            cfg.minimizeFailures = false;
        } else if (arg == "--repro-prefix") {
            cfg.reproPrefix = value();
        } else if (arg == "--inject-kill-bit") {
            const std::string kv = value();
            const std::size_t colon = kv.find(':');
            fatal_if(colon == std::string::npos || colon == 0 ||
                         colon + 1 >= kv.size(),
                     "--inject-kill-bit wants ORDINAL:REG, got '",
                     kv, "'");
            cfg.oracle.fault.enabled = true;
            cfg.oracle.fault.killOrdinal = parseUint<unsigned>(
                "--inject-kill-bit", kv.substr(0, colon).c_str());
            const std::uint64_t reg = parseUint(
                "--inject-kill-bit", kv.substr(colon + 1).c_str());
            fatal_if(reg == 0 || reg >= 32,
                     "--inject-kill-bit register must be 1..31");
            cfg.oracle.fault.reg = static_cast<RegIndex>(reg);
        } else if (arg == "--telemetry") {
            telemetry_path = value();
        } else if (arg == "--metrics-interval") {
            metrics_interval =
                parseUint<unsigned>("--metrics-interval", value());
        } else if (arg == "--progress") {
            progress = true;
        } else if (arg == "--replay") {
            replay_path = value();
        } else if (arg == "--emit") {
            emit_path = value();
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            fatal("unknown argument '", arg, "'");
        }
    }

    if (!replay_path.empty())
        return doReplay(replay_path, emit_path);
    fatal_if(!emit_path.empty(),
             "--emit only combines with --replay");

    if (!seed_given)
        cfg.seed = testSeedQuiet(cfg.seed);
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
        cfg.telemetry = sink.get();
        cfg.metrics = &metrics;
        obs::setGlobalSink(sink.get());
        if (metrics_interval)
            flusher = std::make_unique<obs::MetricFlusher>(
                metrics, *sink, metrics_interval);
    }

    const fuzz::FuzzResult result =
        fuzz::runFuzzCampaign(cfg, stderr);
    flusher.reset();
    if (sink) {
        metrics.flush(*sink);
        obs::setGlobalSink(nullptr);
    }
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
