#include "fuzz/campaign.hh"

#include <fstream>

#include "base/logging.hh"
#include "base/rng.hh"
#include "base/test_seed.hh"
#include "fuzz/minimizer.hh"
#include "fuzz/program_gen.hh"
#include "fuzz/repro.hh"
#include "obs/trace.hh"
#include "workload/generator.hh"

namespace dvi
{
namespace fuzz
{

prog::Module
generateOne(const FuzzConfig &cfg, std::uint64_t index,
            bool *structured)
{
    Rng rng(mixSeed(cfg.seed, index));
    const bool paper_shaped = rng.chance(cfg.structuredFraction);
    if (structured)
        *structured = paper_shaped;
    if (paper_shaped)
        return workload::generate(workload::randomParams(rng));
    return generateProgram(randomProgramParams(rng));
}

bool
isRealFailureText(const std::string &failure)
{
    if (failure.empty())
        return false;
    // Degenerate classes: the candidate itself is broken (or the
    // fault no longer applies), not the simulator/E-DVI contract.
    if (failure.rfind("invalid module", 0) == 0)
        return false;
    if (failure.find("ill-formed program") != std::string::npos)
        return false;
    if (failure.rfind("fault injection not applicable", 0) == 0)
        return false;
    return true;
}

bool
realOracleFailure(const prog::Module &mod,
                  const OracleOptions &opts)
{
    return isRealFailureText(runOracle(mod, opts).failure);
}

FuzzResult
runFuzzCampaign(const FuzzConfig &cfg, std::FILE *log)
{
    FuzzResult result;
    obs::TelemetrySink *sink = cfg.telemetry;
    obs::MetricRegistry *metrics = cfg.metrics;
    obs::MetricId mPrograms = 0, mFailures = 0, mInsts = 0;
    if (metrics) {
        mPrograms = metrics->counter("fuzz.programs");
        mFailures = metrics->counter("fuzz.failures");
        mInsts = metrics->counter("fuzz.progInsts");
    }
    const double fuzzT0 = sink ? sink->elapsedSeconds() : 0.0;
    if (sink) {
        json::Value p = json::Value::object();
        p.set("seed", cfg.seed);
        p.set("programs",
              static_cast<std::uint64_t>(cfg.programs));
        p.set("structuredFraction", cfg.structuredFraction);
        p.set("maxFailures",
              static_cast<std::uint64_t>(cfg.maxFailures));
        sink->event("fuzz-begin", std::move(p));
    }
    for (unsigned i = 0; i < cfg.programs; ++i) {
        if (result.failures >= cfg.maxFailures)
            break;
        const obs::JobScope scope(i);
        bool structured = false;
        const prog::Module mod = generateOne(cfg, i, &structured);
        const OracleReport rep = runOracle(mod, cfg.oracle);
        ++result.programsRun;
        if (metrics) {
            metrics->add(mPrograms);
            metrics->add(mInsts, rep.progInsts);
            if (!rep.ok && isRealFailureText(rep.failure))
                metrics->add(mFailures);
        }
        if (sink) {
            json::Value p = json::Value::object();
            p.set("structured", structured);
            p.set("ok", rep.ok);
            p.set("insts", rep.progInsts);
            p.set("halted", rep.halted);
            if (!rep.ok)
                p.set("failure", rep.failure);
            sink->event("fuzz-verdict", i, std::move(p));
            if ((i + 1) % 100 == 0) {
                const double elapsed =
                    sink->elapsedSeconds() - fuzzT0;
                json::Value prog = json::Value::object();
                prog.set("done", static_cast<std::uint64_t>(i + 1));
                prog.set("total",
                         static_cast<std::uint64_t>(cfg.programs));
                prog.set("failures",
                         static_cast<std::uint64_t>(
                             result.failures));
                prog.set("programsPerSec",
                         elapsed > 0.0 ? (i + 1) / elapsed : 0.0);
                sink->event("progress", std::move(prog));
            }
        }
        result.totalProgInsts += rep.progInsts;
        result.totalStaticKills += rep.staticKills;
        result.totalSavesEliminated += rep.savesEliminated;
        result.totalRestoresEliminated += rep.restoresEliminated;
        if (rep.halted)
            ++result.halted;

        // Under fault injection, a program whose binary happens to
        // have no corruptible kill is neither a pass nor a failure.
        if (!rep.ok &&
            rep.failure.rfind("fault injection not applicable", 0) ==
                0) {
            if (log)
                std::fprintf(log,
                             "dvi-fuzz: program %u skipped (%s)\n",
                             i, rep.failure.c_str());
            continue;
        }

        if (rep.ok) {
            if (log && (i + 1) % 100 == 0) {
                std::fprintf(
                    log,
                    "dvi-fuzz: %u/%u programs ok (%llu insts "
                    "diffed, %u completed)\n",
                    i + 1, cfg.programs,
                    static_cast<unsigned long long>(
                        result.totalProgInsts),
                    result.halted);
            }
            continue;
        }

        ++result.failures;
        if (result.firstFailure.empty())
            result.firstFailure = rep.failure;
        if (log) {
            std::fprintf(log,
                         "dvi-fuzz: program %u (%s) FAILED: %s\n",
                         i, structured ? "structured" : "fuzz",
                         rep.failure.c_str());
        }

        Repro repro;
        repro.program = mod;
        repro.oracle = cfg.oracle;
        repro.seed = cfg.seed;
        repro.programIndex = i;
        repro.failure = rep.failure;

        // Classify from the failure text already in hand — no
        // redundant oracle re-run of the full-size program.
        if (cfg.minimizeFailures &&
            isRealFailureText(rep.failure)) {
            obs::PhaseSpan span(sink, "minimize", i);
            MinimizeStats ms;
            repro.program = minimize(
                mod,
                [&cfg](const prog::Module &m) {
                    return realOracleFailure(m, cfg.oracle);
                },
                cfg.minimizeProbes, &ms);
            span.annotate("instsBefore",
                          static_cast<std::uint64_t>(
                              ms.instsBefore));
            span.annotate("instsAfter",
                          static_cast<std::uint64_t>(
                              ms.instsAfter));
            span.annotate("probes",
                          static_cast<std::uint64_t>(ms.probes));
            // Re-run the oracle on the minimized program so the
            // recorded failure text matches what a replay sees.
            repro.failure =
                runOracle(repro.program, cfg.oracle).failure;
            if (log) {
                std::fprintf(
                    log,
                    "dvi-fuzz: minimized %zu -> %zu instructions "
                    "(%zu -> %zu procs, %u probes)\n",
                    ms.instsBefore, ms.instsAfter, ms.procsBefore,
                    ms.procsAfter, ms.probes);
            }
        }

        const std::string path = cfg.reproPrefix + "-" +
                                 std::to_string(cfg.seed) + "-" +
                                 std::to_string(i) + ".json";
        std::ofstream out(path, std::ios::binary);
        if (out) {
            out << reproToJson(repro);
            out.flush();
        }
        if (!out) {
            warn("dvi-fuzz: could not write repro to ", path);
        } else {
            result.reproPaths.push_back(path);
            if (log)
                std::fprintf(log, "dvi-fuzz: repro written to %s\n",
                             path.c_str());
        }
    }
    if (sink) {
        const double elapsed = sink->elapsedSeconds() - fuzzT0;
        json::Value p = json::Value::object();
        p.set("programsRun",
              static_cast<std::uint64_t>(result.programsRun));
        p.set("failures",
              static_cast<std::uint64_t>(result.failures));
        p.set("halted",
              static_cast<std::uint64_t>(result.halted));
        p.set("totalProgInsts", result.totalProgInsts);
        p.set("wallSeconds", elapsed);
        p.set("programsPerSec",
              elapsed > 0.0 ? result.programsRun / elapsed : 0.0);
        sink->event("fuzz-end", std::move(p));
    }
    return result;
}

} // namespace fuzz
} // namespace dvi
