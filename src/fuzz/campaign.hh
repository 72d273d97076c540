/**
 * @file
 * Fuzz campaign driver: the loop behind `dvi-fuzz`.
 *
 * Generates a seeded stream of programs — a mix of unstructured
 * adversarial programs (fuzz/program_gen.hh) and randomized
 * paper-shaped programs (workload::randomParams) — and proves the
 * differential oracle on each. A failing program is shrunk by the
 * minimizer (under a predicate that keeps the failure class real)
 * and written as a self-contained repro manifest (fuzz/repro.hh).
 * Deterministic: the same seed replays the same campaign.
 */

#ifndef DVI_FUZZ_CAMPAIGN_HH
#define DVI_FUZZ_CAMPAIGN_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "fuzz/oracle.hh"
#include "obs/metrics.hh"
#include "obs/telemetry.hh"

namespace dvi
{
namespace fuzz
{

/** Campaign configuration. */
struct FuzzConfig
{
    std::uint64_t seed = 1;
    unsigned programs = 100;
    OracleOptions oracle;

    /** Fraction of programs drawn from the structured workload
     * generator instead of the unstructured one. */
    double structuredFraction = 0.25;

    bool minimizeFailures = true;
    unsigned minimizeProbes = 1500;
    /** Stop after this many failing programs. */
    unsigned maxFailures = 5;
    /** Repro files are written as <prefix>-<seed>-<index>.json. */
    std::string reproPrefix = "fuzz-repro";

    /**
     * Out-of-band telemetry stream: fuzz-begin, one fuzz-verdict
     * per program (`job` = program index), minimize phase spans,
     * periodic progress, fuzz-end. Strictly observational — the
     * FuzzResult and repro files are identical with or without a
     * sink. nullptr = off.
     */
    obs::TelemetrySink *telemetry = nullptr;

    /** Operational metrics updated as programs complete
     * (fuzz.programs, fuzz.failures, fuzz.progInsts). nullptr =
     * off. */
    obs::MetricRegistry *metrics = nullptr;
};

/** Campaign outcome. */
struct FuzzResult
{
    unsigned programsRun = 0;
    unsigned failures = 0;
    unsigned halted = 0;  ///< programs that completed in budget
    std::uint64_t totalProgInsts = 0;
    std::uint64_t totalStaticKills = 0;
    std::uint64_t totalSavesEliminated = 0;
    std::uint64_t totalRestoresEliminated = 0;
    std::vector<std::string> reproPaths;
    std::string firstFailure;
};

/**
 * Program `index` of the corpus `cfg` describes: a seeded draw (from
 * cfg.seed and the index) picks the structured workload generator
 * with probability cfg.structuredFraction, else the unstructured one.
 * runFuzzCampaign runs programs 0..programs-1, and `dvi-lint --fuzz`
 * lints the same ones. `structured`, when given, reports the pick.
 */
prog::Module generateOne(const FuzzConfig &cfg, std::uint64_t index,
                         bool *structured = nullptr);

/**
 * Classify an oracle failure string: degenerate classes (invalid
 * module, ill-formed program, inapplicable fault) mean the
 * *candidate* is broken, not the DVI contract. Empty = no failure.
 */
bool isRealFailureText(const std::string &failure);

/**
 * The minimizer predicate the campaign uses: the oracle must fail on
 * the candidate with a *real* failure — degenerate classes do not
 * count, so shrinking cannot wander into a different bug.
 */
bool realOracleFailure(const prog::Module &mod,
                       const OracleOptions &opts);

/** Run a campaign; progress and failures go to `log` (may be
 * nullptr for silence). */
FuzzResult runFuzzCampaign(const FuzzConfig &cfg, std::FILE *log);

} // namespace fuzz
} // namespace dvi

#endif // DVI_FUZZ_CAMPAIGN_HH
