/**
 * @file
 * Facade over the static verification pipeline.
 *
 * Everything that wants a verdict goes through here: the dvi-lint CLI
 * and the `--lint` pre-launch gate in dvi-run (both through LintRun),
 * and the fuzz oracle's static layer (verifyKills / firstModuleError,
 * which compress a report into the one-line failure text the
 * minimizer classifies on).
 */

#ifndef DVI_ANALYSIS_LINT_HH
#define DVI_ANALYSIS_LINT_HH

#include <cstddef>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/findings.hh"
#include "compiler/compile.hh"
#include "compiler/executable.hh"
#include "program/ir.hh"
#include "sim/scenario.hh"

namespace dvi
{
namespace analysis
{

/** Knobs shared by every lint entry point. */
struct LintOptions
{
    /** Also run the advisory (Info) density rules: ir-dead-store,
     * edvi-kill-redundant, edvi-kill-missed. */
    bool advisory = false;
};

/** Lint a module's IR (rule prefix "ir-"). */
FindingReport lintModule(const prog::Module &mod,
                         const LintOptions &opts = {});

/** Lint a linked executable (rule prefixes "mc-" / "edvi-"). */
FindingReport lintExecutable(const comp::Executable &exe,
                             const LintOptions &opts = {});

/**
 * The fuzz oracle's static layer: prove every E-DVI kill mask sound
 * (plus machine CFG integrity). Returns the first Error finding's
 * one-line rendering, or the empty string when the binary is clean.
 * Warn/Info findings never fail the oracle — they are not
 * invariance bugs.
 */
std::string verifyKills(const comp::Executable &exe);

/**
 * The fuzz oracle's module gate: reject IR the compiler cannot
 * meaningfully lower (structural damage, reads of never-defined
 * vregs). Returns the first Error finding's one-line rendering, or
 * the empty string.
 */
std::string firstModuleError(const prog::Module &mod);

/**
 * One lint pass over many units, the path dvi-lint and dvi-run
 * --lint share. Each module is linted once; unless its IR has an
 * Error finding (compiling it would panic), so is one compiled binary
 * per distinct E-DVI policy, each (unit, policy) once.
 */
class LintRun
{
  public:
    explicit LintRun(const LintOptions &opts = {}) : opts(opts) {}

    /** Applied to each compiled binary before it is linted (dvi-lint
     * injects kill faults here); empty = none. */
    std::function<void(comp::Executable &)> beforeLint;

    /** Lint `mod` as `unit`, plus its binary under each policy. */
    void lintUnit(const std::string &unit, const prog::Module &mod,
                  const std::set<comp::EdviPolicy> &policies);

    /** Lint every benchmark `scenarios` reference, under each E-DVI
     * policy they compile it with. */
    void lintScenarios(const std::vector<sim::Scenario> &scenarios);

    const FindingReport &report() const { return report_; }
    /** Modules linted. */
    std::size_t units() const { return units_; }
    /** Binaries linted. */
    std::size_t binaries() const { return binaries_; }

  private:
    const LintOptions opts;
    FindingReport report_;
    std::size_t units_ = 0;
    std::size_t binaries_ = 0;
    /** Units and (unit, policy) binaries already linted: scenarios
     * share benchmarks. */
    std::set<std::string> seenModules_;
    std::set<std::pair<std::string, comp::EdviPolicy>> seenBinaries_;
};

} // namespace analysis
} // namespace dvi

#endif // DVI_ANALYSIS_LINT_HH
