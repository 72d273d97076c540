#include "analysis/lint.hh"

#include <map>

#include "analysis/ir_checks.hh"
#include "analysis/machine_checks.hh"
#include "workload/benchmarks.hh"

namespace dvi
{
namespace analysis
{

namespace
{

std::string
firstError(const FindingReport &report)
{
    for (const Finding &f : report.findings())
        if (f.severity == Severity::Error)
            return f.toString();
    return "";
}

} // namespace

FindingReport
lintModule(const prog::Module &mod, const LintOptions &opts)
{
    return checkModule(mod, opts.advisory);
}

FindingReport
lintExecutable(const comp::Executable &exe, const LintOptions &opts)
{
    return checkExecutable(exe, opts.advisory);
}

std::string
verifyKills(const comp::Executable &exe)
{
    return firstError(checkExecutable(exe, false));
}

std::string
firstModuleError(const prog::Module &mod)
{
    return firstError(checkModule(mod, false));
}

void
LintRun::lintUnit(const std::string &unit, const prog::Module &mod,
                  const std::set<comp::EdviPolicy> &policies)
{
    if (seenModules_.insert(unit).second) {
        ++units_;
        prog::Module named = mod;
        named.name = unit;
        report_.merge(lintModule(named, opts));
    }
    // Compiling structurally broken IR would panic; the module
    // findings already tell the story.
    if (!firstModuleError(mod).empty())
        return;
    for (comp::EdviPolicy policy : policies) {
        if (!seenBinaries_.insert({unit, policy}).second)
            continue;
        ++binaries_;
        comp::CompileOptions copts;
        copts.edvi = policy;
        comp::Executable exe = comp::compile(mod, copts);
        exe.name = unit + "/" + sim::edviPolicyName(policy);
        if (beforeLint)
            beforeLint(exe);
        report_.merge(lintExecutable(exe, opts));
    }
}

void
LintRun::lintScenarios(const std::vector<sim::Scenario> &scenarios)
{
    std::map<workload::BenchmarkId, std::set<comp::EdviPolicy>>
        variants;
    for (const sim::Scenario &s : scenarios)
        variants[s.workload].insert(s.binary.edvi);
    for (const auto &[id, policies] : variants) {
        lintUnit(workload::benchmarkName(id),
                 workload::generateBenchmark(id), policies);
    }
}

} // namespace analysis
} // namespace dvi
