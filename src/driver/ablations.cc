#include "driver/ablations.hh"

#include <ostream>

#include "driver/figures.hh"
#include "driver/scenario_registry.hh"
#include "stats/counter.hh"

namespace dvi
{
namespace driver
{

namespace
{

using sim::Scenario;
using sim::ScenarioGrid;

// ------------------------------------------------- E-DVI density

/**
 * Per benchmark, five jobs: two oracle runs measuring kill density
 * (call-site and dense binaries) and three timing runs measuring IPC
 * at a small (40-entry) register file with early reclamation, one
 * per E-DVI policy.
 */
Campaign
buildEdviDensity(std::uint64_t insts)
{
    const auto timingAt40 = [](Scenario &s, comp::EdviPolicy policy) {
        s.runner = "timing";
        s.binary.edvi = policy;
        s.hardware.dvi = uarch::DviConfig::full();
        s.hardware.dvi.useEdvi = policy != comp::EdviPolicy::None;
        s.hardware.core.numPhysRegs = 40;
    };
    const auto oracle = [](Scenario &s, comp::EdviPolicy policy) {
        s.runner = "oracle";
        s.binary.edvi = policy;
    };

    Scenario proto;
    proto.budget.maxInsts = insts;

    return Campaign(
        ScenarioGrid("ablation-edvi-density")
            .base(proto)
            .overWorkloads(workload::saveRestoreBenchmarks())
            .axis({
                {"oracle-callsites",
                 [oracle](Scenario &s) {
                     oracle(s, comp::EdviPolicy::CallSites);
                 }},
                {"oracle-dense",
                 [oracle](Scenario &s) {
                     oracle(s, comp::EdviPolicy::Dense);
                 }},
                {"ipc-none",
                 [timingAt40](Scenario &s) {
                     timingAt40(s, comp::EdviPolicy::None);
                 }},
                {"ipc-callsites",
                 [timingAt40](Scenario &s) {
                     timingAt40(s, comp::EdviPolicy::CallSites);
                 }},
                {"ipc-dense",
                 [timingAt40](Scenario &s) {
                     timingAt40(s, comp::EdviPolicy::Dense);
                 }},
            }));
}

void
renderEdviDensity(const CampaignReport &report, std::ostream &os)
{
    Table t("Ablation: E-DVI density (40-entry register file)");
    t.setHeader({"Benchmark", "kills/inst none", "call-site",
                 "dense", "IPC none", "IPC call-site", "IPC dense"});
    // 5 jobs per benchmark, in axis order.
    for (std::size_t i = 0; i + 4 < report.results.size(); i += 5) {
        const arch::EmulatorStats &calls =
            report.results[i].run.oracle;
        const arch::EmulatorStats &dense =
            report.results[i + 1].run.oracle;
        t.addRow({workload::benchmarkName(
                      report.results[i].spec.scenario.workload),
                  "0.000",
                  Table::fmt(ratio(calls.kills, calls.progInsts), 3),
                  Table::fmt(ratio(dense.kills, dense.progInsts), 3),
                  Table::fmt(report.results[i + 2].run.ipc, 3),
                  Table::fmt(report.results[i + 3].run.ipc, 3),
                  Table::fmt(report.results[i + 4].run.ipc, 3)});
    }
    // Historical bench output ended with Table::print()'s blank line.
    os << t.render() << "\n";
}

// ---------------------------------------------- LVM-Stack depth

const unsigned kStackDepths[] = {2, 4, 8, 16, 32};

/** Per benchmark: an unbounded oracle run, then one per depth. */
Campaign
buildLvmStackDepth(std::uint64_t insts)
{
    Scenario proto;
    proto.runner = "oracle";
    proto.budget.maxInsts = insts;
    proto.binary.edvi = comp::EdviPolicy::CallSites;

    std::vector<ScenarioGrid::Value> depths;
    depths.push_back({"unbounded", [](Scenario &s) {
                          s.emu.lvmStackDepth = 0;
                      }});
    for (unsigned d : kStackDepths)
        depths.push_back({"d" + std::to_string(d), [d](Scenario &s) {
                              s.emu.lvmStackDepth = d;
                          }});

    return Campaign(
        ScenarioGrid("ablation-lvm-stack-depth")
            .base(proto)
            .overWorkloads(workload::saveRestoreBenchmarks())
            .axis(std::move(depths)));
}

void
renderLvmStackDepth(const CampaignReport &report, std::ostream &os)
{
    Table t("Ablation: LVM-Stack depth (% of unbounded restore "
            "elimination)");
    t.setHeader({"Benchmark", "d=2", "d=4", "d=8", "d=16", "d=32",
                 "max call depth"});
    const std::size_t stride =
        1 + sizeof(kStackDepths) / sizeof(kStackDepths[0]);
    for (std::size_t i = 0; i + stride - 1 < report.results.size();
         i += stride) {
        const arch::EmulatorStats &unbounded =
            report.results[i].run.oracle;
        std::vector<std::string> row = {workload::benchmarkName(
            report.results[i].spec.scenario.workload)};
        for (std::size_t d = 1; d < stride; ++d) {
            const arch::EmulatorStats &s =
                report.results[i + d].run.oracle;
            const double pct =
                unbounded.restoreElimOracle == 0
                    ? 100.0
                    : 100.0 *
                          static_cast<double>(s.restoreElimOracle) /
                          static_cast<double>(
                              unbounded.restoreElimOracle);
            row.push_back(Table::fmt(pct, 1));
        }
        row.push_back(Table::fmt(unbounded.maxCallDepth));
        t.addRow(row);
    }
    // Historical bench output ended with Table::print()'s blank line.
    os << t.render() << "\n";
    os << "paper: 16 entries capture ~100% everywhere except li "
          "(94%)\n";
}

// ----------------------------------------------- dense regfile

/** Fig. 5's sweep with a dense-E-DVI column: none vs. call-site
 * full vs. dense (§4.2's "high density" speculation). */
std::vector<unsigned>
regfileDenseSizes()
{
    std::vector<unsigned> sizes;
    for (unsigned n = 34; n <= 98; n += 8)
        sizes.push_back(n);
    return sizes;
}

std::vector<sim::DviPreset>
regfileDensePresets()
{
    return {sim::presetNone(), sim::presetFull(), sim::presetDense()};
}

Campaign
buildRegfileDense(std::uint64_t insts)
{
    return Campaign(regfileGrid(regfileDenseSizes(),
                                regfileDensePresets(), insts,
                                "regfile-dense"));
}

void
renderRegfileDense(const CampaignReport &report, std::ostream &os)
{
    const RegfileSweep sweep = regfileSweepFromReport(
        report, regfileDenseSizes(), regfileDensePresets());

    Table t("Dense E-DVI: mean IPC vs. register file size");
    t.setHeader({"Registers", "No DVI", "E-DVI and I-DVI",
                 "Dense E-DVI"});
    for (std::size_t s = 0; s < sweep.sizes.size(); ++s) {
        std::vector<std::string> row = {
            Table::fmt(std::uint64_t(sweep.sizes[s]))};
        for (const std::vector<double> &ipc : sweep.meanIpc)
            row.push_back(Table::fmt(ipc[s], 3));
        t.addRow(row);
    }
    os << t.render();
    os << "(dense after-last-use kills vs. the paper's call-site "
          "E-DVI; see compiler/compile.hh)\n";
}

} // namespace

void
registerAblationScenarios(ScenarioRegistry &registry)
{
    RegisteredScenario s;

    s.name = "ablation-edvi-density";
    s.description = "E-DVI encoding density vs. kill rate and IPC "
                    "at a 40-entry register file";
    s.defaultInsts = 120000;
    s.build = buildEdviDensity;
    s.render = renderEdviDensity;
    registry.add(s);

    s.name = "ablation-lvm-stack-depth";
    s.description = "restore elimination vs. LVM-Stack depth, % of "
                    "unbounded";
    s.defaultInsts = 300000;
    s.build = buildLvmStackDepth;
    s.render = renderLvmStackDepth;
    registry.add(s);

    s.name = "regfile-dense";
    s.description = "regfile sweep with a dense-E-DVI column "
                    "(none / full / dense)";
    s.defaultInsts = 120000;
    s.build = buildRegfileDense;
    s.render = renderRegfileDense;
    registry.add(s);
}

} // namespace driver
} // namespace dvi
