#include "driver/figures.hh"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "base/logging.hh"
#include "driver/regfile_timing.hh"
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

/** The Fig. 5/6 register-file sizes: 34..98 step 4. */
std::vector<unsigned>
fig5Sizes()
{
    std::vector<unsigned> sizes;
    for (unsigned n = 34; n <= 98; n += 4)
        sizes.push_back(n);
    return sizes;
}


/** A timing-run prototype with the given budget. */
Scenario
timingBase(std::uint64_t insts)
{
    Scenario s;
    s.runner = "timing";
    s.budget.maxInsts = insts;
    return s;
}

// ------------------------------------------------------------ Fig. 2

Campaign
buildFig2(std::uint64_t insts)
{
    // One baseline timing job; the figure is the machine it ran on.
    Scenario proto = timingBase(insts);
    sim::applyPreset(proto, sim::presetNone());
    return Campaign(ScenarioGrid("fig02").base(proto));
}

void
renderFig2(const CampaignReport &report, std::ostream &os)
{
    const uarch::CoreConfig &c =
        report.results.front().spec.scenario.hardware.core;
    auto kb = [](std::size_t bytes) {
        return std::to_string(bytes / 1024) + "KB";
    };
    auto cache = [&kb](const mem::CacheParams &cc) {
        return kb(cc.sizeBytes) + ", " + std::to_string(cc.assoc) +
               "-way, " + std::to_string(cc.hitLatency) +
               " cycle latency";
    };

    Table t("Figure 2: Machine configuration");
    t.setHeader({"Parameter", "Value"});
    t.addRow({"Issue Width", std::to_string(c.issueWidth)});
    t.addRow({"Inst. Window", std::to_string(c.windowSize)});
    t.addRow({"Func. Units",
              std::to_string(c.intAlus) + " int (" +
                  std::to_string(c.intMulDivs) + " mul/div), " +
                  std::to_string(c.fpAlus) + " fp (" +
                  std::to_string(c.fpMulDivs) + " mul/div)"});
    t.addRow({"Cache Ports", std::to_string(c.cachePorts) +
                                 " (fully independent)"});
    t.addRow({"L1 D-Cache", cache(c.dl1)});
    t.addRow({"L1 I-Cache", cache(c.il1)});
    t.addRow({"L2 Cache", cache(c.l2)});
    t.addRow({"Branch Predictor",
              std::to_string(c.bp.historyBits) +
                  "-bit history, BTB, combinational gshare/bimod"});
    t.addRow({"Phys. Registers", std::to_string(c.numPhysRegs)});
    os << t.render();
}

// ------------------------------------------------------------ Fig. 3

Campaign
buildFig3(std::uint64_t insts)
{
    // The paper's baseline binaries: no E-DVI.
    Scenario proto;
    proto.runner = "oracle";
    proto.budget.maxInsts = insts;
    sim::applyPreset(proto, sim::presetNone());

    return Campaign(ScenarioGrid("fig03")
                        .base(proto)
                        .overWorkloads(workload::allBenchmarks()));
}

void
renderFig3(const CampaignReport &report, std::ostream &os)
{
    Table t("Figure 3: Benchmark characterization");
    t.setHeader({"Benchmark", "Dynamic Inst", "Call Inst %",
                 "Mem Inst %", "Saves & Restores %"});
    for (const JobResult &r : report.results) {
        const arch::EmulatorStats &s = r.run.oracle;
        t.addRow({workload::benchmarkName(r.spec.scenario.workload),
                  Table::fmt(s.progInsts),
                  Table::fmt(percent(s.calls, s.progInsts), 2),
                  Table::fmt(percent(s.memRefs, s.progInsts), 1),
                  Table::fmt(percent(s.saves + s.restores,
                                     s.progInsts),
                             1)});
    }
    os << t.render();
    os << "(runs capped at "
       << report.results.front().spec.scenario.budget.maxInsts
       << " instructions; --max-insts changes it)\n";
}

// ------------------------------------------------------------ Fig. 9

Campaign
buildFig9(std::uint64_t insts)
{
    Scenario proto;
    proto.runner = "oracle";
    proto.budget.maxInsts = insts;
    sim::applyPreset(proto, sim::presetFull());
    proto.emu.lvmStackDepth = 16;  // the hardware structure

    return Campaign(
        ScenarioGrid("fig09")
            .base(proto)
            .overWorkloads(workload::saveRestoreBenchmarks()));
}

void
renderFig9(const CampaignReport &report, std::ostream &os)
{
    Table t("Figure 9: Dynamic saves and restores eliminated");
    t.setHeader({"Benchmark", "LVM %s/r", "LVM-Stk %s/r", "LVM %mem",
                 "LVM-Stk %mem", "LVM %inst", "LVM-Stk %inst"});

    double sum_sr = 0, sum_mem = 0, sum_inst = 0;
    double sum_sr_lvm = 0, sum_mem_lvm = 0, sum_inst_lvm = 0;
    unsigned n = 0;
    for (const JobResult &r : report.results) {
        const arch::EmulatorStats &s = r.run.oracle;
        const std::uint64_t sr = s.saves + s.restores;
        const std::uint64_t lvm_elim = s.saveElimOracle;
        const std::uint64_t stack_elim =
            s.saveElimOracle + s.restoreElimOracle;

        t.addRow({workload::benchmarkName(r.spec.scenario.workload),
                  Table::fmt(percent(lvm_elim, sr), 1),
                  Table::fmt(percent(stack_elim, sr), 1),
                  Table::fmt(percent(lvm_elim, s.memRefs), 1),
                  Table::fmt(percent(stack_elim, s.memRefs), 1),
                  Table::fmt(percent(lvm_elim, s.progInsts), 1),
                  Table::fmt(percent(stack_elim, s.progInsts), 1)});

        sum_sr += percent(stack_elim, sr);
        sum_mem += percent(stack_elim, s.memRefs);
        sum_inst += percent(stack_elim, s.progInsts);
        sum_sr_lvm += percent(lvm_elim, sr);
        sum_mem_lvm += percent(lvm_elim, s.memRefs);
        sum_inst_lvm += percent(lvm_elim, s.progInsts);
        ++n;
    }
    t.addRow({"mean", Table::fmt(sum_sr_lvm / n, 1),
              Table::fmt(sum_sr / n, 1), Table::fmt(sum_mem_lvm / n, 1),
              Table::fmt(sum_mem / n, 1),
              Table::fmt(sum_inst_lvm / n, 1),
              Table::fmt(sum_inst / n, 1)});
    os << t.render();
    os << "paper means (LVM-Stack): 46.5% of saves/restores, 11.1% "
          "of memory refs, 4.8% of instructions\n";
}

// ------------------------------------------------------------ Fig. 10

Campaign
buildFig10(std::uint64_t insts)
{
    // Early reclamation off in both DVI variants so the comparison
    // isolates save/restore elimination.
    return Campaign(
        ScenarioGrid("fig10")
            .base(timingBase(insts))
            .overWorkloads(workload::saveRestoreBenchmarks())
            .axis({
                {"base",
                 [](Scenario &s) {
                     sim::applyPreset(s, sim::presetNone());
                 }},
                {"lvm",  // LVM scheme: squash saves only
                 [](Scenario &s) {
                     sim::applyPreset(s, sim::presetFull());
                     s.hardware.dvi = uarch::DviConfig::lvmScheme();
                     s.hardware.dvi.earlyReclaim = false;
                 }},
                {"lvm-stack",
                 [](Scenario &s) {
                     sim::applyPreset(s, sim::presetFull());
                     s.hardware.dvi.earlyReclaim = false;
                 }},
            }));
}

void
renderFig10(const CampaignReport &report, std::ostream &os)
{
    Table t("Figure 10: IPC speedups from save/restore elimination");
    t.setHeader({"Benchmark", "base IPC", "LVM (saves) %",
                 "LVM-Stack (saves+restores) %"});
    for (std::size_t i = 0; i + 2 < report.results.size(); i += 3) {
        const double base = report.results[i].run.ipc;
        const double lvm = report.results[i + 1].run.ipc;
        const double stack = report.results[i + 2].run.ipc;
        t.addRow({workload::benchmarkName(
                      report.results[i].spec.scenario.workload),
                  Table::fmt(base, 2),
                  Table::fmt(100.0 * (lvm / base - 1.0), 2),
                  Table::fmt(100.0 * (stack / base - 1.0), 2)});
    }
    os << t.render();
    os << "(run budget "
       << report.results.front().spec.scenario.budget.maxInsts
       << " instructions per configuration)\n";
}

// ------------------------------------------------------------ Fig. 11

Campaign
buildFig11(std::uint64_t insts)
{
    std::vector<ScenarioGrid::Value> widths;
    for (unsigned w : {4u, 8u})
        widths.push_back({"", [w](Scenario &s) {
                              s.hardware.core.setIssueWidth(w);
                          }});
    std::vector<ScenarioGrid::Value> ports;
    for (unsigned p : {1u, 2u, 3u})
        ports.push_back({"", [p](Scenario &s) {
                             s.hardware.core.cachePorts = p;
                         }});

    return Campaign(
        ScenarioGrid("fig11")
            .base(timingBase(insts))
            .overWorkloads({workload::BenchmarkId::Gcc,
                            workload::BenchmarkId::Ijpeg})
            .axis(std::move(widths))
            .axis(std::move(ports))
            .axis({
                {"base",
                 [](Scenario &s) {
                     sim::applyPreset(s, sim::presetNone());
                 }},
                {"dvi",
                 [](Scenario &s) {
                     sim::applyPreset(s, sim::presetFull());
                     s.hardware.dvi.earlyReclaim = false;
                 }},
            }));
}

void
renderFig11(const CampaignReport &report, std::ostream &os)
{
    Table t("Figure 11: Speedup (%) of save/restore elimination vs. "
            "cache ports and issue width");
    t.setHeader({"Benchmark", "width", "1 port", "2 ports",
                 "3 ports"});
    // Layout: bench-major, width, port, {base, dvi} -> 6 jobs per
    // (bench, width) row.
    for (std::size_t i = 0; i + 5 < report.results.size(); i += 6) {
        const sim::Scenario &first = report.results[i].spec.scenario;
        std::vector<std::string> row = {
            workload::benchmarkName(first.workload),
            std::to_string(first.hardware.core.issueWidth) + "-way"};
        for (unsigned p = 0; p < 3; ++p) {
            const double base = report.results[i + 2 * p].run.ipc;
            const double dvi = report.results[i + 2 * p + 1].run.ipc;
            row.push_back(Table::fmt(100.0 * (dvi / base - 1.0), 2));
        }
        t.addRow(row);
    }
    os << t.render();
}

// ------------------------------------------------------------ Fig. 12

Campaign
buildFig12(std::uint64_t insts)
{
    Scenario proto;
    proto.runner = "switch";
    proto.budget.maxInsts = insts;
    proto.budget.quantum = 20000;
    proto.emu.trackLiveness = true;

    return Campaign(
        ScenarioGrid("fig12")
            .base(proto)
            .overWorkloads(workload::allBenchmarks())
            .axis({
                {"idvi",  // I-DVI needs no binary support
                 [](Scenario &s) {
                     sim::applyPreset(s, sim::presetIdvi());
                     s.emu.honorIdvi = true;
                     s.emu.honorEdvi = false;
                 }},
                {"full",
                 [](Scenario &s) {
                     sim::applyPreset(s, sim::presetFull());
                     s.emu.honorIdvi = true;
                     s.emu.honorEdvi = true;
                 }},
            }));
}

void
renderFig12(const CampaignReport &report, std::ostream &os)
{
    Table t("Figure 12: Context-switch saves/restores eliminated");
    t.setHeader({"Benchmark", "I-DVI %", "E-DVI and I-DVI %",
                 "avg live int", "FP elim %"});
    double sum_idvi = 0, sum_full = 0;
    unsigned n = 0;
    for (std::size_t i = 0; i + 1 < report.results.size(); i += 2) {
        const os::SwitchStats &idvi = report.results[i].run.sw;
        const os::SwitchStats &full = report.results[i + 1].run.sw;
        t.addRow({workload::benchmarkName(
                      report.results[i].spec.scenario.workload),
                  Table::fmt(idvi.intReductionPercent(), 1),
                  Table::fmt(full.intReductionPercent(), 1),
                  Table::fmt(full.liveIntAtSwitch.mean(), 1),
                  Table::fmt(full.fpReductionPercent(), 1)});
        sum_idvi += idvi.intReductionPercent();
        sum_full += full.intReductionPercent();
        ++n;
    }
    t.addRow({"mean", Table::fmt(sum_idvi / n, 1),
              Table::fmt(sum_full / n, 1), "", ""});
    os << t.render();
    os << "paper means: 42% (I-DVI), 51% (E-DVI + I-DVI)\n";
}

// ------------------------------------------------------------ Fig. 13

Campaign
buildFig13(std::uint64_t insts)
{
    std::vector<ScenarioGrid::Value> configs;
    configs.push_back({"oracle", [](Scenario &s) {
                           s.runner = "oracle";
                           s.binary.edvi =
                               comp::EdviPolicy::CallSites;
                       }});
    for (unsigned kb : {32u, 64u}) {
        // Timing runs with all DVI optimizations off: annotations
        // are pure fetch/I-cache overhead.
        const auto timing = [kb](Scenario &s,
                                 comp::EdviPolicy policy) {
            s.runner = "timing";
            s.binary.edvi = policy;
            s.hardware.dvi = uarch::DviConfig::none();
            s.hardware.core.il1.sizeBytes = kb * 1024;
        };
        configs.push_back(
            {"plain-" + std::to_string(kb) + "k",
             [timing](Scenario &s) {
                 timing(s, comp::EdviPolicy::None);
             }});
        configs.push_back(
            {"edvi-" + std::to_string(kb) + "k",
             [timing](Scenario &s) {
                 timing(s, comp::EdviPolicy::CallSites);
             }});
    }

    return Campaign(ScenarioGrid("fig13")
                        .base(timingBase(insts))
                        .overWorkloads(workload::allBenchmarks())
                        .axis(std::move(configs)));
}

void
renderFig13(const CampaignReport &report, std::ostream &os)
{
    Table t("Figure 13: E-DVI overhead (positive = slower)");
    t.setHeader({"Benchmark", "dyn inst %", "code size %",
                 "IPC ovh % (32K I$)", "IPC ovh % (64K I$)"});
    // 5 jobs per benchmark: oracle, plain-32k, edvi-32k, plain-64k,
    // edvi-64k. The oracle ran the annotated binary; the plain-32k
    // job supplies the unannotated code size.
    for (std::size_t i = 0; i + 4 < report.results.size(); i += 5) {
        const JobResult &oracle = report.results[i];
        const double dyn = percent(oracle.run.oracle.kills,
                                   oracle.run.oracle.progInsts);
        const double code =
            100.0 *
            (static_cast<double>(oracle.textBytes) /
                 static_cast<double>(report.results[i + 1].textBytes) -
             1.0);
        const double ipc32_plain = report.results[i + 1].run.ipc;
        const double ipc32_edvi = report.results[i + 2].run.ipc;
        const double ipc64_plain = report.results[i + 3].run.ipc;
        const double ipc64_edvi = report.results[i + 4].run.ipc;
        t.addRow({workload::benchmarkName(
                      oracle.spec.scenario.workload),
                  Table::fmt(dyn, 2), Table::fmt(code, 2),
                  Table::fmt(
                      100.0 * (ipc32_plain / ipc32_edvi - 1.0), 2),
                  Table::fmt(
                      100.0 * (ipc64_plain / ipc64_edvi - 1.0), 2)});
    }
    os << t.render();
}

// ------------------------------------------------------------ Fig. 5/6

void
renderFig5(const CampaignReport &report, std::ostream &os)
{
    const std::vector<unsigned> sizes = fig5Sizes();
    const std::vector<sim::DviPreset> &presets = sim::paperPresets();
    const RegfileSweep sweep =
        regfileSweepFromReport(report, sizes, presets);

    Table t("Figure 5: Mean IPC vs. physical register file size");
    t.setHeader({"Registers", "No DVI", "I-DVI", "E-DVI and I-DVI"});
    for (std::size_t s = 0; s < sizes.size(); ++s)
        t.addRow({Table::fmt(std::uint64_t(sizes[s])),
                  Table::fmt(sweep.meanIpc[0][s], 3),
                  Table::fmt(sweep.meanIpc[1][s], 3),
                  Table::fmt(sweep.meanIpc[2][s], 3)});
    os << t.render();

    // Knee summary: smallest size reaching 90% of each curve's peak.
    for (std::size_t m = 0; m < presets.size(); ++m) {
        double peak = 0.0;
        for (double v : sweep.meanIpc[m])
            peak = std::max(peak, v);
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            if (sweep.meanIpc[m][s] >= 0.9 * peak) {
                char buf[128];
                std::snprintf(
                    buf, sizeof(buf),
                    "%-16s reaches 90%% of peak IPC (%.3f) at %u "
                    "registers\n",
                    presets[m].display.c_str(), peak,
                    sizes[s]);
                os << buf;
                break;
            }
        }
    }
    os << "(per-point budget "
       << report.results.front().spec.scenario.budget.maxInsts
       << " instructions per benchmark; --max-insts scales it)\n";
}

void
renderFig6(const CampaignReport &report, std::ostream &os)
{
    const std::vector<unsigned> sizes = fig5Sizes();
    const std::vector<sim::DviPreset> &presets = sim::paperPresets();
    const RegfileSweep sweep =
        regfileSweepFromReport(report, sizes, presets);

    const timing::RegFileTimingModel model;
    const unsigned issue_width = 4;

    // perf[m][s] = IPC / access time.
    std::vector<std::vector<double>> perf(
        presets.size(), std::vector<double>(sizes.size(), 0.0));
    for (std::size_t m = 0; m < presets.size(); ++m)
        for (std::size_t s = 0; s < sizes.size(); ++s)
            perf[m][s] = model.performance(sweep.meanIpc[m][s],
                                           sizes[s], issue_width);

    // Scale to the no-DVI peak (the paper's horizontal line).
    double base_peak = 0.0;
    unsigned base_peak_size = sizes[0];
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        if (perf[0][s] > base_peak) {
            base_peak = perf[0][s];
            base_peak_size = sizes[s];
        }
    }

    Table t("Figure 6: Performance (IPC / regfile cycle time), "
            "relative to no-DVI peak");
    t.setHeader({"Registers", "No DVI", "I-DVI", "E-DVI and I-DVI",
                 "access ns"});
    for (std::size_t s = 0; s < sizes.size(); ++s)
        t.addRow({Table::fmt(std::uint64_t(sizes[s])),
                  Table::fmt(perf[0][s] / base_peak, 4),
                  Table::fmt(perf[1][s] / base_peak, 4),
                  Table::fmt(perf[2][s] / base_peak, 4),
                  Table::fmt(model.accessTimeForIssueWidth(
                                 sizes[s], issue_width),
                             3)});
    os << t.render();

    double dvi_peak = 0.0;
    unsigned dvi_peak_size = sizes[0];
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        if (perf[2][s] > dvi_peak) {
            dvi_peak = perf[2][s];
            dvi_peak_size = sizes[s];
        }
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "no-DVI peak at %u registers; DVI peak at %u "
                  "registers (%.0f%% size reduction)\n",
                  base_peak_size, dvi_peak_size,
                  100.0 * (1.0 - static_cast<double>(dvi_peak_size) /
                                     static_cast<double>(
                                         base_peak_size)));
    os << buf;
    std::snprintf(buf, sizeof(buf),
                  "overall performance improvement at peak: %.2f%%\n",
                  100.0 * (dvi_peak / base_peak - 1.0));
    os << buf;
}

} // namespace

sim::ScenarioGrid
regfileGrid(const std::vector<unsigned> &sizes,
            const std::vector<sim::DviPreset> &presets,
            std::uint64_t max_insts, std::string name)
{
    return sim::ScenarioGrid(std::move(name))
        .base(timingBase(max_insts))
        .overPresets(presets)
        .overRegfileSizes(sizes)
        .overWorkloads(workload::allBenchmarks());
}

Campaign
regfileCampaign(const std::vector<unsigned> &sizes,
                const std::vector<sim::DviPreset> &presets,
                std::uint64_t max_insts, std::string name)
{
    Campaign c(std::move(name));
    for (const sim::DviPreset &preset : presets) {
        for (unsigned size : sizes) {
            for (auto id : workload::allBenchmarks()) {
                Scenario s = timingBase(max_insts);
                sim::applyPreset(s, preset);
                s.hardware.core.numPhysRegs = size;
                s.workload = id;
                c.add(std::move(s));
            }
        }
    }
    return c;
}

RegfileSweep
regfileSweepFromReport(const CampaignReport &report,
                       const std::vector<unsigned> &sizes,
                       const std::vector<sim::DviPreset> &presets)
{
    const std::size_t nbench = workload::allBenchmarks().size();
    panic_if(report.results.size() !=
                 presets.size() * sizes.size() * nbench,
             "regfile report does not match the grid");

    RegfileSweep sweep;
    sweep.sizes = sizes;
    sweep.presets = presets;
    sweep.meanIpc.assign(presets.size(),
                         std::vector<double>(sizes.size(), 0.0));
    std::size_t i = 0;
    for (std::size_t m = 0; m < presets.size(); ++m) {
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            double sum = 0.0;
            for (std::size_t b = 0; b < nbench; ++b)
                sum += report.results[i++].run.ipc;
            sweep.meanIpc[m][s] = sum / static_cast<double>(nbench);
        }
    }
    return sweep;
}

void
registerFigureScenarios(ScenarioRegistry &registry)
{
    RegisteredScenario s;

    s.name = "fig02";
    s.description = "machine configuration of the baseline timing core";
    s.build = buildFig2;
    s.render = renderFig2;
    registry.add(s);

    s.name = "fig03";
    s.description = "benchmark characterization (oracle, no E-DVI)";
    s.defaultInsts = 400000;
    s.build = buildFig3;
    s.render = renderFig3;
    registry.add(s);

    s.name = "fig05";
    s.description = "mean IPC vs. physical register file size";
    s.defaultInsts = 120000;
    s.build = [](std::uint64_t insts) {
        return Campaign(
            regfileGrid(fig5Sizes(), sim::paperPresets(), insts,
                        "fig05"));
    };
    s.render = renderFig5;
    registry.add(s);

    s.name = "fig06";
    s.description = "performance (IPC / regfile cycle time) vs. "
                    "register file size";
    s.defaultInsts = 120000;
    s.build = [](std::uint64_t insts) {
        return Campaign(
            regfileGrid(fig5Sizes(), sim::paperPresets(), insts,
                        "fig06"));
    };
    s.render = renderFig6;
    registry.add(s);

    s.name = "fig09";
    s.description = "dynamic saves/restores eliminated (oracle)";
    s.defaultInsts = 400000;
    s.build = buildFig9;
    s.render = renderFig9;
    registry.add(s);

    s.name = "fig10";
    s.description = "IPC speedup from save/restore elimination";
    s.defaultInsts = 200000;
    s.build = buildFig10;
    s.render = renderFig10;
    registry.add(s);

    s.name = "fig11";
    s.description = "cache bandwidth sensitivity of elimination";
    s.defaultInsts = 150000;
    s.build = buildFig11;
    s.render = renderFig11;
    registry.add(s);

    s.name = "fig12";
    s.description = "context-switch saves/restores eliminated";
    s.defaultInsts = 400000;
    s.build = buildFig12;
    s.render = renderFig12;
    registry.add(s);

    s.name = "fig13";
    s.description = "E-DVI annotation overhead";
    s.defaultInsts = 200000;
    s.build = buildFig13;
    s.render = renderFig13;
    registry.add(s);
}

} // namespace driver
} // namespace dvi
