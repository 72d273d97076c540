#include "sim/runner.hh"

#include <algorithm>

#include "base/fault.hh"
#include "base/logging.hh"
#include "obs/telemetry.hh"
#include "uarch/core.hh"

namespace dvi
{
namespace sim
{

namespace
{

/** Thread-local cancel flags installed by CancelScope. */
thread_local base::CancelFlags t_cancel;

/**
 * The instruction budget a runner should actually simulate:
 * min-nonzero of the nominal budget and the hard deadline. Runs that
 * stop at the hard deadline are then reported as budget-exceeded
 * faults by the caller's post-check.
 */
std::uint64_t
cappedInsts(const RunBudget &b)
{
    if (!b.hardMaxInsts)
        return b.maxInsts;
    if (!b.maxInsts)
        return b.hardMaxInsts;
    return std::min(b.maxInsts, b.hardMaxInsts);
}

/** Throw BudgetExceededError if the run hit the hard deadline. */
void
checkHardDeadline(const RunBudget &b, std::uint64_t insts)
{
    if (b.hardMaxInsts && insts >= b.hardMaxInsts)
        throw base::BudgetExceededError(
            "instruction deadline exceeded: ran " +
            std::to_string(insts) + " insts, hardMaxInsts=" +
            std::to_string(b.hardMaxInsts));
}

/** CoreConfig::sampleHook target: emit a `core-sample` event with
 * every CoreStats counter for the current job on the process-global
 * sink. ctx is the sink. */
void
emitCoreSample(const uarch::CoreStats &stats, void *ctx)
{
    auto *sink = static_cast<obs::TelemetrySink *>(ctx);
    json::Value p = json::Value::object();
    p.set("insts", stats.committedProgInsts);
    uarch::CoreStats::forEachCounter([&](const char *name,
                                         auto field) {
        p.set(name, static_cast<std::uint64_t>(stats.*field));
    });
    p.set("ipc", stats.ipc());
    sink->event("core-sample", obs::currentJob(), std::move(p));
}

/** Out-of-order timing model (uarch::Core). */
class TimingRunner : public Runner
{
  public:
    std::string name() const override { return "timing"; }

    std::string
    description() const override
    {
        return "out-of-order timing model (uarch::Core)";
    }

    RunResult
    run(const Scenario &s, const comp::Executable &exe) const override
    {
        uarch::CoreConfig cfg = s.hardware.core;
        cfg.dvi = s.hardware.dvi;
        cfg.emuTier = s.emu.tier;
        cfg.maxInsts = cappedInsts(s.budget);
        cfg.cancel = currentCancel();
        // Mid-run sampling rides the scoped (per-campaign, else
        // process-global) sink: scenarios are sink-agnostic, and the
        // sampled stats go out-of-band, so the RunResult (and every
        // report) is unaffected.
        if (obs::TelemetrySink *sink = obs::currentSink()) {
            if (const std::uint64_t every = obs::coreSampleInsts()) {
                cfg.sampleEveryInsts = every;
                cfg.sampleHook = &emitCoreSample;
                cfg.sampleCtx = sink;
            }
        }
        uarch::Core core(exe, cfg);
        RunResult r;
        r.core = core.run();
        checkHardDeadline(s.budget, r.core.committedProgInsts);
        r.ipc = r.core.ipc();
        return r;
    }

    std::vector<Metric>
    reportMetrics() const override
    {
        return {DVI_FIELD_METRIC(core, cycles),
                DVI_FIELD_METRIC(core, committedProgInsts),
                DVI_FIELD_METRIC(core, committedKills),
                {"ipc",
                 [](const RunResult &r) {
                     return MetricValue::ofF64(r.ipc);
                 }},
                DVI_FIELD_METRIC(core, savesSeen),
                DVI_FIELD_METRIC(core, savesEliminated),
                DVI_FIELD_METRIC(core, restoresSeen),
                DVI_FIELD_METRIC(core, restoresEliminated),
                DVI_FIELD_METRIC(core, branchMispredicts),
                DVI_FIELD_METRIC(core, dl1Misses),
                DVI_FIELD_METRIC(core, il1Misses)};
    }

    std::uint64_t
    simulatedInsts(const RunResult &r) const override
    {
        return r.core.committedProgInsts;
    }
};

/** Functional emulator with the LVM oracle. */
class OracleRunner : public Runner
{
  public:
    std::string name() const override { return "oracle"; }

    std::string
    description() const override
    {
        return "functional emulator with the LVM oracle";
    }

    RunResult
    run(const Scenario &s, const comp::Executable &exe) const override
    {
        arch::EmulatorOptions eopts = s.emu;
        eopts.cancel = currentCancel();
        arch::Emulator emu(exe, eopts);
        emu.run(cappedInsts(s.budget));
        RunResult r;
        r.oracle = emu.stats();
        checkHardDeadline(s.budget, r.oracle.insts);
        return r;
    }

    std::vector<Metric>
    reportMetrics() const override
    {
        return {DVI_FIELD_METRIC(oracle, insts),
                DVI_FIELD_METRIC(oracle, progInsts),
                DVI_FIELD_METRIC(oracle, kills),
                DVI_FIELD_METRIC(oracle, memRefs),
                DVI_FIELD_METRIC(oracle, saves),
                DVI_FIELD_METRIC(oracle, restores),
                DVI_FIELD_METRIC(oracle, saveElimOracle),
                DVI_FIELD_METRIC(oracle, restoreElimOracle),
                DVI_FIELD_METRIC(oracle, maxCallDepth)};
    }

    std::uint64_t
    simulatedInsts(const RunResult &r) const override
    {
        return r.oracle.insts;
    }
};

/** Preemptive scheduler with context-switch accounting. */
class SwitchRunner : public Runner
{
  public:
    std::string name() const override { return "switch"; }

    std::string
    description() const override
    {
        return "preemptive scheduler, context-switch accounting";
    }

    RunResult
    run(const Scenario &s, const comp::Executable &exe) const override
    {
        os::SchedulerOptions opts;
        opts.quantum = s.budget.quantum;
        opts.maxTotalInsts = cappedInsts(s.budget);
        os::Scheduler sched(opts);
        arch::EmulatorOptions eopts = s.emu;
        eopts.cancel = currentCancel();
        sched.addThread("t0", exe, eopts);
        sched.run();
        RunResult r;
        r.sw = sched.stats();
        checkHardDeadline(s.budget, r.sw.totalInsts);
        return r;
    }

    std::vector<Metric>
    reportMetrics() const override
    {
        return {DVI_FIELD_METRIC(sw, contextSwitches),
                DVI_FIELD_METRIC(sw, totalInsts),
                DVI_FIELD_METRIC(sw, baselineIntSaveRestores),
                DVI_FIELD_METRIC(sw, dviIntSaveRestores),
                DVI_FIELD_METRIC(sw, baselineFpSaveRestores),
                DVI_FIELD_METRIC(sw, dviFpSaveRestores),
                {"intReductionPercent",
                 [](const RunResult &r) {
                     return MetricValue::ofF64(
                         r.sw.intReductionPercent());
                 }},
                {"fpReductionPercent",
                 [](const RunResult &r) {
                     return MetricValue::ofF64(
                         r.sw.fpReductionPercent());
                 }},
                {"meanLiveIntAtSwitch",
                 [](const RunResult &r) {
                     return MetricValue::ofF64(
                         r.sw.liveIntAtSwitch.mean());
                 }}};
    }

    std::uint64_t
    simulatedInsts(const RunResult &r) const override
    {
        return r.sw.totalInsts;
    }
};

} // namespace

const std::vector<Metric> &
Runner::metricTable() const
{
    std::call_once(tableOnce_, [this] { table_ = reportMetrics(); });
    return table_;
}

void
Runner::metricValues(const RunResult &r,
                     std::vector<MetricValue> &out) const
{
    out.clear();
    for (const Metric &m : metricTable())
        out.push_back(m.read(r));
}

RunnerRegistry &
RunnerRegistry::instance()
{
    static RunnerRegistry registry;
    // Built-ins registered exactly once, here rather than via static
    // initializers: the library is linked statically, and an object
    // file whose only job is self-registration would be dropped by
    // the linker.
    static std::once_flag builtins;
    std::call_once(builtins, [] {
        registry.add(std::make_unique<TimingRunner>());
        registry.add(std::make_unique<OracleRunner>());
        registry.add(std::make_unique<SwitchRunner>());
    });
    return registry;
}

void
RunnerRegistry::add(std::unique_ptr<Runner> runner)
{
    std::string key = runner->name();
    std::lock_guard<std::mutex> lk(mu_);
    fatal_if(runners_.count(key), "runner '", key,
             "' is already registered");
    runners_.emplace(std::move(key), std::move(runner));
}

const Runner *
RunnerRegistry::find(const std::string &name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = runners_.find(name);
    return it == runners_.end() ? nullptr : it->second.get();
}

std::vector<std::string>
RunnerRegistry::names() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<std::string> out;
    out.reserve(runners_.size());
    for (const auto &kv : runners_)
        out.push_back(kv.first);
    return out;  // std::map iteration is already sorted
}

CancelScope::CancelScope(base::CancelFlags flags) : prev_(t_cancel)
{
    t_cancel = flags;
}

CancelScope::~CancelScope()
{
    t_cancel = prev_;
}

base::CancelFlags
currentCancel()
{
    return t_cancel;
}

const Runner &
runnerFor(const std::string &name)
{
    const Runner *runner = RunnerRegistry::instance().find(name);
    if (!runner) {
        std::string known;
        for (const std::string &n : RunnerRegistry::instance().names())
            known += known.empty() ? n : ", " + n;
        fatal("unknown runner '", name, "' (registered: ", known, ")");
    }
    return *runner;
}

} // namespace sim
} // namespace dvi
