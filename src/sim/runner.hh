/**
 * @file
 * Polymorphic scenario runners.
 *
 * A Runner is an execution strategy for a Scenario: the timing model,
 * the functional LVM oracle, the preemptive context-switch
 * scheduler — or anything a client registers. The campaign driver
 * and the report resolve runners by name through the RunnerRegistry
 * (one mutex-guarded map) and treat them uniformly, so adding a new
 * kind of run means writing one subclass and registering it; no
 * driver code changes. (This is the SimpleScalar separation of
 * functional and timing simulators that arch/emulator.hh cites,
 * made an extension point.)
 *
 * Runners must be deterministic and thread-safe: run() is called
 * concurrently from campaign worker threads with distinct scenarios
 * and a shared, immutable executable.
 */

#ifndef DVI_SIM_RUNNER_HH
#define DVI_SIM_RUNNER_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "arch/emulator.hh"
#include "base/fault.hh"
#include "compiler/executable.hh"
#include "os/scheduler.hh"
#include "sim/scenario.hh"
#include "uarch/core_stats.hh"

namespace dvi
{
namespace sim
{

/**
 * Everything a completed run reports. Deterministic: no wall clock,
 * host names, or scheduling artifacts. Only the section matching the
 * scenario's runner is populated; the rest stay default-initialized.
 */
struct RunResult
{
    uarch::CoreStats core;      ///< "timing"
    arch::EmulatorStats oracle; ///< "oracle"
    os::SwitchStats sw;         ///< "switch"

    /** IPC for timing runs, 0 otherwise. */
    double ipc = 0.0;
};

/** One named report metric; u64 and f64 keep exact JSON emission. */
struct MetricValue
{
    enum class Type
    {
        U64,
        F64,
    };

    Type type = Type::U64;
    std::uint64_t u = 0;
    double f = 0.0;

    static MetricValue
    ofU64(std::uint64_t v)
    {
        MetricValue m;
        m.type = Type::U64;
        m.u = v;
        return m;
    }

    static MetricValue
    ofF64(double v)
    {
        MetricValue m;
        m.type = Type::F64;
        m.f = v;
        return m;
    }
};

/** One report metric: its key and how to read it off a result. */
struct Metric
{
    std::string name;
    MetricValue (*read)(const RunResult &);
};

/** The report metric for one stats-schema counter, keyed by the
 * field's own name: DVI_FIELD_METRIC(core, cycles) reports
 * r.core.cycles as "cycles". */
#define DVI_FIELD_METRIC(section, field)                             \
    ::dvi::sim::Metric                                               \
    {                                                                \
        #field, [](const ::dvi::sim::RunResult &r) {                 \
            return ::dvi::sim::MetricValue::ofU64(r.section.field);  \
        }                                                            \
    }

/** An execution strategy for scenarios. Stateless; one shared
 * instance serves all worker threads. */
class Runner
{
  public:
    virtual ~Runner() = default;

    /** Registry key, e.g. "timing". Lower-case, stable. */
    virtual std::string name() const = 0;

    /** One-line description for listings. */
    virtual std::string description() const = 0;

    /** Execute the scenario against its compiled binary. */
    virtual RunResult run(const Scenario &s,
                          const comp::Executable &exe) const = 0;

    /**
     * The result's report metrics, in stable emission order. Called
     * once per runner instance (metricTable() keeps the result), so
     * report emission never rebuilds the key strings per job.
     */
    virtual std::vector<Metric> reportMetrics() const = 0;

    /** reportMetrics(), computed once per runner instance;
     * thread-safe. */
    const std::vector<Metric> &metricTable() const;

    /** Read every metricTable() value off r, in order, into out
     * (cleared first). */
    void metricValues(const RunResult &r,
                      std::vector<MetricValue> &out) const;

    /** Simulated instructions a result represents (throughput
     * accounting: program instructions for timing runs, retired
     * instructions for functional runs); 0 when not meaningful. */
    virtual std::uint64_t
    simulatedInsts(const RunResult &r) const
    {
        (void)r;
        return 0;
    }

  private:
    mutable std::once_flag tableOnce_;
    mutable std::vector<Metric> table_;
};

/**
 * Name-to-runner resolution. The built-in runners are registered
 * exactly once (std::call_once) on first use; clients may add their
 * own at any time before the campaign that references them runs.
 * One mutex guards the map: a campaign looks a runner up a few times
 * per job, and jobs take milliseconds. Registered runners are never
 * removed, so the pointers find() returns stay valid.
 */
class RunnerRegistry
{
  public:
    static RunnerRegistry &instance();

    /** Register a runner under runner->name(); fatal on duplicate. */
    void add(std::unique_ptr<Runner> runner);

    /** Look up by name; nullptr if unknown. */
    const Runner *find(const std::string &name) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

  private:
    RunnerRegistry() = default;

    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<const Runner>> runners_;
};

/** Resolve a runner by name; fatal with the known names if absent. */
const Runner &runnerFor(const std::string &name);

/**
 * Scopes a job's cancellation state onto the calling thread (the
 * obs::SinkScope idiom). The campaign driver installs one per job
 * attempt, carrying the attempt's deadline (start + maxWallMs; none
 * without one) and the campaign flag (set by DELETE, server
 * shutdown or a SIGINT handler; null without one). The built-in
 * runners pick them up via currentCancel() and thread them into the
 * simulation loops, which poll both and unwind with
 * base::CancelledError once the deadline passes or the flag is
 * raised. Nestable; restores the outer state on exit.
 */
class CancelScope
{
  public:
    explicit CancelScope(base::CancelFlags flags);
    ~CancelScope();

    CancelScope(const CancelScope &) = delete;
    CancelScope &operator=(const CancelScope &) = delete;

  private:
    base::CancelFlags prev_;
};

/** The calling thread's scoped cancel state; empty when none. */
base::CancelFlags currentCancel();

} // namespace sim
} // namespace dvi

#endif // DVI_SIM_RUNNER_HH
