/**
 * @file
 * Simulation-campaign runner.
 *
 * A Campaign is an ordered list of Scenarios. run() hands the jobs
 * to a ThreadPool through parallelFor; every worker resolves its
 * scenario's binary through a shared compile-once ExecutableCache
 * (so a campaign compiles each (benchmark, E-DVI policy) pair
 * exactly once no matter how many jobs reference it) and its
 * execution strategy through the RunnerRegistry, and results land in
 * a slot addressed by the job's index. The report is therefore
 * independent of completion order: running with one worker or
 * sixteen produces byte-identical output.
 */

#ifndef DVI_DRIVER_CAMPAIGN_HH
#define DVI_DRIVER_CAMPAIGN_HH

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "driver/job.hh"
#include "driver/report.hh"
#include "driver/thread_pool.hh"
#include "obs/metrics.hh"
#include "obs/telemetry.hh"
#include "sim/grid.hh"

namespace dvi
{
namespace driver
{

/**
 * Thread-safe compile-once cache of built binaries, keyed by
 * (benchmark, E-DVI policy). The first worker to request a key
 * compiles it; concurrent requesters for the same key block until
 * that compile finishes, while requests for other keys proceed in
 * parallel. Entries are immutable once published — uarch::Core and
 * arch::Emulator copy the executable they run, so sharing one
 * Executable across workers is safe.
 */
class ExecutableCache
{
  public:
    std::shared_ptr<const comp::Executable>
    get(workload::BenchmarkId id, comp::EdviPolicy policy);

    /** Number of distinct (benchmark, policy) pairs compiled. */
    std::size_t size() const;

    /** @name Hit / miss accounting
     * A get() that found the executable already published (or
     * blocked while another worker compiled it) is a hit; a get()
     * that performed the compile itself is a miss. @{ */
    std::uint64_t
    hits() const
    {
        return hits_.load(std::memory_order_relaxed);
    }
    std::uint64_t
    misses() const
    {
        return misses_.load(std::memory_order_relaxed);
    }
    /** @} */

  private:
    using Key = std::pair<workload::BenchmarkId, comp::EdviPolicy>;

    /**
     * One compile slot. An explicit state machine rather than
     * std::once_flag: the retry path relies on a throwing compile
     * leaving the slot retryable, and libstdc++'s call_once does
     * not restore the flag portably when the callable throws under
     * every runtime (ThreadSanitizer's pthread_once interception
     * deadlocks every later waiter). The mutex + condvar version
     * has the exceptional semantics the standard promises, visibly.
     */
    struct Entry
    {
        std::mutex mu;
        std::condition_variable cv;
        bool inProgress = false;
        std::shared_ptr<const comp::Executable> exe;
    };

    mutable std::mutex mu;
    std::map<Key, std::shared_ptr<Entry>> entries;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
};

/** Execute one job against the cache. Deterministic. */
JobResult runJob(const JobSpec &spec, ExecutableCache &cache);

/**
 * Retry policy for transient job failures. Backoff is deterministic
 * (no jitter): attempt k sleeps min(backoffCapMs, backoffBaseMs <<
 * k). Only FaultKind::Transient failures retry; permanent and
 * budget-exceeded failures quarantine immediately.
 */
struct RetryPolicy
{
    unsigned maxRetries = 2;
    unsigned backoffBaseMs = 10;
    unsigned backoffCapMs = 1000;
};

/** Backoff before retry number `attempt` (1-based), in ms. */
std::uint64_t retryBackoffMs(const RetryPolicy &policy,
                             unsigned attempt);

/** Campaign execution knobs. */
struct CampaignOptions
{
    /** Worker threads; 0 = one per hardware thread. */
    unsigned jobs = 1;

    /** Measure per-job wall-clock (JobResult::wallSeconds) and emit
     * it in reports. Off by default: profiled reports are not
     * byte-stable across runs or worker counts. */
    bool profile = false;

    /**
     * Out-of-band telemetry stream: campaign-begin / job-begin /
     * job-end / progress / campaign-end events plus compile and
     * run-job phase spans. Strictly observational — the report is
     * byte-identical with or without a sink. nullptr = off.
     */
    obs::TelemetrySink *telemetry = nullptr;

    /** Operational metrics updated as jobs complete (jobs, insts,
     * cache hit/miss, pool queue depth). nullptr = off. */
    obs::MetricRegistry *metrics = nullptr;

    /**
     * Externally owned compile cache shared across runs: dvi-serve
     * keeps one process-wide cache so a repeat manifest skips
     * compilation entirely. nullptr (the default) = a fresh
     * campaign-local cache. The caller must keep it alive for the
     * duration of run(); its hit/miss counters accumulate across
     * campaigns.
     */
    ExecutableCache *cache = nullptr;

    /**
     * Cooperative cancellation: a set flag makes every not-yet-
     * started job a no-op, and every job in flight polls it next to
     * its own deadline (base::CancelFlags) and stops at its next
     * poll, so run() returns as soon as the running jobs reach
     * one. The flag may be set from any thread or a signal handler
     * (DELETE /campaigns/<id>, server shutdown, SIGINT); nothing
     * waits on it, so setting it needs no lock or notify. The
     * returned report carries cancelled = true and must be treated
     * as partial. nullptr = never cancelled.
     */
    const std::atomic<bool> *cancel = nullptr;

    /** Retry policy for transient per-job failures. */
    RetryPolicy retry{};
};

/** An ordered list of simulation scenarios. */
class Campaign
{
  public:
    explicit Campaign(std::string name) : name_(std::move(name)) {}

    /** Adopt a grid's expansion: one job per grid point, in grid
     * order, under the grid's name. */
    explicit Campaign(const sim::ScenarioGrid &grid);

    Campaign(std::string name, std::vector<sim::Scenario> scenarios);

    const std::string &name() const { return name_; }
    std::size_t size() const { return jobs_.size(); }
    const std::vector<JobSpec> &jobs() const { return jobs_; }

    /** Append a scenario; returns its campaign index. */
    std::size_t add(sim::Scenario scenario);

    /** Run every job on an internally created pool. */
    CampaignReport run(const CampaignOptions &opts = {}) const;

    /** Run every job on a caller-provided pool. */
    CampaignReport run(ThreadPool &pool,
                       const CampaignOptions &opts = {}) const;

  private:
    std::string name_;
    std::vector<JobSpec> jobs_;
};

} // namespace driver
} // namespace dvi

#endif // DVI_DRIVER_CAMPAIGN_HH
