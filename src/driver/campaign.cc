#include "driver/campaign.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "base/failpoint.hh"
#include "base/logging.hh"
#include "obs/trace.hh"

namespace dvi
{
namespace driver
{

std::uint64_t
jobSeed(std::size_t index)
{
    // SplitMix64 (Steele, Lea, Flood 2014) of index + 1.
    std::uint64_t z = static_cast<std::uint64_t>(index) + 1;
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::shared_ptr<const comp::Executable>
ExecutableCache::get(workload::BenchmarkId id,
                     comp::EdviPolicy policy)
{
    std::shared_ptr<Entry> entry;
    {
        std::lock_guard<std::mutex> lk(mu);
        auto &slot = entries[Key(id, policy)];
        if (!slot)
            slot = std::make_shared<Entry>();
        entry = slot;
    }
    // Claim the compile slot, or wait for whoever holds it. A
    // throwing compile releases the claim with `exe` still null, so
    // the next get() (the campaign's retry) compiles again.
    {
        std::unique_lock<std::mutex> lk(entry->mu);
        entry->cv.wait(lk, [&] { return !entry->inProgress; });
        if (entry->exe) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            return entry->exe;
        }
        entry->inProgress = true;
    }
    try {
        // Campaign::run names each job's campaign sink current on its
        // thread (obs::SinkScope), so compile spans land in the stream
        // of whichever campaign triggered the build, even from a cache
        // campaigns share; with no campaign sink, in the global one.
        json::Value begin = json::Value::object();
        begin.set("benchmark", workload::benchmarkName(id));
        begin.set("policy", sim::edviPolicyName(policy));
        obs::PhaseSpan span(obs::currentSink(), "compile",
                            obs::currentJob(), std::move(begin));
        // Chaos site: a throw here releases the slot un-compiled,
        // so the next get() for this key retries the compile —
        // which is exactly what the campaign retry loop relies on.
        DVI_FAILPOINT("driver.compile");
        const prog::Module mod = workload::generateBenchmark(id);
        const auto exe = std::make_shared<const comp::Executable>(
            comp::compile(mod, comp::CompileOptions{policy}));
        span.annotate("textBytes", exe->textBytes());
        std::lock_guard<std::mutex> lk(entry->mu);
        entry->exe = exe;
        entry->inProgress = false;
        entry->cv.notify_all();
    } catch (...) {
        std::lock_guard<std::mutex> lk(entry->mu);
        entry->inProgress = false;
        entry->cv.notify_all();
        throw;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return entry->exe;
}

std::size_t
ExecutableCache::size() const
{
    std::lock_guard<std::mutex> lk(mu);
    return entries.size();
}

JobResult
runJob(const JobSpec &spec, ExecutableCache &cache)
{
    const sim::Scenario &s = spec.scenario;
    const std::shared_ptr<const comp::Executable> exe =
        cache.get(s.workload, s.binary.edvi);
    const sim::Runner &runner = sim::runnerFor(s.runner);

    JobResult r;
    r.spec = spec;
    r.textBytes = exe->textBytes();
    r.run = runner.run(s, *exe);
    return r;
}

Campaign::Campaign(const sim::ScenarioGrid &grid)
    : Campaign(grid.name(), grid.scenarios())
{
}

Campaign::Campaign(std::string name,
                   std::vector<sim::Scenario> scenarios)
    : name_(std::move(name))
{
    jobs_.reserve(scenarios.size());
    for (sim::Scenario &s : scenarios)
        add(std::move(s));
}

std::size_t
Campaign::add(sim::Scenario scenario)
{
    JobSpec spec;
    spec.index = jobs_.size();
    spec.seed = jobSeed(spec.index);
    spec.scenario = std::move(scenario);
    jobs_.push_back(std::move(spec));
    return jobs_.back().index;
}

CampaignReport
Campaign::run(const CampaignOptions &opts) const
{
    ThreadPool pool(opts.jobs);
    return run(pool, opts);
}

std::uint64_t
retryBackoffMs(const RetryPolicy &policy, unsigned attempt)
{
    // attempt is 1-based; the first retry sleeps backoffBaseMs.
    const unsigned shift = std::min(attempt > 0 ? attempt - 1 : 0u,
                                    31u);
    const std::uint64_t ms =
        static_cast<std::uint64_t>(policy.backoffBaseMs) << shift;
    return std::min<std::uint64_t>(ms, policy.backoffCapMs);
}

namespace
{

/** Interned metric ids for one campaign run (registered once, hit
 * from every worker). */
struct CampaignMetrics
{
    obs::MetricId jobsCompleted;
    obs::MetricId simInsts;
    obs::MetricId cacheHits;
    obs::MetricId cacheMisses;
    obs::MetricId queueDepth;
    obs::MetricId jobWallMs;
    obs::MetricId retries;
    obs::MetricId quarantined;
    obs::MetricId watchdogFires;

    explicit CampaignMetrics(obs::MetricRegistry &reg)
        : jobsCompleted(reg.counter("campaign.jobsCompleted")),
          simInsts(reg.counter("campaign.simInsts")),
          cacheHits(reg.gauge("cache.hits")),
          cacheMisses(reg.gauge("cache.misses")),
          queueDepth(reg.gauge("pool.queueDepth")),
          jobWallMs(reg.histogram("campaign.jobWallMs")),
          retries(reg.counter("campaign.retries")),
          quarantined(reg.counter("campaign.quarantined")),
          watchdogFires(reg.gauge("campaign.watchdogFires"))
    {
    }
};

} // namespace

CampaignReport
Campaign::run(ThreadPool &pool, const CampaignOptions &opts) const
{
    CampaignReport report;
    report.campaign = name_;
    report.profiled = opts.profile;
    report.results.resize(jobs_.size());

    obs::TelemetrySink *sink = opts.telemetry;
    obs::MetricRegistry *metrics = opts.metrics;
    std::unique_ptr<CampaignMetrics> mids;
    if (metrics)
        mids = std::make_unique<CampaignMetrics>(*metrics);

    // The compile cache is campaign-local unless the caller shares a
    // process-wide one (dvi-serve), whose counters accumulate across
    // campaigns.
    ExecutableCache localCache;
    ExecutableCache &cache = opts.cache ? *opts.cache : localCache;

    const double campaignT0 = sink ? sink->elapsedSeconds() : 0.0;
    if (sink) {
        json::Value p = json::Value::object();
        p.set("campaign", name_);
        p.set("jobs", static_cast<std::uint64_t>(jobs_.size()));
        p.set("workers",
              static_cast<std::uint64_t>(pool.numThreads()));
        sink->event("campaign-begin", std::move(p));
    }

    // Completion counter for progress events; results stay keyed by
    // index, so this order-dependent count never touches the report.
    std::atomic<std::size_t> done{0};
    std::atomic<std::uint64_t> instsDone{0};

    const std::vector<JobSpec> &specs = jobs_;
    std::vector<JobResult> &results = report.results;
    const bool profile = opts.profile;
    // Telemetry wants per-job wall-clock for job-end / progress even
    // when the report is unprofiled; the measurement stays local so
    // JobResult::wallSeconds (and the report) remain untouched.
    const bool timed = profile || sink != nullptr;
    const std::atomic<bool> *cancel = opts.cancel;
    const RetryPolicy retryPolicy = opts.retry;
    // Jobs quarantined for passing their wall-clock deadline.
    std::atomic<std::uint64_t> deadlineFires{0};

    parallelFor(pool, specs.size(), [&](std::size_t i) {
        // Cooperative cancel: jobs that have not started yet become
        // no-ops (their result slots stay default-constructed); the
        // caller sees report.cancelled and discards the report.
        if (cancel && cancel->load(std::memory_order_relaxed))
            return;
        const obs::JobScope scope(specs[i].index);
        // Scope deep emitters (core-sample, log mirror, shared-cache
        // compile spans) to this campaign's sink for the duration of
        // the job: pool threads are shared across campaigns in
        // dvi-serve, so the global sink cannot attribute them.
        const obs::SinkScope sinkScope(sink);
        const sim::Scenario &s = specs[i].scenario;
        if (sink) {
            json::Value p = json::Value::object();
            p.set("runner", s.runner);
            p.set("benchmark", workload::benchmarkName(s.workload));
            p.set("preset", s.preset);
            if (!s.label.empty())
                p.set("label", s.label);
            p.set("maxInsts", s.budget.maxInsts);
            sink->event("job-begin", specs[i].index, std::move(p));
        }

        // Crash isolation: each attempt runs under a try so a
        // throwing job is captured, retried (transient kinds, with
        // deterministic capped backoff), then quarantined — never
        // propagated, so one bad job cannot abort the campaign.
        double wall = 0.0;
        unsigned attempt = 0;
        for (;;) {
            // The job polls its campaign's flag and, with maxWallMs,
            // this attempt's deadline.
            base::CancelFlags flags;
            flags.campaign = cancel;
            if (s.budget.maxWallMs)
                flags.deadline = base::CancelFlags::Clock::now() +
                                 std::chrono::milliseconds(
                                     s.budget.maxWallMs);
            JobError err;
            bool failed = false;
            try {
                const sim::CancelScope cancelScope(flags);
                DVI_FAILPOINT("driver.job");
                if (timed) {
                    const auto t0 =
                        std::chrono::steady_clock::now();
                    {
                        obs::PhaseSpan span(sink, "run-job",
                                            specs[i].index);
                        results[i] = runJob(specs[i], cache);
                    }
                    const auto t1 =
                        std::chrono::steady_clock::now();
                    wall = std::chrono::duration<double>(t1 - t0)
                               .count();
                    if (profile)
                        results[i].wallSeconds = wall;
                } else {
                    results[i] = runJob(specs[i], cache);
                }
            } catch (const base::Fault &f) {
                failed = true;
                err.kind = f.kind();
                err.message = f.what();
            } catch (const std::exception &e) {
                failed = true;
                err.kind = base::FaultKind::Permanent;
                err.message = e.what();
            }
            if (!failed) {
                results[i].retries = attempt;
                break;
            }

            // Drop whatever the failed attempt left in the slot.
            results[i] = JobResult();

            const bool pastDeadline = flags.expired();
            if (pastDeadline ||
                err.kind == base::FaultKind::Cancelled) {
                err.kind = base::FaultKind::BudgetExceeded;
                if (pastDeadline) {
                    deadlineFires.fetch_add(
                        1, std::memory_order_relaxed);
                    err.message =
                        "wall-clock deadline exceeded "
                        "(maxWallMs=" +
                        std::to_string(s.budget.maxWallMs) + "): " +
                        err.message;
                    if (sink) {
                        json::Value p = json::Value::object();
                        p.set("limitMs", s.budget.maxWallMs);
                        sink->event("watchdog", specs[i].index,
                                    std::move(p));
                    }
                }
            }

            if (err.kind == base::FaultKind::Transient &&
                attempt < retryPolicy.maxRetries) {
                ++attempt;
                const std::uint64_t backoff =
                    retryBackoffMs(retryPolicy, attempt);
                if (sink) {
                    json::Value p = json::Value::object();
                    p.set("attempt",
                          static_cast<std::uint64_t>(attempt));
                    p.set("backoffMs", backoff);
                    // "fault", not "kind": payload members share the
                    // envelope's namespace, and "kind" is the event
                    // kind.
                    p.set("fault", base::faultKindName(err.kind));
                    sink->event("retry", specs[i].index,
                                std::move(p));
                }
                if (mids)
                    metrics->add(mids->retries);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(backoff));
                continue;
            }

            // Quarantine: record the error in the result slot (with
            // scenario provenance for the report) and move on.
            results[i].spec = specs[i];
            results[i].failed = true;
            results[i].error = err;
            results[i].retries = attempt;
            if (sink) {
                json::Value p = json::Value::object();
                p.set("fault", base::faultKindName(err.kind));
                p.set("message", err.message);
                p.set("retries",
                      static_cast<std::uint64_t>(attempt));
                sink->event("error", specs[i].index, std::move(p));
            }
            if (mids)
                metrics->add(mids->quarantined);
            break;
        }

        const std::uint64_t insts =
            results[i].failed
                ? 0
                : sim::runnerFor(s.runner)
                      .simulatedInsts(results[i].run);
        const std::size_t nowDone =
            done.fetch_add(1, std::memory_order_relaxed) + 1;
        const std::uint64_t nowInsts =
            instsDone.fetch_add(insts,
                                std::memory_order_relaxed) +
            insts;

        if (mids) {
            metrics->add(mids->jobsCompleted);
            metrics->add(mids->simInsts, insts);
            metrics->set(mids->cacheHits, cache.hits());
            metrics->set(mids->cacheMisses, cache.misses());
            metrics->set(mids->queueDepth, pool.queueDepth());
            metrics->record(mids->jobWallMs,
                            static_cast<std::uint64_t>(wall *
                                                       1e3));
        }
        if (sink) {
            json::Value p = json::Value::object();
            p.set("insts", insts);
            p.set("wallSeconds", wall);
            p.set("instsPerSec",
                  wall > 0.0 ? static_cast<double>(insts) / wall
                             : 0.0);
            sink->event("job-end", specs[i].index, std::move(p));

            const double elapsed =
                sink->elapsedSeconds() - campaignT0;
            json::Value prog = json::Value::object();
            prog.set("done",
                     static_cast<std::uint64_t>(nowDone));
            prog.set("total",
                     static_cast<std::uint64_t>(specs.size()));
            prog.set("instsPerSec",
                     elapsed > 0.0
                         ? static_cast<double>(nowInsts) / elapsed
                         : 0.0);
            prog.set("queueDepth",
                     static_cast<std::uint64_t>(
                         pool.queueDepth()));
            sink->event("progress", std::move(prog));
        }
    });

    report.cancelled =
        cancel && cancel->load(std::memory_order_relaxed);

    // Chaos site for campaign-level (not per-job) failure: a throw
    // here propagates out of run(), exercising the callers' own
    // failure paths (dvi-run exits non-zero, dvi-serve transitions
    // the session to failed).
    DVI_FAILPOINT("driver.aggregate");

    for (const JobResult &r : report.results) {
        if (r.failed) {
            report.degraded = true;
            break;
        }
    }
    if (mids)
        metrics->set(mids->watchdogFires, deadlineFires.load());

    if (sink) {
        json::Value p = json::Value::object();
        p.set("campaign", name_);
        p.set("jobs", static_cast<std::uint64_t>(jobs_.size()));
        if (report.cancelled)
            p.set("cancelled", true);
        if (report.degraded)
            p.set("degraded", true);
        p.set("cacheCompiles",
              static_cast<std::uint64_t>(cache.size()));
        p.set("cacheHits", cache.hits());
        p.set("cacheMisses", cache.misses());
        p.set("wallSeconds",
              sink->elapsedSeconds() - campaignT0);
        sink->event("campaign-end", std::move(p));
    }
    return report;
}

} // namespace driver
} // namespace dvi
