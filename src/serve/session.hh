/**
 * @file
 * One submitted campaign, from POST to served report.
 *
 * A CampaignSession is the server-side state of one `POST
 * /campaigns` request: the parsed manifest, a state machine (Queued
 * -> Running -> Done | Failed | Cancelled, with Queued -> Cancelled
 * for jobs cancelled before dispatch), a per-campaign TelemetrySink
 * whose serialized NDJSON lines are buffered for replay and pushed
 * to any number of live `GET /campaigns/<id>/events` subscribers, a
 * per-campaign MetricRegistry (progress counters for the status
 * endpoint), the cooperative cancel flag every running job polls,
 * and — once Done — the finished report bytes, exactly what
 * `dvi-run --manifest` would have written for the same manifest.
 *
 * The server keeps every queued and running session and the
 * DviServer::maxFinishedSessions (64) most recently finished ones,
 * and a finished one keeps only what the API serves. The dispatcher
 * takes the parsed scenarios away at dispatch (takeScenarios),
 * leaving the campaign name, job count and profile flag. The event
 * log is one byte buffer plus line-end offsets. The terminal
 * transition shrinks the log and the report to fit and folds the
 * MetricRegistry (its fixed counter and gauge arrays) into the two
 * counters the status document reads.
 *
 * Thread model: the HTTP threads read state/lines/report while a
 * queue dispatcher runs the campaign and the driver's pool workers
 * append telemetry; everything mutable is behind one mutex, and a
 * condition variable wakes event-stream subscribers on new lines or
 * a terminal state.
 */

#ifndef DVI_SERVE_SESSION_HH
#define DVI_SERVE_SESSION_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/json.hh"
#include "obs/metrics.hh"
#include "obs/telemetry.hh"
#include "sim/manifest.hh"

namespace dvi
{
namespace serve
{

/** Session lifecycle. Done/Failed/Cancelled are terminal. */
enum class CampaignState
{
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
};

/** Lower-case state token ("queued", "running", ...). */
const char *campaignStateName(CampaignState s);

class CampaignSession
{
  public:
    CampaignSession(std::uint64_t id, sim::CampaignManifest manifest);

    std::uint64_t id() const { return id_; }
    /** The public id ("c<N>") used in URLs. */
    const std::string &idString() const { return idString_; }
    /** The manifest's campaign name and profile flag. */
    const std::string &name() const { return name_; }
    bool profile() const { return profile_; }

    /** Hand the manifest's scenarios to the dispatcher, which builds
     * the driver::Campaign from them without a copy. Once only; the
     * session keeps name, job count and profile. */
    std::vector<sim::Scenario> takeScenarios();

    /** The per-campaign telemetry sink. Line-buffered from birth:
     * every event is retained for replay to late subscribers. */
    obs::TelemetrySink &sink() { return sink_; }

    /** Per-campaign operational metrics (driver-updated). Valid
     * until the terminal transition folds them into the status
     * counters; only the running campaign may use it. */
    obs::MetricRegistry &metrics() { return *metrics_; }

    CampaignState state() const;
    bool terminal() const;

    /** Queued -> Running (dispatcher). */
    void markRunning();
    /** Store the finished report bytes; -> Done. `degraded` marks a
     * campaign that completed with quarantined jobs (the report
     * carries their error records). */
    void finishDone(std::string reportBytes, bool degraded = false);
    /** Record a failure; -> Failed. */
    void finishFailed(std::string error);
    /** -> Cancelled (cancel observed, or dropped from the queue). */
    void finishCancelled();

    /** Raise the cooperative cancel flag (DELETE, shutdown). Every
     * running job polls it and stops at its next poll; a queued
     * session is flipped to Cancelled by whoever dequeues it. */
    void requestCancel()
    {
        cancel_.store(true, std::memory_order_relaxed);
    }
    bool cancelRequested() const
    {
        return cancel_.load(std::memory_order_relaxed);
    }
    /** The flag itself, for CampaignOptions::cancel. */
    const std::atomic<bool> &cancelFlag() const { return cancel_; }

    /** Finished report bytes; "" unless Done. */
    std::string report() const;
    /** Failure diagnostic; "" unless Failed. */
    std::string error() const;
    /**
     * Event-stream cursor: append the bytes of lines [*cursor, ...)
     * to `out` as one range, advancing *cursor. When no new line is
     * buffered, blocks up to `timeoutMs` for one. Returns false once
     * the stream is complete (session terminal and every line
     * consumed); `out` may still hold the final batch on a false
     * return, so send before breaking:
     *   for (;;) { out.clear(); bool more = nextLines(...);
     *              send(out); if (!more) break; }
     */
    bool nextLines(std::size_t &cursor, std::string &out,
                   unsigned timeoutMs) const;

    /** Status document for GET /campaigns/<id>: id, campaign name,
     * state, job counts, per-campaign metrics snapshot. */
    json::Value statusJson() const;

  private:
    /** Enter terminal state `s` and compact (caller holds mu_). */
    void finishLocked(CampaignState s);

    const std::uint64_t id_;
    const std::string idString_;
    const std::string name_;
    const std::size_t jobs_;
    const bool profile_;

    obs::TelemetrySink sink_;      ///< observer-only; line-buffered
    std::atomic<bool> cancel_{false};

    mutable std::mutex mu_;
    mutable std::condition_variable cv_;
    CampaignState state_ = CampaignState::Queued;
    std::vector<sim::Scenario> scenarios_;  ///< until dispatch
    /** Per-campaign metrics until the terminal transition, which
     * folds them into jobsCompleted_ / simInsts_ and frees them. */
    std::unique_ptr<obs::MetricRegistry> metrics_;
    std::uint64_t jobsCompleted_ = 0;
    std::uint64_t simInsts_ = 0;
    std::string events_;                ///< NDJSON lines, seq order
    std::vector<std::size_t> lineEnds_; ///< end offset of line i
    std::string report_;
    std::string error_;
    bool degraded_ = false;
};

} // namespace serve
} // namespace dvi

#endif // DVI_SERVE_SESSION_HH
