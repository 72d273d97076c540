#include "serve/session.hh"

#include <chrono>

#include "base/logging.hh"

namespace dvi
{
namespace serve
{

const char *
campaignStateName(CampaignState s)
{
    switch (s) {
    case CampaignState::Queued:    return "queued";
    case CampaignState::Running:   return "running";
    case CampaignState::Done:      return "done";
    case CampaignState::Failed:    return "failed";
    case CampaignState::Cancelled: return "cancelled";
    }
    return "unknown";
}

namespace
{

/** The two progress counters the status document reports, as the
 * driver left them in a campaign's registry. */
void
readProgress(const obs::MetricRegistry &reg,
             std::uint64_t &jobsCompleted, std::uint64_t &simInsts)
{
    for (const auto &c : reg.snapshot().counters) {
        if (c.first == "campaign.jobsCompleted")
            jobsCompleted = c.second;
        else if (c.first == "campaign.simInsts")
            simInsts = c.second;
    }
}

} // namespace

CampaignSession::CampaignSession(std::uint64_t id,
                                 sim::CampaignManifest manifest)
    : id_(id), idString_("c" + std::to_string(id)),
      name_(std::move(manifest.name)),
      jobs_(manifest.scenarios.size()), profile_(manifest.profile),
      scenarios_(std::move(manifest.scenarios)),
      metrics_(std::make_unique<obs::MetricRegistry>())
{
    // The sink is observer-only (no file); the line observer is the
    // buffer every events subscriber replays from. Lines arrive
    // under the sink lock, in seq order, so line i (the bytes up to
    // lineEnds_[i]) has seq i and a capture of this buffer passes
    // the gapless-seq check exactly like a --telemetry file would.
    sink_.addLineObserver([this](const std::string &line) {
        std::lock_guard<std::mutex> lk(mu_);
        events_ += line;
        lineEnds_.push_back(events_.size());
        cv_.notify_all();
    });
}

std::vector<sim::Scenario>
CampaignSession::takeScenarios()
{
    std::lock_guard<std::mutex> lk(mu_);
    return std::move(scenarios_);
}

CampaignState
CampaignSession::state() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return state_;
}

bool
CampaignSession::terminal() const
{
    const CampaignState s = state();
    return s == CampaignState::Done || s == CampaignState::Failed ||
           s == CampaignState::Cancelled;
}

void
CampaignSession::markRunning()
{
    std::lock_guard<std::mutex> lk(mu_);
    panic_if(state_ != CampaignState::Queued,
             "campaign ", idString_, ": Running from state ",
             campaignStateName(state_));
    state_ = CampaignState::Running;
    cv_.notify_all();
}

void
CampaignSession::finishLocked(CampaignState s)
{
    state_ = s;
    // Nothing runs the campaign any more: keep only what the API
    // serves. The registry (fixed counter and gauge arrays, about
    // 2.5 KB) shrinks to the two counters statusJson reads.
    if (metrics_) {
        readProgress(*metrics_, jobsCompleted_, simInsts_);
        metrics_.reset();
    }
    std::vector<sim::Scenario>().swap(scenarios_);
    events_.shrink_to_fit();
    lineEnds_.shrink_to_fit();
    report_.shrink_to_fit();
    cv_.notify_all();
}

void
CampaignSession::finishDone(std::string reportBytes, bool degraded)
{
    std::lock_guard<std::mutex> lk(mu_);
    report_ = std::move(reportBytes);
    degraded_ = degraded;
    finishLocked(CampaignState::Done);
}

void
CampaignSession::finishFailed(std::string error)
{
    std::lock_guard<std::mutex> lk(mu_);
    error_ = std::move(error);
    finishLocked(CampaignState::Failed);
}

void
CampaignSession::finishCancelled()
{
    std::lock_guard<std::mutex> lk(mu_);
    finishLocked(CampaignState::Cancelled);
}

std::string
CampaignSession::report() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return report_;
}

std::string
CampaignSession::error() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return error_;
}

bool
CampaignSession::nextLines(std::size_t &cursor, std::string &out,
                           unsigned timeoutMs) const
{
    std::unique_lock<std::mutex> lk(mu_);
    const bool isTerminal = state_ == CampaignState::Done ||
                            state_ == CampaignState::Failed ||
                            state_ == CampaignState::Cancelled;
    if (cursor >= lineEnds_.size() && !isTerminal)
        cv_.wait_for(lk, std::chrono::milliseconds(timeoutMs));
    if (cursor < lineEnds_.size()) {
        const std::size_t begin = cursor ? lineEnds_[cursor - 1] : 0;
        out.append(events_, begin, events_.size() - begin);
        cursor = lineEnds_.size();
    }
    // Re-read the state under the same lock: a terminal transition
    // and a final line may both have landed during the wait.
    return !(state_ == CampaignState::Done ||
             state_ == CampaignState::Failed ||
             state_ == CampaignState::Cancelled);
}

json::Value
CampaignSession::statusJson() const
{
    std::lock_guard<std::mutex> lk(mu_);
    // Progress counters come from the per-campaign MetricRegistry
    // the driver updates as jobs complete, or from its fold once
    // the session is terminal.
    std::uint64_t jobsCompleted = jobsCompleted_;
    std::uint64_t simInsts = simInsts_;
    if (metrics_)
        readProgress(*metrics_, jobsCompleted, simInsts);

    json::Value v = json::Value::object();
    v.set("id", idString_);
    v.set("campaign", name_);
    v.set("state", campaignStateName(state_));
    v.set("jobs", static_cast<std::uint64_t>(jobs_));
    v.set("jobsCompleted", jobsCompleted);
    v.set("simInsts", simInsts);
    v.set("events", static_cast<std::uint64_t>(lineEnds_.size()));
    if (state_ == CampaignState::Done && degraded_)
        v.set("degraded", true);
    if (!error_.empty())
        v.set("error", error_);
    return v;
}

} // namespace serve
} // namespace dvi
