#include "serve/queue.hh"

#include <algorithm>

#include "base/logging.hh"

namespace dvi
{
namespace serve
{

CampaignQueue::CampaignQueue(unsigned maxConcurrent,
                             std::size_t maxQueue, Runner runner,
                             Finished finished)
    : maxConcurrent_(maxConcurrent ? maxConcurrent : 1),
      maxQueue_(maxQueue), runner_(std::move(runner)),
      finished_(std::move(finished))
{
    panic_if(!runner_ || !finished_, "CampaignQueue: null callback");
    dispatchers_.reserve(maxConcurrent_);
    for (unsigned i = 0; i < maxConcurrent_; ++i)
        dispatchers_.emplace_back([this] { dispatchLoop(); });
}

CampaignQueue::~CampaignQueue()
{
    shutdown();
}

CampaignQueue::Admission
CampaignQueue::admit(std::shared_ptr<CampaignSession> session)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stopping_)
            return Admission::ShuttingDown;
        // Admission compares total load (queued + running) against
        // capacity: with maxConcurrent dispatchers idle, a new
        // session bypasses the pending deque conceptually but still
        // flows through it, so the bound is maxQueue pending beyond
        // the running set.
        if (pending_.size() >= maxQueue_ +
                                   (maxConcurrent_ -
                                    std::min<std::size_t>(
                                        active_.size(),
                                        maxConcurrent_)))
            return Admission::QueueFull;
        pending_.push_back(std::move(session));
    }
    cv_.notify_one();
    return Admission::Admitted;
}

bool
CampaignQueue::cancelPending(const CampaignSession &session)
{
    std::shared_ptr<CampaignSession> victim;
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (auto it = pending_.begin(); it != pending_.end(); ++it) {
            if (it->get() == &session) {
                victim = *it;
                pending_.erase(it);
                break;
            }
        }
    }
    if (victim) {
        victim->requestCancel();
        victim->finishCancelled();
        finished_(victim);
        return true;
    }
    return false;
}

std::size_t
CampaignQueue::pending() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return pending_.size();
}

unsigned
CampaignQueue::running() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return static_cast<unsigned>(active_.size());
}

unsigned
CampaignQueue::retryAfterSeconds() const
{
    // No wall-clock estimate of campaign duration exists at refusal
    // time; a queue-depth-proportional hint keeps clients honest
    // (deeper backlog, longer backoff) and stays deterministic.
    std::lock_guard<std::mutex> lk(mu_);
    return 1 + static_cast<unsigned>(pending_.size());
}

void
CampaignQueue::shutdown()
{
    std::deque<std::shared_ptr<CampaignSession>> orphans;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stopping_ && dispatchers_.empty())
            return;
        stopping_ = true;
        orphans.swap(pending_);
        // Cooperative cancel for the campaigns mid-run: their
        // in-flight jobs stop at their next poll, queued jobs no-op,
        // and the runner marks them Cancelled.
        for (const auto &s : active_)
            s->requestCancel();
    }
    cv_.notify_all();
    for (const auto &s : orphans) {
        s->requestCancel();
        s->finishCancelled();
        finished_(s);
    }
    for (auto &t : dispatchers_)
        if (t.joinable())
            t.join();
    dispatchers_.clear();
}

void
CampaignQueue::dispatchLoop()
{
    for (;;) {
        std::shared_ptr<CampaignSession> session;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [this] {
                return stopping_ || !pending_.empty();
            });
            if (stopping_)
                return;
            session = std::move(pending_.front());
            pending_.pop_front();
            active_.push_back(session);
        }

        if (session->cancelRequested()) {
            session->finishCancelled();
        } else {
            session->markRunning();
            runner_(session);
        }
        finished_(session);

        {
            std::lock_guard<std::mutex> lk(mu_);
            active_.erase(std::find(active_.begin(), active_.end(),
                                    session));
        }
    }
}

} // namespace serve
} // namespace dvi
