#include "serve/server.hh"

#include <cstdlib>
#include <exception>
#include <utility>

#include "base/failpoint.hh"
#include "base/logging.hh"
#include "driver/report.hh"
#include "sim/manifest.hh"

namespace dvi
{
namespace serve
{

namespace
{

const char *const kJsonType = "application/json";
const char *const kNdjsonType = "application/x-ndjson";

/** {"error": msg} with a trailing newline, like every JSON body the
 * server emits. */
std::string
errorBody(const std::string &msg)
{
    json::Value v = json::Value::object();
    v.set("error", msg);
    return v.dump() + "\n";
}

void
respondJson(HttpResponse &res, int status, const json::Value &v)
{
    res.respond(status, kJsonType, v.dump() + "\n");
}

/** Parse "c<N>"; false on anything else. */
bool
parseId(const std::string &token, std::uint64_t &out)
{
    if (token.size() < 2 || token[0] != 'c')
        return false;
    std::uint64_t v = 0;
    for (std::size_t i = 1; i < token.size(); ++i) {
        const char c = token[i];
        if (c < '0' || c > '9')
            return false;
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    out = v;
    return true;
}

} // namespace

/** Interned server-wide metric ids (registered once at startup). */
struct DviServer::ServerMetrics
{
    obs::MetricId submitted;
    obs::MetricId completed;
    obs::MetricId failed;
    obs::MetricId cancelled;
    obs::MetricId rejected;
    obs::MetricId degraded;
    obs::MetricId jobsRetried;
    obs::MetricId jobsQuarantined;
    obs::MetricId watchdogFires;
    obs::MetricId requests;
    obs::MetricId cacheHits;
    obs::MetricId cacheMisses;
    obs::MetricId cacheCompiles;
    obs::MetricId queuePending;
    obs::MetricId queueRunning;
    obs::MetricId poolWorkers;

    explicit ServerMetrics(obs::MetricRegistry &reg)
        : submitted(reg.counter("serve.campaignsSubmitted")),
          completed(reg.counter("serve.campaignsCompleted")),
          failed(reg.counter("serve.campaignsFailed")),
          cancelled(reg.counter("serve.campaignsCancelled")),
          rejected(reg.counter("serve.campaignsRejected")),
          degraded(reg.counter("serve.campaignsDegraded")),
          jobsRetried(reg.counter("serve.jobsRetried")),
          jobsQuarantined(reg.counter("serve.jobsQuarantined")),
          watchdogFires(reg.counter("serve.watchdogFires")),
          requests(reg.counter("serve.httpRequests")),
          cacheHits(reg.gauge("cache.hits")),
          cacheMisses(reg.gauge("cache.misses")),
          cacheCompiles(reg.gauge("cache.compiles")),
          queuePending(reg.gauge("queue.pending")),
          queueRunning(reg.gauge("queue.running")),
          poolWorkers(reg.gauge("pool.workers"))
    {
    }
};

DviServer::DviServer(const ServeOptions &opts)
    : opts_(opts), pool_(opts.workers),
      mids_(std::make_unique<ServerMetrics>(metrics_)),
      queue_(opts.maxConcurrent, opts.maxQueue,
             [this](const std::shared_ptr<CampaignSession> &s) {
                 runCampaign(s);
             },
             [this](const std::shared_ptr<CampaignSession> &s) {
                 retire(s);
             })
{
    metrics_.set(mids_->poolWorkers, pool_.numThreads());
}

DviServer::~DviServer()
{
    shutdown();
}

void
DviServer::start()
{
    http_.setIoTimeout(opts_.ioTimeoutSeconds);
    http_.start(opts_.port,
                [this](const HttpRequest &req, HttpResponse &res) {
                    handle(req, res);
                });
    inform("dvi-serve: listening on port ", port(), " (",
           pool_.numThreads(), " workers, ", opts_.maxConcurrent,
           " concurrent campaigns, queue ", opts_.maxQueue, ")");
}

void
DviServer::shutdown()
{
    if (shuttingDown_.exchange(true))
        return;
    // Order matters: stop admitting and drain campaign work first
    // (sessions reach terminal states, which ends event streams),
    // then tear down the HTTP layer, which force-closes any
    // subscriber that still has not disconnected.
    queue_.shutdown();
    http_.stop();
}

std::uint64_t
DviServer::campaignsSubmitted() const
{
    return nextId_.load(std::memory_order_relaxed) - 1;
}

std::shared_ptr<CampaignSession>
DviServer::find(const std::string &idToken)
{
    std::uint64_t id = 0;
    if (!parseId(idToken, id))
        return nullptr;
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = sessions_.find(id);
    return it == sessions_.end() ? nullptr : it->second;
}

// ------------------------------------------------------- routing

void
DviServer::handle(const HttpRequest &req, HttpResponse &res)
{
    metrics_.add(mids_->requests);

    if (req.path == "/healthz") {
        if (req.method != "GET")
            return res.respond(405, kJsonType,
                               errorBody("method not allowed"));
        return handleHealthz(res);
    }

    // Liveness is answered above this line on purpose: an injected
    // request fault must never make /healthz lie. A throw here
    // surfaces as the HTTP layer's per-request 500.
    DVI_FAILPOINT("serve.request");

    if (req.path == "/metrics") {
        if (req.method != "GET")
            return res.respond(405, kJsonType,
                               errorBody("method not allowed"));
        return handleMetrics(res);
    }
    if (req.path == "/campaigns") {
        if (req.method == "POST")
            return handleSubmit(req, res);
        if (req.method == "GET")
            return handleList(res);
        return res.respond(405, kJsonType,
                           errorBody("method not allowed"));
    }
    if (req.path.rfind("/campaigns/", 0) == 0) {
        std::string rest = req.path.substr(sizeof("/campaigns/") - 1);
        std::string sub;
        const std::size_t slash = rest.find('/');
        if (slash != std::string::npos) {
            sub = rest.substr(slash + 1);
            rest = rest.substr(0, slash);
        }
        const std::shared_ptr<CampaignSession> session = find(rest);
        if (!session) {
            std::string msg = "no campaign '" + rest + "'";
            // An id the server issued but no longer holds was
            // refused at admission or dropped after finishing.
            std::uint64_t id = 0;
            if (parseId(rest, id) && id >= 1 &&
                id <= campaignsSubmitted())
                msg += " (the server keeps only the " +
                       std::to_string(maxFinishedSessions) +
                       " most recently finished campaigns)";
            return res.respond(404, kJsonType, errorBody(msg));
        }
        if (sub.empty()) {
            if (req.method == "GET")
                return handleStatus(session, res);
            if (req.method == "DELETE")
                return handleCancel(session, res);
            return res.respond(405, kJsonType,
                               errorBody("method not allowed"));
        }
        if (req.method != "GET")
            return res.respond(405, kJsonType,
                               errorBody("method not allowed"));
        if (sub == "report")
            return handleReport(session, res);
        if (sub == "events")
            return handleEvents(req, session, res);
        return res.respond(404, kJsonType,
                           errorBody("no such resource '" + sub +
                                     "'"));
    }
    res.respond(404, kJsonType, errorBody("no route for '" +
                                          req.path + "'"));
}

// ----------------------------------------------------- endpoints

void
DviServer::handleSubmit(const HttpRequest &req, HttpResponse &res)
{
    if (shuttingDown_.load(std::memory_order_acquire))
        return res.respond(503, kJsonType,
                           errorBody("server is shutting down"));

    // The body is a PR-4 campaign manifest; loading is soft-error,
    // so a malformed document answers 400 with the dotted-path
    // diagnostic instead of taking the server down.
    sim::CampaignManifest manifest;
    const std::string err =
        sim::manifestFromJson(req.body, manifest);
    if (!err.empty())
        return res.respond(400, kJsonType, errorBody(err));

    auto session = std::make_shared<CampaignSession>(
        nextId_.fetch_add(1, std::memory_order_relaxed),
        std::move(manifest));
    metrics_.add(mids_->submitted);

    {
        std::lock_guard<std::mutex> lk(mu_);
        sessions_.emplace(session->id(), session);
    }

    switch (queue_.admit(session)) {
    case CampaignQueue::Admission::Admitted: {
        json::Value v = json::Value::object();
        v.set("id", session->idString());
        v.set("state", campaignStateName(session->state()));
        v.set("location", "/campaigns/" + session->idString());
        return respondJson(res, 202, v);
    }
    case CampaignQueue::Admission::QueueFull: {
        // Refused work leaves no residue: the session is dropped
        // from the registry so an attacker cannot grow server
        // memory by hammering a full queue.
        {
            std::lock_guard<std::mutex> lk(mu_);
            sessions_.erase(session->id());
        }
        metrics_.add(mids_->rejected);
        const unsigned retry = queue_.retryAfterSeconds();
        res.respond(429, kJsonType,
                    errorBody("over capacity: " +
                              std::to_string(queue_.running()) +
                              " running, " +
                              std::to_string(queue_.pending()) +
                              " queued; retry in " +
                              std::to_string(retry) + "s"),
                    {{"Retry-After", std::to_string(retry)}});
        return;
    }
    case CampaignQueue::Admission::ShuttingDown:
        {
            std::lock_guard<std::mutex> lk(mu_);
            sessions_.erase(session->id());
        }
        return res.respond(503, kJsonType,
                           errorBody("server is shutting down"));
    }
}

void
DviServer::handleList(HttpResponse &res)
{
    json::Value arr = json::Value::array();
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (const auto &kv : sessions_)
            arr.push(kv.second->statusJson());
    }
    json::Value v = json::Value::object();
    v.set("campaigns", std::move(arr));
    respondJson(res, 200, v);
}

void
DviServer::handleStatus(const std::shared_ptr<CampaignSession> &s,
                        HttpResponse &res)
{
    respondJson(res, 200, s->statusJson());
}

void
DviServer::handleReport(const std::shared_ptr<CampaignSession> &s,
                        HttpResponse &res)
{
    switch (s->state()) {
    case CampaignState::Done:
        // The stored bytes are CampaignReport::toJson() verbatim —
        // served untouched so they cmp-equal a local run's --out.
        return res.respond(200, kJsonType, s->report());
    case CampaignState::Failed:
        // A failed campaign is a server-side outcome, not a caller
        // mistake: 500 with the stored diagnostic.
        return res.respond(500, kJsonType,
                           errorBody("campaign failed: " +
                                     s->error()));
    case CampaignState::Cancelled:
        return res.respond(409, kJsonType,
                           errorBody("campaign was cancelled"));
    case CampaignState::Queued:
    case CampaignState::Running:
        return res.respond(
            409, kJsonType,
            errorBody("campaign is " +
                      std::string(campaignStateName(s->state())) +
                      "; report not ready"));
    }
}

void
DviServer::handleEvents(const HttpRequest &req,
                        const std::shared_ptr<CampaignSession> &s,
                        HttpResponse &res)
{
    // ?from=N resumes a broken stream at a seq cursor (line i
    // carries seq i); ?follow=0 replays what is buffered and ends
    // instead of tailing to the terminal state.
    std::size_t cursor = 0;
    const std::string from = req.queryParam("from");
    if (!from.empty())
        cursor = static_cast<std::size_t>(
            std::strtoull(from.c_str(), nullptr, 10));
    const bool follow = req.queryParam("follow") != "0";

    if (!res.beginChunked(200, kNdjsonType))
        return;
    std::string batch;
    for (;;) {
        batch.clear();
        bool more = true;
        if (follow) {
            more = s->nextLines(cursor, batch, 250);
        } else {
            s->nextLines(cursor, batch, 0);
            more = false;
        }
        if (!batch.empty() && !res.writeChunk(batch))
            return; // subscriber is gone; nothing to clean up
        if (!more)
            break;
    }
    res.endChunked();
}

void
DviServer::handleCancel(const std::shared_ptr<CampaignSession> &s,
                        HttpResponse &res)
{
    // Still queued: drop it before a dispatcher picks it up.
    // Running: raise the flag; every running job stops at its next
    // poll and the runner marks the session Cancelled. Terminal:
    // no-op.
    if (!s->terminal() && !queue_.cancelPending(*s))
        s->requestCancel();
    json::Value v = json::Value::object();
    v.set("id", s->idString());
    v.set("state", campaignStateName(s->state()));
    v.set("cancelRequested", true);
    respondJson(res, 202, v);
}

void
DviServer::handleHealthz(HttpResponse &res)
{
    json::Value v = json::Value::object();
    v.set("status", "ok");
    v.set("campaigns", campaignsSubmitted());
    v.set("running", static_cast<std::uint64_t>(queue_.running()));
    v.set("pending", static_cast<std::uint64_t>(queue_.pending()));
    v.set("workers",
          static_cast<std::uint64_t>(pool_.numThreads()));
    respondJson(res, 200, v);
}

void
DviServer::handleMetrics(HttpResponse &res)
{
    // Gauges are sampled at serve time so the snapshot reflects the
    // current cache and queue, not the last campaign completion.
    metrics_.set(mids_->cacheHits, cache_.hits());
    metrics_.set(mids_->cacheMisses, cache_.misses());
    metrics_.set(mids_->cacheCompiles, cache_.size());
    metrics_.set(mids_->queuePending, queue_.pending());
    metrics_.set(mids_->queueRunning, queue_.running());
    respondJson(res, 200, metrics_.snapshotJson());
}

// ----------------------------------------------- campaign runner

void
DviServer::retire(const std::shared_ptr<CampaignSession> &s)
{
    std::lock_guard<std::mutex> lk(mu_);
    finished_.push_back(s->id());
    if (finished_.size() > maxFinishedSessions) {
        sessions_.erase(finished_.front());
        finished_.pop_front();
    }
}

void
DviServer::runCampaign(const std::shared_ptr<CampaignSession> &s)
{
    driver::Campaign campaign(s->name(), s->takeScenarios());

    driver::CampaignOptions copts;
    copts.profile = s->profile();
    copts.telemetry = &s->sink();
    copts.metrics = &s->metrics();
    copts.cache = &cache_;
    copts.cancel = &s->cancelFlag();
    copts.retry = opts_.retry;

    try {
        const driver::CampaignReport report =
            campaign.run(pool_, copts);
        // Roll per-job fault accounting up into the server-wide
        // registry so /metrics tells the fleet story across
        // campaigns. Watchdog fires are the driver's own count of
        // wall-clock deadlines that passed, read before the terminal
        // transition frees the session's registry: a budget-exceeded
        // job may also be an instruction cap or a cancellation.
        std::uint64_t retried = 0, quarantined = 0, wdFires = 0;
        for (const driver::JobResult &r : report.results) {
            retried += r.retries;
            if (r.failed)
                ++quarantined;
        }
        for (const auto &g : s->metrics().snapshot().gauges)
            if (g.first == "campaign.watchdogFires")
                wdFires = g.second;
        if (retried)
            metrics_.add(mids_->jobsRetried, retried);
        if (quarantined)
            metrics_.add(mids_->jobsQuarantined, quarantined);
        if (wdFires)
            metrics_.add(mids_->watchdogFires, wdFires);

        if (report.cancelled) {
            metrics_.add(mids_->cancelled);
            s->finishCancelled();
        } else {
            metrics_.add(mids_->completed);
            if (report.degraded)
                metrics_.add(mids_->degraded);
            s->finishDone(report.toJson(), report.degraded);
        }
    } catch (const std::exception &e) {
        metrics_.add(mids_->failed);
        s->finishFailed(e.what());
    } catch (...) {
        metrics_.add(mids_->failed);
        s->finishFailed("unknown error");
    }
}

} // namespace serve
} // namespace dvi
