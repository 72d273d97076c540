#include "obs/telemetry.hh"

#include <atomic>
#include <cstring>

#include "base/failpoint.hh"
#include "base/logging.hh"

namespace dvi
{
namespace obs
{

const char *const kWallClockFields[] = {
    "durationSeconds", "wallSeconds", "instsPerSec", "programsPerSec",
};
const std::size_t kNumWallClockFields =
    sizeof(kWallClockFields) / sizeof(kWallClockFields[0]);

TelemetrySink::TelemetrySink()
    : epoch_(std::chrono::steady_clock::now())
{
}

TelemetrySink::TelemetrySink(std::FILE *out, bool owned)
    : out_(out), owned_(owned),
      epoch_(std::chrono::steady_clock::now())
{
}

std::unique_ptr<TelemetrySink>
TelemetrySink::open(const std::string &path)
{
    if (path == "-")
        return std::make_unique<TelemetrySink>(stderr, false);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    fatal_if(!f, "cannot open telemetry file '", path,
             "' for writing");
    return std::make_unique<TelemetrySink>(f, true);
}

TelemetrySink::~TelemetrySink()
{
    if (out_)
        std::fflush(out_);
    if (out_ && owned_)
        std::fclose(out_);
}

void
TelemetrySink::addObserver(std::function<void(const Event &)> fn)
{
    std::lock_guard<std::mutex> lk(mu_);
    observers_.push_back(std::move(fn));
}

void
TelemetrySink::addLineObserver(
    std::function<void(const std::string &)> fn)
{
    std::lock_guard<std::mutex> lk(mu_);
    lineObservers_.push_back(std::move(fn));
}

double
TelemetrySink::elapsedSeconds() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

std::uint64_t
TelemetrySink::eventCount() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return seq_;
}

std::uint64_t
TelemetrySink::droppedWrites() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return droppedWrites_;
}

void
TelemetrySink::event(const char *kind, json::Value payload)
{
    event(kind, noJob, std::move(payload));
}

void
TelemetrySink::event(const char *kind, std::uint64_t job,
                     json::Value payload)
{
    // Envelope first (ts, seq, kind, job), payload members after;
    // base/json objects keep insertion order, so the line layout is
    // stable. seq is assigned under the lock, which also makes the
    // (seq, write) pairing gapless and ordered in the output. The
    // clock is read under the same lock so ts is monotone in seq —
    // reading it outside would let two threads swap acquisition
    // order between their clock reads.
    std::lock_guard<std::mutex> lk(mu_);
    const double ts = elapsedSeconds();
    json::Value line = json::Value::object();
    line.set("ts", ts);
    line.set("seq", seq_);
    line.set("kind", kind);
    if (job != noJob)
        line.set("job", job);
    for (const auto &member : payload.members())
        line.set(member.first, member.second);

    if (out_ || !lineObservers_.empty()) {
        const std::string text = line.dump(0) + "\n";
        if (out_) {
            // Chaos site for a failing telemetry file: only the
            // fwrite is dropped (and counted) — line observers below
            // still run, so attached consumers (the dvi-serve event
            // streams) stay gapless even when the disk is "broken".
            if (DVI_FAILPOINT_ERROR("obs.telemetry.write")) {
                ++droppedWrites_;
            } else {
                std::fwrite(text.data(), 1, text.size(), out_);
                std::fflush(out_);
            }
        }
        for (const auto &fn : lineObservers_)
            fn(text);
    }
    if (!observers_.empty()) {
        Event e;
        e.ts = ts;
        e.seq = seq_;
        e.kind = kind;
        e.job = job;
        e.payload = &payload;
        for (const auto &fn : observers_)
            fn(e);
    }
    ++seq_;
}

// ------------------------------------------------ process globals

namespace
{

std::atomic<TelemetrySink *> g_sink{nullptr};
std::atomic<std::uint64_t> g_core_sample{0};

thread_local std::uint64_t t_current_job = noJob;
thread_local TelemetrySink *t_current_sink = nullptr;

/** Mirror of warn()/inform() into the telemetry stream. Scoped:
 * a warning raised inside a campaign job lands in that campaign's
 * sink, not whichever sink happens to be global. */
void
logMirror(const char *level, const std::string &msg)
{
    if (TelemetrySink *sink = currentSink()) {
        json::Value p = json::Value::object();
        p.set("level", level);
        p.set("message", msg);
        sink->event("log", t_current_job, std::move(p));
    }
}

} // namespace

void
setGlobalSink(TelemetrySink *sink)
{
    g_sink.store(sink, std::memory_order_release);
    setLogHook(sink ? &logMirror : nullptr);
}

void
setCoreSampleInsts(std::uint64_t everyInsts)
{
    g_core_sample.store(everyInsts, std::memory_order_release);
}

std::uint64_t
coreSampleInsts()
{
    return g_core_sample.load(std::memory_order_acquire);
}

JobScope::JobScope(std::uint64_t job) : prev_(t_current_job)
{
    t_current_job = job;
}

JobScope::~JobScope()
{
    t_current_job = prev_;
}

std::uint64_t
currentJob()
{
    return t_current_job;
}

SinkScope::SinkScope(TelemetrySink *sink) : prev_(t_current_sink)
{
    if (sink)
        t_current_sink = sink;
}

SinkScope::~SinkScope()
{
    t_current_sink = prev_;
}

TelemetrySink *
currentSink()
{
    if (t_current_sink)
        return t_current_sink;
    return g_sink.load(std::memory_order_acquire);
}

} // namespace obs
} // namespace dvi
