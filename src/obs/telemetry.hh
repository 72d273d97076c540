/**
 * @file
 * Structured NDJSON telemetry stream.
 *
 * A TelemetrySink turns the simulator from a black box into a
 * watchable process: every layer that has something to report —
 * campaign driver, timing core, fuzzer, logging — emits structured
 * events, and the sink writes each one as a single newline-delimited
 * JSON object to a file or stderr. This is the wire protocol the
 * ROADMAP's `dvi-serve` daemon will speak; today the consumers are
 * `--telemetry FILE` captures, the `--progress` renderer (an
 * in-process observer of the same stream), and CI schema checks.
 *
 * Design constraints, in order:
 *
 *  - **Strictly out of band.** Telemetry never feeds back into a
 *    simulation or a report. Reports are byte-identical with a sink
 *    attached or not (tests/obs_test.cc proves it).
 *  - **Thread-safe, line-atomic.** Campaign workers emit
 *    concurrently; each event is serialized to one string and
 *    written with a single locked fwrite, so NDJSON lines never
 *    interleave.
 *  - **Near-zero cost when off.** Every producer holds a
 *    `TelemetrySink *` that is nullptr when telemetry is disabled
 *    and guards with one pointer test; the hot timing-core loop
 *    guards with one integer compare (see CoreConfig::
 *    sampleEveryInsts).
 *  - **Deterministic content, isolated wall-clock.** Everything in
 *    an event is a pure function of the simulation except the
 *    documented wall-clock fields (`ts` plus the names in
 *    kWallClockFields), so tests and diff tools can normalize those
 *    and compare the rest exactly. Event *order* across concurrent
 *    jobs is not deterministic; `seq` makes whatever order happened
 *    explicit.
 *
 * Event schema (DESIGN.md §10 has the per-kind field tables):
 *
 *   {"ts":<f64 s>,"seq":<u64>,"kind":"<token>"[,"job":<u64>],...}
 *
 *   ts    seconds since the sink was created (monotonic clock).
 *   seq   per-sink event ordinal, starting at 0, gapless.
 *   kind  event type token: campaign-begin, job-begin, job-end,
 *         progress, campaign-end, phase-begin, phase-end,
 *         core-sample, metrics, fuzz-begin, fuzz-verdict, fuzz-end,
 *         log, retry, error, watchdog.
 *   job   campaign job index / fuzz program index, when the event
 *         belongs to one.
 */

#ifndef DVI_OBS_TELEMETRY_HH
#define DVI_OBS_TELEMETRY_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/json.hh"

namespace dvi
{
namespace obs
{

/** `job` value meaning "no job": the field is omitted. */
constexpr std::uint64_t noJob = ~0ull;

/** Payload field names that carry wall-clock-derived values (and so
 * differ run to run); everything else in an event is deterministic.
 * `ts` is always wall-clock and is not listed. */
extern const char *const kWallClockFields[];
extern const std::size_t kNumWallClockFields;

/** One event in structured form, as handed to observers before
 * serialization. Valid only for the duration of the callback. */
struct Event
{
    double ts = 0.0;
    std::uint64_t seq = 0;
    const char *kind = "";
    std::uint64_t job = noJob;
    /** The payload members (never null; may be an empty object). */
    const json::Value *payload = nullptr;
};

/**
 * Thread-safe NDJSON event stream. A sink may write to a FILE, to
 * in-process observers, or both; a sink constructed with no output
 * and no observers is a null sink (events cost one pointer test at
 * the caller plus nothing here).
 */
class TelemetrySink
{
  public:
    /** Observer-only sink: no bytes written anywhere until an
     * observer is attached. */
    TelemetrySink();

    /** Write to an open stream; closes it on destruction iff
     * `owned`. */
    TelemetrySink(std::FILE *out, bool owned);

    /** Open `path` for writing ("-" means stderr); fatal when the
     * file cannot be created. */
    static std::unique_ptr<TelemetrySink>
    open(const std::string &path);

    ~TelemetrySink();

    TelemetrySink(const TelemetrySink &) = delete;
    TelemetrySink &operator=(const TelemetrySink &) = delete;

    /**
     * Attach an in-process consumer of the event stream (the
     * --progress renderer). Called under the sink lock in emission
     * order; must not re-enter the sink. Attach observers before
     * the first event is emitted.
     */
    void addObserver(std::function<void(const Event &)> fn);

    /**
     * Attach a consumer of the *serialized* stream: one call per
     * event with the exact NDJSON line a file sink writes (trailing
     * newline included), under the sink lock in emission order.
     * This is the wire tap `dvi-serve` streams to HTTP clients —
     * what a subscriber receives is byte-identical to a
     * `--telemetry FILE` capture of the same sink.
     */
    void addLineObserver(std::function<void(const std::string &)> fn);

    /** Emit one event; `payload` must be a JSON object whose
     * members are appended after the envelope fields. */
    void event(const char *kind, json::Value payload);

    /** Emit one event attributed to a job / program index. */
    void event(const char *kind, std::uint64_t job,
               json::Value payload);

    /** Seconds since this sink was created (monotonic). */
    double elapsedSeconds() const;

    /** Events emitted so far. */
    std::uint64_t eventCount() const;

    /** File writes dropped by the obs.telemetry.write failpoint;
     * line observers were still delivered for those events. */
    std::uint64_t droppedWrites() const;

  private:
    std::FILE *out_ = nullptr;
    bool owned_ = false;
    std::chrono::steady_clock::time_point epoch_;

    mutable std::mutex mu_;
    std::uint64_t seq_ = 0;
    std::uint64_t droppedWrites_ = 0;
    std::vector<std::function<void(const Event &)>> observers_;
    std::vector<std::function<void(const std::string &)>>
        lineObservers_;
};

/**
 * @name Process-global sink
 *
 * Layers with no plumbing path to the CLI — the timing core's
 * sampled stats hook, the warn()/inform() mirror — reach telemetry
 * through one global pointer, set by the CLI for the duration of a
 * run. Everything that *can* take a sink parameter does
 * (CampaignOptions, FuzzConfig); the global is the escape hatch,
 * not the front door.
 * @{
 */

/** Install (or clear, with nullptr) the process-global sink. Also
 * mirrors warn()/inform() into the stream as `log` events while a
 * sink is installed. Not thread-safe against concurrent emitters:
 * call before starting and after finishing parallel work. */
void setGlobalSink(TelemetrySink *sink);

/** Committed-instruction interval for the timing core's mid-run
 * stats samples (see CoreConfig::sampleEveryInsts); 0 disables.
 * Read by the timing runner when it configures each core. */
void setCoreSampleInsts(std::uint64_t everyInsts);
std::uint64_t coreSampleInsts();

/** @} */

/**
 * @name Current-job attribution
 *
 * The campaign driver brackets each job with a JobScope so that
 * events emitted from deep inside the stack (core-sample, mirrored
 * log lines) carry the right `job` field without threading an index
 * through every layer.
 * @{
 */

/** RAII: names `job` as the job current on this thread. */
class JobScope
{
  public:
    explicit JobScope(std::uint64_t job);
    ~JobScope();

    JobScope(const JobScope &) = delete;
    JobScope &operator=(const JobScope &) = delete;

  private:
    std::uint64_t prev_;
};

/** The job current on this thread; noJob outside any JobScope. */
std::uint64_t currentJob();

/** @} */

/**
 * @name Current-sink scoping
 *
 * The global sink is one pointer — right for a CLI with one
 * campaign, wrong for a resident server running several campaigns
 * concurrently, each with its own sink. A SinkScope names the sink
 * current on this thread for the duration of a job, so events
 * emitted from deep inside the stack (core-sample, mirrored log
 * lines, compile spans from a shared ExecutableCache) land in the
 * right campaign's stream. currentSink() is the lookup every such
 * emitter uses: the thread's scoped sink when one is active, else
 * the process-global sink.
 * @{
 */

/** RAII: names `sink` as the sink current on this thread. A nullptr
 * sink is "no override" (currentSink() keeps falling back to the
 * global), so call sites need no conditionals. */
class SinkScope
{
  public:
    explicit SinkScope(TelemetrySink *sink);
    ~SinkScope();

    SinkScope(const SinkScope &) = delete;
    SinkScope &operator=(const SinkScope &) = delete;

  private:
    TelemetrySink *prev_;
};

/** The thread's scoped sink, else the global sink, else nullptr. */
TelemetrySink *currentSink();

/** @} */

} // namespace obs
} // namespace dvi

#endif // DVI_OBS_TELEMETRY_HH
