/**
 * @file
 * Deterministic, named fault-injection sites ("failpoints").
 *
 * A failpoint is a named place in the code where a fault can be
 * injected on demand:
 *
 *     DVI_FAILPOINT("driver.compile");          // may throw
 *     if (DVI_FAILPOINT_ERROR("obs.telemetry.write")) { ...skip... }
 *
 * When no chaos spec is configured the macros compile down to one
 * relaxed atomic load and a never-taken branch — safe to leave in
 * hot-ish paths (the sites in this repo are all per-job or per-line,
 * never per-instruction).
 *
 * Sites are armed by a spec string, from the CLI (`--chaos`) or the
 * DVI_CHAOS environment variable:
 *
 *     site=action[@freq][,site=action[@freq]...][,seed=N]
 *
 *   action   throw            throw FaultInjected(Transient)
 *            throw:transient  same, explicit
 *            throw:permanent  throw FaultInjected(Permanent)
 *            delay:<ms>       sleep <ms> milliseconds, then continue
 *            error            make DVI_FAILPOINT_ERROR return true
 *   freq     always           every hit (default)
 *            once             exactly the first hit, process-wide
 *            1inN             a deterministic ~1/N subset of hits,
 *                             keyed on (seed, site, hit index) — the
 *                             same spec+seed always fires on the
 *                             same hits, independent of thread
 *                             interleaving
 *
 * Example: --chaos "driver.compile=throw@1in20,seed=42"
 *
 * Threading: evaluate()/evaluateError() are safe to call
 * concurrently; configure()/reset() are not safe against concurrent
 * evaluation and must be called while no jobs are in flight (both
 * CLIs configure before starting work).
 *
 * Sites wired in this repo (see DESIGN.md §12):
 *   driver.compile        ExecutableCache compile-once path
 *   driver.job            Campaign per-job run (inside retry loop)
 *   driver.aggregate      Campaign aggregation after all jobs
 *   pool.task             parallelFor's per-task wrapper
 *   serve.request         DviServer request dispatch (after /healthz)
 *   obs.telemetry.write   TelemetrySink file write (error-style)
 */

#ifndef DVI_BASE_FAILPOINT_HH
#define DVI_BASE_FAILPOINT_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "base/cli.hh"

namespace dvi
{
namespace fail
{

/**
 * Parse and install a chaos spec. Returns "" on success, else a
 * human-readable diagnostic (and installs nothing). An empty spec is
 * a successful no-op. Replaces any previously configured spec.
 */
std::string configure(const std::string &spec);

/**
 * Configure from the DVI_CHAOS environment variable if set.
 * Returns "" when unset or valid, else the diagnostic.
 */
std::string configureFromEnv();

/**
 * A tool's chaos arming, in command-line order: arm from DVI_CHAOS
 * now (fatal on a bad spec) and return the --chaos SPEC row, which
 * where it appears arms SPEC in its place (fatal on a bad one) and
 * records it in `*given` when that is set.
 */
cli::Flag chaosFlag(const char *help, std::string *given = nullptr);

/** Disarm every site and forget the spec (tests call this in
 * teardown — failpoint state is process-global). */
void reset();

/** True when any site is configured. One relaxed load. */
bool armed();

/**
 * Evaluate a throw/delay-style site. Throws base::FaultInjected when
 * the site is armed with a throw action and this hit fires; sleeps
 * for delay actions; error actions are ignored here (they only make
 * sense at DVI_FAILPOINT_ERROR sites).
 */
void evaluate(const char *site);

/**
 * Evaluate an error-style site. Returns true when the site fires
 * with an error OR throw action (this flavor never throws — it
 * guards paths that must not unwind, like the telemetry fwrite);
 * delay actions sleep and return false.
 */
bool evaluateError(const char *site);

/** How many times the named site has actually fired (injected a
 * fault), for tests and counters. 0 for unknown sites. */
std::uint64_t fireCount(const std::string &site);

} // namespace fail
} // namespace dvi

/** May throw base::FaultInjected / sleep when chaos is armed. */
#define DVI_FAILPOINT(site)                                                  \
    do {                                                                     \
        if (dvi::fail::armed())                                              \
            dvi::fail::evaluate(site);                                       \
    } while (0)

/** Never throws; true when the site fires a synthetic error. */
#define DVI_FAILPOINT_ERROR(site)                                            \
    (dvi::fail::armed() && dvi::fail::evaluateError(site))

#endif // DVI_BASE_FAILPOINT_HH
