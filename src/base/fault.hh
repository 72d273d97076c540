/**
 * @file
 * Typed fault taxonomy for the fault-tolerance layer.
 *
 * Everything that can go wrong inside a campaign job maps onto one
 * FaultKind, which is what the driver's retry policy keys on:
 *
 *   Transient       worth retrying (a flaky compile, an injected
 *                   chaos fault tagged transient);
 *   Permanent       deterministic failure — retrying would reproduce
 *                   it, so the job is quarantined immediately;
 *   BudgetExceeded  the job blew a RunBudget deadline (maxWallMs
 *                   or hardMaxInsts) and was cancelled;
 *   Cancelled       cooperative cancellation was observed mid-run
 *                   (CancelFlags raised: a deadline passed or the
 *                   campaign flag was set; the driver reclassifies
 *                   it as BudgetExceeded).
 *
 * Layers deep in the stack (uarch::Core, arch::Emulator, runners)
 * throw these instead of ad-hoc std::runtime_error so the campaign
 * driver can tell a retryable hiccup from a lost cause without
 * string-matching what().
 */

#ifndef DVI_BASE_FAULT_HH
#define DVI_BASE_FAULT_HH

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>

namespace dvi
{
namespace base
{

/** How a failure should be treated by whoever catches it. */
enum class FaultKind
{
    Transient,
    Permanent,
    BudgetExceeded,
    Cancelled,
};

/** Lower-case report/telemetry token ("transient", "permanent",
 * "budget-exceeded", "cancelled"). */
inline const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
    case FaultKind::Transient:      return "transient";
    case FaultKind::Permanent:      return "permanent";
    case FaultKind::BudgetExceeded: return "budget-exceeded";
    case FaultKind::Cancelled:      return "cancelled";
    }
    return "unknown";
}

/** Base of every typed fault. what() is the diagnostic. */
class Fault : public std::runtime_error
{
  public:
    Fault(FaultKind kind, const std::string &message)
        : std::runtime_error(message), kind_(kind)
    {
    }

    FaultKind kind() const { return kind_; }

  private:
    FaultKind kind_;
};

/** A fault raised by an armed failpoint (base/failpoint.hh). */
class FaultInjected : public Fault
{
  public:
    FaultInjected(FaultKind kind, const std::string &site)
        : Fault(kind, "injected fault at failpoint '" + site + "' (" +
                          faultKindName(kind) + ")"),
          site_(site)
    {
    }

    const std::string &site() const { return site_; }

  private:
    std::string site_;
};

/** Cooperative cancellation observed mid-run (deadline, shutdown). */
class CancelledError : public Fault
{
  public:
    explicit CancelledError(const std::string &message)
        : Fault(FaultKind::Cancelled, message)
    {
    }
};

/**
 * What a running job polls to learn it should stop: its attempt's
 * wall-clock deadline (time_point::max() = none; the campaign
 * driver sets attempt start + maxWallMs) and its campaign's flag,
 * raised by DELETE, server shutdown or dvi-run's SIGINT handler
 * (null when the caller passed none). The flag is a plain lock-free
 * atomic the setter only stores to, so a signal handler may raise
 * it. The simulation loops poll raised() and unwind with
 * CancelledError once it reads true; with a deadline, each poll
 * reads the clock once.
 */
struct CancelFlags
{
    using Clock = std::chrono::steady_clock;

    Clock::time_point deadline = Clock::time_point::max();
    const std::atomic<bool> *campaign = nullptr;

    /** A deadline or a flag is present: a loop with neither skips
     * polling. */
    explicit operator bool() const
    {
        return campaign || deadline != Clock::time_point::max();
    }

    /** The deadline is set and has passed. */
    bool
    expired() const
    {
        return deadline != Clock::time_point::max() &&
               Clock::now() >= deadline;
    }

    bool
    raised() const
    {
        return (campaign &&
                campaign->load(std::memory_order_relaxed)) ||
               expired();
    }
};

/** A RunBudget deadline (wall-clock or instruction) was exceeded. */
class BudgetExceededError : public Fault
{
  public:
    explicit BudgetExceededError(const std::string &message)
        : Fault(FaultKind::BudgetExceeded, message)
    {
    }
};

} // namespace base
} // namespace dvi

#endif // DVI_BASE_FAULT_HH
