/**
 * @file
 * Error-reporting helpers in the gem5 idiom.
 *
 * panic()  — an internal invariant was violated (a simulator bug);
 *            aborts so a debugger or core dump can inspect the state.
 * fatal()  — the simulation cannot continue due to a user error
 *            (bad configuration, invalid arguments); exits cleanly.
 * warn()   — something is suspicious but the simulation continues.
 * inform() — plain status output.
 *
 * All four write to stderr, so a tool's stdout carries only its
 * results (dvi-serve's ready line, rendered tables, JSON).
 *
 * warn() and inform() are thread-safe: each message (prefix, text,
 * newline) is composed into one buffer and written with a single
 * stdio call, so messages from parallel campaign workers never
 * interleave mid-line. A process-wide hook (setLogHook) can mirror
 * them into another consumer — obs::setGlobalSink uses it to turn
 * log lines into telemetry `log` events.
 */

#ifndef DVI_BASE_LOGGING_HH
#define DVI_BASE_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace dvi
{

namespace detail
{

/** Stream-compose a message from variadic parts. */
template <typename... Args>
std::string
composeMessage(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Compose and report a panic. Cold and never inlined, so a
 * panic_if leaves only its compare and one call in the caller's
 * code, and a small hot function that checks an invariant still
 * inlines. Arguments are taken by value: string literals decay to
 * pointers, so panics of one shape share one instantiation. */
template <typename... Args>
[[noreturn, gnu::cold, gnu::noinline]] void
panicAt(const char *file, int line, Args... args)
{
    panicImpl(file, line, composeMessage(args...));
}
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/**
 * Observer of warn()/inform() messages: called with the level token
 * ("warn" / "info") and the composed message after the message is
 * written to its stream. Must be safe to call from any thread.
 */
using LogHook = void (*)(const char *level, const std::string &msg);

/** Install (or clear, with nullptr) the process-wide log hook. */
void setLogHook(LogHook hook);

#define panic(...)                                                         \
    ::dvi::detail::panicAt(__FILE__, __LINE__, __VA_ARGS__)

#define fatal(...)                                                         \
    ::dvi::detail::fatalImpl(__FILE__, __LINE__,                           \
                             ::dvi::detail::composeMessage(__VA_ARGS__))

#define warn(...)                                                          \
    ::dvi::detail::warnImpl(::dvi::detail::composeMessage(__VA_ARGS__))

#define inform(...)                                                        \
    ::dvi::detail::informImpl(::dvi::detail::composeMessage(__VA_ARGS__))

/** Assert an invariant; panics (simulator bug) when violated. */
#define panic_if(cond, ...)                                                \
    do {                                                                   \
        if (cond) {                                                        \
            panic(__VA_ARGS__);                                            \
        }                                                                  \
    } while (0)

/** Reject a user-provided configuration; fatal when violated. */
#define fatal_if(cond, ...)                                                \
    do {                                                                   \
        if (cond) {                                                        \
            fatal(__VA_ARGS__);                                            \
        }                                                                  \
    } while (0)

} // namespace dvi

#endif // DVI_BASE_LOGGING_HH
