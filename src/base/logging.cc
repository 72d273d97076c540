#include "base/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace dvi
{

namespace
{

std::atomic<LogHook> g_log_hook{nullptr};

/** One message, one stdio call: compose "<prefix><msg>\n" and hand
 * it to fwrite whole, so parallel workers never interleave
 * mid-line (POSIX stdio streams lock per call). */
void
writeWhole(std::FILE *to, const char *prefix,
           const std::string &msg)
{
    std::string line;
    line.reserve(std::char_traits<char>::length(prefix) +
                 msg.size() + 1);
    line += prefix;
    line += msg;
    line += '\n';
    std::fwrite(line.data(), 1, line.size(), to);
    std::fflush(to);
}

} // namespace

void
setLogHook(LogHook hook)
{
    g_log_hook.store(hook, std::memory_order_release);
}

namespace detail
{

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n  at %s:%d\n", msg.c_str(), file,
                 line);
    std::fflush(stderr);
    std::abort();
}

[[noreturn]] void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n  at %s:%d\n", msg.c_str(), file,
                 line);
    std::fflush(stderr);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    writeWhole(stderr, "warn: ", msg);
    if (LogHook hook = g_log_hook.load(std::memory_order_acquire))
        hook("warn", msg);
}

void
informImpl(const std::string &msg)
{
    writeWhole(stderr, "info: ", msg);
    if (LogHook hook = g_log_hook.load(std::memory_order_acquire))
        hook("info", msg);
}

} // namespace detail
} // namespace dvi
