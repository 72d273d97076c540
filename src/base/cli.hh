/**
 * @file
 * The one command-line front end of the tools (dvi-run, dvi-fuzz,
 * dvi-lint, dvi-serve).
 *
 * A tool declares each flag once, as a row of a table: its name, its
 * value's placeholder, its help text and its action. One Parser runs
 * the actions in command-line order and prints --help from the same
 * rows, so the help cannot drift from what the parser accepts. Rows
 * the tools share sit beside what they configure: --seed
 * (base/test_seed), --chaos (base/failpoint), --inject-kill-bit
 * (fuzz/oracle) and the telemetry rows (obs/cli_telemetry).
 *
 * Also here: strict integer and fraction parsing and whole-file
 * reads and writes, fatal() on error with the flag or path named,
 * and the SIGINT/SIGTERM stop flag.
 */

#ifndef DVI_BASE_CLI_HH
#define DVI_BASE_CLI_HH

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/logging.hh"

namespace dvi
{
namespace cli
{

/** Parse a decimal integer argument into T, fatal on anything but
 * digits or on a value above T's maximum, so callers never narrow
 * unchecked (strtoull alone would take a sign, leading blanks and
 * an overflow). */
template <typename T = std::uint64_t>
T
parseUint(const char *flag, const char *text)
{
    static_assert(std::is_unsigned_v<T>);
    T v = 0;
    bool ok = *text != '\0';
    for (const char *p = text; ok && *p; ++p) {
        const unsigned digit = static_cast<unsigned char>(*p) - '0';
        ok = digit < 10 &&
             v <= (std::numeric_limits<T>::max() - digit) / 10;
        v = static_cast<T>(v * 10 + digit);
    }
    fatal_if(!ok, "bad value for ", flag, ": '", text, "' (want 0..",
             +std::numeric_limits<T>::max(), ")");
    return v;
}

/** Parse a fraction in 0..1; fatal on garbage, NaN or a value out of
 * range. */
inline double
parseFraction(const char *flag, const char *text)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    // Written so NaN, which fails every comparison, is rejected.
    fatal_if(end == text || *end != '\0' || !(v >= 0.0 && v <= 1.0),
             "bad value for ", flag, ": '", text, "' (want 0..1)");
    return v;
}

/** Read a whole file; fatal when it cannot be opened or read. */
inline std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatal_if(!in, "cannot open '", path, "' for reading");
    std::ostringstream buf;
    buf << in.rdbuf();
    fatal_if(!in, "read from '", path, "' failed");
    return buf.str();
}

/** Write `text` to `path`; fatal when it cannot be opened or
 * written. */
inline void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    fatal_if(!out, "cannot open '", path, "' for writing");
    out << text;
    out.flush();
    fatal_if(!out, "write to '", path, "' failed");
}

/** What a flag's action receives: the flag's name, for messages,
 * and its value (nullptr for a switch). */
struct Arg
{
    const char *flag;
    const char *text;
};

using Action = std::function<void(const Arg &)>;

/** One row of a tool's flag table. */
struct Flag
{
    std::string name;   ///< "--jobs"; empty for a heading row
    std::string value;  ///< the value's placeholder; empty for a switch
    std::string help;   ///< one paragraph, wrapped by --help
    Action act;
};

/** A heading row: --help prints `text` on a line of its own. */
inline Flag
heading(std::string text)
{
    return {"", "", std::move(text), nullptr};
}

/** The action storing the value in `out`, parsed by out's type: text,
 * a fraction (parseFraction) or an integer (parseUint); an optional
 * integer is set only when its flag is given. */
template <typename T>
Action
store(T &out)
{
    return [&out](const Arg &a) {
        if constexpr (std::is_same_v<T, std::string>)
            out = a.text;
        else if constexpr (std::is_same_v<T, double>)
            out = parseFraction(a.flag, a.text);
        else
            out = parseUint<T>(a.flag, a.text);
    };
}

template <typename T>
Action
store(std::optional<T> &out)
{
    return [&out](const Arg &a) { out = parseUint<T>(a.flag, a.text); };
}

/** The action of a switch: set `out` to `value`. */
inline Action
set(bool &out, bool value = true)
{
    return [&out, value](const Arg &) { out = value; };
}

/** A tool's command line: its synopsis forms (without the program
 * name), its flag table and the text --help ends with. */
struct Parser
{
    std::vector<std::string> synopsis;
    std::vector<Flag> flags;
    std::string epilogue = {};

    /** Act on each argument in command-line order. --help or -h
     * prints the help and exits 0; the first unknown argument,
     * missing value or bad value exits 1 naming it. */
    void parse(int argc, char **argv) const;

    /** Print the synopsis, every row and the epilogue to stdout. */
    void printHelp(const char *argv0) const;
};

/** Make SIGINT and SIGTERM raise the returned flag (the handler does
 * nothing else, so it is async-signal-safe); the tool polls it or
 * hands it to its jobs as their cancel flag. */
const std::atomic<bool> &stopOnSignal();

} // namespace cli
} // namespace dvi

#endif // DVI_BASE_CLI_HH
