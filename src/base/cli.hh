/**
 * @file
 * Tiny helpers shared by the CLI front ends (dvi-run, dvi-fuzz,
 * dvi-lint, dvi-serve): strict argument parsing and whole-file
 * slurping, both fatal() on error with the offending flag or path
 * named.
 */

#ifndef DVI_BASE_CLI_HH
#define DVI_BASE_CLI_HH

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>

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

} // namespace cli
} // namespace dvi

#endif // DVI_BASE_CLI_HH
