#include "base/cli.hh"

#include <algorithm>
#include <csignal>
#include <cstdio>

namespace dvi
{
namespace cli
{

namespace
{

/** Print `label`, then `help` wrapped between these columns; a label
 * too wide for the first column gets a line of its own. */
constexpr std::size_t helpColumn = 22;
constexpr std::size_t helpWidth = 78;

void
printRow(const std::string &label, const std::string &help)
{
    std::string line = "  " + label;
    if (line.size() + 2 > helpColumn) {
        std::printf("%s\n", line.c_str());
        line.clear();
    }
    std::istringstream words(help);
    for (std::string word; words >> word;) {
        if (line.size() > helpColumn &&
            line.size() + 1 + word.size() > helpWidth) {
            std::printf("%s\n", line.c_str());
            line.clear();
        }
        line.resize(std::max(line.size() + 1, helpColumn), ' ');
        line += word;
    }
    std::printf("%s\n", line.c_str());
}

} // namespace

void
Parser::parse(int argc, char **argv) const
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printHelp(argv[0]);
            std::exit(0);
        }
        // A heading row has no name, so "" names no flag.
        const auto f = std::find_if(
            flags.begin(), flags.end(), [&](const Flag &row) {
                return !row.name.empty() && row.name == arg;
            });
        if (f == flags.end()) {
            printHelp(argv[0]);
            fatal("unknown argument '", arg, "'");
        }
        fatal_if(!f->value.empty() && i + 1 >= argc, arg,
                 " needs a value");
        f->act({f->name.c_str(), f->value.empty() ? nullptr : argv[++i]});
    }
}

void
Parser::printHelp(const char *argv0) const
{
    for (std::size_t i = 0; i < synopsis.size(); ++i)
        std::printf("%s %s %s\n", i ? "      " : "usage:", argv0,
                    synopsis[i].c_str());
    for (const Flag &f : flags) {
        if (f.name.empty())
            std::printf("\n%s\n", f.help.c_str());
        else
            printRow(f.value.empty() ? f.name : f.name + " " + f.value,
                     f.help);
    }
    printRow("--help", "this text");
    std::printf("%s", epilogue.c_str());
}

const std::atomic<bool> &
stopOnSignal()
{
    static std::atomic<bool> stop{false};
    const auto raise = [](int) { stop.store(true); };
    std::signal(SIGINT, raise);
    std::signal(SIGTERM, raise);
    return stop;
}

} // namespace cli
} // namespace dvi
