#include "compiler/executable.hh"

#include <sstream>

namespace dvi
{
namespace comp
{

int
Executable::procOf(int idx) const
{
    for (std::size_t p = 0; p < procs.size(); ++p)
        if (idx >= procs[p].entry && idx < procs[p].end)
            return static_cast<int>(p);
    return -1;
}

std::uint64_t
Executable::countKills() const
{
    std::uint64_t n = 0;
    for (const auto &inst : code)
        n += inst.isKill();
    return n;
}

std::string
Executable::disassemble(int from, int to) const
{
    std::ostringstream os;
    for (int i = from; i < to && i < static_cast<int>(code.size());
         ++i) {
        for (const auto &p : procs)
            if (p.entry == i)
                os << p.name << ":\n";
        os << "  " << i << ": "
           << code[static_cast<std::size_t>(i)].toString() << "\n";
    }
    return os.str();
}

} // namespace comp
} // namespace dvi
