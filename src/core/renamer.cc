#include "core/renamer.hh"

#include <algorithm>

#include "base/logging.hh"

namespace dvi
{
namespace core
{

Renamer::Renamer(unsigned num_phys_regs) : numPhys(num_phys_regs)
{
    fatal_if(num_phys_regs < isa::numIntRegs + 1,
             "physical register file of ", num_phys_regs,
             " cannot hold the architectural state plus one rename");
    map.resize(isa::numIntRegs);
    isFree.assign(numPhys, 0);
    isMapped.assign(numPhys, 0);
    // Initial state: architectural register i in physical register i.
    for (unsigned r = 0; r < isa::numIntRegs; ++r) {
        map[r] = static_cast<PhysRegIndex>(r);
        isMapped[r] = 1;
    }
    for (unsigned p = isa::numIntRegs; p < numPhys; ++p) {
        freeList.push_back(static_cast<PhysRegIndex>(p));
        isFree[p] = 1;
    }
}

unsigned
Renamer::mappedCount() const
{
    unsigned n = 0;
    for (PhysRegIndex p : map)
        n += p != invalidPhysReg;
    return n;
}

void
Renamer::checkConservation(std::size_t in_flight_held) const
{
    const std::size_t accounted =
        freeList.size() + mappedCount() + in_flight_held;
    panic_if(accounted != numPhys,
             "physical register conservation violated: free=",
             freeList.size(), " mapped=", mappedCount(),
             " in-flight=", in_flight_held, " total=", numPhys);

    // Structural coherence of the O(1) flag arrays against the
    // authoritative map/free-list state. The flags guard the
    // hot-path safety checks (double free, free-while-mapped), so a
    // drifted flag would silently disable those checks; verify them
    // here in debug builds (the count above stays on in Release —
    // it is cheap and catches outright leaks).
#ifdef NDEBUG
    return;
#endif
    std::vector<std::uint8_t> mapped_ref(numPhys, 0);
    for (PhysRegIndex p : map) {
        if (p == invalidPhysReg)
            continue;
        panic_if(mapped_ref[static_cast<std::size_t>(p)],
                 "phys reg ", p, " mapped by two architectural "
                 "names");
        mapped_ref[static_cast<std::size_t>(p)] = 1;
    }
    std::vector<std::uint8_t> free_ref(numPhys, 0);
    for (PhysRegIndex p : freeList) {
        panic_if(free_ref[static_cast<std::size_t>(p)],
                 "phys reg ", p, " on the free list twice");
        free_ref[static_cast<std::size_t>(p)] = 1;
        panic_if(mapped_ref[static_cast<std::size_t>(p)],
                 "phys reg ", p, " both free and mapped");
    }
    for (unsigned p = 0; p < numPhys; ++p) {
        panic_if(isMapped[p] != mapped_ref[p],
                 "isMapped flag for phys reg ", p,
                 " disagrees with the map table");
        panic_if(isFree[p] != free_ref[p],
                 "isFree flag for phys reg ", p,
                 " disagrees with the free list");
    }
}

} // namespace core
} // namespace dvi
