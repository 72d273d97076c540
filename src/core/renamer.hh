/**
 * @file
 * MIPS R10000-style register renaming with DVI early reclamation.
 *
 * Conventional renaming frees the physical register previously mapped
 * to an architectural name only when a newer instruction writing the
 * same name commits. DVI adds a second reclamation path (§4, Fig. 4):
 * a committed kill of architectural register r frees the physical
 * register currently mapped to r and leaves r *unmapped*; the next
 * definition of r then has no previous mapping to free. Because
 * freeing is unrecoverable, the caller must only invoke the
 * commit-side operations for instructions known to be
 * non-speculative. The trace-driven core (DESIGN §2) renames only
 * correct-path instructions, so the map is never rolled back and
 * the class keeps no checkpoints.
 *
 * The map table entry for an unmapped name is invalidPhysReg; reading
 * an unmapped name is a program error (incorrect E-DVI — §7 "Errors
 * in E-DVI should be considered compiler errors").
 */

#ifndef DVI_CORE_RENAMER_HH
#define DVI_CORE_RENAMER_HH

#include <cstdint>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "isa/registers.hh"

namespace dvi
{
namespace core
{

/** Rename map + free list over one integer physical register file. */
class Renamer
{
  public:
    /**
     * @param num_phys_regs total physical registers; must be at least
     *        numIntRegs + 1 so one rename can always eventually
     *        proceed (the paper sweeps sizes from 34).
     */
    explicit Renamer(unsigned num_phys_regs);

    /** @name Decode-side (speculative) operations @{ */

    /** Current mapping; invalidPhysReg if the name is unmapped. */
    PhysRegIndex lookup(RegIndex arch) const { return map[arch]; }

    bool hasFree() const { return !freeList.empty(); }
    std::size_t freeCount() const { return freeList.size(); }

    /**
     * Allocate a new physical register for a destination write.
     * Returns {newPreg, prevPreg}; prevPreg (possibly invalid) must
     * be freed when the instruction commits. Panics when the free
     * list is empty — callers must check hasFree() and stall.
     */
    struct RenamedDest
    {
        PhysRegIndex newPreg;
        PhysRegIndex prevPreg;
    };

    RenamedDest
    renameDest(RegIndex arch)
    {
        panic_if(freeList.empty(),
                 "renameDest with empty free list (caller must "
                 "stall)");
        panic_if(arch >= isa::numIntRegs,
                 "renameDest of bad arch reg");
        RenamedDest out;
        out.newPreg = freeList.back();
        freeList.pop_back();
        isFree[static_cast<std::size_t>(out.newPreg)] = 0;
        isMapped[static_cast<std::size_t>(out.newPreg)] = 1;
        out.prevPreg = map[arch];
        if (out.prevPreg != invalidPhysReg)
            isMapped[static_cast<std::size_t>(out.prevPreg)] = 0;
        map[arch] = out.newPreg;
        return out;
    }

    /**
     * Apply a DVI kill to one register: unmap it and return the
     * previous mapping, which must be freed when the *killing*
     * instruction commits (not before — §4.1: reclamation only when
     * the DVI is known non-speculative). Returns invalidPhysReg when
     * the name was already unmapped.
     */
    PhysRegIndex
    killMapping(RegIndex arch)
    {
        panic_if(arch >= isa::numIntRegs,
                 "killMapping of bad arch reg");
        PhysRegIndex prev = map[arch];
        map[arch] = invalidPhysReg;
        if (prev != invalidPhysReg)
            isMapped[static_cast<std::size_t>(prev)] = 0;
        return prev;
    }

    /** @} */

    /** @name Commit-side (non-speculative) operations @{ */

    /**
     * Return a physical register to the free list. The safety checks
     * (double free, freeing a live mapping) are O(1) against the
     * per-register flags — this runs once per committed instruction,
     * on the simulator's hottest path.
     */
    void
    freePhysReg(PhysRegIndex preg)
    {
        panic_if(preg == invalidPhysReg, "freeing invalid phys reg");
        panic_if(preg < 0 ||
                     preg >= static_cast<PhysRegIndex>(numPhys),
                 "freeing out-of-range phys reg ", preg);
        panic_if(isFree[static_cast<std::size_t>(preg)],
                 "double free of phys reg ", preg);
        panic_if(isMapped[static_cast<std::size_t>(preg)],
                 "freeing phys reg ", preg, " still mapped");
        freeList.push_back(preg);
        isFree[static_cast<std::size_t>(preg)] = 1;
    }

    /** @} */

    /** @name Introspection (tests, statistics) @{ */
    unsigned numPhysRegs() const { return numPhys; }

    /** Number of architectural names currently mapped. */
    unsigned mappedCount() const;

    /**
     * Invariant: every physical register is free, mapped, or owned by
     * an in-flight instruction (pending destination or pending free).
     * The caller supplies the in-flight count; panics on violation.
     */
    void checkConservation(std::size_t in_flight_held) const;
    /** @} */

  private:
    unsigned numPhys;
    std::vector<PhysRegIndex> map;       ///< arch -> phys
    std::vector<PhysRegIndex> freeList;  ///< LIFO free stack
    /** @name O(1) flag arrays
     * 16-bit, not 8-bit, flags: a store through a character type may
     * alias any object, which would make every caller on the rename
     * and commit paths reload its state after each flag write. @{ */
    std::vector<std::uint16_t> isFree;   ///< O(1) double-free check
    /** Physical registers currently named by the map; O(1)
     * free-while-mapped check. */
    std::vector<std::uint16_t> isMapped;
    /** @} */
};

} // namespace core
} // namespace dvi

#endif // DVI_CORE_RENAMER_HH
