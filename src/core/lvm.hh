/**
 * @file
 * The Live Value Mask (LVM) — §4.1 of the paper.
 *
 * One state bit per architectural register: set while the register's
 * value is live, clear once DVI (explicit kill, or implicit
 * call/return convention) asserts it dead. The mask is updated at the
 * decode stage by destination renaming and by DVI-providing
 * instructions; because those updates can be speculative, the
 * structure supports cheap snapshot/restore (the same checkpointing
 * mechanism that protects the rename map table, §7).
 */

#ifndef DVI_CORE_LVM_HH
#define DVI_CORE_LVM_HH

#include "base/reg_mask.hh"
#include "base/types.hh"
#include "isa/registers.hh"

namespace dvi
{
namespace core
{

/** Live Value Mask over the integer architectural registers. */
class Lvm
{
  public:
    /** Registers start conservatively live unless specified. */
    explicit Lvm(RegMask initial = RegMask::firstN(isa::numIntRegs))
        : live(initial)
    {}

    bool isLive(RegIndex r) const { return live.test(r); }

    /** Destination renaming marks the register live. */
    void define(RegIndex r) { live.set(r); }

    /** Apply a DVI kill mask (E-DVI or I-DVI). */
    void kill(RegMask mask) { live = live.minus(mask); }

    void killOne(RegIndex r) { live.clear(r); }

    const RegMask &mask() const { return live; }

    /** Number of live registers within a subset of interest. */
    unsigned
    liveCount(RegMask within) const
    {
        return (live & within).count();
    }

    /** @name Speculation / context-switch support @{ */
    RegMask snapshot() const { return live; }
    void restore(RegMask saved) { live = saved; }

    /**
     * Return-time merge (§5.2, LVM-Stack scheme step 4): the popped
     * snapshot replaces the bits in `mergeMask` (the callee-saved
     * set) while other bits keep their current values — the return
     * value and temporaries are governed by the current LVM and
     * I-DVI, not the caller's stale snapshot.
     */
    void
    mergeFrom(RegMask saved, RegMask merge_mask)
    {
        live = live.minus(merge_mask) | (saved & merge_mask);
    }
    /** @} */

  private:
    RegMask live;
};

} // namespace core
} // namespace dvi

#endif // DVI_CORE_LVM_HH
