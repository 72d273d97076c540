/**
 * @file
 * The LVM-Stack — §5.2 of the paper.
 *
 * A small hardware stack of LVM snapshots. A procedure call pushes
 * the current LVM; the callee's epilogue restores consult the top
 * entry (the same liveness information that squashed the matching
 * saves at entry); the return pops and merges the snapshot back into
 * the LVM.
 *
 * The hardware is a circular buffer: it "wraps around on overflow and
 * assumes an empty stack on underflow" — an underflowing pop or an
 * empty-top lookup conservatively reports every register live, so
 * deeper-than-buffer call chains merely lose optimization, never
 * correctness. The paper simulates 16 entries and reports that this
 * captures nearly 100% of the unbounded-stack benefit (94% for li).
 */

#ifndef DVI_CORE_LVM_STACK_HH
#define DVI_CORE_LVM_STACK_HH

#include <cstdint>
#include <vector>

#include "base/reg_mask.hh"
#include "isa/registers.hh"

namespace dvi
{
namespace core
{

/** Circular stack of LVM snapshots. */
class LvmStack
{
  public:
    /**
     * @param depth buffer entries; 0 means unbounded (the idealized
     *              structure used as an oracle and in the depth
     *              ablation).
     */
    explicit LvmStack(unsigned depth = 16)
        : depth_(depth)
    {}

    /** Push a snapshot; overwrites the oldest entry when full. */
    void
    push(RegMask snapshot)
    {
        ++pushes_;
        if (depth_ != 0 && entries.size() == depth_) {
            entries.erase(entries.begin());
            ++overflows_;
        }
        entries.push_back(snapshot);
    }

    /**
     * Pop the newest snapshot; on underflow returns the conservative
     * all-live mask.
     */
    RegMask
    pop()
    {
        ++pops_;
        if (entries.empty()) {
            ++underflows_;
            return allLive();
        }
        RegMask top = entries.back();
        entries.pop_back();
        return top;
    }

    /** Newest snapshot without popping; all-live when empty. */
    RegMask
    top() const
    {
        return entries.empty() ? allLive() : entries.back();
    }

    bool empty() const { return entries.empty(); }
    std::size_t size() const { return entries.size(); }
    unsigned depth() const { return depth_; }

    /** @name Occupancy / effectiveness statistics @{ */
    std::uint64_t pushes() const { return pushes_; }
    std::uint64_t pops() const { return pops_; }
    std::uint64_t overflows() const { return overflows_; }
    std::uint64_t underflows() const { return underflows_; }
    /** @} */

    static RegMask allLive() { return RegMask::firstN(isa::numIntRegs); }

  private:
    unsigned depth_;
    std::vector<RegMask> entries;
    std::uint64_t pushes_ = 0;
    std::uint64_t pops_ = 0;
    std::uint64_t overflows_ = 0;
    std::uint64_t underflows_ = 0;
};

} // namespace core
} // namespace dvi

#endif // DVI_CORE_LVM_STACK_HH
