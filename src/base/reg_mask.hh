/**
 * @file
 * RegMask — a bit set over architectural register indices.
 *
 * Kill masks (E-DVI), the ABI's I-DVI mask, the LVM, and LVM-Stack
 * entries are all sets of architectural registers; this type gives them
 * one efficient, well-tested representation.
 */

#ifndef DVI_BASE_REG_MASK_HH
#define DVI_BASE_REG_MASK_HH

#include <cstdint>
#include <initializer_list>
#include <string>

#include "base/bits.hh"
#include "base/logging.hh"
#include "base/types.hh"

namespace dvi
{

/** Bit set over up to 64 architectural register indices. */
class RegMask
{
  public:
    constexpr RegMask() : bits(0) {}
    constexpr explicit RegMask(std::uint64_t raw) : bits(raw) {}

    RegMask(std::initializer_list<RegIndex> regs) : bits(0)
    {
        for (RegIndex r : regs)
            set(r);
    }

    /** Mask with bits [0, n) all set. */
    static RegMask
    firstN(unsigned n)
    {
        panic_if(n > 64, "RegMask::firstN(", n, ") out of range");
        if (n == 64)
            return RegMask(~0ull);
        return RegMask((1ull << n) - 1);
    }

    /** Forced inline: the emulator's FP-write handlers call it, and a
     * whole-program (LTO) build stops inlining into large functions
     * once its growth budget is spent. */
    [[gnu::always_inline]] void
    set(RegIndex r)
    {
        panic_if(r >= 64, "RegMask::set(", int(r), ") out of range");
        bits |= 1ull << r;
    }

    void
    clear(RegIndex r)
    {
        panic_if(r >= 64, "RegMask::clear(", int(r), ") out of range");
        bits &= ~(1ull << r);
    }

    void
    assign(RegIndex r, bool value)
    {
        if (value)
            set(r);
        else
            clear(r);
    }

    bool
    test(RegIndex r) const
    {
        panic_if(r >= 64, "RegMask::test(", int(r), ") out of range");
        return bits & (1ull << r);
    }

    constexpr bool empty() const { return bits == 0; }
    unsigned count() const { return popcount64(bits); }
    constexpr std::uint64_t raw() const { return bits; }
    void reset() { bits = 0; }

    constexpr RegMask
    operator|(RegMask o) const
    {
        return RegMask(bits | o.bits);
    }
    constexpr RegMask
    operator&(RegMask o) const
    {
        return RegMask(bits & o.bits);
    }
    constexpr RegMask
    operator^(RegMask o) const
    {
        return RegMask(bits ^ o.bits);
    }
    constexpr RegMask operator~() const { return RegMask(~bits); }
    RegMask &operator|=(RegMask o) { bits |= o.bits; return *this; }
    RegMask &operator&=(RegMask o) { bits &= o.bits; return *this; }
    bool operator==(const RegMask &o) const { return bits == o.bits; }
    bool operator!=(const RegMask &o) const { return bits != o.bits; }

    /** Set difference: bits set in *this but not in o. */
    constexpr RegMask
    minus(RegMask o) const
    {
        return RegMask(bits & ~o.bits);
    }

    /** Invoke f(reg) for every set bit, lowest first. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        std::uint64_t w = bits;
        while (w) {
            RegIndex r = static_cast<RegIndex>(countrZero64(w));
            f(r);
            w &= w - 1;
        }
    }

    /** Render as e.g. "{r3, r16, r17}". */
    std::string toString() const;

  private:
    std::uint64_t bits;
};

} // namespace dvi

#endif // DVI_BASE_REG_MASK_HH
