/**
 * @file
 * C++17 replacements for the <bit> operations the tree relies on
 * (std::popcount / std::countr_zero / std::bit_cast are C++20), and
 * the ISA's wrapping integer arithmetic, which signed C++ operators
 * leave undefined on overflow.
 */

#ifndef DVI_BASE_BITS_HH
#define DVI_BASE_BITS_HH

#include <cstdint>
#include <cstring>
#include <type_traits>

namespace dvi
{

/** Number of set bits in w. */
inline unsigned
popcount64(std::uint64_t w)
{
#if defined(__GNUC__) || defined(__clang__)
    return static_cast<unsigned>(__builtin_popcountll(w));
#else
    unsigned n = 0;
    while (w) {
        w &= w - 1;
        ++n;
    }
    return n;
#endif
}

/** Index of the lowest set bit; w must be non-zero. */
inline unsigned
countrZero64(std::uint64_t w)
{
#if defined(__GNUC__) || defined(__clang__)
    return static_cast<unsigned>(__builtin_ctzll(w));
#else
    unsigned n = 0;
    while (!(w & 1)) {
        w >>= 1;
        ++n;
    }
    return n;
#endif
}

/** Rotate right by k (0-63). */
inline std::uint64_t
rotateRight64(std::uint64_t w, unsigned k)
{
    return k == 0 ? w : (w >> k) | (w << (64 - k));
}

/** std::bit_cast for C++17: reinterpret the bytes of From as To. */
template <typename To, typename From>
To
bitCast(const From &from)
{
    static_assert(sizeof(To) == sizeof(From), "bitCast size mismatch");
    static_assert(std::is_trivially_copyable<To>::value &&
                      std::is_trivially_copyable<From>::value,
                  "bitCast needs trivially copyable types");
    To to;
    std::memcpy(&to, &from, sizeof(To));
    return to;
}

/** @name Two's-complement arithmetic
 * Both emulator tiers compute the ISA's 64-bit integer ops with
 * these, so overflow wraps instead of being undefined. @{ */
inline std::int64_t
wrapAdd(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                     static_cast<std::uint64_t>(b));
}

inline std::int64_t
wrapSub(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                     static_cast<std::uint64_t>(b));
}

inline std::int64_t
wrapMul(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                     static_cast<std::uint64_t>(b));
}

/** Signed division that never traps: x / 0 = 0 (this ISA's rule)
 * and INT64_MIN / -1 = INT64_MIN (RISC-V's). */
inline std::int64_t
wrapDiv(std::int64_t a, std::int64_t b)
{
    if (b == 0)
        return 0;
    return b == -1 ? wrapSub(0, a) : a / b;
}
/** @} */

} // namespace dvi

#endif // DVI_BASE_BITS_HH
