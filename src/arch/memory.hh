/**
 * @file
 * Sparse 64-bit-word memory for the functional emulator.
 *
 * The simulated machine is word-oriented: all data accesses are
 * 8-byte aligned 64-bit words (the compiler only emits such
 * accesses). Unwritten locations read as zero, which the workload
 * generators rely on for zero-initialized global arrays.
 *
 * Storage is paged: 512-word (4 KB) pages in a hash map, fronted by
 * a 16-set direct-mapped page table indexed by the low bits of the
 * page number. Emulated programs touch few pages (stack frames, the
 * global window; no fig05, fig09 or fig12 run held more than 9), so
 * nearly every access hits: one tag compare and one indexed load or
 * store (a single last-page entry would miss on a third of all
 * accesses, since stack and global pages alternate). `read` and
 * `write` are forced inline so both emulator tiers carry the hit
 * path in their dispatch loops; the map lookup and page allocation
 * of a miss stay out of line. Pages never move once allocated
 * (unique_ptr targets), which keeps the table's pointers valid.
 */

#ifndef DVI_ARCH_MEMORY_HH
#define DVI_ARCH_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "base/logging.hh"
#include "base/types.hh"

namespace dvi
{
namespace arch
{

/** Sparse word-addressed memory. */
class Memory
{
    static constexpr unsigned pageShift = 9; ///< 512 words = 4 KB
    static constexpr std::uint64_t pageWords = std::uint64_t(1) << pageShift;
    static constexpr std::uint64_t pageMask = pageWords - 1;
    static constexpr std::uint64_t numSets = 16;

    struct Page
    {
        std::array<std::int64_t, pageWords> data{};
    };

    /** One page-table set. Page numbers are below 2^52, so the
     * initial tag never matches and an empty set needs no valid
     * bit. */
    struct Set
    {
        std::uint64_t tag = ~std::uint64_t(0);
        Page *page = nullptr;
    };

  public:
    [[gnu::always_inline]] std::int64_t
    read(Addr addr) const
    {
        panic_if(addr % 8 != 0, "unaligned read at ", addr);
        const std::uint64_t w = addr >> 3;
        const std::uint64_t idx = w >> pageShift;
        const Set &s = sets[idx % numSets];
        if (s.tag == idx)
            return s.page->data[w & pageMask];
        return readMiss(idx, w & pageMask);
    }

    [[gnu::always_inline]] void
    write(Addr addr, std::int64_t value)
    {
        panic_if(addr % 8 != 0, "unaligned write at ", addr);
        const std::uint64_t w = addr >> 3;
        const std::uint64_t idx = w >> pageShift;
        const Set &s = sets[idx % numSets];
        if (s.tag == idx)
            s.page->data[w & pageMask] = value;
        else
            writeMiss(idx, w & pageMask, value);
    }

  private:
    /** A read whose page is not in the table: zero when the page was
     * never written (and nothing is allocated), else the word, with
     * the page installed in its set. */
    [[gnu::noinline]] std::int64_t
    readMiss(std::uint64_t idx, std::uint64_t slot) const
    {
        const auto it = pages.find(idx);
        if (it == pages.end())
            return 0;
        sets[idx % numSets] = Set{idx, it->second.get()};
        return it->second->data[slot];
    }

    /** A write whose page is not in the table: allocate the page on
     * first touch, install it in its set, store. */
    [[gnu::noinline]] void
    writeMiss(std::uint64_t idx, std::uint64_t slot, std::int64_t value)
    {
        std::unique_ptr<Page> &page = pages[idx];
        if (!page)
            page = std::make_unique<Page>();
        sets[idx % numSets] = Set{idx, page.get()};
        page->data[slot] = value;
    }

    std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages;

    /** Direct-mapped front of `pages`; a cache, so `read` may fill it. */
    mutable std::array<Set, numSets> sets{};
};

} // namespace arch
} // namespace dvi

#endif // DVI_ARCH_MEMORY_HH
