/**
 * @file
 * Trace-driven out-of-order core with the paper's three DVI hooks.
 *
 * Pipeline: fetch (I-cache, combining branch predictor, BTB, RAS) →
 * decode/rename/dispatch (LVM update, save/restore squashing, R10000
 * renaming with DVI kills) → issue (unified window, functional
 * units, cache ports, load/store ordering with store-to-load
 * forwarding) → complete → in-order commit (physical register
 * reclamation, including DVI early reclamation; store writeback
 * through a cache port; predictor training).
 *
 * The instruction stream is the correct execution path produced by
 * the functional emulator; a mispredicted branch stalls fetch until
 * it resolves rather than fetching wrong-path instructions (see
 * DESIGN.md §2 for why this substitution preserves the penalty).
 *
 * Scheduling is event-driven (see DESIGN.md "Event-driven timing
 * core"): instead of scanning the whole window every cycle, the core
 * keeps a ready bitmap ordered by age, per-physical-register wakeup
 * lists that move instructions into it when their last operand's
 * producer completes, a calendar wheel of pending completions
 * keyed by doneCycle, and a last-store-to-address table for
 * forwarding. When
 * a cycle makes no progress the clock jumps straight to the next
 * completion or fetch-resume event, bulk-accounting the per-cycle
 * stall statistics. All of this is bookkeeping only: CoreStats is
 * cycle-for-cycle, bit-for-bit identical to the original scan-based
 * scheduler (enforced by tests/uarch_golden_test.cc).
 *
 * DVI hooks, mapped to the paper:
 *  - §4.1: a kill (explicit or implied by call/return) unmaps the
 *    architectural register at rename; the previous mapping is freed
 *    when the killing instruction commits (never speculatively).
 *  - §5.2 LVM scheme: a live-store whose data register is dead in
 *    the LVM is squashed at decode — it consumes fetch/decode
 *    bandwidth but no window entry, issue slot, cache port, or
 *    commit slot.
 *  - §5.2 LVM-Stack scheme: calls push LVM snapshots; a live-load
 *    dead in the top snapshot is squashed the same way; returns pop
 *    and merge the snapshot's callee-saved bits back into the LVM.
 */

#ifndef DVI_UARCH_CORE_HH
#define DVI_UARCH_CORE_HH

#include <cstdint>
#include <vector>

#include "arch/emulator.hh"
#include "base/ring_buffer.hh"
#include "core/lvm.hh"
#include "core/lvm_stack.hh"
#include "core/renamer.hh"
#include "isa/decode.hh"
#include "mem/cache.hh"
#include "predictor/branch_predictor.hh"
#include "uarch/core_config.hh"
#include "uarch/core_stats.hh"

namespace dvi
{
namespace uarch
{

/** Trace-driven out-of-order core. */
class Core
{
  public:
    Core(const comp::Executable &exe, const CoreConfig &config);

    /** Run to completion (or configured limits); returns stats. */
    const CoreStats &run();

    const CoreStats &stats() const { return stats_; }
    const core::LvmStack &lvmStack() const { return lvmStack_; }
    const arch::Emulator &emulator() const { return emu; }

  private:
    enum class EntryState : std::uint8_t
    {
        Waiting,
        Issued,
        Done,
    };

    /** Sentinel window-slot / wait-node index. */
    static constexpr std::uint32_t noSlot = ~0u;

    /** One unified-window (RUU) entry. Entries occupy a stable
     * physical slot in the window ring for their whole lifetime, so
     * the scheduler's side structures (ready bitmap, wakeup lists,
     * completion wheel) address them by slot. Holds only what issue,
     * complete and commit read: the trace fields pc/effAddr/taken and
     * the decoded class bits. */
    struct WindowEntry
    {
        InstSeqNum seq;
        Addr effAddr;
        Cycle doneCycle;
        std::uint32_t pc;

        /** Next-older in-window store in the same forwarding-table
         * bucket; noSlot at the chain tail. */
        std::uint32_t prevSameBucket;
        /** Next slot in the same completion-wheel bucket. */
        std::uint32_t wheelNext;
        /** Wait nodes of consumers waiting on this entry's FP write;
         * woken when it completes. */
        std::uint32_t fpWaiters;

        /** Integer destination; invalidPhysReg when none. */
        PhysRegIndex destPreg;
        /** Mapping freed at commit; invalidPhysReg when none. */
        PhysRegIndex prevPreg;

        // No std::uint8_t fields: a store through a character type
        // may alias any object, and the scheduler would reload its
        // state after every such write.
        std::uint16_t flags;  ///< isa::DecodedInst class flags
        std::uint16_t latency;
        /** Pending source operands; ready to issue at zero. */
        std::uint16_t waitCount;
        /** Mappings this entry's committed DVI kill releases: count
         * of this entry's slice of killFreeQueue_ (entries commit in
         * order, so the queue pops in dispatch order). */
        std::uint16_t killFreeCount;
        isa::FuClass fu;
        EntryState state;
        bool taken;
        bool mispredicted;  ///< resolution unblocks fetch

        bool is(std::uint16_t f) const { return (flags & f) != 0; }
    };

    void doCommit();
    void doComplete();
    void doIssue();
    void doDispatch();
    void doFetch();

    /** True when a trace record is ready at fetchPos_, refilling the
     * trace buffer from the emulator when all are fetched. */
    bool
    nextTraceRecord()
    {
        return fetchPos_ < traceLen_ || refillTrace();
    }
    bool refillTrace();

    /**
     * Debug-build invariant hook (§7 of the paper): a dispatched
     * (hence committed — the trace is the correct path) instruction
     * must never read an architectural register that DVI killed: its
     * renamer mapping may be gone (early reclamation) and its LVM
     * bit clear. The one legal dead read is a live-store's data
     * register — saving a dead value is exactly what the hardware
     * squashes, and is harmless when executed with elimSaves off.
     * Catches incorrect E-DVI (and fuzz-injected kill-mask faults)
     * at the first consuming instruction (§7: "Errors in E-DVI
     * should be considered compiler errors"), and throws a permanent
     * base::Fault naming it, so a campaign quarantines the job and
     * the fuzz oracle reports it instead of the process aborting.
     */
    void checkDispatchReads(const isa::DecodedInst &d,
                            const PhysRegIndex src_pregs[2],
                            std::uint32_t pc) const;

    /** Take the next window slot for `tr` and initialize every field
     * of its entry. */
    WindowEntry &allocEntry(const arch::TraceRecord &tr,
                            const isa::DecodedInst &d);
    void dispatchKill(const arch::TraceRecord &tr,
                      const isa::DecodedInst &d);
    void applyKillToRenamer(RegMask mask, WindowEntry &entry);

    /** Compute waitCount for a just-dispatched entry, linking its
     * wait nodes onto producer lists; marks it ready when zero. */
    void initReadiness(WindowEntry &e, std::uint32_t slot,
                       const isa::DecodedInst &d,
                       const PhysRegIndex src_pregs[2],
                       const InstSeqNum fp_producers[2]);

    /** Decrement the waitCount of every consumer on the wait-node
     * list at `head`; ready at zero. Empties the list. */
    void wakeWaiters(std::uint32_t &head);

    /** Advance the clock over provably idle cycles to the next
     * completion / fetch-resume event, bulk-adding the per-cycle
     * stall statistics the scan-based loop would have counted. */
    void skipDeadCycles();

    /** @name Age-ordered slot bitmaps @{ */
    void setBit(std::vector<std::uint64_t> &bits, std::size_t slot)
    {
        bits[slot >> 6] |= 1ull << (slot & 63);
    }
    void clearBit(std::vector<std::uint64_t> &bits, std::size_t slot)
    {
        bits[slot >> 6] &= ~(1ull << (slot & 63));
    }
    template <typename F>
    void forEachSetSlot(const std::vector<std::uint64_t> &bits,
                        F &&f) const;
    /** @} */

    CoreConfig cfg;
    CoreStats stats_;

    /** Owns the binary (a private copy) and its shared translation. */
    arch::Emulator emu;
    /** Per-pc decode table of the binary, owned by the translation
     * the emulator holds (built once per binary, not per core). */
    const isa::DecodedInst *decoded_;

    /**
     * Trace records from the emulator. [dispatchPos_, fetchPos_) is
     * the fetch queue (records fetched, not yet decoded) and
     * [fetchPos_, traceLen_) the records not yet fetched. A refill
     * moves the fetch queue to the front and appends a new batch, so
     * records are never copied into a separate queue.
     */
    std::vector<arch::TraceRecord> trace_;
    std::uint32_t dispatchPos_ = 0;
    std::uint32_t fetchPos_ = 0;
    std::uint32_t traceLen_ = 0;

    std::uint32_t
    fetchQueueSize() const
    {
        return fetchPos_ - dispatchPos_;
    }

    core::Renamer renamer;
    core::Lvm lvm;
    core::LvmStack lvmStack_;
    /** Cycle each physical register's value is ready, indexed by
     * preg + 1: slot 0 stands for invalidPhysReg (an absent or
     * unmapped source, always ready) and stays 0, so operand
     * readiness needs no validity branch. */
    std::vector<Cycle> pregReadyAt_;
    /** Last dispatched writer of each architectural FP register. FP
     * registers are not renamed (the paper's experiments target the
     * integer file), so FP readiness tracks the producing writer,
     * not the register. */
    std::vector<InstSeqNum> fpWriterSeq;

    /**
     * Wakeup lists, linked through fixed per-slot wait nodes: node
     * 4 * slot + k is source operand k of the entry in that slot
     * (k = 0, 1 integer; 2, 3 FP), and waitNext_ chains the nodes of
     * one list. wakeHead_ heads the list of consumers waiting on each
     * physical register's pending write (indexed by preg + 1 like
     * pregReadyAt_; slot 0 stays empty); WindowEntry::fpWaiters heads
     * the list waiting on an FP producer.
     */
    std::vector<std::uint32_t> wakeHead_;
    std::vector<std::uint32_t> waitNext_;

    mem::MemoryHierarchy memsys;
    predictor::BranchPredictor bpred;
    predictor::Btb btb;
    predictor::ReturnAddressStack ras;

    RingBuffer<WindowEntry> window;

    /** Waiting entries whose operands are all ready, by slot. */
    std::vector<std::uint64_t> readyBits_;
    /** Stores still in EntryState::Waiting, by slot (ordering gate
     * for loads). */
    std::vector<std::uint64_t> waitingStoreBits_;

    /**
     * Pending completions as a calendar wheel: bucket (c & mask)
     * heads a list, linked through WindowEntry::wheelNext, of the
     * slots whose doneCycle is c. Sized past the largest possible
     * execution latency, so a bucket never aliases two cycles and
     * doComplete drains exactly bucket[now & mask].
     */
    std::vector<std::uint32_t> wheelHead_;
    Cycle wheelMask_ = 0;
    std::size_t pendingCompletions_ = 0;

    /** Earliest cycle >= now holding a pending completion;
     * infiniteCycle when none. O(wheel) scan, used only when the
     * clock is about to skip. */
    Cycle nextCompletionCycle() const;

    /**
     * Store-to-load forwarding table: a direct-mapped bucket array
     * over effective addresses whose chains thread through the
     * window slots (prevSameBucket, youngest first). Bounded by the
     * window — no allocation, rehash, or erase on the hot path;
     * maintained at dispatch and commit instead of scanned per
     * issue. Chains hold only in-window stores, so a load probe
     * walks at most the stores sharing its bucket.
     */
    std::vector<std::uint32_t> storeBuckets_;
    Addr storeBucketMask_ = 0;

    std::size_t
    storeBucketOf(Addr addr) const
    {
        // Simulated data is 8-byte granular; fold some upper bits
        // so stack frames and globals spread across buckets.
        return static_cast<std::size_t>(((addr >> 3) ^ (addr >> 11)) &
                                        storeBucketMask_);
    }

    /** Physical registers held by in-flight instructions (pending
     * prevPreg frees plus pending kill frees), maintained
     * incrementally for Renamer::checkConservation. */
    std::size_t heldCount_ = 0;

    /** Pending DVI kill frees, dispatch-ordered; each window entry
     * owns the next killFreeCount of them at commit. Bounded by the
     * physical register file (a register is held at most once). */
    RingBuffer<PhysRegIndex> killFreeQueue_;

    Cycle now = 0;
    InstSeqNum nextSeq = 1;

    /** Next committedProgInsts threshold that fires
     * cfg.sampleHook; ~0 (never reached) when sampling is off, so
     * the run loop pays one compare per cycle either way. */
    std::uint64_t nextSampleAt_ = ~0ull;

    bool fetchBlocked = false;       ///< mispredict: wait for resolve
    Cycle fetchAvailCycle = 0;       ///< I-cache miss / redirect
    Addr lastFetchLine = ~0ull;

    /** log2(il1 line bytes) when it is a power of two (the fetch
     * locality check without a division per instruction); 0 falls
     * back to division. A 1-byte "line" (shift 0) also divides,
     * which is equivalent. */
    unsigned il1LineShift_ = 0;

    /** Any set ready bit (cheap word-OR early-out for doIssue). */
    bool
    readyAny() const
    {
        std::uint64_t any = 0;
        for (std::uint64_t w : readyBits_)
            any |= w;
        return any != 0;
    }

    unsigned portsUsedThisCycle = 0;
    Cycle lastCommitCycle = 0;

    /** @name Per-cycle progress tracking for dead-cycle skipping @{ */
    bool cycleProgress_ = false;
    bool dispStallWindow_ = false;
    bool dispStallRename_ = false;
    /** @} */
};

} // namespace uarch
} // namespace dvi

#endif // DVI_UARCH_CORE_HH
