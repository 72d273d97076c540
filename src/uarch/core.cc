#include "uarch/core.hh"

#include <algorithm>
#include <cstdio>

#include "base/bits.hh"
#include "base/fault.hh"
#include "base/logging.hh"
#include "isa/registers.hh"

namespace dvi
{
namespace uarch
{

using isa::DecodedInst;
using isa::FuClass;
using isa::Instruction;

namespace
{

constexpr Cycle infiniteCycle = ~0ull;

/** Trace records per emulator batch, on top of the fetch queue the
 * trace buffer also holds. */
constexpr std::size_t traceBatch = 256;

/** Debug-build DVI invariant hooks (dead-read / unmapped-source
 * checks at dispatch); compiled out of Release so the hot path and
 * the golden-stats contract are untouched. */
#ifndef NDEBUG
constexpr bool debugDviInvariants = true;
#else
constexpr bool debugDviInvariants = false;
#endif

/** Cycles without a commit before the deadlock valve trips. */
constexpr Cycle deadlockHorizon = 100000;

Addr
pcBytes(std::uint32_t pc)
{
    return static_cast<Addr>(pc) * Instruction::sizeBytes;
}

} // namespace

Core::Core(const comp::Executable &exe, const CoreConfig &config)
    : cfg(config),
      emu(exe,
          arch::EmulatorOptions{/*trackLiveness=*/false, true, true, 0,
                                false, false, config.emuTier,
                                /*cancel=*/{}}),
      decoded_(emu.program().decoded()),
      trace_(cfg.fetchQueueSize + traceBatch),
      renamer(cfg.numPhysRegs), lvm(isa::abiEntryLiveMask()),
      lvmStack_(cfg.dvi.lvmStackDepth),
      pregReadyAt_(cfg.numPhysRegs + 1, 0),
      fpWriterSeq(isa::numFpRegs, 0),
      wakeHead_(cfg.numPhysRegs + 1, noSlot),
      memsys(cfg.il1, cfg.dl1, cfg.l2, cfg.memLatency),
      bpred(cfg.bp), btb(cfg.bp.btbEntries), ras(cfg.bp.rasEntries),
      window(cfg.windowSize), killFreeQueue_(cfg.numPhysRegs)
{
    const std::size_t words = (window.capacity() + 63) / 64;
    readyBits_.assign(words, 0);
    waitingStoreBits_.assign(words, 0);
    waitNext_.assign(window.capacity() * 4, noSlot);

    if (cfg.sampleEveryInsts && cfg.sampleHook)
        nextSampleAt_ = cfg.sampleEveryInsts;

    // The completion wheel must span the largest possible execution
    // latency so bucket (cycle & mask) never aliases two pending
    // cycles: memory latency dominates, with margin for the
    // longest functional-unit latency.
    const unsigned max_lat =
        std::max({cfg.memLatency, cfg.l2.hitLatency,
                  cfg.dl1.hitLatency, 16u}) +
        2;
    std::size_t wheel = 1;
    while (wheel < max_lat)
        wheel <<= 1;
    wheelHead_.assign(wheel, noSlot);
    wheelMask_ = wheel - 1;

    const std::size_t buckets = window.capacity() * 4;
    storeBuckets_.assign(buckets, noSlot);
    storeBucketMask_ = buckets - 1;

    fatal_if(cfg.il1.lineBytes == 0, "zero I-cache line size");
    if ((cfg.il1.lineBytes & (cfg.il1.lineBytes - 1)) == 0)
        il1LineShift_ = countrZero64(cfg.il1.lineBytes);
}

template <typename F>
void
Core::forEachSetSlot(const std::vector<std::uint64_t> &bits,
                     F &&f) const
{
    // Visit set slots in age (seq) order: physical slots [head, cap)
    // then [0, head), since the window ring assigns slots in age
    // order modulo its capacity.
    const std::size_t cap = window.capacity();
    const std::size_t head = window.headPhys();
    if (bits.size() == 1) {
        // One-word window (the common configuration): rotating by
        // the head slot puts the bits in age order directly. Valid
        // because cap divides 64, so slot arithmetic and the
        // rotation wrap consistently.
        std::uint64_t rot = rotateRight64(
            bits[0], static_cast<unsigned>(head) & 63);
        while (rot) {
            const unsigned k = countrZero64(rot);
            rot &= rot - 1;
            if (!f((head + k) & (cap - 1)))
                return;
        }
        return;
    }
    const auto scanRange = [&](std::size_t lo,
                               std::size_t hi) -> bool {
        for (std::size_t w = lo >> 6; (w << 6) < hi; ++w) {
            std::uint64_t word = bits[w];
            if ((w << 6) < lo)
                word &= ~0ull << (lo - (w << 6));
            if (hi - (w << 6) < 64)
                word &= (1ull << (hi - (w << 6))) - 1;
            while (word) {
                const unsigned b = countrZero64(word);
                word &= word - 1;
                if (!f((w << 6) + b))
                    return false;
            }
        }
        return true;
    };
    if (head == 0) {
        scanRange(0, cap);
        return;
    }
    if (scanRange(head, cap))
        scanRange(0, head);
}

void
Core::applyKillToRenamer(RegMask mask, WindowEntry &entry)
{
    if (!cfg.dvi.earlyReclaim)
        return;
    mask.forEach([&](RegIndex r) {
        PhysRegIndex prev = renamer.killMapping(r);
        if (prev != invalidPhysReg) {
            killFreeQueue_.push_back(prev);
            ++entry.killFreeCount;
        }
    });
}

void
Core::checkDispatchReads(const DecodedInst &d,
                         const PhysRegIndex src_pregs[2],
                         std::uint32_t pc) const
{
    const Instruction &inst = emu.executable().code[pc];
    RegMask lvm_reads;
    for (unsigned i = 0; i < d.numSrcs; ++i) {
        const RegIndex r = d.srcs[i];
        if (r == isa::regZero)
            continue;
        // The data register of an executing save is the one read of
        // a possibly-dead value the paper sanctions (§5.1).
        if (d.is(DecodedInst::save) && i == 1)
            continue;
        if (src_pregs[i] == invalidPhysReg)
            throw base::Fault(
                base::FaultKind::Permanent,
                "DVI invariant violated: " + inst.toString() +
                    " at pc " + std::to_string(pc) + " reads " +
                    isa::intRegName(r) +
                    ", whose mapping a committed kill reclaimed "
                    "(incorrect E-DVI)");
        lvm_reads.set(r);
    }
    // The LVM is only maintained when some DVI source feeds it.
    if (!cfg.dvi.useEdvi && !cfg.dvi.useIdvi)
        return;
    const RegMask dead = lvm_reads.minus(lvm.mask());
    if (!dead.empty())
        throw base::Fault(base::FaultKind::Permanent,
                          "DVI invariant violated (" +
                              inst.toString() +
                              "): read of dead register(s) " +
                              dead.toString() + "; live mask " +
                              lvm.mask().toString());
}

bool
Core::refillTrace()
{
    if (cfg.maxInsts &&
        stats_.fetchedInsts - stats_.fetchedKills >= cfg.maxInsts)
        return false;
    // Every delivered record has been fetched: keep the fetch queue
    // by moving it to the front, then append a batch behind it.
    std::copy(trace_.begin() + dispatchPos_, trace_.begin() + fetchPos_,
              trace_.begin());
    fetchPos_ -= dispatchPos_;
    dispatchPos_ = 0;
    // The batch is gated on the same fetched-program-instruction
    // budget a one-at-a-time pull would use, so the delivered record
    // sequence — and the emulator's end state — do not depend on the
    // batch size.
    const std::uint64_t remaining =
        cfg.maxInsts ? cfg.maxInsts - (stats_.fetchedInsts -
                                       stats_.fetchedKills)
                     : 0;
    traceLen_ = fetchPos_ + static_cast<std::uint32_t>(emu.stepBatch(
                                trace_.data() + fetchPos_,
                                trace_.size() - fetchPos_, remaining));
    return fetchPos_ < traceLen_;
}

void
Core::doFetch()
{
    unsigned fetched = 0;
    while (fetched < cfg.fetchWidth &&
           fetchQueueSize() < cfg.fetchQueueSize) {
        if (!nextTraceRecord())
            break;
        const arch::TraceRecord &tr = trace_[fetchPos_];
        const DecodedInst &d = decoded_[tr.pc];

        // Model the I-cache at line granularity.
        const Addr pcb = pcBytes(tr.pc);
        const Addr line = il1LineShift_
                              ? pcb >> il1LineShift_
                              : pcb / cfg.il1.lineBytes;
        if (line != lastFetchLine) {
            const unsigned lat = memsys.instAccess(pcb);
            lastFetchLine = line;
            cycleProgress_ = true; // cache state advanced
            if (lat > cfg.il1.hitLatency) {
                // Line arrives later; resume fetch then.
                fetchAvailCycle = now + lat;
                break;
            }
        }

        ++fetchPos_;
        ++stats_.fetchedInsts;
        if (d.is(DecodedInst::kill))
            ++stats_.fetchedKills;

        // A mispredicted instruction blocks fetch, so it is always
        // the youngest record of the fetch queue; dispatch tells it
        // apart by position (see doDispatch).
        bool stop_group = false;
        if (d.is(DecodedInst::condBranch)) {
            ++stats_.condBranches;
            const bool pred = bpred.predict(pcb);
            if (pred) {
                Addr tgt = 0;
                if (!btb.lookup(pcb, &tgt)) {
                    // Direction says taken but no target: one-cycle
                    // bubble while decode computes it.
                    fetchAvailCycle = now + 2;
                    ++stats_.btbMissBubbles;
                }
            }
            if (tr.taken)
                btb.insert(pcb, pcBytes(tr.nextPc));
            if (pred != tr.taken) {
                fetchBlocked = true;
                ++stats_.branchMispredicts;
            }
            stop_group = pred || tr.taken || fetchBlocked;
        } else if (d.is(DecodedInst::call)) {
            ras.push(pcBytes(tr.pc + 1));
            stop_group = true;
        } else if (d.is(DecodedInst::ret)) {
            const Addr pred_tgt = ras.pop();
            if (pred_tgt != pcBytes(tr.nextPc)) {
                fetchBlocked = true;
                ++stats_.rasMispredicts;
            }
            stop_group = true;
        } else if (d.is(DecodedInst::jump)) {
            stop_group = true;
        }

        ++fetched;
        if (stop_group)
            break;
    }
    if (fetched)
        cycleProgress_ = true;
}

inline Core::WindowEntry &
Core::allocEntry(const arch::TraceRecord &tr, const DecodedInst &d)
{
    // The ring slot still holds its previous occupant: set every
    // field.
    WindowEntry &e = window.push_uninitialized();
    e.seq = nextSeq++;
    e.effAddr = tr.effAddr;
    e.doneCycle = 0;
    e.pc = tr.pc;
    e.prevSameBucket = noSlot;
    e.wheelNext = noSlot;
    e.fpWaiters = noSlot;
    e.destPreg = invalidPhysReg;
    e.prevPreg = invalidPhysReg;
    e.flags = d.flags;
    e.fu = d.fu;
    e.latency = d.latency;
    e.state = EntryState::Waiting;
    e.waitCount = 0;
    e.killFreeCount = 0;
    e.taken = tr.taken;
    e.mispredicted = false;
    return e;
}

void
Core::dispatchKill(const arch::TraceRecord &tr, const DecodedInst &d)
{
    WindowEntry &e = allocEntry(tr, d);
    e.state = EntryState::Done;
    e.doneCycle = now;
    lvm.kill(RegMask(d.killMask));
    applyKillToRenamer(RegMask(d.killMask), e);
    heldCount_ += e.killFreeCount;
}

void
Core::initReadiness(WindowEntry &e, std::uint32_t slot,
                    const DecodedInst &d,
                    const PhysRegIndex src_pregs[2],
                    const InstSeqNum fp_producers[2])
{
    // Both integer operands, branch-free: an absent or unmapped one
    // is invalidPhysReg, whose slot 0 is always ready, so the select
    // never links it.
    for (unsigned i = 0; i < 2; ++i) {
        const std::size_t p =
            static_cast<std::size_t>(src_pregs[i] + 1);
        const bool pending = pregReadyAt_[p] > now;
        const std::uint32_t node = 4 * slot + i;
        waitNext_[node] = wakeHead_[p];
        wakeHead_[p] = pending ? node : wakeHead_[p];
        e.waitCount += pending;
    }
    for (unsigned i = 0; i < d.numFpSrcs; ++i) {
        const InstSeqNum producer = fp_producers[i];
        if (producer == 0)
            continue;
        // A producer no longer in the window has committed. Window
        // entries hold consecutive sequence numbers, so the producer
        // (always older than e, which is already in the window)
        // lives at a direct logical offset.
        const InstSeqNum head_seq = window.front().seq;
        if (producer < head_seq)
            continue;
        WindowEntry &prod = window[producer - head_seq];
        if (prod.state != EntryState::Done) {
            const std::uint32_t node = 4 * slot + 2 + i;
            waitNext_[node] = prod.fpWaiters;
            prod.fpWaiters = node;
            ++e.waitCount;
        }
    }
    if (e.waitCount == 0 && e.fu != FuClass::None)
        setBit(readyBits_, slot);
}

void
Core::doDispatch()
{
    unsigned dispatched = 0;
    bool counted_window_stall = false;
    bool counted_rename_stall = false;

    while (dispatched < cfg.decodeWidth && dispatchPos_ < fetchPos_) {
        const arch::TraceRecord &tr = trace_[dispatchPos_];
        const DecodedInst &d = decoded_[tr.pc];

        // --- E-DVI kill annotations.
        if (d.is(DecodedInst::kill)) {
            if (cfg.dvi.useEdvi) {
                if (window.size() >= cfg.windowSize) {
                    if (!counted_window_stall) {
                        ++stats_.windowFullCycles;
                        counted_window_stall = true;
                    }
                    break;
                }
                dispatchKill(tr, d);
            }
            ++stats_.decodedInsts;
            ++dispatchPos_;
            ++dispatched;
            continue;
        }

        // --- Dead save: squash at decode (LVM scheme, §5.2).
        if (d.is(DecodedInst::save) && cfg.dvi.elimSaves &&
            !lvm.isLive(d.saveRestoreReg)) {
            ++stats_.savesSeen;
            ++stats_.savesEliminated;
            ++stats_.committedProgInsts;
            ++stats_.decodedInsts;
            ++dispatchPos_;
            ++dispatched;
            continue;
        }

        // --- Dead restore: squash using the LVM-Stack snapshot.
        if (d.is(DecodedInst::restore) && cfg.dvi.elimRestores &&
            !lvmStack_.top().test(d.saveRestoreReg)) {
            ++stats_.restoresSeen;
            ++stats_.restoresEliminated;
            ++stats_.committedProgInsts;
            ++stats_.decodedInsts;
            ++dispatchPos_;
            ++dispatched;
            continue;
        }

        // --- Normal dispatch path.
        if (window.size() >= cfg.windowSize) {
            if (!counted_window_stall) {
                ++stats_.windowFullCycles;
                counted_window_stall = true;
            }
            break;
        }
        const bool writes_int = d.is(DecodedInst::writesInt);
        if (writes_int && !renamer.hasFree()) {
            if (!counted_rename_stall) {
                ++stats_.renameStallCycles;
                counted_rename_stall = true;
            }
            break;
        }

        const std::uint32_t slot = static_cast<std::uint32_t>(
            window.physIndex(window.size()));
        WindowEntry &e = allocEntry(tr, d);
        // While fetch is blocked on a mispredict, the youngest
        // fetched record is the mispredicted one (see doFetch).
        e.mispredicted = fetchBlocked && dispatchPos_ + 1 == fetchPos_;

        if (d.is(DecodedInst::save))
            ++stats_.savesSeen;
        if (d.is(DecodedInst::restore))
            ++stats_.restoresSeen;

        // Rename integer sources. An unmapped (killed) source reads
        // an arbitrary value — legal only for dead data (§7
        // "Meaning of precise program state"); it is always ready.
        PhysRegIndex src_pregs[2];
        for (unsigned i = 0; i < 2; ++i)
            src_pregs[i] = i < d.numSrcs ? renamer.lookup(d.srcs[i])
                                         : invalidPhysReg;
        // Before this instruction's own call/return/kill effects
        // mutate the LVM: its reads are against the current masks.
        if (debugDviInvariants)
            checkDispatchReads(d, src_pregs, tr.pc);

        // FP producers, read before this instruction's own FP write
        // (fmul f6,f5,f6 must not wait on itself).
        InstSeqNum fp_producers[2];
        for (unsigned i = 0; i < d.numFpSrcs; ++i)
            fp_producers[i] = fpWriterSeq[d.fpSrcs[i]];

        // I-DVI and the LVM-Stack at procedure boundaries (§2, §5.2).
        if (d.is(DecodedInst::call)) {
            lvmStack_.push(lvm.snapshot());
            if (cfg.dvi.useIdvi) {
                lvm.kill(RegMask(d.killMask));
                applyKillToRenamer(RegMask(d.killMask), e);
            }
        } else if (d.is(DecodedInst::ret)) {
            lvm.mergeFrom(lvmStack_.pop(), isa::calleeSavedMask());
            if (cfg.dvi.useIdvi) {
                lvm.kill(RegMask(d.killMask));
                applyKillToRenamer(RegMask(d.killMask), e);
            }
        }

        if (writes_int) {
            const auto rd = renamer.renameDest(d.dest);
            e.destPreg = rd.newPreg;
            e.prevPreg = rd.prevPreg;
            pregReadyAt_[static_cast<std::size_t>(rd.newPreg + 1)] =
                infiniteCycle;
            lvm.define(d.dest);
        }
        if (d.is(DecodedInst::writesFp))
            fpWriterSeq[d.dest] = e.seq;

        if (e.fu == FuClass::None) {
            e.state = EntryState::Done;
            e.doneCycle = now;
        }

        heldCount_ += (e.prevPreg != invalidPhysReg ? 1 : 0) +
                      e.killFreeCount;
        if (e.is(DecodedInst::store)) {
            setBit(waitingStoreBits_, slot);
            const std::size_t b = storeBucketOf(e.effAddr);
            e.prevSameBucket = storeBuckets_[b];
            storeBuckets_[b] = slot;
        }
        initReadiness(e, slot, d, src_pregs, fp_producers);

        ++dispatchPos_;
        ++stats_.decodedInsts;
        ++dispatched;
    }

    dispStallWindow_ = counted_window_stall;
    dispStallRename_ = counted_rename_stall;
    if (dispatched)
        cycleProgress_ = true;
}

void
Core::doIssue()
{
    unsigned issued = 0;
    unsigned alu_free = cfg.intAlus;
    unsigned muldiv_free = cfg.intMulDivs;
    unsigned fp_free = cfg.fpAlus;
    unsigned fpmul_free = cfg.fpMulDivs;

    // Loads may not pass stores whose address is still unknown. Like
    // the scan-based scheduler, the gate is a snapshot taken before
    // any store issues this cycle.
    InstSeqNum oldest_unissued_store = ~0ull;
    forEachSetSlot(waitingStoreBits_, [&](std::size_t s) {
        oldest_unissued_store = window.atPhys(s).seq;
        return false;
    });

    // Iterate the ready set in age order; entries that issue clear
    // their live bit (safe during traversal: each word is copied
    // into a register before its bits are visited, and issue never
    // sets new ready bits mid-cycle), entries blocked on structural
    // hazards stay ready for next cycle.
    const auto issueOne = [&](std::size_t slot) {
        if (issued >= cfg.issueWidth)
            return false;
        WindowEntry &e = window.atPhys(slot);

        unsigned latency = e.latency;

        if (e.is(DecodedInst::load)) {
            if (e.seq > oldest_unissued_store)
                return true;
            // Store-to-load forwarding: any older in-window store to
            // the same address has issued (the gate above proves no
            // older store is still waiting), so its data is
            // available to forward.
            bool forwarded = false;
            for (std::uint32_t s =
                     storeBuckets_[storeBucketOf(e.effAddr)];
                 s != noSlot;
                 s = window.atPhys(s).prevSameBucket) {
                const WindowEntry &o = window.atPhys(s);
                if (o.seq < e.seq && o.effAddr == e.effAddr) {
                    forwarded = true;
                    break;
                }
            }
            if (forwarded) {
                latency = 1;
                ++stats_.loadForwards;
            } else {
                if (portsUsedThisCycle >= cfg.cachePorts)
                    return true;
                ++portsUsedThisCycle;
                latency = memsys.dataAccess(e.effAddr, false);
                ++stats_.loadsExecuted;
            }
        } else if (e.is(DecodedInst::store)) {
            latency = 1;  // address/data capture; port used at commit
        } else {
            switch (e.fu) {
              case FuClass::IntAlu:
              case FuClass::Branch:
                if (alu_free == 0)
                    return true;
                --alu_free;
                break;
              case FuClass::IntMulDiv:
                if (muldiv_free == 0 || alu_free == 0)
                    return true;
                --muldiv_free;
                --alu_free;
                break;
              case FuClass::FpAlu:
                if (fp_free == 0)
                    return true;
                --fp_free;
                break;
              case FuClass::FpMulDiv:
                if (fpmul_free == 0 || fp_free == 0)
                    return true;
                --fpmul_free;
                --fp_free;
                break;
              case FuClass::None:
              case FuClass::MemPort:
                break;
            }
        }

        e.state = EntryState::Issued;
        e.doneCycle = now + latency;
        // Branch-free: an entry without a destination writes slot 0,
        // which is reset at once.
        pregReadyAt_[static_cast<std::size_t>(e.destPreg + 1)] =
            e.doneCycle;
        pregReadyAt_[0] = 0;
        clearBit(readyBits_, slot);
        if (e.is(DecodedInst::store))
            clearBit(waitingStoreBits_, slot);
        panic_if(latency > wheelMask_,
                 "execution latency ", latency,
                 " overflows the completion wheel");
        std::uint32_t &bucket = wheelHead_[e.doneCycle & wheelMask_];
        e.wheelNext = bucket;
        bucket = static_cast<std::uint32_t>(slot);
        ++pendingCompletions_;
        ++issued;
        return true;
    };
    forEachSetSlot(readyBits_, issueOne);

    if (issued)
        cycleProgress_ = true;
}

void
Core::wakeWaiters(std::uint32_t &head)
{
    for (std::uint32_t n = head; n != noSlot; n = waitNext_[n]) {
        const std::uint32_t slot = n >> 2;
        const bool ready = --window.atPhys(slot).waitCount == 0;
        readyBits_[slot >> 6] |= std::uint64_t{ready} << (slot & 63);
    }
    head = noSlot;
}

void
Core::doComplete()
{
    // Completion order within a bucket is immaterial: every entry in
    // it shares doneCycle, and waking only decrements counters and
    // sets ready bits.
    std::uint32_t &bucket = wheelHead_[now & wheelMask_];
    for (std::uint32_t slot = bucket; slot != noSlot;) {
        WindowEntry &e = window.atPhys(slot);
        slot = e.wheelNext;
        e.state = EntryState::Done;
        if (e.mispredicted && fetchBlocked) {
            fetchBlocked = false;
            fetchAvailCycle =
                std::max(fetchAvailCycle, e.doneCycle + 1);
        }
        // Slot 0 (no destination) never has waiters.
        wakeWaiters(
            wakeHead_[static_cast<std::size_t>(e.destPreg + 1)]);
        if (e.is(DecodedInst::writesFp))
            wakeWaiters(e.fpWaiters);
        --pendingCompletions_;
    }
    bucket = noSlot;
    cycleProgress_ = true;
}

Cycle
Core::nextCompletionCycle() const
{
    if (pendingCompletions_ == 0)
        return infiniteCycle;
    for (Cycle k = 0; k <= wheelMask_; ++k) {
        const Cycle c = now + k;
        if (wheelHead_[c & wheelMask_] != noSlot)
            return c;
    }
    return infiniteCycle;
}

void
Core::doCommit()
{
    unsigned committed = 0;
    while (committed < cfg.commitWidth && !window.empty()) {
        WindowEntry &e = window.front();
        if (e.state != EntryState::Done)
            break;
        if (e.is(DecodedInst::store)) {
            // The architectural write needs a cache port.
            if (portsUsedThisCycle >= cfg.cachePorts)
                break;
            ++portsUsedThisCycle;
            memsys.dataAccess(e.effAddr, true);
            ++stats_.storesExecuted;
            // Retire from the forwarding table. Stores commit in
            // order, so this entry is the oldest store in the
            // window and therefore the tail of its bucket chain.
            const std::size_t b = storeBucketOf(e.effAddr);
            const std::uint32_t my_slot = static_cast<std::uint32_t>(
                window.headPhys());
            if (storeBuckets_[b] == my_slot) {
                storeBuckets_[b] = e.prevSameBucket;
            } else {
                std::uint32_t s = storeBuckets_[b];
                while (window.atPhys(s).prevSameBucket != my_slot)
                    s = window.atPhys(s).prevSameBucket;
                window.atPhys(s).prevSameBucket = e.prevSameBucket;
            }
        }
        if (e.prevPreg != invalidPhysReg) {
            renamer.freePhysReg(e.prevPreg);
            --heldCount_;
        }
        for (unsigned i = 0; i < e.killFreeCount; ++i) {
            renamer.freePhysReg(killFreeQueue_.front());
            killFreeQueue_.pop_front();
        }
        heldCount_ -= e.killFreeCount;
        if (e.is(DecodedInst::condBranch))
            bpred.update(pcBytes(e.pc), e.taken);
        const bool kill = e.is(DecodedInst::kill);
        stats_.committedKills += kill;
        stats_.committedProgInsts += !kill;
        lastCommitCycle = now;
        window.pop_front();
        ++committed;
    }
    if (committed)
        cycleProgress_ = true;
}

void
Core::skipDeadCycles()
{
    // The just-simulated cycle did no work, so every subsequent
    // cycle is an identical stall until the next scheduled event:
    // the earliest pending completion, or fetch resuming at
    // fetchAvailCycle (only relevant if fetch could actually make
    // progress there). Everything else the per-cycle loop reacts to
    // — commit, dispatch, readiness — can only change downstream of
    // one of those two.
    Cycle next = nextCompletionCycle();
    const bool fetch_could = !fetchBlocked &&
                             fetchQueueSize() < cfg.fetchQueueSize &&
                             fetchPos_ < traceLen_;
    if (fetch_could) {
        // The cycle about to be simulated can already fetch (e.g.
        // the trace buffer was just refilled, or the I-cache line
        // lands exactly now): it is not an idle cycle.
        if (fetchAvailCycle <= now)
            return;
        next = std::min(next, fetchAvailCycle);
    }
    if (next == infiniteCycle) {
        if (window.empty())
            return;
        // No event will ever arrive: advance to where the deadlock
        // valve in run() trips.
        next = lastCommitCycle + deadlockHorizon + 1;
    }
    if (cfg.maxCycles)
        next = std::min<Cycle>(next, cfg.maxCycles);
    if (next <= now)
        return;

    // Bulk-account the per-cycle statistics the scan-based loop
    // would have incremented in cycles [now, next).
    const Cycle skipped = next - now;
    if (fetchBlocked)
        stats_.fetchBlockedCycles += skipped;
    else if (fetchAvailCycle > now)
        stats_.fetchBlockedCycles +=
            std::min(next, fetchAvailCycle) - now;
    if (dispStallWindow_)
        stats_.windowFullCycles += skipped;
    if (dispStallRename_)
        stats_.renameStallCycles += skipped;

    // Occupancy samples at the 64-cycle marks inside the skip; the
    // sampled state is frozen, so record them with a weight.
    const std::uint64_t marks = (next - 1) / 64 - (now - 1) / 64;
    if (marks) {
        stats_.pregsInUse.record(
            cfg.numPhysRegs - renamer.freeCount(), marks);
        stats_.liveRegs.record(
            lvm.liveCount(RegMask::firstN(isa::numIntRegs)), marks);
    }

    now = next;
    stats_.cycles = now;
}

const CoreStats &
Core::run()
{
    bool trace_done = false;
    // Cancellation polls on a private iteration counter, not `now`:
    // skipDeadCycles() jumps `now` over arbitrary spans, so cycle-
    // number masks would miss their marks.
    std::uint64_t cancelPoll = 0;
    const base::CancelFlags cancel = cfg.cancel;
    while (true) {
        if (cancel && (++cancelPoll & 1023) == 0 && cancel.raised())
            throw base::CancelledError(
                "timing core cancelled after " +
                std::to_string(stats_.committedProgInsts) +
                " committed insts");
        portsUsedThisCycle = 0;
        cycleProgress_ = false;
        // Phase order matches the scan-based loop; the guards are
        // early-outs only (each phase is a no-op when its guard
        // fails), so per-cycle behavior is unchanged.
        if (pendingCompletions_ != 0 &&
            wheelHead_[now & wheelMask_] != noSlot)
            doComplete();
        if (!window.empty() &&
            window.front().state == EntryState::Done)
            doCommit();
        if (stats_.committedProgInsts >= nextSampleAt_) {
            cfg.sampleHook(stats_, cfg.sampleCtx);
            // Land on the next multiple strictly above the current
            // count (a wide commit can cross several at once).
            nextSampleAt_ += cfg.sampleEveryInsts *
                             ((stats_.committedProgInsts -
                               nextSampleAt_) /
                                  cfg.sampleEveryInsts +
                              1);
        }
        if (readyAny())
            doIssue();
        if (dispatchPos_ < fetchPos_) {
            doDispatch();
        } else {
            dispStallWindow_ = false;
            dispStallRename_ = false;
        }
        if (fetchBlocked || now < fetchAvailCycle)
            ++stats_.fetchBlockedCycles;
        else
            doFetch();

        if ((now & 63) == 0) {
            stats_.pregsInUse.record(cfg.numPhysRegs -
                                     renamer.freeCount());
            stats_.liveRegs.record(
                lvm.liveCount(RegMask::firstN(isa::numIntRegs)));
        }
        if ((now & 1023) == 0)
            renamer.checkConservation(heldCount_);

        ++now;
        stats_.cycles = now;

        if (!trace_done && fetchPos_ >= traceLen_ &&
            !nextTraceRecord())
            trace_done = true;
        if (trace_done && window.empty() && fetchQueueSize() == 0 &&
            fetchPos_ >= traceLen_)
            break;
        if (!window.empty() &&
            now - lastCommitCycle > deadlockHorizon) {
            const WindowEntry &h = window.front();
            std::fprintf(stderr,
                         "DEADLOCK head: seq=%llu op=%s pc=%u "
                         "state=%d waitCount=%u isLoad=%d isStore=%d "
                         "now=%llu\n",
                         (unsigned long long)h.seq,
                         emu.executable().code[h.pc].toString().c_str(),
                         h.pc, (int)h.state, (unsigned)h.waitCount,
                         (int)h.is(DecodedInst::load),
                         (int)h.is(DecodedInst::store),
                         (unsigned long long)now);
            panic("core deadlock");
        }
        if (cfg.maxCycles && now >= cfg.maxCycles)
            break;
        if (!cycleProgress_) {
            skipDeadCycles();
            if (cfg.maxCycles && now >= cfg.maxCycles)
                break;
        }
    }

    stats_.il1Misses = memsys.il1().misses();
    stats_.dl1Misses = memsys.dl1().misses();
    stats_.dl1Accesses = memsys.dl1().accesses();
    stats_.l2Misses = memsys.l2().misses();
    return stats_;
}

} // namespace uarch
} // namespace dvi
