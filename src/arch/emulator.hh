/**
 * @file
 * Functional (architectural) emulator and dynamic-liveness oracle.
 *
 * The emulator executes a linked Executable instruction by
 * instruction and can hand each retired instruction to a timing model
 * as a TraceRecord (execute-first, trace-driven simulation — the same
 * structure as SimpleScalar's sim-outorder functional core).
 *
 * Alongside architectural state it maintains a *functional LVM*: the
 * liveness the paper's hardware would track, fed by destination
 * definitions, E-DVI kills, I-DVI call/return convention kills, and
 * the LVM-Stack merge at returns. This yields:
 *
 *  - the dead-read detector (a read of a register the LVM believes
 *    dead means the E-DVI in the binary is wrong — §7 "Errors in
 *    E-DVI should be considered compiler errors");
 *  - oracle counts of eliminable saves/restores (Fig. 9 is "a
 *    property of the program and the amount of available DVI ...
 *    independent of the processor configuration");
 *  - live-register histograms at arbitrary preemption points
 *    (Fig. 12).
 */

#ifndef DVI_ARCH_EMULATOR_HH
#define DVI_ARCH_EMULATOR_HH

#include <array>
#include <cstdint>
#include <memory>

#include "arch/memory.hh"
#include "arch/xlate.hh"
#include "base/fault.hh"
#include "base/reg_mask.hh"
#include "base/types.hh"
#include "compiler/executable.hh"
#include "core/lvm.hh"
#include "core/lvm_stack.hh"
#include "isa/registers.hh"
#include "stats/schema.hh"

namespace dvi
{
namespace arch
{

/** One retired instruction, as the timing model needs to see it. */
struct TraceRecord
{
    isa::Instruction inst;
    std::uint32_t pc = 0;       ///< instruction index
    std::uint32_t nextPc = 0;   ///< actual successor (branch outcome)
    Addr effAddr = 0;           ///< memory ops: effective address
    bool taken = false;         ///< conditional branches
};

/** Emulator configuration. */
struct EmulatorOptions
{
    bool trackLiveness = true;  ///< maintain the functional LVM
    bool honorEdvi = true;      ///< LVM consumes kill instructions
    bool honorIdvi = true;      ///< LVM consumes call/return I-DVI
    /** LVM-Stack depth for the oracle; 0 = unbounded. */
    unsigned lvmStackDepth = 0;
    /** Panic on a read of a dead register (E-DVI soundness check). */
    bool strictDeadReads = false;
    /**
     * Treat a misaligned data access as a program fault that halts
     * execution (faulted() reports it) instead of panicking. The
     * fuzz oracle sets this so broken candidate programs (e.g.
     * minimizer probes that removed part of an address computation)
     * are rejected gracefully rather than aborting the campaign.
     */
    bool faultOnMisaligned = false;

    /**
     * Execution tier for run() and stepBatch(). Xlate (the default)
     * executes from the process-wide basic-block translation cache:
     * each block is decoded once into pre-resolved micro-ops and
     * dispatched through a threaded inner loop, with architectural
     * state, stats, traces, and the functional LVM bit-identical to
     * the interpreter (the fuzz oracle's tier-lockstep layer and the
     * golden-stats tests enforce this). Interp forces the tier-0
     * decode-dispatch loop — the A/B reference. step() always
     * interprets regardless of tier.
     */
    ExecTier tier = ExecTier::Xlate;

    /**
     * Cooperative cancellation: when a deadline or a campaign flag
     * is present, run() polls both every 4096 instructions (in both
     * tiers) and unwinds with base::CancelledError once the deadline
     * has passed or the flag reads true. Not a scenario axis —
     * never serialized, never affects the stats of runs that
     * complete.
     */
    base::CancelFlags cancel;
};

/** The EmulatorStats fields, each declared once (stats/schema.hh).
 * The interpreter/translation-tier comparisons and the oracle
 * runner's report derive from this table. */
#define DVI_EMULATOR_STATS(X, H)                                     \
    X(std::uint64_t, insts)     /* all retired (incl. kills) */      \
    X(std::uint64_t, progInsts) /* excluding kill annotations */     \
    X(std::uint64_t, kills)                                          \
    X(std::uint64_t, aluOps)                                         \
    X(std::uint64_t, memRefs) /* all loads + stores */               \
    X(std::uint64_t, loads)                                          \
    X(std::uint64_t, stores)                                         \
    X(std::uint64_t, calls)                                          \
    X(std::uint64_t, returns)                                        \
    X(std::uint64_t, condBranches)                                   \
    X(std::uint64_t, takenBranches)                                  \
    X(std::uint64_t, fpOps)                                          \
    X(std::uint64_t, saves)    /* live-store instances */            \
    X(std::uint64_t, restores) /* live-load instances */             \
    /* Saves whose data register the LVM marks dead (eliminable). */ \
    X(std::uint64_t, saveElimOracle)                                 \
    /* Restores dead per the LVM-Stack snapshot (eliminable). */     \
    X(std::uint64_t, restoreElimOracle)                              \
    X(std::uint64_t, deadReads) /* liveness violations seen */       \
    /* pc and register of the first dead read (fuzz/oracle           \
     * diagnostics); valid when deadReads > 0. */                    \
    X(std::uint32_t, firstDeadReadPc)                                \
    X(RegIndex, firstDeadReadReg)                                    \
    X(std::uint64_t, maxCallDepth)

/** Dynamic instruction mix and DVI oracle counters. */
struct EmulatorStats
{
    DVI_EMULATOR_STATS(DVI_STAT_MEMBER, DVI_STAT_SKIP)
    DVI_STATS_VISITOR(EmulatorStats, DVI_EMULATOR_STATS)
};

/** Architectural emulator. See file comment. */
class Emulator
{
  public:
    Emulator(const comp::Executable &exe,
             const EmulatorOptions &options = {});

    /**
     * Execute one instruction; fills *out when non-null. Returns
     * false (without executing) once halted.
     */
    bool step(TraceRecord *out = nullptr);

    /**
     * Batched trace delivery: execute up to max_records instructions,
     * writing one TraceRecord per instruction into out[]. Stops early
     * at halt, or — when max_prog_insts is non-zero — before the
     * instruction that would exceed that many non-kill (program)
     * records. Returns the number of records written.
     *
     * The budget gate is applied before every single step, so the
     * record sequence (and the emulator's final architectural state)
     * is identical to calling step() one record at a time under the
     * same gate; the batch only amortizes the per-record call
     * overhead for the timing core's fetch stage.
     */
    std::size_t stepBatch(TraceRecord *out, std::size_t max_records,
                          std::uint64_t max_prog_insts = 0);

    /** Run up to maxInsts more instructions (0 = until halt). */
    std::uint64_t run(std::uint64_t max_insts = 0);

    bool halted() const { return halted_; }

    /** True once a misaligned access halted the run (only under
     * EmulatorOptions::faultOnMisaligned). */
    bool faulted() const { return faulted_; }
    /** pc of the faulting instruction; valid when faulted(). */
    std::uint32_t faultPc() const { return faultPc_; }

    /** @name Architectural state access @{ */
    std::int64_t intReg(RegIndex r) const { return intRegs[r]; }

    void
    setIntReg(RegIndex r, std::int64_t v)
    {
        if (r == isa::regZero)
            return;
        intRegs[r] = v;
        if (opts.trackLiveness)
            lvm_.define(r);
    }
    double fpReg(RegIndex r) const { return fpRegs[r]; }
    std::uint32_t pc() const { return pc_; }
    Memory &memory() { return mem; }
    const Memory &memory() const { return mem; }
    /** @} */

    /** @name Liveness oracle @{ */
    const core::Lvm &lvm() const { return lvm_; }
    const core::LvmStack &lvmStack() const { return stack; }
    /** Live FP registers (defs set, I-DVI at calls clears
     * caller-saved FP). */
    const RegMask &fpLive() const { return fpLive_; }
    /** @} */

    const EmulatorStats &stats() const { return stats_; }
    const comp::Executable &executable() const { return exe; }

    /** Tier-1 translation handle; null until the first cached
     * run()/stepBatch() under ExecTier::Xlate (tests and the
     * invalidation paths inspect block formation through it). */
    const TranslatedProgram *translation() const { return xprog_.get(); }

    /** The shared translation of this binary, acquired from the
     * process cache now if no run()/stepBatch() has yet (under either
     * tier); the timing core reads its decode table through this. */
    const TranslatedProgram &
    program()
    {
        ensureXlate();
        return *xprog_;
    }

    /**
     * Digest of the program-visible result: return-value registers
     * plus the global data region. Stack contents and return
     * addresses are excluded so images with and without E-DVI
     * compare equal (E-DVI shifts code addresses).
     */
    std::uint64_t resultHash() const;

  private:
    const isa::Instruction &fetch(std::uint32_t idx) const;

    void
    checkRead(RegIndex r)
    {
        if (!opts.trackLiveness || r == isa::regZero)
            return;
        checkReadSlow(r);
    }

    /** Out-of-line tail of checkRead: the LVM probe and dead-read
     * accounting, only reachable with liveness tracking on. */
    void checkReadSlow(RegIndex r);

    /** @name Tier-1 executor (emulator_xlate.cc) @{ */
    /** Acquire the shared translation from the process cache. */
    void ensureXlate();
    /** Dead-read probe for block execution: pc_ is not advanced
     * per micro-op, so the faulting pc is passed explicitly. */
    void checkLiveAt(RegIndex r, std::uint32_t at_pc);
    /** Effective address + misaligned-fault latch for a micro-op. */
    Addr xlateAddr(const MicroOp &u);
    /** Fold a block's static stats delta into stats_. Every block
     * exit runs it, so it is forced inline: a whole-program (LTO)
     * build stops inlining into execBlock once its growth budget is
     * spent. */
    [[gnu::always_inline]] void
    applyBlockStats(const BlockStats &s)
    {
        stats_.insts += s.insts;
        stats_.progInsts += s.progInsts;
        stats_.kills += s.kills;
        stats_.aluOps += s.aluOps;
        stats_.memRefs += s.memRefs;
        stats_.loads += s.loads;
        stats_.stores += s.stores;
        stats_.fpOps += s.fpOps;
        stats_.saves += s.saves;
        stats_.restores += s.restores;
        stats_.condBranches += s.condBranches;
        stats_.calls += s.calls;
        stats_.returns += s.returns;
    }
    /** Execute one translated block; returns instructions retired
     * (== b.len unless a misaligned fault halted mid-block). When
     * Trace, writes one TraceRecord per retired instruction. Live
     * bakes opts.trackLiveness into the instantiation so the
     * no-LVM configuration (the timing core's) carries no liveness
     * branches in the dispatch loop. */
    template <bool Trace, bool Live>
    std::uint32_t execBlock(const XBlock &b, TraceRecord *out);
    std::uint64_t runXlate(std::uint64_t max_insts);
    std::size_t stepBatchXlate(TraceRecord *out,
                               std::size_t max_records,
                               std::uint64_t max_prog_insts);
    /** @} */

    /** Owned copy: the emulator must outlive any caller temporary
     * (code images are a few KB). */
    const comp::Executable exe;
    EmulatorOptions opts;

    std::array<std::int64_t, isa::numIntRegs> intRegs{};
    std::array<double, isa::numFpRegs> fpRegs{};
    std::uint32_t pc_;
    bool halted_ = false;
    bool faulted_ = false;
    std::uint32_t faultPc_ = 0;
    Memory mem;

    core::Lvm lvm_;
    core::LvmStack stack;
    RegMask fpLive_;
    std::uint64_t callDepth = 0;

    /** Shared tier-1 translation (lazy; see ensureXlate). */
    std::shared_ptr<TranslatedProgram> xprog_;

    EmulatorStats stats_;
};

} // namespace arch
} // namespace dvi

#endif // DVI_ARCH_EMULATOR_HH
