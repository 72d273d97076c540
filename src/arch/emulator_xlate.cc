/**
 * @file
 * Tier-1 executor: runs the emulator from the basic-block
 * translation cache (arch/xlate.hh).
 *
 * The inner loop is threaded dispatch through GNU computed goto (GCC
 * and Clang; no other compiler builds this file): a label table
 * indexed by the pre-decoded opcode, no central switch, no
 * per-instruction re-decode. Without a trace (run(), the oracle
 * path) every handler ends in its own "advance; goto *tbl[op]", and
 * its body makes no call on the hit path: memory accesses, the
 * block-exit stats fold and invariant checks are inline, so the loop
 * state stays in registers. The successor pc is set once per block,
 * and a pragma keeps GCC from merging the dispatch copies back into
 * one. With a trace (stepBatch(), the timing core's path) handlers
 * share one epilogue that writes each micro-op's record.
 *
 * Semantics are the interpreter's, instruction for instruction —
 * same stats, same trace records, same LVM evolution, same
 * dead-read diagnostics, same fault behavior. Anywhere exactness is
 * cheaper to prove than to re-derive (instruction-budget gates,
 * pc-outside-image panics), this file simply falls back to the
 * tier-0 step() loop, which *is* the specification.
 *
 * With liveness on, the LVM's bits stay in a local for the whole
 * block, and the dead-read probes are hoisted to one test at block
 * entry against the block's ProbeSummary (arch/xlate.hh). Only when
 * that test says some probe could fail does the block dispatch
 * through a table that runs the interpreter's probes before each
 * micro-op, in its order, so the dead-read count and
 * first-dead-read diagnostics stay exact.
 */

#include <algorithm>

#include "arch/emulator.hh"
#include "arch/xlate_cache.hh"
#include "base/bits.hh"
#include "base/fault.hh"
#include "base/logging.hh"

namespace dvi
{
namespace arch
{

void
Emulator::ensureXlate()
{
    if (!xprog_)
        xprog_ = TranslationCache::process().acquire(exe);
}

void
Emulator::checkLiveAt(RegIndex r, std::uint32_t at_pc)
{
    if (lvm_.isLive(r))
        return;
    if (stats_.deadReads == 0) {
        stats_.firstDeadReadPc = at_pc;
        stats_.firstDeadReadReg = r;
    }
    ++stats_.deadReads;
    panic_if(opts.strictDeadReads,
             "read of dead register ", isa::intRegName(r),
             " at pc ", at_pc, " (incorrect E-DVI)");
}

Addr
Emulator::xlateAddr(const MicroOp &u)
{
    const Addr a = static_cast<Addr>(wrapAdd(intRegs[u.rs1], u.imm));
    if ((a & 7) && opts.faultOnMisaligned) {
        faulted_ = true;
        faultPc_ = u.pc;
    }
    return a;
}

// Register write specialized on the Live template parameter: the
// definition sets the destination's bit in the block's LVM local
// (the member setIntReg re-tests opts.trackLiveness on every call).
#define DVI_XLATE_SET_REG(r, v)                                     \
    do {                                                            \
        const RegIndex dst_ = (r);                                  \
        if (dst_ != isa::regZero) {                                 \
            intRegs[dst_] = (v);                                    \
            if (Live)                                               \
                lvm |= std::uint64_t{1} << dst_;                    \
        }                                                           \
    } while (0)

// End of a handler whose micro-op can be followed by another in its
// block. Without a trace the handler advances and dispatches the
// next micro-op itself, so each handler has its own indirect jump
// (and its own branch-predictor history); the last micro-op of the
// block goes to x_epilogue, the block exit. With a trace every
// handler goes to x_epilogue, which writes the record and
// dispatches. Control transfers and Halt end blocks, so their
// handlers go straight to x_epilogue.
#define DVI_XLATE_NEXT()                                            \
    do {                                                            \
        if constexpr (!Trace) {                                     \
            if (++u != end)                                         \
                goto *tbl[static_cast<unsigned>(u->op)];            \
        }                                                           \
        goto x_epilogue;                                            \
    } while (0)

// The same for memory micro-ops, the only ones that can latch a
// misaligned fault (in xlateAddr), so the only ones that check it.
#define DVI_XLATE_MEM_NEXT()                                        \
    do {                                                            \
        if (faulted_)                                               \
            goto x_fault;                                           \
        DVI_XLATE_NEXT();                                           \
    } while (0)

// GCC's cross-jumping pass would merge the handlers' identical
// advance-and-dispatch tails back into a few shared indirect jumps.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC push_options
#pragma GCC optimize("no-crossjumping")
#endif

template <bool Trace, bool Live>
std::uint32_t
Emulator::execBlock(const XBlock &b, TraceRecord *out)
{
    constexpr bool live = Live;
    const MicroOp *const uops = b.uops.data();
    const MicroOp *const end = uops + b.len;

    // Both tables expand from the opcode table, indexed by Opcode, so
    // an opcode without a handler label fails to compile.
#define DVI_XLATE_HANDLER(name, ...) &&x_##name,
#define DVI_XLATE_PROBE(name, ...) &&x_probe,
    static const void *const kDispatch[] = {
        DVI_OPCODES(DVI_XLATE_HANDLER)
    };
    // Every entry runs the micro-op's dead-read probes, then its
    // handler: the table of a block whose entry test failed.
    static const void *const kProbeFirst[] = {
        DVI_OPCODES(DVI_XLATE_PROBE)
    };
#undef DVI_XLATE_HANDLER
#undef DVI_XLATE_PROBE

    // Everything mutable lives ahead of the first label: handlers
    // are entered by goto, which must not cross an initialization.
    const MicroOp *u = uops;
    // Without a trace only the last micro-op's successor is seen, so
    // it is set once per block: the fall-through past the block,
    // replaced by a taken control transfer, a halt or a fault. A
    // trace records every micro-op's successor.
    std::uint32_t u_next = Trace ? u->pc + 1 : b.entryPc + b.len;
    Addr eff_addr = 0;
    bool taken = false;
    const auto record = [&] {
        TraceRecord &tr = out[u - uops];
        tr.inst = exe.code[u->pc];
        tr.pc = u->pc;
        tr.nextPc = u_next;
        tr.effAddr = eff_addr;
        tr.taken = taken;
    };

    // With liveness on, the LVM's bits live here for the whole
    // block. lvm_ is written back wherever code outside this loop
    // reads it: block exit, the fault exit, each slow-path probe and
    // Ret's LVM-Stack merge.
    std::uint64_t lvm = live ? lvm_.mask().raw() : 0;
    // One test per block picks the dispatch table. A probe can fail
    // only if it reads a register that is dead at entry and
    // untouched by the block before it, or follows an in-block kill
    // or LVM restore (ProbeSummary); otherwise every probe passes
    // and none runs.
    const void *const *tbl = kDispatch;
    if (live) {
        const ProbeSummary &ps = b.probes[opts.honorEdvi];
        if ((ps.entryProbes.raw() & ~lvm) != 0 || ps.innerProbe)
            tbl = kProbeFirst;
    }
    goto *tbl[static_cast<unsigned>(u->op)];

x_probe:
    if (live && u->nChk) {
        lvm_.restore(RegMask(lvm));
        checkLiveAt(u->chk0, u->pc);
        if (u->nChk > 1)
            checkLiveAt(u->chk1, u->pc);
    }
    goto *kDispatch[static_cast<unsigned>(u->op)];

x_Nop:
    DVI_XLATE_NEXT();
x_Halt:
    halted_ = true;
    u_next = u->pc;
    goto x_epilogue;

x_Add:
    DVI_XLATE_SET_REG(u->rd, wrapAdd(intRegs[u->rs1], intRegs[u->rs2]));
    DVI_XLATE_NEXT();
x_Sub:
    DVI_XLATE_SET_REG(u->rd, wrapSub(intRegs[u->rs1], intRegs[u->rs2]));
    DVI_XLATE_NEXT();
x_Mul:
    DVI_XLATE_SET_REG(u->rd, wrapMul(intRegs[u->rs1], intRegs[u->rs2]));
    DVI_XLATE_NEXT();
x_Div:
    DVI_XLATE_SET_REG(u->rd, wrapDiv(intRegs[u->rs1], intRegs[u->rs2]));
    DVI_XLATE_NEXT();
x_And:
    DVI_XLATE_SET_REG(u->rd, intRegs[u->rs1] & intRegs[u->rs2]);
    DVI_XLATE_NEXT();
x_Or:
    DVI_XLATE_SET_REG(u->rd, intRegs[u->rs1] | intRegs[u->rs2]);
    DVI_XLATE_NEXT();
x_Xor:
    DVI_XLATE_SET_REG(u->rd, intRegs[u->rs1] ^ intRegs[u->rs2]);
    DVI_XLATE_NEXT();
x_Slt:
    DVI_XLATE_SET_REG(u->rd, intRegs[u->rs1] < intRegs[u->rs2] ? 1 : 0);
    DVI_XLATE_NEXT();
x_Sll:
    DVI_XLATE_SET_REG(u->rd,
              static_cast<std::int64_t>(
                  static_cast<std::uint64_t>(intRegs[u->rs1])
                  << (static_cast<std::uint64_t>(intRegs[u->rs2]) &
                      63)));
    DVI_XLATE_NEXT();
x_Srl:
    DVI_XLATE_SET_REG(u->rd,
              static_cast<std::int64_t>(
                  static_cast<std::uint64_t>(intRegs[u->rs1]) >>
                  (static_cast<std::uint64_t>(intRegs[u->rs2]) &
                   63)));
    DVI_XLATE_NEXT();

x_Addi:
    DVI_XLATE_SET_REG(u->rd, wrapAdd(intRegs[u->rs1], u->imm));
    DVI_XLATE_NEXT();
x_Andi:
    DVI_XLATE_SET_REG(u->rd, intRegs[u->rs1] & u->imm);
    DVI_XLATE_NEXT();
x_Ori:
    DVI_XLATE_SET_REG(u->rd, intRegs[u->rs1] | u->imm);
    DVI_XLATE_NEXT();
x_Xori:
    DVI_XLATE_SET_REG(u->rd, intRegs[u->rs1] ^ u->imm);
    DVI_XLATE_NEXT();
x_Slti:
    DVI_XLATE_SET_REG(u->rd, intRegs[u->rs1] < u->imm ? 1 : 0);
    DVI_XLATE_NEXT();
x_Lui:
    DVI_XLATE_SET_REG(u->rd, static_cast<std::int64_t>(
                         static_cast<std::int32_t>(u->imm) << 16));
    DVI_XLATE_NEXT();

x_Load:
    eff_addr = xlateAddr(*u);
    DVI_XLATE_SET_REG(u->rd, faulted_ ? 0 : mem.read(eff_addr));
    DVI_XLATE_MEM_NEXT();
x_Store:
    eff_addr = xlateAddr(*u);
    if (!faulted_)
        mem.write(eff_addr, intRegs[u->rs2]);
    DVI_XLATE_MEM_NEXT();

x_LiveLoad:
    // Restore-elimination oracle: dead per the LVM snapshot taken
    // at procedure entry (top of the LVM-Stack).
    if (live && !stack.top().test(u->rd))
        ++stats_.restoreElimOracle;
    eff_addr = xlateAddr(*u);
    DVI_XLATE_SET_REG(u->rd, faulted_ ? 0 : mem.read(eff_addr));
    DVI_XLATE_MEM_NEXT();
x_LiveStore:
    // Save-elimination oracle; the data register itself is exempt
    // from the dead-read probe (it is not in the chk list).
    if (live && !((lvm >> u->rs2) & 1))
        ++stats_.saveElimOracle;
    eff_addr = xlateAddr(*u);
    if (!faulted_)
        mem.write(eff_addr, intRegs[u->rs2]);
    DVI_XLATE_MEM_NEXT();

x_Fadd:
    fpRegs[u->rd] = fpRegs[u->rs1] + fpRegs[u->rs2];
    fpLive_.set(u->rd);
    DVI_XLATE_NEXT();
x_Fmul:
    fpRegs[u->rd] = fpRegs[u->rs1] * fpRegs[u->rs2];
    fpLive_.set(u->rd);
    DVI_XLATE_NEXT();
x_Fload:
    eff_addr = xlateAddr(*u);
    fpRegs[u->rd] =
        bitCast<double>(faulted_ ? 0 : mem.read(eff_addr));
    fpLive_.set(u->rd);
    DVI_XLATE_MEM_NEXT();
x_Fstore:
    eff_addr = xlateAddr(*u);
    if (!faulted_)
        mem.write(eff_addr, bitCast<std::int64_t>(fpRegs[u->rs2]));
    DVI_XLATE_MEM_NEXT();

x_Beq:
    taken = intRegs[u->rs1] == intRegs[u->rs2];
    goto x_branch;
x_Bne:
    taken = intRegs[u->rs1] != intRegs[u->rs2];
    goto x_branch;
x_Blt:
    taken = intRegs[u->rs1] < intRegs[u->rs2];
    goto x_branch;
x_Bge:
    taken = intRegs[u->rs1] >= intRegs[u->rs2];
    goto x_branch;
x_branch:
    if (taken) {
        ++stats_.takenBranches;
        u_next = static_cast<std::uint32_t>(u->imm);
    }
    goto x_epilogue;

x_Jump:
    u_next = static_cast<std::uint32_t>(u->imm);
    goto x_epilogue;

x_Call:
    ++callDepth;
    stats_.maxCallDepth = std::max(stats_.maxCallDepth, callDepth);
    if (live) {
        stack.push(RegMask(lvm));
        if (opts.honorIdvi) {
            lvm &= ~isa::idviCallMask().raw();
            fpLive_ = fpLive_.minus(isa::fpCallerSavedMask());
        }
    }
    DVI_XLATE_SET_REG(isa::regRa, static_cast<std::int64_t>(u->pc + 1));
    u_next = static_cast<std::uint32_t>(u->imm);
    goto x_epilogue;

x_Ret:
    // The ra dead-read probe already ran in x_probe (chk0).
    if (callDepth > 0)
        --callDepth;
    u_next = static_cast<std::uint32_t>(intRegs[isa::regRa]);
    if (live) {
        lvm_.restore(RegMask(lvm));
        lvm_.mergeFrom(stack.pop(), isa::calleeSavedMask());
        if (opts.honorIdvi) {
            lvm_.kill(isa::idviReturnMask());
            fpLive_ = fpLive_.minus(isa::fpCallerSavedMask());
        }
        lvm = lvm_.mask().raw();
    }
    goto x_epilogue;

x_Kill:
    // The pre-baked E-DVI kill mask, straight off the micro-op.
    if (live && opts.honorEdvi)
        lvm &= ~std::uint64_t{static_cast<std::uint32_t>(u->imm)};
    DVI_XLATE_NEXT();

x_LvmSave:
    eff_addr = xlateAddr(*u);
    if (!faulted_)
        mem.write(eff_addr, static_cast<std::int64_t>(
                                live ? lvm : lvm_.mask().raw()));
    DVI_XLATE_MEM_NEXT();
x_LvmLoad:
    eff_addr = xlateAddr(*u);
    // Mirrors the interpreter: a faulted refill restores an all-dead
    // mask before the run halts at this instruction.
    if (live)
        lvm = static_cast<std::uint64_t>(
            faulted_ ? 0 : mem.read(eff_addr));
    else
        lvm_.restore(RegMask(static_cast<std::uint64_t>(
            faulted_ ? 0 : mem.read(eff_addr))));
    DVI_XLATE_MEM_NEXT();

x_fault: {
    // Halt at the faulting instruction; counters cover exactly the
    // executed prefix (the faulting op included, as in the
    // interpreter, where stats are bumped before execution).
    const auto done = static_cast<std::uint32_t>(u - uops) + 1;
    halted_ = true;
    u_next = u->pc;
    if (live)
        lvm_.restore(RegMask(lvm));
    applyBlockStats(blockPrefixStats(b, done));
    if constexpr (Trace)
        record();
    pc_ = u_next;
    return done;
}

x_epilogue:
    if constexpr (Trace) {
        record();
        if (++u != end) {
            u_next = u->pc + 1;
            eff_addr = 0;
            taken = false;
            goto *tbl[static_cast<unsigned>(u->op)];
        }
    }
    if (live)
        lvm_.restore(RegMask(lvm));
    applyBlockStats(b.stat);
    pc_ = u_next;
    return b.len;
}

#undef DVI_XLATE_SET_REG
#undef DVI_XLATE_NEXT
#undef DVI_XLATE_MEM_NEXT

template std::uint32_t
Emulator::execBlock<false, false>(const XBlock &b, TraceRecord *out);
template std::uint32_t
Emulator::execBlock<false, true>(const XBlock &b, TraceRecord *out);
template std::uint32_t
Emulator::execBlock<true, false>(const XBlock &b, TraceRecord *out);
template std::uint32_t
Emulator::execBlock<true, true>(const XBlock &b, TraceRecord *out);

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC pop_options
#endif

std::uint64_t
Emulator::runXlate(std::uint64_t max_insts)
{
    ensureXlate();
    const std::size_t code_size = exe.code.size();
    const bool live = opts.trackLiveness;
    const base::CancelFlags cancel = opts.cancel;
    std::uint64_t n = 0;
    std::uint64_t next_cancel = 0;
    while (!halted_) {
        if (max_insts && n >= max_insts)
            break;
        if (cancel && n >= next_cancel) {
            if (cancel.raised())
                throw base::CancelledError(
                    "emulator cancelled after " +
                    std::to_string(stats_.insts) +
                    " retired insts");
            next_cancel = n + 4096;
        }
        if (pc_ >= code_size) {
            // Out-of-image pc: let the interpreter produce its
            // (deliberately identical) fetch panic.
            step();
            ++n;
            continue;
        }
        const XBlock &b = xprog_->getOrTranslate(pc_);
        if (max_insts && b.len > max_insts - n) {
            // The budget ends inside this block: finish with the
            // tier-0 loop, which applies the gate per instruction.
            while (!halted_ && n < max_insts) {
                step();
                ++n;
            }
            break;
        }
        n += live ? execBlock<false, true>(b, nullptr)
                  : execBlock<false, false>(b, nullptr);
    }
    return n;
}

std::size_t
Emulator::stepBatchXlate(TraceRecord *out, std::size_t max_records,
                         std::uint64_t max_prog_insts)
{
    ensureXlate();
    const std::size_t code_size = exe.code.size();
    const bool live = opts.trackLiveness;
    std::size_t n = 0;
    std::uint64_t prog = 0;
    while (n < max_records && !halted_) {
        if (max_prog_insts && prog >= max_prog_insts)
            break;
        if (pc_ >= code_size) {
            if (!step(out + n))
                break;
            if (!out[n].inst.isKill())
                ++prog;
            ++n;
            continue;
        }
        const XBlock &b = xprog_->getOrTranslate(pc_);
        if (b.len > max_records - n ||
            (max_prog_insts &&
             b.stat.progInsts >= max_prog_insts - prog)) {
            // The record buffer or the program-instruction gate ends
            // inside this block: the tier-0 loop applies both limits
            // before every single step, byte-identically.
            while (n < max_records) {
                if (max_prog_insts && prog >= max_prog_insts)
                    break;
                if (!step(out + n))
                    break;
                if (!out[n].inst.isKill())
                    ++prog;
                ++n;
            }
            break;
        }
        const std::uint32_t done =
            live ? execBlock<true, true>(b, out + n)
                 : execBlock<true, false>(b, out + n);
        n += done;
        prog += done == b.len
                    ? b.stat.progInsts
                    : blockPrefixStats(b, done).progInsts;
    }
    return n;
}

} // namespace arch
} // namespace dvi
