/**
 * @file
 * Tier-1 executor: runs the emulator from the basic-block
 * translation cache (arch/xlate.hh).
 *
 * The inner loop is threaded dispatch: on GCC/Clang each micro-op
 * handler ends in one indirect `goto *` through a label table
 * indexed by the pre-decoded opcode (no central switch, no
 * per-instruction re-decode); other compilers fall back to a dense
 * switch that jumps to the same handlers. Semantics are the
 * interpreter's, instruction for instruction — same stats, same
 * trace records, same LVM evolution, same dead-read diagnostics,
 * same fault behavior. Anywhere exactness is cheaper to prove than
 * to re-derive (instruction-budget gates, pc-outside-image panics),
 * this file simply falls back to the tier-0 step() loop, which *is*
 * the specification.
 *
 * With liveness on, the LVM's bits stay in a local for the whole
 * block, and the dead-read probes are hoisted to one test at block
 * entry against the block's ProbeSummary (arch/xlate.hh). Only when
 * that test says some probe could fail does the block run the
 * interpreter's probes, micro-op by micro-op and in its order, so
 * the dead-read count and first-dead-read diagnostics stay exact.
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

using isa::Opcode;

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

void
Emulator::applyBlockStats(const BlockStats &s)
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

// Threaded dispatch: GNU computed goto when available, otherwise a
// dense switch that jumps to the same handler labels.
#if defined(__GNUC__) || defined(__clang__)
#define DVI_XLATE_COMPUTED_GOTO 1
#else
#define DVI_XLATE_COMPUTED_GOTO 0
#endif

#if !DVI_XLATE_COMPUTED_GOTO
#define DVI_DISPATCH_CASE(name)                                     \
    case Opcode::name:                                              \
        goto x_##name;
#endif

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

template <bool Trace, bool Live>
std::uint32_t
Emulator::execBlock(const XBlock &b, TraceRecord *out)
{
    (void)out;
    constexpr bool live = Live;
    const MicroOp *const uops = b.uops.data();
    const std::uint32_t len = b.len;

    // Everything mutable lives ahead of the first label: handlers
    // are entered by goto, which must not cross an initialization.
    const MicroOp *u = nullptr;
    std::uint32_t i = 0;
    std::uint32_t u_next = 0;
    Addr eff_addr = 0;
    bool taken = false;

    // With liveness on, the LVM's bits live here for the whole
    // block. lvm_ is written back wherever code outside this loop
    // reads it: block exit, the fault exit, each slow-path probe and
    // Ret's LVM-Stack merge.
    std::uint64_t lvm = live ? lvm_.mask().raw() : 0;
    // One test per block. A probe can fail only if it reads a
    // register that is dead at entry and untouched by the block
    // before it, or follows an in-block kill or LVM restore
    // (ProbeSummary); otherwise every probe passes and none runs.
    bool probe = false;
    if (live) {
        const ProbeSummary &ps = b.probes[opts.honorEdvi];
        probe = (ps.entryProbes.raw() & ~lvm) != 0 || ps.innerProbe;
    }

#if DVI_XLATE_COMPUTED_GOTO
    // Indexed by Opcode; order must match isa::Opcode exactly.
    static const void *const kDispatch[] = {
        &&x_Nop, &&x_Halt, &&x_Add, &&x_Sub, &&x_Mul, &&x_Div,
        &&x_And, &&x_Or, &&x_Xor, &&x_Slt, &&x_Sll, &&x_Srl,
        &&x_Addi, &&x_Andi, &&x_Ori, &&x_Xori, &&x_Slti, &&x_Lui,
        &&x_Load, &&x_Store, &&x_LiveLoad, &&x_LiveStore,
        &&x_Fadd, &&x_Fmul, &&x_Fload, &&x_Fstore,
        &&x_Beq, &&x_Bne, &&x_Blt, &&x_Bge, &&x_Jump, &&x_Call,
        &&x_Ret, &&x_Kill, &&x_LvmSave, &&x_LvmLoad,
    };
    static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) ==
                      static_cast<unsigned>(Opcode::NumOpcodes),
                  "dispatch table covers every opcode");
#endif

x_top:
    u = uops + i;
    u_next = u->pc + 1;
    if constexpr (Trace) {
        eff_addr = 0;
        taken = false;
    }
    if (live && probe && u->nChk) {
        lvm_.restore(RegMask(lvm));
        checkLiveAt(u->chk0, u->pc);
        if (u->nChk > 1)
            checkLiveAt(u->chk1, u->pc);
    }
#if DVI_XLATE_COMPUTED_GOTO
    goto *kDispatch[static_cast<unsigned>(u->op)];
#else
    switch (u->op) {
        DVI_DISPATCH_CASE(Nop)
        DVI_DISPATCH_CASE(Halt)
        DVI_DISPATCH_CASE(Add)
        DVI_DISPATCH_CASE(Sub)
        DVI_DISPATCH_CASE(Mul)
        DVI_DISPATCH_CASE(Div)
        DVI_DISPATCH_CASE(And)
        DVI_DISPATCH_CASE(Or)
        DVI_DISPATCH_CASE(Xor)
        DVI_DISPATCH_CASE(Slt)
        DVI_DISPATCH_CASE(Sll)
        DVI_DISPATCH_CASE(Srl)
        DVI_DISPATCH_CASE(Addi)
        DVI_DISPATCH_CASE(Andi)
        DVI_DISPATCH_CASE(Ori)
        DVI_DISPATCH_CASE(Xori)
        DVI_DISPATCH_CASE(Slti)
        DVI_DISPATCH_CASE(Lui)
        DVI_DISPATCH_CASE(Load)
        DVI_DISPATCH_CASE(Store)
        DVI_DISPATCH_CASE(LiveLoad)
        DVI_DISPATCH_CASE(LiveStore)
        DVI_DISPATCH_CASE(Fadd)
        DVI_DISPATCH_CASE(Fmul)
        DVI_DISPATCH_CASE(Fload)
        DVI_DISPATCH_CASE(Fstore)
        DVI_DISPATCH_CASE(Beq)
        DVI_DISPATCH_CASE(Bne)
        DVI_DISPATCH_CASE(Blt)
        DVI_DISPATCH_CASE(Bge)
        DVI_DISPATCH_CASE(Jump)
        DVI_DISPATCH_CASE(Call)
        DVI_DISPATCH_CASE(Ret)
        DVI_DISPATCH_CASE(Kill)
        DVI_DISPATCH_CASE(LvmSave)
        DVI_DISPATCH_CASE(LvmLoad)
      default:
        panic("xlate: unhandled opcode");
    }
#endif

x_Nop:
    goto x_epilogue;
x_Halt:
    halted_ = true;
    u_next = u->pc;
    goto x_epilogue;

x_Add:
    DVI_XLATE_SET_REG(u->rd, wrapAdd(intRegs[u->rs1], intRegs[u->rs2]));
    goto x_epilogue;
x_Sub:
    DVI_XLATE_SET_REG(u->rd, wrapSub(intRegs[u->rs1], intRegs[u->rs2]));
    goto x_epilogue;
x_Mul:
    DVI_XLATE_SET_REG(u->rd, wrapMul(intRegs[u->rs1], intRegs[u->rs2]));
    goto x_epilogue;
x_Div:
    DVI_XLATE_SET_REG(u->rd, wrapDiv(intRegs[u->rs1], intRegs[u->rs2]));
    goto x_epilogue;
x_And:
    DVI_XLATE_SET_REG(u->rd, intRegs[u->rs1] & intRegs[u->rs2]);
    goto x_epilogue;
x_Or:
    DVI_XLATE_SET_REG(u->rd, intRegs[u->rs1] | intRegs[u->rs2]);
    goto x_epilogue;
x_Xor:
    DVI_XLATE_SET_REG(u->rd, intRegs[u->rs1] ^ intRegs[u->rs2]);
    goto x_epilogue;
x_Slt:
    DVI_XLATE_SET_REG(u->rd, intRegs[u->rs1] < intRegs[u->rs2] ? 1 : 0);
    goto x_epilogue;
x_Sll:
    DVI_XLATE_SET_REG(u->rd,
              static_cast<std::int64_t>(
                  static_cast<std::uint64_t>(intRegs[u->rs1])
                  << (static_cast<std::uint64_t>(intRegs[u->rs2]) &
                      63)));
    goto x_epilogue;
x_Srl:
    DVI_XLATE_SET_REG(u->rd,
              static_cast<std::int64_t>(
                  static_cast<std::uint64_t>(intRegs[u->rs1]) >>
                  (static_cast<std::uint64_t>(intRegs[u->rs2]) &
                   63)));
    goto x_epilogue;

x_Addi:
    DVI_XLATE_SET_REG(u->rd, wrapAdd(intRegs[u->rs1], u->imm));
    goto x_epilogue;
x_Andi:
    DVI_XLATE_SET_REG(u->rd, intRegs[u->rs1] & u->imm);
    goto x_epilogue;
x_Ori:
    DVI_XLATE_SET_REG(u->rd, intRegs[u->rs1] | u->imm);
    goto x_epilogue;
x_Xori:
    DVI_XLATE_SET_REG(u->rd, intRegs[u->rs1] ^ u->imm);
    goto x_epilogue;
x_Slti:
    DVI_XLATE_SET_REG(u->rd, intRegs[u->rs1] < u->imm ? 1 : 0);
    goto x_epilogue;
x_Lui:
    DVI_XLATE_SET_REG(u->rd, static_cast<std::int64_t>(
                         static_cast<std::int32_t>(u->imm) << 16));
    goto x_epilogue;

x_Load:
    eff_addr = xlateAddr(*u);
    DVI_XLATE_SET_REG(u->rd, faulted_ ? 0 : mem.read(eff_addr));
    goto x_mem_epilogue;
x_Store:
    eff_addr = xlateAddr(*u);
    if (!faulted_)
        mem.write(eff_addr, intRegs[u->rs2]);
    goto x_mem_epilogue;

x_LiveLoad:
    // Restore-elimination oracle: dead per the LVM snapshot taken
    // at procedure entry (top of the LVM-Stack).
    if (live && !stack.top().test(u->rd))
        ++stats_.restoreElimOracle;
    eff_addr = xlateAddr(*u);
    DVI_XLATE_SET_REG(u->rd, faulted_ ? 0 : mem.read(eff_addr));
    goto x_mem_epilogue;
x_LiveStore:
    // Save-elimination oracle; the data register itself is exempt
    // from the dead-read probe (it is not in the chk list).
    if (live && !((lvm >> u->rs2) & 1))
        ++stats_.saveElimOracle;
    eff_addr = xlateAddr(*u);
    if (!faulted_)
        mem.write(eff_addr, intRegs[u->rs2]);
    goto x_mem_epilogue;

x_Fadd:
    fpRegs[u->rd] = fpRegs[u->rs1] + fpRegs[u->rs2];
    fpLive_.set(u->rd);
    goto x_epilogue;
x_Fmul:
    fpRegs[u->rd] = fpRegs[u->rs1] * fpRegs[u->rs2];
    fpLive_.set(u->rd);
    goto x_epilogue;
x_Fload:
    eff_addr = xlateAddr(*u);
    fpRegs[u->rd] =
        bitCast<double>(faulted_ ? 0 : mem.read(eff_addr));
    fpLive_.set(u->rd);
    goto x_mem_epilogue;
x_Fstore:
    eff_addr = xlateAddr(*u);
    if (!faulted_)
        mem.write(eff_addr, bitCast<std::int64_t>(fpRegs[u->rs2]));
    goto x_mem_epilogue;

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
    // The ra dead-read probe already ran in the prologue (chk0).
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
    goto x_epilogue;

x_LvmSave:
    eff_addr = xlateAddr(*u);
    if (!faulted_)
        mem.write(eff_addr, static_cast<std::int64_t>(
                                live ? lvm : lvm_.mask().raw()));
    goto x_mem_epilogue;
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
    goto x_mem_epilogue;

    // Only memory micro-ops can latch faulted_ (via xlateAddr), so
    // only they pay the check; everything else jumps straight to
    // x_epilogue.
x_mem_epilogue:
    if (faulted_) {
        // Halt at the faulting instruction; counters cover exactly
        // the executed prefix (the faulting op included, as in the
        // interpreter, where stats are bumped before execution).
        halted_ = true;
        u_next = u->pc;
        if (live)
            lvm_.restore(RegMask(lvm));
        applyBlockStats(blockPrefixStats(b, i + 1));
        if constexpr (Trace) {
            TraceRecord &tr = out[i];
            tr.inst = exe.code[u->pc];
            tr.pc = u->pc;
            tr.nextPc = u_next;
            tr.effAddr = eff_addr;
            tr.taken = taken;
        }
        pc_ = u_next;
        return i + 1;
    }
    // fall through
x_epilogue:
    if constexpr (Trace) {
        TraceRecord &tr = out[i];
        tr.inst = exe.code[u->pc];
        tr.pc = u->pc;
        tr.nextPc = u_next;
        tr.effAddr = eff_addr;
        tr.taken = taken;
    }
    if (++i < len)
        goto x_top;

    if (live)
        lvm_.restore(RegMask(lvm));
    applyBlockStats(b.stat);
    pc_ = u_next;
    return len;
}

#undef DVI_XLATE_SET_REG

template std::uint32_t
Emulator::execBlock<false, false>(const XBlock &b, TraceRecord *out);
template std::uint32_t
Emulator::execBlock<false, true>(const XBlock &b, TraceRecord *out);
template std::uint32_t
Emulator::execBlock<true, false>(const XBlock &b, TraceRecord *out);
template std::uint32_t
Emulator::execBlock<true, true>(const XBlock &b, TraceRecord *out);

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
