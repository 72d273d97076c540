#include "arch/emulator.hh"

#include <algorithm>

#include "base/bits.hh"
#include "base/fault.hh"
#include "base/logging.hh"

namespace dvi
{
namespace arch
{

using isa::Instruction;
using isa::Opcode;

Emulator::Emulator(const comp::Executable &exe,
                   const EmulatorOptions &options)
    : exe(exe), opts(options),
      pc_(static_cast<std::uint32_t>(exe.entry)),
      lvm_(isa::abiEntryLiveMask()), stack(options.lvmStackDepth)
{
    intRegs[isa::regSp] =
        static_cast<std::int64_t>(comp::Executable::stackTop);
    // ra initially points past the end of code; a return from main
    // without halting is a program error caught by fetch().
    intRegs[isa::regRa] =
        static_cast<std::int64_t>(exe.code.size());
}

const Instruction &
Emulator::fetch(std::uint32_t idx) const
{
    panic_if(idx >= exe.code.size(),
             "pc ", idx, " outside code image (missing halt?)");
    return exe.code[idx];
}


void
Emulator::checkReadSlow(RegIndex r)
{
    if (!lvm_.isLive(r)) {
        if (stats_.deadReads == 0) {
            stats_.firstDeadReadPc = pc_;
            stats_.firstDeadReadReg = r;
        }
        ++stats_.deadReads;
        panic_if(opts.strictDeadReads,
                 "read of dead register ", isa::intRegName(r),
                 " at pc ", pc_, " (incorrect E-DVI)");
    }
}

bool
Emulator::step(TraceRecord *out)
{
    if (halted_)
        return false;

    const Instruction &inst = fetch(pc_);
    const std::uint32_t this_pc = pc_;
    std::uint32_t next_pc = pc_ + 1;
    Addr eff_addr = 0;
    bool taken = false;

    auto reg = [&](RegIndex r) { return intRegs[r]; };
    auto addr_of = [&](RegIndex base, std::int32_t disp) {
        checkRead(base);
        const Addr a = static_cast<Addr>(wrapAdd(reg(base), disp));
        if ((a & 7) && opts.faultOnMisaligned) {
            faulted_ = true;
            faultPc_ = this_pc;
        }
        return a;
    };
    // Faulted accesses are suppressed (loads read 0); the run halts
    // at the end of this step, so the suppressed effects are never
    // observable past the fault.
    auto mread = [&](Addr a) {
        return faulted_ ? 0 : mem.read(a);
    };
    auto mwrite = [&](Addr a, std::int64_t v) {
        if (!faulted_)
            mem.write(a, v);
    };

    ++stats_.insts;
    if (inst.isKill())
        ++stats_.kills;
    else
        ++stats_.progInsts;

    switch (inst.op) {
      case Opcode::Nop:
        break;
      case Opcode::Halt:
        halted_ = true;
        next_pc = this_pc;
        break;

      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::Div:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Slt:
      case Opcode::Sll:
      case Opcode::Srl: {
        ++stats_.aluOps;
        checkRead(inst.rs1);
        checkRead(inst.rs2);
        const std::int64_t a = reg(inst.rs1);
        const std::int64_t b = reg(inst.rs2);
        std::int64_t v = 0;
        switch (inst.op) {
          case Opcode::Add: v = wrapAdd(a, b); break;
          case Opcode::Sub: v = wrapSub(a, b); break;
          case Opcode::Mul: v = wrapMul(a, b); break;
          case Opcode::Div: v = wrapDiv(a, b); break;
          case Opcode::And: v = a & b; break;
          case Opcode::Or: v = a | b; break;
          case Opcode::Xor: v = a ^ b; break;
          case Opcode::Slt: v = a < b ? 1 : 0; break;
          case Opcode::Sll:
            v = static_cast<std::int64_t>(
                static_cast<std::uint64_t>(a)
                << (static_cast<std::uint64_t>(b) & 63));
            break;
          case Opcode::Srl:
            v = static_cast<std::int64_t>(
                static_cast<std::uint64_t>(a) >>
                (static_cast<std::uint64_t>(b) & 63));
            break;
          default: break;
        }
        setIntReg(inst.rd, v);
        break;
      }

      case Opcode::Addi:
      case Opcode::Andi:
      case Opcode::Ori:
      case Opcode::Xori:
      case Opcode::Slti: {
        ++stats_.aluOps;
        checkRead(inst.rs1);
        const std::int64_t a = reg(inst.rs1);
        std::int64_t v = 0;
        switch (inst.op) {
          case Opcode::Addi: v = wrapAdd(a, inst.imm); break;
          case Opcode::Andi: v = a & inst.imm; break;
          case Opcode::Ori: v = a | inst.imm; break;
          case Opcode::Xori: v = a ^ inst.imm; break;
          case Opcode::Slti: v = a < inst.imm ? 1 : 0; break;
          default: break;
        }
        setIntReg(inst.rd, v);
        break;
      }

      case Opcode::Lui:
        ++stats_.aluOps;
        setIntReg(inst.rd, static_cast<std::int64_t>(
                               static_cast<std::int32_t>(inst.imm)
                               << 16));
        break;

      case Opcode::Load: {
        ++stats_.memRefs;
        ++stats_.loads;
        eff_addr = addr_of(inst.rs1, inst.imm);
        setIntReg(inst.rd, mread(eff_addr));
        break;
      }
      case Opcode::Store: {
        ++stats_.memRefs;
        ++stats_.stores;
        checkRead(inst.rs2);
        eff_addr = addr_of(inst.rs1, inst.imm);
        mwrite(eff_addr, reg(inst.rs2));
        break;
      }

      case Opcode::LiveStore: {
        // A callee save. The data register read is exempt from the
        // dead-read check: saving a dead value is exactly what the
        // hardware squashes, and is harmless when executed.
        ++stats_.memRefs;
        ++stats_.stores;
        ++stats_.saves;
        if (opts.trackLiveness &&
            !lvm_.isLive(inst.saveRestoreReg()))
            ++stats_.saveElimOracle;
        eff_addr = addr_of(inst.rs1, inst.imm);
        mwrite(eff_addr, reg(inst.rs2));
        break;
      }
      case Opcode::LiveLoad: {
        // A callee restore; eliminable when the LVM snapshot taken
        // at procedure entry (top of the LVM-Stack) marks the
        // register dead — the same bit that squashed the save.
        ++stats_.memRefs;
        ++stats_.loads;
        ++stats_.restores;
        if (opts.trackLiveness &&
            !stack.top().test(inst.saveRestoreReg()))
            ++stats_.restoreElimOracle;
        eff_addr = addr_of(inst.rs1, inst.imm);
        setIntReg(inst.rd, mread(eff_addr));
        break;
      }

      case Opcode::Fadd:
      case Opcode::Fmul: {
        ++stats_.fpOps;
        const double a = fpRegs[inst.rs1];
        const double b = fpRegs[inst.rs2];
        fpRegs[inst.rd] =
            inst.op == Opcode::Fadd ? a + b : a * b;
        fpLive_.set(inst.rd);
        break;
      }
      case Opcode::Fload: {
        ++stats_.memRefs;
        ++stats_.loads;
        ++stats_.fpOps;
        eff_addr = addr_of(inst.rs1, inst.imm);
        fpRegs[inst.rd] = bitCast<double>(mread(eff_addr));
        fpLive_.set(inst.rd);
        break;
      }
      case Opcode::Fstore: {
        ++stats_.memRefs;
        ++stats_.stores;
        ++stats_.fpOps;
        eff_addr = addr_of(inst.rs1, inst.imm);
        mwrite(eff_addr,
                  bitCast<std::int64_t>(fpRegs[inst.rs2]));
        break;
      }

      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge: {
        ++stats_.condBranches;
        checkRead(inst.rs1);
        checkRead(inst.rs2);
        const std::int64_t a = reg(inst.rs1);
        const std::int64_t b = reg(inst.rs2);
        switch (inst.op) {
          case Opcode::Beq: taken = a == b; break;
          case Opcode::Bne: taken = a != b; break;
          case Opcode::Blt: taken = a < b; break;
          case Opcode::Bge: taken = a >= b; break;
          default: break;
        }
        if (taken) {
            ++stats_.takenBranches;
            next_pc = static_cast<std::uint32_t>(inst.imm);
        }
        break;
      }

      case Opcode::Jump:
        next_pc = static_cast<std::uint32_t>(inst.imm);
        break;

      case Opcode::Call: {
        ++stats_.calls;
        ++callDepth;
        stats_.maxCallDepth =
            std::max(stats_.maxCallDepth, callDepth);
        if (opts.trackLiveness) {
            stack.push(lvm_.snapshot());
            if (opts.honorIdvi) {
                lvm_.kill(isa::idviCallMask());
                fpLive_ = fpLive_.minus(isa::fpCallerSavedMask());
            }
        }
        setIntReg(isa::regRa,
                  static_cast<std::int64_t>(this_pc + 1));
        next_pc = static_cast<std::uint32_t>(inst.imm);
        break;
      }

      case Opcode::Ret: {
        ++stats_.returns;
        if (callDepth > 0)
            --callDepth;
        checkRead(isa::regRa);
        next_pc = static_cast<std::uint32_t>(reg(isa::regRa));
        if (opts.trackLiveness) {
            const RegMask snapshot = stack.pop();
            lvm_.mergeFrom(snapshot, isa::calleeSavedMask());
            if (opts.honorIdvi) {
                lvm_.kill(isa::idviReturnMask());
                fpLive_ = fpLive_.minus(isa::fpCallerSavedMask());
            }
        }
        break;
      }

      case Opcode::Kill:
        if (opts.trackLiveness && opts.honorEdvi)
            lvm_.kill(inst.killMask());
        break;

      case Opcode::LvmSave:
        ++stats_.memRefs;
        ++stats_.stores;
        eff_addr = addr_of(inst.rs1, inst.imm);
        mwrite(eff_addr, static_cast<std::int64_t>(
                                lvm_.mask().raw()));
        break;
      case Opcode::LvmLoad:
        ++stats_.memRefs;
        ++stats_.loads;
        eff_addr = addr_of(inst.rs1, inst.imm);
        lvm_.restore(RegMask(static_cast<std::uint64_t>(
            mread(eff_addr))));
        break;

      default:
        panic("emulator: unhandled opcode");
    }

    if (faulted_) {
        // Halt at the faulting instruction; the suppressed access
        // never happened, so state past the fault is unreachable.
        halted_ = true;
        next_pc = this_pc;
    }

    if (out) {
        out->inst = inst;
        out->pc = this_pc;
        out->nextPc = next_pc;
        out->effAddr = eff_addr;
        out->taken = taken;
    }
    pc_ = next_pc;
    return true;
}

std::size_t
Emulator::stepBatch(TraceRecord *out, std::size_t max_records,
                    std::uint64_t max_prog_insts)
{
    if (opts.tier == ExecTier::Xlate)
        return stepBatchXlate(out, max_records, max_prog_insts);
    std::size_t n = 0;
    std::uint64_t prog = 0;
    while (n < max_records) {
        if (max_prog_insts && prog >= max_prog_insts)
            break;
        if (!step(out + n))
            break;
        if (!out[n].inst.isKill())
            ++prog;
        ++n;
    }
    return n;
}

std::uint64_t
Emulator::run(std::uint64_t max_insts)
{
    if (opts.tier == ExecTier::Xlate)
        return runXlate(max_insts);
    const base::CancelFlags cancel = opts.cancel;
    std::uint64_t n = 0;
    while (!halted_ && (max_insts == 0 || n < max_insts)) {
        if (cancel && (n & 4095) == 0 && cancel.raised())
            throw base::CancelledError(
                "emulator cancelled after " +
                std::to_string(stats_.insts) + " retired insts");
        step();
        ++n;
    }
    return n;
}

std::uint64_t
Emulator::resultHash() const
{
    // FNV-1a over v0, v1, and the global region.
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    mix(static_cast<std::uint64_t>(intRegs[isa::regV0]));
    mix(static_cast<std::uint64_t>(intRegs[isa::regV1]));
    for (unsigned w = 0; w < exe.globalWords; ++w)
        mix(static_cast<std::uint64_t>(
            mem.read(exe.globalBase + 8 * w)));
    return h;
}

} // namespace arch
} // namespace dvi
