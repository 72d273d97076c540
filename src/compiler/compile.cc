#include "compiler/compile.hh"

#include <vector>

#include "base/logging.hh"
#include "compiler/liveness.hh"
#include "compiler/regalloc.hh"
#include "isa/registers.hh"

namespace dvi
{
namespace comp
{

using isa::Instruction;
using isa::Opcode;
using prog::IrFormat;
using prog::IrInst;
using prog::IrOp;
using prog::Module;
using prog::noVReg;
using prog::Procedure;
using prog::VReg;

namespace
{

/** A pending cross-procedure call target. */
struct CallFixup
{
    std::size_t codeIdx;
    int calleeProc;
};

/** The op table's machineOp column, indexed by IrOp. */
constexpr Opcode loweredOp[] = {
#define DVI_IR_LOWERED_OP(name, token, format, machineOp, flags)       \
    Opcode::machineOp,
    DVI_IR_OPS(DVI_IR_LOWERED_OP)
#undef DVI_IR_LOWERED_OP
};

/** Emits one procedure; owns its frame layout and fixups. */
class ProcEmitter
{
  public:
    ProcEmitter(const Module &mod, int proc_idx,
                const CompileOptions &options,
                std::vector<Instruction> &code,
                std::vector<CallFixup> &call_fixups)
        : mod(mod),
          proc(mod.procs[static_cast<std::size_t>(proc_idx)]),
          options(options), code(code), callFixups(call_fixups),
          live(computeLiveness(proc)),
          alloc(allocateRegisters(proc, live))
    {
        bool has_ret = false;
        for (const auto &bb : proc.blocks) {
            for (const auto &inst : bb.insts) {
                if (inst.op == IrOp::Call)
                    hasCalls = true;
                if (inst.op == IrOp::Ret)
                    has_ret = true;
            }
        }
        // A procedure that never returns (main) preserves nothing
        // for its caller: no callee-saved saves and no ra slot.
        needsPreservation = has_ret;

        if (needsPreservation) {
            isa::allocatableCalleeSaved().forEach([&](RegIndex r) {
                if (alloc.usedCalleeSaved.test(r))
                    savedRegs.push_back(r);
            });
        }

        frameWords = static_cast<unsigned>(savedRegs.size()) +
                     (savesRa() ? 1u : 0u) + alloc.numSpillSlots +
                     proc.numLocalSlots;
    }

    ProcInfo
    emit()
    {
        const int entry = static_cast<int>(code.size());
        emitPrologue();
        emitBody();
        emitEpilogue();
        return ProcInfo{proc.name, entry,
                        static_cast<int>(code.size())};
    }

  private:
    /** @name Frame layout (byte offsets from post-adjust sp) @{ */
    std::int32_t
    savedRegOffset(std::size_t i) const
    {
        return static_cast<std::int32_t>(8 * i);
    }

    std::int32_t
    raOffset() const
    {
        return static_cast<std::int32_t>(8 * savedRegs.size());
    }

    /** True when the frame holds a return-address slot. */
    bool savesRa() const { return hasCalls && needsPreservation; }

    std::int32_t
    spillOffset(int slot) const
    {
        return static_cast<std::int32_t>(
            8 * (savedRegs.size() + (savesRa() ? 1 : 0) +
                 static_cast<std::size_t>(slot)));
    }

    std::int32_t
    localOffset(std::int32_t slot) const
    {
        return static_cast<std::int32_t>(
            8 * (savedRegs.size() + (savesRa() ? 1 : 0) +
                 alloc.numSpillSlots) +
            8 * slot);
    }
    /** @} */

    void
    push(Instruction inst)
    {
        code.push_back(inst);
    }

    void
    emitMove(RegIndex dst, RegIndex src)
    {
        push(Instruction::aluImm(Opcode::Addi, dst, src, 0));
    }

    void
    emitLoadImm(RegIndex dst, std::int32_t imm)
    {
        if (imm >= -32768 && imm <= 32767) {
            push(Instruction::aluImm(Opcode::Addi, dst, isa::regZero,
                                     imm));
        } else {
            push(Instruction::lui(dst, imm >> 16));
            if (imm & 0xffff)
                push(Instruction::aluImm(Opcode::Ori, dst, dst,
                                         imm & 0xffff));
        }
    }

    /** Materialize vreg v for reading; may emit a spill reload. */
    RegIndex
    readSrc(VReg v, int which)
    {
        const VRegLoc &loc = alloc.locs[v];
        panic_if(!loc.allocated, "read of unallocated vreg ", v,
                 " in ", proc.name);
        if (loc.inReg)
            return loc.reg;
        RegIndex scratch =
            which == 0 ? spillScratch0() : spillScratch1();
        push(Instruction::load(scratch, isa::regSp,
                               spillOffset(loc.spillSlot)));
        return scratch;
    }

    /** Register an instruction computing vreg v should target. */
    RegIndex
    destReg(VReg v)
    {
        const VRegLoc &loc = alloc.locs[v];
        panic_if(!loc.allocated, "write of unallocated vreg ", v);
        return loc.inReg ? loc.reg : spillScratch0();
    }

    /** After computing into destReg(v), flush a spilled dest. */
    void
    flushDest(VReg v)
    {
        const VRegLoc &loc = alloc.locs[v];
        if (!loc.inReg)
            push(Instruction::store(spillScratch0(), isa::regSp,
                                    spillOffset(loc.spillSlot)));
    }

    void
    emitPrologue()
    {
        if (frameWords > 0)
            push(Instruction::aluImm(
                Opcode::Addi, isa::regSp, isa::regSp,
                -static_cast<std::int32_t>(8 * frameWords)));
        for (std::size_t i = 0; i < savedRegs.size(); ++i)
            push(Instruction::liveStore(savedRegs[i], isa::regSp,
                                        savedRegOffset(i)));
        if (savesRa())
            push(Instruction::store(isa::regRa, isa::regSp,
                                    raOffset()));
        // Bind incoming arguments to their allocated homes.
        for (std::size_t i = 0; i < proc.params.size(); ++i) {
            VReg pv = proc.params[i];
            if (pv == noVReg || !alloc.locs[pv].allocated)
                continue;
            const RegIndex argreg =
                static_cast<RegIndex>(isa::regA0 + i);
            const VRegLoc &loc = alloc.locs[pv];
            if (loc.inReg)
                emitMove(loc.reg, argreg);
            else
                push(Instruction::store(argreg, isa::regSp,
                                        spillOffset(loc.spillSlot)));
        }
    }

    /** Registers holding any virtual register live in `liveSet`. */
    RegMask
    regsLiveIn(const DynBitset &live_set) const
    {
        RegMask m;
        live_set.forEach([&](std::size_t v) {
            const VRegLoc &loc = alloc.locs[v];
            if (loc.allocated && loc.inReg)
                m.set(loc.reg);
        });
        return m;
    }

    void
    emitBody()
    {
        blockStart.assign(proc.blocks.size(), 0);
        for (std::size_t b = 0; b < proc.blocks.size(); ++b) {
            blockStart[b] = code.size();
            const auto after = liveAfterPerInst(
                proc, live, static_cast<int>(b));
            const auto &insts = proc.blocks[b].insts;
            DynBitset before = live.liveIn[b];
            for (std::size_t i = 0; i < insts.size(); ++i) {
                expand(insts[i], after[i]);
                if (options.edvi == EdviPolicy::Dense &&
                    !insts[i].isTerminator())
                    emitDenseKill(insts[i], before, after[i]);
                before = after[i];
            }
        }
        // Resolve intra-procedure branch targets.
        for (const auto &[idx, target] : branchFixups)
            code[idx].imm =
                static_cast<std::int32_t>(blockStart[target]);
    }

    /**
     * Dense policy: kill allocatable registers whose value died at
     * this instruction and that no live vreg still occupies.
     */
    void
    emitDenseKill(const IrInst &inst, const DynBitset &before,
                  const DynBitset &after)
    {
        RegMask live_regs = regsLiveIn(after);
        RegMask dying;
        before.forEach([&](std::size_t v) {
            if (after.test(v))
                return;
            const VRegLoc &loc = alloc.locs[v];
            if (loc.allocated && loc.inReg)
                dying.set(loc.reg);
        });
        dying = dying.minus(live_regs);
        if (VReg d = irDef(inst);
            d != noVReg && alloc.locs[d].allocated &&
            alloc.locs[d].inReg)
            dying.clear(alloc.locs[d].reg);
        if (!dying.empty())
            push(Instruction::kill(dying));
    }

    void
    expand(const IrInst &inst, const DynBitset &live_after)
    {
        const Opcode op = loweredOp[static_cast<unsigned>(inst.op)];
        switch (inst.info().format) {
          case IrFormat::RegReg: {
            RegIndex a = readSrc(inst.src1, 0);
            RegIndex b = readSrc(inst.src2, 1);
            push(Instruction::alu(op, destReg(inst.dst), a, b));
            flushDest(inst.dst);
            break;
          }
          case IrFormat::RegImm: {
            RegIndex a = readSrc(inst.src1, 0);
            push(Instruction::aluImm(op, destReg(inst.dst), a,
                                     inst.imm));
            flushDest(inst.dst);
            break;
          }
          case IrFormat::LoadImm:
            emitLoadImm(destReg(inst.dst), inst.imm);
            flushDest(inst.dst);
            break;
          case IrFormat::Load: {
            RegIndex base = readSrc(inst.src1, 0);
            push(Instruction::load(destReg(inst.dst), base,
                                   inst.imm));
            flushDest(inst.dst);
            break;
          }
          case IrFormat::Store: {
            RegIndex value = readSrc(inst.src1, 0);
            RegIndex base = readSrc(inst.src2, 1);
            push(Instruction::store(value, base, inst.imm));
            break;
          }
          case IrFormat::StackLoad:
            push(Instruction::load(destReg(inst.dst), isa::regSp,
                                   localOffset(inst.imm)));
            flushDest(inst.dst);
            break;
          case IrFormat::StackStore: {
            RegIndex value = readSrc(inst.src1, 0);
            push(Instruction::store(value, isa::regSp,
                                    localOffset(inst.imm)));
            break;
          }
          case IrFormat::FpRegReg:
            push(Instruction{op, inst.fd, inst.fs1, inst.fs2});
            break;
          case IrFormat::FpStackLoad:
            push(Instruction::fload(inst.fd, isa::regSp,
                                    localOffset(inst.imm)));
            break;
          case IrFormat::FpStackStore:
            push(Instruction::fstore(inst.fs1, isa::regSp,
                                     localOffset(inst.imm)));
            break;
          case IrFormat::Branch: {
            RegIndex a = readSrc(inst.src1, 0);
            RegIndex b = readSrc(inst.src2, 1);
            branchFixups.emplace_back(code.size(), inst.target);
            push(Instruction::branch(op, a, b, 0));
            break;
          }
          case IrFormat::Jump:
            branchFixups.emplace_back(code.size(), inst.target);
            push(Instruction::jump(0));
            break;
          case IrFormat::Call:
            expandCall(inst, live_after);
            break;
          case IrFormat::Ret:
            if (inst.src1 != noVReg) {
                const VRegLoc &loc = alloc.locs[inst.src1];
                panic_if(!loc.allocated, "return of unallocated vreg");
                if (loc.inReg)
                    emitMove(isa::regV0, loc.reg);
                else
                    push(Instruction::load(
                        isa::regV0, isa::regSp,
                        spillOffset(loc.spillSlot)));
            }
            retFixups.push_back(code.size());
            push(Instruction::jump(0));
            break;
          case IrFormat::Halt:
            push(Instruction::halt());
            break;
        }
    }

    void
    expandCall(const IrInst &inst, const DynBitset &live_after)
    {
        // Marshal arguments into a0..a3.
        for (std::size_t k = 0; k < inst.args.size(); ++k) {
            const VRegLoc &loc = alloc.locs[inst.args[k]];
            panic_if(!loc.allocated, "call arg unallocated");
            const RegIndex argreg =
                static_cast<RegIndex>(isa::regA0 + k);
            if (loc.inReg)
                emitMove(argreg, loc.reg);
            else
                push(Instruction::load(argreg, isa::regSp,
                                       spillOffset(loc.spillSlot)));
        }
        // E-DVI: kill the used callee-saved registers that hold no
        // live value across this call (§5.1: "EDVI must be inserted
        // only if a callee-saved register is both assigned to in the
        // procedure and dead at the call site").
        if (options.edvi == EdviPolicy::CallSites ||
            options.edvi == EdviPolicy::Dense) {
            RegMask dead = alloc.usedCalleeSaved.minus(
                regsLiveIn(live_after));
            if (!dead.empty())
                push(Instruction::kill(dead));
        }
        callFixups.push_back(CallFixup{code.size(), inst.callee});
        push(Instruction::call(0));
        if (inst.dst != noVReg && alloc.locs[inst.dst].allocated) {
            const VRegLoc &loc = alloc.locs[inst.dst];
            if (loc.inReg)
                emitMove(loc.reg, isa::regV0);
            else
                push(Instruction::store(isa::regV0, isa::regSp,
                                        spillOffset(loc.spillSlot)));
        }
    }

    void
    emitEpilogue()
    {
        if (retFixups.empty())
            return;  // main halts; no fallthrough possible
        const std::size_t epilogue = code.size();
        for (std::size_t idx : retFixups)
            code[idx].imm = static_cast<std::int32_t>(epilogue);
        if (savesRa())
            push(Instruction::load(isa::regRa, isa::regSp,
                                   raOffset()));
        for (std::size_t i = savedRegs.size(); i > 0; --i)
            push(Instruction::liveLoad(savedRegs[i - 1], isa::regSp,
                                       savedRegOffset(i - 1)));
        if (frameWords > 0)
            push(Instruction::aluImm(
                Opcode::Addi, isa::regSp, isa::regSp,
                static_cast<std::int32_t>(8 * frameWords)));
        push(Instruction::ret());
    }

    const Module &mod;
    const Procedure &proc;
    const CompileOptions &options;
    std::vector<Instruction> &code;
    std::vector<CallFixup> &callFixups;

    Liveness live;
    Allocation alloc;
    bool hasCalls = false;
    bool needsPreservation = false;
    std::vector<RegIndex> savedRegs;
    unsigned frameWords = 0;

    std::vector<std::size_t> blockStart;
    std::vector<std::pair<std::size_t, int>> branchFixups;
    std::vector<std::size_t> retFixups;
};

} // namespace

Executable
compile(const Module &mod, const CompileOptions &options)
{
    std::string err = mod.validate();
    panic_if(!err.empty(), "compile: invalid module: ", err);

    Executable exe;
    exe.name = mod.name;
    exe.globalBase = Module::globalBase;
    exe.globalWords = mod.globalWords;

    std::vector<CallFixup> call_fixups;
    for (std::size_t p = 0; p < mod.procs.size(); ++p) {
        ProcEmitter emitter(mod, static_cast<int>(p), options,
                            exe.code, call_fixups);
        exe.procs.push_back(emitter.emit());
    }
    for (const auto &fx : call_fixups)
        exe.code[fx.codeIdx].imm =
            exe.procs[static_cast<std::size_t>(fx.calleeProc)].entry;
    exe.entry =
        exe.procs[static_cast<std::size_t>(mod.mainIndex)].entry;
    return exe;
}

} // namespace comp
} // namespace dvi
