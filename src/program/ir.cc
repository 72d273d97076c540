#include "program/ir.hh"

#include <sstream>

#include "base/logging.hh"

namespace dvi
{
namespace prog
{

std::vector<VReg>
irUses(const IrInst &inst)
{
    std::vector<VReg> uses;
    forEachUse(inst, [&uses](VReg v) { uses.push_back(v); });
    return uses;
}

std::vector<int>
Procedure::successors(int block) const
{
    const auto &bb = blocks[static_cast<std::size_t>(block)];
    const int next = block + 1;
    const bool has_next =
        next < static_cast<int>(blocks.size());

    // Empty or non-terminated blocks fall through; ret and halt
    // leave the procedure; a conditional branch also falls through.
    if (bb.insts.empty() || !bb.insts.back().isTerminator())
        return has_next ? std::vector<int>{next} : std::vector<int>{};
    const IrInst &last = bb.insts.back();
    if (!(last.info().reads & IrField::target))
        return {};
    if (last.isCondBranch() && has_next && last.target != next)
        return {last.target, next};
    return {last.target};
}

std::size_t
Procedure::instCount() const
{
    std::size_t n = 0;
    for (const auto &b : blocks)
        n += b.insts.size();
    return n;
}

namespace
{

/** The structure walk of one module, collecting every error. */
class StructureWalk
{
  public:
    explicit StructureWalk(const Module &mod) : mod_(mod) {}

    std::vector<IrError>
    run()
    {
        const int nprocs = static_cast<int>(mod_.procs.size());
        if (nprocs == 0)
            add(-1, -1, -1, "module has no procedures");
        else if (mod_.mainIndex < 0 || mod_.mainIndex >= nprocs)
            add(-1, -1, -1,
                "mainIndex " + std::to_string(mod_.mainIndex) +
                    " out of range");
        for (int p = 0; p < nprocs; ++p)
            walkProc(p);
        return std::move(errors_);
    }

  private:
    void
    add(int p, int b, int i, std::string message,
        bool cfgUsable = true)
    {
        errors_.push_back(
            IrError{p, b, i, std::move(message), cfgUsable});
    }

    /** Control structure first, then vreg ranges, so the first
     * error of a procedure is the one that shapes its CFG. One pass
     * over the instructions; range errors wait in `ranges`. */
    void
    walkProc(int p)
    {
        const Procedure &proc = mod_.procs[static_cast<std::size_t>(p)];
        if (proc.blocks.empty()) {
            add(p, -1, -1, "procedure has no blocks", false);
            return;
        }
        if (proc.params.size() > 4)
            add(p, -1, -1,
                std::to_string(proc.params.size()) +
                    " parameters exceed the 4-register ABI limit");

        std::vector<IrError> ranges;
        const auto range = [&](int b, int i, const char *role, VReg v) {
            ranges.push_back(IrError{p, b, i,
                                     std::string(role) + " vreg " +
                                         std::to_string(v) +
                                         " outside the allocated range",
                                     true});
        };
        for (VReg v : proc.params)
            if (v == noVReg || v >= proc.nextVReg)
                range(-1, -1, "parameter", v);

        const int nblocks = static_cast<int>(proc.blocks.size());
        for (int b = 0; b < nblocks; ++b) {
            const auto &insts =
                proc.blocks[static_cast<std::size_t>(b)].insts;
            const int ninsts = static_cast<int>(insts.size());
            for (int i = 0; i < ninsts; ++i) {
                const IrInst &inst = insts[static_cast<std::size_t>(i)];
                walkControl(p, b, i, inst, i == ninsts - 1);
                const VReg def = irDef(inst);
                if (def != noVReg && def >= proc.nextVReg)
                    range(b, i, "destination", def);
                forEachUse(inst, [&](VReg u) {
                    if (u >= proc.nextVReg)
                        range(b, i, "source", u);
                });
            }
            // A block that does not end in a terminator falls into
            // the next one, so the last block must end in one.
            if (b == nblocks - 1 &&
                (insts.empty() || !insts.back().isTerminator()))
                add(p, b, -1,
                    "final block falls off the end of the procedure",
                    false);
        }
        for (IrError &e : ranges)
            errors_.push_back(std::move(e));
    }

    void
    walkControl(int p, int b, int i, const IrInst &inst, bool last)
    {
        const int nblocks = static_cast<int>(
            mod_.procs[static_cast<std::size_t>(p)].blocks.size());
        const std::uint16_t reads = inst.info().reads;
        if (inst.isTerminator() && !last)
            add(p, b, i,
                "terminator is not the final instruction of its block",
                false);
        if ((reads & IrField::target) &&
            (inst.target < 0 || inst.target >= nblocks))
            add(p, b, i,
                "branch target block " + std::to_string(inst.target) +
                    " out of range",
                false);
        if (!(reads & IrField::callee))
            return;
        if (inst.callee < 0 ||
            inst.callee >= static_cast<int>(mod_.procs.size())) {
            add(p, b, i,
                "callee index " + std::to_string(inst.callee) +
                    " out of range");
            return;
        }
        const Procedure &callee =
            mod_.procs[static_cast<std::size_t>(inst.callee)];
        if (inst.args.size() > callee.params.size())
            add(p, b, i,
                std::to_string(inst.args.size()) +
                    " call arguments exceed the " +
                    std::to_string(callee.params.size()) +
                    " parameters of " + callee.name);
    }

    const Module &mod_;
    std::vector<IrError> errors_;
};

} // namespace

std::vector<IrError>
Module::structureErrors() const
{
    return StructureWalk(*this).run();
}

std::string
Module::validate() const
{
    const std::vector<IrError> errors = structureErrors();
    if (errors.empty())
        return "";
    const IrError &e = errors.front();
    std::ostringstream err;
    if (e.proc >= 0) {
        err << "proc " << procs[static_cast<std::size_t>(e.proc)].name;
        if (e.block >= 0)
            err << " block " << e.block;
        if (e.inst >= 0)
            err << " inst " << e.inst;
        err << ": ";
    }
    err << e.message;
    return err.str();
}

IrInst
irAlu(IrOp op, VReg dst, VReg src1, VReg src2)
{
    IrInst i;
    i.op = op;
    i.dst = dst;
    i.src1 = src1;
    i.src2 = src2;
    return i;
}

IrInst
irAluImm(IrOp op, VReg dst, VReg src1, std::int32_t imm)
{
    IrInst i;
    i.op = op;
    i.dst = dst;
    i.src1 = src1;
    i.imm = imm;
    return i;
}

IrInst
irLoadImm(VReg dst, std::int32_t imm)
{
    IrInst i;
    i.op = IrOp::LoadImm;
    i.dst = dst;
    i.imm = imm;
    return i;
}

IrInst
irLoad(VReg dst, VReg base, std::int32_t disp)
{
    IrInst i;
    i.op = IrOp::Load;
    i.dst = dst;
    i.src1 = base;
    i.imm = disp;
    return i;
}

IrInst
irStore(VReg value, VReg base, std::int32_t disp)
{
    IrInst i;
    i.op = IrOp::Store;
    i.src1 = value;
    i.src2 = base;
    i.imm = disp;
    return i;
}

IrInst
irLoadStack(VReg dst, std::int32_t slot)
{
    IrInst i;
    i.op = IrOp::LoadStack;
    i.dst = dst;
    i.imm = slot;
    return i;
}

IrInst
irStoreStack(VReg value, std::int32_t slot)
{
    IrInst i;
    i.op = IrOp::StoreStack;
    i.src1 = value;
    i.imm = slot;
    return i;
}

IrInst
irFadd(RegIndex fd, RegIndex fs1, RegIndex fs2)
{
    IrInst i;
    i.op = IrOp::Fadd;
    i.fd = fd;
    i.fs1 = fs1;
    i.fs2 = fs2;
    return i;
}

IrInst
irFmul(RegIndex fd, RegIndex fs1, RegIndex fs2)
{
    IrInst i = irFadd(fd, fs1, fs2);
    i.op = IrOp::Fmul;
    return i;
}

IrInst
irFloadStack(RegIndex fd, std::int32_t slot)
{
    IrInst i;
    i.op = IrOp::FloadStack;
    i.fd = fd;
    i.imm = slot;
    return i;
}

IrInst
irFstoreStack(RegIndex fs, std::int32_t slot)
{
    IrInst i;
    i.op = IrOp::FstoreStack;
    i.fs1 = fs;
    i.imm = slot;
    return i;
}

IrInst
irBranch(IrOp op, VReg src1, VReg src2, int targetBlock)
{
    IrInst i;
    i.op = op;
    i.src1 = src1;
    i.src2 = src2;
    i.target = targetBlock;
    return i;
}

IrInst
irJump(int targetBlock)
{
    IrInst i;
    i.op = IrOp::Jump;
    i.target = targetBlock;
    return i;
}

IrInst
irCall(int callee, std::vector<VReg> args, VReg dst)
{
    panic_if(args.size() > 4, "irCall with more than 4 arguments");
    IrInst i;
    i.op = IrOp::Call;
    i.callee = callee;
    i.args = std::move(args);
    i.dst = dst;
    return i;
}

IrInst
irRet(VReg value)
{
    IrInst i;
    i.op = IrOp::Ret;
    i.src1 = value;
    return i;
}

IrInst
irHalt()
{
    IrInst i;
    i.op = IrOp::Halt;
    return i;
}

} // namespace prog
} // namespace dvi
