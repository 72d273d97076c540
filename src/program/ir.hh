/**
 * @file
 * Mid-level program representation consumed by the compiler.
 *
 * Programs are modules of procedures; each procedure is a control-flow
 * graph of basic blocks over an unbounded set of virtual registers.
 * The workload generators (src/workload) build this IR, the compiler
 * (src/compiler) lowers it to the machine ISA — computing liveness,
 * allocating registers under the ABI's caller/callee-saved split,
 * synthesizing live-store/live-load prologues and epilogues, and
 * optionally inserting E-DVI kill instructions.
 *
 * Every IR op's facts are declared once, in the op table
 * (DVI_IR_OPS): its JSON token, operand format (DVI_IR_FORMATS: which
 * IrInst fields it reads and writes), the machine opcode it lowers to
 * and its class flags. The IrOp enum, the terminator and branch
 * queries, successors(), irUses/irDef (the def/use facts the
 * compiler's liveness and the IR lint rules share), the JSON tokens
 * and the compiler's lowering read or expand it. One walk,
 * Module::structureErrors, checks a module's structure; both
 * Module::validate and lint's ir-structure rule report from it.
 *
 * Conventions:
 *  - Virtual registers are 1-based; 0 (noVReg) means "absent".
 *  - Block 0 is the procedure entry; blocks are laid out in index
 *    order and a conditional branch falls through to the next block.
 *  - The last instruction of every block must be a terminator
 *    (branch/jump/ret/halt) unless the block falls through.
 *  - Floating-point operands are physical f-registers directly; FP
 *    pressure is light in the integer workloads under study so FP
 *    values are not register-allocated.
 */

#ifndef DVI_PROGRAM_IR_HH
#define DVI_PROGRAM_IR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"

namespace dvi
{
namespace prog
{

/** Virtual register id; 1-based. */
using VReg = std::uint32_t;

/** Absent virtual register. */
constexpr VReg noVReg = 0;

/**
 * The IR op table: one row per op, in IrOp order,
 *
 *   X(name, token, format, machineOp, flags)
 *
 * giving its JSON token (program/ir_json), its operand format
 * (IrFormat: which IrInst fields it reads and writes), the
 * isa::Opcode it lowers to where its format takes one (Nop where the
 * format's expansion fixes the machine code), and its class flags
 * (IrOpClass bits). Only the compiler expands the machineOp column,
 * so this layer depends on base/ alone.
 */
#define DVI_IR_OPS(X)                                                      \
    /* Register-register arithmetic: dst = src1 op src2. */               \
    X(Add,         "add",         RegReg,       Add,  pure)                \
    X(Sub,         "sub",         RegReg,       Sub,  pure)                \
    X(Mul,         "mul",         RegReg,       Mul,  pure)                \
    X(Div,         "div",         RegReg,       Div,  pure)                \
    X(And,         "and",         RegReg,       And,  pure)                \
    X(Or,          "or",          RegReg,       Or,   pure)                \
    X(Xor,         "xor",         RegReg,       Xor,  pure)                \
    X(Slt,         "slt",         RegReg,       Slt,  pure)                \
    X(Sll,         "sll",         RegReg,       Sll,  pure)                \
    X(Srl,         "srl",         RegReg,       Srl,  pure)                \
    /* Register-immediate: dst = src1 op imm. */                          \
    X(AddImm,      "addimm",      RegImm,       Addi, pure)                \
    X(AndImm,      "andimm",      RegImm,       Andi, pure)                \
    X(OrImm,       "orimm",       RegImm,       Ori,  pure)                \
    X(XorImm,      "xorimm",      RegImm,       Xori, pure)                \
    X(SltImm,      "sltimm",      RegImm,       Slti, pure)                \
    X(LoadImm,     "loadimm",     LoadImm,      Nop,  pure)                \
    /* Memory: a load through a pointer can fault, so is not pure. */     \
    X(Load,        "load",        Load,         Nop,  0)                   \
    X(Store,       "store",       Store,        Nop,  0)                   \
    X(LoadStack,   "loadstack",   StackLoad,    Nop,  pure)                \
    X(StoreStack,  "storestack",  StackStore,   Nop,  0)                   \
    /* Floating point on physical f-registers. */                         \
    X(Fadd,        "fadd",        FpRegReg,     Fadd, 0)                   \
    X(Fmul,        "fmul",        FpRegReg,     Fmul, 0)                   \
    X(FloadStack,  "floadstack",  FpStackLoad,  Nop,  0)                   \
    X(FstoreStack, "fstorestack", FpStackStore, Nop,  0)                   \
    /* Control. */                                                        \
    X(Beq,         "beq",         Branch,       Beq,  terminator | cond)   \
    X(Bne,         "bne",         Branch,       Bne,  terminator | cond)   \
    X(Blt,         "blt",         Branch,       Blt,  terminator | cond)   \
    X(Bge,         "bge",         Branch,       Bge,  terminator | cond)   \
    X(Jump,        "jump",        Jump,         Nop,  terminator)          \
    X(Call,        "call",        Call,         Nop,  0)                   \
    X(Ret,         "ret",         Ret,          Nop,  terminator)          \
    X(Halt,        "halt",        Halt,         Nop,  terminator)

/** IR operations: the op table's names. */
enum class IrOp : std::uint8_t
{
#define DVI_IR_OP_ENUM(name, ...) name,
    DVI_IR_OPS(DVI_IR_OP_ENUM)
#undef DVI_IR_OP_ENUM
};

/** The operand fields of an IrInst, one bit each. */
struct IrField
{
    static constexpr std::uint16_t dst = 1u << 0;
    static constexpr std::uint16_t src1 = 1u << 1;
    static constexpr std::uint16_t src2 = 1u << 2;
    static constexpr std::uint16_t imm = 1u << 3;
    static constexpr std::uint16_t target = 1u << 4;  ///< a block
    static constexpr std::uint16_t callee = 1u << 5;  ///< a procedure
    static constexpr std::uint16_t args = 1u << 6;
    static constexpr std::uint16_t fd = 1u << 7;
    static constexpr std::uint16_t fs1 = 1u << 8;
    static constexpr std::uint16_t fs2 = 1u << 9;
};

/**
 * The operand formats, X(name, reads, writes): the IrField bits each
 * reads and writes. Stack slots are 8-byte words indexed by imm.
 */
#define DVI_IR_FORMATS(X)                                                  \
    X(RegReg,       src1 | src2,          dst) /* dst = src1 op src2 */    \
    X(RegImm,       src1 | imm,           dst) /* dst = src1 op imm */     \
    X(LoadImm,      imm,                  dst) /* dst = imm */             \
    X(Load,         src1 | imm,           dst) /* dst = mem[src1+imm] */   \
    X(Store,        src1 | src2 | imm,    0)   /* mem[src2+imm] = src1 */  \
    X(StackLoad,    imm,                  dst) /* dst = slot imm */        \
    X(StackStore,   src1 | imm,           0)   /* slot imm = src1 */       \
    X(FpRegReg,     fs1 | fs2,            fd)  /* fd = fs1 op fs2 */       \
    X(FpStackLoad,  imm,                  fd)  /* fd = slot imm */         \
    X(FpStackStore, fs1 | imm,            0)   /* slot imm = fs1 */        \
    X(Branch,       src1 | src2 | target, 0)   /* if (...) goto target */  \
    X(Jump,         target,               0)   /* goto target */           \
    X(Call,         callee | args,        dst) /* dst optional */          \
    X(Ret,          src1,                 0)   /* src1 optional */         \
    X(Halt,         0,                    0)   /* main only */

/** Operand formats: the format table's names. */
enum class IrFormat : std::uint8_t
{
#define DVI_IR_FORMAT_ENUM(name, ...) name,
    DVI_IR_FORMATS(DVI_IR_FORMAT_ENUM)
#undef DVI_IR_FORMAT_ENUM
};

/** One row of the format table. */
struct IrFormatInfo : IrField
{
    std::uint16_t reads;   ///< IrField bits
    std::uint16_t writes;  ///< IrField bits

    /** DVI_IR_FORMATS expanded, indexed by IrFormat. */
    static const IrFormatInfo table[];
};

// Out of the class so the rows' field names resolve as the inherited
// IrField members; each row's leading {} is that empty base.
inline constexpr IrFormatInfo IrFormatInfo::table[] = {
#define DVI_IR_FORMAT_INFO(name, reads, writes) {{}, reads, writes},
    DVI_IR_FORMATS(DVI_IR_FORMAT_INFO)
#undef DVI_IR_FORMAT_INFO
};

/** Class flags of an IR op, one bit each. */
struct IrOpClass
{
    static constexpr std::uint8_t terminator = 1u << 0;
    static constexpr std::uint8_t cond = 1u << 1;  ///< conditional branch
    /** Its only effect is writing dst, so an unread result makes the
     * whole instruction dead. */
    static constexpr std::uint8_t pure = 1u << 2;
};

/** One row of the op table (without the machineOp column), with its
 * format's IrField bits copied in. */
struct IrOpInfo : IrOpClass
{
    const char *token;
    IrFormat format;
    std::uint8_t flags;    ///< IrOpClass bits
    std::uint16_t reads;   ///< IrField bits, from the format
    std::uint16_t writes;  ///< IrField bits, from the format

    /** DVI_IR_OPS expanded, indexed by IrOp. */
    static const IrOpInfo table[];
};

inline constexpr IrOpInfo IrOpInfo::table[] = {
#define DVI_IR_OP_INFO(name, token, format, machineOp, flags)          \
    {{},                                                               \
     token,                                                            \
     IrFormat::format,                                                 \
     flags,                                                            \
     IrFormatInfo::table[static_cast<unsigned>(IrFormat::format)].reads, \
     IrFormatInfo::table[static_cast<unsigned>(IrFormat::format)].writes},
    DVI_IR_OPS(DVI_IR_OP_INFO)
#undef DVI_IR_OP_INFO
};

/** One IR instruction. See DVI_IR_FORMATS for operand conventions. */
struct IrInst
{
    IrOp op;
    VReg dst = noVReg;
    VReg src1 = noVReg;
    VReg src2 = noVReg;
    std::int32_t imm = 0;
    int target = -1;           ///< destination block (branches)
    int callee = -1;           ///< procedure index (Call)
    std::vector<VReg> args;    ///< up to 4 argument vregs (Call)
    RegIndex fd = 0;           ///< FP destination (F-ops)
    RegIndex fs1 = 0;          ///< FP source 1
    RegIndex fs2 = 0;          ///< FP source 2

    /** This op's row of the op table. */
    const IrOpInfo &
    info() const
    {
        return IrOpInfo::table[static_cast<unsigned>(op)];
    }

    bool
    isTerminator() const
    {
        return (info().flags & IrOpClass::terminator) != 0;
    }

    bool
    isCondBranch() const
    {
        return (info().flags & IrOpClass::cond) != 0;
    }
};

/** Call fn(v) for each virtual register an instruction reads, in
 * field order (src1, src2, args), skipping absent (noVReg) ones. */
template <typename Fn>
void
forEachUse(const IrInst &inst, Fn &&fn)
{
    const std::uint16_t reads = inst.info().reads;
    if ((reads & IrField::src1) && inst.src1 != noVReg)
        fn(inst.src1);
    if ((reads & IrField::src2) && inst.src2 != noVReg)
        fn(inst.src2);
    if (reads & IrField::args)
        for (VReg a : inst.args)
            if (a != noVReg)
                fn(a);
}

/** Virtual registers an instruction reads: forEachUse's order. */
std::vector<VReg> irUses(const IrInst &inst);

/** The virtual register an instruction defines, or noVReg. */
inline VReg
irDef(const IrInst &inst)
{
    return (inst.info().writes & IrField::dst) ? inst.dst : noVReg;
}

/** A straight-line run of IR instructions. */
struct BasicBlock
{
    std::vector<IrInst> insts;
};

/** A procedure: CFG over virtual registers. */
struct Procedure
{
    std::string name;
    std::vector<VReg> params;  ///< vregs bound to a0..a3 at entry
    std::vector<BasicBlock> blocks;
    unsigned numLocalSlots = 0;  ///< 8-byte local stack words
    VReg nextVReg = 1;

    /** Allocate a fresh virtual register. */
    VReg newVReg() { return nextVReg++; }

    /** Append a new empty block; returns its index. */
    int
    newBlock()
    {
        blocks.emplace_back();
        return static_cast<int>(blocks.size()) - 1;
    }

    /** Append an instruction to a block. */
    void
    emit(int block, IrInst inst)
    {
        blocks[static_cast<std::size_t>(block)].insts.push_back(
            std::move(inst));
    }

    /**
     * CFG successors of a block, derived from its final instruction
     * (empty or non-terminated blocks fall through).
     */
    std::vector<int> successors(int block) const;

    /** Total IR instruction count. */
    std::size_t instCount() const;
};

/** One structural defect of a module (Module::structureErrors). */
struct IrError
{
    int proc = -1;   ///< procedure index; -1 = the whole module
    int block = -1;  ///< -1 = the whole procedure
    int inst = -1;   ///< index within the block; -1 = the whole block
    std::string message;
    /** False when the procedure's CFG is no longer sound enough for
     * dataflow (a misplaced terminator, a bad branch target, a
     * procedure with no blocks or one that falls off its end). */
    bool cfgUsable = true;
};

/** A whole program. */
struct Module
{
    std::string name;
    std::vector<Procedure> procs;
    int mainIndex = 0;

    /** Byte address where the global data region starts. */
    static constexpr Addr globalBase = 0x10000000;

    /** Size of the global data region in 8-byte words. */
    unsigned globalWords = 0;

    /**
     * Every structural defect, in walk order: the module has
     * procedures and a valid mainIndex; each procedure has blocks, at
     * most 4 params and no param or operand vreg beyond nextVReg; a
     * terminator ends its block and branch targets exist; a call
     * names an existing procedure and passes it no more args than it
     * has params; no procedure falls off its end. Module::validate
     * and lint's ir-structure rule both report from this one walk.
     */
    std::vector<IrError> structureErrors() const;

    /**
     * The first structural error as "proc P block B inst I: message"
     * (the site as far as it applies), or the empty string when the
     * module is valid.
     */
    std::string validate() const;
};

/** @name IR construction helpers @{ */
IrInst irAlu(IrOp op, VReg dst, VReg src1, VReg src2);
IrInst irAluImm(IrOp op, VReg dst, VReg src1, std::int32_t imm);
IrInst irLoadImm(VReg dst, std::int32_t imm);
IrInst irLoad(VReg dst, VReg base, std::int32_t disp);
IrInst irStore(VReg value, VReg base, std::int32_t disp);
IrInst irLoadStack(VReg dst, std::int32_t slot);
IrInst irStoreStack(VReg value, std::int32_t slot);
IrInst irFadd(RegIndex fd, RegIndex fs1, RegIndex fs2);
IrInst irFmul(RegIndex fd, RegIndex fs1, RegIndex fs2);
IrInst irFloadStack(RegIndex fd, std::int32_t slot);
IrInst irFstoreStack(RegIndex fs, std::int32_t slot);
IrInst irBranch(IrOp op, VReg src1, VReg src2, int targetBlock);
IrInst irJump(int targetBlock);
IrInst irCall(int callee, std::vector<VReg> args, VReg dst = noVReg);
IrInst irRet(VReg value = noVReg);
IrInst irHalt();
/** @} */

} // namespace prog
} // namespace dvi

#endif // DVI_PROGRAM_IR_HH
