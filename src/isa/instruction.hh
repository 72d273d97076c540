/**
 * @file
 * Instruction definition for the simulated ISA.
 *
 * The ISA is a load/store RISC machine extended with the paper's DVI
 * instructions:
 *
 *  - @c kill <mask>     — E-DVI: asserts the integer registers in the
 *                         mask are dead (§2 "Explicit DVI").
 *  - @c live-store / @c live-load — save/restore variants that only
 *                         execute when their data register is live
 *                         (§5.1 "Software Support").
 *  - @c lvm-save / @c lvm-load — spill/refill the Live Value Mask to
 *                         the thread control block across context
 *                         switches (§6.1).
 *
 * Branch and call targets are stored as absolute instruction indices
 * (the linker resolves labels). The architectural encoding is 4 bytes
 * per instruction (sizeBytes); the simulator keeps instructions in
 * this decoded form and never packs them.
 */

#ifndef DVI_ISA_INSTRUCTION_HH
#define DVI_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>

#include "base/reg_mask.hh"
#include "base/types.hh"

namespace dvi
{
namespace isa
{

/** Every operation the ISA defines. */
enum class Opcode : std::uint8_t
{
    Nop,
    Halt,
    // Integer ALU, register-register.
    Add,
    Sub,
    Mul,
    Div,
    And,
    Or,
    Xor,
    Slt,
    Sll,
    Srl,
    // Integer ALU, register-immediate.
    Addi,
    Andi,
    Ori,
    Xori,
    Slti,
    Lui,
    // Memory.
    Load,
    Store,
    LiveLoad,
    LiveStore,
    // Floating point (minimal: enough for FP-liveness experiments).
    Fadd,
    Fmul,
    Fload,
    Fstore,
    // Control.
    Beq,
    Bne,
    Blt,
    Bge,
    Jump,
    Call,
    Ret,
    // DVI ISA extensions.
    Kill,
    LvmSave,
    LvmLoad,
    NumOpcodes,
};

/** Functional-unit class an instruction occupies while executing. */
enum class FuClass : std::uint8_t
{
    None,     ///< zero-latency bookkeeping (nop, kill)
    IntAlu,
    IntMulDiv,
    FpAlu,
    FpMulDiv,
    MemPort,  ///< loads/stores (cache access handled separately)
    Branch,   ///< resolved on an integer ALU
};

/**
 * A decoded instruction. One struct serves the compiler's emitted
 * code, the functional emulator, and the timing model.
 */
struct Instruction
{
    Opcode op = Opcode::Nop;

    RegIndex rd = 0;   ///< integer destination (or FP dest for F-ops)
    RegIndex rs1 = 0;  ///< first integer source (or FP src1)
    RegIndex rs2 = 0;  ///< second integer source (or FP src2)

    /**
     * Immediate operand: ALU immediate, memory displacement, or
     * absolute instruction-index target for control transfers. For
     * Kill it holds the 32-bit register kill mask.
     */
    std::int32_t imm = 0;

    /** @name Factories @{ */
    static Instruction nop() { return {}; }
    static Instruction halt();
    static Instruction alu(Opcode op, RegIndex rd, RegIndex rs1,
                           RegIndex rs2);
    static Instruction aluImm(Opcode op, RegIndex rd, RegIndex rs1,
                              std::int32_t imm);
    static Instruction lui(RegIndex rd, std::int32_t imm);
    static Instruction load(RegIndex rd, RegIndex base,
                            std::int32_t disp);
    static Instruction store(RegIndex value, RegIndex base,
                             std::int32_t disp);
    static Instruction liveLoad(RegIndex rd, RegIndex base,
                                std::int32_t disp);
    static Instruction liveStore(RegIndex value, RegIndex base,
                                 std::int32_t disp);
    static Instruction fadd(RegIndex fd, RegIndex fs1, RegIndex fs2);
    static Instruction fmul(RegIndex fd, RegIndex fs1, RegIndex fs2);
    static Instruction fload(RegIndex fd, RegIndex base,
                             std::int32_t disp);
    static Instruction fstore(RegIndex fvalue, RegIndex base,
                              std::int32_t disp);
    static Instruction branch(Opcode op, RegIndex rs1, RegIndex rs2,
                              std::int32_t target);
    static Instruction jump(std::int32_t target);
    static Instruction call(std::int32_t target);
    static Instruction ret();
    static Instruction kill(RegMask mask);
    static Instruction lvmSave(RegIndex base, std::int32_t disp);
    static Instruction lvmLoad(RegIndex base, std::int32_t disp);
    /** @} */

    /** @name Classification queries @{ */
    bool isNop() const { return op == Opcode::Nop; }
    bool isHalt() const { return op == Opcode::Halt; }
    bool isCondBranch() const;
    bool isCall() const { return op == Opcode::Call; }
    bool isReturn() const { return op == Opcode::Ret; }
    bool
    isControl() const
    {
        return isCondBranch() || isCall() || isReturn() ||
               op == Opcode::Jump;
    }
    bool isLoad() const;
    bool isStore() const;
    bool isMem() const { return isLoad() || isStore(); }
    bool isKill() const { return op == Opcode::Kill; }
    /** A live-store: a callee-register save candidate (§5.1). */
    bool isSave() const { return op == Opcode::LiveStore; }
    /** A live-load: a callee-register restore candidate (§5.1). */
    bool isRestore() const { return op == Opcode::LiveLoad; }
    bool
    isFp() const
    {
        return op == Opcode::Fadd || op == Opcode::Fmul ||
               op == Opcode::Fload || op == Opcode::Fstore;
    }
    /** @} */

    /** Kill mask for E-DVI instructions. */
    RegMask
    killMask() const
    {
        return RegMask(static_cast<std::uint32_t>(imm));
    }

    /** True if this writes an integer architectural register. */
    bool writesIntReg() const;

    /** Integer destination register, valid when writesIntReg(). */
    RegIndex destIntReg() const { return rd; }

    /** True if this writes a floating-point register. */
    bool writesFpReg() const;

    /**
     * Collect integer source registers into out[]; returns the count
     * (0–2). Does not report the hard-wired zero filtering; callers
     * that care can skip r0.
     */
    unsigned srcIntRegs(RegIndex out[2]) const;

    /** FP source registers; returns count (0-2). */
    unsigned srcFpRegs(RegIndex out[2]) const;

    /**
     * For a live-store / live-load: the integer register being saved
     * or restored (the "data register" whose liveness gates execution).
     */
    RegIndex saveRestoreReg() const;

    /** Functional unit class used at execute. */
    FuClass fuClass() const;

    /** Execution latency on its functional unit, in cycles. */
    unsigned execLatency() const;

    /** Architectural size: every instruction encodes in 4 bytes. */
    static constexpr unsigned sizeBytes = 4;

    /** Disassemble to text, e.g. "addi sp, sp, -32". */
    std::string toString() const;

    bool
    operator==(const Instruction &o) const
    {
        return op == o.op && rd == o.rd && rs1 == o.rs1 &&
               rs2 == o.rs2 && imm == o.imm;
    }
    bool
    operator!=(const Instruction &o) const
    {
        return !(*this == o);
    }
};

// Hot classification queries, inline: the timing core and the
// emulator call these for every dynamic instruction.

inline bool
Instruction::isCondBranch() const
{
    return op == Opcode::Beq || op == Opcode::Bne ||
           op == Opcode::Blt || op == Opcode::Bge;
}

inline bool
Instruction::isLoad() const
{
    return op == Opcode::Load || op == Opcode::LiveLoad ||
           op == Opcode::Fload || op == Opcode::LvmLoad;
}

inline bool
Instruction::isStore() const
{
    return op == Opcode::Store || op == Opcode::LiveStore ||
           op == Opcode::Fstore || op == Opcode::LvmSave;
}

inline bool
Instruction::writesIntReg() const
{
    switch (op) {
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::Div:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Slt:
      case Opcode::Sll:
      case Opcode::Srl:
      case Opcode::Addi:
      case Opcode::Andi:
      case Opcode::Ori:
      case Opcode::Xori:
      case Opcode::Slti:
      case Opcode::Lui:
      case Opcode::Load:
      case Opcode::LiveLoad:
      case Opcode::Call:
        return true;
      default:
        return false;
    }
}

inline bool
Instruction::writesFpReg() const
{
    return op == Opcode::Fadd || op == Opcode::Fmul ||
           op == Opcode::Fload;
}

inline unsigned
Instruction::srcIntRegs(RegIndex out[2]) const
{
    switch (op) {
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::Div:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Slt:
      case Opcode::Sll:
      case Opcode::Srl:
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
        out[0] = rs1;
        out[1] = rs2;
        return 2;
      case Opcode::Addi:
      case Opcode::Andi:
      case Opcode::Ori:
      case Opcode::Xori:
      case Opcode::Slti:
      case Opcode::Load:
      case Opcode::LiveLoad:
      case Opcode::Fload:
      case Opcode::Ret:
      case Opcode::LvmSave:
      case Opcode::LvmLoad:
        out[0] = rs1;
        return 1;
      case Opcode::Store:
      case Opcode::LiveStore:
        out[0] = rs1;
        out[1] = rs2;
        return 2;
      case Opcode::Fstore:
        out[0] = rs1; // base address only; data is FP
        return 1;
      default:
        return 0;
    }
}

inline unsigned
Instruction::srcFpRegs(RegIndex out[2]) const
{
    switch (op) {
      case Opcode::Fadd:
      case Opcode::Fmul:
        out[0] = rs1;
        out[1] = rs2;
        return 2;
      case Opcode::Fstore:
        out[0] = rs2;
        return 1;
      default:
        return 0;
    }
}

inline RegIndex
Instruction::saveRestoreReg() const
{
    if (op == Opcode::LiveStore)
        return rs2;
    if (op == Opcode::LiveLoad)
        return rd;
    panic("saveRestoreReg() on non save/restore instruction");
}

inline FuClass
Instruction::fuClass() const
{
    switch (op) {
      case Opcode::Nop:
      case Opcode::Halt:
      case Opcode::Kill:
        return FuClass::None;
      case Opcode::Mul:
      case Opcode::Div:
        return FuClass::IntMulDiv;
      case Opcode::Fadd:
        return FuClass::FpAlu;
      case Opcode::Fmul:
        return FuClass::FpMulDiv;
      case Opcode::Load:
      case Opcode::Store:
      case Opcode::LiveLoad:
      case Opcode::LiveStore:
      case Opcode::Fload:
      case Opcode::Fstore:
      case Opcode::LvmSave:
      case Opcode::LvmLoad:
        return FuClass::MemPort;
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
      case Opcode::Jump:
      case Opcode::Call:
      case Opcode::Ret:
        return FuClass::Branch;
      default:
        return FuClass::IntAlu;
    }
}

inline unsigned
Instruction::execLatency() const
{
    switch (op) {
      case Opcode::Mul:
        return 3;
      case Opcode::Div:
        return 12;
      case Opcode::Fadd:
        return 2;
      case Opcode::Fmul:
        return 4;
      default:
        return 1;
    }
}

} // namespace isa
} // namespace dvi

#endif // DVI_ISA_INSTRUCTION_HH
