/**
 * @file
 * Instruction definition and opcode table for the simulated ISA.
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
 * Every opcode's facts are declared once, in the opcode table
 * (DVI_OPCODES): mnemonic, operand format, functional unit, latency
 * and class flags. The classification and operand queries, the
 * disassembler, the decode helpers (isa/decode.hh), the translator
 * and the translation tier's dispatch tables read or expand it. Two
 * hand-written copies stay on purpose, as independent references
 * that check it: the tier-0 interpreter (arch::Emulator::step) and
 * the lint prover's def/use sets (analysis/machine_checks.cc).
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

/**
 * The opcode table: one row per opcode, in Opcode order,
 *
 *   X(name, mnemonic, format, fu, latency, flags)
 *
 * giving its operand format (OperandFormat: which fields it reads and
 * how it prints), its functional-unit class and latency in cycles,
 * and its class flags (OpClass bits).
 */
#define DVI_OPCODES(X)                                                       \
    X(Nop,       "nop",      None,        None,      1,  0)                  \
    X(Halt,      "halt",     None,        None,      1,  0)                  \
    /* Integer ALU, register-register. */                                    \
    X(Add,       "add",      RegRegReg,   IntAlu,    1,  writesInt)          \
    X(Sub,       "sub",      RegRegReg,   IntAlu,    1,  writesInt)          \
    X(Mul,       "mul",      RegRegReg,   IntMulDiv, 3,  writesInt)          \
    X(Div,       "div",      RegRegReg,   IntMulDiv, 12, writesInt)          \
    X(And,       "and",      RegRegReg,   IntAlu,    1,  writesInt)          \
    X(Or,        "or",       RegRegReg,   IntAlu,    1,  writesInt)          \
    X(Xor,       "xor",      RegRegReg,   IntAlu,    1,  writesInt)          \
    X(Slt,       "slt",      RegRegReg,   IntAlu,    1,  writesInt)          \
    X(Sll,       "sll",      RegRegReg,   IntAlu,    1,  writesInt)          \
    X(Srl,       "srl",      RegRegReg,   IntAlu,    1,  writesInt)          \
    /* Integer ALU, register-immediate. */                                   \
    X(Addi,      "addi",     RegRegImm,   IntAlu,    1,  writesInt)          \
    X(Andi,      "andi",     RegRegImm,   IntAlu,    1,  writesInt)          \
    X(Ori,       "ori",      RegRegImm,   IntAlu,    1,  writesInt)          \
    X(Xori,      "xori",     RegRegImm,   IntAlu,    1,  writesInt)          \
    X(Slti,      "slti",     RegRegImm,   IntAlu,    1,  writesInt)          \
    X(Lui,       "lui",      RegImm,      IntAlu,    1,  writesInt)          \
    /* Memory: live-ld / live-st are the restore / save (§5.1). */           \
    X(Load,      "ld",       Load,        MemPort,   1,  load | writesInt)   \
    X(Store,     "st",       Store,       MemPort,   1,  store)              \
    X(LiveLoad,  "live-ld",  Load,        MemPort,   1,                      \
      load | restore | writesInt)                                            \
    X(LiveStore, "live-st",  Store,       MemPort,   1,  store | save)       \
    /* Floating point: enough for FP-liveness experiments. */                \
    X(Fadd,      "fadd",     FpRegRegReg, FpAlu,     2,  fp | writesFp)      \
    X(Fmul,      "fmul",     FpRegRegReg, FpMulDiv,  4,  fp | writesFp)      \
    X(Fload,     "fld",      FpLoad,      MemPort,   1,                      \
      load | fp | writesFp)                                                  \
    X(Fstore,    "fst",      FpStore,     MemPort,   1,  store | fp)         \
    /* Control. */                                                           \
    X(Beq,       "beq",      Branch,      Branch,    1,  condBranch)         \
    X(Bne,       "bne",      Branch,      Branch,    1,  condBranch)         \
    X(Blt,       "blt",      Branch,      Branch,    1,  condBranch)         \
    X(Bge,       "bge",      Branch,      Branch,    1,  condBranch)         \
    X(Jump,      "j",        Target,      Branch,    1,  jump)               \
    X(Call,      "call",     Target,      Branch,    1,  call | writesInt)   \
    X(Ret,       "ret",      Ret,         Branch,    1,  ret)                \
    /* DVI ISA extensions: E-DVI (§2), LVM spill and refill (§6.1). */       \
    X(Kill,      "kill",     Mask,        None,      1,  kill)               \
    X(LvmSave,   "lvm-save", BaseDisp,    MemPort,   1,  store)              \
    X(LvmLoad,   "lvm-load", BaseDisp,    MemPort,   1,  load)

/** Every operation the ISA defines: the opcode table's names. */
enum class Opcode : std::uint8_t
{
#define DVI_OPCODE_ENUM(name, ...) name,
    DVI_OPCODES(DVI_OPCODE_ENUM)
#undef DVI_OPCODE_ENUM
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

/** Which Instruction fields an opcode reads, and how it prints
 * (rd, rs1, rs2 name FP registers where the format says so). */
enum class OperandFormat : std::uint8_t
{
    None,         ///< nothing
    RegRegReg,    ///< `add rd, rs1, rs2`
    RegRegImm,    ///< `addi rd, rs1, imm`
    RegImm,       ///< `lui rd, imm`
    Load,         ///< `ld rd, imm(rs1)`
    Store,        ///< `st rs2, imm(rs1)`: rs2 is the data
    FpRegRegReg,  ///< `fadd fd, fs1, fs2`
    FpLoad,       ///< `fld fd, imm(rs1)`
    FpStore,      ///< `fst fs2, imm(rs1)`: FP data, integer base
    Branch,       ///< `beq rs1, rs2, @imm`
    Target,       ///< `j @imm`
    Ret,          ///< `ret`: reads ra through rs1
    Mask,         ///< `kill {...}`: imm is the register mask
    BaseDisp,     ///< `lvm-save imm(rs1)`
};

/** Class flags: the opcode classes Instruction's queries test, one
 * bit each. DecodedInst::flags holds the same bits. */
struct OpClass
{
    static constexpr std::uint16_t kill = 1u << 0;
    static constexpr std::uint16_t condBranch = 1u << 1;
    static constexpr std::uint16_t call = 1u << 2;
    static constexpr std::uint16_t ret = 1u << 3;
    static constexpr std::uint16_t jump = 1u << 4;
    static constexpr std::uint16_t load = 1u << 5;
    static constexpr std::uint16_t store = 1u << 6;
    static constexpr std::uint16_t save = 1u << 7;
    static constexpr std::uint16_t restore = 1u << 8;
    static constexpr std::uint16_t writesInt = 1u << 9;
    static constexpr std::uint16_t writesFp = 1u << 10;
    static constexpr std::uint16_t fp = 1u << 11;
};

/** One row of the opcode table. */
struct OpInfo : OpClass
{
    const char *mnemonic;
    OperandFormat format;
    FuClass fu;
    std::uint8_t latency;  ///< cycles on its functional unit
    std::uint16_t flags;   ///< OpClass bits

    /** DVI_OPCODES expanded, indexed by Opcode. */
    static const OpInfo table[];
};

// Defined out of the class so that the rows' flag names resolve as
// OpInfo's (inherited OpClass) members; each row's leading {} is that
// empty base.
inline constexpr OpInfo OpInfo::table[] = {
#define DVI_OPCODE_INFO(name, mnemonic, format, fu, latency, flags)   \
    {{}, mnemonic, OperandFormat::format, FuClass::fu, latency, flags},
    DVI_OPCODES(DVI_OPCODE_INFO)
#undef DVI_OPCODE_INFO
};
static_assert(sizeof(OpInfo::table) / sizeof(OpInfo::table[0]) ==
                  static_cast<unsigned>(Opcode::NumOpcodes),
              "one opcode-table row per opcode");

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

    /** This opcode's row of the opcode table. */
    const OpInfo &
    info() const
    {
        return OpInfo::table[static_cast<unsigned>(op)];
    }

    /** True if the opcode is in any of the OpClass classes `cls`. */
    bool is(std::uint16_t cls) const { return (info().flags & cls) != 0; }

    /** @name Classification queries @{ */
    bool isNop() const { return op == Opcode::Nop; }
    bool isHalt() const { return op == Opcode::Halt; }
    bool isCondBranch() const { return is(OpClass::condBranch); }
    bool isCall() const { return is(OpClass::call); }
    bool isReturn() const { return is(OpClass::ret); }
    bool
    isControl() const
    {
        return is(OpClass::condBranch | OpClass::call | OpClass::ret |
                  OpClass::jump);
    }
    bool isLoad() const { return is(OpClass::load); }
    bool isStore() const { return is(OpClass::store); }
    bool isMem() const { return is(OpClass::load | OpClass::store); }
    bool isKill() const { return is(OpClass::kill); }
    /** A live-store: a callee-register save candidate (§5.1). */
    bool isSave() const { return is(OpClass::save); }
    /** A live-load: a callee-register restore candidate (§5.1). */
    bool isRestore() const { return is(OpClass::restore); }
    bool isFp() const { return is(OpClass::fp); }
    /** @} */

    /** Kill mask for E-DVI instructions. */
    RegMask
    killMask() const
    {
        return RegMask(static_cast<std::uint32_t>(imm));
    }

    /** True if this writes an integer architectural register. */
    bool writesIntReg() const { return is(OpClass::writesInt); }

    /** Integer destination register, valid when writesIntReg(). */
    RegIndex destIntReg() const { return rd; }

    /** True if this writes a floating-point register. */
    bool writesFpReg() const { return is(OpClass::writesFp); }

    /**
     * Collect integer source registers into out[], in operand order
     * (rs1, then rs2); returns the count (0–2). Does not report the
     * hard-wired zero filtering; callers that care can skip r0.
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
    FuClass fuClass() const { return info().fu; }

    /** Execution latency on its functional unit, in cycles. */
    unsigned execLatency() const { return info().latency; }

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

// Operand queries, inline: the compiler's liveness and the decode
// helpers call them per static instruction.

inline unsigned
Instruction::srcIntRegs(RegIndex out[2]) const
{
    switch (info().format) {
      case OperandFormat::RegRegReg:
      case OperandFormat::Store:
      case OperandFormat::Branch:
        out[0] = rs1;
        out[1] = rs2;
        return 2;
      case OperandFormat::RegRegImm:
      case OperandFormat::Load:
      case OperandFormat::FpLoad:
      case OperandFormat::FpStore:  // base address only; data is FP
      case OperandFormat::Ret:
      case OperandFormat::BaseDisp:
        out[0] = rs1;
        return 1;
      default:
        return 0;
    }
}

inline unsigned
Instruction::srcFpRegs(RegIndex out[2]) const
{
    switch (info().format) {
      case OperandFormat::FpRegRegReg:
        out[0] = rs1;
        out[1] = rs2;
        return 2;
      case OperandFormat::FpStore:
        out[0] = rs2;
        return 1;
      default:
        return 0;
    }
}

inline RegIndex
Instruction::saveRestoreReg() const
{
    if (isSave())
        return rs2;
    if (isRestore())
        return rd;
    panic("saveRestoreReg() on non save/restore instruction");
}

} // namespace isa
} // namespace dvi

#endif // DVI_ISA_INSTRUCTION_HH
