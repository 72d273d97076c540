/**
 * @file
 * Unit tests for the ISA: calling convention masks, instruction
 * construction/classification, decoding, disassembly.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "isa/decode.hh"
#include "isa/instruction.hh"
#include "isa/registers.hh"

namespace dvi
{
namespace isa
{
namespace
{

TEST(CallingConvention, CallerAndCalleeSetsDisjoint)
{
    EXPECT_TRUE((callerSavedMask() & calleeSavedMask()).empty());
}

TEST(CallingConvention, IdviIsCallerSavedTemporariesOnly)
{
    // The I-DVI mask must exclude anything that carries live values
    // across a call boundary: arguments in, return values out, and
    // the return address.
    EXPECT_TRUE(idviMask().minus(callerSavedMask()).empty());
    EXPECT_TRUE((idviMask() & argMask()).empty());
    EXPECT_TRUE((idviMask() & returnValueMask()).empty());
    EXPECT_FALSE(idviMask().test(regRa));
    EXPECT_FALSE(idviMask().test(regSp));
    EXPECT_FALSE(idviMask().test(regZero));
}

TEST(CallingConvention, AsymmetricIdviMasks)
{
    // Entry: return values dead, arguments live. Exit: arguments
    // dead, return values live (§2 "dead at the entry and exit
    // points").
    EXPECT_TRUE(idviCallMask().test(regV0));
    EXPECT_TRUE((idviCallMask() & argMask()).empty());
    EXPECT_TRUE(idviReturnMask().test(regA0));
    EXPECT_TRUE((idviReturnMask() & returnValueMask()).empty());
    // Both extend the common temporaries mask.
    EXPECT_TRUE(idviMask().minus(idviCallMask()).empty());
    EXPECT_TRUE(idviMask().minus(idviReturnMask()).empty());
    // Neither touches callee-saved state or the stack pointer.
    EXPECT_TRUE((idviCallMask() & calleeSavedMask()).empty());
    EXPECT_TRUE((idviReturnMask() & calleeSavedMask()).empty());
    EXPECT_FALSE(idviCallMask().test(regSp));
    EXPECT_FALSE(idviReturnMask().test(regSp));
}

TEST(CallingConvention, CalleeSavedContents)
{
    for (RegIndex r = 16; r <= 23; ++r)
        EXPECT_TRUE(isCalleeSaved(r)) << int(r);
    EXPECT_TRUE(isCalleeSaved(regFp));
    EXPECT_FALSE(isCalleeSaved(8));
    EXPECT_TRUE(isCallerSaved(8));
}

TEST(CallingConvention, AllocatablePoolsWithinConvention)
{
    EXPECT_TRUE(allocatableCalleeSaved()
                    .minus(calleeSavedMask())
                    .empty());
    EXPECT_TRUE(allocatableCallerSaved()
                    .minus(callerSavedMask())
                    .empty());
    EXPECT_TRUE(
        (allocatableCalleeSaved() & allocatableCallerSaved()).empty());
}

TEST(CallingConvention, ContextSwitchMaskExcludesZeroAndKernel)
{
    RegMask m = contextSwitchSavedMask();
    EXPECT_FALSE(m.test(regZero));
    EXPECT_FALSE(m.test(regK0));
    EXPECT_FALSE(m.test(regK1));
    EXPECT_EQ(m.count(), numIntRegs - 3);
}

TEST(CallingConvention, FpMasksPartition)
{
    EXPECT_TRUE((fpCallerSavedMask() & fpCalleeSavedMask()).empty());
    EXPECT_EQ((fpCallerSavedMask() | fpCalleeSavedMask()).count(),
              numFpRegs);
}

TEST(CallingConvention, MasksAreConstantsWithPinnedValues)
{
    // Each ABI mask is a compile-time constant; the raw values are
    // the ones the out-of-line builders produced, bit for bit.
    static_assert(calleeSavedMask().raw() == 0x40ff0000, "");
    static_assert(callerSavedMask().raw() == 0x8300fffe, "");
    static_assert(idviMask().raw() == 0x0300ff02, "");
    static_assert(idviCallMask().raw() == 0x0300ff0e, "");
    static_assert(idviReturnMask().raw() == 0x0300fff2, "");
    static_assert(argMask().raw() == 0xf0, "");
    static_assert(returnValueMask().raw() == 0xc, "");
    static_assert(allocatableCalleeSaved().raw() == 0x00ff0000, "");
    static_assert(allocatableCallerSaved().raw() == 0x0300ff00, "");
    static_assert(contextSwitchSavedMask().raw() == 0xf3fffffe, "");
    static_assert(abiEntryLiveMask().raw() == 0xb00000f1, "");
    static_assert(fpCallerSavedMask().raw() == 0x000fffff, "");
    static_assert(fpCalleeSavedMask().raw() == 0xfff00000, "");
    SUCCEED();
}

TEST(CallingConvention, RegisterNames)
{
    EXPECT_EQ(intRegName(0), "zero");
    EXPECT_EQ(intRegName(regSp), "sp");
    EXPECT_EQ(intRegName(16), "s0");
    EXPECT_EQ(intRegName(8), "t0");
    EXPECT_EQ(fpRegName(7), "f7");
}

TEST(Instruction, AluFactoryAndQueries)
{
    auto i = Instruction::alu(Opcode::Add, 3, 4, 5);
    EXPECT_TRUE(i.writesIntReg());
    EXPECT_EQ(i.destIntReg(), 3);
    RegIndex srcs[2];
    ASSERT_EQ(i.srcIntRegs(srcs), 2u);
    EXPECT_EQ(srcs[0], 4);
    EXPECT_EQ(srcs[1], 5);
    EXPECT_FALSE(i.isMem());
    EXPECT_FALSE(i.isControl());
    EXPECT_EQ(i.fuClass(), FuClass::IntAlu);
}

TEST(Instruction, MulDivUseTheMulDivUnit)
{
    EXPECT_EQ(Instruction::alu(Opcode::Mul, 1, 2, 3).fuClass(),
              FuClass::IntMulDiv);
    EXPECT_EQ(Instruction::alu(Opcode::Div, 1, 2, 3).fuClass(),
              FuClass::IntMulDiv);
    EXPECT_GT(Instruction::alu(Opcode::Div, 1, 2, 3).execLatency(),
              Instruction::alu(Opcode::Mul, 1, 2, 3).execLatency());
}

TEST(Instruction, LoadStore)
{
    auto ld = Instruction::load(5, regSp, 16);
    EXPECT_TRUE(ld.isLoad());
    EXPECT_TRUE(ld.isMem());
    EXPECT_FALSE(ld.isStore());
    EXPECT_TRUE(ld.writesIntReg());

    auto st = Instruction::store(5, regSp, 16);
    EXPECT_TRUE(st.isStore());
    EXPECT_FALSE(st.writesIntReg());
    RegIndex srcs[2];
    EXPECT_EQ(st.srcIntRegs(srcs), 2u);
}

TEST(Instruction, SaveRestoreVariants)
{
    auto save = Instruction::liveStore(17, regSp, 8);
    EXPECT_TRUE(save.isSave());
    EXPECT_TRUE(save.isStore());
    EXPECT_EQ(save.saveRestoreReg(), 17);

    auto restore = Instruction::liveLoad(17, regSp, 8);
    EXPECT_TRUE(restore.isRestore());
    EXPECT_TRUE(restore.isLoad());
    EXPECT_EQ(restore.saveRestoreReg(), 17);
    EXPECT_TRUE(restore.writesIntReg());
}

TEST(Instruction, ControlFlow)
{
    auto br = Instruction::branch(Opcode::Beq, 1, 2, 100);
    EXPECT_TRUE(br.isCondBranch());
    EXPECT_TRUE(br.isControl());
    EXPECT_FALSE(br.writesIntReg());

    auto call = Instruction::call(200);
    EXPECT_TRUE(call.isCall());
    EXPECT_TRUE(call.writesIntReg());
    EXPECT_EQ(call.destIntReg(), regRa);

    auto ret = Instruction::ret();
    EXPECT_TRUE(ret.isReturn());
    RegIndex srcs[2];
    ASSERT_EQ(ret.srcIntRegs(srcs), 1u);
    EXPECT_EQ(srcs[0], regRa);
}

TEST(Instruction, KillCarriesMask)
{
    RegMask mask{16, 17, 23};
    auto k = Instruction::kill(mask);
    EXPECT_TRUE(k.isKill());
    EXPECT_EQ(k.killMask(), mask);
    EXPECT_FALSE(k.writesIntReg());
    EXPECT_EQ(k.fuClass(), FuClass::None);
}

TEST(InstructionDeath, KillMaskBeyondIntRegsPanics)
{
    EXPECT_DEATH((void)Instruction::kill(RegMask{40}),
                 "nonexistent");
}

TEST(Instruction, FpOps)
{
    auto f = Instruction::fadd(1, 2, 3);
    EXPECT_TRUE(f.isFp());
    EXPECT_TRUE(f.writesFpReg());
    EXPECT_FALSE(f.writesIntReg());
    RegIndex srcs[2];
    EXPECT_EQ(f.srcFpRegs(srcs), 2u);

    auto fst = Instruction::fstore(4, regSp, 0);
    EXPECT_TRUE(fst.isStore());
    EXPECT_EQ(fst.srcFpRegs(srcs), 1u);
    EXPECT_EQ(srcs[0], 4);
    EXPECT_EQ(fst.srcIntRegs(srcs), 1u);  // base only
}

TEST(Instruction, LvmSaveLoadAreMemOps)
{
    EXPECT_TRUE(Instruction::lvmSave(regSp, 0).isStore());
    EXPECT_TRUE(Instruction::lvmLoad(regSp, 0).isLoad());
}

TEST(Instruction, ClassificationsAreMutuallyConsistent)
{
    // Sweep every opcode with a representative instruction and check
    // classification invariants hold universally.
    for (unsigned op = 0;
         op < static_cast<unsigned>(Opcode::NumOpcodes); ++op) {
        Instruction i;
        i.op = static_cast<Opcode>(op);
        EXPECT_FALSE(i.isLoad() && i.isStore()) << op;
        EXPECT_LE(i.isCondBranch() + i.isCall() + i.isReturn(), 1)
            << op;
        if (i.isMem()) {
            EXPECT_EQ(i.fuClass(), FuClass::MemPort) << op;
        }
        EXPECT_GE(i.execLatency(), 1u) << op;
    }
}

TEST(DecodedInst, AgreesWithInstructionQueriesForEveryOpcode)
{
    // The timing core reads DecodedInst instead of the Instruction
    // queries; sweep every opcode with distinct operands.
    for (unsigned op = 0;
         op < static_cast<unsigned>(Opcode::NumOpcodes); ++op) {
        Instruction i;
        i.op = static_cast<Opcode>(op);
        i.rd = 3;
        i.rs1 = 4;
        i.rs2 = 5;
        i.imm = 0x00f0;
        const DecodedInst d = decodeInst(i);
        EXPECT_EQ(d.is(DecodedInst::kill), i.isKill()) << op;
        EXPECT_EQ(d.is(DecodedInst::condBranch), i.isCondBranch()) << op;
        EXPECT_EQ(d.is(DecodedInst::call), i.isCall()) << op;
        EXPECT_EQ(d.is(DecodedInst::ret), i.isReturn()) << op;
        EXPECT_EQ(d.is(DecodedInst::jump), i.op == Opcode::Jump) << op;
        EXPECT_EQ(d.is(DecodedInst::load), i.isLoad()) << op;
        EXPECT_EQ(d.is(DecodedInst::store), i.isStore()) << op;
        EXPECT_EQ(d.is(DecodedInst::save), i.isSave()) << op;
        EXPECT_EQ(d.is(DecodedInst::restore), i.isRestore()) << op;
        EXPECT_EQ(d.is(DecodedInst::writesInt), i.writesIntReg()) << op;
        EXPECT_EQ(d.is(DecodedInst::writesFp), i.writesFpReg()) << op;
        EXPECT_EQ(d.fu, i.fuClass()) << op;
        EXPECT_EQ(d.latency, i.execLatency()) << op;
        RegIndex srcs[2], fp_srcs[2];
        ASSERT_EQ(d.numSrcs, i.srcIntRegs(srcs)) << op;
        for (unsigned k = 0; k < d.numSrcs; ++k)
            EXPECT_EQ(d.srcs[k], srcs[k]) << op;
        ASSERT_EQ(d.numFpSrcs, i.srcFpRegs(fp_srcs)) << op;
        for (unsigned k = 0; k < d.numFpSrcs; ++k)
            EXPECT_EQ(d.fpSrcs[k], fp_srcs[k]) << op;
        if (i.writesIntReg() || i.writesFpReg()) {
            EXPECT_EQ(d.dest, i.destIntReg()) << op;
        }
        if (i.isSave() || i.isRestore()) {
            EXPECT_EQ(d.saveRestoreReg, i.saveRestoreReg()) << op;
        }
        const RegMask kill = i.isKill()     ? i.killMask()
                             : i.isCall()   ? idviCallMask()
                             : i.isReturn() ? idviReturnMask()
                                            : RegMask{};
        EXPECT_EQ(RegMask(d.killMask), kill) << op;
    }
}

/**
 * Every opcode's facts written out literally, as the ISA defines them:
 * each row is the instruction {op, rd=3, rs1=4, rs2=5, imm=0xf0}'s
 * disassembly, functional unit and latency, the classification queries
 * that answer true (see classesOf), its integer and FP sources in
 * order, and the dead-read probe list (isa::deadCheckRegs) in order.
 * The sweeps above only check that derived views agree with one
 * another; this table pins what they all derive from.
 */
struct OpcodeRow
{
    Opcode op;
    const char *disasm;
    FuClass fu;
    unsigned latency;
    const char *classes;
    const char *intSrcs;
    const char *fpSrcs;
    const char *deadChecks;
};

const OpcodeRow kOpcodeRows[] = {
    {Opcode::Nop, "nop", FuClass::None, 1,
     "nop", "", "", ""},
    {Opcode::Halt, "halt", FuClass::None, 1,
     "halt", "", "", ""},
    {Opcode::Add, "add v1, a0, a1", FuClass::IntAlu, 1,
     "writesInt", "4 5", "", "4 5"},
    {Opcode::Sub, "sub v1, a0, a1", FuClass::IntAlu, 1,
     "writesInt", "4 5", "", "4 5"},
    {Opcode::Mul, "mul v1, a0, a1", FuClass::IntMulDiv, 3,
     "writesInt", "4 5", "", "4 5"},
    {Opcode::Div, "div v1, a0, a1", FuClass::IntMulDiv, 12,
     "writesInt", "4 5", "", "4 5"},
    {Opcode::And, "and v1, a0, a1", FuClass::IntAlu, 1,
     "writesInt", "4 5", "", "4 5"},
    {Opcode::Or, "or v1, a0, a1", FuClass::IntAlu, 1,
     "writesInt", "4 5", "", "4 5"},
    {Opcode::Xor, "xor v1, a0, a1", FuClass::IntAlu, 1,
     "writesInt", "4 5", "", "4 5"},
    {Opcode::Slt, "slt v1, a0, a1", FuClass::IntAlu, 1,
     "writesInt", "4 5", "", "4 5"},
    {Opcode::Sll, "sll v1, a0, a1", FuClass::IntAlu, 1,
     "writesInt", "4 5", "", "4 5"},
    {Opcode::Srl, "srl v1, a0, a1", FuClass::IntAlu, 1,
     "writesInt", "4 5", "", "4 5"},
    {Opcode::Addi, "addi v1, a0, 240", FuClass::IntAlu, 1,
     "writesInt", "4", "", "4"},
    {Opcode::Andi, "andi v1, a0, 240", FuClass::IntAlu, 1,
     "writesInt", "4", "", "4"},
    {Opcode::Ori, "ori v1, a0, 240", FuClass::IntAlu, 1,
     "writesInt", "4", "", "4"},
    {Opcode::Xori, "xori v1, a0, 240", FuClass::IntAlu, 1,
     "writesInt", "4", "", "4"},
    {Opcode::Slti, "slti v1, a0, 240", FuClass::IntAlu, 1,
     "writesInt", "4", "", "4"},
    {Opcode::Lui, "lui v1, 240", FuClass::IntAlu, 1,
     "writesInt", "", "", ""},
    {Opcode::Load, "ld v1, 240(a0)", FuClass::MemPort, 1,
     "load mem writesInt", "4", "", "4"},
    {Opcode::Store, "st a1, 240(a0)", FuClass::MemPort, 1,
     "store mem", "4 5", "", "5 4"},
    {Opcode::LiveLoad, "live-ld v1, 240(a0)", FuClass::MemPort, 1,
     "load mem restore writesInt", "4", "", "4"},
    {Opcode::LiveStore, "live-st a1, 240(a0)", FuClass::MemPort, 1,
     "store mem save", "4 5", "", "4"},
    {Opcode::Fadd, "fadd f3, f4, f5", FuClass::FpAlu, 2,
     "fp writesFp", "", "4 5", ""},
    {Opcode::Fmul, "fmul f3, f4, f5", FuClass::FpMulDiv, 4,
     "fp writesFp", "", "4 5", ""},
    {Opcode::Fload, "fld f3, 240(a0)", FuClass::MemPort, 1,
     "load mem fp writesFp", "4", "", "4"},
    {Opcode::Fstore, "fst f5, 240(a0)", FuClass::MemPort, 1,
     "store mem fp", "4", "5", "4"},
    {Opcode::Beq, "beq a0, a1, @240", FuClass::Branch, 1,
     "condBranch control", "4 5", "", "4 5"},
    {Opcode::Bne, "bne a0, a1, @240", FuClass::Branch, 1,
     "condBranch control", "4 5", "", "4 5"},
    {Opcode::Blt, "blt a0, a1, @240", FuClass::Branch, 1,
     "condBranch control", "4 5", "", "4 5"},
    {Opcode::Bge, "bge a0, a1, @240", FuClass::Branch, 1,
     "condBranch control", "4 5", "", "4 5"},
    {Opcode::Jump, "j @240", FuClass::Branch, 1,
     "control", "", "", ""},
    {Opcode::Call, "call @240", FuClass::Branch, 1,
     "call control writesInt", "", "", ""},
    {Opcode::Ret, "ret", FuClass::Branch, 1,
     "return control", "4", "", "31"},
    {Opcode::Kill, "kill {r4, r5, r6, r7}", FuClass::None, 1,
     "kill", "", "", ""},
    {Opcode::LvmSave, "lvm-save 240(a0)", FuClass::MemPort, 1,
     "store mem", "4", "", "4"},
    {Opcode::LvmLoad, "lvm-load 240(a0)", FuClass::MemPort, 1,
     "load mem", "4", "", "4"},
};

/** The classification queries of `i` that answer true, space-separated
 * in a fixed order. */
std::string
classesOf(const Instruction &i)
{
    std::string s;
    const auto add = [&s](bool on, const char *name) {
        if (!on)
            return;
        if (!s.empty())
            s += ' ';
        s += name;
    };
    add(i.isNop(), "nop");
    add(i.isHalt(), "halt");
    add(i.isCondBranch(), "condBranch");
    add(i.isCall(), "call");
    add(i.isReturn(), "return");
    add(i.isControl(), "control");
    add(i.isLoad(), "load");
    add(i.isStore(), "store");
    add(i.isMem(), "mem");
    add(i.isKill(), "kill");
    add(i.isSave(), "save");
    add(i.isRestore(), "restore");
    add(i.isFp(), "fp");
    add(i.writesIntReg(), "writesInt");
    add(i.writesFpReg(), "writesFp");
    return s;
}

/** `regs[0..n)` as space-separated register numbers. */
std::string
regList(const RegIndex *regs, unsigned n)
{
    std::string s;
    for (unsigned k = 0; k < n; ++k) {
        if (k)
            s += ' ';
        s += std::to_string(static_cast<unsigned>(regs[k]));
    }
    return s;
}

TEST(OpcodeTable, EveryOpcodeMatchesItsLiteralRow)
{
    ASSERT_EQ(std::size(kOpcodeRows),
              static_cast<std::size_t>(Opcode::NumOpcodes));
    for (std::size_t k = 0; k < std::size(kOpcodeRows); ++k) {
        const OpcodeRow &row = kOpcodeRows[k];
        ASSERT_EQ(static_cast<std::size_t>(row.op), k);
        Instruction i;
        i.op = row.op;
        i.rd = 3;
        i.rs1 = 4;
        i.rs2 = 5;
        i.imm = 0xf0;
        SCOPED_TRACE(row.disasm);
        EXPECT_EQ(i.toString(), row.disasm);
        EXPECT_EQ(i.fuClass(), row.fu);
        EXPECT_EQ(i.execLatency(), row.latency);
        EXPECT_EQ(classesOf(i), row.classes);
        RegIndex regs[2];
        EXPECT_EQ(regList(regs, i.srcIntRegs(regs)), row.intSrcs);
        EXPECT_EQ(regList(regs, i.srcFpRegs(regs)), row.fpSrcs);
        EXPECT_EQ(regList(regs, deadCheckRegs(i, regs)), row.deadChecks);
    }
}

TEST(Disasm, RepresentativeStrings)
{
    EXPECT_EQ(Instruction::alu(Opcode::Add, 2, 8, 9).toString(),
              "add v0, t0, t1");
    EXPECT_EQ(
        Instruction::aluImm(Opcode::Addi, regSp, regSp, -32)
            .toString(),
        "addi sp, sp, -32");
    EXPECT_EQ(Instruction::liveStore(16, regSp, 0).toString(),
              "live-st s0, 0(sp)");
    EXPECT_EQ(Instruction::liveLoad(16, regSp, 0).toString(),
              "live-ld s0, 0(sp)");
    EXPECT_EQ(Instruction::call(64).toString(), "call @64");
    EXPECT_EQ(Instruction::ret().toString(), "ret");
    EXPECT_EQ(Instruction::kill(RegMask{16, 17}).toString(),
              "kill {r16, r17}");
    EXPECT_EQ(Instruction::fload(3, regSp, 8).toString(),
              "fld f3, 8(sp)");
}

} // namespace
} // namespace isa
} // namespace dvi
