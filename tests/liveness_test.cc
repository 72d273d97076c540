/**
 * @file
 * Unit tests for virtual-register liveness analysis.
 */

#include <gtest/gtest.h>

#include <string>

#include "analysis/ir_checks.hh"
#include "compiler/compile.hh"
#include "compiler/liveness.hh"
#include "program/ir.hh"
#include "program/ir_json.hh"

namespace dvi
{
namespace comp
{
namespace
{

using namespace prog;

TEST(IrUsesDefs, PerOpcode)
{
    EXPECT_EQ(irDef(irAlu(IrOp::Add, 3, 1, 2)), 3u);
    EXPECT_EQ(irUses(irAlu(IrOp::Add, 3, 1, 2)),
              (std::vector<VReg>{1, 2}));
    EXPECT_EQ(irDef(irLoadImm(4, 9)), 4u);
    EXPECT_TRUE(irUses(irLoadImm(4, 9)).empty());
    EXPECT_EQ(irUses(irStore(1, 2, 0)), (std::vector<VReg>{1, 2}));
    EXPECT_EQ(irDef(irStore(1, 2, 0)), noVReg);
    EXPECT_EQ(irUses(irCall(0, {5, 6}, 7)),
              (std::vector<VReg>{5, 6}));
    EXPECT_EQ(irDef(irCall(0, {5, 6}, 7)), 7u);
    EXPECT_EQ(irUses(irRet(3)), (std::vector<VReg>{3}));
    EXPECT_TRUE(irUses(irRet()).empty());
    EXPECT_EQ(irUses(irBranch(IrOp::Blt, 1, 2, 0)),
              (std::vector<VReg>{1, 2}));
    EXPECT_EQ(irUses(irStoreStack(4, 0)), (std::vector<VReg>{4}));
    EXPECT_EQ(irDef(irLoadStack(4, 0)), 4u);
}

/** What every IR op reads, writes and lowers to, written out by hand
 * as an independent check of the IR op table. */
struct OpFacts
{
    IrOp op;
    std::vector<VReg> uses;  ///< irUses, in order
    VReg def;                ///< irDef
    bool terminator;
    bool condBranch;
    const char *token;     ///< JSON token
    const char *mnemonic;  ///< lowered machine op; "" = not pinned
    bool deadStore;        ///< ir-dead-store fires on an unread def
};

const std::vector<OpFacts> &
opFacts()
{
    static const std::vector<OpFacts> facts = {
        {IrOp::Add, {4, 5}, 3, false, false, "add", "add", true},
        {IrOp::Sub, {4, 5}, 3, false, false, "sub", "sub", true},
        {IrOp::Mul, {4, 5}, 3, false, false, "mul", "mul", true},
        {IrOp::Div, {4, 5}, 3, false, false, "div", "div", true},
        {IrOp::And, {4, 5}, 3, false, false, "and", "and", true},
        {IrOp::Or, {4, 5}, 3, false, false, "or", "or", true},
        {IrOp::Xor, {4, 5}, 3, false, false, "xor", "xor", true},
        {IrOp::Slt, {4, 5}, 3, false, false, "slt", "slt", true},
        {IrOp::Sll, {4, 5}, 3, false, false, "sll", "sll", true},
        {IrOp::Srl, {4, 5}, 3, false, false, "srl", "srl", true},
        {IrOp::AddImm, {4}, 3, false, false, "addimm", "addi", true},
        {IrOp::AndImm, {4}, 3, false, false, "andimm", "andi", true},
        {IrOp::OrImm, {4}, 3, false, false, "orimm", "ori", true},
        {IrOp::XorImm, {4}, 3, false, false, "xorimm", "xori", true},
        {IrOp::SltImm, {4}, 3, false, false, "sltimm", "slti", true},
        {IrOp::LoadImm, {}, 3, false, false, "loadimm", "", true},
        {IrOp::Load, {4}, 3, false, false, "load", "", false},
        {IrOp::Store, {4, 5}, noVReg, false, false, "store", "", false},
        {IrOp::LoadStack, {}, 3, false, false, "loadstack", "", true},
        {IrOp::StoreStack, {4}, noVReg, false, false, "storestack", "",
         false},
        {IrOp::Fadd, {}, noVReg, false, false, "fadd", "fadd", false},
        {IrOp::Fmul, {}, noVReg, false, false, "fmul", "fmul", false},
        {IrOp::FloadStack, {}, noVReg, false, false, "floadstack",
         "fld", false},
        {IrOp::FstoreStack, {}, noVReg, false, false, "fstorestack",
         "fst", false},
        {IrOp::Beq, {4, 5}, noVReg, true, true, "beq", "beq", false},
        {IrOp::Bne, {4, 5}, noVReg, true, true, "bne", "bne", false},
        {IrOp::Blt, {4, 5}, noVReg, true, true, "blt", "blt", false},
        {IrOp::Bge, {4, 5}, noVReg, true, true, "bge", "bge", false},
        {IrOp::Jump, {}, noVReg, true, false, "jump", "", false},
        {IrOp::Call, {6, 7}, 3, false, false, "call", "", false},
        {IrOp::Ret, {4}, noVReg, true, false, "ret", "", false},
        {IrOp::Halt, {}, noVReg, true, false, "halt", "", false},
    };
    return facts;
}

/** Every operand field set, so each op shows which ones it reads. */
IrInst
fullInst(IrOp op)
{
    IrInst i;
    i.op = op;
    i.dst = 3;
    i.src1 = 4;
    i.src2 = 5;
    i.imm = 0x70;
    i.target = 1;
    i.callee = 0;
    i.args = {6, 7};
    i.fd = 1;
    i.fs1 = 2;
    i.fs2 = 3;
    return i;
}

/**
 * Proc 0 takes two params and returns; proc 1 (main) defines vregs
 * 4..7, runs `body` (if any), halts, and has a block 1 to branch to.
 * Vreg 3 is never read.
 */
Module
oneOpModule(const IrInst *body)
{
    Module mod;
    mod.name = "one-op";
    mod.mainIndex = 1;
    Procedure callee;
    callee.name = "callee";
    callee.params = {callee.newVReg(), callee.newVReg()};
    callee.emit(callee.newBlock(), irRet());
    Procedure main;
    main.name = "main";
    main.nextVReg = 8;
    main.numLocalSlots = 1;
    const int b0 = main.newBlock();
    const int b1 = main.newBlock();
    for (VReg v = 4; v <= 7; ++v)
        main.emit(b0, irLoadImm(v, 0x70));
    if (body)
        main.emit(b0, *body);
    if (!body || !body->isTerminator())
        main.emit(b0, irHalt());
    main.emit(b1, irHalt());
    mod.procs.push_back(std::move(callee));
    mod.procs.push_back(std::move(main));
    return mod;
}

/** Mnemonic of the first machine instruction `inst` lowers to. */
std::string
loweredMnemonic(const IrInst &inst)
{
    const Executable ref = compile(oneOpModule(nullptr));
    const Executable exe = compile(oneOpModule(&inst));
    // Both lower the same prologue and loads up to the op.
    const int at = ref.procs[1].end - 2;  // main's first halt
    const std::string text =
        exe.code[static_cast<std::size_t>(at)].toString();
    return text.substr(0, text.find(' '));
}

TEST(IrUsesDefs, EveryOpMatchesTheLiteralTable)
{
    ASSERT_EQ(opFacts().size(), 32u);
    for (const OpFacts &f : opFacts()) {
        const IrInst inst = fullInst(f.op);
        SCOPED_TRACE(f.token);
        EXPECT_EQ(irUses(inst), f.uses);
        EXPECT_EQ(irDef(inst), f.def);
        EXPECT_EQ(inst.isTerminator(), f.terminator);
        EXPECT_EQ(inst.isCondBranch(), f.condBranch);
        EXPECT_EQ(irOpName(f.op), f.token);
        if (*f.mnemonic) {
            EXPECT_EQ(loweredMnemonic(inst), f.mnemonic);
        }

        const analysis::FindingReport lint =
            analysis::checkModule(oneOpModule(&inst), true);
        std::size_t deadStores = 0;
        for (const analysis::Finding &finding : lint.findings())
            if (finding.rule == "ir-dead-store" &&
                finding.message.find("vreg 3 ") != std::string::npos)
                ++deadStores;
        EXPECT_EQ(deadStores, f.deadStore ? 1u : 0u);
    }
}

TEST(Liveness, StraightLine)
{
    // b0: v1 = imm; v2 = imm; v3 = v1+v2; ret v3
    Procedure p;
    VReg v1 = p.newVReg(), v2 = p.newVReg(), v3 = p.newVReg();
    int b0 = p.newBlock();
    p.emit(b0, irLoadImm(v1, 1));
    p.emit(b0, irLoadImm(v2, 2));
    p.emit(b0, irAlu(IrOp::Add, v3, v1, v2));
    p.emit(b0, irRet(v3));

    Liveness live = computeLiveness(p);
    EXPECT_FALSE(live.liveIn[0].test(v1));  // defined locally
    EXPECT_TRUE(live.liveOut[0] == DynBitset(live.numVRegs));

    auto after = liveAfterPerInst(p, live, 0);
    EXPECT_TRUE(after[0].test(v1));   // v1 live until the add
    EXPECT_FALSE(after[2].test(v1));  // dead after the add
    EXPECT_TRUE(after[2].test(v3));   // v3 live into the ret
}

TEST(Liveness, DiamondKeepsValueLiveOnBothArms)
{
    // b0: v1=..; branch -> b2 ; b1: use v1, jump b3 ; b2: use v1 ;
    // b3: ret
    Procedure p;
    VReg v1 = p.newVReg(), z = p.newVReg(), t1 = p.newVReg(),
         t2 = p.newVReg();
    int b0 = p.newBlock();
    int b1 = p.newBlock();
    int b2 = p.newBlock();
    int b3 = p.newBlock();
    p.emit(b0, irLoadImm(v1, 5));
    p.emit(b0, irLoadImm(z, 0));
    p.emit(b0, irBranch(IrOp::Beq, v1, z, b2));
    p.emit(b1, irAluImm(IrOp::AddImm, t1, v1, 1));
    p.emit(b1, irJump(b3));
    p.emit(b2, irAluImm(IrOp::AddImm, t2, v1, 2));
    p.emit(b3, irRet());

    Liveness live = computeLiveness(p);
    EXPECT_TRUE(live.liveOut[0].test(v1));
    EXPECT_TRUE(live.liveIn[1].test(v1));
    EXPECT_TRUE(live.liveIn[2].test(v1));
    EXPECT_FALSE(live.liveIn[3].test(v1));
}

TEST(Liveness, LoopCarriesValueAroundBackedge)
{
    // b0: i=n; z=0 ; b1: i=i-1; bne i,z,b1 ; b2: ret
    Procedure p;
    VReg i = p.newVReg(), z = p.newVReg();
    int b0 = p.newBlock();
    int b1 = p.newBlock();
    int b2 = p.newBlock();
    p.emit(b0, irLoadImm(i, 10));
    p.emit(b0, irLoadImm(z, 0));
    p.emit(b1, irAluImm(IrOp::AddImm, i, i, -1));
    p.emit(b1, irBranch(IrOp::Bne, i, z, b1));
    p.emit(b2, irRet());

    Liveness live = computeLiveness(p);
    // i and z are live around the loop.
    EXPECT_TRUE(live.liveIn[1].test(i));
    EXPECT_TRUE(live.liveOut[1].test(i));
    EXPECT_TRUE(live.liveIn[1].test(z));
    // Nothing is live into the procedure.
    EXPECT_FALSE(live.liveIn[0].test(i));
}

TEST(Liveness, DeadDefIsNotLive)
{
    Procedure p;
    VReg v = p.newVReg();
    int b0 = p.newBlock();
    p.emit(b0, irLoadImm(v, 1));  // never used
    p.emit(b0, irRet());

    Liveness live = computeLiveness(p);
    auto after = liveAfterPerInst(p, live, 0);
    EXPECT_FALSE(after[0].test(v));
}

TEST(Liveness, CallArgsAreUses)
{
    Procedure p;
    VReg a = p.newVReg(), r = p.newVReg();
    int b0 = p.newBlock();
    p.emit(b0, irLoadImm(a, 3));
    p.emit(b0, irCall(0, {a}, r));
    p.emit(b0, irRet(r));

    Liveness live = computeLiveness(p);
    auto after = liveAfterPerInst(p, live, 0);
    EXPECT_TRUE(after[0].test(a));   // live into the call
    EXPECT_FALSE(after[1].test(a));  // dead after (last use)
    EXPECT_TRUE(after[1].test(r));
}

} // namespace
} // namespace comp
} // namespace dvi
