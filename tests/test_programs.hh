/**
 * @file
 * Hand-built IR programs shared by the compiler/emulator/uarch tests.
 */

#ifndef DVI_TESTS_TEST_PROGRAMS_HH
#define DVI_TESTS_TEST_PROGRAMS_HH

#include "program/ir.hh"

namespace dvi
{
namespace testprog
{

/**
 * main: v0 = sum of 1..n (loop), stored to globals[0]; halt.
 */
inline prog::Module
sumProgram(int n)
{
    using namespace prog;
    Module mod;
    mod.name = "sum";
    mod.globalWords = 4;
    mod.procs.resize(1);
    Procedure &main = mod.procs[0];
    main.name = "main";

    VReg zero = main.newVReg();
    VReg i = main.newVReg();
    VReg acc = main.newVReg();
    VReg gp = main.newVReg();

    int b0 = main.newBlock();
    main.emit(b0, irLoadImm(zero, 0));
    main.emit(b0, irLoadImm(i, n));
    main.emit(b0, irLoadImm(acc, 0));

    int loop = main.newBlock();
    main.emit(loop, irAlu(IrOp::Add, acc, acc, i));
    main.emit(loop, irAluImm(IrOp::AddImm, i, i, -1));
    main.emit(loop, irBranch(IrOp::Bne, i, zero, loop));

    int done = main.newBlock();
    main.emit(done, irLoadImm(gp, static_cast<std::int32_t>(
                                      Module::globalBase)));
    main.emit(done, irStore(acc, gp, 0));
    main.emit(done, irHalt());
    return mod;
}

/**
 * A loop that keeps any instruction window full. Each iteration
 * extends one serial chain of divides (x = x / 1, 12-cycle latency
 * each) and bumps six accumulators that do not depend on it, so
 * fetch runs far ahead of the oldest divide and the window fills at
 * any size. main stores x and the accumulators to globals[0..6];
 * halt.
 */
inline prog::Module
windowFillProgram(int iters)
{
    using namespace prog;
    Module mod;
    mod.name = "window-fill";
    mod.globalWords = 8;
    mod.procs.resize(1);
    Procedure &main = mod.procs[0];
    main.name = "main";

    VReg zero = main.newVReg();
    VReg one = main.newVReg();
    VReg i = main.newVReg();
    VReg x = main.newVReg();
    VReg acc[6];
    for (VReg &a : acc)
        a = main.newVReg();
    VReg gp = main.newVReg();

    int b0 = main.newBlock();
    main.emit(b0, irLoadImm(zero, 0));
    main.emit(b0, irLoadImm(one, 1));
    main.emit(b0, irLoadImm(i, iters));
    main.emit(b0, irLoadImm(x, 1000003));
    for (VReg a : acc)
        main.emit(b0, irLoadImm(a, 0));

    int loop = main.newBlock();
    main.emit(loop, irAlu(IrOp::Div, x, x, one));
    for (int k = 0; k < 6; ++k)
        main.emit(loop, irAluImm(IrOp::AddImm, acc[k], acc[k], k + 1));
    main.emit(loop, irAluImm(IrOp::AddImm, i, i, -1));
    main.emit(loop, irBranch(IrOp::Bne, i, zero, loop));

    int done = main.newBlock();
    main.emit(done, irLoadImm(gp, static_cast<std::int32_t>(
                                      Module::globalBase)));
    main.emit(done, irStore(x, gp, 0));
    for (int k = 0; k < 6; ++k)
        main.emit(done, irStore(acc[k], gp, 8 * (k + 1)));
    main.emit(done, irHalt());
    return mod;
}

/**
 * fact(n): recursive factorial; main stores fact(n) to globals[0].
 */
inline prog::Module
factorialProgram(int n)
{
    using namespace prog;
    Module mod;
    mod.name = "fact";
    mod.globalWords = 4;
    mod.procs.resize(2);

    // proc 1: fact(x) = x < 1 ? 1 : x * fact(x - 1)
    Procedure &fact = mod.procs[1];
    fact.name = "fact";
    VReg x = fact.newVReg();
    fact.params.push_back(x);
    VReg one = fact.newVReg();
    int fb0 = fact.newBlock();
    fact.emit(fb0, irLoadImm(one, 1));
    fact.emit(fb0, irBranch(IrOp::Blt, x, one, 2));
    int fb1 = fact.newBlock();
    VReg xm1 = fact.newVReg();
    VReg sub = fact.newVReg();
    VReg res = fact.newVReg();
    fact.emit(fb1, irAluImm(IrOp::AddImm, xm1, x, -1));
    fact.emit(fb1, irCall(1, {xm1}, sub));
    fact.emit(fb1, irAlu(IrOp::Mul, res, x, sub));
    fact.emit(fb1, irRet(res));
    int fb2 = fact.newBlock();
    VReg one2 = fact.newVReg();
    fact.emit(fb2, irLoadImm(one2, 1));
    fact.emit(fb2, irRet(one2));

    // main
    Procedure &main = mod.procs[0];
    main.name = "main";
    VReg arg = main.newVReg();
    VReg r = main.newVReg();
    VReg gp = main.newVReg();
    int b0 = main.newBlock();
    main.emit(b0, irLoadImm(arg, n));
    main.emit(b0, irCall(1, {arg}, r));
    main.emit(b0, irLoadImm(gp, static_cast<std::int32_t>(
                                    Module::globalBase)));
    main.emit(b0, irStore(r, gp, 0));
    main.emit(b0, irHalt());
    return mod;
}

/**
 * The paper's Fig. 7 scenario: two callers of one callee. Both
 * callers hold a value in the same callee-saved register (their
 * first cross-call value lands in s0 in both). In caller1 the value
 * is live at the call to `callee`; in caller2 it is dead there (its
 * last use precedes that call, though it crossed an earlier call so
 * it is register-allocated callee-saved). The callee itself keeps a
 * value live across a helper call, so it saves/restores s0.
 *
 * With E-DVI + the LVM-Stack scheme, exactly the save and restore
 * executed on behalf of caller2's dead value are eliminable.
 */
inline prog::Module
fig7Program()
{
    using namespace prog;
    Module mod;
    mod.name = "fig7";
    mod.globalWords = 8;
    mod.procs.resize(5);

    // proc 4: helper — a leaf.
    Procedure &helper = mod.procs[4];
    helper.name = "helper";
    VReg hp = helper.newVReg();
    helper.params.push_back(hp);
    int hb = helper.newBlock();
    VReg ht = helper.newVReg();
    helper.emit(hb, irAlu(IrOp::Add, ht, hp, hp));
    helper.emit(hb, irRet(ht));

    // proc 3: callee — w is live across the helper call, forcing a
    // callee-saved register (s0) with a live-store/live-load pair.
    Procedure &callee = mod.procs[3];
    callee.name = "callee";
    VReg cp = callee.newVReg();
    callee.params.push_back(cp);
    int cb = callee.newBlock();
    VReg w = callee.newVReg();
    VReg hr = callee.newVReg();
    VReg cres = callee.newVReg();
    callee.emit(cb, irAluImm(IrOp::AddImm, w, cp, 7));
    callee.emit(cb, irCall(4, {cp}, hr));
    callee.emit(cb, irAlu(IrOp::Add, cres, w, hr));
    callee.emit(cb, irRet(cres));

    // Callers: v crosses the first call in both; only caller1 keeps
    // it live across the second call (to `callee`).
    auto make_caller = [&](int idx, const char *name,
                           bool live_at_second) {
        Procedure &p = mod.procs[static_cast<std::size_t>(idx)];
        p.name = name;
        VReg a = p.newVReg();
        p.params.push_back(a);
        p.numLocalSlots = 2;
        int b = p.newBlock();
        VReg v = p.newVReg();
        p.emit(b, irAluImm(IrOp::AddImm, v, a, 100));
        VReg r1 = p.newVReg();
        p.emit(b, irCall(3, {a}, r1));  // v live across this call
        if (!live_at_second)
            p.emit(b, irStoreStack(v, 0));  // last use of v
        VReg r2 = p.newVReg();
        p.emit(b, irCall(3, {r1}, r2));
        if (live_at_second) {
            VReg u = p.newVReg();
            p.emit(b, irAlu(IrOp::Add, u, v, r2));
            p.emit(b, irRet(u));
        } else {
            p.emit(b, irRet(r2));
        }
    };
    make_caller(1, "caller1", true);
    make_caller(2, "caller2", false);

    Procedure &main = mod.procs[0];
    main.name = "main";
    VReg c = main.newVReg();
    VReg r1 = main.newVReg();
    VReg r2 = main.newVReg();
    VReg gp = main.newVReg();
    int b0 = main.newBlock();
    main.emit(b0, irLoadImm(c, 5));
    main.emit(b0, irCall(1, {c}, r1));
    main.emit(b0, irCall(2, {c}, r2));
    main.emit(b0, irLoadImm(gp, static_cast<std::int32_t>(
                                    Module::globalBase)));
    main.emit(b0, irStore(r1, gp, 0));
    main.emit(b0, irStore(r2, gp, 8));
    main.emit(b0, irHalt());
    return mod;
}

} // namespace testprog
} // namespace dvi

#endif // DVI_TESTS_TEST_PROGRAMS_HH
