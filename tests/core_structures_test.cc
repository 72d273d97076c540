/**
 * @file
 * Unit tests for the paper's hardware structures: the LVM (§4.1),
 * the LVM-Stack (§5.2), and the DVI-extended renamer (§4).
 */

#include <gtest/gtest.h>

#include "arch/emulator.hh"
#include "base/rng.hh"
#include "base/test_seed.hh"
#include "compiler/compile.hh"
#include "core/lvm.hh"
#include "core/lvm_stack.hh"
#include "core/renamer.hh"
#include "isa/registers.hh"
#include "workload/generator.hh"

namespace dvi
{
namespace core
{
namespace
{

TEST(Lvm, StartsConservativelyLive)
{
    Lvm lvm;
    for (RegIndex r = 0; r < isa::numIntRegs; ++r)
        EXPECT_TRUE(lvm.isLive(r));
}

TEST(Lvm, KillAndDefine)
{
    Lvm lvm;
    lvm.kill(RegMask{8, 9});
    EXPECT_FALSE(lvm.isLive(8));
    EXPECT_FALSE(lvm.isLive(9));
    EXPECT_TRUE(lvm.isLive(10));
    lvm.define(8);
    EXPECT_TRUE(lvm.isLive(8));
}

TEST(Lvm, LiveCountWithinSubset)
{
    Lvm lvm;
    lvm.kill(isa::idviMask());
    EXPECT_EQ(lvm.liveCount(isa::idviMask()), 0u);
    EXPECT_EQ(lvm.liveCount(isa::calleeSavedMask()),
              isa::calleeSavedMask().count());
}

TEST(Lvm, MergeFromOnlyTouchesMaskedBits)
{
    // The return-time merge (§5.2 step 4): callee-saved bits come
    // from the popped snapshot, everything else keeps its current
    // value (the return value register must stay live!).
    Lvm lvm;
    lvm.kill(RegMask{16, 17, isa::regV0});
    RegMask snapshot = RegMask::firstN(isa::numIntRegs);  // all live
    lvm.mergeFrom(snapshot, isa::calleeSavedMask());
    EXPECT_TRUE(lvm.isLive(16));
    EXPECT_TRUE(lvm.isLive(17));
    EXPECT_FALSE(lvm.isLive(isa::regV0));  // untouched by merge

    // And the reverse: dead snapshot bits override live ones.
    Lvm lvm2;
    lvm2.mergeFrom(RegMask{}, isa::calleeSavedMask());
    EXPECT_FALSE(lvm2.isLive(16));
    EXPECT_TRUE(lvm2.isLive(8));
}

TEST(Lvm, SnapshotRestore)
{
    Lvm lvm;
    lvm.kill(RegMask{20});
    RegMask saved = lvm.snapshot();
    lvm.define(20);
    lvm.kill(RegMask{21});
    lvm.restore(saved);
    EXPECT_FALSE(lvm.isLive(20));
    EXPECT_TRUE(lvm.isLive(21));
}

TEST(LvmStack, LifoOrder)
{
    LvmStack stack(4);
    stack.push(RegMask{1});
    stack.push(RegMask{2});
    EXPECT_EQ(stack.top(), RegMask{2});
    EXPECT_EQ(stack.pop(), RegMask{2});
    EXPECT_EQ(stack.pop(), RegMask{1});
    EXPECT_TRUE(stack.empty());
}

TEST(LvmStack, UnderflowIsAllLive)
{
    LvmStack stack(4);
    EXPECT_EQ(stack.pop(), LvmStack::allLive());
    EXPECT_EQ(stack.top(), LvmStack::allLive());
    EXPECT_EQ(stack.underflows(), 1u);
}

TEST(LvmStack, OverflowDropsOldest)
{
    LvmStack stack(2);
    stack.push(RegMask{1});
    stack.push(RegMask{2});
    stack.push(RegMask{3});  // evicts {1}
    EXPECT_EQ(stack.overflows(), 1u);
    EXPECT_EQ(stack.pop(), RegMask{3});
    EXPECT_EQ(stack.pop(), RegMask{2});
    // The dropped frame's pop underflows to the conservative value.
    EXPECT_EQ(stack.pop(), LvmStack::allLive());
}

TEST(LvmStack, UnboundedDepthNeverOverflows)
{
    LvmStack stack(0);
    for (unsigned i = 0; i < 1000; ++i)
        stack.push(RegMask{static_cast<RegIndex>(i % 32)});
    EXPECT_EQ(stack.overflows(), 0u);
    EXPECT_EQ(stack.size(), 1000u);
}

TEST(LvmStack, DeepRecursionBeyondDepthIsConservativeNeverWrong)
{
    // The paper's context-switch/deep-recursion discussion (§5.2,
    // §6): a call chain deeper than the buffer wraps, losing the
    // *oldest* frames. Pops of surviving frames return exactly what
    // was pushed; pops of lost frames underflow to all-live — which
    // only disables optimization (a restore executes needlessly),
    // never correctness (no restore is wrongly squashed).
    LvmStack stack(16);
    std::vector<RegMask> pushed;
    for (unsigned depth = 0; depth < 40; ++depth) {
        RegMask snap{static_cast<RegIndex>(depth % 32),
                     static_cast<RegIndex>((depth * 7) % 32)};
        pushed.push_back(snap);
        stack.push(snap);
    }
    EXPECT_EQ(stack.overflows(), 40u - 16u);
    EXPECT_EQ(stack.size(), 16u);

    // Unwind: the newest 16 frames are exact...
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(stack.pop(), pushed[39 - i]);
    // ...every deeper frame is the conservative all-live mask, a
    // superset of whatever was pushed.
    for (unsigned i = 16; i < 40; ++i) {
        const RegMask got = stack.pop();
        EXPECT_EQ(got, LvmStack::allLive());
        EXPECT_EQ(got & pushed[39 - i], pushed[39 - i]);
    }
    EXPECT_EQ(stack.underflows(), 24u);
}

TEST(LvmStack, EmulatedDeepRecursionOverflowsBoundedStack)
{
    // End-to-end twin of the unit tests above: a recursion-heavy
    // workload deeper than the hardware stack. The bounded oracle
    // must overflow (or underflow) yet stay sound — zero dead
    // reads — and never squash more restores than the unbounded
    // oracle.
    workload::GeneratorParams params;
    params.seed = 77;
    params.numProcs = 4;
    params.recursionDepth = 40;  // well past the 8-entry stack
    params.mainIters = 2;
    const prog::Module mod = workload::generate(params);
    const comp::Executable exe = comp::compile(
        mod, comp::CompileOptions{comp::EdviPolicy::CallSites});

    arch::EmulatorOptions bounded;
    bounded.lvmStackDepth = 8;
    arch::Emulator b(exe, bounded);
    b.run(400000);

    arch::EmulatorOptions unbounded;
    unbounded.lvmStackDepth = 0;
    arch::Emulator u(exe, unbounded);
    u.run(400000);

    EXPECT_GT(b.stats().maxCallDepth, 8u);
    EXPECT_GT(b.lvmStack().overflows() + b.lvmStack().underflows(),
              0u);
    EXPECT_EQ(u.lvmStack().overflows(), 0u);
    EXPECT_EQ(b.stats().deadReads, 0u);
    EXPECT_EQ(u.stats().deadReads, 0u);
    // Losing frames only loses optimization.
    EXPECT_LE(b.stats().restoreElimOracle,
              u.stats().restoreElimOracle);
    // Both observe the identical save stream.
    EXPECT_EQ(b.stats().saves, u.stats().saves);
    EXPECT_EQ(b.stats().restores, u.stats().restores);
}

TEST(LvmStack, CountsPushesAndPops)
{
    LvmStack stack(4);
    stack.push(RegMask{});
    stack.pop();
    stack.pop();
    EXPECT_EQ(stack.pushes(), 1u);
    EXPECT_EQ(stack.pops(), 2u);
    EXPECT_EQ(stack.underflows(), 1u);
}

TEST(Renamer, InitialStateMapsArchitecturalRegisters)
{
    Renamer r(40);
    EXPECT_EQ(r.mappedCount(), isa::numIntRegs);
    EXPECT_EQ(r.freeCount(), 40u - isa::numIntRegs);
    for (RegIndex a = 0; a < isa::numIntRegs; ++a)
        EXPECT_EQ(r.lookup(a), static_cast<PhysRegIndex>(a));
    r.checkConservation(0);
}

TEST(Renamer, RenameTracksPreviousMapping)
{
    Renamer r(40);
    auto rd = r.renameDest(5);
    EXPECT_EQ(rd.prevPreg, 5);
    EXPECT_EQ(r.lookup(5), rd.newPreg);
    EXPECT_NE(rd.newPreg, 5);
    // Commit: free the previous mapping.
    r.freePhysReg(rd.prevPreg);
    r.checkConservation(0);
}

TEST(Renamer, KillUnmapsAndNextDefineHasNoPrev)
{
    // The Fig. 4 sequence: kill r1, later redefine r1. The kill's
    // commit frees the old mapping; the redefinition frees nothing.
    Renamer r(40);
    PhysRegIndex prev = r.killMapping(1);
    EXPECT_EQ(prev, 1);
    EXPECT_EQ(r.lookup(1), invalidPhysReg);
    r.freePhysReg(prev);  // kill commits

    auto rd = r.renameDest(1);
    EXPECT_EQ(rd.prevPreg, invalidPhysReg);  // nothing to free later
    EXPECT_EQ(r.lookup(1), rd.newPreg);
    r.checkConservation(0);
}

TEST(Renamer, KillOfUnmappedReturnsInvalid)
{
    Renamer r(40);
    r.freePhysReg(r.killMapping(3));
    EXPECT_EQ(r.killMapping(3), invalidPhysReg);
}

TEST(Renamer, ExhaustsFreeList)
{
    Renamer r(34);  // 2 spare
    EXPECT_TRUE(r.hasFree());
    auto a = r.renameDest(1);
    auto b = r.renameDest(2);
    EXPECT_FALSE(r.hasFree());
    // Commits release them again.
    r.freePhysReg(a.prevPreg);
    r.freePhysReg(b.prevPreg);
    EXPECT_EQ(r.freeCount(), 2u);
    r.checkConservation(0);
}

TEST(Renamer, EarlyReclamationShrinksMappedState)
{
    // DVI's point (§4): killing registers lets the file hold fewer
    // live mappings than architectural registers.
    Renamer r(36);
    isa::idviMask().forEach([&](RegIndex a) {
        PhysRegIndex p = r.killMapping(a);
        ASSERT_NE(p, invalidPhysReg);
        r.freePhysReg(p);
    });
    EXPECT_EQ(r.mappedCount(),
              isa::numIntRegs - isa::idviMask().count());
    EXPECT_EQ(r.freeCount(), 4u + isa::idviMask().count());
    r.checkConservation(0);
}

TEST(RenamerDeath, DoubleFreePanics)
{
    Renamer r(40);
    auto rd = r.renameDest(4);
    r.freePhysReg(rd.prevPreg);
    EXPECT_DEATH(r.freePhysReg(rd.prevPreg), "double free");
}

TEST(RenamerDeath, FreeingMappedRegisterPanics)
{
    Renamer r(40);
    EXPECT_DEATH(r.freePhysReg(5), "still mapped");
}

TEST(RenamerDeath, RenameWithEmptyFreeListPanics)
{
    Renamer r(33);
    r.renameDest(1);
    EXPECT_DEATH(r.renameDest(2), "empty free list");
}

TEST(RenamerDeath, TooSmallFileIsFatal)
{
    EXPECT_DEATH(Renamer r(32), "architectural state");
}

TEST(RenamerDeath, ConservationViolationDetected)
{
    Renamer r(40);
    (void)r.renameDest(7);  // one preg held by "in-flight" inst
    EXPECT_DEATH(r.checkConservation(0), "conservation");
}

/**
 * Property: a random interleaving of rename/kill/commit operations
 * conserves physical registers at every step.
 */
class RenamerPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(RenamerPropertyTest, RandomOpsConserveRegisters)
{
    // Centralized seeding: DVI_TEST_SEED re-bases the whole family
    // deterministically, and the log line makes any failure
    // replayable.
    Rng rng(mixSeed(
        testSeed(1, "RenamerPropertyTest"),
        static_cast<std::uint64_t>(GetParam())));
    const unsigned nphys = 34 + static_cast<unsigned>(rng.below(60));
    Renamer r(nphys);
    std::vector<PhysRegIndex> pending;

    for (int step = 0; step < 3000; ++step) {
        const double roll = rng.uniform();
        if (roll < 0.5 && r.hasFree()) {
            auto rd = r.renameDest(
                static_cast<RegIndex>(rng.range(1, 31)));
            if (rd.prevPreg != invalidPhysReg)
                pending.push_back(rd.prevPreg);
        } else if (roll < 0.7) {
            PhysRegIndex p = r.killMapping(
                static_cast<RegIndex>(rng.range(1, 31)));
            if (p != invalidPhysReg)
                pending.push_back(p);
        } else if (!pending.empty()) {
            // Commit the oldest pending free.
            r.freePhysReg(pending.front());
            pending.erase(pending.begin());
        }
        r.checkConservation(pending.size());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RenamerPropertyTest,
                         ::testing::Range(1, 13));

} // namespace
} // namespace core
} // namespace dvi
