/**
 * @file
 * Unit tests for base utilities: RegMask, DynBitset, Rng,
 * RingBuffer, the CLI argument parsers and the CLI flag table.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "base/cli.hh"
#include "base/dyn_bitset.hh"
#include "base/reg_mask.hh"
#include "base/ring_buffer.hh"
#include "base/rng.hh"

namespace dvi
{
namespace
{

TEST(RegMask, StartsEmpty)
{
    RegMask m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.count(), 0u);
    for (RegIndex r = 0; r < 64; ++r)
        EXPECT_FALSE(m.test(r));
}

TEST(RegMask, SetClearTest)
{
    RegMask m;
    m.set(3);
    m.set(17);
    m.set(63);
    EXPECT_TRUE(m.test(3));
    EXPECT_TRUE(m.test(17));
    EXPECT_TRUE(m.test(63));
    EXPECT_FALSE(m.test(4));
    EXPECT_EQ(m.count(), 3u);
    m.clear(17);
    EXPECT_FALSE(m.test(17));
    EXPECT_EQ(m.count(), 2u);
}

TEST(RegMask, AssignMirrorsSetAndClear)
{
    RegMask m;
    m.assign(5, true);
    EXPECT_TRUE(m.test(5));
    m.assign(5, false);
    EXPECT_FALSE(m.test(5));
}

TEST(RegMask, InitializerListConstruction)
{
    RegMask m{1, 2, 30};
    EXPECT_EQ(m.count(), 3u);
    EXPECT_TRUE(m.test(30));
}

TEST(RegMask, FirstN)
{
    EXPECT_EQ(RegMask::firstN(0).count(), 0u);
    EXPECT_EQ(RegMask::firstN(32).count(), 32u);
    EXPECT_EQ(RegMask::firstN(64).count(), 64u);
    EXPECT_TRUE(RegMask::firstN(32).test(31));
    EXPECT_FALSE(RegMask::firstN(32).test(32));
}

TEST(RegMask, SetOperations)
{
    RegMask a{1, 2, 3};
    RegMask b{3, 4};
    EXPECT_EQ((a | b).count(), 4u);
    EXPECT_EQ((a & b).count(), 1u);
    EXPECT_TRUE((a & b).test(3));
    EXPECT_EQ(a.minus(b), (RegMask{1, 2}));
    EXPECT_EQ((a ^ b), (RegMask{1, 2, 4}));
}

TEST(RegMask, ForEachVisitsAscending)
{
    RegMask m{9, 1, 40};
    std::vector<int> seen;
    m.forEach([&](RegIndex r) { seen.push_back(r); });
    EXPECT_EQ(seen, (std::vector<int>{1, 9, 40}));
}

TEST(RegMask, ToString)
{
    EXPECT_EQ((RegMask{2, 5}).toString(), "{r2, r5}");
    EXPECT_EQ(RegMask{}.toString(), "{}");
}

TEST(RegMaskDeath, OutOfRangePanics)
{
    RegMask m;
    EXPECT_DEATH(m.set(64), "out of range");
    EXPECT_DEATH((void)m.test(64), "out of range");
}

TEST(DynBitset, SetTestClear)
{
    DynBitset b(130);
    EXPECT_EQ(b.size(), 130u);
    b.set(0);
    b.set(64);
    b.set(129);
    EXPECT_TRUE(b.test(0));
    EXPECT_TRUE(b.test(64));
    EXPECT_TRUE(b.test(129));
    EXPECT_EQ(b.count(), 3u);
    b.clear(64);
    EXPECT_FALSE(b.test(64));
}

TEST(DynBitset, OrWithReportsChange)
{
    DynBitset a(70), b(70);
    b.set(69);
    EXPECT_TRUE(a.orWith(b));
    EXPECT_FALSE(a.orWith(b));  // already contained
    EXPECT_TRUE(a.test(69));
}

TEST(DynBitset, MinusAndIntersects)
{
    DynBitset a(100), b(100);
    a.set(10);
    a.set(20);
    b.set(20);
    EXPECT_TRUE(a.intersects(b));
    a.minusWith(b);
    EXPECT_FALSE(a.test(20));
    EXPECT_TRUE(a.test(10));
    EXPECT_FALSE(a.intersects(b));
}

TEST(DynBitset, AndWith)
{
    DynBitset a(10), b(10);
    a.set(1);
    a.set(2);
    b.set(2);
    a.andWith(b);
    EXPECT_EQ(a.count(), 1u);
    EXPECT_TRUE(a.test(2));
}

TEST(DynBitset, ForEach)
{
    DynBitset b(200);
    b.set(3);
    b.set(150);
    std::vector<std::size_t> seen;
    b.forEach([&](std::size_t i) { seen.push_back(i); });
    EXPECT_EQ(seen, (std::vector<std::size_t>{3, 150}));
}

TEST(DynBitset, EqualityAndReset)
{
    DynBitset a(40), b(40);
    a.set(5);
    EXPECT_FALSE(a == b);
    a.reset();
    EXPECT_TRUE(a == b);
    EXPECT_FALSE(a.any());
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool differ = false;
    for (int i = 0; i < 10; ++i)
        differ |= a.next() != b.next();
    EXPECT_TRUE(differ);
}

TEST(Rng, RangeBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        auto v = rng.range(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, BelowBounds)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        auto v = rng.below(7);
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);  // all residues reachable
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(13);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngDeath, PickEmptyPanics)
{
    Rng rng(1);
    std::vector<int> empty;
    EXPECT_DEATH((void)rng.pick(empty), "empty");
}

TEST(RingBuffer, FifoOrderAndWraparound)
{
    RingBuffer<int> rb(5);  // rounds up to 8
    EXPECT_EQ(rb.capacity(), 8u);
    EXPECT_TRUE(rb.empty());
    for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 6; ++i)
            rb.push_back(round * 10 + i);
        EXPECT_EQ(rb.size(), 6u);
        for (int i = 0; i < 6; ++i)
            EXPECT_EQ(rb[static_cast<std::size_t>(i)],
                      round * 10 + i);
        for (int i = 0; i < 6; ++i) {
            EXPECT_EQ(rb.front(), round * 10 + i);
            rb.pop_front();
        }
        EXPECT_TRUE(rb.empty());
    }
}

TEST(RingBuffer, PhysicalSlotsAreStable)
{
    RingBuffer<int> rb(4);
    rb.push_back(1);
    rb.push_back(2);
    const std::size_t slot1 = rb.physIndex(1);
    rb.pop_front();  // head moves; element 2's slot must not
    EXPECT_EQ(rb.atPhys(slot1), 2);
    EXPECT_EQ(rb.physIndex(0), slot1);
}

TEST(RingBuffer, PushUninitializedExposesTailSlot)
{
    RingBuffer<int> rb(2);
    rb.push_back(7);
    int &slot = rb.push_uninitialized();
    slot = 9;
    EXPECT_EQ(rb.size(), 2u);
    EXPECT_EQ(rb[1], 9);
}

TEST(RingBufferDeath, OverflowAndUnderflowPanic)
{
    RingBuffer<int> rb(2);
    rb.push_back(1);
    rb.push_back(2);
    EXPECT_DEATH(rb.push_back(3), "overflow");
    rb.pop_front();
    rb.pop_front();
    EXPECT_DEATH(rb.pop_front(), "underflow");
}

TEST(RegMask, FirstNBeyondWidthPanics)
{
    EXPECT_DEATH((void)RegMask::firstN(65), "out of range");
}

TEST(RegMask, KillPathIntersectionAlgebra)
{
    // The LVM kill path is live.minus(kill); its algebra: killed
    // bits vanish, the rest survive, and re-killing is idempotent.
    RegMask live = RegMask::firstN(32);
    RegMask kill{8, 9, 17};
    RegMask after = live.minus(kill);
    EXPECT_TRUE((after & kill).empty());
    EXPECT_EQ((after | kill), live);
    EXPECT_EQ(after.minus(kill), after);
    // Merge-back (the LVM-Stack return merge shape): restoring the
    // masked bits from a snapshot reconstructs the original.
    RegMask merged = after.minus(kill) | (live & kill);
    EXPECT_EQ(merged, live);
    // Raw round-trip preserves exact bits.
    EXPECT_EQ(RegMask(after.raw()), after);
}

TEST(DynBitset, ResizeDownTrimsHighBits)
{
    DynBitset b(130);
    b.set(129);
    b.set(64);
    b.resize(65);
    EXPECT_EQ(b.size(), 65u);
    EXPECT_TRUE(b.test(64));
    EXPECT_EQ(b.count(), 1u);
    // Growing again must not resurrect the trimmed bit.
    b.resize(130);
    EXPECT_FALSE(b.test(129));
    EXPECT_EQ(b.count(), 1u);
}

TEST(DynBitset, ResizeUpPreservesContents)
{
    DynBitset b(10);
    b.set(3);
    b.resize(500);
    EXPECT_TRUE(b.test(3));
    EXPECT_EQ(b.count(), 1u);
    b.set(499);
    EXPECT_EQ(b.count(), 2u);
}

TEST(DynBitsetDeath, OutOfRangeAndSizeMismatchPanic)
{
    DynBitset b(64);
    EXPECT_DEATH(b.set(64), "out of range");
    EXPECT_DEATH((void)b.test(64), "out of range");
    EXPECT_DEATH(b.clear(64), "out of range");
    DynBitset other(65);
    EXPECT_DEATH((void)b.orWith(other), "size mismatch");
    EXPECT_DEATH(b.andWith(other), "size mismatch");
    EXPECT_DEATH(b.minusWith(other), "size mismatch");
    EXPECT_DEATH((void)b.intersects(other), "size mismatch");
}

TEST(RingBuffer, ResetReusesStorageFromScratch)
{
    RingBuffer<int> rb(4);
    rb.push_back(1);
    rb.push_back(2);
    rb.pop_front();
    rb.reset(2);
    EXPECT_TRUE(rb.empty());
    EXPECT_EQ(rb.capacity(), 2u);
    rb.push_back(9);
    EXPECT_EQ(rb.front(), 9);
    EXPECT_EQ(rb.headPhys(), 0u);
}

TEST(RingBuffer, SlotReuseAfterWraparoundKeepsStaleValue)
{
    // push_uninitialized's contract: a recycled slot still holds
    // its previous occupant until the caller reinitializes it.
    RingBuffer<int> rb(4);
    for (int i = 0; i < 4; ++i)
        rb.push_back(100 + i);
    for (int i = 0; i < 4; ++i)
        rb.pop_front();
    // Head has wrapped to slot 0 again; the recycled slot must
    // expose the stale 100.
    int &slot = rb.push_uninitialized();
    EXPECT_EQ(slot, 100);
    slot = 7;
    EXPECT_EQ(rb.front(), 7);
}

TEST(RingBuffer, FullAndEmptyBoundariesAtExactCapacity)
{
    RingBuffer<int> rb(8);
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 8; ++i)
            rb.push_back(i);
        EXPECT_EQ(rb.size(), rb.capacity());
        EXPECT_DEATH(rb.push_back(9), "overflow");
        for (int i = 0; i < 8; ++i) {
            EXPECT_EQ(rb.front(), i);
            rb.pop_front();
        }
        EXPECT_TRUE(rb.empty());
        EXPECT_DEATH(rb.pop_front(), "underflow");
    }
}

TEST(RingBuffer, PhysicalSlotsStableAcrossManyWraps)
{
    RingBuffer<int> rb(4);
    int next = 0;
    rb.push_back(next++);
    rb.push_back(next++);
    for (int step = 0; step < 64; ++step) {
        const std::size_t slot = rb.physIndex(1);
        const int v = rb[1];
        rb.push_back(next++);
        rb.pop_front();
        // The surviving element keeps its physical slot through
        // arbitrarily many head/tail wraps.
        EXPECT_EQ(rb.atPhys(slot), v);
        EXPECT_EQ(rb[0], v);
        EXPECT_EQ(rb.physIndex(0), slot);
    }
}

TEST(Cli, ParseUintTakesDigitsUpToTheTypesMaximum)
{
    EXPECT_EQ(cli::parseUint("--n", "0"), 0u);
    EXPECT_EQ(cli::parseUint("--n", "007"), 7u);
    EXPECT_EQ(cli::parseUint("--n", "18446744073709551615"),
              UINT64_MAX);
    EXPECT_EQ(cli::parseUint<unsigned>("--jobs", "4294967295"),
              4294967295u);
    EXPECT_EQ(cli::parseUint<std::uint16_t>("--port", "65535"), 65535u);
}

TEST(CliDeath, ParseUintRejectsSignsBlanksAndOverflow)
{
    for (const char *text : {"-1", "+1", " 1", "1 ", "", "0x10", "1e3"})
        EXPECT_DEATH(cli::parseUint<unsigned>("--jobs", text),
                     "bad value for --jobs")
            << "'" << text << "'";
    EXPECT_DEATH(cli::parseUint<unsigned>("--jobs", "4294967296"),
                 "bad value for --jobs");
    EXPECT_DEATH(cli::parseUint<unsigned>("--jobs", "99999999999"),
                 "bad value for --jobs");
    EXPECT_DEATH(cli::parseUint<std::uint16_t>("--port", "65536"),
                 "bad value for --port");
    EXPECT_DEATH(cli::parseUint<std::uint16_t>("--port", "70000"),
                 "bad value for --port");
    EXPECT_DEATH(cli::parseUint("--seed", "18446744073709551616"),
                 "bad value for --seed");
}

TEST(Cli, ParseFractionTakesZeroToOne)
{
    EXPECT_EQ(cli::parseFraction("--f", "0"), 0.0);
    EXPECT_EQ(cli::parseFraction("--f", "0.25"), 0.25);
    EXPECT_EQ(cli::parseFraction("--f", "1"), 1.0);
}

TEST(CliDeath, ParseFractionRejectsNanAndOutOfRange)
{
    for (const char *text :
         {"nan", "NaN", "-nan", "inf", "-0.5", "1.5", "", "0.5x"})
        EXPECT_DEATH(cli::parseFraction("--structured-fraction", text),
                     "bad value for --structured-fraction")
            << "'" << text << "'";
}

/** Run `parser` over `args`, as the command line of "tool". */
void
parseArgs(const cli::Parser &parser, std::vector<std::string> args)
{
    std::string tool = "tool";
    std::vector<char *> argv = {tool.data()};
    for (std::string &a : args)
        argv.push_back(a.data());
    parser.parse(static_cast<int>(argv.size()), argv.data());
}

/** A table with repeatable flags, a number and a switch; every
 * action appends what it saw to `log`. */
cli::Parser
loggingParser(std::vector<std::string> &log)
{
    const auto logValue = [&log](const cli::Arg &a) {
        log.push_back(std::string(a.flag) + "=" + a.text);
    };
    return cli::Parser{
        {"[options]"},
        {
            cli::heading("options:"),
            {"--set", "PATH=VALUE", "repeatable", logValue},
            {"--scenario", "NAME", "repeatable", logValue},
            {"--jobs", "N", "a number",
             [&log](const cli::Arg &a) {
                 unsigned jobs = 0;
                 cli::store(jobs)(a);
                 log.push_back("jobs " + std::to_string(jobs));
             }},
            {"--quiet", "", "a switch",
             [&log](const cli::Arg &a) {
                 log.push_back(a.text ? "quiet with a value" : "quiet");
             }},
        }};
}

TEST(CliParser, ActsOnEachFlagInCommandLineOrder)
{
    std::vector<std::string> log;
    const cli::Parser parser = loggingParser(log);
    parseArgs(parser, {"--set", "a=1", "--quiet", "--scenario", "x",
                       "--jobs", "4", "--set", "b=2", "--scenario",
                       "--quiet"});
    EXPECT_EQ(log, (std::vector<std::string>{
                       "--set=a=1", "quiet", "--scenario=x", "jobs 4",
                       "--set=b=2", "--scenario=--quiet"}));
}

TEST(CliParserDeath, TheFirstErrorWins)
{
    std::vector<std::string> log;
    const cli::Parser parser = loggingParser(log);
    EXPECT_DEATH(parseArgs(parser, {"--jobs", "x", "--bogus"}),
                 "bad value for --jobs: 'x'");
    EXPECT_DEATH(parseArgs(parser, {"--bogus", "--jobs", "x"}),
                 "unknown argument '--bogus'");
    EXPECT_DEATH(parseArgs(parser, {"--quiet", "--jobs"}),
                 "--jobs needs a value");
    // A heading row has no name, so it matches no argument.
    EXPECT_DEATH(parseArgs(parser, {""}), "unknown argument ''");
    EXPECT_DEATH(parseArgs(parser, {"--jobs", "x", "--help"}),
                 "bad value for --jobs");
    EXPECT_EXIT(parseArgs(parser, {"--help", "--jobs", "x"}),
                ::testing::ExitedWithCode(0), "");
    EXPECT_EXIT(parseArgs(parser, {"-h", "--bogus"}),
                ::testing::ExitedWithCode(0), "");
}

TEST(CliParser, HelpPrintsTheSynopsisAndEveryRow)
{
    std::vector<std::string> log;
    const cli::Parser parser = loggingParser(log);
    ::testing::internal::CaptureStdout();
    parser.printHelp("tool");
    const std::string help = ::testing::internal::GetCapturedStdout();
    for (const char *text :
         {"usage: tool [options]\n", "\noptions:\n",
          "  --set PATH=VALUE    repeatable\n",
          "  --scenario NAME     repeatable\n",
          "  --jobs N            a number\n",
          "  --quiet             a switch\n",
          "  --help              this text\n"})
        EXPECT_NE(help.find(text), std::string::npos) << text;
    EXPECT_TRUE(log.empty());
}

} // namespace
} // namespace dvi
