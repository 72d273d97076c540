/**
 * @file
 * Register-file timing model tests (§4.2's Fig. 6 methodology).
 */

#include <gtest/gtest.h>

#include "driver/regfile_timing.hh"

namespace dvi
{
namespace timing
{
namespace
{

TEST(RegFileTiming, MonotonicInRegisterCount)
{
    RegFileTimingModel m;
    double prev = 0.0;
    for (unsigned n = 32; n <= 128; n += 8) {
        const double t = m.accessTime(n, 8, 4);
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(RegFileTiming, LinearInRegisterCount)
{
    RegFileTimingModel m;
    const double d1 = m.accessTime(64, 8, 4) - m.accessTime(48, 8, 4);
    const double d2 = m.accessTime(80, 8, 4) - m.accessTime(64, 8, 4);
    EXPECT_NEAR(d1, d2, 1e-12);
}

TEST(RegFileTiming, QuadraticInPorts)
{
    RegFileTimingModel m;
    const double t0 = m.accessTime(64, 0, 0);
    const double d6 = m.accessTime(64, 4, 2) - t0;   // 6 ports
    const double d12 = m.accessTime(64, 8, 4) - t0;  // 12 ports
    EXPECT_NEAR(d12 / d6, 4.0, 1e-9);
}

TEST(RegFileTiming, IssueWidthPortMapping)
{
    // 2 read ports per issue slot + 1 write port per slot (§4.2).
    RegFileTimingModel m;
    EXPECT_DOUBLE_EQ(m.accessTimeForIssueWidth(64, 4),
                     m.accessTime(64, 8, 4));
    EXPECT_DOUBLE_EQ(m.accessTimeForIssueWidth(64, 8),
                     m.accessTime(64, 16, 8));
}

TEST(RegFileTiming, PerformanceDividesIpcByAccessTime)
{
    RegFileTimingModel m;
    const double t = m.accessTimeForIssueWidth(50, 4);
    EXPECT_DOUBLE_EQ(m.performance(2.0, 50, 4), 2.0 / t);
}

TEST(RegFileTiming, SmallerFileIsFaster)
{
    // The paper's design point: a 50-entry file cycles faster than
    // a 64-entry one, so equal IPC means better performance.
    RegFileTimingModel m;
    EXPECT_GT(m.performance(1.8, 50, 4), m.performance(1.8, 64, 4));
}

TEST(RegFileTiming, PlausibleAbsoluteLatency)
{
    // The Fig. 2-era design point should land in the ~1-2ns range.
    RegFileTimingModel m;
    const double t = m.accessTimeForIssueWidth(64, 4);
    EXPECT_GT(t, 0.5);
    EXPECT_LT(t, 3.0);
}

} // namespace
} // namespace timing
} // namespace dvi
