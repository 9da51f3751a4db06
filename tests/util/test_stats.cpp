#include <gtest/gtest.h>

#include "sim/results.hpp"
#include "util/stats.hpp"

using namespace pccsim;

TEST(Ratio, HandlesZeroDenominator)
{
    EXPECT_DOUBLE_EQ(ratio(5, 0), 0.0);
    EXPECT_DOUBLE_EQ(ratio(1, 2), 0.5);
    EXPECT_DOUBLE_EQ(percent(1, 4), 25.0);
}

TEST(Percent, HandlesZeroDenominator)
{
    EXPECT_DOUBLE_EQ(percent(5, 0), 0.0);
    EXPECT_DOUBLE_EQ(percent(0, 0), 0.0);
}

TEST(Speedup, DegenerateResultsReturnZeroInsteadOfThrowing)
{
    const sim::RunResult empty;
    sim::RunResult one_job;
    one_job.jobs.emplace_back();
    one_job.jobs[0].wall_cycles = 100;

    // Empty baseline or run: no job to compare, not an exception.
    EXPECT_DOUBLE_EQ(sim::speedup(empty, one_job), 0.0);
    EXPECT_DOUBLE_EQ(sim::speedup(one_job, empty), 0.0);
    // Job index out of range on either side.
    EXPECT_DOUBLE_EQ(sim::speedup(one_job, one_job, 5), 0.0);

    // Zero-cycle run (division by zero inside ratio) is also 0.
    sim::RunResult zero_cycles;
    zero_cycles.jobs.emplace_back();
    EXPECT_DOUBLE_EQ(sim::speedup(one_job, zero_cycles), 0.0);

    // The healthy path still computes a ratio.
    sim::RunResult faster;
    faster.jobs.emplace_back();
    faster.jobs[0].wall_cycles = 50;
    EXPECT_DOUBLE_EQ(sim::speedup(one_job, faster), 2.0);
}

TEST(Geomean, MatchesHandComputation)
{
    EXPECT_DOUBLE_EQ(geomean({}), 1.0);
    EXPECT_DOUBLE_EQ(geomean({2.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}
