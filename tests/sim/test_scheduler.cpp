/**
 * @file
 * Scheduler-level tests: barrier semantics, promotion-interval
 * cadence, multithreaded graph kernels through the real System, and
 * trace recording during multi-process runs.
 */

#include <gtest/gtest.h>

#include "sim/system.hpp"
#include "workloads/registry.hpp"
#include "workloads/synthetic.hpp"

using namespace pccsim;
using namespace pccsim::sim;

namespace {

SystemConfig
ciConfig(PolicyKind policy, u32 cores = 1)
{
    SystemConfig cfg = SystemConfig::forScale(workloads::Scale::Ci);
    cfg.policy = policy;
    cfg.num_cores = cores;
    return cfg;
}

workloads::WorkloadPtr
ciWorkload(const std::string &name)
{
    workloads::WorkloadSpec spec;
    spec.name = name;
    spec.scale = workloads::Scale::Ci;
    return workloads::makeWorkload(spec);
}

} // namespace

class MultiLaneGraphs : public ::testing::TestWithParam<
                            std::tuple<std::string, u32>>
{
};

TEST_P(MultiLaneGraphs, KernelsCompleteOnAnyLaneCount)
{
    const auto [name, lanes] = GetParam();
    auto w = ciWorkload(name);
    System system(ciConfig(PolicyKind::Pcc, lanes));
    const auto result = system.run(*w, lanes);
    EXPECT_GT(result.job().accesses, 0u);
    EXPECT_GT(result.job().wall_cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    GraphKernels, MultiLaneGraphs,
    ::testing::Combine(::testing::Values("bfs", "sssp", "pr"),
                       ::testing::Values(1u, 2u, 4u, 8u)));

TEST(Scheduler, LaneCountDoesNotChangeTotalWork)
{
    // The same PR computation split over k lanes must do (almost)
    // exactly the same number of accesses.
    u64 accesses1 = 0;
    {
        auto w = ciWorkload("pr");
        System system(ciConfig(PolicyKind::Base, 1));
        accesses1 = system.run(*w, 1).job().accesses;
    }
    for (u32 lanes : {2u, 4u}) {
        auto w = ciWorkload("pr");
        System system(ciConfig(PolicyKind::Base, lanes));
        const u64 accesses = system.run(*w, lanes).job().accesses;
        EXPECT_NEAR(static_cast<double>(accesses),
                    static_cast<double>(accesses1),
                    0.01 * static_cast<double>(accesses1))
            << lanes << " lanes";
    }
}

TEST(Scheduler, ParallelismShortensWallClock)
{
    auto w1 = ciWorkload("pr");
    System s1(ciConfig(PolicyKind::Base, 1));
    const auto r1 = s1.run(*w1, 1);

    auto w4 = ciWorkload("pr");
    System s4(ciConfig(PolicyKind::Base, 4));
    const auto r4 = s4.run(*w4, 4);

    EXPECT_LT(r4.job().wall_cycles, r1.job().wall_cycles);
    // ...but not superlinearly.
    EXPECT_GT(r4.job().wall_cycles, r1.job().wall_cycles / 8);
}

TEST(Scheduler, IntervalCadenceScalesWithAccesses)
{
    workloads::SyntheticSpec spec;
    spec.pattern = workloads::Pattern::Uniform;
    spec.footprint_bytes = 16ull << 20;
    spec.ops = 1'000'000;
    workloads::SyntheticWorkload w(spec);

    SystemConfig cfg = ciConfig(PolicyKind::Pcc);
    cfg.interval_accesses = 100'000;
    System system(cfg);
    const auto result = system.run(w);
    // init (~4k ops) + 1M main ops: about 10 intervals.
    EXPECT_GE(result.intervals, 8u);
    EXPECT_LE(result.intervals, 12u);
}

TEST(Scheduler, TraceRecordingCoversMultipleProcesses)
{
    workloads::SyntheticSpec hot;
    hot.pattern = workloads::Pattern::HotRegions;
    hot.footprint_bytes = 48ull << 20;
    hot.hot_regions = 6;
    hot.ops = 800'000;
    workloads::SyntheticWorkload wa(hot);
    hot.seed = 77;
    workloads::SyntheticWorkload wb(hot);

    SystemConfig cfg = ciConfig(PolicyKind::Pcc, 2);
    cfg.record_trace = true;
    System system(cfg);
    const auto result =
        system.run({System::Job{&wa, 1}, System::Job{&wb, 1}});
    const auto &trace = system.recordedTrace();
    ASSERT_EQ(trace.size(), result.jobs[0].promotions +
                                result.jobs[1].promotions);
    bool saw_pid0 = false, saw_pid1 = false;
    u64 prev_at = 0;
    for (const auto &e : trace.entries()) {
        saw_pid0 |= e.pid == 0;
        saw_pid1 |= e.pid == 1;
        EXPECT_GE(e.at_accesses, prev_at) << "timestamps must ascend";
        prev_at = e.at_accesses;
    }
    EXPECT_TRUE(saw_pid0);
    EXPECT_TRUE(saw_pid1);
}

TEST(Scheduler, IdleCoresAreHarmless)
{
    // More cores than lanes: extra cores idle without affecting the
    // result.
    auto w1 = ciWorkload("bfs");
    System s1(ciConfig(PolicyKind::Base, 1));
    const auto r1 = s1.run(*w1, 1);

    auto w2 = ciWorkload("bfs");
    System s2(ciConfig(PolicyKind::Base, 4));
    const auto r2 = s2.run(*w2, 1);
    EXPECT_EQ(r1.job().wall_cycles, r2.job().wall_cycles);
}

TEST(Scheduler, ProcessSetupHookRuns)
{
    workloads::SyntheticSpec spec;
    spec.pattern = workloads::Pattern::Sequential;
    spec.footprint_bytes = 8ull << 20;
    spec.ops = 10'000;
    workloads::SyntheticWorkload w(spec);

    SystemConfig cfg = ciConfig(PolicyKind::Base);
    u32 calls = 0;
    cfg.process_setup = [&calls](os::Process &proc, u32 job) {
        ++calls;
        EXPECT_EQ(job, 0u);
        EXPECT_GT(proc.footprintBytes(), 0u);
    };
    System system(cfg);
    system.run(w);
    EXPECT_EQ(calls, 1u);
}

TEST(Scheduler, MultiJobMultiLaneCountersGolden)
{
    // Two 2-lane jobs on four cores: each lane owns its core, and each
    // job's counters are banked turn by turn. The expected values were
    // recorded from the per-core summation this accounting replaced;
    // drift in scheduling or in per-job attribution shows here.
    auto pr = ciWorkload("pr");
    auto bfs = ciWorkload("bfs");
    System system(ciConfig(PolicyKind::Pcc, 4));
    const auto result =
        system.run({System::Job{pr.get(), 2}, System::Job{bfs.get(), 2}});

    JobResult pr_want;
    pr_want.workload = "pr";
    pr_want.pid = 0;
    pr_want.wall_cycles = 183919385;
    pr_want.accesses = 2678787;
    pr_want.tlb_accesses = 2677890;
    pr_want.l1_hits = 2625099;
    pr_want.l2_hits = 3154;
    pr_want.walks = 49637;
    pr_want.refs_per_walk = 1.0002417551423333;
    pr_want.faults = 897;
    pr_want.promotions = 4;
    pr_want.promotions_1g = 0;
    pr_want.demotions = 0;
    pr_want.footprint_bytes = 8388608;
    pr_want.promoted_bytes = 8388608;
    pr_want.bloat_pages = 1151;

    JobResult bfs_want;
    bfs_want.workload = "bfs";
    bfs_want.pid = 1;
    bfs_want.wall_cycles = 68566427;
    bfs_want.accesses = 1235485;
    bfs_want.tlb_accesses = 1234652;
    bfs_want.l1_hits = 1203443;
    bfs_want.l2_hits = 3805;
    bfs_want.walks = 27404;
    bfs_want.refs_per_walk = 1.0004378922784996;
    bfs_want.faults = 833;
    bfs_want.promotions = 4;
    bfs_want.promotions_1g = 0;
    bfs_want.demotions = 0;
    bfs_want.footprint_bytes = 8388608;
    bfs_want.promoted_bytes = 8388608;
    bfs_want.bloat_pages = 1215;

    ASSERT_EQ(result.jobs.size(), 2u);
    EXPECT_TRUE(result.jobs[0] == pr_want);
    EXPECT_TRUE(result.jobs[1] == bfs_want);
    EXPECT_EQ(result.wall_cycles, pr_want.wall_cycles);
}
