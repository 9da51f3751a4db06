/**
 * @file
 * Equivalence and determinism gates for the batch translation engine.
 *
 * The engine consumes structure-of-arrays address buffers filled by
 * Workload::batchLane() instead of resuming the workload coroutine
 * once per access. These tests pin its contract:
 *
 *  - bit-identical results for every batch capacity, checked against
 *    capacity 1 (one op per coroutine resume, the finest interleaving)
 *    up to a capacity larger than any burst a workload emits;
 *  - differential-oracle lockstep over the batched hot path, single-
 *    and multi-lane;
 *  - serial vs. parallel-runner determinism, batched; and
 *  - all of the above under fault-injection storms, where barrier and
 *    fault timing are most likely to smear across a batch boundary.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "sim/experiment.hpp"
#include "sim/fuzz.hpp"
#include "sim/oracle.hpp"
#include "sim/runner.hpp"

using namespace pccsim;
using namespace pccsim::sim;

namespace {

/** Batch capacities the gates sweep: degenerate, odd, quantum, max. */
const u32 kCapacities[] = {1, 7, 64, 4096};

/** The capacities checked against capacity 1. */
const u32 kWideCapacities[] = {7, 64, 4096};

ExperimentSpec
ciSpec(const std::string &workload, PolicyKind policy)
{
    ExperimentSpec spec;
    spec.workload.name = workload;
    spec.workload.scale = workloads::Scale::Ci;
    spec.policy = policy;
    spec.cap_percent = 25.0;
    return spec;
}

/** The spec, pinned to one batch capacity (memoizable via the key). */
ExperimentSpec
withCapacity(ExperimentSpec spec, u32 capacity)
{
    spec.tweak = [capacity](SystemConfig &cfg) {
        cfg.batch_capacity = capacity;
    };
    spec.tweak_key = "batch_capacity=" + std::to_string(capacity);
    return spec;
}

/** A fault-storm spec: huge-alloc failures plus shootdown storms. */
FuzzSpec
stormSpec()
{
    FuzzSpec spec;
    spec.pattern = "hot";
    spec.footprint_mb = 16;
    spec.ops = 150'000;
    spec.hot_regions = 4;
    spec.seed = 11;
    spec.policy = PolicyKind::Pcc;
    spec.interval_accesses = 10'000;
    spec.alloc_fail_huge = 0.3;
    spec.shootdown_storm = 0.2;
    return spec;
}

} // namespace

TEST(BatchEngine, BitIdenticalToCapacityOne)
{
    // The headline contract: for every batch capacity, the run's
    // RunResult equals the one-op-per-resume run's, field for field.
    for (const char *app : {"bfs", "dedup"}) {
        const RunResult one =
            runOne(withCapacity(ciSpec(app, PolicyKind::Pcc), 1));
        for (u32 capacity : kWideCapacities) {
            const RunResult batched = runOne(
                withCapacity(ciSpec(app, PolicyKind::Pcc), capacity));
            EXPECT_TRUE(batched == one)
                << app << " capacity " << capacity;
        }
    }
}

TEST(BatchEngine, OracleLockstepAcrossBatchSizes)
{
    // Per-access differential oracle over the batched hot path: any
    // smear of TLB/walk/fault state across a batch boundary diverges
    // from the reference model and throws.
    for (u32 capacity : kCapacities) {
        ExperimentSpec spec =
            withCapacity(ciSpec("bfs", PolicyKind::Pcc), capacity);
        spec.oracle.enabled = true;
        spec.oracle.sample_every = 1;
        EXPECT_NO_THROW(runOne(spec)) << "capacity " << capacity;
    }
}

TEST(BatchEngine, OracleCatchesPlantedBugInBatchedPath)
{
    // The lockstep gate must still have teeth on the batched path: a
    // planted miss-path bug may not hide behind batching.
    ExperimentSpec spec =
        withCapacity(ciSpec("bfs", PolicyKind::Base), 64);
    spec.mutation = HotPathMutation::SkipL2Fill;
    spec.oracle.enabled = true;
    spec.oracle.sample_every = 1;
    EXPECT_THROW(runOne(spec), OracleError);
}

TEST(BatchEngine, SerialVsParallelRunnerDeterministic)
{
    // The same batch of specs through a serial and a 4-worker runner
    // must produce bit-identical results in matching order.
    std::vector<ExperimentSpec> specs;
    for (u32 capacity : kCapacities)
        specs.push_back(
            withCapacity(ciSpec("bfs", PolicyKind::Pcc), capacity));
    for (u32 capacity : kCapacities)
        specs.push_back(
            withCapacity(ciSpec("dedup", PolicyKind::LinuxThp),
                         capacity));

    Runner serial(1);
    Runner parallel(4);
    const auto a = serial.runMany(specs);
    const auto b = parallel.runMany(specs);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(*a[i] == *b[i]) << "spec " << i;
}

TEST(BatchEngine, FaultStormBitIdenticalAcrossCapacities)
{
    // Fault storms concentrate the risky interleavings: fault entry
    // mid-batch, storms stretching shootdowns, promotions failing and
    // retrying. Every capacity must still match capacity 1.
    const RunResult one =
        runOne(withCapacity(stormSpec().toExperiment(), 1));
    for (u32 capacity : kWideCapacities) {
        const RunResult batched =
            runOne(withCapacity(stormSpec().toExperiment(), capacity));
        EXPECT_TRUE(batched == one) << "capacity " << capacity;
    }
}

TEST(BatchEngine, FaultStormOracleLockstep)
{
    ExperimentSpec spec = withCapacity(stormSpec().toExperiment(), 7);
    spec.oracle.enabled = true;
    spec.oracle.sample_every = 1;
    EXPECT_NO_THROW(runOne(spec));
}

TEST(BatchEngine, MultiLaneFaultStormOracleLockstep)
{
    // Four lanes on four cores share one process under a fault storm:
    // shootdowns from one lane's promotions land mid-turn on its
    // siblings' cores. Every access is checked against the reference.
    FuzzSpec storm = stormSpec();
    storm.lanes = 4;
    ExperimentSpec spec = storm.toExperiment();
    spec.oracle.enabled = true;
    spec.oracle.sample_every = 1;
    EXPECT_NO_THROW(runOne(spec));
}

// ---- sampled mode ----

TEST(Sampling, ReportsEstimatesWithConfidenceIntervals)
{
    ExperimentSpec spec = ciSpec("bfs", PolicyKind::Pcc);
    spec.sampling.window = 10'000;
    spec.sampling.fastforward = 40'000;
    const RunResult r = runOne(spec);

    ASSERT_TRUE(r.sampling.enabled);
    EXPECT_EQ(r.sampling.window, 10'000u);
    EXPECT_EQ(r.sampling.fastforward, 40'000u);
    EXPECT_GT(r.sampling.windows, 1u);
    EXPECT_GT(r.sampling.detailed_accesses, 0u);
    EXPECT_GT(r.sampling.ff_accesses, 0u);
    EXPECT_GT(r.sampling.miss_rate_ci95, 0.0);

    // Fast-forward skips the hardware but not the instruction stream:
    // every access the workload emits is still accounted.
    const RunResult exact = runOne(ciSpec("bfs", PolicyKind::Pcc));
    EXPECT_EQ(r.job().accesses, exact.job().accesses);
    EXPECT_EQ(r.sampling.detailed_accesses + r.sampling.ff_accesses,
              r.job().accesses);
    EXPECT_FALSE(exact.sampling.enabled);
}

TEST(Sampling, DeterministicAcrossRuns)
{
    ExperimentSpec spec = ciSpec("dedup", PolicyKind::Pcc);
    spec.sampling.window = 5'000;
    spec.sampling.fastforward = 20'000;
    const RunResult a = runOne(spec);
    const RunResult b = runOne(spec);
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.sampling.windows, b.sampling.windows);
    EXPECT_EQ(a.sampling.miss_rate_mean, b.sampling.miss_rate_mean);
}

TEST(Sampling, EstimateTracksExactMissRate)
{
    // The point estimate must land within its own 95% interval
    // (doubled for slack: ci windows are few and the first window
    // carries the cold-start transient) of the exact miss rate.
    ExperimentSpec spec = ciSpec("dedup", PolicyKind::Pcc);
    const RunResult exact = runOne(spec);
    const double exact_miss = 100.0 *
                              static_cast<double>(exact.job().walks) /
                              static_cast<double>(
                                  exact.job().tlb_accesses);

    spec.sampling.window = 20'000;
    spec.sampling.fastforward = 80'000;
    const RunResult sampled = runOne(spec);
    const double slack =
        std::max(2.0 * sampled.sampling.miss_rate_ci95, 0.5);
    EXPECT_NEAR(sampled.sampling.miss_rate_mean, exact_miss, slack);
}

TEST(Sampling, RejectsOracleCombination)
{
    ExperimentSpec spec = ciSpec("bfs", PolicyKind::Pcc);
    spec.sampling.window = 1'000;
    spec.sampling.fastforward = 9'000;
    spec.oracle.enabled = true;
    EXPECT_DEATH(runOne(spec), "incompatible with the oracle");
}
