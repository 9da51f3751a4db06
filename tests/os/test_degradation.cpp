#include <gtest/gtest.h>

#include <utility>

#include "mem/phys_mem.hpp"
#include "os/os.hpp"
#include "util/rng.hpp"

using namespace pccsim;
using namespace pccsim::os;

namespace {

/** Fault every 4KB page of the 2MB region at `base`. */
void
faultRegion(Os &os_model, Process &proc, Addr base)
{
    for (u64 p = 0; p < mem::kPagesPer2M; ++p)
        os_model.handleFault(proc, base + p * mem::kBytes4K, false);
}

} // namespace

TEST(OsRetry, TransientHugeFailureRecoversViaBackoff)
{
    mem::PhysicalMemory phys(64 * mem::kBytes2M);
    int denies = 2;
    phys.setAllocGate([&denies](unsigned order) {
        if (order == mem::kOrder2M && denies > 0) {
            --denies;
            return false;
        }
        return true;
    });
    Os os_model(Os::Params{}, phys);
    Process &proc = os_model.createProcess(64 * mem::kBytes2M);
    const Addr heap = proc.mmap(4 * mem::kBytes2M, "heap");
    faultRegion(os_model, proc, heap);

    const u64 background_before = os_model.backgroundCycles();
    const auto result = os_model.promoteRegion(proc, heap, false);
    EXPECT_EQ(result.status, PromoteStatus::Ok);
    EXPECT_EQ(result.retries, 2u);
    // Exponential backoff was charged: b + 2b for the two retries.
    EXPECT_GE(os_model.backgroundCycles() - background_before,
              3 * os_model.params().retry_backoff);
    EXPECT_EQ(os_model.stats().promote_retries, 2u);
    EXPECT_EQ(os_model.stats().promote_retry_successes, 1u);
}

TEST(OsRetry, GenuineExhaustionDoesNotRetry)
{
    // No injection gate installed: a failed huge allocation is final,
    // so the backoff path must not trigger (clean-run accounting).
    mem::PhysicalMemory phys(2 * mem::kBytes2M);
    Os os_model(Os::Params{}, phys);
    Process &proc = os_model.createProcess(2 * mem::kBytes2M);
    const Addr heap = proc.mmap(2 * mem::kBytes2M, "heap");
    faultRegion(os_model, proc, heap);
    faultRegion(os_model, proc, heap + mem::kBytes2M);
    // All frames are consumed by base pages; no order-9 chunk exists
    // and compaction has no free headroom.
    const auto result = os_model.promoteRegion(proc, heap, true);
    EXPECT_EQ(result.status, PromoteStatus::NoHugeFrame);
    EXPECT_EQ(result.retries, 0u);
    EXPECT_EQ(os_model.stats().promote_retries, 0u);
}

TEST(OsRetry, InjectedCompactionFailureReportsNoHugeFrame)
{
    mem::PhysicalMemory phys(16 * mem::kBytes2M);
    Os os_model(Os::Params{}, phys);
    Process &proc = os_model.createProcess(16 * mem::kBytes2M);
    const Addr heap = proc.mmap(2 * mem::kBytes2M, "heap");
    faultRegion(os_model, proc, heap);
    Rng rng(7);
    phys.scramble(rng); // a filler in every free block: no free chunk

    // Every compaction attempt fails outright (injected).
    phys.setCompactionGate([] { return 0u; });
    const auto result = os_model.promoteRegion(proc, heap, true);
    EXPECT_EQ(result.status, PromoteStatus::NoHugeFrame);
    EXPECT_FALSE(result.compacted);
    EXPECT_GE(result.compaction_runs, 1u);
    EXPECT_EQ(result.retries, 2u); // gate installed => retries taken
    EXPECT_GT(phys.stats().injected_compaction_fail, 0u);
}

TEST(PhysMem, PartialCompactionAbortRollsBackCleanly)
{
    mem::PhysicalMemory phys(16 * mem::kBytes2M);
    // Three movable residents in block 0.
    const auto a = phys.allocBase(1, 100);
    const auto b = phys.allocBase(1, 101);
    const auto c = phys.allocBase(1, 102);
    ASSERT_TRUE(a && b && c);
    const u64 free_before = phys.freeFrames();

    phys.setCompactionGate([] { return 1u; }); // abort after one move
    EXPECT_FALSE(phys.compactOneBlock().has_value());
    EXPECT_EQ(phys.stats().injected_compaction_abort, 1u);

    // The rollback restored every frame exactly.
    EXPECT_EQ(phys.freeFrames(), free_before);
    for (Pfn pfn : {*a, *b, *c}) {
        EXPECT_EQ(phys.useOf(pfn), mem::FrameUse::AppBase);
        EXPECT_EQ(phys.ownerOf(pfn).pid, 1u);
    }
    EXPECT_EQ(phys.ownerOf(*a).vpn4k, 100u);
}

TEST(OsCap, UnlimitedBudgetIsExplicit)
{
    mem::PhysicalMemory phys(16 * mem::kBytes2M);
    Os os_model(Os::Params{}, phys);
    EXPECT_FALSE(os_model.promotionBudgetRegions().has_value());
}

TEST(OsCap, CapExactlyReachedBoundary)
{
    mem::PhysicalMemory phys(64 * mem::kBytes2M);
    Os::Params params;
    params.promotion_cap_bytes = 2 * mem::kBytes2M;
    Os os_model(params, phys);
    Process &proc = os_model.createProcess(64 * mem::kBytes2M);
    const Addr heap = proc.mmap(8 * mem::kBytes2M, "heap");
    for (u32 r = 0; r < 3; ++r)
        faultRegion(os_model, proc, heap + r * mem::kBytes2M);

    ASSERT_EQ(os_model.promotionBudgetRegions().value(), 2u);
    EXPECT_EQ(os_model.promoteRegion(proc, heap, false).status,
              PromoteStatus::Ok);
    // One region of budget left: a promotion that lands exactly on the
    // cap must still be allowed (<=, not <).
    ASSERT_EQ(os_model.promotionBudgetRegions().value(), 1u);
    EXPECT_EQ(
        os_model.promoteRegion(proc, heap + mem::kBytes2M, false).status,
        PromoteStatus::Ok);
    EXPECT_EQ(os_model.promotedBytesTotal(),
              params.promotion_cap_bytes.value());
    EXPECT_EQ(os_model.promotionBudgetRegions().value(), 0u);
    EXPECT_EQ(
        os_model.promoteRegion(proc, heap + 2 * mem::kBytes2M, false)
            .status,
        PromoteStatus::CapReached);
}

TEST(OsReclaim, PressureDemotesColdHugePageAndFreesBloat)
{
    mem::PhysicalMemory phys(64 * mem::kBytes2M);
    Os os_model(Os::Params{}, phys);
    Process &proc = os_model.createProcess(64 * mem::kBytes2M);
    const Addr heap = proc.mmap(8 * mem::kBytes2M, "heap");

    // One touched page, then promote: 511 bloat frames in the region.
    os_model.handleFault(proc, heap, false);
    ASSERT_EQ(os_model.promoteRegion(proc, heap, false).status,
              PromoteStatus::Ok);
    ASSERT_EQ(proc.bloatPages(), mem::kPagesPer2M - 1);

    // From here on every ordinary base allocation fails (injected
    // pressure); only the post-reclaim bypass retry can succeed.
    phys.setAllocGate([](unsigned order) { return order != 0; });
    const Addr pressured = heap + 4 * mem::kBytes2M;
    os_model.handleFault(proc, pressured, false);

    EXPECT_TRUE(proc.faulted(pressured)); // the fault was served
    EXPECT_EQ(proc.regionStateOf(heap), RegionState::Base4K);
    EXPECT_EQ(os_model.stats().reclaim_events, 1u);
    EXPECT_EQ(os_model.stats().reclaim_demotions, 1u);
    EXPECT_EQ(os_model.stats().reclaimed_frames, mem::kPagesPer2M - 1);
    EXPECT_EQ(proc.bloatPages(), 0u);
    // The touched page survived reclaim with its data mapping intact.
    EXPECT_TRUE(proc.faulted(heap));
    EXPECT_TRUE(proc.pageTable().lookup(heap).present);
    EXPECT_FALSE(proc.pageTable().lookup(heap + mem::kBytes4K).present);
}

TEST(OsReclaim, RankerSelectsColdestVictim)
{
    mem::PhysicalMemory phys(64 * mem::kBytes2M);
    Os os_model(Os::Params{}, phys);
    Process &proc = os_model.createProcess(64 * mem::kBytes2M);
    const Addr heap = proc.mmap(8 * mem::kBytes2M, "heap");
    const Addr hot = heap;
    const Addr cold = heap + mem::kBytes2M;
    for (Addr base : {hot, cold}) {
        os_model.handleFault(proc, base, false);
        ASSERT_EQ(os_model.promoteRegion(proc, base, false).status,
                  PromoteStatus::Ok);
    }
    os_model.setReclaimRanker([&](Pid, Addr base) -> u64 {
        return base == hot ? 100 : 1;
    });

    const auto result = os_model.reclaimColdHugePages(1);
    EXPECT_EQ(result.regions_demoted, 1u);
    EXPECT_EQ(result.frames_freed, mem::kPagesPer2M - 1);
    EXPECT_EQ(proc.regionStateOf(cold), RegionState::Base4K);
    EXPECT_EQ(proc.regionStateOf(hot), RegionState::Huge2M);
}

TEST(OsReclaim, FullyTouchedRegionsAreNotVictims)
{
    mem::PhysicalMemory phys(64 * mem::kBytes2M);
    Os os_model(Os::Params{}, phys);
    Process &proc = os_model.createProcess(64 * mem::kBytes2M);
    const Addr heap = proc.mmap(4 * mem::kBytes2M, "heap");
    faultRegion(os_model, proc, heap); // all 512 pages hold data
    ASSERT_EQ(os_model.promoteRegion(proc, heap, false).status,
              PromoteStatus::Ok);

    const auto result = os_model.reclaimColdHugePages(4);
    EXPECT_EQ(result.regions_demoted, 0u);
    EXPECT_EQ(proc.regionStateOf(heap), RegionState::Huge2M);
}

TEST(Os1G, InjectedTransient1GFailureRetries)
{
    mem::PhysicalMemory phys(2 * mem::kBytes1G);
    int denies = 1;
    phys.setAllocGate([&denies](unsigned order) {
        if (order == mem::kOrder1G && denies > 0) {
            --denies;
            return false;
        }
        return true;
    });
    Os os_model(Os::Params{}, phys);
    Process &proc = os_model.createProcess(2 * mem::kBytes1G);
    const Addr heap = proc.mmap(mem::kBytes1G, "heap");
    os_model.handleFault(proc, heap, false);

    const auto result = os_model.promoteRegion1G(proc, heap);
    EXPECT_EQ(result.status, PromoteStatus::Ok);
    EXPECT_EQ(result.retries, 1u);
    EXPECT_EQ(os_model.stats().promote_retry_successes, 1u);
}

TEST(Os1GDeathTest, DemoteRegion1GOnNon1GMappingPanics)
{
    mem::PhysicalMemory phys(2 * mem::kBytes1G);
    Os os_model(Os::Params{}, phys);
    Process &proc = os_model.createProcess(2 * mem::kBytes1G);
    const Addr heap = proc.mmap(mem::kBytes1G, "heap");
    os_model.handleFault(proc, heap, false);
    ASSERT_EQ(os_model.promoteRegion(proc, heap, false).status,
              PromoteStatus::Ok); // 2MB, not 1GB
    EXPECT_DEATH(os_model.demoteRegion1G(proc, heap),
                 "demoteRegion1G on non-1GB mapping");
}

TEST(OsCounters, GetByNameMatchesEveryField)
{
    // A fragmented node where huge frames need compaction, plus a
    // fault-time huge page, a demotion, an injected compaction failure
    // that a retry gets past, and a pressure reclaim, so most counters
    // end nonzero.
    mem::PhysicalMemory phys(32 * mem::kBytes2M);
    Os os_model(Os::Params{}, phys);
    Process &proc = os_model.createProcess(32 * mem::kBytes2M);
    const Addr heap = proc.mmap(8 * mem::kBytes2M, "heap");
    os_model.handleFault(proc, heap, /*want_huge=*/true);
    Rng rng(7);
    phys.fragment(0.25, rng);
    phys.scramble(rng);
    for (u32 r = 1; r < 4; ++r)
        faultRegion(os_model, proc, heap + r * mem::kBytes2M);
    for (u32 r = 1; r < 4; ++r)
        os_model.promoteRegion(proc, heap + r * mem::kBytes2M, true);
    os_model.demoteRegion(proc, heap + mem::kBytes2M);

    bool fail_next = true;
    phys.setCompactionGate([&fail_next] {
        const bool fail = std::exchange(fail_next, false);
        return fail ? 0u : mem::PhysicalMemory::kUnlimitedMoves;
    });
    os_model.promoteRegion(proc, heap + mem::kBytes2M, true);
    phys.setAllocGate([](unsigned order) { return order != 0; });
    os_model.handleFault(proc, heap + 5 * mem::kBytes2M, false);

    const OsStats &os_stats = os_model.stats();
    const std::pair<const char *, u64> os_fields[] = {
        {"huge_faults", os_stats.huge_faults},
        {"base_alloc_pressure", os_stats.base_alloc_pressure},
        {"promote_retries", os_stats.promote_retries},
        {"promote_retry_successes", os_stats.promote_retry_successes},
        {"migrated_pages", os_stats.migrated_pages},
        {"promotions", os_stats.promotions},
        {"promotions_1g", os_stats.promotions_1g},
        {"demotions", os_stats.demotions},
        {"reclaim_events", os_stats.reclaim_events},
        {"reclaim_demotions", os_stats.reclaim_demotions},
        {"reclaimed_frames", os_stats.reclaimed_frames},
    };
    static_assert(sizeof(OsStats) == sizeof(os_fields) /
                                         sizeof(os_fields[0]) *
                                         sizeof(u64),
                  "every OsStats field must be listed");
    for (const auto &[name, value] : os_fields)
        EXPECT_EQ(os_stats.get(name), value) << name;

    const mem::PhysStats &phys_stats = phys.stats();
    const std::pair<const char *, u64> phys_fields[] = {
        {"alloc_base", phys_stats.alloc_base},
        {"alloc_huge", phys_stats.alloc_huge},
        {"alloc_huge_fail", phys_stats.alloc_huge_fail},
        {"injected_compaction_fail", phys_stats.injected_compaction_fail},
        {"injected_compaction_abort", phys_stats.injected_compaction_abort},
        {"compactions", phys_stats.compactions},
    };
    static_assert(sizeof(mem::PhysStats) == sizeof(phys_fields) /
                                                sizeof(phys_fields[0]) *
                                                sizeof(u64),
                  "every PhysStats field must be listed");
    for (const auto &[name, value] : phys_fields)
        EXPECT_EQ(phys_stats.get(name), value) << name;

    // The scenario exercised what perfbench reads by name.
    EXPECT_GT(phys_stats.compactions, 0u);
    EXPECT_GT(os_stats.migrated_pages, 0u);
}

TEST(OsCountersDeathTest, UnknownNameAborts)
{
    const OsStats os_stats;
    const mem::PhysStats phys_stats;
    EXPECT_DEATH(os_stats.get("base_faults"),
                 "unknown OsStats counter 'base_faults'");
    EXPECT_DEATH(phys_stats.get("compaction"),
                 "unknown PhysStats counter 'compaction'");
}
