#include <gtest/gtest.h>

#include "mem/phys_mem.hpp"

using namespace pccsim;
using namespace pccsim::mem;

namespace {

constexpr u64 kMem = 64 * kBytes2M; // 64 blocks

} // namespace

TEST(PhysMem, BaseAllocationRecordsOwner)
{
    PhysicalMemory pm(kMem);
    auto pfn = pm.allocBase(3, 0x1234);
    ASSERT_TRUE(pfn);
    EXPECT_EQ(pm.useOf(*pfn), FrameUse::AppBase);
    EXPECT_EQ(pm.ownerOf(*pfn).pid, 3u);
    EXPECT_EQ(pm.ownerOf(*pfn).vpn4k, 0x1234u);
    pm.freeBase(*pfn);
    EXPECT_EQ(pm.useOf(*pfn), FrameUse::Free);
}

TEST(PhysMem, HugeAllocationMarksWholeBlock)
{
    PhysicalMemory pm(kMem);
    auto pfn = pm.allocHuge(1, 0);
    ASSERT_TRUE(pfn);
    EXPECT_EQ(*pfn % kPagesPer2M, 0u);
    for (u64 i = 0; i < kPagesPer2M; ++i)
        EXPECT_EQ(pm.useOf(*pfn + i), FrameUse::AppHuge);
    pm.freeHuge(*pfn);
    EXPECT_EQ(pm.useOf(*pfn), FrameUse::Free);
}

TEST(PhysMem, FragmentPinsRequestedShare)
{
    PhysicalMemory pm(kMem);
    Rng rng(7);
    const u64 pinned = pm.fragment(0.5, rng);
    EXPECT_EQ(pinned, 32u);
    EXPECT_EQ(pm.pinnedBlocks(), 32u);
    // Pinned blocks cannot form huge frames.
    EXPECT_EQ(pm.hugeFramesAvailable(), 32u);
}

TEST(PhysMem, ScrambleRemovesReadyHugeFrames)
{
    PhysicalMemory pm(kMem);
    Rng rng(7);
    pm.fragment(0.5, rng);
    pm.scramble(rng);
    EXPECT_EQ(pm.hugeFramesAvailable(), 0u);
    // But unpinned blocks remain compactable.
    EXPECT_EQ(pm.compactableBlocks(), 32u);
}

TEST(PhysMem, CompactionLiberatesScrambledBlock)
{
    PhysicalMemory pm(kMem);
    Rng rng(9);
    pm.fragment(0.5, rng);
    pm.scramble(rng);
    ASSERT_EQ(pm.hugeFramesAvailable(), 0u);

    auto result = pm.compactOneBlock();
    ASSERT_TRUE(result);
    EXPECT_EQ(pm.hugeFramesAvailable(), 1u);
    // Filler moves carry the filler pid so the OS can skip them.
    for (const auto &move : result->moves)
        EXPECT_EQ(move.owner.pid, kFillerPid);
    EXPECT_TRUE(pm.allocHuge(0, 0).has_value());
}

TEST(PhysMem, CompactionMovesAppPagesWithOwners)
{
    PhysicalMemory pm(8 * kBytes2M);
    // Fill one whole block with app pages, then compact it away.
    std::vector<Pfn> frames;
    for (u64 i = 0; i < kPagesPer2M; ++i) {
        auto pfn = pm.allocBase(1, 1000 + i);
        ASSERT_TRUE(pfn);
        frames.push_back(*pfn);
    }
    const u64 before = pm.freeFrames();
    auto result = pm.compactOneBlock();
    ASSERT_TRUE(result);
    EXPECT_EQ(result->moves.size(), kPagesPer2M);
    EXPECT_EQ(pm.freeFrames(), before); // moves conserve usage
    for (const auto &move : result->moves) {
        EXPECT_EQ(pm.useOf(move.from), FrameUse::Free);
        EXPECT_EQ(pm.useOf(move.to), FrameUse::AppBase);
        EXPECT_EQ(pm.ownerOf(move.to).pid, 1u);
        EXPECT_EQ(move.owner.vpn4k, pm.ownerOf(move.to).vpn4k);
    }
}

TEST(PhysMem, CompactionSkipsPinnedAndHugeBlocks)
{
    PhysicalMemory pm(2 * kBytes2M); // 2 blocks only
    Rng rng(3);
    // Pin a page in every block: nothing is compactable.
    pm.fragment(1.0, rng);
    EXPECT_EQ(pm.compactableBlocks(), 0u);
    EXPECT_FALSE(pm.compactOneBlock().has_value());
}

TEST(PhysMem, SplitHugeReassignsOwnership)
{
    PhysicalMemory pm(kMem);
    auto pfn = pm.allocHuge(2, 4096);
    ASSERT_TRUE(pfn);
    pm.splitHuge(*pfn, 2, 4096);
    for (u64 i = 0; i < kPagesPer2M; ++i) {
        EXPECT_EQ(pm.useOf(*pfn + i), FrameUse::AppBase);
        EXPECT_EQ(pm.ownerOf(*pfn + i).vpn4k, 4096 + i);
    }
    // Split frames can be individually freed and re-coalesce.
    for (u64 i = 0; i < kPagesPer2M; ++i)
        pm.freeBase(*pfn + i);
    EXPECT_TRUE(pm.allocHuge(0, 0).has_value());
}

TEST(PhysMem, HugeAllocationFailsWhenFragmented)
{
    PhysicalMemory pm(4 * kBytes2M);
    Rng rng(5);
    pm.fragment(1.0, rng);
    EXPECT_FALSE(pm.allocHuge(0, 0).has_value());
    EXPECT_GT(pm.stats().alloc_huge_fail, 0u);
}

TEST(PhysMem, FragmentZeroIsNoop)
{
    PhysicalMemory pm(kMem);
    Rng rng(1);
    EXPECT_EQ(pm.fragment(0.0, rng), 0u);
    EXPECT_EQ(pm.hugeFramesAvailable(), 64u);
}

TEST(PhysMem, AccountingCounters)
{
    PhysicalMemory pm(kMem);
    EXPECT_EQ(pm.totalBlocks(), 64u);
    EXPECT_EQ(pm.totalFrames(), 64u * 512);
    auto a = pm.allocBase(0, 1);
    auto b = pm.allocHuge(0, 512);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(pm.freeFrames(), 64u * 512 - 1 - 512);
    EXPECT_EQ(pm.stats().alloc_base, 1u);
    EXPECT_EQ(pm.stats().alloc_huge, 1u);
}

// ------------------------------------------- gigabyte-group compaction

TEST(PhysMem, GigTargetedCompactionLiberatesAGigabyte)
{
    PhysicalMemory pm(2 * kBytes1G);
    // Occupy one whole gig so the next 4KB page lands in the other —
    // gig indices come from the returned pfns (the buddy's placement
    // order is an implementation detail).
    auto big = pm.allocHuge1G(1, 0);
    ASSERT_TRUE(big);
    auto page = pm.allocBase(1, 42);
    ASSERT_TRUE(page);
    const u64 target = *page >> kOrder1G;
    ASSERT_NE(target, *big >> kOrder1G);
    pm.freeHuge1G(*big);
    // One gig is free again; the other is blocked by the lone resident.
    EXPECT_EQ(pm.gigFramesAvailable(), 1u);

    const auto cand = pm.bestGigCandidate();
    ASSERT_TRUE(cand.has_value());
    EXPECT_EQ(*cand, target);

    const auto result = pm.compactOneBlockIn(*cand);
    ASSERT_TRUE(result.has_value());
    ASSERT_EQ(result->moves.size(), 1u);
    EXPECT_EQ(result->moves[0].from, *page);
    // The destination must not land back inside the target gig: the
    // resident moved to the other gig, so the available count stays 1
    // (the pollution relocated) — but the *target* gig is now
    // allocatable, which is the point of targeting.
    EXPECT_NE(result->moves[0].to >> kOrder1G, target);
    EXPECT_EQ(pm.gigFramesAvailable(), 1u);
    const auto regained = pm.allocHuge1G(1, 0);
    ASSERT_TRUE(regained.has_value());
    EXPECT_EQ(*regained >> kOrder1G, target);
}

TEST(PhysMem, BestGigCandidatePrefersCheapestGroup)
{
    PhysicalMemory pm(2 * kBytes1G);
    // Shape residency exactly: fill all of memory with 4KB pages,
    // then free everything except three residents in one gig and a
    // lone resident in the other.
    std::vector<Pfn> all;
    while (auto pfn = pm.allocBase(2, all.size()))
        all.push_back(*pfn);
    const u64 frames_per_gig = u64(1) << kOrder1G;
    const auto keep = [&](Pfn pfn) {
        const u64 off = pfn % frames_per_gig;
        const u64 gig = pfn >> kOrder1G;
        if (gig == 0)
            return off == 5 || off == 600 || off == 7000;
        return off == 3;
    };
    for (Pfn pfn : all) {
        if (!keep(pfn))
            pm.freeBase(pfn);
    }
    const auto cand = pm.bestGigCandidate();
    ASSERT_TRUE(cand.has_value());
    EXPECT_EQ(*cand, 1u); // one move beats three
}

TEST(PhysMem, BestGigCandidateSkipsHugeAndEmptyGroups)
{
    PhysicalMemory pm(2 * kBytes1G);
    // One gig holds an (immovable) application huge page, the other
    // is entirely free: neither is a compaction candidate.
    auto huge = pm.allocHuge(3, 0);
    ASSERT_TRUE(huge);
    EXPECT_FALSE(pm.bestGigCandidate().has_value());
}
