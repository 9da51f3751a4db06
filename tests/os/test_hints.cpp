/**
 * @file
 * MADV_NOHUGEPAGE as a *mechanism* guarantee. The policy layer already
 * honors hints (LinuxThp's wantHugeFault / khugepaged eligibility);
 * these tests pin the stronger contract that the OS itself refuses to
 * huge-back an opted-out region no matter which policy asks, which
 * promotion path runs (fault-time, 2MB collapse, 1GB collapse), or how
 * much memory pressure the system is under — the kernel's
 * VM_NOHUGEPAGE semantics.
 */

#include <gtest/gtest.h>

#include "mem/phys_mem.hpp"
#include "os/os.hpp"

using namespace pccsim;
using namespace pccsim::os;
using pccsim::mem::PageSize;

namespace {

struct HintFixture : public ::testing::Test
{
    HintFixture()
        : phys(64 * mem::kBytes2M), os_model(Os::Params{}, phys),
          proc(os_model.createProcess(2 * mem::kBytes1G))
    {
        heap = proc.mmap(16 * mem::kBytes2M, "heap");
    }

    void
    faultRegion(Addr base, u32 pages = 512)
    {
        for (u32 p = 0; p < pages; ++p)
            os_model.handleFault(proc, base + p * mem::kBytes4K, false);
    }

    mem::PhysicalMemory phys;
    Os os_model;
    Process &proc;
    Addr heap = 0;
};

} // namespace

TEST_F(HintFixture, NoHugeBlocksFaultTimeAllocationMechanismSide)
{
    // want_huge = true models the all-huge policy: the *mechanism*
    // must still fall back to a base page in a NoHuge region.
    proc.madvise(heap, mem::kBytes2M, HugeHint::NoHuge);
    os_model.handleFault(proc, heap + 123, /*want_huge=*/true);
    EXPECT_EQ(proc.regionStateOf(heap), RegionState::Base4K);
    EXPECT_EQ(os_model.stats().huge_faults, 0u);
    // A neighbouring unhinted region is unaffected.
    os_model.handleFault(proc, heap + mem::kBytes2M, /*want_huge=*/true);
    EXPECT_EQ(proc.regionStateOf(heap + mem::kBytes2M),
              RegionState::Huge2M);
}

TEST_F(HintFixture, NoHugeRegionIsNeverPromoted)
{
    proc.madvise(heap, mem::kBytes2M, HugeHint::NoHuge);
    faultRegion(heap); // fully faulted: otherwise promotable
    const auto result =
        os_model.promoteRegion(proc, heap, /*allow_compaction=*/true);
    EXPECT_EQ(result.status, PromoteStatus::NotEligible);
    EXPECT_EQ(proc.regionStateOf(heap), RegionState::Base4K);
    EXPECT_EQ(proc.promotions(), 0u);
}

TEST_F(HintFixture, NoHugeConstituentVetoesTheWhole1GCollapse)
{
    // 1GB promotion must not smuggle an opted-out 2MB region into a
    // gigabyte mapping.
    Process &big = os_model.createProcess(2 * mem::kBytes1G);
    const Addr base = big.mmap(mem::kBytes1G, "big");
    ASSERT_TRUE(mem::isAligned(base, PageSize::Huge1G));
    for (u64 r = 0; r < mem::k2MPer1G; ++r)
        os_model.handleFault(big, base + r * mem::kBytes2M, false);
    big.madvise(base + mem::kBytes2M, mem::kBytes2M, HugeHint::NoHuge);
    const auto result = os_model.promoteRegion1G(big, base);
    EXPECT_EQ(result.status, PromoteStatus::NotEligible);
    EXPECT_EQ(big.promotions1G(), 0u);
}

TEST_F(HintFixture, PressureReclaimNeverPromotesNoHugeRegions)
{
    // Fill most of physical memory with huge-backed regions, opt one
    // region out, then drive base-page faults until the allocator hits
    // pressure and reclaim runs. Whatever reclaim demotes or frees,
    // the NoHuge region must still be base-backed at the end.
    proc.madvise(heap, mem::kBytes2M, HugeHint::NoHuge);
    faultRegion(heap);

    // Consume huge frames elsewhere to build pressure.
    for (u64 r = 1; r < 12; ++r) {
        os_model.handleFault(proc, heap + r * mem::kBytes2M,
                             /*want_huge=*/true);
    }
    // Keep faulting fresh base pages; with the arena nearly exhausted
    // this exercises the pressure/reclaim path.
    Process &filler = os_model.createProcess(mem::kBytes1G);
    const Addr fheap = filler.mmap(64 * mem::kBytes2M, "filler");
    for (u64 p = 0; p < 55 * 512; ++p) {
        os_model.handleFault(filler, fheap + p * mem::kBytes4K,
                             /*want_huge=*/false);
    }
    EXPECT_GT(os_model.stats().base_alloc_pressure, 0u)
        << "test should actually reach the pressure/reclaim path";
    EXPECT_EQ(proc.regionStateOf(heap), RegionState::Base4K)
        << "reclaim/pressure must not huge-back an opted-out region";
}
