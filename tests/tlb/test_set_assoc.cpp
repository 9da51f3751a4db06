// util::SetAssoc in the shapes the TLBs and page-walk caches use
// (built from TlbParams via tlb::arrayOf), plus a randomized
// differential check against the oracle's reference model on TLB- and
// cache-shaped geometries.

#include <gtest/gtest.h>

#include <tuple>

#include "sim/oracle.hpp"
#include "tlb/geometry.hpp"
#include "util/rng.hpp"
#include "util/set_assoc.hpp"

using namespace pccsim;
using namespace pccsim::tlb;
using util::SetAssoc;

TEST(SetAssocTlb, MissThenHitAfterInsert)
{
    SetAssoc tlb = arrayOf({16, 4});
    EXPECT_FALSE(tlb.lookup(0x100));
    EXPECT_FALSE(tlb.access(0x100).hit);
    EXPECT_TRUE(tlb.lookup(0x100));
}

TEST(SetAssocTlb, LruEvictionWithinSet)
{
    SetAssoc tlb = arrayOf({8, 2}); // 4 sets, 2 ways
    // VPNs 0, 4, 8 all map to set 0 (vpn % 4).
    tlb.access(0);
    tlb.access(4);
    EXPECT_TRUE(tlb.lookup(0)); // 0 becomes MRU
    tlb.access(8);              // evicts 4 (the LRU)
    EXPECT_TRUE(tlb.contains(0));
    EXPECT_TRUE(tlb.contains(8));
    EXPECT_FALSE(tlb.contains(4));
}

TEST(SetAssocTlb, ContainsDoesNotPromote)
{
    SetAssoc tlb = arrayOf({8, 2});
    tlb.access(0);
    tlb.access(4);
    // Probe 0 without promoting, then fill: 0 should be evicted.
    EXPECT_TRUE(tlb.contains(0));
    tlb.access(8);
    EXPECT_FALSE(tlb.contains(0));
    EXPECT_TRUE(tlb.contains(4));
}

TEST(SetAssocTlb, ReinsertExistingRefreshes)
{
    SetAssoc tlb = arrayOf({8, 2});
    tlb.access(0);
    tlb.access(4);
    EXPECT_TRUE(tlb.access(0).hit); // refresh, no duplicate
    tlb.access(8);                  // evicts 4
    EXPECT_TRUE(tlb.contains(0));
    EXPECT_FALSE(tlb.contains(4));
    EXPECT_EQ(tlb.validCount(), 2u);
}

TEST(SetAssocTlb, InvalidateSingleEntry)
{
    SetAssoc tlb = arrayOf({16, 4});
    tlb.access(7);
    EXPECT_EQ(tlb.invalidateRange(7, 8), 1u);
    EXPECT_EQ(tlb.invalidateRange(7, 8), 0u);
    EXPECT_FALSE(tlb.contains(7));
}

TEST(SetAssocTlb, RefillAfterHoleKeepsOneCopy)
{
    // Regression: a fill must scan every way for the tag before it
    // takes an empty one. Stopping at the first hole would store a
    // second copy of an entry resident *behind* that hole, and the
    // copy would survive the entry's own invalidation.
    SetAssoc tlb = arrayOf({4, 4}); // one set
    tlb.access(1);
    tlb.access(2);                       // ways: [1, 2, -, -]
    EXPECT_EQ(tlb.invalidateRange(1, 2), 1u); // hole in way 0
    EXPECT_TRUE(tlb.access(2).hit);
    EXPECT_EQ(tlb.validCount(), 1u);
    EXPECT_EQ(tlb.invalidateRange(2, 3), 1u);
    EXPECT_FALSE(tlb.contains(2));
}

TEST(SetAssocTlb, InvalidateRange)
{
    SetAssoc tlb = arrayOf({64, 4});
    for (Vpn v = 0; v < 32; ++v)
        tlb.access(v);
    const u64 dropped = tlb.invalidateRange(10, 20);
    EXPECT_EQ(dropped, 10u);
    for (Vpn v = 0; v < 32; ++v)
        EXPECT_EQ(tlb.contains(v), v < 10 || v >= 20) << v;
}

TEST(SetAssocTlb, FlushAllEmpties)
{
    SetAssoc tlb = arrayOf({16, 4});
    for (Vpn v = 0; v < 16; ++v)
        tlb.access(v);
    tlb.flushAll();
    EXPECT_EQ(tlb.validCount(), 0u);
}

TEST(SetAssocTlb, FullAssociativityActsAsOneSet)
{
    SetAssoc tlb = arrayOf({4, 4}); // fully associative
    for (Vpn v = 100; v < 104; ++v)
        tlb.access(v);
    EXPECT_EQ(tlb.validCount(), 4u);
    tlb.access(200); // evicts LRU = 100
    EXPECT_FALSE(tlb.contains(100));
    EXPECT_TRUE(tlb.contains(103));
}

namespace {

/**
 * Drive `real` and the oracle's reference model with one random
 * stream of lookups, fused accesses, range invalidations and flushes,
 * asserting identical hit results and resident counts after every
 * operation and identical contents at the end. Keys are drawn from a
 * few times the capacity so sets stay contended and holes are
 * refilled while older entries sit behind them.
 */
void
expectMatchesReference(u64 sets, u32 ways, bool mru_hint, u64 seed,
                       int ops)
{
    SetAssoc real(sets, ways, mru_hint);
    const tlb::TlbParams shape{static_cast<u32>(sets * ways), ways};
    sim::RefSetAssoc ref(shape);
    const u64 keys = sets * ways * 3;
    Rng rng(seed);
    for (int i = 0; i < ops; ++i) {
        const u64 key = rng.below(keys);
        const u64 op = rng.below(100);
        if (op < 30) {
            ASSERT_EQ(real.lookup(key), ref.lookup(key)) << "op " << i;
        } else if (op < 94) {
            ASSERT_EQ(real.access(key).hit, ref.access(key)) << "op " << i;
        } else if (op < 99) {
            const u64 hi = key + 1 + rng.below(sets * 2);
            ASSERT_EQ(real.invalidateRange(key, hi),
                      ref.invalidateRange(key, hi))
                << "op " << i;
        } else {
            real.flushAll();
            ref = sim::RefSetAssoc(shape);
        }
        ASSERT_EQ(real.validCount(), ref.validCount()) << "op " << i;
    }
    u64 resident = 0;
    real.forEachValid([&](u64 key) {
        ++resident;
        EXPECT_TRUE(ref.lookup(key)) << key;
    });
    EXPECT_EQ(resident, ref.validCount());
}

} // namespace

TEST(SetAssocTlbAccess, CombinedAccessMatchesLookupThenInsert)
{
    // The reference access() is literally lookup-then-insert with an
    // explicit LRU scan; the fused single-scan access() must agree
    // with it on hits, resident counts and contents.
    expectMatchesReference(4, 4, true, 0x9e3779b97f4a7c15ull, 4000);
}

class SetAssocDifferential
    : public ::testing::TestWithParam<std::tuple<u64, u32, bool>>
{
};

TEST_P(SetAssocDifferential, MatchesReferenceModel)
{
    const auto [sets, ways, mru_hint] = GetParam();
    for (u64 seed = 1; seed <= 3; ++seed)
        expectMatchesReference(sets, ways, mru_hint, seed, 6000);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SetAssocDifferential,
    ::testing::Values(
        std::make_tuple(u64{1}, 2u, true),    // PML4E cache
        std::make_tuple(u64{8}, 4u, true),    // PDE cache, L1 TLB
        std::make_tuple(u64{16}, 8u, true),   // L2 TLB
        std::make_tuple(u64{8}, 8u, true),    // L1 data cache
        std::make_tuple(u64{16}, 8u, false),  // L2 data cache
        std::make_tuple(u64{4}, 16u, false),  // LLC
        std::make_tuple(u64{20}, 16u, false), // non-power-of-two LLC
        std::make_tuple(u64{5}, 7u, true)));  // odd sets and ways

TEST(SetAssocTlbAccess, ReportsDisplacedVictim)
{
    SetAssoc tlb = arrayOf({8, 2}); // 4 sets, 2 ways; set 0 holds {0,4,8,...}
    EXPECT_EQ(tlb.access(0).displaced, std::nullopt);
    EXPECT_EQ(tlb.access(4).displaced, std::nullopt);
    const auto evicting = tlb.access(8); // set full: evicts LRU = 0
    EXPECT_FALSE(evicting.hit);
    ASSERT_TRUE(evicting.displaced.has_value());
    EXPECT_EQ(*evicting.displaced, 0u);
}

TEST(SetAssocTlbAccess, NoVictimWhenAHoleExists)
{
    SetAssoc tlb = arrayOf({8, 2});
    tlb.access(0);
    tlb.access(4);
    tlb.invalidateRange(0, 1); // hole in way 0
    const auto result = tlb.access(8);
    EXPECT_FALSE(result.hit);
    EXPECT_EQ(result.displaced, std::nullopt);
    EXPECT_TRUE(tlb.contains(4));
    EXPECT_TRUE(tlb.contains(8));
}

TEST(SetAssocTlbAccess, HitRefreshesRecency)
{
    SetAssoc tlb = arrayOf({8, 2});
    tlb.access(0);
    tlb.access(4);
    EXPECT_TRUE(tlb.access(0).hit); // 0 becomes MRU
    tlb.access(8);                  // evicts 4
    EXPECT_TRUE(tlb.contains(0));
    EXPECT_FALSE(tlb.contains(4));
}

TEST(SetAssocTlbMru, RepeatedLookupsStayCorrect)
{
    // The MRU-way fast check must be behaviorally invisible: repeated
    // hits on one entry, then eviction traffic, then probes again.
    SetAssoc tlb = arrayOf({8, 2});
    tlb.access(0);
    tlb.access(4);
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(tlb.lookup(0));
    tlb.access(8); // evicts 4; MRU hint for set 0 now points at 8's way
    EXPECT_FALSE(tlb.lookup(4));
    EXPECT_TRUE(tlb.lookup(0));
    EXPECT_TRUE(tlb.lookup(8));
}

TEST(SetAssocTlbMru, StaleHintAfterInvalidateIsSafe)
{
    SetAssoc tlb = arrayOf({8, 2});
    tlb.access(0);
    EXPECT_TRUE(tlb.lookup(0)); // hint -> way holding 0
    tlb.invalidateRange(0, 1);
    EXPECT_FALSE(tlb.lookup(0)); // hint points at an invalid way
    tlb.access(4);
    EXPECT_TRUE(tlb.lookup(4));
    EXPECT_FALSE(tlb.lookup(0));
}

class TlbGeometrySweep
    : public ::testing::TestWithParam<std::pair<u32, u32>>
{
};

TEST_P(TlbGeometrySweep, CapacityIsRespected)
{
    const auto [entries, ways] = GetParam();
    SetAssoc tlb = arrayOf({entries, ways});
    // Fill 4x capacity; valid count never exceeds capacity and a
    // freshly filled entry is always resident.
    for (Vpn v = 0; v < entries * 4; ++v) {
        tlb.access(v);
        ASSERT_LE(tlb.validCount(), entries);
        ASSERT_TRUE(tlb.contains(v));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbGeometrySweep,
    ::testing::Values(std::pair<u32, u32>{64, 4},
                      std::pair<u32, u32>{32, 4},
                      std::pair<u32, u32>{1024, 8},
                      std::pair<u32, u32>{4, 4},
                      std::pair<u32, u32>{8, 8}));

TEST(SetAssocTlb, FlushAllResetsReplacementState)
{
    // Regression: flushAll() must zero the recency stamps and the MRU
    // hints along with the valid bits. A flush that leaves stale
    // stamps breaks the zeroed-stamp hole contract — post-flush
    // fills would report phantom displaced victims from ways the
    // victim scan should see as free.
    SetAssoc tlb = arrayOf({8, 2}); // 4 sets, 2 ways; set 0 holds {0,4,8,...}
    for (Vpn v : {0u, 4u, 8u, 12u})
        (void)tlb.access(v); // heat up stamps and MRU hints
    tlb.flushAll();
    EXPECT_EQ(tlb.validCount(), 0u);
    // Refilling the flushed set must land in holes: no victims.
    const auto first = tlb.access(0);
    EXPECT_FALSE(first.hit);
    EXPECT_EQ(first.displaced, std::nullopt);
    const auto second = tlb.access(4);
    EXPECT_FALSE(second.hit);
    EXPECT_EQ(second.displaced, std::nullopt);
    EXPECT_EQ(tlb.validCount(), 2u);
    // Only now is the set full again and a third fill evicts.
    const auto third = tlb.access(8);
    ASSERT_TRUE(third.displaced.has_value());
    EXPECT_EQ(*third.displaced, 0u);
}

TEST(SetAssocTlb, FlushMatchingDropsOnlyTheTaggedClass)
{
    // flushMatching(tag, mask) underlies per-ASID invalidation: keys
    // whose masked bits equal the tag go, everything else stays.
    SetAssoc tlb = arrayOf({16, 4});
    const Vpn kTag = Vpn(1) << 48;
    tlb.access(5);
    tlb.access(kTag | 5);
    tlb.access(kTag | 9);
    EXPECT_EQ(tlb.flushMatching(kTag, ~(kTag - 1)), 2u);
    EXPECT_TRUE(tlb.contains(5));
    EXPECT_FALSE(tlb.contains(kTag | 5));
    EXPECT_FALSE(tlb.contains(kTag | 9));
}
