#include <gtest/gtest.h>

#include "cache/cache.hpp"

using namespace pccsim;
using namespace pccsim::cache;

TEST(Cache, MissThenHitWithinLine)
{
    Cache cache({1024, 2, 64});
    EXPECT_FALSE(cache.access(0x100)); // miss fills the line
    EXPECT_TRUE(cache.access(0x100));
    EXPECT_TRUE(cache.access(0x13f));  // same 64B line
    EXPECT_FALSE(cache.access(0x140)); // next line
}

TEST(Cache, LruEviction)
{
    Cache cache({128, 2, 64}); // 128/(2*64) = 1 set of 2 ways
    cache.access(0);
    cache.access(64);
    EXPECT_TRUE(cache.access(0));   // 0 MRU
    EXPECT_FALSE(cache.access(128)); // evicts 64
    EXPECT_TRUE(cache.access(0));
    EXPECT_FALSE(cache.access(64));
}

TEST(Cache, FlushAll)
{
    Cache cache({1024, 4, 64});
    cache.access(0);
    cache.flushAll();
    EXPECT_FALSE(cache.access(0));
}

TEST(Hierarchy, LatencyOrderingAcrossLevels)
{
    CacheHierarchy::Config cfg;
    CacheHierarchy caches(cfg);
    const Cycles first = caches.access(0x1000);
    EXPECT_EQ(first, cfg.latencies.dram);
    const Cycles second = caches.access(0x1000);
    EXPECT_EQ(second, cfg.latencies.l1);
}

TEST(Hierarchy, L2AndLlcHitPaths)
{
    CacheHierarchy::Config cfg;
    cfg.l1 = {128, 2, 64};  // tiny L1: 1 set
    cfg.l2 = {256, 2, 64};
    cfg.llc = {64 * 1024, 16, 64};
    CacheHierarchy caches(cfg);
    caches.access(0);     // dram fill everywhere
    caches.access(64);
    caches.access(128);   // L1 (1 set x 2 ways) has evicted line 0
    const Cycles c = caches.access(0);
    EXPECT_TRUE(c == cfg.latencies.l2 || c == cfg.latencies.llc) << c;
    EXPECT_GT(caches.l2Hits() + caches.llcHits(), 0u);
}

TEST(Hierarchy, DisabledChargesDram)
{
    CacheHierarchy::Config cfg;
    cfg.enabled = false;
    CacheHierarchy caches(cfg);
    EXPECT_EQ(caches.access(0), cfg.latencies.dram);
    EXPECT_EQ(caches.access(0), cfg.latencies.dram);
}

TEST(Hierarchy, StreamingHitsL1)
{
    CacheHierarchy caches;
    u64 hits = 0;
    const u64 n = 4096;
    for (u64 i = 0; i < n; ++i) {
        const Cycles c = caches.access(i * 8); // 8B stride
        hits += c == CacheLatencies{}.l1;
    }
    // 8 accesses per 64B line: 7/8 should hit L1.
    EXPECT_GT(hits, n * 7 / 10);
}

TEST(Hierarchy, ThrashingGoesToDram)
{
    CacheHierarchy::Config cfg;
    cfg.l1 = {4 * 1024, 8, 64};
    cfg.l2 = {8 * 1024, 8, 64};
    cfg.llc = {16 * 1024, 16, 64};
    CacheHierarchy caches(cfg);
    // Cycle over 64x the LLC with no reuse inside the window.
    const u64 lines = 16 * 1024 / 64 * 64;
    for (int round = 0; round < 3; ++round)
        for (u64 l = 0; l < lines; ++l)
            caches.access(l * 64);
    EXPECT_GT(caches.dramAccesses(), caches.accesses() / 2);
}

TEST(Hierarchy, StatsResetWorks)
{
    CacheHierarchy caches;
    caches.access(0);
    caches.resetStats();
    EXPECT_EQ(caches.accesses(), 0u);
    EXPECT_EQ(caches.dramAccesses(), 0u);
}
