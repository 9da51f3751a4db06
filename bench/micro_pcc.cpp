/**
 * @file
 * Microbenchmarks for the PCC structure itself: hit/miss/eviction
 * paths, decay cost, snapshot (the OS dump) and invalidation — the
 * operations Sec. 3.2.1 argues are cheap enough to run off the
 * critical path after every page-table walk.
 */

#include <benchmark/benchmark.h>

#include "pcc/pcc.hpp"
#include "util/rng.hpp"

using namespace pccsim;
using pccsim::pcc::PccConfig;
using pccsim::pcc::PromotionCandidateCache;

static void
BM_PccTouchHit(benchmark::State &state)
{
    PromotionCandidateCache pcc(
        {static_cast<u32>(state.range(0)), 8});
    for (u32 v = 0; v < pcc.capacity(); ++v)
        pcc.touch(v);
    u64 v = 0;
    for (auto _ : state) {
        pcc.touch(v);
        v = (v + 1) % pcc.capacity();
    }
}
BENCHMARK(BM_PccTouchHit)->Arg(32)->Arg(128)->Arg(1024);

static void
BM_PccTouchMissEvict(benchmark::State &state)
{
    PromotionCandidateCache pcc(
        {static_cast<u32>(state.range(0)), 8});
    u64 v = 0;
    for (auto _ : state)
        pcc.touch(v++); // always a miss once full: evicts every time
}
BENCHMARK(BM_PccTouchMissEvict)->Arg(32)->Arg(128)->Arg(1024);

static void
BM_PccTouchMissEvictLru(benchmark::State &state)
{
    PromotionCandidateCache pcc({static_cast<u32>(state.range(0)), 8,
                                 pcc::Replacement::PureLru});
    u64 v = 0;
    for (auto _ : state)
        pcc.touch(v++);
}
BENCHMARK(BM_PccTouchMissEvictLru)->Arg(32)->Arg(1024);

static void
BM_PccMixedWorkingSet(benchmark::State &state)
{
    PromotionCandidateCache pcc({128, 8});
    Rng rng(1);
    for (auto _ : state) {
        // 90% hot-set hits, 10% cold insertions — the steady state a
        // graph workload produces.
        if (rng.chance(0.9))
            pcc.touch(rng.below(64));
        else
            pcc.touch(1000 + rng.below(100000));
    }
}
BENCHMARK(BM_PccMixedWorkingSet);

static void
BM_PccSnapshot(benchmark::State &state)
{
    PromotionCandidateCache pcc(
        {static_cast<u32>(state.range(0)), 8});
    Rng rng(2);
    for (u32 i = 0; i < pcc.capacity() * 4; ++i)
        pcc.touch(rng.below(pcc.capacity() * 2));
    for (auto _ : state)
        benchmark::DoNotOptimize(pcc.snapshot());
}
BENCHMARK(BM_PccSnapshot)->Arg(128)->Arg(1024);

static void
BM_PccInvalidate(benchmark::State &state)
{
    // Insert-then-shoot-down into a table that is otherwise full and
    // spread over many counter values.
    const u32 entries = static_cast<u32>(state.range(0));
    PromotionCandidateCache pcc({entries, 8});
    for (u32 v = 0; v + 1 < entries; ++v) {
        for (u32 i = 0; i <= v % 64; ++i)
            pcc.touch(v);
    }
    u64 v = entries;
    for (auto _ : state) {
        pcc.touch(v);
        pcc.invalidate(v);
        ++v;
    }
}
BENCHMARK(BM_PccInvalidate)->Arg(128)->Arg(1024);

static void
BM_PccDecayStorm(benchmark::State &state)
{
    // Worst case: one entry saturates repeatedly, halving all
    // counters each time.
    const u32 entries = static_cast<u32>(state.range(0));
    PromotionCandidateCache pcc({entries, 4});
    for (u32 v = 0; v < entries; ++v)
        pcc.touch(v);
    for (auto _ : state)
        pcc.touch(0);
}
BENCHMARK(BM_PccDecayStorm)->Arg(128)->Arg(1024);
