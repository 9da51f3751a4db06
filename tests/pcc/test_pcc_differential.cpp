/**
 * @file
 * Randomized differential test: pcc::PromotionCandidateCache (frequency
 * buckets, O(1) per operation) against RefPcc (flat array, linear
 * victim scan, sorted snapshot). Both are driven through the same
 * random touch / invalidate / clear sequence, with keys skewed so that
 * hits, evictions and decays all occur, and every observable is
 * compared after every operation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "pcc/pcc.hpp"
#include "ref_pcc.hpp"
#include "util/rng.hpp"

using namespace pccsim;
using namespace pccsim::pcc;

namespace {

struct Counts
{
    u64 hits = 0;
    u64 evictions = 0;
    u64 decays = 0;
    u64 invalidations = 0;
    u64 clears = 0;
};

std::string
describe(const std::optional<Candidate> &c)
{
    if (!c)
        return "none";
    return std::to_string(c->region) + "@" + std::to_string(c->frequency);
}

/**
 * Run `ops` random operations against both models and return a
 * description of the first observable difference ("" when none). The
 * comparator is generic so a deliberately broken reference can be fed
 * through it to prove that it fires.
 */
template <typename Subject, typename Reference>
std::string
firstDifference(Subject &subject, Reference &reference, u64 seed, u32 ops,
                Counts *counts = nullptr)
{
    std::vector<Vpn> subject_victims, reference_victims;
    subject.setEvictionHook(
        [&](Vpn v) { subject_victims.push_back(v); });
    reference.setEvictionHook(
        [&](Vpn v) { reference_victims.push_back(v); });

    const u64 n = subject.capacity();
    Rng rng(seed);
    // Shootdowns skip the tiny hot set, or its counters never saturate.
    const auto key = [&](u64 lo) -> Vpn {
        const u64 r = rng.range(lo, 99);
        if (r < 25)
            return rng.below(2); // a tiny hot set: saturates, decays
        if (r < 70)
            return 2 + rng.below(rng.below(n) + 1); // skewed warm set
        return n + 3 + rng.below(4 * n + 8); // cold: misses, evictions
    };

    for (u32 op = 0; op < ops; ++op) {
        std::ostringstream where;
        where << "op " << op << " (seed " << seed << "): ";
        // One clear halfway, so both halves fill and evict from empty.
        const bool clear = op == ops / 2;
        const u64 r = rng.below(100);
        Vpn region = 0;
        if (clear) {
            subject.clear();
            reference.clear();
            where << "clear";
        } else if (r < 6) {
            region = key(25);
            const bool a = subject.invalidate(region);
            const bool b = reference.invalidate(region);
            where << "invalidate(" << region << ")";
            if (a != b)
                return where.str() + ": returned " + std::to_string(a) +
                       " vs " + std::to_string(b);
        } else {
            region = key(0);
            subject.touch(region);
            reference.touch(region);
            where << "touch(" << region << ")";
        }

        if (subject.size() != reference.size()) {
            return where.str() + ": size " +
                   std::to_string(subject.size()) + " vs " +
                   std::to_string(reference.size());
        }
        const auto fa = subject.frequencyOf(region);
        const auto fb = reference.frequencyOf(region);
        if (fa != fb) {
            return where.str() + ": frequencyOf " +
                   (fa ? std::to_string(*fa) : "none") + " vs " +
                   (fb ? std::to_string(*fb) : "none");
        }
        const auto ta = subject.top();
        const auto tb = reference.top();
        if (describe(ta) != describe(tb))
            return where.str() + ": top " + describe(ta) + " vs " +
                   describe(tb);
        const auto sa = subject.snapshot();
        const auto sb = reference.snapshot();
        for (size_t i = 0; i < sa.size(); ++i) {
            if (sa[i].region != sb[i].region ||
                sa[i].frequency != sb[i].frequency) {
                return where.str() + ": snapshot[" + std::to_string(i) +
                       "] " + describe(sa[i]) + " vs " + describe(sb[i]);
            }
        }
        // Victim logs are compared every step, so the prefixes already
        // match and only the newest victim can differ.
        if (subject_victims.size() != reference_victims.size() ||
            (!subject_victims.empty() &&
             subject_victims.back() != reference_victims.back())) {
            return where.str() + ": eviction victim " +
                   (subject_victims.empty()
                        ? std::string("none")
                        : std::to_string(subject_victims.back())) +
                   " vs " +
                   (reference_victims.empty()
                        ? std::string("none")
                        : std::to_string(reference_victims.back()));
        }
        const u64 stats_a[] = {subject.hits(), subject.misses(),
                               subject.evictions(), subject.decays(),
                               subject.invalidations()};
        const u64 stats_b[] = {reference.hits(), reference.misses(),
                               reference.evictions(), reference.decays(),
                               reference.invalidations()};
        const char *names[] = {"hits", "misses", "evictions", "decays",
                               "invalidations"};
        for (int i = 0; i < 5; ++i) {
            if (stats_a[i] != stats_b[i]) {
                return where.str() + ": " + names[i] + " " +
                       std::to_string(stats_a[i]) + " vs " +
                       std::to_string(stats_b[i]);
            }
        }
        if (counts && clear)
            ++counts->clears;
    }
    if (counts) {
        counts->hits = reference.hits();
        counts->evictions = reference.evictions();
        counts->decays = reference.decays();
        counts->invalidations = reference.invalidations();
    }
    return "";
}

using Case = std::tuple<u32, u32, Replacement>;

PccConfig
configOf(const Case &c)
{
    return {std::get<0>(c), std::get<1>(c), std::get<2>(c)};
}

/** Long enough for 8-bit counters to saturate and to fill 1024 entries. */
u32
opsFor(const PccConfig &cfg)
{
    return std::max<u32>(6000, 8 * cfg.entries);
}

class PccDifferential : public ::testing::TestWithParam<Case>
{
};

} // namespace

TEST_P(PccDifferential, MatchesReferenceAfterEveryOperation)
{
    const PccConfig cfg = configOf(GetParam());
    for (u64 seed : {1u, 2u}) {
        PromotionCandidateCache subject(cfg);
        RefPcc reference(cfg);
        Counts counts;
        EXPECT_EQ(firstDifference(subject, reference, seed, opsFor(cfg),
                                  &counts),
                  "");
        // The sequence must reach every path it is meant to pin.
        EXPECT_GT(counts.hits, 0u);
        EXPECT_GT(counts.evictions, 0u);
        EXPECT_GT(counts.invalidations, 0u);
        EXPECT_GT(counts.clears, 0u);
        // A 7-entry pure-LRU table evicts the hot set too often for
        // 8-bit counters to saturate.
        const bool saturates =
            cfg.counter_bits <= 8 && cfg.entries >= 7 &&
            (cfg.counter_bits <= 4 || cfg.entries >= 128 ||
             cfg.replacement == Replacement::LfuLruTie);
        if (saturates) {
            EXPECT_GT(counts.decays, 0u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PccDifferential,
    ::testing::Combine(::testing::Values(1u, 2u, 7u, 128u, 1024u),
                       ::testing::Values(1u, 2u, 4u, 8u, 32u),
                       ::testing::Values(Replacement::LfuLruTie,
                                         Replacement::PureLru)),
    [](const ::testing::TestParamInfo<Case> &info) {
        return std::to_string(std::get<0>(info.param)) + "x" +
               std::to_string(std::get<1>(info.param)) + "b" +
               (std::get<2>(info.param) == Replacement::PureLru ? "Lru"
                                                                : "Lfu");
    });

// Planted bug: a reference whose decay concatenates the buckets of
// counters 2k and 2k+1 instead of merging them by stamp must be caught
// by the same comparator, in both replacement modes.
TEST(PccDifferentialSelfTest, CatchesDecayThatConcatenatesBuckets)
{
    for (const Case &c : {Case{128u, 4u, Replacement::LfuLruTie},
                          Case{7u, 2u, Replacement::LfuLruTie},
                          Case{128u, 4u, Replacement::PureLru}}) {
        const PccConfig cfg = configOf(c);
        PromotionCandidateCache subject(cfg);
        RefPcc broken(cfg, RefBug::ConcatDecay);
        const std::string diff =
            firstDifference(subject, broken, 1, opsFor(cfg));
        EXPECT_NE(diff, "") << cfg.entries << " entries, "
                            << cfg.counter_bits << " bits";
    }
}
