/**
 * @file
 * Test-only reference model of the Promotion Candidate Cache.
 *
 * The straightforward implementation of Sec. 3.2.1: a flat array of
 * (region, frequency, stamp) entries, a linear scan for the victim, a
 * halve-every-counter decay and a sort for the ranked snapshot. It is
 * the specification pcc::PromotionCandidateCache must match bit for bit
 * (tests/pcc/test_pcc_differential.cpp); being obviously correct
 * matters here, speed does not.
 */

#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "pcc/pcc.hpp"

namespace pccsim::pcc {

/** Deliberate defects, for proving the differential test fires. */
enum class RefBug : u8
{
    None = 0,
    /**
     * Decay joins counters 2k and 2k+1 the way a bucket structure that
     * concatenates the two buckets would: every entry of the odd bucket
     * ranks after every entry of the even one, whatever their stamps.
     */
    ConcatDecay = 1,
};

class RefPcc
{
  public:
    explicit RefPcc(PccConfig config = PccConfig{},
                    RefBug bug = RefBug::None);

    void touch(Vpn region);
    bool invalidate(Vpn region);
    std::optional<u64> frequencyOf(Vpn region) const;
    std::vector<Candidate> snapshot() const;
    std::optional<Candidate> top() const;
    void clear();

    u32 size() const { return static_cast<u32>(index_.size()); }
    u32 capacity() const { return config_.entries; }
    bool full() const { return size() == capacity(); }

    void
    setEvictionHook(std::function<void(Vpn)> hook)
    {
        evicted_ = std::move(hook);
    }

    u64 hits() const { return hits_; }
    u64 misses() const { return misses_; }
    u64 evictions() const { return evictions_; }
    u64 decays() const { return decays_; }
    u64 invalidations() const { return invalidations_; }

  private:
    struct Entry
    {
        Vpn region = 0;
        u64 frequency = 0;
        u64 stamp = 0; //!< recency clock for LRU / tiebreak
    };

    u32 victimIndex() const;
    void decay();

    PccConfig config_;
    RefBug bug_;
    std::vector<Entry> entries_;
    std::unordered_map<Vpn, u32> index_; //!< region -> entries_ slot
    std::function<void(Vpn)> evicted_;
    u64 clock_ = 0;

    u64 hits_ = 0;
    u64 misses_ = 0;
    u64 evictions_ = 0;
    u64 decays_ = 0;
    u64 invalidations_ = 0;
};

} // namespace pccsim::pcc
