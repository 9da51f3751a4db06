/**
 * @file
 * The Promotion Candidate Cache (PCC) — the paper's core contribution
 * (Sec. 3.2, Fig. 3 right).
 *
 * A small, fully-associative hardware structure placed after the
 * last-level TLB. Each entry pairs a huge-page-aligned virtual address
 * prefix (2MB or 1GB VPN tag) with an N-bit saturating page-table-walk
 * frequency counter. On a qualifying page-table walk (the region's
 * accessed bit was already set, filtering cold misses):
 *
 *   - hit:  the entry's frequency increments; when any counter
 *           saturates, ALL counters are halved (decay), preserving
 *           relative order;
 *   - miss: the LFU entry (LRU on ties) is evicted if the PCC is full
 *           and the new tag is inserted with frequency 0.
 *
 * The OS periodically reads a ranked snapshot (the paper's "dump to a
 *  designated memory region") and promotes the top candidates; TLB
 * shootdowns triggered by those promotions invalidate the corresponding
 * PCC entries, so no stale candidate survives (Sec. 3.3).
 */

#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "util/types.hpp"

namespace pccsim::pcc {

/**
 * Widest accepted frequency counter. A counter never holds more than
 * counterMax(), so every counter fits a u32; SystemConfig::validate()
 * and the constructor share this bound.
 */
inline constexpr u32 kMaxCounterBits = 32;

/**
 * Largest accepted PCC, far above any hardware size (the paper sweeps
 * up to 1024). Keeps the region index, four times the next power of two,
 * addressable by u32 and its memory bounded.
 */
inline constexpr u32 kMaxEntries = 1u << 20;

/** Replacement policies evaluated in Sec. 3.2.1. */
enum class Replacement : u8
{
    LfuLruTie = 0, //!< default: least-frequent, least-recent tiebreak
    PureLru = 1,   //!< ablation: simpler pure-LRU victim selection
};

/** Configuration of one PCC instance. */
struct PccConfig
{
    u32 entries = 128;      //!< Table 2 default: 128 entries per core
    u32 counter_bits = 8;   //!< 8-bit saturating frequency counters
    Replacement replacement = Replacement::LfuLruTie;

    /** Saturation value of the frequency counters. */
    u64 counterMax() const { return (1ull << counter_bits) - 1; }
};

/** One ranked candidate as exposed to the OS. */
struct Candidate
{
    Vpn region;    //!< huge-page-aligned VPN (2MB or 1GB granularity)
    u64 frequency; //!< saturating-counter value at snapshot time
};

/**
 * Every operation is O(1) or O(entries it returns); decay is
 * O(entries + distinct counter values). Entries live in a fixed pool
 * of `entries` slots, linked by u32 index. Each distinct counter value
 * present is one bucket on an ascending doubly-linked list, and a
 * bucket keeps its entries oldest-first. Stamps are unique and only
 * grow, so appending a touched entry at the tail of its new bucket keeps
 * that order. The LFU-LRU victim is therefore the head of the lowest
 * bucket, and the ranked snapshot is the buckets highest-first, each
 * read tail to head. Pure-LRU mode also threads every entry on one
 * recency list, whose head is its victim.
 */
class PromotionCandidateCache
{
  public:
    explicit PromotionCandidateCache(PccConfig config = PccConfig{});

    /**
     * Record one qualifying page-table walk to `region`.
     * The caller (the Core) has already applied the accessed-bit cold
     * filter; every call here is a bona-fide candidate observation.
     */
    void touch(Vpn region);

    /** Invalidate `region` (TLB shootdown side effect). */
    bool invalidate(Vpn region);

    /** Current frequency of a region, if tracked. */
    std::optional<u64> frequencyOf(Vpn region) const;

    /**
     * Ranked, non-destructive snapshot: highest frequency first, most
     * recently touched first among equals — the order the hardware
     * dumps to memory for the OS (Fig. 4).
     */
    std::vector<Candidate> snapshot() const;

    /** Peek the single best candidate without copying the whole list. */
    std::optional<Candidate> top() const;

    /** Drop all entries (process exit / explicit reset). */
    void clear();

    u32 size() const { return size_; }
    u32 capacity() const { return config_.entries; }
    bool full() const { return size() == capacity(); }
    const PccConfig &config() const { return config_; }

    /**
     * Storage cost in bytes for the given tag width, reproducing the
     * paper's overhead arithmetic (Sec. 3.2.1): tag bits + counter bits
     * per entry, rounded up to whole bytes per entry.
     */
    static u64
    storageBytes(u32 entries, u32 tag_bits, u32 counter_bits)
    {
        const u64 bits_per_entry = tag_bits + counter_bits;
        return entries * ((bits_per_entry + 7) / 8);
    }

    /**
     * Observer of capacity evictions (telemetry attribution): invoked
     * with the victim region whenever an insertion displaces an entry.
     * Unset (the default) costs one branch per eviction; invalidate()
     * is not an eviction and never fires it.
     */
    void
    setEvictionHook(std::function<void(Vpn)> hook)
    {
        evicted_ = std::move(hook);
    }

    // --- statistics ---
    u64 hits() const { return hits_; }
    u64 misses() const { return misses_; }
    u64 evictions() const { return evictions_; }
    u64 decays() const { return decays_; }
    u64 invalidations() const { return invalidations_; }
    void resetStats();

  private:
    static constexpr u32 kNil = ~0u;

    struct alignas(32) Entry // never straddles a cache line
    {
        Vpn region = 0;
        u64 stamp = 0;     //!< recency clock: unique, only grows
        u32 bucket = kNil; //!< owning bucket (its counter value)
        u32 prev = kNil;   //!< older neighbour in the bucket
        u32 next = kNil;   //!< newer neighbour; free-list link
    };

    struct Bucket
    {
        u32 frequency = 0;
        u32 head = kNil;   //!< oldest entry
        u32 tail = kNil;   //!< newest entry
        u32 lower = kNil;  //!< next lower non-empty bucket
        u32 higher = kNil; //!< next higher; free-list link
    };

    /** Pure-LRU recency list links, parallel to entries_. */
    struct Recency
    {
        u32 older = kNil;
        u32 newer = kNil;
    };

    /**
     * Index lookup: the slot holding `region`, or kNil. The index is an
     * open-addressed table of slots, at most a quarter full, with
     * Fibonacci hashing and linear probing; a cell matches when its
     * entry holds the region, so a hit reads the entry it is about to
     * update anyway.
     */
    u32 find(Vpn region) const;
    u32 home(Vpn region) const;
    void indexInsert(u32 slot);
    void indexErase(u32 slot);
    void hit(u32 slot);
    void insert(u32 slot, Vpn region);
    void decay();
    void unlink(u32 slot);
    void append(u32 bucket, u32 slot);
    void detach(u32 slot);
    void mergeInto(u32 dst, u32 src);
    u32 newBucket(u32 lower, u32 frequency);
    void dropBucket(u32 bucket);

    PccConfig config_;
    u64 counter_max_; //!< config_.counterMax(), read on every hit
    bool lru_;        //!< Replacement::PureLru
    std::vector<Entry> entries_;
    std::vector<Bucket> buckets_;
    std::vector<Recency> recency_; //!< empty unless PureLru
    std::vector<u32> index_;       //!< slot per cell, kNil = empty
    u32 index_mask_ = 0;
    u32 index_shift_ = 0;
    std::function<void(Vpn)> evicted_;
    u64 clock_ = 0;
    u32 size_ = 0;
    u32 free_entry_ = kNil;
    u32 free_bucket_ = kNil;
    u32 lowest_ = kNil;  //!< lowest non-empty bucket
    u32 highest_ = kNil; //!< highest non-empty bucket
    u32 oldest_ = kNil;  //!< recency list ends (PureLru only)
    u32 newest_ = kNil;

    u64 hits_ = 0;
    u64 misses_ = 0;
    u64 evictions_ = 0;
    u64 decays_ = 0;
    u64 invalidations_ = 0;
};

} // namespace pccsim::pcc
