/**
 * @file
 * The set-associative tag array behind every cache level, TLB and
 * page-walk cache of the model, with true-LRU replacement.
 *
 * A cache level keys it by line address (addr >> line shift), a TLB or
 * PWC by virtual page number; the array itself only answers hit/miss
 * and keeps replacement state. Timing belongs to the owners.
 *
 * Storage is structure-of-arrays: the tags of a set sit in one
 * contiguous array and the LRU stamps in another, so the dominant cost
 * — the per-set tag scan — touches only tag lines (one 64B line covers
 * an 8-way set) until a decision needs a stamp.
 *
 * The scans are deliberately *branch-free across the ways*: an
 * early-exit compare loop looks cheaper, but its exit way is data-
 * dependent on every probe of a random-access stream, so it pays a
 * branch mispredict per scan. Accumulating a match mask and taking one
 * well-predicted hit/miss branch at the end is faster on every
 * geometry used here (2-16 ways). The mask is a u32, so an array holds
 * at most kMaxWays ways; SystemConfig::validate() rejects wider
 * geometries.
 *
 * Tags within one set are unique: the only way to fill is access(),
 * which fills only after its scan of *every* way missed.
 */

#pragma once

#include <optional>
#include <vector>

#include "util/log.hpp"
#include "util/types.hpp"

namespace pccsim::util {

class SetAssoc
{
  public:
    /** Widest set the u32 way masks of the scans can describe. */
    static constexpr u32 kMaxWays = 32;

    /** Outcome of the fused probe-or-fill access(). */
    struct AccessResult
    {
        bool hit = false;
        /** Tag evicted when the miss-path fill had to evict. */
        std::optional<u64> displaced{};
    };

    /**
     * @param sets Number of sets (0 is treated as 1). Power-of-two
     *        counts index with a mask; others fall back to modulo.
     * @param ways Associativity (0 is treated as 1), at most kMaxWays.
     * @param mru_hint Probe the per-set MRU way before the full scan.
     *        Pays off where consecutive probes re-touch one way (an L1
     *        sees every access, so streaming code hits its hint
     *        constantly); inner cache levels only see L1 *misses*,
     *        where the hint rarely matches and its data-dependent
     *        branch costs a mispredict per probe. Results are
     *        identical either way — the hint path performs the same
     *        stamp update the scan would.
     */
    SetAssoc(u64 sets, u32 ways, bool mru_hint = true)
        : sets_(sets == 0 ? 1 : sets), ways_(ways == 0 ? 1 : ways),
          mru_hint_(mru_hint),
          tags_(sets_ * ways_, kInvalidTag),
          stamps_(sets_ * ways_, 0),
          mru_(sets_, 0)
    {
        PCCSIM_ASSERT(ways_ <= kMaxWays, "set-associative array with ",
                      ways_, " ways (max ", kMaxWays, ")");
        set_mask_ = (sets_ & (sets_ - 1)) == 0 ? sets_ - 1 : 0;
    }

    /** Probe for tag; refreshes LRU state on hit. */
    bool
    lookup(u64 tag)
    {
        const u64 set = setIndexOf(tag);
        const u64 *tags = &tags_[set * ways_];
        u32 &mru = mru_[set];
        if (mru_hint_ && tags[mru] == tag) {
            stamps_[set * ways_ + mru] = ++clock_;
            return true;
        }
        const int w = findTag(tags, tag);
        if (w < 0)
            return false;
        stamps_[set * ways_ + w] = ++clock_;
        mru = static_cast<u32>(w);
        return true;
    }

    /**
     * Fused probe-or-fill in one set scan: a hit refreshes the way's
     * stamp; a miss fills the earliest empty way, else evicts the true
     * LRU way. Both are the earliest-minimum stamp — holes carry stamp
     * 0 (every drop zeroes it with the tag) while every valid way has a
     * unique stamp >= 1 — so one branch-free scan covers them.
     */
    AccessResult
    access(u64 tag)
    {
        PCCSIM_DCHECK(tag != kInvalidTag);
        const u64 set = setIndexOf(tag);
        u64 *tags = &tags_[set * ways_];
        u64 *stamps = &stamps_[set * ways_];
        u32 &mru = mru_[set];
        if (mru_hint_ && tags[mru] == tag) {
            stamps[mru] = ++clock_;
            return {true, std::nullopt};
        }
        const ScanResult scan = scanSet(tags, stamps, tag);
        if (scan.hit_way >= 0) {
            stamps[scan.hit_way] = ++clock_;
            mru = static_cast<u32>(scan.hit_way);
            return {true, std::nullopt};
        }
        const std::optional<u64> displaced =
            tags[scan.victim] == kInvalidTag
                ? std::nullopt
                : std::optional<u64>(tags[scan.victim]);
        tags[scan.victim] = tag;
        stamps[scan.victim] = ++clock_;
        mru = scan.victim;
        return {false, displaced};
    }

    /** Probe without touching replacement state. */
    bool
    contains(u64 tag) const
    {
        return findTag(&tags_[setIndexOf(tag) * ways_], tag) >= 0;
    }

    /** Drop every entry whose tag lies in [lo, hi). Returns count. */
    u64
    invalidateRange(u64 lo, u64 hi)
    {
        return dropIf([lo, hi](u64 t) { return t >= lo && t < hi; });
    }

    /**
     * Drop every entry whose tag matches `tag` under `mask` — the
     * targeted flush behind TlbHierarchy::flushAsid() (x86 INVPCID
     * type 1: invalidate one PCID's entries, keep the rest). Returns
     * the number of entries dropped.
     */
    u64
    flushMatching(u64 tag, u64 mask)
    {
        return dropIf([tag, mask](u64 t) { return (t & mask) == tag; });
    }

    /**
     * Invalidate everything. Stamps are zeroed with the tags (the
     * victim scan ranks holes by their zero stamp) and the MRU hints
     * reset, so post-flush behaviour is independent of history.
     */
    void
    flushAll()
    {
        tags_.assign(tags_.size(), kInvalidTag);
        stamps_.assign(stamps_.size(), 0);
        mru_.assign(mru_.size(), 0);
    }

    /** Currently valid entries (tests and introspection). */
    u64
    validCount() const
    {
        u64 n = 0;
        for (const u64 t : tags_)
            n += t != kInvalidTag ? 1 : 0;
        return n;
    }

    /** Visit the tag of every valid entry (invariant checking). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (const u64 t : tags_)
            if (t != kInvalidTag)
                fn(t);
    }

  private:
    /**
     * An empty way holds the sentinel tag instead of a separate valid
     * flag, so the hot-path scans are pure tag compares. The sentinel
     * is unreachable: tags are an address shifted right by at least 6
     * bits (a cache line) or 12 (a page), so ~0 is never a real key.
     */
    static constexpr u64 kInvalidTag = ~0ull;

    /** Outcome of one fused probe-or-victim set scan. */
    struct ScanResult
    {
        int hit_way; //!< way holding the tag, or negative
        u32 victim;  //!< earliest-minimum-stamp way
    };

    u64
    setIndexOf(u64 tag) const
    {
        return set_mask_ ? (tag & set_mask_) : (tag % sets_);
    }

    /** Way of `tag` within one set, or a negative value when absent. */
    int
    findTag(const u64 *tags, u64 tag) const
    {
        u32 mask = 0;
        for (u32 w = 0; w < ways_; ++w)
            mask |= static_cast<u32>(tags[w] == tag) << w;
        return mask ? __builtin_ctz(mask) : -1;
    }

    /**
     * The tag match and the earliest-minimum-stamp victim in a single
     * pass: the structures here are miss-dominated (a miss needs both
     * answers), so one fused iteration beats two back-to-back loops.
     * Victim selection uses conditional moves, because the victim way
     * of a miss stream is as unpredictable as the hit way.
     */
    template <u32 Ways> // 0: the runtime ways_
    ScanResult
    scanFixed(const u64 *tags, const u64 *stamps, u64 tag) const
    {
        const u32 n = Ways ? Ways : ways_;
        u32 mask = static_cast<u32>(tags[0] == tag);
        u32 victim = 0;
        u64 oldest = stamps[0];
#if defined(__GNUC__)
#pragma GCC unroll 16
#endif
        for (u32 w = 1; w < n; ++w) {
            mask |= static_cast<u32>(tags[w] == tag) << w;
            const bool older = stamps[w] < oldest;
            victim = older ? w : victim;
            oldest = older ? stamps[w] : oldest;
        }
        return {mask ? __builtin_ctz(mask) : -1, victim};
    }

    ScanResult
    scanSet(const u64 *tags, const u64 *stamps, u64 tag) const
    {
        // The common geometries get fully-unrolled straight-line
        // kernels; the switch is on a per-array constant, so it
        // predicts perfectly, unlike a runtime-bound loop whose
        // trip-count bookkeeping rides every probe.
        switch (ways_) {
          case 4: return scanFixed<4>(tags, stamps, tag);
          case 8: return scanFixed<8>(tags, stamps, tag);
          case 16: return scanFixed<16>(tags, stamps, tag);
          default: return scanFixed<0>(tags, stamps, tag);
        }
    }

    template <typename Pred>
    u64
    dropIf(Pred &&pred)
    {
        u64 dropped = 0;
        for (size_t i = 0; i < tags_.size(); ++i) {
            if (tags_[i] != kInvalidTag && pred(tags_[i])) {
                tags_[i] = kInvalidTag;
                stamps_[i] = 0;
                ++dropped;
            }
        }
        return dropped;
    }

    u64 sets_;
    u32 ways_;
    bool mru_hint_;
    std::vector<u64> tags_;   //!< SoA: tag per way, sentinel = empty
    std::vector<u64> stamps_; //!< SoA: LRU stamp per way, 0 = empty
    std::vector<u32> mru_;    //!< per-set hint; advisory, may be stale
    u64 set_mask_ = 0;
    u64 clock_ = 0;
};

} // namespace pccsim::util
