#include "pcc/pcc.hpp"

#include <algorithm>
#include <bit>

#include "util/log.hpp"

namespace pccsim::pcc {

PromotionCandidateCache::PromotionCandidateCache(PccConfig config)
    : config_(config), counter_max_(config.counterMax()),
      lru_(config.replacement == Replacement::PureLru)
{
    PCCSIM_ASSERT(config_.entries > 0 && config_.entries <= kMaxEntries,
                  "PCC entry count out of range");
    PCCSIM_ASSERT(config_.counter_bits >= 1 &&
                      config_.counter_bits <= kMaxCounterBits,
                  "PCC counter width out of range");
    // Each non-empty bucket holds at least one entry.
    entries_.resize(config_.entries);
    buckets_.resize(config_.entries);
    if (lru_)
        recency_.resize(config_.entries);
    // Four times the next power of two: at most a quarter full, so a
    // lookup rarely probes past its home cell.
    const u32 bits = std::bit_width(config_.entries - 1) + 2;
    index_.resize(std::size_t{1} << bits);
    index_mask_ = static_cast<u32>(index_.size() - 1);
    index_shift_ = 64 - bits;
    clear();
}

[[gnu::always_inline]] inline u32
PromotionCandidateCache::home(Vpn region) const
{
    return static_cast<u32>((region * 0x9E3779B97F4A7C15ull) >>
                            index_shift_);
}

[[gnu::always_inline]] inline u32
PromotionCandidateCache::find(Vpn region) const
{
    for (u32 i = home(region);; i = (i + 1) & index_mask_) {
        const u32 slot = index_[i];
        if (slot == kNil || entries_[slot].region == region)
            return slot;
    }
}

void
PromotionCandidateCache::indexInsert(u32 slot)
{
    u32 i = home(entries_[slot].region);
    while (index_[i] != kNil)
        i = (i + 1) & index_mask_;
    index_[i] = slot;
}

void
PromotionCandidateCache::indexErase(u32 slot)
{
    u32 hole = home(entries_[slot].region);
    while (index_[hole] != slot)
        hole = (hole + 1) & index_mask_;
    // Backward shift: pull each later cell of the probe run into the
    // hole unless the hole lies before its home position.
    for (u32 i = (hole + 1) & index_mask_; index_[i] != kNil;
         i = (i + 1) & index_mask_) {
        const u32 want = home(entries_[index_[i]].region);
        if (((hole - want) & index_mask_) < ((i - want) & index_mask_)) {
            index_[hole] = index_[i];
            hole = i;
        }
    }
    index_[hole] = kNil;
}

void
PromotionCandidateCache::clear()
{
    for (u32 i = 0; i < config_.entries; ++i) {
        entries_[i].next = i + 1 < config_.entries ? i + 1 : kNil;
        buckets_[i].higher = i + 1 < config_.entries ? i + 1 : kNil;
    }
    std::fill(index_.begin(), index_.end(), kNil);
    free_entry_ = free_bucket_ = 0;
    lowest_ = highest_ = oldest_ = newest_ = kNil;
    size_ = 0;
}

// The hit path and its bucket-list links run on every touch: keep them
// inline.

[[gnu::always_inline]] inline void
PromotionCandidateCache::append(u32 bucket, u32 slot)
{
    Entry &e = entries_[slot];
    Bucket &b = buckets_[bucket];
    e.bucket = bucket;
    e.prev = b.tail;
    e.next = kNil;
    if (b.tail != kNil)
        entries_[b.tail].next = slot;
    else
        b.head = slot;
    b.tail = slot;
}

[[gnu::always_inline]] inline void
PromotionCandidateCache::detach(u32 slot)
{
    const Entry &e = entries_[slot];
    Bucket &b = buckets_[e.bucket];
    if (e.prev != kNil)
        entries_[e.prev].next = e.next;
    else
        b.head = e.next;
    if (e.next != kNil)
        entries_[e.next].prev = e.prev;
    else
        b.tail = e.prev;
    if (b.head == kNil)
        dropBucket(e.bucket);
}

[[gnu::always_inline]] inline u32
PromotionCandidateCache::newBucket(u32 lower, u32 frequency)
{
    const u32 id = free_bucket_;
    Bucket &b = buckets_[id];
    free_bucket_ = b.higher;
    b.frequency = frequency;
    b.head = b.tail = kNil;
    b.lower = lower;
    b.higher = lower != kNil ? buckets_[lower].higher : lowest_;
    if (b.lower != kNil)
        buckets_[b.lower].higher = id;
    else
        lowest_ = id;
    if (b.higher != kNil)
        buckets_[b.higher].lower = id;
    else
        highest_ = id;
    return id;
}

[[gnu::always_inline]] inline void
PromotionCandidateCache::dropBucket(u32 bucket)
{
    Bucket &b = buckets_[bucket];
    if (b.lower != kNil)
        buckets_[b.lower].higher = b.higher;
    else
        lowest_ = b.higher;
    if (b.higher != kNil)
        buckets_[b.higher].lower = b.lower;
    else
        highest_ = b.lower;
    b.higher = free_bucket_;
    free_bucket_ = bucket;
}

[[gnu::always_inline]] inline void
PromotionCandidateCache::hit(u32 slot)
{
    Entry &e = entries_[slot];
    e.stamp = ++clock_;
    ++hits_;
    const u32 from = e.bucket;
    const u32 frequency = buckets_[from].frequency + 1;
    const u32 up = buckets_[from].higher;
    if (up != kNil && buckets_[up].frequency == frequency) {
        detach(slot);
        append(up, slot);
    } else if (buckets_[from].head == buckets_[from].tail) {
        buckets_[from].frequency = frequency; // sole entry: relabel
    } else {
        const u32 to = newBucket(from, frequency);
        detach(slot);
        append(to, slot);
    }
    if (lru_ && newest_ != slot) {
        // Move to the young end of the recency list.
        Recency &r = recency_[slot];
        if (r.older != kNil)
            recency_[r.older].newer = r.newer;
        else
            oldest_ = r.newer;
        recency_[r.newer].older = r.older;
        r.older = newest_;
        r.newer = kNil;
        recency_[newest_].newer = slot;
        newest_ = slot;
    }
    if (frequency >= counter_max_)
        decay();
}

void
PromotionCandidateCache::touch(Vpn region)
{
    const u32 slot = find(region);
    if (slot != kNil) {
        hit(slot);
        return;
    }

    ++misses_;
    if (full()) {
        const u32 victim = lru_ ? oldest_ : buckets_[lowest_].head;
        const Vpn victim_region = entries_[victim].region;
        indexErase(victim);
        unlink(victim);
        insert(victim, region);
        ++evictions_;
        if (evicted_)
            evicted_(victim_region);
        return;
    }
    const u32 free = free_entry_;
    free_entry_ = entries_[free].next;
    insert(free, region);
}

void
PromotionCandidateCache::insert(u32 slot, Vpn region)
{
    Entry &e = entries_[slot];
    e.region = region;
    e.stamp = ++clock_;
    indexInsert(slot);
    const u32 zero = lowest_ != kNil && buckets_[lowest_].frequency == 0
                         ? lowest_
                         : newBucket(kNil, 0);
    append(zero, slot);
    if (lru_) {
        recency_[slot] = {newest_, kNil};
        if (newest_ != kNil)
            recency_[newest_].newer = slot;
        else
            oldest_ = slot;
        newest_ = slot;
    }
    ++size_;
}

void
PromotionCandidateCache::decay()
{
    // Halving maps counters 2k and 2k+1 to k, so a bucket either keeps
    // its place with a halved value or merges into the bucket below it,
    // which then holds the value k. Ascending order survives both.
    u32 kept = kNil;
    for (u32 b = lowest_; b != kNil;) {
        const u32 next = buckets_[b].higher;
        const u32 halved = buckets_[b].frequency >> 1;
        if (kept != kNil && buckets_[kept].frequency == halved) {
            mergeInto(kept, b);
        } else {
            buckets_[b].frequency = halved;
            kept = b;
        }
        b = next;
    }
    ++decays_;
}

void
PromotionCandidateCache::mergeInto(u32 dst, u32 src)
{
    // Both lists are oldest-first: one forward pass interleaves them by
    // stamp, as a sort by (frequency, stamp) would.
    u32 at = buckets_[dst].head;
    for (u32 s = buckets_[src].head; s != kNil;) {
        Entry &e = entries_[s];
        const u32 next = e.next;
        while (at != kNil && entries_[at].stamp < e.stamp)
            at = entries_[at].next;
        if (at == kNil) {
            append(dst, s);
        } else {
            e.bucket = dst;
            e.next = at;
            e.prev = entries_[at].prev;
            if (e.prev != kNil)
                entries_[e.prev].next = s;
            else
                buckets_[dst].head = s;
            entries_[at].prev = s;
        }
        s = next;
    }
    buckets_[src].head = kNil;
    dropBucket(src);
}

void
PromotionCandidateCache::unlink(u32 slot)
{
    detach(slot);
    if (lru_) {
        const Recency &r = recency_[slot];
        if (r.older != kNil)
            recency_[r.older].newer = r.newer;
        else
            oldest_ = r.newer;
        if (r.newer != kNil)
            recency_[r.newer].older = r.older;
        else
            newest_ = r.older;
    }
    --size_;
}

bool
PromotionCandidateCache::invalidate(Vpn region)
{
    const u32 slot = find(region);
    if (slot == kNil)
        return false;
    indexErase(slot);
    unlink(slot);
    entries_[slot].next = free_entry_;
    free_entry_ = slot;
    ++invalidations_;
    return true;
}

std::optional<u64>
PromotionCandidateCache::frequencyOf(Vpn region) const
{
    const u32 slot = find(region);
    if (slot == kNil)
        return std::nullopt;
    return buckets_[entries_[slot].bucket].frequency;
}

std::vector<Candidate>
PromotionCandidateCache::snapshot() const
{
    std::vector<Candidate> out;
    out.reserve(size_);
    for (u32 b = highest_; b != kNil; b = buckets_[b].lower) {
        const u64 frequency = buckets_[b].frequency;
        for (u32 e = buckets_[b].tail; e != kNil; e = entries_[e].prev)
            out.push_back({entries_[e].region, frequency});
    }
    return out;
}

std::optional<Candidate>
PromotionCandidateCache::top() const
{
    if (highest_ == kNil)
        return std::nullopt;
    const Bucket &b = buckets_[highest_];
    return Candidate{entries_[b.tail].region, b.frequency};
}

void
PromotionCandidateCache::resetStats()
{
    hits_ = misses_ = evictions_ = decays_ = invalidations_ = 0;
}

} // namespace pccsim::pcc
