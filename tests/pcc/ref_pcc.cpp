#include "ref_pcc.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace pccsim::pcc {

RefPcc::RefPcc(PccConfig config, RefBug bug) : config_(config), bug_(bug)
{
    PCCSIM_ASSERT(config_.entries > 0, "PCC must have at least one entry");
    PCCSIM_ASSERT(config_.counter_bits >= 1 &&
                      config_.counter_bits <= kMaxCounterBits,
                  "PCC counter width out of range");
    entries_.reserve(config_.entries);
    index_.reserve(config_.entries * 2);
}

void
RefPcc::touch(Vpn region)
{
    auto it = index_.find(region);
    if (it != index_.end()) {
        Entry &entry = entries_[it->second];
        entry.stamp = ++clock_;
        ++entry.frequency;
        ++hits_;
        if (entry.frequency >= config_.counterMax())
            decay();
        return;
    }

    ++misses_;
    if (full()) {
        const u32 victim = victimIndex();
        const Vpn victim_region = entries_[victim].region;
        index_.erase(victim_region);
        entries_[victim] = {region, 0, ++clock_};
        index_[region] = victim;
        ++evictions_;
        if (evicted_)
            evicted_(victim_region);
        return;
    }
    entries_.push_back({region, 0, ++clock_});
    index_[region] = static_cast<u32>(entries_.size() - 1);
}

void
RefPcc::decay()
{
    if (bug_ == RefBug::ConcatDecay) {
        // Re-stamp the odd counters, oldest first, after every existing
        // stamp: within each halved value they now all rank as more
        // recent than the even ones, as a concatenated bucket would.
        std::vector<Entry *> odd;
        for (auto &e : entries_) {
            if (e.frequency & 1)
                odd.push_back(&e);
        }
        std::sort(odd.begin(), odd.end(),
                  [](const Entry *a, const Entry *b) {
                      return a->stamp < b->stamp;
                  });
        for (Entry *e : odd)
            e->stamp = ++clock_;
    }
    // Halve every counter to preserve relative order while making room
    // for future increments (Sec. 3.2.1).
    for (auto &e : entries_)
        e.frequency >>= 1;
    ++decays_;
}

u32
RefPcc::victimIndex() const
{
    PCCSIM_ASSERT(!entries_.empty());
    u32 victim = 0;
    for (u32 i = 1; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        const Entry &v = entries_[victim];
        if (config_.replacement == Replacement::PureLru) {
            if (e.stamp < v.stamp)
                victim = i;
        } else {
            if (e.frequency < v.frequency ||
                (e.frequency == v.frequency && e.stamp < v.stamp)) {
                victim = i;
            }
        }
    }
    return victim;
}

bool
RefPcc::invalidate(Vpn region)
{
    auto it = index_.find(region);
    if (it == index_.end())
        return false;
    const u32 slot = it->second;
    const u32 last = static_cast<u32>(entries_.size() - 1);
    if (slot != last) {
        entries_[slot] = entries_[last];
        index_[entries_[slot].region] = slot;
    }
    entries_.pop_back();
    index_.erase(it);
    ++invalidations_;
    return true;
}

std::optional<u64>
RefPcc::frequencyOf(Vpn region) const
{
    auto it = index_.find(region);
    if (it == index_.end())
        return std::nullopt;
    return entries_[it->second].frequency;
}

std::vector<Candidate>
RefPcc::snapshot() const
{
    std::vector<Entry> sorted = entries_;
    std::sort(sorted.begin(), sorted.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.frequency != b.frequency)
                      return a.frequency > b.frequency;
                  return a.stamp > b.stamp;
              });
    std::vector<Candidate> out;
    out.reserve(sorted.size());
    for (const auto &e : sorted)
        out.push_back({e.region, e.frequency});
    return out;
}

std::optional<Candidate>
RefPcc::top() const
{
    if (entries_.empty())
        return std::nullopt;
    const Entry *best = &entries_[0];
    for (const auto &e : entries_) {
        if (e.frequency > best->frequency ||
            (e.frequency == best->frequency && e.stamp > best->stamp)) {
            best = &e;
        }
    }
    return Candidate{best->region, best->frequency};
}

void
RefPcc::clear()
{
    entries_.clear();
    index_.clear();
}

} // namespace pccsim::pcc
