#include "mem/phys_mem.hpp"

#include <algorithm>
#include <utility>

#include "util/log.hpp"

namespace pccsim::mem {

PhysicalMemory::PhysicalMemory(u64 bytes)
    : buddy_(bytes / kBytes4K, kOrder1G),
      use_(bytes / kBytes4K, FrameUse::Free),
      owner_(bytes / kBytes4K),
      blocks_((bytes / kBytes4K) >> kOrder2M),
      num_blocks_((bytes / kBytes4K) >> kOrder2M)
{
    PCCSIM_ASSERT(num_blocks_ > 0, "physical memory smaller than 2MB");
}

bool
PhysicalMemory::gateDenies(unsigned order) const
{
    return alloc_gate_ && !alloc_gate_(order);
}

std::optional<Pfn>
PhysicalMemory::allocBase(Pid pid, Vpn vpn4k, bool bypass_gate)
{
    if (!bypass_gate && gateDenies(0))
        return std::nullopt;
    auto pfn = buddy_.allocate(0);
    if (!pfn)
        return std::nullopt;
    use_[*pfn] = FrameUse::AppBase;
    owner_[*pfn] = {pid, vpn4k};
    ++blocks_[blockOf(*pfn)].resident;
    ++stats_.alloc_base;
    return pfn;
}

std::optional<Pfn>
PhysicalMemory::allocHuge(Pid pid, Vpn first_vpn4k)
{
    if (gateDenies(kOrder2M)) {
        ++stats_.alloc_huge_fail;
        return std::nullopt;
    }
    auto pfn = buddy_.allocate(kOrder2M);
    if (!pfn) {
        ++stats_.alloc_huge_fail;
        return std::nullopt;
    }
    for (u64 i = 0; i < kPagesPer2M; ++i)
        use_[*pfn + i] = FrameUse::AppHuge;
    owner_[*pfn] = {pid, first_vpn4k};
    blocks_[blockOf(*pfn)].huge = true;
    ++stats_.alloc_huge;
    return pfn;
}

std::optional<Pfn>
PhysicalMemory::allocHuge1G(Pid pid, Vpn first_vpn4k)
{
    if (gateDenies(kOrder1G))
        return std::nullopt;
    auto pfn = buddy_.allocate(kOrder1G);
    if (!pfn)
        return std::nullopt;
    const u64 frames = 1ull << kOrder1G;
    for (u64 i = 0; i < frames; ++i)
        use_[*pfn + i] = FrameUse::AppHuge;
    owner_[*pfn] = {pid, first_vpn4k};
    for (u64 b = 0; b < k2MPer1G; ++b)
        blocks_[blockOf(*pfn) + b].huge = true;
    return pfn;
}

void
PhysicalMemory::freeHuge1G(Pfn pfn)
{
    PCCSIM_ASSERT(use_[pfn] == FrameUse::AppHuge);
    PCCSIM_ASSERT((pfn & ((1ull << kOrder1G) - 1)) == 0,
                  "freeHuge1G on unaligned pfn");
    const u64 frames = 1ull << kOrder1G;
    for (u64 i = 0; i < frames; ++i)
        use_[pfn + i] = FrameUse::Free;
    owner_[pfn] = {};
    for (u64 b = 0; b < k2MPer1G; ++b)
        blocks_[blockOf(pfn) + b].huge = false;
    buddy_.free(pfn, kOrder1G);
}

void
PhysicalMemory::freeBase(Pfn pfn)
{
    PCCSIM_ASSERT(use_[pfn] == FrameUse::AppBase);
    use_[pfn] = FrameUse::Free;
    owner_[pfn] = {};
    --blocks_[blockOf(pfn)].resident;
    buddy_.free(pfn, 0);
}

void
PhysicalMemory::freeHuge(Pfn pfn)
{
    PCCSIM_ASSERT(use_[pfn] == FrameUse::AppHuge);
    PCCSIM_ASSERT((pfn & (kPagesPer2M - 1)) == 0,
                  "freeHuge on unaligned pfn");
    for (u64 i = 0; i < kPagesPer2M; ++i)
        use_[pfn + i] = FrameUse::Free;
    owner_[pfn] = {};
    blocks_[blockOf(pfn)].huge = false;
    buddy_.free(pfn, kOrder2M);
}

void
PhysicalMemory::splitHuge(Pfn pfn, Pid pid, Vpn first_vpn4k)
{
    PCCSIM_ASSERT(use_[pfn] == FrameUse::AppHuge);
    PCCSIM_ASSERT((pfn & (kPagesPer2M - 1)) == 0,
                  "splitHuge on unaligned pfn");
    for (u64 i = 0; i < kPagesPer2M; ++i) {
        use_[pfn + i] = FrameUse::AppBase;
        owner_[pfn + i] = {pid, first_vpn4k + i};
    }
    auto &block = blocks_[blockOf(pfn)];
    block.huge = false;
    block.resident += static_cast<u32>(kPagesPer2M);
}

void
PhysicalMemory::split1GTo2M(Pfn pfn, Pid pid, Vpn first_vpn4k)
{
    PCCSIM_ASSERT(use_[pfn] == FrameUse::AppHuge);
    PCCSIM_ASSERT((pfn & ((1ull << kOrder1G) - 1)) == 0,
                  "split1GTo2M on unaligned pfn");
    for (u64 r = 0; r < k2MPer1G; ++r) {
        const Pfn head = pfn + r * kPagesPer2M;
        owner_[head] = {pid, first_vpn4k + r * kPagesPer2M};
        blocks_[blockOf(head)].huge = true; // stays huge, 2MB-grained
    }
}

u64
PhysicalMemory::fragment(double fraction, Rng &rng)
{
    const u64 target = static_cast<u64>(fraction *
                                        static_cast<double>(num_blocks_));
    // Choose `target` distinct blocks via a partial Fisher-Yates shuffle.
    std::vector<u64> ids(num_blocks_);
    for (u64 i = 0; i < num_blocks_; ++i)
        ids[i] = i;
    u64 pinned = 0;
    for (u64 i = 0; i < target && i < num_blocks_; ++i) {
        const u64 j = i + rng.below(num_blocks_ - i);
        std::swap(ids[i], ids[j]);
        const u64 block = ids[i];
        const Pfn pfn = (block << kOrder2M) + rng.below(kPagesPer2M);
        if (!buddy_.allocateSpecific(pfn))
            continue; // already occupied; block is busy anyway
        use_[pfn] = FrameUse::Unmovable;
        ++blocks_[block].unmovable;
        ++pinned_blocks_;
        ++pinned;
    }
    return pinned;
}

u64
PhysicalMemory::scramble(Rng &rng)
{
    u64 placed = 0;
    for (u64 block = 0; block < num_blocks_; ++block) {
        const auto &info = blocks_[block];
        if (info.unmovable != 0 || info.huge || info.resident != 0)
            continue;
        const Pfn pfn = (block << kOrder2M) + rng.below(kPagesPer2M);
        if (!buddy_.allocateSpecific(pfn))
            continue;
        use_[pfn] = FrameUse::Filler;
        owner_[pfn] = {kFillerPid, 0};
        ++blocks_[block].resident;
        ++placed;
    }
    return placed;
}

u64
PhysicalMemory::hugeFramesAvailable() const
{
    return buddy_.allocatableChunks(kOrder2M);
}

u64
PhysicalMemory::compactableBlocks() const
{
    u64 count = 0;
    for (u64 b = 0; b < num_blocks_; ++b) {
        const auto &info = blocks_[b];
        if (info.unmovable == 0 && !info.huge && info.resident > 0)
            ++count;
    }
    return count;
}

std::optional<PhysicalMemory::CompactionResult>
PhysicalMemory::compactOneBlock()
{
    u32 moves_allowed = kUnlimitedMoves;
    if (compaction_gate_) {
        moves_allowed = compaction_gate_();
        if (moves_allowed == 0) {
            // Injected hard failure: the attempt aborts before
            // touching anything (lock contention / isolation failure).
            ++stats_.injected_compaction_fail;
            return std::nullopt;
        }
    }

    // Round-robin scan from the cursor for a movable, occupied block.
    // Preferring low-resident blocks keeps each compaction cheap; a full
    // argmin scan would be O(blocks) per call anyway, so scan once and
    // keep the best of the first window.
    constexpr u64 kWindow = 64;
    u64 best = num_blocks_;
    u32 best_resident = ~0u;
    u64 examined = 0;
    for (u64 step = 0; step < num_blocks_ && examined < kWindow; ++step) {
        const u64 b = (compact_cursor_ + step) % num_blocks_;
        const auto &info = blocks_[b];
        if (info.unmovable != 0 || info.huge || info.resident == 0)
            continue;
        ++examined;
        if (info.resident < best_resident) {
            best = b;
            best_resident = info.resident;
        }
    }
    if (best == num_blocks_)
        return std::nullopt;
    compact_cursor_ = (best + 1) % num_blocks_;
    return compactBlock(best, kNoGig, moves_allowed);
}

std::optional<PhysicalMemory::CompactionResult>
PhysicalMemory::compactOneBlockIn(u64 gig)
{
    u32 moves_allowed = kUnlimitedMoves;
    if (compaction_gate_) {
        moves_allowed = compaction_gate_();
        if (moves_allowed == 0) {
            ++stats_.injected_compaction_fail;
            return std::nullopt;
        }
    }

    // Cheapest movable occupied block within the gigabyte group.
    const u64 first = gig * k2MPer1G;
    const u64 last = std::min(first + k2MPer1G, num_blocks_);
    u64 best = num_blocks_;
    u32 best_resident = ~0u;
    for (u64 b = first; b < last; ++b) {
        const auto &info = blocks_[b];
        if (info.unmovable != 0 || info.huge || info.resident == 0)
            continue;
        if (info.resident < best_resident) {
            best = b;
            best_resident = info.resident;
        }
    }
    if (best == num_blocks_)
        return std::nullopt;
    return compactBlock(best, gig, moves_allowed);
}

std::optional<u64>
PhysicalMemory::bestGigCandidate() const
{
    const u64 num_gigs = num_blocks_ / k2MPer1G;
    std::optional<u64> best;
    u64 best_resident = ~u64(0);
    for (u64 g = 0; g < num_gigs; ++g) {
        u64 resident = 0;
        bool blocked = false;
        for (u64 b = g * k2MPer1G; b < (g + 1) * k2MPer1G; ++b) {
            const auto &info = blocks_[b];
            if (info.unmovable != 0 || info.huge) {
                blocked = true;
                break;
            }
            resident += info.resident;
        }
        if (blocked || resident == 0)
            continue;
        if (resident < best_resident) {
            best = g;
            best_resident = resident;
        }
    }
    return best;
}

u64
PhysicalMemory::gigFramesAvailable() const
{
    return buddy_.allocatableChunks(kOrder1G);
}

std::optional<PhysicalMemory::CompactionResult>
PhysicalMemory::compactBlock(u64 block, u64 avoid_gig, u32 moves_allowed)
{
    // Collect the resident movable frames of the chosen block.
    const Pfn head = block << kOrder2M;
    std::vector<Pfn> residents;
    for (u64 i = 0; i < kPagesPer2M; ++i) {
        if (use_[head + i] == FrameUse::AppBase ||
            use_[head + i] == FrameUse::Filler) {
            residents.push_back(head + i);
        }
    }
    PCCSIM_ASSERT(residents.size() == blocks_[block].resident);

    if (buddy_.freeFrames() < residents.size() + kPagesPer2M)
        return std::nullopt; // not enough headroom elsewhere

    // Relocate each resident. Replacement frames that land inside the
    // block being compacted are parked and released afterwards.
    CompactionResult result;
    result.block_head = head;
    std::vector<Pfn> parked;

    // Roll back: undo the moves made so far. `from` frames are never
    // released until the attempt commits, so only the destination side
    // needs restoring.
    const auto rollback = [&] {
        for (const auto &m : result.moves) {
            use_[m.from] = use_[m.to];
            owner_[m.from] = m.owner;
            ++blocks_[blockOf(m.from)].resident;
            use_[m.to] = FrameUse::Free;
            owner_[m.to] = {};
            --blocks_[blockOf(m.to)].resident;
            buddy_.free(m.to, 0);
        }
        for (Pfn p : parked)
            buddy_.free(p, 0);
    };

    for (Pfn from : residents) {
        if (result.moves.size() >= moves_allowed) {
            // Injected partial failure: the attempt loses its isolation
            // mid-migration and must undo everything it moved.
            ++stats_.injected_compaction_abort;
            rollback();
            return std::nullopt;
        }
        std::optional<Pfn> to;
        while (true) {
            to = buddy_.allocate(0);
            if (!to) break;
            if (blockOf(*to) != block &&
                (avoid_gig == kNoGig || gigOf(*to) != avoid_gig)) {
                break;
            }
            parked.push_back(*to);
        }
        if (!to) {
            rollback();
            return std::nullopt;
        }
        const FrameOwner owner = owner_[from];
        use_[*to] = use_[from];
        owner_[*to] = owner;
        ++blocks_[blockOf(*to)].resident;
        use_[from] = FrameUse::Free;
        owner_[from] = {};
        --blocks_[blockOf(from)].resident;
        result.moves.push_back({from, *to, owner});
    }
    for (Pfn p : parked)
        buddy_.free(p, 0);
    // Release the source frames; they coalesce back toward order 9.
    for (const auto &m : result.moves)
        buddy_.free(m.from, 0);

    ++stats_.compactions;
    return result;
}

u64
PhysStats::get(std::string_view name) const
{
    using Field = std::pair<std::string_view, u64 PhysStats::*>;
    static constexpr Field kFields[] = {
        {"alloc_base", &PhysStats::alloc_base},
        {"alloc_huge", &PhysStats::alloc_huge},
        {"alloc_huge_fail", &PhysStats::alloc_huge_fail},
        {"injected_compaction_fail", &PhysStats::injected_compaction_fail},
        {"injected_compaction_abort", &PhysStats::injected_compaction_abort},
        {"compactions", &PhysStats::compactions},
    };
    for (const auto &[field, member] : kFields)
        if (field == name)
            return this->*member;
    panic("unknown PhysStats counter '", name, "'");
}

} // namespace pccsim::mem
