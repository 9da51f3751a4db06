/**
 * @file
 * Simulated physical memory: frame ownership, fragmentation injection,
 * and memory compaction, layered over the buddy allocator.
 *
 * Fragmentation follows the paper's methodology (Sec. 5.1.1): one
 * non-movable base page is allocated in a chosen fraction of 2MB-aligned
 * blocks, which prevents those blocks from ever forming a huge frame.
 * Compaction relocates movable application base pages out of a block so
 * the block can coalesce back into an order-9 (2MB) chunk; the OS applies
 * the returned relocations to its page tables and charges the cost.
 */

#pragma once

#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "mem/buddy.hpp"
#include "mem/paging.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace pccsim::mem {

/** What a physical frame is currently used for. */
enum class FrameUse : u8
{
    Free = 0,
    AppBase,   //!< 4KB application page (movable)
    AppHuge,   //!< part of a 2MB application huge page (head holds owner)
    Unmovable, //!< fragmentation pin; can never move
    Filler,    //!< movable non-application page (fragmented free memory)
};

/** Owner pid marking a Filler frame (no page table to update). */
inline constexpr Pid kFillerPid = ~Pid(0);

/** Reverse-map entry: which virtual page a frame backs. */
struct FrameOwner
{
    Pid pid = 0;
    Vpn vpn4k = 0; //!< 4KB VPN for AppBase; 2MB-aligned first VPN for huge
};

/** Event counters of the physical memory, one field per event. */
struct PhysStats
{
    u64 alloc_base = 0;       //!< 4KB frames handed out
    u64 alloc_huge = 0;       //!< 2MB frames handed out
    u64 alloc_huge_fail = 0;  //!< 2MB requests denied (gate or no frame)
    u64 injected_compaction_fail = 0;  //!< attempts the gate failed
    u64 injected_compaction_abort = 0; //!< attempts rolled back mid-way
    u64 compactions = 0;      //!< 2MB blocks freed by compaction

    /** The counter whose field has this name; aborts on any other. */
    u64 get(std::string_view name) const;
};

class PhysicalMemory
{
  public:
    /** One relocation performed by compaction: old frame -> new frame. */
    struct Move
    {
        Pfn from;
        Pfn to;
        FrameOwner owner;
    };

    /** Outcome of a successful block compaction. */
    struct CompactionResult
    {
        Pfn block_head;          //!< first frame of the now-free 2MB block
        std::vector<Move> moves; //!< relocations the OS must apply
    };

    explicit PhysicalMemory(u64 bytes);

    // ---- fault-injection gates (sim/fault_injector) ----

    /**
     * Allocation gate: consulted before every ordinary allocation with
     * the requested buddy order; returning false makes the allocation
     * fail artificially (a deterministic injected fault). Targeted
     * allocations (fragmentation pins) are never gated.
     */
    using AllocGate = std::function<bool(unsigned order)>;

    /**
     * Compaction gate: consulted at the start of every compaction
     * attempt; returns the number of page moves the attempt may
     * perform. kUnlimitedMoves = no injection, 0 = the attempt fails
     * outright, a small k = the attempt aborts (and rolls back) after
     * k moves — the injected partial-compaction fault.
     */
    static constexpr u32 kUnlimitedMoves = ~0u;
    using CompactionGate = std::function<u32()>;

    void setAllocGate(AllocGate gate) { alloc_gate_ = std::move(gate); }
    void
    setCompactionGate(CompactionGate gate)
    {
        compaction_gate_ = std::move(gate);
    }

    /** True when a fault-injection gate is installed: allocation
     *  failures may be transient, so retrying can be worthwhile. */
    bool
    transientFailuresPossible() const
    {
        return static_cast<bool>(alloc_gate_) ||
               static_cast<bool>(compaction_gate_);
    }

    /**
     * Allocate one 4KB frame for (pid, vpn4k); nullopt when OOM.
     * @param bypass_gate Skip the injection gate — the OS's last-resort
     *        retry after reclaim, which must see real availability.
     */
    std::optional<Pfn> allocBase(Pid pid, Vpn vpn4k,
                                 bool bypass_gate = false);

    /** Allocate one 2MB-aligned huge frame; nullopt when unavailable. */
    std::optional<Pfn> allocHuge(Pid pid, Vpn first_vpn4k);

    /**
     * Allocate one 1GB-aligned frame (order 18). Requires a pristine
     * gigabyte of physical memory; callers that may compact first
     * (Trident-style promotion) use bestGigCandidate() plus
     * compactOneBlockIn() to vacate a gigabyte group, then retry.
     */
    std::optional<Pfn> allocHuge1G(Pid pid, Vpn first_vpn4k);

    void freeBase(Pfn pfn);
    void freeHuge(Pfn pfn);
    void freeHuge1G(Pfn pfn);

    /**
     * Split an application huge page in place (Linux-style demotion):
     * the 512 frames stay allocated but become individually-owned base
     * frames backing vpn first_vpn4k .. first_vpn4k+511.
     */
    void splitHuge(Pfn pfn, Pid pid, Vpn first_vpn4k);

    /**
     * Split an application 1GB page in place into 512 2MB huge-page
     * frames, reassigning per-2MB ownership.
     */
    void split1GTo2M(Pfn pfn, Pid pid, Vpn first_vpn4k);

    /**
     * Pin one unmovable base page in `fraction` of all 2MB blocks,
     * selected pseudo-randomly. Returns the number of blocks pinned.
     */
    u64 fragment(double fraction, Rng &rng);

    /**
     * Scatter one *movable* filler page into every remaining free 2MB
     * block. Combined with fragment(), this reproduces the paper's
     * fragmented-memory state: no order-9 block is readily free, so
     * every huge-frame allocation needs compaction first, and only
     * unpinned blocks can ever be compacted.
     */
    u64 scramble(Rng &rng);

    /**
     * Try to free up one 2MB block by relocating its movable pages.
     * Chooses the cheapest compactable block (fewest resident frames).
     * Returns nullopt when no block without pins/huge pages exists or
     * there is not enough free memory elsewhere to absorb the moves.
     */
    std::optional<CompactionResult> compactOneBlock();

    /**
     * Gigabyte-targeted compaction: free up one 2MB block *inside* the
     * given gigabyte group, relocating its movable pages to frames
     * outside that gigabyte (destinations landing anywhere in the
     * group are parked and released, so progress toward an order-18
     * chunk is monotonic). Returns nullopt when the group holds no
     * movable occupied block — either it is already vacant or the
     * remaining residents are pinned/huge.
     */
    std::optional<CompactionResult> compactOneBlockIn(u64 gig);

    /**
     * The gigabyte group cheapest to vacate: no pinned or huge frames
     * anywhere in its 512 blocks and the fewest movable residents.
     * Groups with zero residents are skipped (allocHuge1G already
     * succeeds there). nullopt when every group is disqualified.
     */
    std::optional<u64> bestGigCandidate() const;

    /** Order-18 chunks allocatable right now without compaction. */
    u64 gigFramesAvailable() const;

    /** Order-9 chunks allocatable right now without compaction. */
    u64 hugeFramesAvailable() const;

    /** Blocks that compactOneBlock() could currently liberate. */
    u64 compactableBlocks() const;

    u64 totalFrames() const { return buddy_.totalFrames(); }
    u64 freeFrames() const { return buddy_.freeFrames(); }
    u64 totalBlocks() const { return num_blocks_; }
    u64 pinnedBlocks() const { return pinned_blocks_; }

    FrameUse useOf(Pfn pfn) const { return use_[pfn]; }
    FrameOwner ownerOf(Pfn pfn) const { return owner_[pfn]; }

    const PhysStats &stats() const { return stats_; }

  private:
    struct BlockInfo
    {
        u32 unmovable = 0; //!< pinned frames in the block
        u32 resident = 0;  //!< movable allocated frames in the block
        bool huge = false; //!< block is an application huge page
    };

    u64 blockOf(Pfn pfn) const { return pfn >> kOrder2M; }
    u64 gigOf(Pfn pfn) const { return pfn >> kOrder1G; }

    /** Sentinel for compactBlock: no gigabyte group to avoid. */
    static constexpr u64 kNoGig = ~u64(0);

    /**
     * Shared compaction body: relocate every movable resident of
     * `block`. Destinations inside `block` are always parked; when
     * avoid_gig != kNoGig, destinations anywhere inside that gigabyte
     * group are parked too.
     */
    std::optional<CompactionResult> compactBlock(u64 block, u64 avoid_gig,
                                                 u32 moves_allowed);

    /** True when the gate vetoes an allocation of the given order. */
    bool gateDenies(unsigned order) const;

    BuddyAllocator buddy_;
    AllocGate alloc_gate_;
    CompactionGate compaction_gate_;
    std::vector<FrameUse> use_;
    std::vector<FrameOwner> owner_;
    std::vector<BlockInfo> blocks_;
    u64 num_blocks_;
    u64 pinned_blocks_ = 0;
    u64 compact_cursor_ = 0;
    PhysStats stats_;
};

} // namespace pccsim::mem
