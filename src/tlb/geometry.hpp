/**
 * @file
 * TLB hierarchy geometries (Table 2 of the paper, plus scaled profiles).
 */

#pragma once

#include "util/set_assoc.hpp"
#include "util/types.hpp"

namespace pccsim::tlb {

/** Size/associativity of one TLB structure. */
struct TlbParams
{
    u32 entries = 0;
    u32 ways = 1;

    constexpr u32 sets() const { return ways == 0 ? 0 : entries / ways; }
};

/** The tag array of one TLB or page-walk-cache structure. */
inline util::SetAssoc
arrayOf(const TlbParams &params)
{
    PCCSIM_ASSERT(params.ways == 0 || params.entries % params.ways == 0,
                  "TLB entries not divisible by ways");
    return util::SetAssoc(params.sets(), params.ways);
}

/**
 * Full data-TLB hierarchy geometry. Matches the evaluation machine of the
 * paper (Intel Xeon E5-2667 v3, Haswell) by default: separate L1 D-TLBs
 * per page size and a unified 4KB+2MB L2 TLB. 1GB translations are cached
 * only in their small L1 structure, as on Haswell.
 */
struct TlbGeometry
{
    TlbParams l1_4k{64, 4};
    TlbParams l1_2m{32, 4};
    TlbParams l1_1g{4, 4};
    TlbParams l2{1024, 8};
    bool l2_holds_1g = false;

    /** Table 2 hardware verbatim. */
    static constexpr TlbGeometry
    haswell()
    {
        return TlbGeometry{};
    }

    /**
     * Geometry with the L2 shrunk by a power-of-two factor, used by the
     * `ci` profile so small workloads keep footprint >> TLB coverage.
     */
    static constexpr TlbGeometry
    scaled(u32 l2_entries)
    {
        TlbGeometry g;
        g.l2 = {l2_entries, 8};
        g.l1_4k = {l2_entries >= 256 ? 64u : 16u, 4};
        g.l1_2m = {l2_entries >= 256 ? 32u : 8u, 4};
        return g;
    }
};

} // namespace pccsim::tlb
