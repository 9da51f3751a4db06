/**
 * @file
 * Top-level system configuration: hardware geometries, timing, OS
 * parameters, and the policy selector, grouped into the scale profiles
 * described in DESIGN.md.
 */

#pragma once

#include <atomic>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "cache/cache.hpp"
#include "os/os.hpp"
#include "os/policies.hpp"
#include "pcc/pcc_unit.hpp"
#include "pt/walker.hpp"
#include "sim/fault_injector.hpp"
#include "sim/oracle.hpp"
#include "telemetry/report.hpp"
#include "tenant/tenant.hpp"
#include "tlb/geometry.hpp"
#include "util/status.hpp"
#include "workloads/registry.hpp"

namespace pccsim::sim {

/**
 * Deliberately planted hot-path bugs, used by the oracle's own tests
 * and the fuzz harness's self-check to prove the differential checker
 * actually catches the class of defect it exists for. Never enable
 * outside tests.
 */
enum class HotPathMutation : u8
{
    None = 0,
    /** Shootdowns no longer clear the per-core last-translation cache,
     *  so the fast path serves accesses from a stale mapping. */
    StaleLtc,
    /** Walk misses refill only the L1 TLB, never the unified L2. */
    SkipL2Fill,
};

/**
 * Thrown out of System::run() when the cooperative cancel flag
 * (SystemConfig::cancel) is observed set. The run's partial state is
 * discarded by the thrower's caller; the message records how far the
 * run got.
 */
class CancelledError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Which promotion policy drives the run. */
enum class PolicyKind : u8
{
    Base = 0,    //!< 4KB pages only (baseline)
    AllHuge,     //!< everything huge at fault time (ideal)
    LinuxThp,    //!< greedy fault-time THP + khugepaged
    HawkEye,     //!< software access-coverage scanning
    Pcc,         //!< the paper's hardware-assisted policy
    TraceReplay, //!< replay a recorded promotion trace (Sec. 4)
};

std::string to_string(PolicyKind kind);

/**
 * Inverse of to_string(PolicyKind): accepts the canonical names
 * ("base-4k", "all-huge", "linux-thp", "hawkeye", "pcc",
 * "trace-replay") plus short aliases ("base", "thp", "huge").
 * Returns nullopt for anything else so callers can report the typo.
 */
std::optional<PolicyKind> parsePolicyKind(std::string_view name);

/** Cycle costs the System charges beyond the OS event costs. */
struct TimingParams
{
    Cycles op_cost = 1;      //!< non-memory work per simulated access
    Cycles l2_tlb_hit = 7;   //!< extra latency of an L2 TLB hit
    Cycles walk_base = 30;   //!< walker state-machine overhead per walk

    /**
     * Latency of one page-table memory reference. For the irregular,
     * large-footprint workloads the paper targets, leaf PTE fetches
     * overwhelmingly miss the cache hierarchy (the page table of a
     * multi-GB footprint rivals the LLC), so the default approximates
     * a DRAM-bound fetch. With a PWC hit rate of ~80-90% a walk costs
     * walk_base + (1.1-1.4) x walk_ref cycles — the "hundreds of
     * cycles" of Sec. 3.2.1.
     */
    Cycles walk_ref = 150;

    /**
     * Route page-table fetches through the simulated data caches at
     * synthetic PT addresses instead of charging walk_ref. Only
     * meaningful at the `paper` scale, where PT size : LLC size
     * matches reality; at reduced scale the shrunken page table would
     * be unrealistically cache-resident.
     */
    bool pt_through_dcache = false;
};

struct SystemConfig
{
    u32 num_cores = 1;
    tlb::TlbGeometry tlb = tlb::TlbGeometry::scaled(128);
    pcc::PccUnitConfig pcc{};
    pt::PwcParams pwc{};
    cache::CacheHierarchy::Config cache{};
    TimingParams timing{};
    os::OsCosts costs{};

    /** Simulated physical memory; 0 = auto (headroom x footprint). */
    u64 phys_bytes = 0;
    double phys_headroom = 1.25;

    /** Fraction of 2MB blocks pinned by the fragmentation injector. */
    double frag_fraction = 0.0;

    /** Deterministic fault injection (off by default). */
    FaultConfig faults{};

    /**
     * OS graceful-degradation knobs (forwarded to os::Os::Params).
     * Exposed here so fault-injection campaigns can ablate the
     * machinery itself: retries = 0 and reclaim off reverts the OS to
     * fail-fast behavior.
     */
    u32 promote_retries = 2;
    bool reclaim_on_pressure = true;

    /**
     * Sweep the cross-layer invariants (sim/invariants.hpp) after every
     * policy interval and once at run end. O(pages) per sweep, so meant
     * for tests and fault-injection campaigns, not timing runs.
     */
    bool check_invariants = false;

    /**
     * Per-core last-translation fast path: consecutive accesses to the
     * same page skip the TLB set scan (the translation is L1-resident
     * and MRU by construction) while still being accounted as L1 hits.
     * Never changes results — kept as a knob so tests can prove that.
     */
    bool last_translation_cache = true;

    /** Promotion budget as % of total footprint; < 0 = unlimited. */
    double promotion_cap_percent = -1.0;

    /** Promotion interval in per-core simulated accesses (the paper's
     *  30-second cadence, calibrated by access rate — Sec. 4). */
    u64 interval_accesses = 1'000'000;

    PolicyKind policy = PolicyKind::Base;

    /**
     * Registry policy selector (`key` or `key:params`, e.g.
     * "trident:ratio1g=32"). When non-empty it overrides `policy`: the
     * System resolves it through os::PolicyRegistry. Bare legacy keys
     * are canonicalized back onto the enum by applyPolicySelector(),
     * so this field stays empty — and every spec key, memo entry, and
     * baseline unchanged — for the six built-in policies.
     */
    std::string policy_str;

    /**
     * Translation-hardware backend selector, resolved through
     * tlb::HwRegistry and applied to this config before the cores are
     * built. Empty (and the registered "default" key) = identity.
     */
    std::string hw;

    os::PccPolicy::Params pcc_policy{};
    os::HawkEyePolicy::Params hawkeye{};
    os::LinuxThpPolicy::Params linux_thp{};

    /** Input trace for PolicyKind::TraceReplay. */
    os::PromotionTrace replay_trace{};

    /** Record every promotion into System::recordedTrace(). */
    bool record_trace = false;

    /**
     * Invoked for each process right after its workload's setup():
     * the place to apply madvise() hints (Sec. 5.4.2 static HUB
     * identification) before execution begins.
     */
    std::function<void(os::Process &, u32 /*job*/)> process_setup;

    /** Per-process heap capacity (bookkeeping arrays only). */
    u64 heap_capacity = 8ull << 30;

    u64 seed = 1;

    /**
     * Telemetry collection (off by default — the hot path then pays
     * only a null-pointer test at rare events). When enabled the run
     * attaches a TelemetryReport to RunResult: per-interval series,
     * the structured event trace, and final counter values.
     */
    telemetry::TelemetryConfig telemetry{};

    /**
     * Differential oracle (off by default): run the simple reference
     * translation model in lockstep with the optimized hot path and
     * throw OracleError at the first divergence. Result-neutral — a
     * run with the oracle on produces the identical RunResult (or
     * throws), which is why specKey() ignores it.
     */
    OracleConfig oracle{};

    /** Test-only planted hot-path bug (see HotPathMutation). */
    HotPathMutation mutation = HotPathMutation::None;

    /** Not a knob: perfbench still reads it; ROADMAP item 2 deletes it. */
    static constexpr bool batch_engine = true;

    /**
     * Ops per batch-buffer refill for single-lane jobs. Multi-lane
     * runs clamp the buffer to the scheduling quantum so production
     * bursts stay aligned with lane turns (host-side shared workload
     * state interleaves identically for every capacity).
     */
    u32 batch_capacity = 4096;

    /**
     * SMARTS-style sampled simulation (Sec. "sampled simulation" of
     * the evaluation methodology): alternate detailed windows of
     * `window` accesses with fast-forward phases of `fastforward`
     * accesses. Fast-forwarded accesses update page tables, access
     * bits, and PCC candidate counters only — TLBs, data caches, and
     * the walker are not touched, so TLB metrics in JobResult come
     * from detailed windows alone and RunResult::sampling reports
     * their per-window point estimates with confidence intervals.
     * Requires the batch engine; incompatible with the oracle (the
     * reference TLB model would desynchronize across skipped phases).
     */
    struct SamplingConfig
    {
        u64 window = 0;      //!< W: detailed accesses per window
        u64 fastforward = 0; //!< F: fast-forwarded accesses between

        bool
        enabled() const
        {
            return window > 0;
        }
    };
    SamplingConfig sampling{};

    /**
     * Multi-tenant node mode (tenant/tenant.hpp): when
     * tenant.enabled(), the N jobs of a run are tenants time-sharing
     * `tenant.cores` cores under the contention scheduler instead of
     * each owning a core. Tenant i runs as pid i with its pid doubling
     * as the TLB ASID (switch_mode selects ASID tagging vs the
     * flush-on-switch baseline). Requires the batch engine;
     * incompatible with sampling and the oracle (both reason about one
     * uninterrupted stream per core).
     */
    tenant::TenantConfig tenant{};

    /**
     * Cooperative supervision hooks for external watchdogs (runtime
     * wiring, never part of a spec's identity). `progress`, when set,
     * receives the running total of simulated accesses after every
     * scheduler batch; `cancel`, when set and observed true, makes
     * run() throw CancelledError at the next batch boundary. A lane
     * generator that blocks without yielding ops cannot be cancelled —
     * the flag is only polled between batches.
     */
    std::atomic<u64> *progress = nullptr;
    const std::atomic<bool> *cancel = nullptr;

    /**
     * Sanity-check the configuration: TLB/cache geometries that the
     * set-index math can address, sane caps and intervals. Called at
     * the top of System::run(), which fatals on a non-OK status;
     * harnesses can call it earlier for a friendlier diagnostic.
     */
    util::Status validate() const;

    /** Hardware profile matched to a workload scale. */
    static SystemConfig
    forScale(workloads::Scale scale)
    {
        SystemConfig cfg;
        // The data caches shrink with the TLB so the paper's ratios
        // survive at reduced scale. The governing ratio is
        // LLC : footprint (~1:500 on the evaluation machine — 20MB LLC
        // vs 10-38GB inputs): random accesses and leaf-PTE fetches
        // must miss the LLC for translation overheads to matter.
        switch (scale) {
          case workloads::Scale::Ci:
            cfg.tlb = tlb::TlbGeometry::scaled(16);
            cfg.cache.l1 = {4 * 1024, 8, 64};
            cfg.cache.l2 = {8 * 1024, 8, 64};
            cfg.cache.llc = {16 * 1024, 16, 64};
            cfg.interval_accesses = 100'000;
            break;
          case workloads::Scale::Small:
            cfg.tlb = tlb::TlbGeometry::scaled(128);
            cfg.cache.l1 = {8 * 1024, 8, 64};
            cfg.cache.l2 = {16 * 1024, 8, 64};
            cfg.cache.llc = {64 * 1024, 16, 64};
            cfg.interval_accesses = 2'000'000;
            break;
          case workloads::Scale::Medium:
            cfg.tlb = tlb::TlbGeometry::scaled(256);
            cfg.cache.l1 = {16 * 1024, 8, 64};
            cfg.cache.l2 = {32 * 1024, 8, 64};
            cfg.cache.llc = {256 * 1024, 16, 64};
            cfg.interval_accesses = 8'000'000;
            break;
          case workloads::Scale::Paper:
            cfg.tlb = tlb::TlbGeometry::haswell();
            cfg.timing.pt_through_dcache = true;
            cfg.cache.l1 = {32 * 1024, 8, 64};
            cfg.cache.l2 = {256 * 1024, 8, 64};
            cfg.cache.llc = {20 * 1024 * 1024, 16, 64};
            cfg.interval_accesses = 32'000'000;
            break;
        }
        return cfg;
    }
};

/**
 * Point a config at the policy a selector names. Bare legacy keys
 * ("pcc", "thp", ...) canonicalize onto the PolicyKind enum with
 * policy_str left empty — bit-identical spec keys and results — while
 * parameterized or registry-only selectors land in policy_str. Unknown
 * keys and malformed params return an error with a nearest-key
 * suggestion.
 */
util::Status applyPolicySelector(SystemConfig &cfg,
                                 std::string_view selector);

/** Display name of the config's policy (selector or enum name). */
std::string policyNameOf(const SystemConfig &cfg);

/** Human-readable listing of registered policies (--policy=list). */
std::string policyListText();

/** Human-readable listing of registered hw backends (--hw=list). */
std::string hwListText();

} // namespace pccsim::sim
