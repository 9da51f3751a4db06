/**
 * @file
 * The full-system simulator: per-core hardware (TLB hierarchy, page
 * walker + PWC, PCC unit, data caches), the OS model, and the lane
 * scheduler that interleaves workload access streams deterministically.
 *
 * Scheduling model: each job's lanes run on consecutive cores. Lanes
 * are pulled round-robin in small batches; a lane that yields a
 * Barrier parks until all live lanes of its job reach the barrier, at
 * which point every parked core's clock advances to the job-wide
 * maximum (modelling barrier wait) and lanes resume starting from the
 * job's first lane (so lane-0 post-barrier bookkeeping runs before any
 * other lane observes shared state).
 */

#pragma once

#include <memory>
#include <vector>

#include "cache/cache.hpp"
#include "mem/phys_mem.hpp"
#include "os/os.hpp"
#include "os/policy.hpp"
#include "pcc/pcc_unit.hpp"
#include "pt/walker.hpp"
#include "sim/config.hpp"
#include "sim/fault_injector.hpp"
#include "sim/results.hpp"
#include "telemetry/attribution.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/series.hpp"
#include "telemetry/tail.hpp"
#include "telemetry/trace.hpp"
#include "tenant/scheduler.hpp"
#include "tlb/hierarchy.hpp"
#include "workloads/workload.hpp"

namespace pccsim::sim {

class System : public os::PolicyContext
{
  public:
    /** One workload instance to run (its own process). */
    struct Job
    {
        workloads::Workload *workload = nullptr;
        u32 lanes = 1;
    };

    explicit System(SystemConfig config);
    ~System() override;

    /** Run the jobs to completion and report metrics. */
    RunResult run(std::vector<Job> jobs);

    /** Convenience: run one workload on `lanes` cores. */
    RunResult
    run(workloads::Workload &workload, u32 lanes = 1)
    {
        return run(std::vector<Job>{{&workload, lanes}});
    }

    // ---- os::PolicyContext ----
    os::Os &os() override { return *os_; }
    u32 numCores() const override { return config_.num_cores; }
    os::Process &processOnCore(CoreId core) override;
    pcc::PccUnit &pccUnit(CoreId core) override;
    void chargeCore(CoreId core, Cycles cycles) override;
    u64 intervalIndex() const override { return intervals_; }
    u64 accessesSoFar() const override { return total_accesses_; }
    telemetry::PromotionAuditLog *audit() override { return tel_audit_.get(); }

    const SystemConfig &config() const { return config_; }
    mem::PhysicalMemory *phys() { return phys_.get(); }

    /** Promotions recorded during run() when record_trace is set. */
    const os::PromotionTrace &recordedTrace() const { return recorded_; }

  private:
    struct CoreState
    {
        CoreState(const SystemConfig &cfg)
            : tlb(cfg.tlb), walker(cfg.pwc), pcc(cfg.pcc),
              dcache(cfg.cache)
        {
        }

        tlb::TlbHierarchy tlb;
        pt::Walker walker;
        pcc::PccUnit pcc;
        cache::CacheHierarchy dcache;
        Cycles cycles = 0;
        /** Cycles spent in page-table walks (sampling window stats). */
        Cycles walk_cycles = 0;
        u64 accesses = 0;
        u64 faults = 0;
        Pid pid = 0;
        u32 job = 0;
        u32 lane = 0;

        /**
         * Last-translated page on this core: [base, base + bytes).
         * bytes == 0 means invalid; cleared on every shootdown, since
         * promotions/demotions/migrations all flow through the
         * shootdown hook.
         */
        Addr last_page_base = 0;
        u64 last_page_bytes = 0;

        void
        noteTranslated(Addr vaddr, mem::PageSize size)
        {
            last_page_base = mem::pageBase(vaddr, size);
            last_page_bytes = mem::bytesOf(size);
        }
    };

    struct LaneState
    {
        /**
         * The lane's op buffer. Heap-allocated because the batchLane
         * coroutine captures a reference at creation: LaneState lives
         * in a vector whose relocations must not move the buffer.
         */
        std::unique_ptr<workloads::AccessBuffer> buf;
        Generator<workloads::BatchEnd> gen;
        u32 consumed = 0;          //!< ops of buf already simulated
        /** Drained buffer ends at a barrier not yet taken. */
        bool pending_barrier = false;
        /** Generator exhausted; buf holds its residual ops. */
        bool pending_eof = false;

        CoreId core = 0;
        u32 job = 0;
        bool at_barrier = false;
        bool done = false;
    };

    /**
     * Per-job hardware counters: each lane turn snapshots its core's
     * counters before and after and banks the delta against the job
     * that ran. These counters move only inside a turn (doAccess or
     * doFastForward on the lane's own core), so the tallies are exact
     * in every mode: a job whose lanes own their cores gets the sum of
     * those cores' totals, and a tenant time-sharing a core gets only
     * its own turns.
     */
    struct JobTally
    {
        u64 accesses = 0;
        u64 tlb_accesses = 0;
        u64 l1_hits = 0;
        u64 l2_hits = 0;
        u64 walks = 0;
        u64 faults = 0;
        u64 walker_refs = 0;
    };

    /**
     * Scheduling phase of a sampled run. Each detailed window is
     * split SMARTS-style: a warming half rebuilds the TLB/cache state
     * the fast-forward phase left stale (detailed simulation, not
     * measured), then the measured half feeds the estimators. Without
     * the warm-up every window opens on a cold TLB and the miss-rate
     * estimate inherits a systematic upward bias.
     */
    enum class SamplePhase : u8
    {
        Warming = 0,
        Measuring = 1,
        FastForward = 2,
    };

    /** Simulate one access on a core; returns its cycle cost. */
    Cycles doAccess(CoreState &core, os::Process &proc, Addr vaddr,
                    bool write);

    /**
     * Fast-forward one access: page tables, access bits, and (rate-
     * thinned) PCC candidate counters advance; TLBs, data caches, and
     * the walker do not. Charges the mean detailed-window cost so job
     * clocks stay on scale.
     */
    void doFastForward(CoreState &core, os::Process &proc, Addr vaddr);

    /**
     * The scheduling loop (with optional sampling): each lane turn
     * consumes up to `quantum` ops from the lane's batch buffer.
     */
    void runBatchLoop(std::vector<Cycles> &job_wall,
                      std::vector<u32> &job_live, u32 total_lanes,
                      u32 quantum);

    /** Fire the interval machinery (policy, shocks, telemetry). */
    void onInterval(u32 total_lanes);

    /** Open a detailed window, starting with its warming half. */
    void beginSampleWindow();

    /** End of warm-up: snapshot the counters the window will delta. */
    void beginMeasurement();

    /** Close a completed detailed window and start fast-forwarding. */
    void closeSampleWindow();

    /** Compute RunResult::sampling from the accumulated windows. */
    SamplingStats sampleStats() const;

    /** Sum `f(core)` over every core. */
    template <typename F>
    u64
    sumCores(F f) const
    {
        u64 total = 0;
        for (const auto &core : cores_)
            total += f(core);
        return total;
    }

    /** A job's wall clock: the latest core clock among its lanes. */
    Cycles jobWall(u32 job) const;

    /** Charge page-table fetches of a walk through the data cache. */
    Cycles chargeWalkRefs(CoreState &core, const os::Process &proc,
                          Addr vaddr, unsigned refs, mem::PageSize size);

    /** Release a job's barrier if every live lane reached it. */
    void maybeReleaseBarrier(u32 job);

    /**
     * Tenant mode: make `lane`'s tenant current on its core before the
     * lane's turn. On an actual switch (another tenant held the core)
     * charges the context-switch cost, performs the switch-mode action
     * (flush vs ASID retag), and drops the last-translation cache —
     * the departing tenant's page, never valid for the incoming one.
     */
    void tenantClaim(const LaneState &lane);

    void installShootdownHook();
    void installFaultInjection();
    void installReclaimRanker();

    /**
     * Build the telemetry registry/sampler/tracer for this run (no-op
     * when config_.telemetry.enabled is false — every later telemetry
     * touch point is then a single null-pointer test).
     */
    void setupTelemetry(size_t num_jobs);

    /** Take one interval sample (churn, series, interval marker). */
    void sampleTelemetryInterval();

    /**
     * Record one detailed access into the tail recorder (call sites
     * guard on tel_tail_). Fast-forwarded accesses are never recorded:
     * they carry a synthetic mean charge, not a latency.
     */
    void recordTail(const CoreState &core, const os::Process &proc,
                    Addr vaddr, telemetry::TailOutcome outcome,
                    Cycles cost, Cycles walk_cost, Cycles stall_cost);

    /** One invariant sweep across all layers (config_.check_invariants). */
    void runInvariantChecks();

    std::unique_ptr<os::Policy> makePolicy();

    SystemConfig config_;
    std::unique_ptr<mem::PhysicalMemory> phys_;
    std::unique_ptr<os::Os> os_;
    std::unique_ptr<os::Policy> policy_;
    std::unique_ptr<FaultInjector> injector_;
    /** Differential reference model (null unless config_.oracle). */
    std::unique_ptr<DiffChecker> oracle_;
    std::vector<CoreState> cores_;
    std::vector<LaneState> lanes_;
    std::vector<os::Process *> core_process_;
    /** Tenant mode only (null otherwise): the contention scheduler. */
    std::unique_ptr<tenant::Scheduler> tsched_;
    std::vector<os::Process *> job_process_; //!< job -> its process
    std::vector<JobTally> job_tally_;        //!< per-job counters
    u64 total_accesses_ = 0;
    u64 next_interval_at_ = 0;
    u64 intervals_ = 0;
    u64 shootdowns_ = 0;
    u64 shock_pins_ = 0;
    u64 invariant_checks_ = 0;
    u64 invariant_failures_ = 0;
    std::string first_invariant_failure_;
    os::PromotionTrace recorded_;

    // ---- sampling state (meaningful only when config_.sampling) ----
    SamplePhase sample_phase_ = SamplePhase::Warming;
    u64 phase_left_ = 0;       //!< accesses remaining in current phase
    u64 win_measured_ = 0;     //!< measured accesses per window (W -
                               //!< warm-up; W/2 rounded up)
    u64 win_start_walks_ = 0;  //!< snapshots at measurement start
    u64 win_start_walk_cycles_ = 0;
    u64 win_start_tlb_accesses_ = 0;
    u64 win_start_cycles_ = 0;
    std::vector<double> win_miss_rates_; //!< per-window miss rate (%)
    std::vector<double> win_walk_cycles_; //!< per-window cycles/access
    u64 detailed_total_ = 0;   //!< accesses simulated in detail
    u64 ff_total_ = 0;         //!< accesses fast-forwarded
    Cycles ff_charge_ = 0;     //!< cycles charged per FF access
    /** Bresenham-thinned PCC touch rate: num/den walks per access,
        carried from the last completed detailed window. */
    u64 pcc_rate_num_ = 0;
    u64 pcc_rate_den_ = 1;
    u64 pcc_rate_acc_ = 0;

    // ---- telemetry (all null/empty unless config_.telemetry.enabled) ----
    std::unique_ptr<telemetry::Registry> tel_registry_;
    std::unique_ptr<telemetry::IntervalSampler> tel_sampler_;
    std::unique_ptr<telemetry::EventTracer> tel_tracer_;
    std::unique_ptr<telemetry::RegionProfiler> tel_profiler_;
    std::unique_ptr<telemetry::PromotionAuditLog> tel_audit_;
    telemetry::TopKChurnTracker tel_churn_;
    telemetry::Registry::Handle tel_churn_counter_;
    /** Tail histograms + exemplars (telemetry.histograms only). */
    std::unique_ptr<telemetry::TailRecorder> tel_tail_;
    /** Windowed quantile counters fed to the interval sampler. */
    telemetry::Registry::Handle tel_tail_p50_;
    telemetry::Registry::Handle tel_tail_p90_;
    telemetry::Registry::Handle tel_tail_p99_;
    telemetry::Registry::Handle tel_tail_p999_;
    telemetry::Registry::Handle tel_tail_max_;
};

std::string to_string(PolicyKind kind);

} // namespace pccsim::sim
