/**
 * @file
 * Traced per-layer replay (--trace 1).
 *
 * The replay re-implements System::run's scheduling loop in the
 * benchmark's own code for the configurations the benchmark uses
 * (batch engine, single-lane jobs, optional tenant mode; no sampling,
 * oracle, fault injection or telemetry), calling each layer's public
 * functions directly: Workload::batchLane resumes, Process and Os
 * fault handling, TlbHierarchy, Walker, CacheHierarchy, PccUnit and
 * Policy::onInterval through the replay's own PolicyContext. Every
 * call is counted; every call made while simulating every kSampleEvery-th
 * access (and every rare call: generator resumes, intervals, tenant
 * claims) is timed, with the timer's own cost calibrated and
 * subtracted.
 *
 * The replay must reproduce the untraced RunResult's counts exactly
 * (accesses, TLB accesses, walks, faults, promotions, simulated
 * cycles); otherwise it measured a different program and the traced
 * run fails. Telemetry is result-neutral, so a scenario with
 * observability on is replayed with it off and its cost is measured
 * instead as telemetry.overhead_ratio from interleaved untraced
 * slices with telemetry on and off.
 */

#include <algorithm>
#include <array>
#include <type_traits>

#include "common.hpp"
#include "json_out.hpp"
#include "mem/paging.hpp"
#include "os/policy_registry.hpp"
#include "telemetry/audit.hpp"
#include "tenant/scheduler.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench {

namespace {

/**
 * Cycle-counter read for the per-call brackets: far cheaper than a
 * clock_gettime call and not serializing, so a sampled access is
 * disturbed less. Falls back to the steady clock off x86.
 */
inline u64
ticks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return nowNs();
#endif
}

/**
 * One simulated access in kSampleEvery is timed call by call, and
 * another one in kSampleEvery is timed as a whole.
 */
constexpr u64 kSampleEvery = 64;

/** Consecutive accesses timed together as one whole-access sample. */
constexpr u32 kBlock = 8;

/** Sampling phase of an access index, in [0, kSampleEvery). */
inline u64
samplePhase(u64 index)
{
    static_assert(kSampleEvery == 64);
    return (index * 0x9e3779b97f4a7c15ull) >> 58;
}

/** Ops a lane runs per turn when it shares the machine (System's). */
constexpr u32 kSchedQuantum = 64;

enum Layer : u8
{
    kWorkloads = 0, //!< Workload::batchLane resumes
    kTlb,           //!< TlbHierarchy access/fill/repeat-hit
    kPt,            //!< Walker::walk (PWC + page table)
    kCache,         //!< CacheHierarchy::access
    kPcc,           //!< PccUnit::observeWalk
    kOsProcess,     //!< Process touched/faulted/mapping queries
    kOsFault,       //!< Policy::wantHugeFault + Os::handleFault
    kOsInterval,    //!< Policy::onInterval
    kTenant,        //!< tenant context switches
    kNumLayers
};

/** Timed calls of one layer, in ticks (calibrated cost removed). */
struct LayerClock
{
    u64 calls = 0;
    u64 timed = 0;
    double timed_ticks = 0.0;

    double
    ticksPerCall() const
    {
        return timed == 0 ? 0.0 : timed_ticks / static_cast<double>(timed);
    }
};

struct TimerCalibration
{
    double ns_per_tick = 1.0;
    double read_ticks = 0.0; //!< cost of one ticks() read
};

/**
 * Tick rate against the steady clock over a 50 ms spin, and the cost
 * of one read as the median of back-to-back deltas.
 */
TimerCalibration
calibrateTimer()
{
    TimerCalibration cal;
    const u64 n0 = nowNs();
    const u64 k0 = ticks();
    while (nowNs() - n0 < 50'000'000) {
    }
    cal.ns_per_tick = static_cast<double>(nowNs() - n0) /
                      static_cast<double>(ticks() - k0);
    std::vector<double> deltas;
    for (int i = 0; i < 20001; ++i) {
        const u64 a = ticks();
        const u64 b = ticks();
        deltas.push_back(static_cast<double>(b - a));
    }
    cal.read_ticks = quantile(deltas, 0.5);
    return cal;
}

struct ReplayCounts
{
    u64 accesses = 0;
    u64 tlb_accesses = 0;
    u64 walks = 0;
    u64 faults = 0;
    u64 promotions = 0;
    Cycles wall_cycles = 0;
    std::vector<Cycles> job_wall;

    bool operator==(const ReplayCounts &) const = default;
};

/**
 * Bench-side twin of sim::System for one run. Layer objects are the
 * library's own; only the glue between them is restated here.
 */
class Replay : public os::PolicyContext
{
  public:
    Replay(const sim::SystemConfig &config, const TimerCalibration &cal)
        : config_(config), cal_(cal),
          audit_(u64{1} << 20)
    {
        if (config_.sampling.enabled() || config_.oracle.enabled ||
            config_.faults.any() || !config_.hw.empty() ||
            !config_.policy_str.empty() || !config_.batch_engine ||
            config_.timing.pt_through_dcache ||
            config_.pcc.source != pcc::CandidateSource::PtwFiltered) {
            fatal("replay: configuration outside the replayed subset");
        }
        config_.telemetry = {};
        for (u32 c = 0; c < config_.num_cores; ++c)
            cores_.emplace_back(config_);
        core_process_.assign(config_.num_cores, nullptr);
    }

    // The Os hooks capture `this`.
    Replay(const Replay &) = delete;
    Replay &operator=(const Replay &) = delete;

    ReplayCounts run(std::vector<workloads::WorkloadPtr> &jobs);

    std::array<LayerClock, kNumLayers> layers{};
    double access_ticks = 0.0; //!< whole-access blocks, summed
    u64 access_samples = 0;    //!< accesses inside those blocks
    u64 loop_ns = 0;          //!< host time of the scheduling loop
    u64 pcc_observes = 0;
    u64 pwc_hits = 0;
    u64 pwc_levels = 0;
    u64 switches = 0;

    /** One simulated core: the library's per-core hardware. */
    struct Core
    {
        explicit Core(const sim::SystemConfig &cfg)
            : tlb(cfg.tlb), walker(cfg.pwc), pcc(cfg.pcc), dcache(cfg.cache)
        {
        }
        tlb::TlbHierarchy tlb;
        pt::Walker walker;
        pcc::PccUnit pcc;
        cache::CacheHierarchy dcache;
        Cycles cycles = 0;
        u64 accesses = 0;
        u64 faults = 0;
        Addr last_page_base = 0;
        u64 last_page_bytes = 0;
    };

    // ---- read-outs after run() ----

    /** Sum of f(core) over the replay's cores. */
    template <typename F>
    double
    sumCores(F &&f) const
    {
        u64 n = 0;
        for (const Core &core : cores_)
            n += f(core);
        return static_cast<double>(n);
    }
    u64 intervals() const { return intervals_; }
    u64 compactions() { return phys_->stats().get("compactions"); }
    u64 framesMoved() { return os_->stats().get("migrated_pages"); }
    u64 promoteAttempts() const;

    // ---- os::PolicyContext ----
    os::Os &os() override { return *os_; }
    u32 numCores() const override { return config_.num_cores; }
    os::Process &processOnCore(CoreId core) override
    {
        return *core_process_.at(core);
    }
    pcc::PccUnit &pccUnit(CoreId core) override { return cores_.at(core).pcc; }
    void chargeCore(CoreId core, Cycles cycles) override
    {
        cores_.at(core).cycles += cycles;
    }
    u64 intervalIndex() const override { return intervals_; }
    u64 accessesSoFar() const override { return total_accesses_; }
    telemetry::PromotionAuditLog *audit() override { return &audit_; }

  private:
    struct Lane
    {
        std::unique_ptr<workloads::AccessBuffer> buf;
        Generator<workloads::BatchEnd> gen;
        u32 consumed = 0;
        bool pending_barrier = false;
        bool pending_eof = false;
        bool done = false;
        CoreId core = 0;
        u32 job = 0;
    };

    /** Run f as one call into layer l, timing it when `sampled`. */
    template <typename F>
    auto
    call(Layer l, bool sampled, F &&f)
    {
        ++layers[l].calls;
        if (!sampled)
            return f();
        // An empty bracket right before the call measures the
        // timer's own cost in the same pipeline context.
        const u64 t0 = ticks();
        const u64 t1 = ticks();
        if constexpr (std::is_void_v<decltype(f())>) {
            f();
            note(l, t0, t1, ticks());
        } else {
            auto r = f();
            note(l, t0, t1, ticks());
            return r;
        }
    }

    void
    note(Layer l, u64 t0, u64 t1, u64 t2)
    {
        const double empty = static_cast<double>(t1 - t0);
        ++layers[l].timed;
        layers[l].timed_ticks += static_cast<double>(t2 - t1) - empty;
    }

    Cycles doAccess(Core &core, os::Process &proc, Addr vaddr, bool sampled);
    void onInterval(u32 total_lanes);
    void claim(Lane &lane);

    sim::SystemConfig config_;
    TimerCalibration cal_;
    u32 block_left_ = 0;       //!< accesses left in the open block
    u64 block_intervals_ = 0;  //!< intervals_ when the block opened
    u64 block_t0_ = 0;
    telemetry::PromotionAuditLog audit_;
    std::unique_ptr<mem::PhysicalMemory> phys_;
    std::unique_ptr<os::Os> os_;
    std::unique_ptr<os::Policy> policy_;
    std::unique_ptr<tenant::Scheduler> tsched_;
    std::vector<Core> cores_;
    std::vector<os::Process *> core_process_;
    std::vector<os::Process *> job_process_;
    u64 total_accesses_ = 0;
    u64 next_interval_at_ = 0;
    u64 intervals_ = 0;
};

Cycles
Replay::doAccess(Core &core, os::Process &proc, Addr vaddr, bool sampled)
{
    Cycles cost = config_.timing.op_cost;
    ++core.accesses;
    const bool faulted = call(kOsProcess, sampled, [&] {
        proc.noteTouched(vaddr);
        return proc.faulted(vaddr);
    });
    if (!faulted) {
        const mem::PageSize filled = call(kOsFault, sampled, [&] {
            const bool want_huge = policy_->wantHugeFault(proc, vaddr);
            cost += os_->handleFault(proc, vaddr, want_huge);
            return proc.mappingSizeOf(vaddr);
        });
        ++core.faults;
        call(kTlb, sampled, [&] { core.tlb.fill(vaddr, filled); });
        core.last_page_base = mem::pageBase(vaddr, filled);
        core.last_page_bytes = mem::bytesOf(filled);
        cost += call(kCache, sampled, [&] { return core.dcache.access(vaddr); });
        return cost;
    }
    if (config_.last_translation_cache &&
        vaddr - core.last_page_base < core.last_page_bytes) {
        call(kTlb, sampled, [&] { core.tlb.noteRepeatL1Hit(); });
        cost += call(kCache, sampled, [&] { return core.dcache.access(vaddr); });
        return cost;
    }
    const mem::PageSize size = call(
        kOsProcess, sampled, [&] { return proc.mappingSizeOf(vaddr); });
    const tlb::HitLevel level =
        call(kTlb, sampled, [&] { return core.tlb.access(vaddr, size); });
    if (level == tlb::HitLevel::L2) {
        cost += config_.timing.l2_tlb_hit;
    } else if (level == tlb::HitLevel::Miss) {
        const pt::WalkOutcome walk = call(kPt, sampled, [&] {
            return core.walker.walk(proc.pageTable(), vaddr);
        });
        const u32 depth = walk.size == mem::PageSize::Base4K   ? 4
                          : walk.size == mem::PageSize::Huge2M ? 3
                                                               : 2;
        pwc_levels += depth;
        pwc_hits += depth - std::min(depth, walk.memory_refs);
        cost += config_.timing.walk_base +
                static_cast<Cycles>(walk.memory_refs) *
                    config_.timing.walk_ref;
        if (config_.mutation == sim::HotPathMutation::SkipL2Fill) {
            call(kTlb, sampled, [&] {
                core.tlb.l1Of(size).access(mem::vpnOf(vaddr, size));
            });
        } else {
            call(kTlb, sampled, [&] { core.tlb.fill(vaddr, size); });
        }
        ++pcc_observes;
        call(kPcc, sampled, [&] { core.pcc.observeWalk(vaddr, walk); });
    }
    core.last_page_base = mem::pageBase(vaddr, size);
    core.last_page_bytes = mem::bytesOf(size);
    cost += call(kCache, sampled, [&] { return core.dcache.access(vaddr); });
    return cost;
}

void
Replay::onInterval(u32 total_lanes)
{
    ++intervals_;
    next_interval_at_ +=
        config_.interval_accesses * std::max<u32>(1, total_lanes);
    // Rare: always timed.
    call(kOsInterval, true, [&] { policy_->onInterval(*this); });
}

void
Replay::claim(Lane &lane)
{
    if (!tsched_->claim(lane.core, lane.job))
        return; // tenant already current: no switch
    ++switches;
    call(kTenant, true, [&] {
        os::Process *proc = job_process_[lane.job];
        Core &core = cores_[lane.core];
        core.cycles += config_.costs.context_switch;
        if (config_.tenant.switch_mode == tenant::SwitchMode::Flush) {
            core.tlb.flushAll();
            core.walker.flushAll();
        } else {
            core.tlb.setCurrentAsid(static_cast<Asid>(proc->pid()));
        }
        core.last_page_bytes = 0;
        core_process_[lane.core] = proc;
    });
}

ReplayCounts
Replay::run(std::vector<workloads::WorkloadPtr> &jobs)
{
    const bool tenant_mode = config_.tenant.enabled();
    const u32 total_lanes = static_cast<u32>(jobs.size());

    // Physical memory is sized from the declared footprints.
    u64 declared = 0;
    for (auto &w : jobs) {
        os::Process scratch(999, config_.heap_capacity);
        w->setup(scratch);
        declared += scratch.footprintBytes();
    }
    u64 phys_bytes = config_.phys_bytes;
    if (phys_bytes == 0) {
        phys_bytes = static_cast<u64>(static_cast<double>(declared) *
                                      config_.phys_headroom);
        phys_bytes += 64ull << 20;
        phys_bytes = mem::alignUp(phys_bytes, mem::PageSize::Huge1G);
    }
    phys_ = std::make_unique<mem::PhysicalMemory>(phys_bytes);

    os::Os::Params os_params;
    os_params.costs = config_.costs;
    os_params.promote_retries = config_.promote_retries;
    os_params.reclaim_on_pressure = config_.reclaim_on_pressure;
    if (config_.promotion_cap_percent == 0.0) {
        os_params.promotion_cap_bytes = 0;
    } else if (config_.promotion_cap_percent > 0.0) {
        os_params.promotion_cap_bytes = mem::alignUp(
            static_cast<u64>(config_.promotion_cap_percent / 100.0 *
                             static_cast<double>(declared)),
            mem::PageSize::Huge2M);
    }
    os_ = std::make_unique<os::Os>(os_params, *phys_);
    util::Status status;
    policy_ = os::PolicyRegistry::instance().make(
        sim::to_string(config_.policy), config_, status);
    if (!status.ok() || !policy_)
        fatal("replay: policy: ", status.toString());

    os_->setShootdownHook([this](Pid pid, Addr base, u64 bytes) -> Cycles {
        const Asid asid =
            (tsched_ && config_.tenant.switch_mode == tenant::SwitchMode::Asid)
                ? static_cast<Asid>(pid)
                : 0;
        for (auto &core : cores_) {
            core.tlb.shootdown(base, bytes, asid);
            core.walker.shootdown(base, bytes);
            core.pcc.shootdown(base, bytes);
            core.last_page_bytes = 0;
        }
        if (bytes >= mem::kBytes2M) {
            for (u32 c = 0; c < config_.num_cores; ++c) {
                if (core_process_[c] && core_process_[c]->pid() == pid)
                    cores_[c].cycles += config_.costs.shootdown;
            }
        }
        return 0;
    });
    os_->setReclaimRanker([this](Pid pid, Addr base) -> u64 {
        const Vpn v2m = mem::vpnOf(base, mem::PageSize::Huge2M);
        const Vpn v1g = mem::vpnOf(base, mem::PageSize::Huge1G);
        u64 score = 0;
        for (u32 c = 0; c < config_.num_cores; ++c) {
            if (!tsched_ &&
                (!core_process_[c] || core_process_[c]->pid() != pid))
                continue;
            const auto &unit = cores_[c].pcc;
            if (auto f = unit.pcc2m().frequencyOf(v2m))
                score = std::max(score, *f * mem::kPagesPer2M);
            if (auto f = unit.pcc1g().frequencyOf(v1g))
                score = std::max(score, *f);
        }
        return score;
    });
    os_->setAuditLog(&audit_);

    if (config_.frag_fraction > 0.0) {
        Rng rng(config_.seed ^ 0xf7a6);
        phys_->fragment(config_.frag_fraction, rng);
        phys_->scramble(rng);
    }

    std::vector<os::Process *> procs;
    for (auto &w : jobs) {
        os::Process &proc = os_->createProcess(config_.heap_capacity);
        w->setup(proc);
        procs.push_back(&proc);
    }

    const u32 buf_capacity =
        total_lanes == 1 ? std::max<u32>(1, config_.batch_capacity)
        : tenant_mode    ? std::max<u32>(1, config_.tenant.quantum_ops)
                         : kSchedQuantum;
    std::vector<Lane> lanes;
    for (u32 j = 0; j < jobs.size(); ++j) {
        Lane lane;
        lane.buf = std::make_unique<workloads::AccessBuffer>(buf_capacity);
        lane.gen = jobs[j]->batchLane(0, 1, *lane.buf);
        lane.core = tenant_mode ? j % config_.tenant.cores : j;
        lane.job = j;
        if (!tenant_mode || j < config_.tenant.cores)
            core_process_[lane.core] = procs[j];
        lanes.push_back(std::move(lane));
    }
    const u32 used_cores =
        tenant_mode ? std::min<u32>(config_.tenant.cores, total_lanes)
                    : total_lanes;
    for (u32 c = used_cores; c < config_.num_cores; ++c)
        core_process_[c] = procs[0];
    job_process_ = procs;
    if (tenant_mode) {
        tsched_ = std::make_unique<tenant::Scheduler>(config_.tenant,
                                                      total_lanes);
        for (u32 c = 0; c < used_cores; ++c) {
            tsched_->seed(c, c);
            if (config_.tenant.switch_mode == tenant::SwitchMode::Asid) {
                cores_[c].tlb.setCurrentAsid(
                    static_cast<Asid>(procs[c]->pid()));
            }
        }
    }
    next_interval_at_ =
        config_.interval_accesses * std::max<u32>(1, total_lanes);

    // ---- scheduling loop (System::runBatchLoop, restated) ----
    ReplayCounts counts;
    counts.job_wall.assign(jobs.size(), 0);
    // A lane's turn is one buffer's worth of ops, as in System.
    const u32 quantum = buf_capacity;
    u32 live = total_lanes;
    const u64 loop_t0 = nowNs();
    while (live > 0) {
        for (Lane &lane : lanes) {
            if (lane.done)
                continue;
            if (tsched_)
                claim(lane);
            Core &core = cores_[lane.core];
            os::Process &proc = *core_process_[lane.core];
            workloads::AccessBuffer &buf = *lane.buf;
            const u64 acc_before = core.accesses;
            u32 b = 0;
            while (b < quantum) {
                if (lane.consumed == buf.size()) {
                    // A single-lane job parked at its own barrier is
                    // released at once; only its turn ends.
                    if (lane.pending_barrier) {
                        lane.pending_barrier = false;
                        break;
                    }
                    if (lane.pending_eof) {
                        lane.done = true;
                        --live;
                        counts.job_wall[lane.job] = core.cycles;
                        break;
                    }
                    buf.clear();
                    lane.consumed = 0;
                    const bool more =
                        call(kWorkloads, true, [&] { return lane.gen.next(); });
                    if (more) {
                        lane.pending_barrier =
                            lane.gen.value() == workloads::BatchEnd::Barrier;
                    } else {
                        lane.pending_eof = true;
                    }
                    continue;
                }
                const u32 chunk =
                    std::min(buf.size() - lane.consumed, quantum - b);
                const Addr *addrs = buf.addrs() + lane.consumed;
                for (u32 i = 0; i < chunk; ++i) {
                    // Per-call samples and whole-access blocks are
                    // disjoint, so the inner brackets' disturbance
                    // never inflates a block's time. Fibonacci hashing
                    // of the access index spreads the samples
                    // quasi-randomly: a fixed stride would alias with
                    // the workloads' periodic access patterns.
                    const u64 phase = samplePhase(total_accesses_);
                    if (block_left_ == 0 && phase == kSampleEvery / 2 &&
                        chunk - i >= kBlock) {
                        block_left_ = kBlock;
                        block_intervals_ = intervals_;
                        block_t0_ = ticks();
                    }
                    const bool per_call = block_left_ == 0 && phase == 0;
                    core.cycles += doAccess(core, proc, addrs[i], per_call);
                    ++total_accesses_;
                    if (total_accesses_ >= next_interval_at_)
                        onInterval(total_lanes);
                    if (block_left_ > 0 && --block_left_ == 0 &&
                        intervals_ == block_intervals_) {
                        // A block that ran an interval is dropped:
                        // intervals are timed on their own.
                        access_ticks += static_cast<double>(ticks() - block_t0_) -
                                        cal_.read_ticks;
                        access_samples += kBlock;
                    }
                }
                lane.consumed += chunk;
                b += chunk;
            }
            if (tsched_)
                tsched_->noteOps(lane.job, core.accesses - acc_before);
        }
    }
    loop_ns = nowNs() - loop_t0;

    counts.accesses = total_accesses_;
    for (const Core &core : cores_) {
        counts.tlb_accesses += core.tlb.accesses();
        counts.walks += core.tlb.walks();
        counts.faults += core.faults;
    }
    for (const os::Process *p : procs)
        counts.promotions += p->promotions();
    for (Cycles w : counts.job_wall)
        counts.wall_cycles = std::max(counts.wall_cycles, w);
    return counts;
}

u64
Replay::promoteAttempts() const
{
    u64 n = 0;
    for (const auto &rec : audit_.report().records) {
        if (rec.action == telemetry::AuditAction::Promote2M)
            ++n;
    }
    return n;
}

double
ratioOf(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** Sum over jobs: the RunResult side of the count check. */
ReplayCounts
countsOf(const sim::RunResult &r)
{
    ReplayCounts c;
    c.accesses = r.total_accesses;
    c.wall_cycles = r.wall_cycles;
    for (const auto &job : r.jobs) {
        c.tlb_accesses += job.tlb_accesses;
        c.walks += job.walks;
        c.faults += job.faults;
        c.promotions += job.promotions;
        c.job_wall.push_back(job.wall_cycles);
    }
    return c;
}

std::string
countsJson(const ReplayCounts &c)
{
    return JsonObject()
        .integer("accesses", c.accesses)
        .integer("tlb_accesses", c.tlb_accesses)
        .integer("walks", c.walks)
        .integer("faults", c.faults)
        .integer("promotions", c.promotions)
        .integer("wall_cycles", c.wall_cycles)
        .text();
}

} // namespace

Outcome
runTraced(const Scenario &scenario, const Args &args)
{
    Outcome out;
    sim::SystemConfig config = scenario.config;
    config.mutation = args.mutation;
    const TimerCalibration cal = calibrateTimer();

    // graph.build_s: one fresh input build (0 for workloads without
    // a graph input).
    double graph_build_s = 0.0;
    for (const auto &spec : scenario.jobs) {
        if (!workloads::isGraphWorkload(spec.name))
            continue;
        Scenario one;
        one.jobs = {spec};
        const u64 t0 = nowNs();
        makeJobs(one, true);
        graph_build_s += static_cast<double>(nowNs() - t0) / 1e9;
    }

    // Interleave untraced slices (telemetry as configured, and off
    // when the scenario has it on) with traced replays.
    sim::SystemConfig quiet = config;
    quiet.telemetry = {};
    const bool has_telemetry = config.telemetry.enabled;
    const std::vector<int> cpus = allowedCpus();
    std::vector<double> plain_ns, quiet_ns, replay_ns;
    sim::RunResult reference;
    std::unique_ptr<Replay> kept;
    ReplayCounts replayed;
    bool counts_ok = true;
    const u64 budget_ns = args.seconds * 1'000'000'000ull;
    const u64 t_start = nowNs();
    u64 round = 0;
    while (round < 3 || nowNs() - t_start < budget_ns) {
        pinToCpu(cpus[round % cpus.size()]);
        {
            auto jobs = makeJobs(scenario, false);
            const u64 t0 = nowNs();
            sim::RunResult r = runSlice(config, jobs);
            plain_ns.push_back(static_cast<double>(nowNs() - t0));
            if (round == 0)
                reference = std::move(r);
        }
        if (has_telemetry) {
            auto jobs = makeJobs(scenario, false);
            const u64 t0 = nowNs();
            runSlice(quiet, jobs);
            quiet_ns.push_back(static_cast<double>(nowNs() - t0));
        }
        {
            auto jobs = makeJobs(scenario, false);
            auto replay = std::make_unique<Replay>(config, cal);
            const ReplayCounts counts = replay->run(jobs);
            replay_ns.push_back(static_cast<double>(replay->loop_ns));
            counts_ok = counts_ok && counts == countsOf(reference);
            // Keep the fastest replay's ledger: the one least disturbed
            // by contention from outside.
            if (!kept || replay->loop_ns < kept->loop_ns) {
                kept = std::move(replay);
                replayed = counts;
            }
        }
        ++round;
    }
    pinToCpus(cpus);

    const Replay &r = *kept;
    const double accesses = static_cast<double>(replayed.accesses);
    const double loop = static_cast<double>(r.loop_ns);
    // A mean below the timer's resolution can come out negative
    // after the empty-bracket subtraction; it reads as zero.
    const auto perCall = [&](Layer l) {
        return std::max(0.0, r.layers[l].ticksPerCall() * cal.ns_per_tick);
    };
    const auto est = [&](Layer l) {
        return perCall(l) * static_cast<double>(r.layers[l].calls);
    };
    const auto share = [&](double ns) { return ratioOf(ns, loop); };
    // Whole-access samples give the access path's time; what the
    // per-call samples do not attribute to a layer is glue.
    const double access_est =
        r.access_samples == 0
            ? 0.0
            : r.access_ticks * cal.ns_per_tick * accesses /
                  static_cast<double>(r.access_samples);
    double in_access = 0.0;
    for (Layer l : {kTlb, kPt, kCache, kPcc, kOsProcess, kOsFault})
        in_access += est(l);
    const double glue_est = access_est - in_access;
    const double os_est = est(kOsProcess) + est(kOsFault) + est(kOsInterval);
    const double coverage = share(access_est + est(kWorkloads) +
                                  est(kOsInterval) + est(kTenant));
    const bool ledger_ok = coverage >= 0.95;

    const double plain_p25 = quantile(plain_ns, 0.25);
    const double quiet_p25 = quantile(quiet_ns, 0.25);
    using Core = Replay::Core;
    const double tlb_lookups =
        r.sumCores([](const Core &c) { return c.tlb.accesses(); });
    const double tlb_l1 =
        r.sumCores([](const Core &c) { return c.tlb.l1Hits(); });
    const double walks = static_cast<double>(r.layers[kPt].calls);
    const double cache_acc =
        r.sumCores([](const Core &c) { return c.dcache.accesses(); });
    const double pcc_hits = r.sumCores([](const Core &c) {
        return c.pcc.pcc2m().hits() + c.pcc.pcc1g().hits();
    });
    const double pcc_lookups = pcc_hits + r.sumCores([](const Core &c) {
        return c.pcc.pcc2m().misses() + c.pcc.pcc1g().misses();
    });
    const double faults = static_cast<double>(r.layers[kOsFault].calls);
    const double intervals = static_cast<double>(r.intervals());
    const double attempts = static_cast<double>(r.promoteAttempts());

    out.metrics = {
        {"workloads.ops", "count", accesses},
        {"workloads.ns_per_op", "ns", ratioOf(est(kWorkloads), accesses)},
        {"workloads.share", "ratio", share(est(kWorkloads))},
        {"graph.build_s", "s", graph_build_s},
        {"tlb.lookups", "count", tlb_lookups},
        {"tlb.l1_hit_ratio", "ratio", ratioOf(tlb_l1, tlb_lookups)},
        {"tlb.l2_hit_ratio", "ratio",
         ratioOf(r.sumCores([](const Core &c) { return c.tlb.l2Hits(); }),
                 tlb_lookups - tlb_l1)},
        {"tlb.ns_per_lookup", "ns", perCall(kTlb)},
        {"tlb.shootdowns", "count",
         r.sumCores([](const Core &c) { return c.tlb.shootdowns(); })},
        {"tlb.share", "ratio", share(est(kTlb))},
        {"pt.walks", "count", walks},
        {"pt.refs_per_walk", "count",
         ratioOf(r.sumCores([](const Core &c) { return c.walker.totalRefs(); }),
                 walks)},
        {"pt.pwc_hit_ratio", "ratio",
         ratioOf(static_cast<double>(r.pwc_hits),
                 static_cast<double>(r.pwc_levels))},
        {"pt.ns_per_walk", "ns", perCall(kPt)},
        {"pt.share", "ratio", share(est(kPt))},
        {"cache.accesses", "count", cache_acc},
        {"cache.l1_hit_ratio", "ratio",
         ratioOf(r.sumCores([](const Core &c) { return c.dcache.l1Hits(); }),
                 cache_acc)},
        {"cache.dram_ratio", "ratio",
         ratioOf(r.sumCores(
                     [](const Core &c) { return c.dcache.dramAccesses(); }),
                 cache_acc)},
        {"cache.ns_per_access", "ns", perCall(kCache)},
        {"cache.share", "ratio", share(est(kCache))},
        {"pcc.observes", "count", static_cast<double>(r.pcc_observes)},
        {"pcc.hit_ratio", "ratio",
         ratioOf(pcc_hits, pcc_lookups)},
        {"pcc.evictions", "count", r.sumCores([](const Core &c) {
             return c.pcc.pcc2m().evictions() + c.pcc.pcc1g().evictions();
         })},
        {"pcc.ns_per_observe", "ns", perCall(kPcc)},
        {"pcc.share", "ratio", share(est(kPcc))},
        {"os.faults", "count", faults},
        {"os.ns_per_fault", "ns", perCall(kOsFault)},
        {"os.intervals", "count", intervals},
        {"os.ms_per_interval", "ms", perCall(kOsInterval) / 1e6},
        {"os.promotions", "count", static_cast<double>(replayed.promotions)},
        {"os.promote_success_ratio", "ratio",
         ratioOf(static_cast<double>(replayed.promotions), attempts)},
        {"os.share", "ratio", share(os_est)},
        {"mem.compactions", "count", static_cast<double>(kept->compactions())},
        {"mem.frames_moved", "count", static_cast<double>(kept->framesMoved())},
        {"tenant.switches", "count", static_cast<double>(r.switches)},
        {"tenant.ns_per_switch", "ns",
         perCall(kTenant)},
        {"tenant.share", "ratio", share(est(kTenant))},
        {"telemetry.overhead_ratio", "ratio",
         has_telemetry ? ratioOf(plain_p25, quiet_p25) : 1.0},
        {"sim.glue_share", "ratio", share(glue_est)},
        {"sim.ledger_coverage", "ratio", coverage},
        // The replay runs with telemetry off: compare it with the
        // untraced slices that ran the same way.
        {"sim.trace_overhead_ratio", "ratio",
         ratioOf(quantile(replay_ns, 0.25),
                 has_telemetry ? quiet_p25 : plain_p25)},
    };

    out.attempted = round;
    out.failed = counts_ok ? 0 : round;
    out.correct = counts_ok && ledger_ok;

    std::vector<std::string> plain_json, replay_json;
    for (double v : plain_ns)
        plain_json.push_back(jsonNumber(v));
    for (double v : replay_ns)
        replay_json.push_back(jsonNumber(v));
    out.raw_json = JsonObject()
                       .str("workload", scenario.name)
                       .integer("seed", args.seed)
                       .num("ns_per_tick", cal.ns_per_tick)
                       .num("timer_read_ticks", cal.read_ticks)
                       .num("access_path_ns", access_est)
                       .num("layer_calls_ns", in_access)
                       .integer("sample_every", kSampleEvery)
                       .integer("access_samples", r.access_samples)
                       .boolean("counts_match", counts_ok)
                       .boolean("ledger_ok", ledger_ok)
                       .raw("replayed", countsJson(replayed))
                       .raw("untraced", countsJson(countsOf(reference)))
                       .raw("untraced_slice_ns", jsonArray(plain_json))
                       .raw("replay_loop_ns", jsonArray(replay_json))
                       .text();
    return out;
}

} // namespace perfbench
