#include "sim/system.hpp"

#include <algorithm>
#include <cmath>

#include "os/policy_registry.hpp"
#include "sim/invariants.hpp"
#include "tlb/hw_registry.hpp"
#include "util/heap.hpp"
#include "util/host_profile.hpp"
#include "util/log.hpp"

namespace pccsim::sim {

std::string
to_string(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Base: return "base-4k";
      case PolicyKind::AllHuge: return "all-huge";
      case PolicyKind::LinuxThp: return "linux-thp";
      case PolicyKind::HawkEye: return "hawkeye";
      case PolicyKind::Pcc: return "pcc";
      case PolicyKind::TraceReplay: return "trace-replay";
    }
    return "?";
}

std::optional<PolicyKind>
parsePolicyKind(std::string_view name)
{
    // Compatibility shim: the accepted names and aliases now live in
    // the policy registry, keyed back onto the enum via legacy_kind.
    // Registry-only contenders (trident, ubpf, ...) have no enum value
    // and correctly fall out as nullopt here; select those through
    // applyPolicySelector().
    const os::PolicyRegistry::Entry *entry =
        os::PolicyRegistry::instance().find(name);
    if (entry && entry->legacy_kind >= 0)
        return static_cast<PolicyKind>(entry->legacy_kind);
    return std::nullopt;
}

util::Status
applyPolicySelector(SystemConfig &cfg, std::string_view selector)
{
    const os::PolicyRegistry &reg = os::PolicyRegistry::instance();
    const util::Selector sel = util::Selector::parse(selector);
    const os::PolicyRegistry::Entry *entry = reg.find(sel.key);
    if (!entry)
        return reg.unknownKeyError(sel.key);
    if (sel.params.empty() && entry->legacy_kind >= 0) {
        // Bare legacy keys canonicalize onto the enum: spec keys, memo
        // entries, and baselines stay bit-identical to pre-registry
        // builds.
        cfg.policy = static_cast<PolicyKind>(entry->legacy_kind);
        cfg.policy_str.clear();
        return {};
    }
    if (util::Status status = reg.validateSelector(selector);
        !status.ok())
        return status;
    cfg.policy_str = std::string(selector);
    return {};
}

std::string
policyNameOf(const SystemConfig &cfg)
{
    return cfg.policy_str.empty() ? to_string(cfg.policy)
                                  : cfg.policy_str;
}

namespace {

template <typename Entries>
std::string
listText(const Entries &entries)
{
    std::string out;
    for (const auto &entry : entries) {
        out += "  ";
        out += entry.key;
        const size_t pad =
            entry.key.size() < 14 ? 14 - entry.key.size() : 1;
        out.append(pad, ' ');
        out += entry.description;
        if (!entry.grammar.empty()) {
            out += "  [";
            out += entry.grammar;
            out += "]";
        }
        out += "\n";
    }
    return out;
}

} // namespace

std::string
policyListText()
{
    return listText(os::PolicyRegistry::instance().entries());
}

std::string
hwListText()
{
    return listText(tlb::HwRegistry::instance().entries());
}

namespace {

bool
isPow2(u64 x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/**
 * Lane scheduling quantum: ops one lane consumes before the scheduler
 * rotates to the next runnable lane. Multi-lane batch buffers are
 * clamped to this size so a lane's production burst covers exactly one
 * turn; the resulting op interleaving (and thus every shared-state
 * read a workload makes) is what the recorded baselines pin, so
 * changing it changes every multi-lane result.
 */
constexpr u32 kSchedQuantum = 64;

// Per-core counters summed by System::sumCores.
constexpr auto kCoreWalks = [](const auto &core) -> u64 {
    return core.tlb.walks();
};
constexpr auto kCoreWalkCycles = [](const auto &core) -> u64 {
    return core.walk_cycles;
};
constexpr auto kCoreTlbAccesses = [](const auto &core) -> u64 {
    return core.tlb.accesses();
};
constexpr auto kCoreCycles = [](const auto &core) -> u64 {
    return core.cycles;
};

} // namespace

util::Status
SystemConfig::validate() const
{
    using util::Status;
    Status status;

    if (num_cores < 1)
        status.update(Status::error("num_cores must be >= 1"));

    // Registry selectors fail here — with a nearest-key suggestion —
    // instead of silently falling back to a default policy/hardware.
    if (!policy_str.empty()) {
        status.update(os::PolicyRegistry::instance().validateSelector(
            policy_str));
    }
    if (!hw.empty()) {
        status.update(
            tlb::HwRegistry::instance().validateSelector(hw));
    }

    // Every TLB, PWC and cache level is a util::SetAssoc, whose set
    // scans build a u32 way mask.
    const auto waysOk = [&status](const char *label, u32 ways,
                                  const char *kind) {
        if (ways == 0) {
            status.update(Status::error(label, ": zero-way ", kind));
            return false;
        }
        if (ways > util::SetAssoc::kMaxWays) {
            status.update(Status::error(label, ": ", ways, " ways (max ",
                                        util::SetAssoc::kMaxWays, ")"));
            return false;
        }
        return true;
    };
    const auto checkTlb = [&status, &waysOk](const char *label,
                                             const tlb::TlbParams &p) {
        if (!waysOk(label, p.ways, "TLB"))
            return;
        if (p.entries == 0) {
            status.update(Status::error(label, ": zero entries"));
            return;
        }
        if (p.entries % p.ways != 0) {
            status.update(Status::error(
                label, ": entries (", p.entries,
                ") not a multiple of ways (", p.ways, ")"));
            return;
        }
        if (!isPow2(p.entries / p.ways)) {
            status.update(Status::error(
                label, ": non-power-of-two set count ",
                p.entries / p.ways));
        }
    };
    checkTlb("tlb.l1_4k", tlb.l1_4k);
    checkTlb("tlb.l1_2m", tlb.l1_2m);
    checkTlb("tlb.l1_1g", tlb.l1_1g);
    checkTlb("tlb.l2", tlb.l2);
    if (pwc.enabled) {
        checkTlb("pwc.pml4e", pwc.pml4e);
        checkTlb("pwc.pdpte", pwc.pdpte);
        checkTlb("pwc.pde", pwc.pde);
    }

    const auto checkCache = [&status, &waysOk](const char *label,
                                               const cache::CacheParams &p) {
        if (!waysOk(label, p.ways, "cache"))
            return;
        if (!isPow2(p.line_bytes)) {
            status.update(Status::error(
                label, ": line size ", p.line_bytes,
                " not a power of two"));
            return;
        }
        const u64 way_bytes = static_cast<u64>(p.ways) * p.line_bytes;
        if (p.size_bytes == 0 || p.size_bytes % way_bytes != 0) {
            status.update(Status::error(
                label, ": size ", p.size_bytes,
                " not a multiple of ways x line (", way_bytes, ")"));
        }
        // Unlike the TLBs, non-power-of-two cache set counts are a
        // supported geometry (the model falls back to modulo
        // indexing): real LLC slices — e.g. the paper profile's
        // 20MB 16-way Haswell LLC — land on 20480 sets.
    };
    if (cache.enabled) {
        checkCache("cache.l1", cache.l1);
        checkCache("cache.l2", cache.l2);
        checkCache("cache.llc", cache.llc);
    }

    const auto checkPcc = [&status](const char *label,
                                    const pcc::PccConfig &p) {
        if (p.entries == 0 || p.entries > pcc::kMaxEntries) {
            status.update(Status::error(label, ": entries ", p.entries,
                                        " outside [1, ", pcc::kMaxEntries,
                                        "]"));
        }
        if (p.counter_bits < 1 || p.counter_bits > pcc::kMaxCounterBits) {
            status.update(Status::error(
                label, ": counter_bits ", p.counter_bits,
                " outside [1, ", pcc::kMaxCounterBits, "]"));
        }
    };
    checkPcc("pcc.pcc2m", pcc.pcc2m);
    if (pcc.enable_1g)
        checkPcc("pcc.pcc1g", pcc.pcc1g);

    if (interval_accesses == 0)
        status.update(Status::error("interval_accesses must be >= 1"));
    if (sampling.enabled()) {
        if (sampling.fastforward == 0) {
            status.update(Status::error(
                "sampling.fastforward must be >= 1 when sampling"));
        }
        if (oracle.enabled) {
            status.update(Status::error(
                "sampling is incompatible with the oracle (the "
                "reference model cannot skip fast-forward phases)"));
        }
    }
    if (batch_capacity == 0)
        status.update(Status::error("batch_capacity must be >= 1"));
    if (oracle.enabled && oracle.sample_every == 0)
        status.update(Status::error("oracle.sample_every must be >= 1"));
    if (promotion_cap_percent > 100.0) {
        status.update(Status::error(
            "promotion_cap_percent ", promotion_cap_percent,
            " exceeds 100"));
    }
    if (frag_fraction < 0.0 || frag_fraction > 1.0) {
        status.update(Status::error(
            "frag_fraction ", frag_fraction, " outside [0, 1]"));
    }
    if (phys_bytes == 0 && phys_headroom <= 0.0) {
        status.update(Status::error(
            "phys_headroom must be positive when phys_bytes is auto"));
    }
    if (heap_capacity < mem::kBytes2M) {
        status.update(Status::error(
            "heap_capacity ", heap_capacity, " below one 2MB region"));
    }
    if (telemetry.enabled && telemetry.top_k == 0)
        status.update(Status::error("telemetry.top_k must be >= 1"));
    if (telemetry.enabled && telemetry.attribution &&
        telemetry.attribution_regions == 0) {
        status.update(
            Status::error("telemetry.attribution_regions must be >= 1"));
    }
    if (telemetry.enabled && telemetry.audit &&
        telemetry.max_audit_records == 0) {
        status.update(
            Status::error("telemetry.max_audit_records must be >= 1"));
    }
    if (telemetry.enabled && telemetry.histograms &&
        telemetry.exemplar_k == 0) {
        status.update(Status::error(
            "telemetry.exemplar_k must be >= 1 when histograms are on"));
    }
    if (tenant.enabled()) {
        if (sampling.enabled()) {
            status.update(Status::error(
                "tenant mode is incompatible with sampling"));
        }
        if (oracle.enabled) {
            status.update(Status::error(
                "tenant mode is incompatible with the oracle (the "
                "reference model has no ASID/switch notion)"));
        }
        if (tenant.cores > num_cores) {
            status.update(Status::error(
                "tenant.cores (", tenant.cores, ") exceeds num_cores (",
                num_cores, ")"));
        }
        if (tenant.quantum_ops == 0) {
            status.update(
                Status::error("tenant.quantum_ops must be >= 1"));
        }
    }

    return status;
}

System::System(SystemConfig config) : config_(std::move(config))
{
    util::retainFreedHeap();
    // Config transforms must land before any core hardware is built:
    // the hw backend reshapes TLB/cache geometry, and a policy's
    // prepare hook may enable the 1GB PCC.
    if (!config_.hw.empty()) {
        if (util::Status status =
                tlb::HwRegistry::instance().apply(config_.hw, config_);
            !status.ok()) {
            fatal("hw backend '", config_.hw,
                  "': ", status.toString());
        }
    }
    if (!config_.policy_str.empty()) {
        if (util::Status status =
                os::PolicyRegistry::instance().prepare(
                    config_.policy_str, config_);
            !status.ok()) {
            fatal("policy '", config_.policy_str,
                  "': ", status.toString());
        }
    }
    PCCSIM_ASSERT(config_.num_cores >= 1);
    cores_.reserve(config_.num_cores);
    for (u32 c = 0; c < config_.num_cores; ++c)
        cores_.emplace_back(config_);
    core_process_.assign(config_.num_cores, nullptr);
    // Victim-buffer candidate source (Sec. 5.4.1 alternative). Only
    // wire the hook when that source is selected: observeL2Victim() is
    // a no-op otherwise, and an unset hook lets the TLB skip a
    // std::function call on every L2 displacement (a hot-path cost on
    // walk-heavy workloads).
    if (config_.pcc.source == pcc::CandidateSource::L2Victims) {
        for (auto &core : cores_) {
            core.tlb.setL2VictimHook(
                [&core](Vpn vpn, mem::PageSize size) {
                    core.pcc.observeL2Victim(vpn, size);
                });
        }
    }
}

System::~System() = default;

std::unique_ptr<os::Policy>
System::makePolicy()
{
    // Enum and selector both resolve through the registry; a bare
    // legacy key's factory builds from the config's policy params,
    // exactly what the old PolicyKind switch constructed.
    const std::string selector = config_.policy_str.empty()
                                     ? to_string(config_.policy)
                                     : config_.policy_str;
    util::Status status;
    std::unique_ptr<os::Policy> policy =
        os::PolicyRegistry::instance().make(selector, config_, status);
    if (!status.ok())
        fatal("policy '", selector, "': ", status.toString());
    PCCSIM_ASSERT(policy != nullptr);
    return policy;
}

os::Process &
System::processOnCore(CoreId core)
{
    PCCSIM_ASSERT(core < core_process_.size() && core_process_[core]);
    return *core_process_[core];
}

pcc::PccUnit &
System::pccUnit(CoreId core)
{
    return cores_.at(core).pcc;
}

void
System::chargeCore(CoreId core, Cycles cycles)
{
    cores_.at(core).cycles += cycles;
}

void
System::installShootdownHook()
{
    os_->setShootdownHook([this](Pid pid, Addr base, u64 bytes) -> Cycles {
        ++shootdowns_;
        // Under ASID switching the owner's entries are tagged with its
        // pid; the invalidation must target that tag or it would miss
        // them entirely. Flush mode (and legacy runs) tag everything 0.
        const Asid asid =
            (tsched_ &&
             config_.tenant.switch_mode == tenant::SwitchMode::Asid)
                ? static_cast<Asid>(pid)
                : 0;
        for (auto &core : cores_) {
            core.tlb.shootdown(base, bytes, asid);
            core.walker.shootdown(base, bytes);
            core.pcc.shootdown(base, bytes);
            // The mapping (size or frame) changed somewhere; drop the
            // last-translation fast path so the next access re-probes.
            if (config_.mutation != HotPathMutation::StaleLtc)
                core.last_page_bytes = 0;
        }
        if (oracle_)
            oracle_->onShootdown(base, bytes);
        // The IPI cost lands on every core running the owning process.
        // Per-4KB invalidations (migration) are batched by the kernel
        // and charged once per compaction, so only charge full
        // shootdowns (>= one region) here.
        if (bytes >= mem::kBytes2M) {
            Cycles cost = config_.costs.shootdown;
            // An injected shootdown storm: IPI delivery contends with
            // a burst of unrelated invalidations, inflating latency.
            if (injector_)
                cost += injector_->shootdownDelay();
            for (u32 c = 0; c < config_.num_cores; ++c) {
                if (core_process_[c] && core_process_[c]->pid() == pid)
                    cores_[c].cycles += cost;
            }
            // Trace only region-sized broadcasts: per-4KB migration
            // invalidations would flood the event log (they are batched
            // cost-wise for the same reason).
            if (tel_tracer_) {
                tel_tracer_->record(telemetry::EventKind::Shootdown,
                                    pid, base, bytes, cost);
            }
        }
        return 0;
    });
}

void
System::installFaultInjection()
{
    injector_.reset();
    if (!config_.faults.any())
        return;
    injector_ =
        std::make_unique<FaultInjector>(config_.faults, config_.seed);
    phys_->setAllocGate(
        [this](unsigned order) { return injector_->allowAlloc(order); });
    phys_->setCompactionGate(
        [this] { return injector_->compactionMovesAllowed(); });
}

void
System::installReclaimRanker()
{
    // Rank reclaim victims by the same hardware signal that ranks
    // promotions: page-walk frequency from the PCCs of every core
    // running the owner. Promoted 2MB regions were invalidated from
    // the 2MB PCC, but their walks (as 2MB-mapped pages) still feed
    // the 1GB PCC, so the containing gigabyte's frequency stands in
    // as the hotness estimate; a 2MB-PCC hit (post-demotion residue)
    // is an even stronger signal.
    os_->setReclaimRanker([this](Pid pid, Addr base) -> u64 {
        const Vpn v2m = mem::vpnOf(base, mem::PageSize::Huge2M);
        const Vpn v1g = mem::vpnOf(base, mem::PageSize::Huge1G);
        u64 score = 0;
        for (u32 c = 0; c < config_.num_cores; ++c) {
            // Tenant mode: the owner may be scheduled out right now,
            // but any shared core it ran on still holds its candidates
            // (addresses are globally disjoint, so no false matches).
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
}

void
System::setupTelemetry(size_t num_jobs)
{
    tel_registry_.reset();
    tel_sampler_.reset();
    tel_tracer_.reset();
    tel_profiler_.reset();
    tel_audit_.reset();
    for (auto &core : cores_)
        core.pcc.pcc2m().setEvictionHook({});
    tel_churn_ = telemetry::TopKChurnTracker{};
    tel_churn_counter_ = telemetry::Registry::Handle{};
    tel_tail_.reset();
    tel_tail_p50_ = telemetry::Registry::Handle{};
    tel_tail_p90_ = telemetry::Registry::Handle{};
    tel_tail_p99_ = telemetry::Registry::Handle{};
    tel_tail_p999_ = telemetry::Registry::Handle{};
    tel_tail_max_ = telemetry::Registry::Handle{};
    if (!config_.telemetry.enabled)
        return;

    tel_registry_ = std::make_unique<telemetry::Registry>();
    telemetry::Registry &reg = *tel_registry_;

    // Probes over state the simulator maintains anyway: registering
    // them costs the instrumented modules nothing, and reading happens
    // only at interval boundaries and run end.
    reg.probe("tlb_accesses", [this] { return sumCores(kCoreTlbAccesses); });
    reg.probe("l1_hits", [this] {
        return sumCores([](const CoreState &c) { return c.tlb.l1Hits(); });
    });
    reg.probe("l2_hits", [this] {
        return sumCores([](const CoreState &c) { return c.tlb.l2Hits(); });
    });
    reg.probe("walks", [this] { return sumCores(kCoreWalks); });
    reg.probe("faults", [this] {
        return sumCores([](const CoreState &c) { return c.faults; });
    });
    reg.probe("pcc_occupancy", [this] {
        return sumCores(
            [](const CoreState &c) { return c.pcc.occupancy(); });
    });
    reg.probe("promotions", [this] { return os_->stats().promotions; });
    reg.probe("promotions_1g", [this] { return os_->stats().promotions_1g; });
    reg.probe("demotions", [this] { return os_->stats().demotions; });
    reg.probe("reclaim_events",
              [this] { return os_->stats().reclaim_events; });
    reg.probe("reclaimed_frames",
              [this] { return os_->stats().reclaimed_frames; });
    reg.probe("compactions", [this] { return phys_->stats().compactions; });
    reg.probe("shootdowns", [this] { return shootdowns_; });
    reg.probe("os_background_cycles",
              [this] { return os_->backgroundCycles(); });
    for (size_t j = 0; j < num_jobs; ++j) {
        reg.probe("job" + std::to_string(j) + "_cycles",
                  [this, j] { return jobWall(static_cast<u32>(j)); });
    }
    // Per-tenant fairness/starvation telemetry. Only registered for
    // genuinely multi-tenant runs: a 1-tenant tenant-mode run must
    // produce the byte-identical telemetry report of the legacy
    // single-process path.
    if (config_.tenant.enabled() && num_jobs > 1) {
        reg.probe("tenant_switches",
                  [this] { return tsched_ ? tsched_->switches() : 0; });
        for (size_t j = 0; j < num_jobs; ++j) {
            const std::string prefix = "tenant" + std::to_string(j);
            reg.probe(prefix + "_switches", [this, j] {
                return tsched_ ? tsched_->switchesOf(
                                     static_cast<TenantId>(j))
                               : 0;
            });
            reg.probe(prefix + "_ops", [this, j] {
                return tsched_
                           ? tsched_->opsOf(static_cast<TenantId>(j))
                           : 0;
            });
            reg.probe(prefix + "_walks",
                      [this, j] { return job_tally_[j].walks; });
            reg.probe(prefix + "_faults",
                      [this, j] { return job_tally_[j].faults; });
        }
    }
    tel_churn_counter_ = reg.counter("pcc_topk_churn");
    if (config_.telemetry.histograms) {
        tel_tail_ = std::make_unique<telemetry::TailRecorder>(
            config_.num_cores, static_cast<u32>(num_jobs),
            config_.telemetry.exemplar_k);
        // Windowed translation-latency quantiles: computed over the
        // just-closed interval window and published as gauges, so the
        // series read "p99 this interval", not "p99 so far".
        tel_tail_p50_ = reg.counter("tail_p50_cycles");
        tel_tail_p90_ = reg.counter("tail_p90_cycles");
        tel_tail_p99_ = reg.counter("tail_p99_cycles");
        tel_tail_p999_ = reg.counter("tail_p999_cycles");
        tel_tail_max_ = reg.counter("tail_max_cycles");
    }

    tel_sampler_ = std::make_unique<telemetry::IntervalSampler>(reg);
    using telemetry::SampleKind;
    for (const char *name :
         {"walks", "l1_hits", "l2_hits", "faults", "promotions",
          "demotions", "compactions", "reclaim_events", "shootdowns",
          "pcc_topk_churn"}) {
        tel_sampler_->track(name, SampleKind::Cumulative);
    }
    tel_sampler_->track("pcc_occupancy", SampleKind::Gauge);
    for (size_t j = 0; j < num_jobs; ++j) {
        tel_sampler_->track("job" + std::to_string(j) + "_cycles",
                            SampleKind::Gauge);
    }
    if (config_.tenant.enabled() && num_jobs > 1) {
        tel_sampler_->track("tenant_switches", SampleKind::Cumulative);
        for (size_t j = 0; j < num_jobs; ++j) {
            const std::string prefix = "tenant" + std::to_string(j);
            tel_sampler_->track(prefix + "_ops",
                                SampleKind::Cumulative);
            tel_sampler_->track(prefix + "_walks",
                                SampleKind::Cumulative);
        }
    }
    if (tel_tail_) {
        for (const char *name :
             {"tail_p50_cycles", "tail_p90_cycles", "tail_p99_cycles",
              "tail_p999_cycles", "tail_max_cycles"}) {
            tel_sampler_->track(name, SampleKind::Gauge);
        }
    }

    if (config_.telemetry.trace_events) {
        tel_tracer_ = std::make_unique<telemetry::EventTracer>(
            config_.telemetry.max_events);
        tel_tracer_->setClock([this] { return total_accesses_; });
        os_->setTracer(tel_tracer_.get());
        if (injector_)
            injector_->setTracer(tel_tracer_.get());
    }

    if (config_.telemetry.attribution) {
        tel_profiler_ = std::make_unique<telemetry::RegionProfiler>(
            config_.telemetry.attribution_regions);
        // PCC evictions flow through a per-cache hook so attribution
        // sees the victim region with the core's owning process.
        for (u32 c = 0; c < config_.num_cores; ++c) {
            cores_[c].pcc.pcc2m().setEvictionHook([this, c](Vpn region) {
                if (core_process_[c]) {
                    tel_profiler_->recordPccEviction(
                        core_process_[c]->pid(), region);
                }
            });
        }
    }
    if (config_.telemetry.audit) {
        tel_audit_ = std::make_unique<telemetry::PromotionAuditLog>(
            config_.telemetry.max_audit_records);
        tel_audit_->setClock([this] { return total_accesses_; });
        os_->setAuditLog(tel_audit_.get());
    }
}

void
System::sampleTelemetryInterval()
{
    // Merge the ranked heads of every core's PCC: the churn of that
    // union is how much of the system-wide candidate set turned over
    // this interval.
    std::vector<Vpn> merged;
    for (const auto &core : cores_) {
        auto top = core.pcc.topRegions(config_.telemetry.top_k);
        merged.insert(merged.end(), top.begin(), top.end());
    }
    tel_churn_counter_ += tel_churn_.update(std::move(merged));
    if (tel_tail_) {
        // Quantiles of the interval window just ending; the window
        // then resets so each sample is an independent slice of time.
        const telemetry::LatencyHistogram &window = tel_tail_->window();
        tel_tail_p50_.set(window.quantile(0.50));
        tel_tail_p90_.set(window.quantile(0.90));
        tel_tail_p99_.set(window.quantile(0.99));
        tel_tail_p999_.set(window.quantile(0.999));
        tel_tail_max_.set(window.maxValue());
        tel_tail_->resetWindow();
    }
    tel_sampler_->sample();
    if (tel_tracer_) {
        tel_tracer_->record(telemetry::EventKind::Interval, 0, 0, 0,
                            intervals_);
    }
}

void
System::runInvariantChecks()
{
    util::Status status =
        checkMemoryConsistency(*os_, *phys_);
    for (u32 c = 0; c < config_.num_cores; ++c) {
        if (!core_process_[c])
            continue;
        const os::Process &proc = *core_process_[c];
        status.update(checkTlbResidency(cores_[c].tlb, proc));
        status.update(checkPccResidency(cores_[c].pcc, proc));
    }
    ++invariant_checks_;
    if (!status.ok()) {
        ++invariant_failures_;
        if (first_invariant_failure_.empty()) {
            first_invariant_failure_ = status.toString();
            warn("invariant violation (interval ", intervals_,
                 "): ", first_invariant_failure_);
        }
    }
}

Cycles
System::chargeWalkRefs(CoreState &core, const os::Process &proc,
                       Addr vaddr, unsigned refs, mem::PageSize size)
{
    if (!config_.timing.pt_through_dcache) {
        return config_.timing.walk_base +
               static_cast<Cycles>(refs) * config_.timing.walk_ref;
    }
    // Synthetic, per-process page-table entry addresses: walks fetch
    // real cache lines, so PTE locality (8 entries/line) and PT cache
    // pressure emerge naturally instead of being a constant.
    const Addr pt_base = 0xFA00'0000'0000ull +
                         (static_cast<Addr>(proc.pid()) << 44);
    const Addr pte_addr =
        pt_base + mem::vpnOf(vaddr, mem::PageSize::Base4K) * 8;
    const Addr pmd_addr = pt_base + 0x0080'0000'0000ull +
                          mem::vpnOf(vaddr, mem::PageSize::Huge2M) * 8;
    const Addr pud_addr = pt_base + 0x00C0'0000'0000ull +
                          mem::vpnOf(vaddr, mem::PageSize::Huge1G) * 8;
    const Addr pgd_addr =
        pt_base + 0x00E0'0000'0000ull + (vaddr >> 39) * 8;

    // Deepest level first; a walk with P refs touches the P deepest
    // levels of its leaf depth.
    Addr levels[4];
    unsigned depth = 0;
    switch (size) {
      case mem::PageSize::Base4K:
        levels[depth++] = pte_addr;
        [[fallthrough]];
      case mem::PageSize::Huge2M:
        levels[depth++] = pmd_addr;
        [[fallthrough]];
      case mem::PageSize::Huge1G:
        levels[depth++] = pud_addr;
        levels[depth++] = pgd_addr;
        break;
    }

    Cycles cost = 0;
    const unsigned n = std::min(refs, depth);
    for (unsigned i = 0; i < n; ++i)
        cost += core.dcache.access(levels[i]);
    return cost;
}

Cycles
System::doAccess(CoreState &core, os::Process &proc, Addr vaddr,
                 bool write)
{
    (void)write;
    Cycles cost = config_.timing.op_cost;
    ++core.accesses;
    // Keep liveness knowledge current even for huge-backed pages, whose
    // accesses never fault again — the pressure reclaimer must be able
    // to tell data from bloat.
    proc.noteTouched(vaddr);

    if (!proc.faulted(vaddr)) {
        const bool want_huge = policy_->wantHugeFault(proc, vaddr);
        const Cycles fault_cost =
            os_->handleFault(proc, vaddr, want_huge);
        cost += fault_cost;
        ++core.faults;
        // The fault handler's walk loaded the translation.
        const mem::PageSize filled = proc.mappingSizeOf(vaddr);
        core.tlb.fill(vaddr, filled);
        core.noteTranslated(vaddr, filled);
        if (oracle_) {
            oracle_->onFault(
                static_cast<u32>(&core - cores_.data()), proc.pid(),
                vaddr, filled);
        }
        cost += core.dcache.access(vaddr);
        if (tel_tail_) {
            recordTail(core, proc, vaddr, telemetry::TailOutcome::Fault,
                       cost, 0, fault_cost);
        }
        return cost;
    }

    // Last-translation fast path: the page is still L1-resident and
    // MRU (any mapping change since would have shot it down), so skip
    // the mapping query and the TLB set scan but account the access
    // identically to the L1-hit path below.
    if (config_.last_translation_cache &&
        vaddr - core.last_page_base < core.last_page_bytes) {
        core.tlb.noteRepeatL1Hit();
        if (oracle_) {
            oracle_->onLtcAccess(
                static_cast<u32>(&core - cores_.data()), proc.pid(),
                vaddr);
        }
        cost += core.dcache.access(vaddr);
        if (tel_tail_) {
            recordTail(core, proc, vaddr, telemetry::TailOutcome::L1,
                       cost, 0, 0);
        }
        return cost;
    }

    const mem::PageSize size = proc.mappingSizeOf(vaddr);
    const tlb::HitLevel level = core.tlb.access(vaddr, size);
    Cycles walk_cost = 0;
    if (level == tlb::HitLevel::L2) {
        cost += config_.timing.l2_tlb_hit;
    } else if (level == tlb::HitLevel::Miss) {
        const auto walk = core.walker.walk(proc.pageTable(), vaddr);
        PCCSIM_DCHECK(walk.present, "walk missed a faulted page");
        walk_cost = chargeWalkRefs(
            core, proc, vaddr, walk.memory_refs, walk.size);
        cost += walk_cost;
        core.walk_cycles += walk_cost;
        if (config_.mutation == HotPathMutation::SkipL2Fill)
            core.tlb.l1Of(size).access(mem::vpnOf(vaddr, size));
        else
            core.tlb.fill(vaddr, size);
        if (tel_profiler_ || tel_audit_) {
            // Attribute the walk before observeWalk mutates the PCC:
            // pcc_hit must reflect whether the region was tracked when
            // the walk retired, not after this walk's own touch.
            const Vpn v2m = mem::vpnOf(vaddr, mem::PageSize::Huge2M);
            const u32 depth = walk.size == mem::PageSize::Base4K ? 4
                              : walk.size == mem::PageSize::Huge2M ? 3
                                                                   : 2;
            const u32 pwc_hits =
                depth - std::min(depth, walk.memory_refs);
            if (tel_profiler_) {
                const bool pcc_hit =
                    core.pcc.pcc2m().frequencyOf(v2m).has_value();
                tel_profiler_->recordWalk(proc.pid(), v2m, walk_cost,
                                          pwc_hits, pcc_hit);
            }
            if (tel_audit_)
                tel_audit_->chargeWalk(proc.pid(), v2m, walk_cost);
        }
        core.pcc.observeWalk(vaddr, walk);
    }
    if (oracle_) {
        oracle_->onAccess(static_cast<u32>(&core - cores_.data()),
                          proc.pid(), vaddr, size, level);
    }
    core.noteTranslated(vaddr, size);
    cost += core.dcache.access(vaddr);
    if (tel_tail_) {
        const telemetry::TailOutcome outcome =
            level == tlb::HitLevel::Miss ? telemetry::TailOutcome::Walk
            : level == tlb::HitLevel::L2 ? telemetry::TailOutcome::L2
                                         : telemetry::TailOutcome::L1;
        recordTail(core, proc, vaddr, outcome, cost, walk_cost, 0);
    }
    return cost;
}

void
System::recordTail(const CoreState &core, const os::Process &proc,
                   Addr vaddr, telemetry::TailOutcome outcome,
                   Cycles cost, Cycles walk_cost, Cycles stall_cost)
{
    tel_tail_->record(static_cast<u32>(&core - cores_.data()), core.job,
                      proc.pid(), total_accesses_,
                      mem::pageBase(vaddr, mem::PageSize::Huge2M),
                      outcome, cost, walk_cost, stall_cost, shootdowns_,
                      core.faults);
}

void
System::maybeReleaseBarrier(u32 job)
{
    bool all_parked = true;
    for (const auto &lane : lanes_) {
        if (lane.job == job && !lane.done && !lane.at_barrier) {
            all_parked = false;
            break;
        }
    }
    if (!all_parked)
        return;

    // Barrier wait: every core of the job advances to the job maximum.
    Cycles max_cycles = 0;
    for (const auto &lane : lanes_)
        if (lane.job == job)
            max_cycles = std::max(max_cycles, cores_[lane.core].cycles);
    for (auto &lane : lanes_) {
        if (lane.job == job) {
            cores_[lane.core].cycles = max_cycles;
            lane.at_barrier = false;
        }
    }
}

void
System::tenantClaim(const LaneState &lane)
{
    os::Process *proc = job_process_[lane.job];
    if (!tsched_->claim(lane.core, lane.job))
        return; // tenant already current: no switch, no cost

    CoreState &core = cores_[lane.core];
    // Charged identically in both switch modes, so a flush-vs-ASID
    // comparison isolates the refill misses — the quantity Fig. 10
    // reports — rather than folding in direct switch overhead.
    core.cycles += config_.costs.context_switch;
    if (config_.tenant.switch_mode == tenant::SwitchMode::Flush) {
        // Non-PCID CR3 write: the whole TLB hierarchy and the page-walk
        // caches are lost (the paper's multiprogrammed baseline).
        core.tlb.flushAll();
        core.walker.flushAll();
    } else {
        // PCID hardware: entries of both tenants coexist, tagged; the
        // switch just retags subsequent lookups and fills.
        core.tlb.setCurrentAsid(static_cast<Asid>(proc->pid()));
    }
    // The last-translation cache holds the *departing* tenant's page:
    // never valid for the incoming tenant (disjoint address spaces),
    // and possibly evicted from L1 by the time the owner returns.
    core.last_page_bytes = 0;
    core_process_[lane.core] = proc;
    core.pid = proc->pid();
    core.job = lane.job;
}

void
System::onInterval(u32 total_lanes)
{
    ++intervals_;
    next_interval_at_ +=
        config_.interval_accesses * std::max<u32>(1, total_lanes);
    if (injector_ && injector_->shockDue(intervals_))
        shock_pins_ += injector_->applyShock(*phys_);
    policy_->onInterval(*this);
    if (config_.check_invariants)
        runInvariantChecks();
    // Sample after the policy acted so this interval's promotions land
    // in this interval's row; series length therefore equals
    // RunResult::intervals.
    if (tel_sampler_)
        sampleTelemetryInterval();
}

// Flatten the whole consuming path (doAccess, the TLB and cache
// probes, the fault handler's entry) into the loop: the per-op call
// overhead is measurable at the ns/access scale this loop targets.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((flatten))
#endif
void
System::runBatchLoop(std::vector<Cycles> &job_wall,
                     std::vector<u32> &job_live, u32 total_lanes,
                     u32 quantum)
{
    const bool sampled = config_.sampling.enabled();
    u32 live = static_cast<u32>(lanes_.size());
    while (live > 0) {
        bool progressed = false;
        for (auto &lane : lanes_) {
            if (lane.done || lane.at_barrier)
                continue;
            progressed = true;
            if (tsched_)
                tenantClaim(lane);
            CoreState &core = cores_[lane.core];
            os::Process &proc = *core_process_[lane.core];
            workloads::AccessBuffer &buf = *lane.buf;
            // Snapshot the core's counters so this turn's deltas can be
            // banked against the job that ran (see JobTally).
            const u64 t_acc = core.accesses;
            const u64 t_tlb = core.tlb.accesses();
            const u64 t_l1 = core.tlb.l1Hits();
            const u64 t_l2 = core.tlb.l2Hits();
            const u64 t_walks = core.tlb.walks();
            const u64 t_faults = core.faults;
            const u64 t_refs = core.walker.totalRefs();
            u32 b = 0;
            while (b < quantum) {
                if (lane.consumed == buf.size()) {
                    // Buffer drained: take a deferred batch end, or
                    // refill. Refills happen lazily *here*, at the
                    // start of the consuming turn, so barrier/EOF
                    // discovery and host-side production land at the
                    // same point of the interleaving for every buffer
                    // capacity.
                    if (lane.pending_barrier) {
                        lane.pending_barrier = false;
                        lane.at_barrier = true;
                        maybeReleaseBarrier(lane.job);
                        break;
                    }
                    if (lane.pending_eof) {
                        lane.done = true;
                        --live;
                        if (--job_live[lane.job] == 0)
                            job_wall[lane.job] = jobWall(lane.job);
                        maybeReleaseBarrier(lane.job);
                        break;
                    }
                    buf.clear();
                    lane.consumed = 0;
                    if (lane.gen.next()) {
                        lane.pending_barrier =
                            lane.gen.value() ==
                            workloads::BatchEnd::Barrier;
                        PCCSIM_ASSERT(
                            !buf.empty() || lane.pending_barrier,
                            "batchLane yielded an empty Ops batch");
                    } else {
                        lane.pending_eof = true;
                    }
                    continue;
                }
                u32 chunk = std::min(buf.size() - lane.consumed,
                                     quantum - b);
                if (sampled) {
                    chunk = static_cast<u32>(
                        std::min<u64>(chunk, phase_left_));
                }
                const Addr *addrs = buf.addrs() + lane.consumed;
                const u8 *kinds = buf.kinds() + lane.consumed;
                if (!sampled ||
                    sample_phase_ != SamplePhase::FastForward) {
                    for (u32 i = 0; i < chunk; ++i) {
                        core.cycles += doAccess(
                            core, proc, addrs[i],
                            kinds[i] ==
                                static_cast<u8>(
                                    workloads::OpKind::Store));
                        ++total_accesses_;
                        if (total_accesses_ >= next_interval_at_)
                            onInterval(total_lanes);
                    }
                    if (sampled)
                        detailed_total_ += chunk;
                } else {
                    for (u32 i = 0; i < chunk; ++i) {
                        doFastForward(core, proc, addrs[i]);
                        ++total_accesses_;
                        if (total_accesses_ >= next_interval_at_)
                            onInterval(total_lanes);
                    }
                    ff_total_ += chunk;
                }
                lane.consumed += chunk;
                b += chunk;
                if (sampled) {
                    phase_left_ -= chunk;
                    if (phase_left_ == 0) {
                        switch (sample_phase_) {
                          case SamplePhase::Warming:
                            beginMeasurement();
                            break;
                          case SamplePhase::Measuring:
                            closeSampleWindow();
                            break;
                          case SamplePhase::FastForward:
                            beginSampleWindow();
                            break;
                        }
                    }
                }
            }
            JobTally &tally = job_tally_[lane.job];
            tally.accesses += core.accesses - t_acc;
            tally.tlb_accesses += core.tlb.accesses() - t_tlb;
            tally.l1_hits += core.tlb.l1Hits() - t_l1;
            tally.l2_hits += core.tlb.l2Hits() - t_l2;
            tally.walks += core.tlb.walks() - t_walks;
            tally.faults += core.faults - t_faults;
            tally.walker_refs += core.walker.totalRefs() - t_refs;
            if (tsched_)
                tsched_->noteOps(lane.job, core.accesses - t_acc);
            if (config_.progress) {
                config_.progress->store(total_accesses_,
                                        std::memory_order_relaxed);
            }
            if (config_.cancel &&
                config_.cancel->load(std::memory_order_relaxed)) {
                throw CancelledError(
                    "run cancelled after " +
                    std::to_string(total_accesses_) + " accesses");
            }
        }
        PCCSIM_ASSERT(progressed || live == 0,
                      "scheduler deadlock: all live lanes parked");
    }
}

void
System::doFastForward(CoreState &core, os::Process &proc, Addr vaddr)
{
    ++core.accesses;
    // Accessed-bit state *before* this access, mirroring the
    // pte_was_accessed observation a real walk would have made.
    const bool was_touched = proc.touched(vaddr);
    proc.noteTouched(vaddr);
    Cycles cost = ff_charge_;
    if (!proc.faulted(vaddr)) {
        const bool want_huge = policy_->wantHugeFault(proc, vaddr);
        cost += os_->handleFault(proc, vaddr, want_huge);
        ++core.faults;
        // No TLB fill, no dcache touch: fast-forward keeps the OS
        // truthful, not the hardware warm.
    }
    // Bresenham-thinned PCC feed at the walks-per-access rate of the
    // last detailed window: integer state, deterministic, and cheap.
    pcc_rate_acc_ += pcc_rate_num_;
    if (pcc_rate_acc_ >= pcc_rate_den_) {
        pcc_rate_acc_ -= pcc_rate_den_;
        core.pcc.observeSampled(
            vaddr, proc.mappingSizeOf(vaddr) == mem::PageSize::Base4K,
            was_touched);
    }
    core.cycles += cost;
}

void
System::beginSampleWindow()
{
    // The measured half is W/2 rounded up, so W = 1 degenerates to a
    // warm-up-free single measured access instead of an empty window.
    const u64 w = config_.sampling.window;
    win_measured_ = (w + 1) / 2;
    const u64 warm = w - win_measured_;
    if (warm == 0) {
        beginMeasurement();
        return;
    }
    sample_phase_ = SamplePhase::Warming;
    phase_left_ = warm;
}

void
System::beginMeasurement()
{
    sample_phase_ = SamplePhase::Measuring;
    phase_left_ = win_measured_;
    win_start_walks_ = sumCores(kCoreWalks);
    win_start_walk_cycles_ = sumCores(kCoreWalkCycles);
    win_start_tlb_accesses_ = sumCores(kCoreTlbAccesses);
    win_start_cycles_ = sumCores(kCoreCycles);
}

void
System::closeSampleWindow()
{
    const u64 w = win_measured_;
    const u64 walks = sumCores(kCoreWalks) - win_start_walks_;
    const u64 walk_cycles =
        sumCores(kCoreWalkCycles) - win_start_walk_cycles_;
    const u64 tlb_accesses =
        sumCores(kCoreTlbAccesses) - win_start_tlb_accesses_;
    const u64 cycles = sumCores(kCoreCycles) - win_start_cycles_;
    win_miss_rates_.push_back(
        tlb_accesses == 0
            ? 0.0
            : 100.0 * static_cast<double>(walks) /
                  static_cast<double>(tlb_accesses));
    win_walk_cycles_.push_back(static_cast<double>(walk_cycles) /
                               static_cast<double>(w));
    // Fast-forward charging and PCC thinning both inherit this
    // window's rates (integer arithmetic keeps runs deterministic).
    ff_charge_ = cycles / w;
    pcc_rate_num_ = walks;
    pcc_rate_den_ = w;
    pcc_rate_acc_ = 0;
    sample_phase_ = SamplePhase::FastForward;
    phase_left_ = config_.sampling.fastforward;
}

SamplingStats
System::sampleStats() const
{
    SamplingStats s;
    s.enabled = true;
    s.window = config_.sampling.window;
    s.fastforward = config_.sampling.fastforward;
    s.windows = win_miss_rates_.size();
    s.detailed_accesses = detailed_total_;
    s.ff_accesses = ff_total_;
    const auto meanCi = [](const std::vector<double> &v, double &mean,
                           double &ci95) {
        if (v.empty()) {
            mean = 0.0;
            ci95 = 0.0;
            return;
        }
        double sum = 0.0;
        for (double x : v)
            sum += x;
        mean = sum / static_cast<double>(v.size());
        if (v.size() < 2) {
            ci95 = 0.0;
            return;
        }
        double var = 0.0;
        for (double x : v)
            var += (x - mean) * (x - mean);
        var /= static_cast<double>(v.size() - 1);
        ci95 = 1.96 * std::sqrt(var / static_cast<double>(v.size()));
    };
    meanCi(win_miss_rates_, s.miss_rate_mean, s.miss_rate_ci95);
    meanCi(win_walk_cycles_, s.walk_cycles_mean, s.walk_cycles_ci95);
    return s;
}

Cycles
System::jobWall(u32 job) const
{
    Cycles wall = 0;
    for (const auto &lane : lanes_)
        if (lane.job == job)
            wall = std::max(wall, cores_[lane.core].cycles);
    return wall;
}

RunResult
System::run(std::vector<Job> jobs)
{
    if (util::Status status = config_.validate(); !status.ok())
        fatal("invalid SystemConfig: ", status.toString());
    PCCSIM_ASSERT(!jobs.empty());
    u64 phase_t0 = util::HostProfile::nowNanos();
    u32 total_lanes = 0;
    for (const auto &job : jobs)
        total_lanes += job.lanes;
    const bool tenant_mode = config_.tenant.enabled();
    if (tenant_mode) {
        // Tenants are single-lane streams time-sharing tenant.cores
        // cores; the whole point is more tenants than cores.
        for (const auto &job : jobs) {
            PCCSIM_ASSERT(job.lanes == 1,
                          "tenant mode runs single-lane jobs");
        }
    } else {
        PCCSIM_ASSERT(total_lanes <= config_.num_cores,
                      "more lanes than cores");
    }

    // ---- set up processes and workloads ----
    u64 total_footprint = 0;
    std::vector<os::Process *> procs;
    // Create the OS late: we need footprints for auto-sizing physical
    // memory, but processes live inside the OS. Solve by creating the
    // OS with a deferred-size physical memory: do a dry setup pass on
    // scratch processes first.
    u64 declared = 0;
    {
        for (auto &job : jobs) {
            os::Process scratch(999, config_.heap_capacity);
            job.workload->setup(scratch);
            // Use the VMA-rounded footprint: promotion budgets and
            // coverage percentages are defined over whole regions.
            declared += scratch.footprintBytes();
        }
    }
    u64 phys_bytes = config_.phys_bytes;
    if (phys_bytes == 0) {
        phys_bytes = static_cast<u64>(
            static_cast<double>(declared) * config_.phys_headroom);
        phys_bytes += 64ull << 20;
        phys_bytes = mem::alignUp(phys_bytes, mem::PageSize::Huge1G);
    }
    phys_ = std::make_unique<mem::PhysicalMemory>(phys_bytes);
    installFaultInjection();

    os::Os::Params os_params;
    os_params.costs = config_.costs;
    os_params.promote_retries = config_.promote_retries;
    os_params.reclaim_on_pressure = config_.reclaim_on_pressure;
    if (config_.promotion_cap_percent == 0.0) {
        os_params.promotion_cap_bytes = 0;
    } else if (config_.promotion_cap_percent > 0.0) {
        // Round the budget up to whole 2MB regions so small-footprint
        // runs can still express the paper's 1-4% utility points.
        os_params.promotion_cap_bytes = mem::alignUp(
            static_cast<u64>(config_.promotion_cap_percent / 100.0 *
                             static_cast<double>(declared)),
            mem::PageSize::Huge2M);
    }
    os_ = std::make_unique<os::Os>(os_params, *phys_);
    policy_ = makePolicy();
    installShootdownHook();
    installReclaimRanker();
    if (config_.record_trace) {
        os_->setPromotionHook(
            [this](Pid pid, Addr base, mem::PageSize size) {
                recorded_.record(total_accesses_, pid, base, size);
            });
    }
    setupTelemetry(jobs.size());
    oracle_.reset();
    if (config_.oracle.enabled) {
        oracle_ = std::make_unique<DiffChecker>(
            config_.oracle, config_.tlb, config_.num_cores);
    }

    if (config_.frag_fraction > 0.0) {
        Rng rng(config_.seed ^ 0xf7a6);
        phys_->fragment(config_.frag_fraction, rng);
        // Fragmented memory has no readily-free 2MB blocks: huge
        // frames must be produced by compaction (Sec. 5.1.1).
        phys_->scramble(rng);
    }

    // Real setup on the real processes.
    total_footprint = 0;
    for (u32 j = 0; j < jobs.size(); ++j) {
        os::Process &proc = os_->createProcess(config_.heap_capacity);
        jobs[j].workload->setup(proc);
        if (config_.process_setup)
            config_.process_setup(proc, j);
        total_footprint += jobs[j].workload->footprintBytes();
        procs.push_back(&proc);
    }

    // ---- lanes and core assignment ----
    lanes_.clear();
    // The lane quantum, which is also every lane's buffer capacity: a
    // single lane owns the machine and drains buffers as deep as
    // configured; with siblings, lanes rotate on kSchedQuantum (in
    // tenant mode, the configured tenant quantum), so a production
    // burst covers exactly one turn.
    const u32 quantum =
        total_lanes == 1 ? std::max<u32>(1, config_.batch_capacity)
        : tenant_mode    ? std::max<u32>(1, config_.tenant.quantum_ops)
                         : kSchedQuantum;
    u32 core_cursor = 0;
    for (u32 j = 0; j < jobs.size(); ++j) {
        for (u32 l = 0; l < jobs[j].lanes; ++l) {
            LaneState lane;
            // Allocate the buffer before creating the coroutine:
            // batchLane() captures a reference to it, and the heap
            // allocation keeps that reference stable across lanes_
            // vector relocations.
            lane.buf = std::make_unique<workloads::AccessBuffer>(quantum);
            lane.gen =
                jobs[j].workload->batchLane(l, jobs[j].lanes, *lane.buf);
            // Tenant mode: jobs are single-lane, tenants j map onto
            // shared cores round-robin (tenant j -> core j % cores).
            const u32 core =
                tenant_mode ? j % config_.tenant.cores : core_cursor;
            lane.core = core;
            lane.job = j;
            lanes_.push_back(std::move(lane));
            if (!tenant_mode || j < config_.tenant.cores) {
                // First tenant landing on each shared core becomes its
                // boot-time current process; later tenants take over
                // via tenantClaim (a counted, costed switch).
                cores_[core].pid = procs[j]->pid();
                cores_[core].job = j;
                cores_[core].lane = l;
                core_process_[core] = procs[j];
            }
            ++core_cursor;
        }
    }
    const u32 used_cores =
        tenant_mode
            ? std::min<u32>(config_.tenant.cores,
                            static_cast<u32>(jobs.size()))
            : core_cursor;
    for (u32 c = used_cores; c < config_.num_cores; ++c)
        core_process_[c] = procs.empty() ? nullptr : procs[0];

    job_process_ = procs;
    job_tally_.assign(jobs.size(), JobTally{});
    tsched_.reset();
    if (tenant_mode) {
        tsched_ = std::make_unique<tenant::Scheduler>(
            config_.tenant, static_cast<u32>(jobs.size()));
        for (u32 c = 0; c < used_cores; ++c) {
            // Seed the boot-time occupant (claim-free, like the lane
            // assignment above) and, under ASID switching, tag the
            // core's TLB with its pid-derived ASID. Tenant 0 keeps
            // ASID 0, so a 1-tenant ASID run produces exactly the raw
            // (untagged) TLB keys of the single-process path.
            tsched_->seed(c, c);
            if (config_.tenant.switch_mode == tenant::SwitchMode::Asid) {
                cores_[c].tlb.setCurrentAsid(
                    static_cast<Asid>(procs[c]->pid()));
            }
        }
    }

    total_accesses_ = 0;
    next_interval_at_ =
        config_.interval_accesses * std::max<u32>(1, total_lanes);
    intervals_ = 0;
    shootdowns_ = 0;
    shock_pins_ = 0;
    invariant_checks_ = 0;
    invariant_failures_ = 0;
    first_invariant_failure_.clear();

    win_miss_rates_.clear();
    win_walk_cycles_.clear();
    detailed_total_ = 0;
    ff_total_ = 0;
    ff_charge_ = 0;
    pcc_rate_num_ = 0;
    pcc_rate_den_ = 1;
    pcc_rate_acc_ = 0;
    if (config_.sampling.enabled())
        beginSampleWindow();

    std::vector<Cycles> job_wall(jobs.size(), 0);
    std::vector<u32> job_live(jobs.size(), 0);
    for (const auto &lane : lanes_)
        ++job_live[lane.job];

    // ---- main scheduling loop ----
    {
        const u64 now = util::HostProfile::nowNanos();
        util::HostProfile::global().add("workload_setup",
                                        now - phase_t0);
        phase_t0 = now;
    }
    runBatchLoop(job_wall, job_live, total_lanes, quantum);

    // ---- collect results ----
    util::HostProfile::global().add(
        "simulate", util::HostProfile::nowNanos() - phase_t0);
    if (config_.check_invariants)
        runInvariantChecks(); // final sweep over the end state
    if (oracle_) {
        // Counter audit: catches any divergence a sampled compare
        // skipped (the reference state drifts from the real state at
        // the first divergence, so the totals disagree).
        for (u32 c = 0; c < config_.num_cores; ++c) {
            const auto &t = cores_[c].tlb;
            oracle_->finish(c, t.accesses(), t.l1Hits(), t.l2Hits(),
                            t.walks());
        }
    }

    RunResult result;
    result.total_accesses = total_accesses_;
    result.os_background_cycles = os_->backgroundCycles();
    result.compactions = phys_->stats().compactions;
    result.shootdowns = shootdowns_;
    result.intervals = intervals_;

    auto &res = result.resilience;
    if (injector_) {
        res.injected_alloc_fails = injector_->allocFailsInjected();
        res.injected_compaction_fails =
            injector_->compactionFailsInjected();
        res.shootdown_storms = injector_->stormsInjected();
        res.frag_shocks = injector_->shocksApplied();
        res.shock_blocks_pinned = shock_pins_;
    }
    res.promote_retries = os_->stats().promote_retries;
    res.promote_retry_successes = os_->stats().promote_retry_successes;
    res.reclaim_events = os_->stats().reclaim_events;
    res.reclaim_demotions = os_->stats().reclaim_demotions;
    res.reclaimed_frames = os_->stats().reclaimed_frames;
    res.invariant_checks = invariant_checks_;
    res.invariant_failures = invariant_failures_;
    res.first_invariant_failure = first_invariant_failure_;

    if (config_.sampling.enabled())
        result.sampling = sampleStats();

    for (u32 j = 0; j < jobs.size(); ++j) {
        JobResult job_result;
        job_result.workload = jobs[j].workload->name();
        job_result.pid = procs[j]->pid();
        job_result.wall_cycles = job_wall[j];
        const JobTally &tally = job_tally_[j];
        job_result.accesses = tally.accesses;
        job_result.tlb_accesses = tally.tlb_accesses;
        job_result.l1_hits = tally.l1_hits;
        job_result.l2_hits = tally.l2_hits;
        job_result.walks = tally.walks;
        job_result.faults = tally.faults;
        job_result.refs_per_walk =
            tally.walks == 0
                ? 0.0
                : static_cast<double>(tally.walker_refs) /
                      static_cast<double>(tally.walks);
        job_result.promotions = procs[j]->promotions();
        job_result.promotions_1g = procs[j]->promotions1G();
        job_result.demotions = procs[j]->demotions();
        job_result.footprint_bytes = procs[j]->footprintBytes();
        job_result.promoted_bytes = procs[j]->promotedBytes();
        job_result.bloat_pages = procs[j]->bloatPages();
        result.jobs.push_back(std::move(job_result));
        result.wall_cycles =
            std::max(result.wall_cycles, job_wall[j]);
    }

    if (tel_sampler_) {
        auto report = std::make_shared<telemetry::TelemetryReport>();
        report->intervals = intervals_;
        report->counters = tel_registry_->readAll();
        report->series = tel_sampler_->takeSeries();
        if (tel_tracer_) {
            report->events_dropped = tel_tracer_->dropped();
            report->events = tel_tracer_->takeEvents();
        }
        if (tel_profiler_)
            report->attribution = tel_profiler_->report();
        if (tel_audit_)
            report->audit = tel_audit_->report();
        if (tel_tail_) {
            report->tail = tel_tail_->report();
            // Link every worst-K exemplar to the latest promotion
            // decision about its region (no-op without --audit).
            telemetry::annotateExemplars(report->tail, report->audit);
        }
        result.telemetry = std::move(report);
    }
    return result;
}

} // namespace pccsim::sim
