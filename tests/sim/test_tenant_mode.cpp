/**
 * @file
 * System-level tests of the multi-tenant node mode: the 1-tenant
 * bit-identity contract (tenant mode with a single job must reproduce
 * the legacy single-process run stat for stat, telemetry included),
 * the headline ASID-vs-flush comparison, determinism, the per-tenant
 * budget arbiter's audit trail, and config validation.
 */

#include <gtest/gtest.h>

#include "sim/system.hpp"
#include "workloads/synthetic.hpp"

using namespace pccsim;
using namespace pccsim::sim;

namespace {

workloads::SyntheticSpec
tenantSpec(u64 seed = 1)
{
    workloads::SyntheticSpec spec;
    spec.pattern = workloads::Pattern::HotRegions;
    spec.footprint_bytes = 32ull << 20;
    spec.hot_regions = 8;
    spec.ops = 400'000;
    spec.seed = seed;
    return spec;
}

SystemConfig
ciConfig(PolicyKind policy)
{
    SystemConfig cfg = SystemConfig::forScale(workloads::Scale::Ci);
    cfg.policy = policy;
    cfg.telemetry.enabled = true;
    cfg.telemetry.audit = true;
    return cfg;
}

SystemConfig
tenantConfig(PolicyKind policy, tenant::SwitchMode mode)
{
    SystemConfig cfg = ciConfig(policy);
    cfg.num_cores = 1;
    cfg.tenant.cores = 1;
    cfg.tenant.switch_mode = mode;
    return cfg;
}

u64
totalWalks(const RunResult &result)
{
    u64 walks = 0;
    for (const auto &job : result.jobs)
        walks += job.walks;
    return walks;
}

u64
counterOf(const RunResult &result, const std::string &name)
{
    for (const auto &[key, value] : result.telemetry->counters) {
        if (key == name)
            return value;
    }
    ADD_FAILURE() << "counter not found: " << name;
    return 0;
}

} // namespace

TEST(TenantMode, OneTenantAsidRunMatchesTheLegacyPathBitForBit)
{
    // The acceptance bar for the whole subsystem: with one tenant the
    // scheduler claims the core once, ASID 0 produces untagged TLB
    // keys, and the per-job tallies equal the per-core totals — so the
    // full RunResult (metrics AND telemetry content) must be equal.
    workloads::SyntheticWorkload legacy_w(tenantSpec());
    workloads::SyntheticWorkload tenant_w(tenantSpec());
    SystemConfig legacy_cfg = ciConfig(PolicyKind::Pcc);
    legacy_cfg.num_cores = 1;
    System legacy_sys(legacy_cfg);
    System tenant_sys(
        tenantConfig(PolicyKind::Pcc, tenant::SwitchMode::Asid));
    const auto legacy = legacy_sys.run(legacy_w);
    const auto tenanted = tenant_sys.run(tenant_w);
    EXPECT_TRUE(legacy == tenanted)
        << "1-tenant tenant-mode run diverged from the legacy path: "
        << "walks " << totalWalks(legacy) << " vs "
        << totalWalks(tenanted) << ", wall " << legacy.wall_cycles
        << " vs " << tenanted.wall_cycles;
}

TEST(TenantMode, AsidTaggingBeatsFlushOnSwitch)
{
    // Two tenants time-sharing one core. Flush-on-switch refills the
    // TLB hierarchy from scratch every quantum; ASID tagging lets both
    // tenants' entries coexist, so walks must drop measurably. The
    // working sets are sized to be TLB-*resident* once huge-backed (4
    // hot 2MB regions per tenant vs an 8-entry L1-2M + 16-entry L2 at
    // ci scale): with a set too big for the TLB every access misses in
    // both modes and the switch mode cannot matter.
    auto runMode = [](tenant::SwitchMode mode) {
        workloads::SyntheticSpec spec = tenantSpec(1);
        spec.hot_regions = 4;
        workloads::SyntheticWorkload wa(spec);
        spec.seed = 2;
        workloads::SyntheticWorkload wb(spec);
        SystemConfig cfg = tenantConfig(PolicyKind::AllHuge, mode);
        cfg.telemetry.enabled = false; // speed; metrics only
        System system(cfg);
        return system.run(
            {System::Job{&wa, 1}, System::Job{&wb, 1}});
    };
    const auto flush = runMode(tenant::SwitchMode::Flush);
    const auto asid = runMode(tenant::SwitchMode::Asid);
    ASSERT_EQ(flush.jobs.size(), 2u);
    ASSERT_EQ(asid.jobs.size(), 2u);
    // Same work happened in both modes...
    EXPECT_EQ(flush.total_accesses, asid.total_accesses);
    // ...but ASID coexistence avoids the post-switch refill storm.
    EXPECT_LT(totalWalks(asid), totalWalks(flush))
        << "ASID run should miss less than flush-on-switch";
    EXPECT_LT(asid.wall_cycles, flush.wall_cycles);
}

TEST(TenantMode, MultiTenantRunsAreDeterministic)
{
    auto runOnce = [] {
        workloads::SyntheticWorkload wa(tenantSpec(1));
        workloads::SyntheticWorkload wb(tenantSpec(2));
        System system(
            tenantConfig(PolicyKind::Pcc, tenant::SwitchMode::Asid));
        return system.run(
            {System::Job{&wa, 1}, System::Job{&wb, 1}});
    };
    const auto r1 = runOnce();
    const auto r2 = runOnce();
    EXPECT_TRUE(r1 == r2) << "same config + seeds must reproduce "
                             "identical results, telemetry included";
}

TEST(TenantMode, SchedulerTelemetryTracksSwitchesAndPerTenantOps)
{
    workloads::SyntheticWorkload wa(tenantSpec(1));
    workloads::SyntheticWorkload wb(tenantSpec(2));
    System system(
        tenantConfig(PolicyKind::Base, tenant::SwitchMode::Asid));
    const auto result = system.run(
        {System::Job{&wa, 1}, System::Job{&wb, 1}});
    ASSERT_NE(result.telemetry, nullptr);
    EXPECT_GT(counterOf(result, "tenant_switches"), 0u);
    // Equal workloads on one core: both tenants must have run, and
    // neither may be starved.
    const u64 ops0 = counterOf(result, "tenant0_ops");
    const u64 ops1 = counterOf(result, "tenant1_ops");
    EXPECT_GT(ops0, 0u);
    EXPECT_GT(ops1, 0u);
    EXPECT_EQ(ops0 + ops1, result.total_accesses);
}

TEST(TenantMode, ArbiterRecordsPerTenantBudgetRegret)
{
    // A deliberately starved budget (2 promotions per interval, split
    // between 2 tenants with ~8 hot regions each) forces the arbiter
    // to turn candidates away, and every such skip must land in the
    // audit trail as a tenant-budget decision with per-pid regret.
    workloads::SyntheticWorkload wa(tenantSpec(1));
    workloads::SyntheticWorkload wb(tenantSpec(2));
    SystemConfig cfg =
        tenantConfig(PolicyKind::Pcc, tenant::SwitchMode::Asid);
    cfg.pcc_policy.regions_to_promote = 2;
    cfg.pcc_policy.arbiter = "static";
    System system(cfg);
    const auto result = system.run(
        {System::Job{&wa, 1}, System::Job{&wb, 1}});
    ASSERT_NE(result.telemetry, nullptr);
    const auto &audit = result.telemetry->audit;
    u64 tenant_budget_skips = 0;
    for (const auto &[key, count] : audit.reason_counts) {
        if (key == "skip:tenant-budget")
            tenant_budget_skips = count;
    }
    EXPECT_GT(tenant_budget_skips, 0u)
        << "starved budget must produce tenant-budget skips";
    EXPECT_FALSE(audit.regret_by_pid.empty())
        << "regret must be attributed per tenant";
    EXPECT_GT(audit.regret_total_cycles, 0u);
}

TEST(TenantMode, ValidateRejectsIncompatibleConfigurations)
{
    SystemConfig good =
        tenantConfig(PolicyKind::Base, tenant::SwitchMode::Asid);
    ASSERT_TRUE(good.validate().ok()) << good.validate().toString();

    SystemConfig sampled = good;
    sampled.sampling.window = 1000;
    sampled.sampling.fastforward = 1000;
    EXPECT_FALSE(sampled.validate().ok());

    SystemConfig oracled = good;
    oracled.oracle.enabled = true;
    EXPECT_FALSE(oracled.validate().ok());

    SystemConfig too_many_cores = good;
    too_many_cores.tenant.cores = 2; // > num_cores == 1
    EXPECT_FALSE(too_many_cores.validate().ok());

    SystemConfig zero_quantum = good;
    zero_quantum.tenant.quantum_ops = 0;
    EXPECT_FALSE(zero_quantum.validate().ok());
}
