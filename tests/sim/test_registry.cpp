/**
 * @file
 * Policy & translation-hardware plugin registries: registration
 * discipline (duplicate keys fail loudly), selector round-trips,
 * unknown-key diagnostics with nearest-key suggestions, spec-key
 * uniqueness across parameter variants, legacy bit-identity of the
 * PolicyKind shim, and the config transforms of the hw backends.
 */

#include <gtest/gtest.h>

#include <set>

#include "os/policy_registry.hpp"
#include "sim/experiment.hpp"
#include "sim/runner.hpp"
#include "tlb/hw_registry.hpp"

using namespace pccsim;
using namespace pccsim::sim;

namespace {

ExperimentSpec
ciSpec(const std::string &workload)
{
    ExperimentSpec spec;
    spec.workload.name = workload;
    spec.workload.scale = workloads::Scale::Ci;
    return spec;
}

std::unique_ptr<os::Policy>
makePolicy(const std::string &selector, util::Status &status)
{
    const SystemConfig cfg = SystemConfig::forScale(workloads::Scale::Ci);
    return os::PolicyRegistry::instance().make(selector, cfg, status);
}

std::unique_ptr<os::Policy>
dummyFactory(const util::ParamMap &, const sim::SystemConfig &,
             util::Status &)
{
    return nullptr;
}

util::Status
dummyApply(const util::ParamMap &, sim::SystemConfig &)
{
    return {};
}

} // namespace

// ---------------------------------------------------- registration

TEST(Registry, DuplicateKeyRegistrationFailsLoudly)
{
    auto &reg = os::PolicyRegistry::instance();
    os::PolicyRegistry::Entry dup;
    dup.key = "pcc"; // already registered by policies.cpp
    dup.description = "imposter";
    dup.factory = &dummyFactory;
    const util::Status status = reg.add(dup);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.toString().find("pcc"), std::string::npos);
    // The loud failure must also leave the original entry untouched.
    const auto *entry = reg.find("pcc");
    ASSERT_NE(entry, nullptr);
    EXPECT_NE(entry->description, "imposter");
}

TEST(Registry, AliasShadowingAnExistingKeyFails)
{
    auto &reg = os::PolicyRegistry::instance();
    os::PolicyRegistry::Entry entry;
    entry.key = "registry-test-unique-key";
    entry.description = "test";
    entry.factory = &dummyFactory;
    entry.aliases = {"thp"}; // shadows linux-thp's alias
    EXPECT_FALSE(reg.add(entry).ok());
    EXPECT_EQ(reg.find("registry-test-unique-key"), nullptr);
}

TEST(Registry, DuplicateHwKeyFails)
{
    auto &reg = tlb::HwRegistry::instance();
    tlb::HwRegistry::Entry dup;
    dup.key = "victima-reach";
    dup.description = "imposter";
    dup.apply = &dummyApply;
    EXPECT_FALSE(reg.add(dup).ok());
}

// ----------------------------------------------------- round-trips

TEST(Registry, EveryLegacyKeyRoundTripsThroughParseAndToString)
{
    for (const auto &entry : os::PolicyRegistry::instance().entries()) {
        if (entry.legacy_kind < 0)
            continue;
        const auto kind = static_cast<PolicyKind>(entry.legacy_kind);
        // key -> kind
        const auto parsed = parsePolicyKind(entry.key);
        ASSERT_TRUE(parsed.has_value()) << entry.key;
        EXPECT_EQ(*parsed, kind) << entry.key;
        // kind -> canonical name -> kind
        const auto reparsed = parsePolicyKind(to_string(kind));
        ASSERT_TRUE(reparsed.has_value()) << to_string(kind);
        EXPECT_EQ(*reparsed, kind);
        // aliases land on the same kind
        for (const auto &alias : entry.aliases) {
            const auto via_alias = parsePolicyKind(alias);
            ASSERT_TRUE(via_alias.has_value()) << alias;
            EXPECT_EQ(*via_alias, kind) << alias;
        }
    }
}

TEST(Registry, SixLegacyPoliciesAreRegistered)
{
    std::set<int> kinds;
    for (const auto &entry : os::PolicyRegistry::instance().entries()) {
        if (entry.legacy_kind >= 0)
            kinds.insert(entry.legacy_kind);
    }
    EXPECT_EQ(kinds.size(), 6u);
    // ...and the contenders are registry-only.
    for (const char *key : {"trident", "ubpf"}) {
        const auto *entry = os::PolicyRegistry::instance().find(key);
        ASSERT_NE(entry, nullptr) << key;
        EXPECT_EQ(entry->legacy_kind, -1) << key;
    }
}

TEST(Registry, SelectorRoundTripsThroughApplyPolicySelector)
{
    for (const auto &key : os::PolicyRegistry::instance().keys()) {
        ExperimentSpec spec = ciSpec("bfs");
        const util::Status status = applyPolicySelector(spec, key);
        EXPECT_TRUE(status.ok()) << key << ": " << status.toString();
        // parse -> to_string -> parse is stable.
        const std::string name = policyNameOf(spec);
        ExperimentSpec again = ciSpec("bfs");
        EXPECT_TRUE(applyPolicySelector(again, name).ok()) << name;
        EXPECT_EQ(policyNameOf(again), name);
    }
}

// ------------------------------------------------- unknown selectors

TEST(Registry, UnknownPolicyKeyYieldsStatusWithSuggestion)
{
    ExperimentSpec spec = ciSpec("bfs");
    const util::Status status = applyPolicySelector(spec, "tridnet");
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.toString().find("trident"), std::string::npos)
        << status.toString();
}

TEST(Registry, ConfigValidateRejectsUnknownSelectors)
{
    SystemConfig cfg = SystemConfig::forScale(workloads::Scale::Ci);
    EXPECT_TRUE(cfg.validate().ok());

    cfg.policy_str = "hawkeey";
    const util::Status bad_policy = cfg.validate();
    ASSERT_FALSE(bad_policy.ok());
    EXPECT_NE(bad_policy.toString().find("hawkeye"), std::string::npos)
        << bad_policy.toString();

    cfg.policy_str.clear();
    cfg.hw = "victima";
    const util::Status bad_hw = cfg.validate();
    ASSERT_FALSE(bad_hw.ok());
    EXPECT_NE(bad_hw.toString().find("victima-reach"), std::string::npos)
        << bad_hw.toString();
}

TEST(Registry, UnknownParamIsRejectedAtBuildTime)
{
    util::Status status;
    auto policy = makePolicy("pcc:promot=8", status);
    EXPECT_EQ(policy, nullptr);
    ASSERT_FALSE(status.ok());
    // The error names the offending param and the grammar.
    EXPECT_NE(status.toString().find("promot"), std::string::npos)
        << status.toString();
}

TEST(Registry, MalformedSelectorParamsAreRejected)
{
    util::Status status;
    EXPECT_EQ(makePolicy("pcc:promote", status), nullptr);
    EXPECT_FALSE(status.ok());
}

// A numeric selector param that is not wholly a number is rejected by
// validate(), naming the selector, the key and the value, instead of
// silently becoming 0.
TEST(Registry, ConfigValidateRejectsMalformedNumericParams)
{
    const auto rejected = [](const std::string &policy,
                             const std::string &hw,
                             const std::string &param) {
        SystemConfig cfg = SystemConfig::forScale(workloads::Scale::Ci);
        cfg.policy_str = policy;
        cfg.hw = hw;
        const util::Status status = cfg.validate();
        EXPECT_FALSE(status.ok()) << policy << hw;
        const std::string text = status.toString();
        EXPECT_NE(text.find("'" + policy + hw + "'"), std::string::npos)
            << text;
        EXPECT_NE(text.find(param), std::string::npos) << text;
    };
    rejected("pcc:promote=abc", "", "promote=abc");
    rejected("pcc:order=rr,minfreq=4x", "", "minfreq=4x");
    rejected("trident:max1g=-1", "", "max1g=-1");
    rejected("ubpf:prog=topk,helpers=", "", "helpers=");
    rejected("", "victima-reach:mult=abc", "mult=abc");
    rejected("", "victima-reach:latency=4cycles", "latency=4cycles");

    // Well-formed numbers and non-numeric params still pass.
    for (const char *policy : {"pcc:promote=8,order=rr", "ubpf:prog=topk",
                               "trident:max1g=2,compact=1"}) {
        SystemConfig cfg = SystemConfig::forScale(workloads::Scale::Ci);
        cfg.policy_str = policy;
        EXPECT_TRUE(cfg.validate().ok()) << cfg.validate().toString();
    }
    SystemConfig cfg = SystemConfig::forScale(workloads::Scale::Ci);
    cfg.hw = "victima-reach:mult=4,latency=2";
    EXPECT_TRUE(cfg.validate().ok()) << cfg.validate().toString();
}

TEST(Registry, MalformedNumericParamFailsAtBuildTime)
{
    util::Status status;
    EXPECT_EQ(makePolicy("pcc:promote=abc", status), nullptr);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.toString().find("promote=abc"), std::string::npos)
        << status.toString();

    SystemConfig cfg = SystemConfig::forScale(workloads::Scale::Ci);
    const util::Status hw =
        tlb::HwRegistry::instance().apply("victima-reach:mult=abc", cfg);
    ASSERT_FALSE(hw.ok());
    EXPECT_NE(hw.toString().find("mult=abc"), std::string::npos)
        << hw.toString();
}

TEST(Registry, ParamMapTypedLookupsAreStrict)
{
    util::Status parsed;
    const auto pm = util::ParamMap::parse("n=12,x=0.5,bad=1.5,worse=nan",
                                          parsed);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(pm.getU64("n", 0), 12u);
    EXPECT_DOUBLE_EQ(pm.getDouble("x", 0), 0.5);
    EXPECT_TRUE(pm.checkConsumed().ok() == false); // bad, worse unread
    EXPECT_EQ(pm.getU64("bad", 7), 7u);            // fallback
    EXPECT_DOUBLE_EQ(pm.getDouble("worse", 2.5), 2.5);
    const util::Status status = pm.checkConsumed();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.toString().find("bad=1.5"), std::string::npos)
        << status.toString();

    EXPECT_TRUE(pm.checkTypes("n=N,x=REAL,bad=NAME").ok());
    EXPECT_FALSE(pm.checkTypes("n=N,bad=N").ok());
}

TEST(Registry, UnknownUbpfProgramListsBuiltins)
{
    util::Status status;
    EXPECT_EQ(makePolicy("ubpf:prog=nonsense", status), nullptr);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.toString().find("topk"), std::string::npos)
        << status.toString();
}

// ------------------------------------------------------- spec keys

TEST(Registry, SpecKeysNeverCollideAcrossSelectorVariants)
{
    const std::vector<std::string> selectors = {
        "pcc",
        "pcc:promote=8",
        "pcc:promote=16",
        "pcc:promote=8,order=rr",
        "trident",
        "trident:cold=8",
        "ubpf",
        "ubpf:prog=lowfirst",
    };
    std::set<std::string> keys;
    for (const auto &selector : selectors) {
        ExperimentSpec spec = ciSpec("bfs");
        ASSERT_TRUE(applyPolicySelector(spec, selector).ok()) << selector;
        const std::string key = specKey(spec);
        EXPECT_FALSE(key.empty()) << selector;
        EXPECT_TRUE(keys.insert(key).second)
            << "spec-key collision for " << selector << ": " << key;
    }
    // The hardware axis is independent: same policy, different hw.
    // (hw="" is omitted — by the shim contract it is identical to the
    // bare "pcc" selector already in the set; see the golden test.)
    for (const std::string hw :
         {"victima-reach", "victima-reach:mult=4"}) {
        ExperimentSpec spec = ciSpec("bfs");
        spec.policy = PolicyKind::Pcc;
        spec.hw = hw;
        EXPECT_TRUE(keys.insert(specKey(spec)).second) << "hw=" << hw;
    }
}

TEST(Registry, BareLegacySelectorKeepsThePreRegistrySpecKey)
{
    // Golden shim contract: selecting a legacy policy by bare name
    // canonicalizes onto the enum, so the spec key is byte-identical
    // to the enum-built spec's — pre-registry memo entries, resume
    // journals, and baselines all stay valid.
    for (const char *name : {"base-4k", "all-huge", "linux-thp",
                             "hawkeye", "pcc", "trace-replay"}) {
        ExperimentSpec via_selector = ciSpec("bfs");
        ASSERT_TRUE(applyPolicySelector(via_selector, name).ok()) << name;
        EXPECT_TRUE(via_selector.policy_str.empty()) << name;

        ExperimentSpec via_enum = ciSpec("bfs");
        via_enum.policy = via_selector.policy;
        EXPECT_EQ(specKey(via_selector), specKey(via_enum)) << name;
        EXPECT_EQ(specKey(via_enum).find("policy="), std::string::npos)
            << name;
    }
}

// ---------------------------------------------------- bit-identity

TEST(Registry, SelectorParamsMatchConfigDrivenEquivalents)
{
    // `pcc:promote=8,order=rr` must build the same machine as the
    // config-driven spelling of the same knobs: identical RunResults,
    // even though the two specs (rightly) have different memo keys.
    ExperimentSpec via_config = ciSpec("bfs");
    via_config.policy = PolicyKind::Pcc;
    via_config.pcc_policy.regions_to_promote = 8;
    via_config.pcc_policy.order = os::PromotionOrder::RoundRobin;

    ExperimentSpec via_selector = ciSpec("bfs");
    ASSERT_TRUE(
        applyPolicySelector(via_selector, "pcc:promote=8,order=rr")
            .ok());

    EXPECT_NE(specKey(via_config), specKey(via_selector));
    EXPECT_TRUE(runOne(via_config) == runOne(via_selector));
}

TEST(Registry, ContendersRunEndToEnd)
{
    for (const std::string selector : {"trident", "ubpf"}) {
        ExperimentSpec spec = ciSpec("bfs");
        ASSERT_TRUE(applyPolicySelector(spec, selector).ok()) << selector;
        spec.cap_percent = 8.0;
        const RunResult result = runOne(spec);
        EXPECT_GT(result.wall_cycles, 0u) << selector;
        EXPECT_GT(result.job().walks, 0u) << selector;
    }
}

TEST(Registry, VictimaReachBackendRunsAndDiffersFromBaseline)
{
    ExperimentSpec plain = ciSpec("bfs");
    plain.policy = PolicyKind::Pcc;
    ExperimentSpec reach = plain;
    reach.hw = "victima-reach:mult=4";
    const RunResult plain_run = runOne(plain);
    const RunResult reach_run = runOne(reach);
    EXPECT_GT(reach_run.wall_cycles, 0u);
    // 4x L2 TLB reach must change translation behavior.
    EXPECT_NE(plain_run.job().walks, reach_run.job().walks);
}

// ------------------------------------------------------ hw backends

TEST(Registry, VictimaReachTransformsTheConfig)
{
    SystemConfig cfg = SystemConfig::forScale(workloads::Scale::Ci);
    const u32 base_entries = cfg.tlb.l2.entries;
    const u32 base_ways = cfg.cache.l2.ways;
    const Cycles base_hit = cfg.timing.l2_tlb_hit;

    ASSERT_TRUE(tlb::HwRegistry::instance()
                    .apply("victima-reach:mult=4,latency=3", cfg)
                    .ok());
    EXPECT_EQ(cfg.tlb.l2.entries, base_entries * 4);
    EXPECT_LT(cfg.cache.l2.ways, base_ways);
    EXPECT_EQ(cfg.timing.l2_tlb_hit, base_hit + 3);
    EXPECT_TRUE(cfg.tlb.l2_holds_1g);
}

TEST(Registry, HwBackendRejectsBadMultAndLeavesConfigUntouched)
{
    SystemConfig cfg = SystemConfig::forScale(workloads::Scale::Ci);
    const u32 base_entries = cfg.tlb.l2.entries;
    EXPECT_FALSE(
        tlb::HwRegistry::instance().apply("victima-reach:mult=3", cfg)
            .ok());
    EXPECT_EQ(cfg.tlb.l2.entries, base_entries);
}

TEST(Registry, EmptyAndDefaultHwSelectorsAreIdentity)
{
    const SystemConfig pristine =
        SystemConfig::forScale(workloads::Scale::Ci);
    for (const std::string selector : {"", "default"}) {
        SystemConfig cfg = SystemConfig::forScale(workloads::Scale::Ci);
        ASSERT_TRUE(
            tlb::HwRegistry::instance().apply(selector, cfg).ok());
        EXPECT_EQ(cfg.tlb.l2.entries, pristine.tlb.l2.entries);
        EXPECT_EQ(cfg.cache.l2.ways, pristine.cache.l2.ways);
        EXPECT_EQ(cfg.timing.l2_tlb_hit, pristine.timing.l2_tlb_hit);
    }
}

// -------------------------------------------------------- listings

TEST(Registry, ListTextsEnumerateEveryKey)
{
    const std::string policies = policyListText();
    for (const auto &key : os::PolicyRegistry::instance().keys())
        EXPECT_NE(policies.find(key), std::string::npos) << key;
    const std::string hw = hwListText();
    for (const auto &key : tlb::HwRegistry::instance().keys())
        EXPECT_NE(hw.find(key), std::string::npos) << key;
}
