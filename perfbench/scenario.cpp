#include "scenario.hpp"

#include <chrono>

#include "workloads/graph_workloads.hpp"

namespace perfbench {

bool
makeScenario(const std::string &name, u64 seed, Scenario &out)
{
    out = Scenario{};
    out.name = name;
    if (name == "graph-pr") {
        // PageRank over the small Kronecker graph: workload generation
        // and the data-cache model dominate, ~3% of accesses walk, so
        // walker and PCC changes should leave it unchanged.
        out.config = sim::SystemConfig::forScale(workloads::Scale::Small);
        out.config.policy = sim::PolicyKind::Pcc;
        out.jobs.push_back({"pr", workloads::Scale::Small,
                            graph::NetworkKind::Kronecker, false, seed});
    } else if (name == "hub-walks") {
        // Zipf over 2560MB of 2MB regions with a 1024-entry PCC and a
        // 4% promotion cap: the PCC stays full, most regions stay
        // base-paged, and ~85% of accesses walk. 4M main-phase ops
        // keep the 655k first-touch faults a minority.
        out.config = sim::SystemConfig::forScale(workloads::Scale::Ci);
        out.config.policy = sim::PolicyKind::Pcc;
        out.config.pcc.pcc2m.entries = 1024;
        out.config.promotion_cap_percent = 4.0;
        out.jobs.push_back({"syn:zipf:2560:4000000", workloads::Scale::Ci,
                            graph::NetworkKind::Kronecker, false, seed});
    } else if (name == "tenant-mix") {
        // Four tenants time-share two cores with ASID-tagged TLBs on a
        // 90%-fragmented node, budgeted by a tenant arbiter, with every
        // observability feature on.
        out.config = sim::SystemConfig::forScale(workloads::Scale::Ci);
        out.config.num_cores = 2;
        out.config.tenant.cores = 2;
        out.config.tenant.switch_mode = tenant::SwitchMode::Asid;
        out.config.tenant.quantum_ops = 1024;
        out.config.policy = sim::PolicyKind::Pcc;
        out.config.pcc_policy.arbiter = "static";
        out.config.pcc_policy.regions_to_promote = 1;
        out.config.frag_fraction = 0.9;
        out.config.telemetry.enabled = true;
        out.config.telemetry.audit = true;
        out.config.telemetry.attribution = true;
        out.config.telemetry.histograms = true;
        const char *apps[] = {"mcf", "canneal", "xalancbmk", "pr"};
        for (u64 t = 0; t < 4; ++t) {
            out.jobs.push_back({apps[t], workloads::Scale::Ci,
                                graph::NetworkKind::Kronecker, false,
                                seed + t});
        }
    } else {
        return false;
    }
    out.config.seed = seed;
    return true;
}

std::vector<workloads::WorkloadPtr>
makeJobs(const Scenario &scenario, bool fresh_inputs)
{
    std::vector<workloads::WorkloadPtr> out;
    for (const auto &spec : scenario.jobs) {
        if (fresh_inputs && spec.name == "pr") {
            // Mirrors makeWorkload's graph construction, minus its
            // cache, so the Kronecker build is paid on every set-up.
            const workloads::ScaleParams params =
                workloads::scaleParams(spec.scale);
            graph::GraphSpec gspec;
            gspec.scale = params.graph_scale;
            gspec.avg_degree = params.avg_degree;
            gspec.kind = spec.network;
            gspec.seed = spec.seed;
            out.push_back(std::make_unique<workloads::PageRankWorkload>(
                std::make_shared<const graph::CsrGraph>(
                    graph::generate(gspec)),
                params.pr_iterations));
        } else {
            out.push_back(workloads::makeWorkload(spec));
        }
    }
    return out;
}

sim::RunResult
runSlice(const sim::SystemConfig &config,
         std::vector<workloads::WorkloadPtr> &jobs)
{
    sim::System system(config);
    std::vector<sim::System::Job> run_jobs;
    for (auto &w : jobs)
        run_jobs.push_back({w.get(), 1});
    return system.run(std::move(run_jobs));
}

u64
nowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace perfbench
