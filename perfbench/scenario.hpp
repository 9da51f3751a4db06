/**
 * @file
 * The benchmark's workloads: one simulated node configuration plus
 * the workload specs of its jobs, built from a seed. A "slice" is one
 * complete System::run of a scenario; every timed slice of a run
 * repeats the same scenario and must reproduce the verified result.
 */

#pragma once

#include <string>
#include <vector>

#include "sim/system.hpp"
#include "workloads/registry.hpp"

namespace perfbench {

using namespace pccsim;

struct Scenario
{
    std::string name;
    sim::SystemConfig config;
    /** One spec per job; in tenant mode each job is one tenant. */
    std::vector<workloads::WorkloadSpec> jobs;
};

/** Build the named scenario for a seed; false if the name is unknown. */
bool makeScenario(const std::string &name, u64 seed, Scenario &out);

/**
 * Instantiate the scenario's workloads. With `fresh_inputs` graph
 * inputs are generated anew instead of being served from
 * makeWorkload's in-process graph cache, so the build is timed.
 */
std::vector<workloads::WorkloadPtr> makeJobs(const Scenario &scenario,
                                             bool fresh_inputs);

/** Run one slice: construct the System and run every job once. */
sim::RunResult runSlice(const sim::SystemConfig &config,
                        std::vector<workloads::WorkloadPtr> &jobs);

/** Monotonic host time in nanoseconds. */
u64 nowNs();

} // namespace perfbench
