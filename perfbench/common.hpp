/**
 * @file
 * Pieces shared by the untimed, timed and traced parts of a run:
 * command-line arguments, metric records, quantiles, CPU pinning.
 */

#pragma once

#include <string>
#include <vector>

#include "scenario.hpp"

namespace perfbench {

struct Args
{
    std::string workload;
    u64 seed = 0;
    u64 seconds = 0;
    bool trace = false;
    /** Planted hot-path bug for the verification self-test. */
    sim::HotPathMutation mutation = sim::HotPathMutation::None;
    /**
     * Plant it in the verification slice too (a real bug), or only in
     * the timed slices (a slice that diverges from the verified run).
     */
    bool mutate_verification = true;
    /** Source revision recorded in the output ("" = unknown). */
    std::string commit;
};

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** What one invocation reports on its last output line. */
struct Outcome
{
    bool correct = true;
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<Metric> metrics;
    /** Raw samples and host context, printed on the line before. */
    std::string raw_json;
};

/** Linear-interpolated quantile (q in [0, 1]) of unsorted samples. */
double quantile(std::vector<double> samples, double q);

/** CPUs this process may run on, in ascending order. */
std::vector<int> allowedCpus();

/** Pin the calling thread to one CPU (no-op if that fails). */
void pinToCpu(int cpu);

/** Restore the calling thread's affinity to the given CPU set. */
void pinToCpus(const std::vector<int> &cpus);

/** Peak resident set of this process so far, in MiB. */
double peakRssMiB();

/**
 * Result equality for slices of one scenario. Invariant sweeps only
 * add their own count to a result, so a verification slice that ran
 * them compares with that count taken from the timed slice.
 */
bool sameResult(const sim::RunResult &verified, sim::RunResult timed);

/** The traced per-layer replay (replay.cpp). */
Outcome runTraced(const Scenario &scenario, const Args &args);

} // namespace perfbench
