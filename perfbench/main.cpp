/**
 * @file
 * pccsim benchmark harness.
 *
 *   perfbench --workload <graph-pr|hub-walks|tenant-mix> --seed <n>
 *             --seconds <s> --trace <0|1>
 *             [--mutate skip-l2-fill[-timed]] [--commit <rev>]
 *
 * Untraced (--trace 0): identical timed slices for --seconds, every
 * second one preceded by a timed set-up, with the thread's CPU
 * affinity rotating over every allowed CPU; then one untimed
 * verification slice (lockstep differential oracle, or invariant
 * sweeps in tenant mode). Prints a raw-samples line, then the result
 * line with the end-to-end metrics.
 * Traced (--trace 1): see replay.cpp.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "common.hpp"
#include "json_out.hpp"

namespace perfbench {

namespace {

/** Timed slices per run at least. */
constexpr u64 kMinSlices = 8;
/**
 * A timed set-up precedes every kSetupEvery-th slice. graph-pr's set-up
 * costs half a slice; timing it before every slice left a third of the
 * run to set-ups and too few slices for the per-segment minimum.
 */
constexpr u64 kSetupEvery = 2;
/**
 * Quantile, across a run's slices, of each segment's time; the sum
 * over segments is the slice time behind ns_per_access. Contention
 * from other vCPU tenants only ever slows a segment down, so the
 * minimum tracks the program's own speed; README.md has the
 * measurements that chose it.
 */
constexpr double kSegmentQuantile = 0.0;
/** Simulated ops per timed segment of a slice. */
constexpr u64 kSegmentOps = 1u << 16;

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--mutate skip-l2-fill[-timed]] [--commit rev]\n",
                 why.c_str());
    std::exit(2);
}

u64
parseU64(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || *end != '\0')
        usage("bad value '" + text + "' for " + flag);
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = parseU64(flag, value);
            have_seed = true;
        } else if (flag == "--seconds") {
            args.seconds = parseU64(flag, value);
            have_seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            args.trace = value == "1";
            have_trace = true;
        } else if (flag == "--mutate") {
            if (value == "skip-l2-fill" || value == "skip-l2-fill-timed")
                args.mutation = sim::HotPathMutation::SkipL2Fill;
            else if (value != "none")
                usage("unknown mutation '" + value + "'");
            args.mutate_verification = value == "skip-l2-fill";
        } else if (flag == "--commit") {
            args.commit = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds and --trace are required");
    if (args.seconds < 1)
        usage("--seconds must be >= 1");
    return args;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos) {
                size_t start = colon + 1;
                while (start < line.size() && line[start] == ' ')
                    ++start;
                return line.substr(start);
            }
        }
    }
    return "unknown";
}

std::string
hostJson(const Args &args)
{
    return JsonObject()
        .str("cpu_model", cpuModel())
        .integer("nproc", std::thread::hardware_concurrency())
        .integer("allowed_cpus", allowedCpus().size())
        .str("compiler", PERFBENCH_COMPILER)
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .str("commit", args.commit.empty() ? "unknown" : args.commit)
        .text();
}

/**
 * Host timestamps at fixed points of a slice's op stream: the first
 * resume of any lane (the first simulated access, which ends set-up)
 * and then the first resume after every further `segment_ops` ops.
 * The op stream is deterministic, so segment k of every slice of a
 * scenario covers the same simulated work.
 */
struct SegmentClock
{
    u64 segment_ops = 0;
    u64 ops = 0;           //!< ops handed to the engine so far
    u64 next_boundary = 0; //!< op count that triggers the next stamp
    std::vector<u64> stamps;

    void
    onResume()
    {
        if (ops < next_boundary)
            return;
        stamps.push_back(nowNs());
        while (next_boundary <= ops)
            next_boundary += segment_ops;
    }
};

/** Forwards a workload's op stream, feeding a SegmentClock. */
class ClockedWorkload : public workloads::Workload
{
  public:
    ClockedWorkload(workloads::WorkloadPtr inner, SegmentClock &clock)
        : inner_(std::move(inner)), clock_(clock)
    {
    }

    std::string name() const override { return inner_->name(); }
    void setup(os::Process &proc) override { inner_->setup(proc); }
    u64 footprintBytes() const override { return inner_->footprintBytes(); }
    u32 maxLanes() const override { return inner_->maxLanes(); }

    Generator<workloads::BatchEnd>
    batchLane(u32 lane, u32 num_lanes,
              workloads::AccessBuffer &buf) override
    {
        auto gen = inner_->batchLane(lane, num_lanes, buf);
        for (;;) {
            clock_.onResume();
            if (!gen.next())
                break;
            clock_.ops += buf.size();
            co_yield gen.value();
        }
    }

  private:
    workloads::WorkloadPtr inner_;
    SegmentClock &clock_;
};

std::vector<workloads::WorkloadPtr>
clocked(std::vector<workloads::WorkloadPtr> jobs, SegmentClock &clock)
{
    for (auto &w : jobs)
        w = std::make_unique<ClockedWorkload>(std::move(w), clock);
    return jobs;
}

/**
 * Seconds from spec to first simulated access: fresh input generation
 * (no graph cache), System construction, workload setup and
 * fragmentation injection. The run is cancelled at the first batch
 * boundary after the first access.
 */
double
timeSetup(const Scenario &scenario, const sim::SystemConfig &config)
{
    const u64 t0 = nowNs();
    SegmentClock clock;
    clock.segment_ops = ~0ull;
    auto jobs = clocked(makeJobs(scenario, true), clock);
    const std::atomic<bool> cancel{true};
    sim::SystemConfig cfg = config;
    cfg.cancel = &cancel;
    try {
        runSlice(cfg, jobs);
    } catch (const sim::CancelledError &) {
    }
    if (clock.stamps.empty())
        return 0.0;
    return static_cast<double>(clock.stamps[0] - t0) / 1e9;
}

struct Slice
{
    int cpu = 0;
    u64 ns = 0;
    size_t result = 0; //!< index into the run's distinct results
    /** Host ns of each segment, the first ending at the first access. */
    std::vector<u64> segments;
};

/**
 * Composite slice time: the q-quantile of each segment's time across
 * slices, summed over segments. A contention burst stalls only the
 * segments it overlaps in the slices it hits, so the per-segment
 * quantile discards it where a whole-slice quantile would need every
 * slice of the run to escape it. Falls back to the whole-slice
 * quantile if the slices' segment counts differ.
 */
double
compositeNs(const std::vector<Slice> &slices, double q)
{
    std::vector<double> whole;
    for (const Slice &s : slices)
        whole.push_back(static_cast<double>(s.ns));
    const size_t n = slices.front().segments.size();
    for (const Slice &s : slices)
        if (s.segments.size() != n)
            return quantile(whole, q);
    double total = 0.0;
    for (size_t k = 0; k < n; ++k) {
        std::vector<double> seg;
        for (const Slice &s : slices)
            seg.push_back(static_cast<double>(s.segments[k]));
        total += quantile(seg, q);
    }
    return total;
}

Outcome
runUntraced(const Scenario &scenario, const Args &args)
{
    Outcome out;
    sim::SystemConfig config = scenario.config;
    config.mutation = args.mutation;

    // Timed set-ups and slices, rotating over every allowed CPU.
    const std::vector<int> cpus = allowedCpus();
    std::vector<Slice> slices;
    std::vector<double> setups;
    std::vector<sim::RunResult> distinct;
    const u64 budget_ns = args.seconds * 1'000'000'000ull;
    const u64 phase_t0 = nowNs();
    while (slices.size() < kMinSlices || nowNs() - phase_t0 < budget_ns) {
        Slice slice;
        slice.cpu = cpus[slices.size() % cpus.size()];
        pinToCpu(slice.cpu);
        if (slices.size() % kSetupEvery == 0)
            setups.push_back(timeSetup(scenario, config));
        SegmentClock clock;
        clock.segment_ops = kSegmentOps;
        auto jobs = clocked(makeJobs(scenario, false), clock);
        const u64 t0 = nowNs();
        sim::RunResult result = runSlice(config, jobs);
        const u64 t1 = nowNs();
        slice.ns = t1 - t0;
        u64 prev = t0;
        for (u64 stamp : clock.stamps) {
            slice.segments.push_back(stamp - prev);
            prev = stamp;
        }
        slice.segments.push_back(t1 - prev);
        slice.result = distinct.size();
        for (size_t i = 0; i < distinct.size(); ++i) {
            if (distinct[i] == result) {
                slice.result = i;
                break;
            }
        }
        if (slice.result == distinct.size())
            distinct.push_back(std::move(result));
        slices.push_back(slice);
    }
    pinToCpus(cpus);
    const double rss = peakRssMiB();

    // Untimed verification slice.
    sim::SystemConfig vconfig = config;
    if (!args.mutate_verification)
        vconfig.mutation = sim::HotPathMutation::None;
    if (vconfig.tenant.enabled()) {
        vconfig.check_invariants = true;
    } else {
        vconfig.oracle.enabled = true;
        vconfig.oracle.sample_every = 1;
    }
    std::string verify_error;
    sim::RunResult verified;
    try {
        auto jobs = makeJobs(scenario, false);
        verified = runSlice(vconfig, jobs);
        if (verified.resilience.invariant_failures != 0)
            verify_error = verified.resilience.first_invariant_failure;
    } catch (const sim::OracleError &e) {
        verify_error = e.what();
    }

    u64 ok = 0;
    std::vector<std::string> slice_json;
    std::vector<double> ns;
    for (const Slice &s : slices) {
        const bool good = verify_error.empty() &&
                          sameResult(verified, distinct[s.result]);
        ok += good ? 1 : 0;
        ns.push_back(static_cast<double>(s.ns));
        slice_json.push_back(JsonObject()
                                 .integer("cpu", s.cpu)
                                 .integer("ns", s.ns)
                                 .boolean("verified", good)
                                 .text());
    }
    // A failed verification leaves no verified result: report the
    // timed slices' own counts then (the run is incorrect either way).
    const sim::RunResult &basis =
        verify_error.empty() ? verified : distinct.front();
    const double accesses = static_cast<double>(basis.total_accesses);

    out.attempted = slices.size();
    out.failed = slices.size() - ok;
    out.correct = out.failed == 0 && verify_error.empty();
    const double slice_ns = compositeNs(slices, kSegmentQuantile);
    out.metrics = {
        {"ns_per_access", "ns", accesses > 0 ? slice_ns / accesses : 0.0},
        {"setup_s", "s", quantile(setups, 0.5)},
        {"peak_rss_mb", "MiB", rss},
        {"success_ratio", "ratio",
         static_cast<double>(ok) / static_cast<double>(slices.size())},
        {"sim_cycles_per_access", "cycles",
         accesses > 0 ? static_cast<double>(basis.wall_cycles) / accesses
                      : 0.0},
    };

    std::vector<std::string> setup_json;
    for (double s : setups)
        setup_json.push_back(jsonNumber(s));
    out.raw_json =
        JsonObject()
            .str("workload", scenario.name)
            .integer("seed", args.seed)
            .integer("seconds", args.seconds)
            .raw("host", hostJson(args))
            .str("mutation", args.mutation == sim::HotPathMutation::None
                                 ? "none"
                                 : "planted")
            .integer("accesses", basis.total_accesses)
            .integer("distinct_results", distinct.size())
            .str("verify_error", verify_error)
            .num("segment_quantile", kSegmentQuantile)
            .integer("segment_ops", kSegmentOps)
            .num("composite_p0_ns", compositeNs(slices, 0.0))
            .num("composite_p10_ns", compositeNs(slices, 0.1))
            .num("composite_p50_ns", compositeNs(slices, 0.5))
            .num("slice_median_ns", quantile(ns, 0.5))
            .num("slice_p10_ns", quantile(ns, 0.1))
            .num("slice_max_ns", quantile(ns, 1.0))
            .raw("setups_s", jsonArray(setup_json))
            .raw("slices", jsonArray(slice_json))
            .text();
    return out;
}

} // namespace

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] +
           (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    }
    if (cpus.empty())
        cpus.push_back(0);
    return cpus;
}

void
pinToCpus(const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    sched_setaffinity(0, sizeof set, &set);
}

void
pinToCpu(int cpu)
{
    pinToCpus({cpu});
}

double
peakRssMiB()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool
sameResult(const sim::RunResult &verified, sim::RunResult timed)
{
    timed.resilience.invariant_checks =
        verified.resilience.invariant_checks;
    return verified == timed;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Args args = parseArgs(argc, argv);
    Scenario scenario;
    if (!makeScenario(args.workload, args.seed, scenario))
        usage("unknown workload '" + args.workload + "'");

    const Outcome out = args.trace ? runTraced(scenario, args)
                                   : runUntraced(scenario, args);

    JsonObject metrics;
    for (const Metric &m : out.metrics) {
        metrics.raw(m.name,
                    JsonObject().num("value", m.value).str("unit", m.unit)
                        .text());
    }
    std::printf("%s\n", JsonObject().raw("raw", out.raw_json).text().c_str());
    std::printf("%s\n", JsonObject()
                            .boolean("correct", out.correct)
                            .integer("attempted", out.attempted)
                            .integer("failed", out.failed)
                            .raw("metrics", metrics.text())
                            .text()
                            .c_str());
    return 0;
}
