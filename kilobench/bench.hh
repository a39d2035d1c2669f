/**
 * @file
 * Shared declarations of the repository benchmark driver.
 *
 * The driver links only the simulator's public API and measures it
 * from outside: end-to-end metrics come from untraced rounds, the
 * per-layer ledger from traced rounds that wrap timing around calls
 * into each module (sim, core, wload, trace, mem, pred, dkip,
 * kilo_proc, sample, stats). See README.md for every definition.
 */

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/simulator.hh"
#include "src/wload/profile.hh"

namespace kilobench
{

/** Command-line options of one benchmark invocation. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    unsigned threads = 1;     ///< sweep workers (main: min(3, nproc - 1))
    std::string tmpDir;
};

/** One reported number. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** Everything one workload run reports. */
struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Benchmark-level checks (round determinism, traced digest
     *  equal to untraced, ...) that are not individual operations. */
    bool consistent = true;
    uint64_t digest = 0;      ///< FNV-1a of the JSONL rows of a round
    std::vector<Metric> metrics;

    void set(std::string_view name, double value);
    /** Record one failed check with a diagnostic on stderr. */
    void inconsistent(const std::string &why);
};

/** Declared metrics, in output order. @{ */
const std::vector<Metric> &endToEndMetrics();
const std::vector<Metric> &perLayerMetrics();
/** @} */

/** Workload entry points (workloads.cc). */
void runMemstall(const Options &opt, Report &rep);
void runCompute(const Options &opt, Report &rep);
void runFig9Sweep(const Options &opt, Report &rep);
void runSampledLong(const Options &opt, Report &rep);

/** Arithmetic (arith.cc). @{ */

/** Host steady-clock time in seconds. */
double nowS();

double median(std::vector<double> v);

/** Highest percentile of the ladder 50/90/95/99/99.9 that has at
 *  least ten samples beyond it (the median when none has). */
struct Tail
{
    double pct = 50.0;
    double value = 0.0;
    size_t beyond = 0;   ///< samples strictly above the tail index
};
Tail tailPercentile(std::vector<double> v);

constexpr uint64_t FnvBasis = 0xcbf29ce484222325ull;
uint64_t fnv1a(uint64_t h, std::string_view bytes);

/** Per-profile generator seed for benchmark seed @p seed: seed 0
 *  keeps the preset's own seed, any other value remixes it. */
uint64_t mixSeed(uint64_t preset_seed, uint64_t seed);

/** Preset @p bench with its generator seed mixed with @p seed. */
kilo::wload::WorkloadProfile seededProfile(const std::string &bench,
                                           uint64_t seed);

/** Peak resident set of this process in MiB (getrusage). */
double peakRssMb();
/** @} */

/**
 * Operation checks shared by every workload: the empty string when
 * @p r is a correct exact run of @p measure_insts instructions on a
 * @p commit_width-wide machine (not aborted, committed within one
 * commit group of the target, stall-slot identity exact), else why
 * it is not.
 */
std::string checkExactRun(const kilo::sim::RunResult &r,
                          uint64_t measure_insts, int commit_width);

/** Commit width of @p machine (the stall-slot identity's width). */
int commitWidth(const kilo::sim::MachineConfig &machine);

/** Self-tests of the benchmark's own arithmetic (selftest.cc);
 *  returns the number of failures, each reported on stderr. */
int runSelfTests();

} // namespace kilobench
