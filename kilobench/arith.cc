/**
 * @file
 * The benchmark's own arithmetic, metric declarations and the
 * per-operation correctness checks.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "kilobench/bench.hh"

namespace kilobench
{

using kilo::sim::MachineConfig;
using kilo::sim::MachineKind;
using kilo::sim::RunResult;

const std::vector<Metric> &
endToEndMetrics()
{
    static const std::vector<Metric> m{
        {"minst_per_s", "Minst/s", 0.0},
        {"setup_s", "s", 0.0},
        {"peak_rss_mb", "MiB", 0.0},
    };
    return m;
}

const std::vector<Metric> &
perLayerMetrics()
{
    static const std::vector<Metric> m{
        {"sim.construct_s", "s", 0.0},
        {"sim.warmup_s", "s", 0.0},
        {"sim.measure_s", "s", 0.0},
        {"sim.finish_s", "s", 0.0},
        {"sim.job_p50_ms", "ms", 0.0},
        {"sim.job_tail_ms", "ms", 0.0},
        {"sim.job_tail_pct", "%", 0.0},
        {"sim.job_samples", "count", 0.0},
        {"sim.pool_busy_frac", "ratio", 0.0},
        {"core.ticks", "count", 0.0},
        {"core.skipped_cycles", "count", 0.0},
        {"core.skip_frac", "ratio", 0.0},
        {"core.ns_per_cycle", "ns", 0.0},
        {"core.ns_per_tick", "ns", 0.0},
        {"core.commit_per_fetch", "ratio", 0.0},
        {"core.stall_frontend_frac", "ratio", 0.0},
        {"core.stall_empty_frac", "ratio", 0.0},
        {"core.stall_mem_frac", "ratio", 0.0},
        {"core.stall_exec_frac", "ratio", 0.0},
        {"core.stall_depend_frac", "ratio", 0.0},
        {"core.stall_issue_frac", "ratio", 0.0},
        {"core.stall_mshr_frac", "ratio", 0.0},
        {"core.stall_decoupled_frac", "ratio", 0.0},
        {"wload.ns_per_op", "ns", 0.0},
        {"wload.pull_per_commit", "ratio", 0.0},
        {"trace.record_s", "s", 0.0},
        {"trace.bytes_per_op", "B", 0.0},
        {"trace.ns_per_op", "ns", 0.0},
        {"mem.prewarm_s", "s", 0.0},
        {"mem.ns_per_access", "ns", 0.0},
        {"mem.l2_miss_ratio", "ratio", 0.0},
        {"mem.fills_per_kinst", "1/kinst", 0.0},
        {"mem.mshr_merge_frac", "ratio", 0.0},
        {"mem.mshr_peak", "count", 0.0},
        {"pred.mispredict_rate", "ratio", 0.0},
        {"dkip.llib_frac", "ratio", 0.0},
        {"dkip.analyze_stall_frac", "ratio", 0.0},
        {"dkip.llrf_peak_regs", "count", 0.0},
        {"dkip.checkpoints_per_kinst", "1/kinst", 0.0},
        {"kilo_proc.sliq_frac", "ratio", 0.0},
        {"kilo_proc.sliq_full_stall_frac", "ratio", 0.0},
        {"sample.fingerprint_s", "s", 0.0},
        {"sample.cluster_s", "s", 0.0},
        {"sample.simulate_s", "s", 0.0},
        {"sample.reconstruct_s", "s", 0.0},
        {"sample.detail_frac", "ratio", 0.0},
        {"sample.warm_frac", "ratio", 0.0},
        {"sample.skip_frac", "ratio", 0.0},
        {"sample.ipc_relsigma", "ratio", 0.0},
        {"sample.exact_ref_s", "s", 0.0},
        {"stats.snapshot_us", "us", 0.0},
        {"stats.row_json_us", "us", 0.0},
        {"paper_ipc_err_pct", "%", 0.0},
        {"sampled_ipc_err_pct", "%", 0.0},
        {"bench.untraced_minst_per_s", "Minst/s", 0.0},
        {"bench.traced_minst_per_s", "Minst/s", 0.0},
        {"bench.trace_overhead_minst_per_s", "Minst/s", 0.0},
    };
    return m;
}

void
Report::set(std::string_view name, double value)
{
    for (auto &m : metrics) {
        if (m.name == name) {
            m.value = value;
            return;
        }
    }
    Metric m;
    m.name = std::string(name);
    m.value = value;
    metrics.push_back(std::move(m));
}

void
Report::inconsistent(const std::string &why)
{
    consistent = false;
    std::fprintf(stderr, "kilobench: check failed: %s\n", why.c_str());
}

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail
tailPercentile(std::vector<double> v)
{
    Tail t;
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    // Nearest-rank index of percentile p; samples beyond = n - idx - 1.
    auto index = [n](double p) {
        size_t rank = size_t(std::ceil(p / 100.0 * double(n)));
        return rank ? rank - 1 : 0;
    };
    t.value = median(v);
    t.beyond = n - index(50.0) - 1;
    for (double p : {90.0, 95.0, 99.0, 99.9}) {
        size_t i = index(p);
        if (n - i - 1 < 10)
            break;
        t.pct = p;
        t.value = v[i];
        t.beyond = n - i - 1;
    }
    return t;
}

uint64_t
fnv1a(uint64_t h, std::string_view bytes)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

static uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

uint64_t
mixSeed(uint64_t preset_seed, uint64_t seed)
{
    if (!seed)
        return preset_seed;
    uint64_t s = splitmix64(preset_seed ^ splitmix64(seed));
    return s ? s : 1;
}

kilo::wload::WorkloadProfile
seededProfile(const std::string &bench, uint64_t seed)
{
    kilo::wload::WorkloadProfile p = kilo::wload::profileByName(bench);
    p.seed = mixSeed(p.seed, seed);
    return p;
}

double
peakRssMb()
{
    // VmHWM restarts with this program image. getrusage's ru_maxrss
    // does not: Linux carries the high-water mark across exec, so a
    // launcher's footprint (run.py) would mask this process's own.
    if (FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        unsigned long kb = 0;
        while (std::fgets(line, sizeof line, f))
            if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1)
                break;
        std::fclose(f);
        if (kb)
            return double(kb) / 1024.0;
    }
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // KiB
}

int
commitWidth(const MachineConfig &machine)
{
    switch (machine.kind) {
      case MachineKind::Ooo:
        return machine.cp.commitWidth;
      case MachineKind::Kilo:
        return machine.kilo.cp.commitWidth;
      case MachineKind::Dkip:
        return machine.dkip.cp.commitWidth;
    }
    return 0;
}

std::string
checkExactRun(const RunResult &r, uint64_t measure_insts,
              int commit_width)
{
    if (r.aborted)
        return "run reports aborted";
    const double committed = r.snapshot.value("committed");
    const double cycles = r.snapshot.value("cycles");
    // Commit retires whole groups, so the measured region ends on the
    // first cycle that reaches measureInsts: up to width - 1 over.
    if (committed < double(measure_insts) ||
        committed >= double(measure_insts + uint64_t(commit_width)))
        return "committed " + std::to_string(uint64_t(committed)) +
               " is not measureInsts " + std::to_string(measure_insts) +
               " (+ less than one commit group)";
    double slots = committed;
    for (const auto &e : r.snapshot.entries)
        if (e.name.rfind("stall_", 0) == 0)
            slots += e.value.asDouble();
    if (slots != double(commit_width) * cycles)
        return "stall-slot identity broken: sum(stall_*) + committed = " +
               std::to_string(uint64_t(slots)) + " but width x cycles = " +
               std::to_string(uint64_t(double(commit_width) * cycles));
    return {};
}

} // namespace kilobench
