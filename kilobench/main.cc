/**
 * @file
 * kilobench: the repository benchmark driver.
 *
 *     kilobench --workload memstall|compute|fig9-sweep|sampled-long|all
 *               [--seed N] [--seconds S] [--trace 0|1] [--tmp-dir DIR]
 *     kilobench --selftest
 *
 * Prints a provenance line, human-readable "# ..." lines, and as its
 * last line one JSON object {"correct", "attempted", "failed",
 * "metrics"}: the end-to-end metrics with --trace 0, the per-layer
 * ledger with --trace 1. See README.md.
 */

#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "kilobench/bench.hh"

#ifndef KILOBENCH_COMPILER
#define KILOBENCH_COMPILER "unknown"
#endif
#ifndef KILOBENCH_FLAGS
#define KILOBENCH_FLAGS "unknown"
#endif
#ifndef KILOBENCH_BUILD_TYPE
#define KILOBENCH_BUILD_TYPE "unknown"
#endif

using namespace kilobench;

namespace
{

struct Workload
{
    const char *name;
    void (*run)(const Options &, Report &);
};

const Workload Workloads[] = {
    {"memstall", runMemstall},
    {"compute", runCompute},
    {"fig9-sweep", runFig9Sweep},
    {"sampled-long", runSampledLong},
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: kilobench --workload memstall|compute|fig9-sweep|"
                 "sampled-long|all [--seed N] [--seconds S] [--trace 0|1]\n"
                 "                 [--tmp-dir DIR]\n"
                 "       kilobench --selftest\n");
    return 2;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        size_t b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

void
printProvenance(const Options &opt)
{
    const char *commit = std::getenv("KILOBENCH_COMMIT");
    std::printf("# host {\"nproc\":%ld,\"cpu\":\"%s\",\"compiler\":\"%s\","
                "\"flags\":\"%s\",\"build_type\":\"%s\",\"commit\":\"%s\","
                "\"seed\":%llu,\"threads\":%u,\"workload\":\"%s\","
                "\"seconds\":%g,\"trace\":%d}\n",
                sysconf(_SC_NPROCESSORS_ONLN), jsonEscape(cpuModel()).c_str(),
                jsonEscape(KILOBENCH_COMPILER).c_str(),
                jsonEscape(KILOBENCH_FLAGS).c_str(), KILOBENCH_BUILD_TYPE,
                jsonEscape(commit && *commit ? commit : "unknown").c_str(),
                (unsigned long long)opt.seed, opt.threads,
                opt.workload.c_str(), opt.seconds, opt.trace ? 1 : 0);
}

/** Removes the temporary trace directory on every exit path. */
struct TmpDir
{
    std::filesystem::path path;
    explicit TmpDir(std::filesystem::path p) : path(std::move(p))
    {
        std::filesystem::create_directories(path);
    }
    ~TmpDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    TmpDir(const TmpDir &) = delete;
    TmpDir &operator=(const TmpDir &) = delete;
};

/** Print the declared metrics and return them as a JSON member
 *  list ("name": {"value": v, "unit": u}, ...). */
std::string
metricsJson(const Report &rep, const std::vector<Metric> &declared,
            const std::string &prefix)
{
    std::string json;
    char buf[256];
    for (const Metric &d : declared) {
        double v = 0.0;
        bool measured = false;
        for (const Metric &m : rep.metrics)
            if (m.name == d.name) {
                v = m.value;
                measured = true;
            }
        if (!std::isfinite(v))
            v = 0.0;
        std::printf("# metric %s%s = %.6g %s%s\n", prefix.c_str(),
                    d.name.c_str(), v, d.unit.c_str(),
                    measured ? "" : "  (not measured on this workload)");
        std::snprintf(buf, sizeof buf,
                      "%s\"%s%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      json.empty() ? "" : ", ", prefix.c_str(),
                      d.name.c_str(), v, d.unit.c_str());
        json += buf;
    }
    return json;
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::string &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed, metrics.c_str());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool selftest_only = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--selftest") {
            selftest_only = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage();
        const char *v = argv[++i];
        if (arg == "--workload")
            opt.workload = v;
        else if (arg == "--seed")
            opt.seed = std::strtoull(v, nullptr, 10);
        else if (arg == "--seconds")
            opt.seconds = std::strtod(v, nullptr);
        else if (arg == "--trace")
            opt.trace = std::strcmp(v, "0") != 0;
        else if (arg == "--tmp-dir")
            opt.tmpDir = v;
        else
            return usage();
    }
    // Sweep workers: at most 3, and one CPU fewer than the host has, so
    // the launcher and the OS keep a CPU of their own (at 4 workers on
    // a 4-CPU host one busy CPU stalled the whole pool).
    const unsigned nproc = std::thread::hardware_concurrency();
    opt.threads = std::clamp(nproc > 1 ? nproc - 1 : 1u, 1u, 3u);

    if (selftest_only) {
        int failures = runSelfTests();
        std::printf("kilobench selftest: %s\n", failures ? "FAILED" : "ok");
        return failures ? 1 : 0;
    }

    std::vector<const Workload *> chosen;
    for (const Workload &w : Workloads)
        if (opt.workload == w.name || opt.workload == "all")
            chosen.push_back(&w);
    if (chosen.empty() || !(opt.seconds > 0.0))
        return usage();
    if (opt.tmpDir.empty())
        opt.tmpDir = "kilobench-tmp-" + std::to_string(getpid());

    try {
        TmpDir tmp(opt.tmpDir);
        printProvenance(opt);
        const int selftest_failures = runSelfTests();
        std::printf("# selftest %s\n", selftest_failures ? "FAILED" : "ok");

        // With --workload all the metric names carry a
        // "<workload>." prefix; the totals cover every workload.
        bool all_correct = selftest_failures == 0;
        uint64_t attempted = 0, failed = 0;
        std::string metrics;
        for (const Workload *w : chosen) {
            Report rep;
            w->run(opt, rep);
            const bool correct =
                selftest_failures == 0 && rep.consistent && rep.failed == 0;
            std::printf("# %s digest %016llx correct %d attempted %llu "
                        "failed %llu\n",
                        w->name, (unsigned long long)rep.digest, correct,
                        (unsigned long long)rep.attempted,
                        (unsigned long long)rep.failed);
            const std::string prefix =
                chosen.size() > 1 ? std::string(w->name) + "." : "";
            std::string json = metricsJson(
                rep, opt.trace ? perLayerMetrics() : endToEndMetrics(),
                prefix);
            all_correct = all_correct && correct;
            attempted += rep.attempted;
            failed += rep.failed;
            metrics += (metrics.empty() ? "" : ", ") + json;
        }
        printResult(all_correct, attempted, failed, metrics);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "kilobench: %s\n", e.what());
        return 1;
    }
    return 0;
}
