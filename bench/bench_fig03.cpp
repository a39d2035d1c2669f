/**
 * @file
 * Reproduces Figure 3: the distribution of the decode-to-issue
 * distance (Issue Latency) of correct-path instructions on an
 * effectively unlimited out-of-order core with 400-cycle memory,
 * over the SpecFP-like suite.
 *
 * Expected shape (paper section 2.1): ~70% of instructions issue
 * within ~300 cycles of decode (high execution locality); a
 * secondary peak sits at the memory latency (~400, one miss) and a
 * small one at twice that (~800, a chain of two misses).
 *
 * The suite is dispatched as a SweepEngine matrix, so this bench
 * inherits the thread pool (KILO_SWEEP_THREADS) and emits the
 * standard JSONL rows on stderr; the RunResult rows carry the full
 * per-run issue-latency histogram the figure is built from.
 */

#include <cstdio>
#include <iostream>

#include "src/sim/sweep.hh"
#include "src/sim/sweep_engine.hh"
#include "src/util/histogram.hh"

using namespace kilo;
using namespace kilo::sim;

int
main()
{
    RunConfig rc;
    rc.warmupInsts = 10000;
    rc.measureInsts = 60000;

    SweepEngine engine;
    auto jobs = SweepEngine::matrix({MachineConfig::windowLimit(8192)},
                                    fpSuite(),
                                    {mem::MemConfig::mem400()}, rc);
    auto results = engine.run(jobs);

    Histogram combined(25, 80); // 25-cycle buckets to 2000
    for (const auto &r : results) {
        const Histogram &h = *r.snapshot.histogram("issue_latency");
        for (size_t b = 0; b < h.numBuckets(); ++b) {
            for (uint64_t n = 0; n < h.bucketCount(b); ++n)
                combined.sample(b * h.bucketWidth());
        }
        std::printf("%-10s mean issue latency %7.1f  %%<300 %5.1f\n",
                    r.workload.c_str(), h.mean(),
                    100.0 * h.fractionBelow(300));
    }
    writeJsonRows(std::cerr, results);

    std::printf("\n== Figure 3: decode->issue distance, SpecFP-like, "
                "MEM-400, unlimited core ==\n");
    std::printf("%s\n", combined.render(44).c_str());

    double below300 = combined.fractionBelow(300);
    double peak400 = combined.fractionBelow(600) - below300;
    double peak800 =
        combined.fractionBelow(1000) - combined.fractionBelow(600);
    std::printf("fraction issuing < 300 cycles : %5.1f%%  "
                "(paper: ~70%%)\n", 100.0 * below300);
    std::printf("fraction in 300-600 (1 miss)  : %5.1f%%  "
                "(paper: ~11-12%%)\n", 100.0 * peak400);
    std::printf("fraction in 600-1000 (2 miss) : %5.1f%%  "
                "(paper: ~4%%)\n", 100.0 * peak800);
    return 0;
}
