/**
 * @file
 * Demonstrates the paper's central concept — *execution locality* —
 * on one benchmark: the decode-to-issue distance distribution of an
 * unlimited-window machine (Figure 3's analysis) next to the D-KIP's
 * Analyze-stage classification of the same instruction stream.
 *
 *     ./execution_locality [benchmark]
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include "src/sim/simulator.hh"
#include "src/wload/synthetic.hh"

using namespace kilo;

int
main(int argc, char **argv)
{
    std::string bench = argc > 1 ? argv[1] : "equake";
    sim::RunConfig rc;

    // 1. The phenomenon: issue-latency distribution on an unlimited
    //    out-of-order core with 400-cycle memory.
    auto limit = sim::Simulator::run(
        sim::MachineConfig::windowLimit(8192), bench,
        mem::MemConfig::mem400(), rc);
    const Histogram &h = *limit.snapshot.histogram("issue_latency");
    std::printf("== %s on an unlimited window, MEM-400 ==\n",
                bench.c_str());
    std::printf("mean decode->issue distance : %.1f cycles\n",
                h.mean());
    std::printf("high locality (<300 cycles) : %5.1f%%\n",
                100.0 * h.fractionBelow(300));
    std::printf("one-miss group (300-600)    : %5.1f%%\n",
                100.0 * (h.fractionBelow(600) - h.fractionBelow(300)));
    std::printf("two-miss group (600-1000)   : %5.1f%%\n",
                100.0 *
                    (h.fractionBelow(1000) - h.fractionBelow(600)));

    // 2. The exploitation: what the D-KIP's Analyze stage does with
    //    the same stream.
    auto dkip = sim::Simulator::run(sim::MachineConfig::dkip2048(),
                                    bench, mem::MemConfig::mem400(),
                                    rc);
    const auto &s = dkip.snapshot;
    std::printf("\n== the D-KIP's view of the same stream ==\n");
    std::printf("IPC                          : %.2f\n", dkip.ipc);
    std::printf("executed in Cache Processor  : %5.1f%%\n",
                100.0 * (1.0 - s.value("mp_fraction")));
    std::printf("executed in memory domain    : %5.1f%%  "
                "(LLIB->MP and Address Processor)\n",
                100.0 * s.value("mp_fraction"));
    std::printf("LLIB insertions (int/fp)     : %lu / %lu\n",
                (unsigned long)s.value("llib_inserted_int"),
                (unsigned long)s.value("llib_inserted_fp"));
    std::printf("LLIB high-water (instrs/regs): %lu / %lu\n",
                (unsigned long)std::max(s.value("max_llib_instrs_int"),
                                        s.value("max_llib_instrs_fp")),
                (unsigned long)std::max(s.value("max_llib_regs_int"),
                                        s.value("max_llib_regs_fp")));
    std::printf("analyze stall cycles         : %lu (%.2f%% of %lu)\n",
                (unsigned long)s.value("analyze_stall_cycles"),
                100.0 * s.value("analyze_stall_cycles") /
                    s.value("cycles"),
                (unsigned long)s.value("cycles"));
    return 0;
}
