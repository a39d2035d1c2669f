/**
 * @file
 * Reproduces Figures 13 and 14: the per-benchmark high-water marks of
 * LLIB occupancy — simultaneous instructions and simultaneous READY
 * registers (LLRF allocation) — for the integer LLIB on the
 * SpecINT-like suite and the FP LLIB on the SpecFP-like suite.
 *
 * Expected shape: registers track well below instructions (many
 * low-locality instructions carry no READY operand); only integer
 * members with long irregular load chains approach the 2048-entry
 * capacity.
 *
 * Each suite runs as one SweepEngine::matrixByName job list, so the
 * bench inherits the thread pool (KILO_SWEEP_THREADS) and emits the
 * standard JSONL rows on stderr like the other figure benches.
 */

#include <cstdio>
#include <iostream>

#include "src/sim/sweep.hh"
#include "src/sim/sweep_engine.hh"
#include "src/sim/table.hh"

using namespace kilo;
using namespace kilo::sim;

int
main()
{
    RunConfig rc; // full-length runs for credible high-water marks

    SweepEngine engine;
    for (auto suite :
         {std::pair{"Figure 13 (integer LLIB, SpecINT-like)",
                    intSuite()},
          std::pair{"Figure 14 (FP LLIB, SpecFP-like)", fpSuite()}}) {
        bool fp_side =
            suite.second.size() == fpSuite().size() &&
            suite.second.front() == fpSuite().front();

        auto jobs = SweepEngine::matrixByName({"dkip"}, suite.second,
                                              {"mem-400"}, rc);
        auto results = engine.run(jobs);
        writeJsonRows(std::cerr, results);

        Table table({"bench", "max instructions", "max registers",
                     "regs/instrs"});
        for (size_t bi = 0; bi < suite.second.size(); ++bi) {
            const RunResult &res = results[bi];
            auto insts = uint64_t(res.snapshot.value(
                fp_side ? "max_llib_instrs_fp" : "max_llib_instrs_int"));
            auto regs = uint64_t(res.snapshot.value(
                fp_side ? "max_llib_regs_fp" : "max_llib_regs_int"));
            table.addRow({suite.second[bi], std::to_string(insts),
                          std::to_string(regs),
                          insts ? sim::Table::num(double(regs) /
                                                  double(insts))
                                : "-"});
        }
        std::printf("== %s ==\n%s\n", suite.first,
                    table.render().c_str());
    }

    std::printf("paper reference: register high-water marks sit well "
                "below instruction marks; a ~1000-entry LLRF would "
                "have sufficed for all benchmarks\n");
    return 0;
}
