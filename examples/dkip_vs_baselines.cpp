/**
 * @file
 * Runs the full SpecINT-like and SpecFP-like suites over the four
 * machines of the paper's Figure 9 and prints per-benchmark IPC plus
 * the arithmetic means — the library's reproduction of the headline
 * comparison.
 *
 *     ./dkip_vs_baselines [--quick]
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/sim/sweep.hh"
#include "src/sim/table.hh"

using namespace kilo;

namespace
{

void
printSuiteTable(const char *title,
              const std::vector<std::string> &suite,
              const std::vector<sim::MachineConfig> &machines,
              const sim::RunConfig &rc)
{
    sim::Table table({"bench", "R10-64", "R10-256", "KILO-1024",
                      "DKIP-2048", "MPfrac%"});
    std::vector<double> sums(machines.size(), 0.0);
    double mp_sum = 0.0;

    for (const auto &name : suite) {
        std::vector<std::string> row{name};
        double mp_frac = 0.0;
        for (size_t m = 0; m < machines.size(); ++m) {
            auto res = sim::Simulator::run(
                machines[m], name, mem::MemConfig::mem400(), rc);
            sums[m] += res.ipc;
            row.push_back(sim::Table::num(res.ipc));
            if (machines[m].kind == sim::MachineKind::Dkip)
                mp_frac = res.snapshot.value("mp_fraction");
        }
        mp_sum += mp_frac;
        row.push_back(sim::Table::num(100.0 * mp_frac, 1));
        table.addRow(row);
    }

    std::vector<std::string> mean_row{"MEAN"};
    for (double s : sums)
        mean_row.push_back(
            sim::Table::num(s / double(suite.size())));
    mean_row.push_back(
        sim::Table::num(100.0 * mp_sum / double(suite.size()), 1));
    table.addRow(mean_row);

    std::printf("== %s ==\n%s\n", title, table.render().c_str());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
    sim::RunConfig rc =
        quick ? sim::RunConfig::sweep() : sim::RunConfig();

    std::vector<sim::MachineConfig> machines{
        sim::MachineConfig::r10_64(),
        sim::MachineConfig::r10_256(),
        sim::MachineConfig::kilo1024(),
        sim::MachineConfig::dkip2048(),
    };

    printSuiteTable("SpecINT-like suite", sim::intSuite(), machines, rc);
    printSuiteTable("SpecFP-like suite", sim::fpSuite(), machines, rc);
    return 0;
}
