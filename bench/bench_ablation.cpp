/**
 * @file
 * Ablation studies on the D-KIP design choices DESIGN.md calls out:
 * the Aging-ROB timer, LLIB capacity, LLRF banking, checkpoint-stack
 * depth, the branch predictor family, the MP reservation queue, and
 * the finite-MSHR structural hazard (MemConfig::mshrStall). Each
 * sweep runs a small representative workload set (one streaming FP,
 * one chasing INT, one branchy INT).
 *
 * Every sweep dispatches as one SweepEngine::matrix (inheriting
 * KILO_SWEEP_THREADS) and emits the standard JSONL rows on stderr
 * like the figure benches.
 */

#include <cstdio>
#include <functional>
#include <iostream>
#include <vector>

#include "src/sim/sweep_engine.hh"
#include "src/sim/table.hh"

using namespace kilo;
using namespace kilo::sim;

namespace
{

const std::vector<std::string> kBenches{"swim", "vpr", "gcc"};

SweepEngine &
engine()
{
    static SweepEngine e;
    return e;
}

/** Render one machine-major result matrix as a points×benches table. */
void
render(const char *title, const char *axis,
       const std::vector<std::string> &points,
       const std::vector<RunResult> &results)
{
    writeJsonRows(std::cerr, results);
    std::vector<std::string> headers{axis};
    for (const auto &b : kBenches)
        headers.push_back(b);
    Table table(headers);
    for (size_t i = 0; i < points.size(); ++i) {
        std::vector<std::string> row{points[i]};
        for (size_t b = 0; b < kBenches.size(); ++b)
            row.push_back(
                Table::num(results[i * kBenches.size() + b].ipc));
        table.addRow(row);
    }
    std::printf("== %s ==\n%s\n", title, table.render().c_str());
}

/** Sweep a machine-configuration axis over the bench set. */
void
sweep(const char *title, const char *axis,
      const std::vector<std::string> &points,
      const std::function<MachineConfig(size_t)> &make)
{
    std::vector<MachineConfig> machines;
    for (size_t i = 0; i < points.size(); ++i)
        machines.push_back(make(i));
    auto jobs = SweepEngine::matrix(machines, kBenches,
                                    {mem::MemConfig::mem400()},
                                    RunConfig::sweep());
    render(title, axis, points, engine().run(jobs));
}

/** Sweep a memory-configuration axis (fixed D-KIP machine). */
void
sweepMem(const char *title, const char *axis,
         const std::vector<std::string> &points,
         const std::function<mem::MemConfig(size_t)> &make)
{
    // One matrix per memory point, appended, keeps the point-major
    // result layout render() expects in a single pool dispatch.
    std::vector<SweepJob> jobs;
    for (size_t i = 0; i < points.size(); ++i) {
        auto point = SweepEngine::matrix({MachineConfig::dkip2048()},
                                         kBenches, {make(i)},
                                         RunConfig::sweep());
        jobs.insert(jobs.end(), point.begin(), point.end());
    }
    render(title, axis, points, engine().run(jobs));
}

} // anonymous namespace

int
main()
{
    sweep("Aging-ROB timer (cycles before Analyze)", "timer",
          {"8", "16", "32", "64"}, [](size_t i) {
              int timers[] = {8, 16, 32, 64};
              auto m = MachineConfig::dkip2048();
              m.dkip.robTimer = timers[i];
              m.dkip.cp.robSize = size_t(timers[i]) * 4;
              return m;
          });

    sweep("LLIB capacity (entries per buffer)", "entries",
          {"256", "512", "1024", "2048"}, [](size_t i) {
              size_t caps[] = {256, 512, 1024, 2048};
              auto m = MachineConfig::dkip2048();
              m.dkip.llibCapacity = caps[i];
              return m;
          });

    sweep("LLRF banks (constant 2048 registers)", "banks",
          {"2", "4", "8", "16"}, [](size_t i) {
              int banks[] = {2, 4, 8, 16};
              auto m = MachineConfig::dkip2048();
              m.dkip.llrfBanks = banks[i];
              m.dkip.llrfRegsPerBank = 2048 / banks[i];
              return m;
          });

    sweep("Checkpoint stack depth", "entries", {"2", "4", "8", "16",
                                                "32"},
          [](size_t i) {
              size_t caps[] = {2, 4, 8, 16, 32};
              auto m = MachineConfig::dkip2048();
              m.dkip.checkpointCapacity = caps[i];
              return m;
          });

    sweep("Branch predictor (Cache Processor)", "kind",
          {"perceptron", "gshare", "bimodal", "always-taken",
           "perfect"},
          [](size_t i) {
              pred::BpKind kinds[] = {
                  pred::BpKind::Perceptron, pred::BpKind::Gshare,
                  pred::BpKind::Bimodal, pred::BpKind::AlwaysTaken,
                  pred::BpKind::Perfect};
              auto m = MachineConfig::dkip2048();
              m.dkip.cp.predictor = kinds[i];
              return m;
          });

    sweep("MP reservation-queue size (in-order)", "entries",
          {"8", "20", "40", "80"}, [](size_t i) {
              size_t sizes[] = {8, 20, 40, 80};
              auto m = MachineConfig::dkip2048();
              m.dkip.mpIqSize = sizes[i];
              return m;
          });

    // Finite MSHRs as a structural hazard (MemConfig::mshrStall): at
    // a generous capacity the stall never fires and IPC matches the
    // displacement model; shrinking the file back-pressures the MP's
    // miss streams long before it hurts the branchy INT members.
    sweepMem("MSHR structural hazard (mshrStall back-pressure)",
             "mshrs",
             {"displace-4096", "stall-4096", "stall-64", "stall-32",
              "stall-16", "stall-8"},
             [](size_t i) {
                 uint32_t caps[] = {4096, 4096, 64, 32, 16, 8};
                 auto m = mem::MemConfig::mem400();
                 m.numMshrs = caps[i];
                 m.mshrStall = i != 0;
                 return m;
             });

    return 0;
}
