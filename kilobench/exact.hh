/**
 * @file
 * One exact (machine, workload) run, untraced or traced, and the
 * per-layer ledger built from traced runs.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kilobench/bench.hh"
#include "src/sim/config.hh"
#include "src/sim/simulator.hh"
#include "src/wload/workload.hh"

namespace kilobench
{

/**
 * Forwarding Workload decorator: passes the inner stream through
 * unchanged while timing every pull and counting the ops handed out
 * (and, optionally, recording the load/store address stream).
 */
class TimedWorkload : public kilo::wload::Workload
{
  public:
    struct MemRef
    {
        uint64_t addr = 0;
        bool write = false;
    };

    /** @p mem_refs may be null: addresses are then not recorded. */
    TimedWorkload(kilo::wload::Workload &wrapped,
                  std::vector<MemRef> *mem_refs)
        : inner(wrapped), refs(mem_refs)
    {}

    kilo::isa::MicroOp next() override;
    size_t nextBlock(kilo::isa::MicroOp *out, size_t n) override;
    void skip(uint64_t n) override;
    const std::string &name() const override { return inner.name(); }
    bool isFp() const override { return inner.isFp(); }
    void reset() override { inner.reset(); }
    std::vector<kilo::wload::AddressRegion> regions() const override
    {
        return inner.regions();
    }

    double ns = 0.0;       ///< host time in next() / nextBlock()
    uint64_t pulled = 0;   ///< ops handed to the caller
    double skipNs = 0.0;   ///< host time in skip()
    uint64_t skipped = 0;  ///< ops fast-forwarded through skip()

  private:
    void note(const kilo::isa::MicroOp &op);

    kilo::wload::Workload &inner;
    std::vector<MemRef> *refs;
};

/** An untraced exact run: Session construction, then the run. */
struct UntracedRun
{
    kilo::sim::RunResult result;
    double constructS = 0.0;   ///< Session constructor incl. prewarm
    double simS = 0.0;         ///< warmup + run + finish
};

UntracedRun runUntraced(const kilo::sim::MachineConfig &machine,
                        kilo::wload::Workload &workload,
                        const kilo::sim::RunConfig &rc);

/** Everything a traced exact run measures. */
struct RunLedger
{
    std::string machine;
    kilo::sim::MachineKind kind = kilo::sim::MachineKind::Ooo;
    int width = 0;
    kilo::sim::RunResult result;

    double constructS = 0.0, warmupS = 0.0, measureS = 0.0, finishS = 0.0;
    uint64_t ticks = 0;           ///< step(1) calls in the measured region
    uint64_t skippedCycles = 0;   ///< cycles advanced beyond one per call
    double wloadNs = 0.0;
    uint64_t pulled = 0;
    uint64_t committedTotal = 0;  ///< warm-up plus measured
    double prewarmS = 0.0;        ///< MemoryHierarchy::prewarm, fresh
    double memReplayNs = 0.0;     ///< access() replay of the run's refs
    uint64_t memReplayed = 0;
    double snapshotUs = 0.0;
    double rowJsonUs = 0.0;
    /** Non-empty when the step(1) tick count does not add up to the
     *  measured cycles (ticks + skipped must equal cycles). */
    std::string error;

    /** warmup + measure + finish (the traced simulation time). */
    double simS() const { return warmupS + measureS + finishS; }
};

/** Traced run; @p replay_mem also replays the address stream through
 *  a fresh MemoryHierarchy (mem.ns_per_access). */
RunLedger runTraced(const kilo::sim::MachineConfig &machine,
                    kilo::wload::Workload &workload,
                    const kilo::sim::RunConfig &rc, bool replay_mem);

/**
 * Add the sim / core / wload / mem / pred / dkip / kilo_proc / stats
 * layer metrics aggregated over @p runs (@p rounds identical rounds,
 * so counts are reported per round) to @p rep.
 */
void addExactLayers(Report &rep, const std::vector<RunLedger> &runs,
                    unsigned rounds);

/** Print the per-machine breakdown of the ledger to stdout. */
void printMachineBreakdown(const std::string &workload,
                           const std::vector<RunLedger> &runs,
                           unsigned rounds);

} // namespace kilobench
