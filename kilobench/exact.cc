/**
 * @file
 * Untraced and traced exact runs, and the per-layer ledger.
 */

#include "kilobench/exact.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/mem/hierarchy.hh"
#include "src/sim/session.hh"
#include "src/sim/sweep_engine.hh"

namespace kilobench
{

using namespace kilo;

namespace
{

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
stat(const RunLedger &r, const char *name)
{
    return r.result.snapshot.value(name);
}

} // anonymous namespace

void
TimedWorkload::note(const isa::MicroOp &op)
{
    if (refs && op.isMem())
        refs->push_back({op.effAddr, op.isStore()});
}

isa::MicroOp
TimedWorkload::next()
{
    double t0 = nowS();
    isa::MicroOp op = inner.next();
    ns += (nowS() - t0) * 1e9;
    ++pulled;
    note(op);
    return op;
}

size_t
TimedWorkload::nextBlock(isa::MicroOp *out, size_t n)
{
    double t0 = nowS();
    size_t got = inner.nextBlock(out, n);
    ns += (nowS() - t0) * 1e9;
    pulled += got;
    if (refs)
        for (size_t i = 0; i < got; ++i)
            note(out[i]);
    return got;
}

void
TimedWorkload::skip(uint64_t n)
{
    double t0 = nowS();
    inner.skip(n);
    skipNs += (nowS() - t0) * 1e9;
    skipped += n;
}

UntracedRun
runUntraced(const sim::MachineConfig &machine, wload::Workload &workload,
            const sim::RunConfig &rc)
{
    UntracedRun out;
    double t0 = nowS();
    sim::Session session(machine, workload, mem::MemConfig::mem400(), rc);
    double t1 = nowS();
    session.warmup();
    session.run();
    out.result = session.finish();
    out.constructS = t1 - t0;
    out.simS = nowS() - t1;
    return out;
}

RunLedger
runTraced(const sim::MachineConfig &machine, wload::Workload &workload,
          const sim::RunConfig &rc, bool replay_mem)
{
    RunLedger led;
    led.machine = machine.name;
    led.kind = machine.kind;
    led.width = commitWidth(machine);
    const mem::MemConfig mem_cfg = mem::MemConfig::mem400();

    std::vector<TimedWorkload::MemRef> refs;
    TimedWorkload timed(workload, replay_mem ? &refs : nullptr);

    double t0 = nowS();
    sim::Session session(machine, timed, mem_cfg, rc);
    double t1 = nowS();
    session.warmup();
    double t2 = nowS();
    // One step(1) call ticks exactly once; any further cycles it
    // advanced were idle-skipped.
    while (!session.finished()) {
        uint64_t c0 = session.core().cycle();
        session.step(1);
        uint64_t adv = session.core().cycle() - c0;
        ++led.ticks;
        if (adv > 1)
            led.skippedCycles += adv - 1;
    }
    double t3 = nowS();
    stats::Snapshot snap = session.snapshot();
    double t4 = nowS();
    led.result = session.finish();
    double t5 = nowS();
    std::string row = sim::runResultJson(led.result);
    double t6 = nowS();
    (void)snap;

    led.constructS = t1 - t0;
    led.warmupS = t2 - t1;
    led.measureS = t3 - t2;
    led.snapshotUs = (t4 - t3) * 1e6;
    led.finishS = t5 - t4;
    led.rowJsonUs = (t6 - t5) * 1e6;
    led.wloadNs = timed.ns;
    led.pulled = timed.pulled;
    led.committedTotal =
        rc.warmupInsts + uint64_t(led.result.snapshot.value("committed"));
    const uint64_t cycles = uint64_t(led.result.snapshot.value("cycles"));
    if (led.ticks + led.skippedCycles != cycles)
        led.error = "step(1) ticks " + std::to_string(led.ticks) +
                    " + skipped " + std::to_string(led.skippedCycles) +
                    " != measured cycles " + std::to_string(cycles);

    // Functional prewarm of the run's regions on a fresh hierarchy.
    {
        mem::MemoryHierarchy fresh(mem_cfg);
        double p0 = nowS();
        for (const auto &region : workload.regions())
            fresh.prewarm(region.base, region.bytes);
        led.prewarmS = nowS() - p0;
        if (replay_mem) {
            mem::MemoryHierarchy h(mem_cfg);
            for (const auto &region : workload.regions())
                h.prewarm(region.base, region.bytes);
            uint64_t now = 0;
            double r0 = nowS();
            for (const auto &ref : refs)
                h.access(ref.addr, ref.write, ++now);
            led.memReplayNs = (nowS() - r0) * 1e9;
            led.memReplayed = refs.size();
        }
    }
    return led;
}

namespace
{

using Values = std::vector<std::pair<const char *, double>>;

Values
layerValues(const std::vector<const RunLedger *> &runs, unsigned rounds)
{
    const double per = rounds ? 1.0 / double(rounds) : 0.0;
    double construct = 0, warm = 0, measure = 0, finish = 0;
    double ticks = 0, skipped = 0, cycles = 0, slots = 0;
    double committed = 0, fetched = 0, wl_ns = 0, pulled = 0;
    double committed_total = 0, prewarm = 0, replay_ns = 0, replayed = 0;
    double accesses = 0, l2_misses = 0, fills = 0, merges = 0;
    double mshr_peak = 0, mispredicts = 0, branches = 0;
    double snap_us = 0, row_us = 0;
    double dk_committed = 0, dk_cycles = 0, llib = 0, analyze = 0;
    double llrf_peak = 0, ckpts = 0;
    double ki_committed = 0, ki_cycles = 0, sliq = 0, sliq_full = 0;
    const char *const stalls[] = {"stall_frontend", "stall_empty",
                                  "stall_mem",      "stall_exec",
                                  "stall_depend",   "stall_issue",
                                  "stall_mshr",     "stall_decoupled"};
    double stall_sum[8] = {};

    for (const RunLedger *r : runs) {
        construct += r->constructS;
        warm += r->warmupS;
        measure += r->measureS;
        finish += r->finishS;
        ticks += double(r->ticks);
        skipped += double(r->skippedCycles);
        const double cyc = stat(*r, "cycles");
        cycles += cyc;
        slots += double(r->width) * cyc;
        committed += stat(*r, "committed");
        fetched += stat(*r, "fetched");
        for (int i = 0; i < 8; ++i)
            stall_sum[i] += stat(*r, stalls[i]);
        wl_ns += r->wloadNs;
        pulled += double(r->pulled);
        committed_total += double(r->committedTotal);
        prewarm += r->prewarmS;
        replay_ns += r->memReplayNs;
        replayed += double(r->memReplayed);
        accesses += stat(*r, "mem_accesses");
        l2_misses += stat(*r, "l2_misses");
        fills += stat(*r, "mem_fills");
        merges += stat(*r, "mshr_merges");
        mshr_peak = std::max(mshr_peak, stat(*r, "mshr_peak"));
        mispredicts += stat(*r, "mispredicts");
        branches += stat(*r, "branches");
        snap_us += r->snapshotUs;
        row_us += r->rowJsonUs;
        if (r->kind == sim::MachineKind::Dkip) {
            dk_committed += stat(*r, "committed");
            dk_cycles += cyc;
            llib += stat(*r, "llib_inserted_int") +
                    stat(*r, "llib_inserted_fp");
            analyze += stat(*r, "analyze_stall_cycles");
            llrf_peak = std::max(llrf_peak,
                                 stat(*r, "max_llib_regs_int") +
                                     stat(*r, "max_llib_regs_fp"));
            ckpts += stat(*r, "checkpoints_taken");
        } else if (r->kind == sim::MachineKind::Kilo) {
            ki_committed += stat(*r, "committed");
            ki_cycles += cyc;
            sliq += stat(*r, "sliq_inserted_int") +
                    stat(*r, "sliq_inserted_fp");
            sliq_full += stat(*r, "sliq_full_stalls");
        }
    }
    const double n = double(runs.size());
    Values v{
        {"sim.construct_s", construct * per},
        {"sim.warmup_s", warm * per},
        {"sim.measure_s", measure * per},
        {"sim.finish_s", finish * per},
        {"core.ticks", ticks * per},
        {"core.skipped_cycles", skipped * per},
        {"core.skip_frac", ratio(skipped, cycles)},
        {"core.ns_per_cycle", ratio(measure * 1e9, cycles)},
        {"core.ns_per_tick", ratio(measure * 1e9, ticks)},
        {"core.commit_per_fetch", ratio(committed, fetched)},
        {"core.stall_frontend_frac", ratio(stall_sum[0], slots)},
        {"core.stall_empty_frac", ratio(stall_sum[1], slots)},
        {"core.stall_mem_frac", ratio(stall_sum[2], slots)},
        {"core.stall_exec_frac", ratio(stall_sum[3], slots)},
        {"core.stall_depend_frac", ratio(stall_sum[4], slots)},
        {"core.stall_issue_frac", ratio(stall_sum[5], slots)},
        {"core.stall_mshr_frac", ratio(stall_sum[6], slots)},
        {"core.stall_decoupled_frac", ratio(stall_sum[7], slots)},
        {"wload.ns_per_op", ratio(wl_ns, pulled)},
        {"wload.pull_per_commit", ratio(pulled, committed_total)},
        {"mem.prewarm_s", prewarm * per},
        {"mem.ns_per_access", ratio(replay_ns, replayed)},
        {"mem.l2_miss_ratio", ratio(l2_misses, accesses)},
        {"mem.fills_per_kinst", ratio(fills * 1000.0, committed)},
        {"mem.mshr_merge_frac", ratio(merges, merges + fills)},
        {"mem.mshr_peak", mshr_peak},
        {"pred.mispredict_rate", ratio(mispredicts, branches)},
        {"dkip.llib_frac", ratio(llib, dk_committed)},
        {"dkip.analyze_stall_frac", ratio(analyze, dk_cycles)},
        {"dkip.llrf_peak_regs", llrf_peak},
        {"dkip.checkpoints_per_kinst", ratio(ckpts * 1000.0, dk_committed)},
        {"kilo_proc.sliq_frac", ratio(sliq, ki_committed)},
        {"kilo_proc.sliq_full_stall_frac", ratio(sliq_full, ki_cycles)},
        {"stats.snapshot_us", ratio(snap_us, n)},
        {"stats.row_json_us", ratio(row_us, n)},
    };
    return v;
}

std::vector<const RunLedger *>
pointers(const std::vector<RunLedger> &runs)
{
    std::vector<const RunLedger *> p;
    for (const auto &r : runs)
        p.push_back(&r);
    return p;
}

} // anonymous namespace

void
addExactLayers(Report &rep, const std::vector<RunLedger> &runs,
               unsigned rounds)
{
    for (const auto &[name, value] : layerValues(pointers(runs), rounds))
        rep.set(name, value);
}

void
printMachineBreakdown(const std::string &workload,
                      const std::vector<RunLedger> &runs, unsigned rounds)
{
    std::vector<std::string> machines;
    for (const auto &r : runs)
        if (std::find(machines.begin(), machines.end(), r.machine) ==
            machines.end())
            machines.push_back(r.machine);
    for (const auto &m : machines) {
        std::vector<const RunLedger *> sub;
        for (const auto &r : runs)
            if (r.machine == m)
                sub.push_back(&r);
        std::printf("# ledger %s machine=%s", workload.c_str(), m.c_str());
        for (const auto &[name, value] : layerValues(sub, rounds))
            std::printf(" %s=%.6g", name, value);
        std::printf("\n");
    }
}

} // namespace kilobench
