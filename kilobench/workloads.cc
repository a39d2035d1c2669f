/**
 * @file
 * The four benchmark workloads. Each is a closed loop with one client:
 * it repeats a fixed batch of runs (or sweep batches) in rounds until
 * the time budget is spent. Every round of one seed does identical
 * work, so its row digest must repeat exactly. Every run and every
 * sweep job counts as one attempted operation.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <thread>

#include "kilobench/bench.hh"
#include "kilobench/exact.hh"
#include "kilobench/fig9_reference.hh"
#include "src/obs/profiler.hh"
#include "src/sample/sampled_run.hh"
#include "src/sim/sweep.hh"
#include "src/sim/sweep_engine.hh"
#include "src/trace/capture.hh"
#include "src/trace/trace_reader.hh"
#include "src/wload/synthetic.hh"

namespace kilobench
{

using namespace kilo;

namespace
{

/** Ops recorded beyond a run's warm-up + measured region, so fetch
 *  overshoot at the end of a run never wraps the trace. */
constexpr uint64_t TraceMargin = 16384;

/** Set-ups timed per run of a workload whose set-up is separate from
 *  its rounds (trace recording); setup_s is their median. */
constexpr int SetupReps = 3;

/** Record @p ops ops of seeded preset @p bench into @p path; returns
 *  the file size in bytes. */
uint64_t
recordTrace(const std::string &bench, uint64_t seed, uint64_t ops,
            const std::string &path)
{
    const wload::WorkloadProfile p = seededProfile(bench, seed);
    auto inner = wload::makeWorkload(p);
    trace::CapturingWorkload capture(*inner, path, p.seed);
    isa::MicroOp buf[256];
    for (uint64_t left = ops; left;)
        left -= capture.nextBlock(buf, size_t(std::min<uint64_t>(left, 256)));
    capture.finish();
    return std::filesystem::file_size(path);
}

uint64_t
foldRow(uint64_t digest, const std::string &row)
{
    return fnv1a(fnv1a(digest, row), "\n");
}

/** Tracks that every round of one seed produces the same digest. */
void
checkRoundDigest(Report &rep, uint64_t digest, const char *what)
{
    if (!rep.digest) {
        rep.digest = digest;
    } else if (digest != rep.digest) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "%s round digest %016llx differs from first "
                      "round %016llx",
                      what, (unsigned long long)digest,
                      (unsigned long long)rep.digest);
        rep.inconsistent(buf);
    }
}

void
countOp(Report &rep, const std::string &what, const std::string &error)
{
    ++rep.attempted;
    if (!error.empty()) {
        ++rep.failed;
        std::fprintf(stderr, "kilobench: failed op %s: %s\n", what.c_str(),
                     error.c_str());
    }
}

/** Alternate untraced and (in traced mode) traced rounds until the
 *  budget is spent; each side runs at least once. */
template <typename Untraced, typename Traced>
void
roundLoop(const Options &opt, Untraced untraced, Traced traced)
{
    const double start = nowS();
    do {
        untraced();
        if (opt.trace)
            traced();
    } while (nowS() - start < opt.seconds);
}

/**
 * Throughput of a batch of operations repeated over rounds. Contention
 * from other tenants of a shared host only ever slows a repetition
 * down, and it comes in phases of seconds, so the reported figure is
 * each operation's instructions over its fastest repetition; the
 * median of the per-round figures is printed beside it.
 */
class Throughput
{
  public:
    explicit Throughput(size_t ops) : insts(ops, 0.0), best(ops, HUGE_VAL)
    {}

    void
    add(size_t op, double op_insts, double secs)
    {
        insts[op] = op_insts;
        best[op] = std::min(best[op], secs);
        roundInsts += op_insts;
        roundSecs += secs;
    }

    void
    endRound()
    {
        if (roundSecs > 0.0)
            rounds.push_back(roundInsts / roundSecs / 1e6);
        roundInsts = roundSecs = 0.0;
    }

    /** Sum of instructions over sum of fastest repetitions, M/s. */
    double
    minstPerS() const
    {
        double i = 0.0, s = 0.0;
        for (size_t op = 0; op < best.size(); ++op) {
            i += insts[op];
            s += best[op];
        }
        return s > 0.0 && std::isfinite(s) ? i / s / 1e6 : 0.0;
    }

    const std::vector<double> &perRound() const { return rounds; }

  private:
    std::vector<double> insts, best;
    std::vector<double> rounds;
    double roundInsts = 0.0, roundSecs = 0.0;
};

void
reportThroughput(const Options &opt, Report &rep, const Throughput &untraced,
                 const Throughput &traced, const std::vector<double> &setup_s)
{
    const double u = untraced.minstPerS();
    rep.set("minst_per_s", u);
    rep.set("setup_s", median(setup_s));
    rep.set("peak_rss_mb", peakRssMb());
    std::printf("# rounds untraced=%zu traced=%zu setups=%zu\n",
                untraced.perRound().size(), traced.perRound().size(),
                setup_s.size());
    std::printf("# untraced Minst/s per round:");
    for (double v : untraced.perRound())
        std::printf(" %.3f", v);
    std::printf("\n# untraced Minst/s: fastest repetitions %.4f, median "
                "round %.4f\n",
                u, median(untraced.perRound()));
    if (opt.trace) {
        const double t = traced.minstPerS();
        std::printf("# traced Minst/s: fastest repetitions %.4f, median "
                    "round %.4f\n",
                    t, median(traced.perRound()));
        rep.set("bench.untraced_minst_per_s", u);
        rep.set("bench.traced_minst_per_s", t);
        rep.set("bench.trace_overhead_minst_per_s", t - u);
    }
}

// ------------------------------------------------- memstall / compute

/** Long exact runs of @p benches on r10-64, kilo and dkip. */
void
runLongExact(const Options &opt, Report &rep, const char *workload,
             const std::vector<std::string> &benches)
{
    const std::vector<std::string> machines{"r10-64", "kilo", "dkip"};
    sim::RunConfig rc;
    rc.warmupInsts = 50000;
    rc.measureInsts = 200000;

    const size_t ops = benches.size() * machines.size();
    Throughput untraced_tp(ops), traced_tp(ops);
    std::vector<double> setup_s;
    std::vector<RunLedger> ledgers;
    unsigned traced_rounds = 0;

    auto untraced = [&] {
        double setup = 0.0;
        uint64_t digest = FnvBasis;
        size_t op = 0;
        for (const auto &bench : benches) {
            for (const auto &m : machines) {
                std::string error, row = "error";
                try {
                    double t0 = nowS();
                    auto wl = wload::makeWorkload(seededProfile(bench, opt.seed));
                    sim::MachineConfig machine = sim::MachineConfig::byName(m);
                    double t1 = nowS();
                    UntracedRun u = runUntraced(machine, *wl, rc);
                    setup += (t1 - t0) + u.constructS;
                    untraced_tp.add(op,
                                    double(rc.warmupInsts) +
                                        u.result.snapshot.value("committed"),
                                    u.simS);
                    error = checkExactRun(u.result, rc.measureInsts,
                                          commitWidth(machine));
                    row = sim::runResultJson(u.result);
                } catch (const std::exception &e) {
                    error = e.what();
                }
                countOp(rep, bench + "/" + m, error);
                digest = foldRow(digest, row);
                ++op;
            }
        }
        checkRoundDigest(rep, digest, workload);
        setup_s.push_back(setup);
        untraced_tp.endRound();
    };

    auto traced = [&] {
        uint64_t digest = FnvBasis;
        size_t op = 0;
        for (const auto &bench : benches) {
            for (const auto &m : machines) {
                std::string error, row = "error";
                try {
                    auto wl = wload::makeWorkload(seededProfile(bench, opt.seed));
                    sim::MachineConfig machine = sim::MachineConfig::byName(m);
                    RunLedger led = runTraced(machine, *wl, rc, true);
                    traced_tp.add(op, double(led.committedTotal), led.simS());
                    error = led.error.empty()
                                ? checkExactRun(led.result, rc.measureInsts,
                                                led.width)
                                : led.error;
                    row = sim::runResultJson(led.result);
                    ledgers.push_back(std::move(led));
                } catch (const std::exception &e) {
                    error = e.what();
                }
                countOp(rep, bench + "/" + m + " (traced)", error);
                digest = foldRow(digest, row);
                ++op;
            }
        }
        if (digest != rep.digest)
            rep.inconsistent(std::string(workload) +
                             " traced digest differs from untraced");
        ++traced_rounds;
        traced_tp.endRound();
    };

    roundLoop(opt, untraced, traced);
    reportThroughput(opt, rep, untraced_tp, traced_tp, setup_s);
    std::printf("# model %s: unvalidated (the paper reports no per-"
                "benchmark reference for these runs)\n",
                workload);
    if (opt.trace) {
        addExactLayers(rep, ledgers, traced_rounds);
        printMachineBreakdown(workload, ledgers, traced_rounds);
    }
}

} // anonymous namespace

void
runMemstall(const Options &opt, Report &rep)
{
    runLongExact(opt, rep, "memstall", {"mcf", "twolf"});
}

void
runCompute(const Options &opt, Report &rep)
{
    runLongExact(opt, rep, "compute", {"sixtrack", "eon"});
}

// --------------------------------------------------------- fig9-sweep

void
runFig9Sweep(const Options &opt, Report &rep)
{
    const sim::RunConfig rc;  // Figure 9's own 20k + 100k runs
    // The suites of bench_fig09, one SweepEngine run per (suite,
    // machine) batch: each batch is an operation whose fastest
    // repetition counts (see Throughput).
    const std::vector<std::string> suites[2] = {sim::intSuite(),
                                                sim::fpSuite()};
    std::vector<sim::MachineConfig> machines;
    for (const char *m : Fig9Machines)
        machines.push_back(sim::MachineConfig::byName(m));

    const std::string dir = opt.tmpDir + "/fig9";
    std::filesystem::create_directories(dir);
    const uint64_t trace_ops = rc.warmupInsts + rc.measureInsts + TraceMargin;

    Throughput untraced_tp(2 * machines.size()),
        traced_tp(2 * machines.size());
    std::vector<double> setup_s, record_s;
    std::vector<std::vector<sim::SweepJob>> batches;
    std::vector<sim::SweepJob> jobs;    ///< both suites, INT first
    std::vector<std::string> labels;    ///< "machine/bench" per job
    std::vector<std::string> engine_rows;
    std::vector<sim::RunResult> engine_results;
    uint64_t trace_bytes = 0, recorded_ops = 0;
    sim::SweepEngine engine(opt.threads);

    // Setup: record one seeded KILOTRC trace per preset, build the jobs.
    auto setup = [&] {
        double t0 = nowS();
        std::vector<std::string> names[2];
        trace_bytes = recorded_ops = 0;
        for (int su = 0; su < 2; ++su) {
            for (const auto &b : suites[su]) {
                std::string path = dir + "/" + b + ".ktrc";
                trace_bytes += recordTrace(b, opt.seed, trace_ops, path);
                recorded_ops += trace_ops;
                names[su].push_back("trace:" + path);
            }
        }
        double t1 = nowS();
        jobs.clear();
        labels.clear();
        batches.clear();
        for (int su = 0; su < 2; ++su) {
            for (const auto &m : machines) {
                batches.push_back(sim::SweepEngine::matrix(
                    {m}, names[su], {mem::MemConfig::mem400()}, rc));
                for (size_t bi = 0; bi < names[su].size(); ++bi) {
                    jobs.push_back(batches.back()[bi]);
                    labels.push_back(m.name + "/" + suites[su][bi]);
                }
            }
        }
        setup_s.push_back(nowS() - t0);
        record_s.push_back(t1 - t0);
    };

    for (int i = 0; i < SetupReps; ++i)
        setup();

    auto untraced = [&] {
        uint64_t digest = FnvBasis;
        engine_rows.clear();
        engine_results.clear();
        for (size_t k = 0; k < batches.size(); ++k) {
            double t0 = nowS();
            std::vector<sim::RunResult> results = engine.run(batches[k]);
            double wall = nowS() - t0;
            double insts = 0.0;
            for (sim::RunResult &r : results) {
                const size_t i = engine_rows.size();
                insts += double(rc.warmupInsts) + r.snapshot.value("committed");
                countOp(rep, labels[i],
                        checkExactRun(r, rc.measureInsts,
                                      commitWidth(jobs[i].machine)));
                engine_rows.push_back(sim::runResultJson(r));
                digest = foldRow(digest, engine_rows.back());
                engine_results.push_back(std::move(r));
            }
            untraced_tp.add(k, insts, wall);
        }
        checkRoundDigest(rep, digest, "fig9-sweep");
        untraced_tp.endRound();
    };

    // Traced: replay each batch as standalone Sessions over the same
    // number of threads, self-scheduled like SweepEngine, with spans
    // around each call; rows must equal the engine's.
    std::vector<RunLedger> ledgers;
    std::vector<double> job_ms, pool_busy;
    unsigned traced_rounds = 0;
    auto traced = [&] {
        std::vector<RunLedger> round(jobs.size());
        std::vector<std::string> errors(jobs.size());
        std::vector<double> ms(jobs.size(), 0.0);
        double busy_s = 0.0, walls_s = 0.0;
        size_t first = 0;
        for (size_t k = 0; k < batches.size(); ++k) {
            const size_t end = first + batches[k].size();
            std::atomic<size_t> next{first};
            auto worker = [&] {
                for (size_t i = next.fetch_add(1); i < end;
                     i = next.fetch_add(1)) {
                    try {
                        double t0 = nowS();
                        auto wl = trace::openTrace(
                            jobs[i].workload.substr(std::strlen("trace:")));
                        round[i] = runTraced(jobs[i].machine, *wl,
                                             jobs[i].run, false);
                        ms[i] = (nowS() - t0) * 1e3;
                    } catch (const std::exception &e) {
                        errors[i] = e.what();
                    }
                }
            };
            double t0 = nowS();
            {
                std::vector<std::jthread> pool;  // joins on every exit
                for (unsigned t = 0; t < opt.threads; ++t)
                    pool.emplace_back(worker);
            }
            const double wall = nowS() - t0;

            double insts = 0.0;
            for (size_t i = first; i < end; ++i) {
                std::string error = errors[i];
                if (error.empty())
                    error = round[i].error;
                if (error.empty())
                    error = checkExactRun(round[i].result, rc.measureInsts,
                                          round[i].width);
                if (error.empty() &&
                    sim::runResultJson(round[i].result) != engine_rows[i])
                    error = "standalone Session row differs from the "
                            "SweepEngine row";
                countOp(rep, labels[i] + " (traced)", error);
                insts += double(round[i].committedTotal);
                busy_s += ms[i] / 1e3;
                job_ms.push_back(ms[i]);
            }
            traced_tp.add(k, insts, wall);
            walls_s += wall;
            first = end;
        }
        traced_tp.endRound();
        pool_busy.push_back(busy_s / (double(opt.threads) * walls_s));
        for (auto &led : round)
            ledgers.push_back(std::move(led));
        ++traced_rounds;
    };

    roundLoop(opt, untraced, traced);
    reportThroughput(opt, rep, untraced_tp, traced_tp, setup_s);

    // Paper distance: suite-average IPC per machine against Figure 9.
    double err_sum = 0.0;
    int cells = 0;
    std::printf("# fig9 reference: HPCA 2006 Figure 9 suite-average IPC "
                "(MEM-400)\n");
    for (size_t mi = 0; mi < machines.size(); ++mi) {
        // engine_results: INT matrix then FP matrix, each machine-major.
        double model[2] = {0.0, 0.0};
        size_t base = 0;
        for (int su = 0; su < 2; ++su) {
            const size_t B = suites[su].size();
            for (size_t bi = 0; bi < B; ++bi)
                model[su] += engine_results[base + mi * B + bi].ipc;
            model[su] /= double(B);
            base += machines.size() * B;
        }
        const double paper[2] = {Fig9IntIpc[mi], Fig9FpIpc[mi]};
        const char *suite[2] = {"INT", "FP"};
        for (int s = 0; s < 2; ++s) {
            if (paper[s] < 0.0) {
                std::printf("# fig9 cell %-10s %-3s model %.3f paper -"
                            "     (no reference)\n",
                            machines[mi].name.c_str(), suite[s], model[s]);
                continue;
            }
            double err = std::fabs(model[s] - paper[s]) / paper[s] * 100.0;
            err_sum += err;
            ++cells;
            std::printf("# fig9 cell %-10s %-3s model %.3f paper %.2f  "
                        "err %.2f%%\n",
                        machines[mi].name.c_str(), suite[s], model[s],
                        paper[s], err);
        }
    }
    const double paper_err = err_sum / double(cells);
    std::printf("# paper_ipc_err_pct %.4f (mean of %d cells)\n", paper_err,
                cells);

    if (opt.trace) {
        rep.set("paper_ipc_err_pct", paper_err);
        rep.set("trace.record_s", median(record_s));
        rep.set("trace.bytes_per_op",
                double(trace_bytes) / double(recorded_ops));
        addExactLayers(rep, ledgers, traced_rounds);
        printMachineBreakdown("fig9-sweep", ledgers, traced_rounds);
        Tail tail = tailPercentile(job_ms);
        rep.set("sim.job_p50_ms", median(job_ms));
        rep.set("sim.job_tail_ms", tail.value);
        rep.set("sim.job_tail_pct", tail.pct);
        rep.set("sim.job_samples", double(job_ms.size()));
        rep.set("sim.pool_busy_frac", median(pool_busy));
        std::printf("# job times: %zu samples, p50 %.3f ms, p%g %.3f ms "
                    "(%zu samples beyond)\n",
                    job_ms.size(), median(job_ms), tail.pct, tail.value,
                    tail.beyond);
    }
}

// ------------------------------------------------------- sampled-long

void
runSampledLong(const Options &opt, Report &rep)
{
    constexpr uint64_t TotalOps = 2000000;
    sim::RunConfig rc;
    rc.warmupInsts = 100000;
    rc.measureInsts = TotalOps - rc.warmupInsts;
    rc.numClusters = 12;
    const sim::MachineConfig dkip = sim::MachineConfig::dkip2048();

    const std::string dir = opt.tmpDir + "/sampled";
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/mcf.ktrc";
    const std::string name = "trace:" + path;

    Throughput untraced_tp(1), traced_tp(1);
    std::vector<double> setup_s;
    uint64_t trace_bytes = 0;
    sample::SampledResult last;

    for (int i = 0; i < SetupReps; ++i) {
        double t0 = nowS();
        trace_bytes = recordTrace("mcf", opt.seed, TotalOps + TraceMargin,
                                  path);
        setup_s.push_back(nowS() - t0);
    }

    auto untraced = [&] {
        std::string error, row = "error";
        try {
            double t1 = nowS();
            sample::SampledResult s =
                sample::runSampled(dkip, name, mem::MemConfig::mem400(), rc);
            double dt = nowS() - t1;
            untraced_tp.add(0, double(TotalOps), dt);
            untraced_tp.endRound();
            if (s.result.aborted)
                error = "sampled run reports aborted";
            row = sim::runResultJson(s.result);
            last = std::move(s);
        } catch (const std::exception &e) {
            error = e.what();
        }
        countOp(rep, "dkip/mcf sampled", error);
        checkRoundDigest(rep, foldRow(FnvBasis, row), "sampled-long");
    };

    // Traced: the borrow overload over a timed trace replay, with the
    // sampling layer's own phase profiler.
    obs::Profiler prof;
    double trace_ns = 0.0, trace_pulled = 0.0;
    unsigned traced_rounds = 0;
    auto traced = [&] {
        std::string error, row = "error";
        try {
            trace::TraceWorkload replay(path);
            TimedWorkload timed(replay, nullptr);
            double t1 = nowS();
            sample::SampledResult s = sample::runSampled(
                dkip, timed, mem::MemConfig::mem400(), rc, &prof);
            double dt = nowS() - t1;
            traced_tp.add(0, double(TotalOps), dt);
            traced_tp.endRound();
            trace_ns += timed.ns;
            trace_pulled += double(timed.pulled);
            if (s.result.aborted)
                error = "sampled run reports aborted";
            row = sim::runResultJson(s.result);
        } catch (const std::exception &e) {
            error = e.what();
        }
        countOp(rep, "dkip/mcf sampled (traced)", error);
        if (foldRow(FnvBasis, row) != rep.digest)
            rep.inconsistent("sampled-long traced digest differs from "
                             "untraced");
        ++traced_rounds;
    };

    roundLoop(opt, untraced, traced);
    reportThroughput(opt, rep, untraced_tp, traced_tp, setup_s);

    // The exact reference on the same trace and machine.
    const sim::RunConfig exact_rc = rc;
    std::string error;
    double exact_ipc = 0.0;
    try {
        trace::TraceWorkload replay(path);
        if (opt.trace) {
            RunLedger led = runTraced(dkip, replay, exact_rc, false);
            error = led.error.empty()
                        ? checkExactRun(led.result, rc.measureInsts,
                                        led.width)
                        : led.error;
            exact_ipc = led.result.ipc;
            rep.set("sample.exact_ref_s", led.constructS + led.simS());
            addExactLayers(rep, {led}, 1);
        } else {
            double t0 = nowS();
            UntracedRun u = runUntraced(dkip, replay, exact_rc);
            std::printf("# exact reference %.3f s\n", nowS() - t0);
            error = checkExactRun(u.result, rc.measureInsts,
                                  commitWidth(dkip));
            exact_ipc = u.result.ipc;
        }
    } catch (const std::exception &e) {
        error = e.what();
    }
    countOp(rep, "dkip/mcf exact reference", error);

    const double err_pct =
        exact_ipc > 0.0
            ? std::fabs(last.result.ipc - exact_ipc) / exact_ipc * 100.0
            : 0.0;
    std::printf("# sampled ipc %.6f exact ipc %.6f sampled_ipc_err_pct "
                "%.4f (model unvalidated: no paper reference)\n",
                last.result.ipc, exact_ipc, err_pct);

    if (opt.trace) {
        rep.set("sampled_ipc_err_pct", err_pct);
        rep.set("trace.record_s", median(setup_s));
        rep.set("trace.bytes_per_op",
                double(trace_bytes) / double(TotalOps + TraceMargin));
        rep.set("trace.ns_per_op", trace_pulled ? trace_ns / trace_pulled
                                                : 0.0);
        const double per = traced_rounds ? 1.0 / traced_rounds : 0.0;
        for (const auto &ph : prof.phases())
            rep.set("sample." + ph.name + "_s", double(ph.ns) * 1e-9 * per);
        rep.set("sample.detail_frac", double(last.detailInsts) / TotalOps);
        rep.set("sample.warm_frac", double(last.warmInsts) / TotalOps);
        rep.set("sample.skip_frac", double(last.skippedInsts) / TotalOps);
        for (const auto &e : last.errorBars)
            if (e.name == "ipc")
                rep.set("sample.ipc_relsigma", e.relSigma);
    }
}

} // namespace kilobench
