/**
 * @file
 * Self-tests of the benchmark's own arithmetic and instruments. They
 * run before every workload (a failure makes the result incorrect)
 * and alone with `--selftest`.
 */

#include <cstdio>
#include <string>

#include "kilobench/bench.hh"
#include "kilobench/exact.hh"
#include "src/sim/sweep_engine.hh"
#include "src/wload/synthetic.hh"

namespace kilobench
{

using namespace kilo;

namespace
{

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::fprintf(stderr, "kilobench selftest FAILED: %s\n",
                     what.c_str());
    }
}

std::vector<double>
ramp(size_t n)
{
    std::vector<double> v;
    for (size_t i = n; i > 0; --i)  // unsorted on purpose
        v.push_back(double(i));
    return v;
}

/** Row digest of a short seeded run of @p bench on r10-64. */
uint64_t
shortRunDigest(const std::string &bench, uint64_t seed)
{
    auto wl = wload::makeWorkload(seededProfile(bench, seed));
    sim::RunConfig rc;
    rc.warmupInsts = 2000;
    rc.measureInsts = 10000;
    UntracedRun u =
        runUntraced(sim::MachineConfig::r10_64(), *wl, rc);
    return fnv1a(FnvBasis, sim::runResultJson(u.result));
}

void
testTailPercentile()
{
    // 130 samples (the fig9 sweep): p95 leaves 6 beyond, p90 leaves 13.
    Tail t = tailPercentile(ramp(130));
    expect(t.pct == 90.0 && t.value == 117.0 && t.beyond == 13,
           "tail of 130 samples is p90 = 117 with 13 beyond");
    // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
    t = tailPercentile(ramp(1000));
    expect(t.pct == 99.0 && t.value == 990.0 && t.beyond == 10,
           "tail of 1000 samples is p99 = 990 with 10 beyond");
    // Too few samples for any tail: the median, with its count beyond.
    t = tailPercentile(ramp(15));
    expect(t.pct == 50.0 && t.value == 8.0 && t.beyond == 7,
           "tail of 15 samples falls back to the median");
    expect(median({3.0, 1.0, 2.0, 10.0}) == 2.5, "even-count median");
}

void
testHashAndSeeds()
{
    expect(fnv1a(FnvBasis, "a") == 0xaf63dc4c8601ec8cull,
           "FNV-1a 64 test vector");
    expect(mixSeed(42, 0) == 42, "seed 0 keeps the preset seed");
    expect(mixSeed(42, 1) != mixSeed(42, 2) &&
               mixSeed(42, 1) != mixSeed(43, 1),
           "seeds remix every preset differently");
}

void
testRowDigests()
{
    const uint64_t a = shortRunDigest("sixtrack", 7);
    expect(a == shortRunDigest("sixtrack", 7),
           "same seed gives identical row digests");
    expect(a != shortRunDigest("sixtrack", 8),
           "different seeds give different row digests");
}

void
testTickCounting()
{
    // swim on dkip (preset seed, short region) never idle-skips, so
    // every measured cycle must be exactly one step(1) tick.
    auto wl = wload::makeWorkload(seededProfile("swim", 0));
    sim::RunConfig rc;
    rc.warmupInsts = 2000;
    rc.measureInsts = 5000;
    RunLedger led =
        runTraced(sim::MachineConfig::dkip2048(), *wl, rc, false);
    const auto cycles = uint64_t(led.result.snapshot.value("cycles"));
    expect(led.error.empty(), "ticks + skipped == cycles: " + led.error);
    expect(led.skippedCycles == 0 && led.ticks == cycles,
           "step(1) ticks equal simulated cycles when nothing is "
           "skipped (ticks " + std::to_string(led.ticks) + ", skipped " +
               std::to_string(led.skippedCycles) + ", cycles " +
               std::to_string(cycles) + ")");

    // The stall-slot identity check rejects a perturbed result.
    sim::RunResult broken = led.result;
    for (auto &e : broken.snapshot.entries)
        if (e.name == "stall_mem")
            e.value.u += 1;
    expect(checkExactRun(led.result, rc.measureInsts, led.width).empty(),
           "a real run passes the operation checks");
    expect(!checkExactRun(broken, rc.measureInsts, led.width).empty(),
           "a broken stall-slot identity fails the operation checks");
}

} // anonymous namespace

int
runSelfTests()
{
    failures = 0;
    testTailPercentile();
    testHashAndSeeds();
    testRowDigests();
    testTickCounting();
    return failures;
}

} // namespace kilobench
