/**
 * @file
 * Property-based tests: invariants that must hold across machines,
 * benchmarks and memory configurations (parameterised sweeps).
 */

#include <gtest/gtest.h>

#include "src/sim/sweep.hh"
#include "src/sim/sweep_engine.hh"
#include "test_helpers.hh"

using namespace kilo;
using namespace kilo::sim;
using kilo::test::stat;

namespace
{

RunConfig
tiny()
{
    RunConfig rc;
    rc.warmupInsts = 4000;
    rc.measureInsts = 20000;
    return rc;
}

/** Mean IPC of @p machine over @p suite (sweep-length runs). */
double
suiteIpc(const MachineConfig &machine,
         const std::vector<std::string> &suite)
{
    return meanIpc(SweepEngine().run(
        SweepEngine::matrix({machine}, suite,
                            {mem::MemConfig::mem400()},
                            RunConfig::sweep())));
}

} // anonymous namespace

// ------------------------------------------ per-benchmark properties

class BenchProperty : public ::testing::TestWithParam<std::string>
{
};

TEST_P(BenchProperty, FasterMemoryNeverHurts)
{
    auto fast = Simulator::run(MachineConfig::r10_64(), GetParam(),
                               mem::MemConfig::l1Only(), tiny());
    auto slow = Simulator::run(MachineConfig::r10_64(), GetParam(),
                               mem::MemConfig::mem400(), tiny());
    EXPECT_GE(fast.ipc, slow.ipc * 0.98) << GetParam();
}

TEST_P(BenchProperty, Mem1000SlowerThanMem100)
{
    auto m100 = Simulator::run(MachineConfig::r10_64(), GetParam(),
                               mem::MemConfig::mem100(), tiny());
    auto m1000 = Simulator::run(MachineConfig::r10_64(), GetParam(),
                                mem::MemConfig::mem1000(), tiny());
    EXPECT_GE(m100.ipc, m1000.ipc * 0.98) << GetParam();
}

TEST_P(BenchProperty, IpcNeverExceedsFetchWidth)
{
    for (auto cfg : {MachineConfig::r10_64(), MachineConfig::kilo1024(),
                     MachineConfig::dkip2048()}) {
        auto res = Simulator::run(cfg, GetParam(),
                                  mem::MemConfig::mem400(), tiny());
        EXPECT_LE(res.ipc, 4.0) << GetParam() << " on " << cfg.name;
    }
}

TEST_P(BenchProperty, CommitsExactlyRequested)
{
    auto res = Simulator::run(MachineConfig::dkip2048(), GetParam(),
                              mem::MemConfig::mem400(), tiny());
    EXPECT_GE(stat(res, "committed"), 20000u) << GetParam();
    EXPECT_LE(stat(res, "committed"), 20010u) << GetParam();
}

TEST_P(BenchProperty, LocalityPartitionsCommits)
{
    auto res = Simulator::run(MachineConfig::dkip2048(), GetParam(),
                              mem::MemConfig::mem400(), tiny());
    EXPECT_EQ(stat(res, "cp_executed") + stat(res, "mp_executed"),
              stat(res, "committed"))
        << GetParam();
}

TEST_P(BenchProperty, MispredictsNeverExceedBranches)
{
    auto res = Simulator::run(MachineConfig::kilo1024(), GetParam(),
                              mem::MemConfig::mem400(), tiny());
    EXPECT_LE(stat(res, "mispredicts"), stat(res, "branches"))
        << GetParam();
}

TEST_P(BenchProperty, DeterministicAcrossMachineKinds)
{
    // The committed instruction mix is machine independent: loads and
    // branches per committed instruction agree across cores.
    auto a = Simulator::run(MachineConfig::r10_64(), GetParam(),
                            mem::MemConfig::mem400(), tiny());
    auto b = Simulator::run(MachineConfig::dkip2048(), GetParam(),
                            mem::MemConfig::mem400(), tiny());
    double loads_a = stat(a, "loads") / stat(a, "committed");
    double loads_b = stat(b, "loads") / stat(b, "committed");
    EXPECT_NEAR(loads_a, loads_b, 0.02) << GetParam();
}

namespace
{

std::vector<std::string>
sampleNames()
{
    // A representative cross-section (keeps the sweep quick): two
    // resident, two streaming, one chasing, one branchy per suite.
    return {"eon", "crafty", "gzip", "mcf",     "vpr",  "gcc",
            "mesa", "galgel", "swim", "equake", "ammp", "mgrid"};
}

} // anonymous namespace

INSTANTIATE_TEST_SUITE_P(Representative, BenchProperty,
                         ::testing::ValuesIn(sampleNames()),
                         [](const auto &name_info) { return name_info.param; });

// ------------------------------------------- window-size properties

class WindowProperty : public ::testing::TestWithParam<size_t>
{
};

TEST_P(WindowProperty, LargerWindowNeverMuchWorse)
{
    size_t window = GetParam();
    auto small = Simulator::run(MachineConfig::windowLimit(window),
                                "swim", mem::MemConfig::mem400(),
                                tiny());
    auto bigger =
        Simulator::run(MachineConfig::windowLimit(window * 4), "swim",
                       mem::MemConfig::mem400(), tiny());
    EXPECT_GE(bigger.ipc, small.ipc * 0.95) << "window " << window;
}

TEST_P(WindowProperty, PerfectL1InsensitiveToMemoryLatency)
{
    size_t window = GetParam();
    auto cfg = MachineConfig::windowLimit(window);
    auto a = Simulator::run(cfg, "gzip", mem::MemConfig::l1Only(),
                            tiny());
    // L1-2 has no off-chip component at all; IPC must be solid.
    EXPECT_GT(a.ipc, 1.0) << "window " << window;
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowProperty,
                         ::testing::Values(32, 64, 128, 256));

// --------------------------------------------- cache-sweep property

class CacheSweepProperty
    : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(CacheSweepProperty, BiggerL2NeverMuchWorse)
{
    uint64_t kb = GetParam();
    auto small = Simulator::run(
        MachineConfig::r10_256(), "twolf",
        mem::MemConfig::withL2Size(kb * 1024), tiny());
    auto big = Simulator::run(
        MachineConfig::r10_256(), "twolf",
        mem::MemConfig::withL2Size(kb * 4 * 1024), tiny());
    EXPECT_GE(big.ipc, small.ipc * 0.95) << kb << "KB";
}

INSTANTIATE_TEST_SUITE_P(L2Sizes, CacheSweepProperty,
                         ::testing::Values(64, 256, 1024));

// ------------------------------------------------ headline property

TEST(PaperHeadline, DecoupledMachinesDominateOnFp)
{
    // Figure 9's core claim, as a regression gate: on the FP suite
    // the KILO-class machines clearly beat both R10000 baselines.
    double r64 = suiteIpc(MachineConfig::r10_64(), fpSuite());
    double r256 = suiteIpc(MachineConfig::r10_256(), fpSuite());
    double kilo = suiteIpc(MachineConfig::kilo1024(), fpSuite());
    double dkip = suiteIpc(MachineConfig::dkip2048(), fpSuite());

    EXPECT_GT(r256, r64);
    EXPECT_GT(kilo, 1.3 * r256);
    EXPECT_GT(dkip, 1.3 * r256);
    EXPECT_NEAR(dkip, kilo, 0.25 * kilo);
}

TEST(PaperHeadline, IntGainsSmallerThanFp)
{
    double int_r64 = suiteIpc(MachineConfig::r10_64(), intSuite());
    double int_dkip = suiteIpc(MachineConfig::dkip2048(), intSuite());
    double fp_r64 = suiteIpc(MachineConfig::r10_64(), fpSuite());
    double fp_dkip = suiteIpc(MachineConfig::dkip2048(), fpSuite());
    EXPECT_GT(fp_dkip / fp_r64, int_dkip / int_r64);
}
