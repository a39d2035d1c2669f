/**
 * @file
 * Tests of the KILO-1024 baseline (pseudo-ROB + out-of-order SLIQ).
 */

#include <gtest/gtest.h>

#include "src/kilo_proc/kilo_core.hh"
#include "src/sim/sweep.hh"
#include "test_helpers.hh"

using namespace kilo;
using kilo::test::stat;

namespace
{

sim::RunResult
runKilo(const std::string &bench,
        const mem::MemConfig &mcfg = mem::MemConfig::mem400())
{
    return sim::Simulator::run(sim::MachineConfig::kilo1024(), bench,
                               mcfg, sim::RunConfig::sweep());
}

} // anonymous namespace

TEST(KiloCore, ConfigMatchesPaper)
{
    auto p = kilo_proc::KiloParams::kilo1024();
    EXPECT_EQ(p.cp.robSize, 64u);     // pseudo-ROB
    EXPECT_EQ(p.sliqCapacity, 1024u); // SLIQ
    EXPECT_EQ(p.cp.intIqSize, 72u);   // issue queues
    EXPECT_EQ(p.robTimer, 16);
}

TEST(KiloCore, BeatsSmallBaselineOnStreamingFp)
{
    auto base = sim::Simulator::run(sim::MachineConfig::r10_64(),
                                    "swim", mem::MemConfig::mem400(),
                                    sim::RunConfig::sweep());
    auto kilo = runKilo("swim");
    EXPECT_GT(kilo.ipc, 2.0 * base.ipc);
}

TEST(KiloCore, SlowLaneExecutesLowLocalityCode)
{
    auto res = runKilo("swim");
    EXPECT_GT(stat(res, "mp_fraction"), 0.1); // SLIQ-executed share
    EXPECT_GT(stat(res, "sliq_inserted_fp") +
                  stat(res, "sliq_inserted_int"),
              0u);
}

TEST(KiloCore, PerfectMemoryNeverUsesSliq)
{
    auto res = runKilo("swim", mem::MemConfig::l1Only());
    EXPECT_EQ(stat(res, "mp_executed"), 0u);
}

TEST(KiloCore, AtLeastMatchesDkipOnPointerChase)
{
    // The paper: integer pointer chasing profits from the SLIQ's
    // out-of-order reinsertion; with the loads issuing from the
    // decoupled Address Processor in both designs, the machines end
    // up within a few percent (paper: KILO 1.38 vs D-KIP 1.33).
    auto kilo = runKilo("vpr");
    auto dkip = sim::Simulator::run(sim::MachineConfig::dkip2048(),
                                    "vpr", mem::MemConfig::mem400(),
                                    sim::RunConfig::sweep());
    EXPECT_GT(kilo.ipc, 0.9 * dkip.ipc);
    EXPECT_NEAR(kilo.ipc, dkip.ipc, 0.2 * kilo.ipc);
}

TEST(KiloCore, ComparableToDkipOnStreamingFp)
{
    auto kilo = runKilo("swim");
    auto dkip = sim::Simulator::run(sim::MachineConfig::dkip2048(),
                                    "swim", mem::MemConfig::mem400(),
                                    sim::RunConfig::sweep());
    EXPECT_NEAR(kilo.ipc, dkip.ipc, 0.4 * kilo.ipc);
}

TEST(KiloCore, Deterministic)
{
    auto a = runKilo("mgrid");
    auto b = runKilo("mgrid");
    EXPECT_EQ(stat(a, "cycles"), stat(b, "cycles"));
}

TEST(KiloCore, SliqOccupancyBounded)
{
    auto res = runKilo("swim");
    EXPECT_LE(stat(res, "max_sliq_instrs"), 1024u);
}

TEST(KiloCore, SurvivesEveryFpBenchmark)
{
    for (const auto &name : sim::fpSuite()) {
        auto res = runKilo(name);
        EXPECT_GT(res.ipc, 0.01) << name;
    }
}
