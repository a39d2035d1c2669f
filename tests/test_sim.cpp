/**
 * @file
 * Tests of the simulation facade: machine presets, the runner,
 * suite sweeps and the table printer.
 */

#include <gtest/gtest.h>

#include "src/sim/sweep.hh"
#include "src/sim/sweep_engine.hh"
#include "src/wload/synthetic.hh"
#include "src/sim/table.hh"
#include "test_helpers.hh"

using namespace kilo;
using namespace kilo::sim;
using kilo::test::stat;

TEST(Config, BaselinePresets)
{
    auto r64 = MachineConfig::r10_64();
    EXPECT_EQ(r64.kind, MachineKind::Ooo);
    EXPECT_EQ(r64.cp.robSize, 64u);
    EXPECT_EQ(r64.cp.intIqSize, 40u);

    auto r256 = MachineConfig::r10_256();
    EXPECT_EQ(r256.cp.robSize, 256u);
    EXPECT_EQ(r256.cp.intIqSize, 160u);

    auto r768 = MachineConfig::r10_768();
    EXPECT_EQ(r768.cp.robSize, 768u);
}

TEST(Config, DecoupledPresets)
{
    EXPECT_EQ(MachineConfig::kilo1024().kind, MachineKind::Kilo);
    auto dkip = MachineConfig::dkip2048();
    EXPECT_EQ(dkip.kind, MachineKind::Dkip);
    EXPECT_EQ(dkip.dkip.llibCapacity, 2048u);
}

TEST(Config, WindowLimitScalesEverything)
{
    auto w = MachineConfig::windowLimit(4096);
    EXPECT_EQ(w.cp.robSize, 4096u);
    EXPECT_EQ(w.cp.intIqSize, 4096u);
    EXPECT_GE(w.cp.lsqSize, 4096u);
}

TEST(Config, SchedLabels)
{
    using core::SchedPolicy;
    EXPECT_EQ(MachineConfig::schedLabel(SchedPolicy::InOrder, 40,
                                        SchedPolicy::InOrder, 20),
              "INO-INO");
    EXPECT_EQ(MachineConfig::schedLabel(SchedPolicy::OutOfOrder, 80,
                                        SchedPolicy::OutOfOrder, 40),
              "OOO80-OOO40");
}

TEST(Config, DkipSchedAppliesPolicies)
{
    auto m = MachineConfig::dkipSched(core::SchedPolicy::InOrder, 20,
                                      core::SchedPolicy::OutOfOrder,
                                      40);
    EXPECT_EQ(m.dkip.cp.intPolicy, core::SchedPolicy::InOrder);
    EXPECT_EQ(m.dkip.cp.intIqSize, 20u);
    EXPECT_EQ(m.dkip.mpPolicy, core::SchedPolicy::OutOfOrder);
    EXPECT_EQ(m.dkip.mpIqSize, 40u);
}

TEST(Simulator, RunProducesConsistentResult)
{
    auto res = Simulator::run(MachineConfig::r10_64(), "gzip",
                              mem::MemConfig::mem400(),
                              RunConfig::sweep());
    EXPECT_EQ(res.machine, "R10-64");
    EXPECT_EQ(res.workload, "gzip");
    EXPECT_GT(res.ipc, 0.0);
    EXPECT_GE(stat(res, "committed"), 40000u);
    EXPECT_NEAR(res.ipc, stat(res, "committed") / stat(res, "cycles"),
                1e-9);
}

TEST(Simulator, MakeCoreBuildsEveryKind)
{
    auto wl = wload::makeWorkload("gzip");
    for (auto cfg : {MachineConfig::r10_64(), MachineConfig::kilo1024(),
                     MachineConfig::dkip2048()}) {
        auto core = Simulator::makeCore(cfg, *wl,
                                        mem::MemConfig::mem400());
        ASSERT_NE(core, nullptr);
    }
}

TEST(Simulator, WarmupExcludedFromStats)
{
    RunConfig rc;
    rc.warmupInsts = 5000;
    rc.measureInsts = 10000;
    auto res = Simulator::run(MachineConfig::r10_64(), "gzip",
                              mem::MemConfig::mem400(), rc);
    EXPECT_LT(stat(res, "committed"), 11000u);
}

TEST(Sweep, SuitesMatchPaperSizes)
{
    EXPECT_EQ(intSuite().size(), 12u);
    EXPECT_EQ(fpSuite().size(), 14u);
}

TEST(Sweep, MeanIpcAverages)
{
    std::vector<RunResult> rs(2);
    rs[0].ipc = 1.0;
    rs[1].ipc = 3.0;
    EXPECT_DOUBLE_EQ(meanIpc(rs), 2.0);
    EXPECT_DOUBLE_EQ(meanIpc({}), 0.0);
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"name", "ipc"});
    t.addRow({"swim", "2.45"});
    t.addRow({"a-longer-name", "0.16"});
    std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("a-longer-name"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(Table::num(2.456, 2), "2.46");
    EXPECT_EQ(Table::num(100.0, 1), "100.0");
}

TEST(Table, ShortRowsPadded)
{
    Table t({"a", "b", "c"});
    t.addRow({"x"});
    EXPECT_NE(t.render().find("x"), std::string::npos);
}

TEST(MshrStallRun, GenerousCapacityIsTimingIdentical)
{
    // With the default 4096-entry file no set ever fills, so the
    // structural hazard never fires and the opt-in flag must be
    // timing-invisible: the whole JSONL row matches the displacement
    // model's.
    RunConfig rc;
    rc.warmupInsts = 5000;
    rc.measureInsts = 20000;
    auto stalled_cfg = mem::MemConfig::mem400();
    stalled_cfg.mshrStall = true;
    auto base = Simulator::run(MachineConfig::dkip2048(), "swim",
                               mem::MemConfig::mem400(), rc);
    auto stalled = Simulator::run(MachineConfig::dkip2048(), "swim",
                                  stalled_cfg, rc);
    EXPECT_EQ(runResultJson(base), runResultJson(stalled));
    EXPECT_EQ(stat(stalled, "mshr_stalls"), 0.0);
}

TEST(MshrStallRun, TinyFileBackPressuresAndStillCompletes)
{
    // Four MSHRs under a streaming FP workload: the MP's miss bursts
    // must hit the hazard (stalls counted), nothing may displace, and
    // the run must still complete — back-pressure, not deadlock.
    RunConfig rc;
    rc.warmupInsts = 5000;
    rc.measureInsts = 20000;
    auto tiny = mem::MemConfig::mem400();
    tiny.numMshrs = 4;
    tiny.mshrStall = true;
    auto res = Simulator::run(MachineConfig::dkip2048(), "swim",
                              tiny, rc);
    EXPECT_EQ(stat(res, "committed"), rc.measureInsts);
    EXPECT_GT(stat(res, "mshr_stalls"), 0.0);
    EXPECT_EQ(stat(res, "mshr_displacements"), 0.0);
    // Back-pressure costs cycles: IPC may only drop versus the
    // displacement model at the same capacity.
    auto displacing = tiny;
    displacing.mshrStall = false;
    auto disp = Simulator::run(MachineConfig::dkip2048(), "swim",
                               displacing, rc);
    EXPECT_LE(res.ipc, disp.ipc * 1.0001);
}
