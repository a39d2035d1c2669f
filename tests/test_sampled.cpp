/**
 * @file
 * Tests of sampled simulation (src/sample/): interval fingerprinting,
 * deterministic k-means, sampled-vs-exact IPC accuracy on all three
 * machine models, byte-identical sampled rows across repeated runs
 * and across sharded dispatch, manifest sampling directives, and the
 * per-stat error bars of the reconstructed snapshot.
 *
 * The accuracy pins use workloads with genuine phase structure
 * (mcf, swim); a stochastic profile like vpr has ~20% per-interval
 * IPC dispersion and no signature can recover that (see
 * src/sample/DESIGN.md, "When sampling cannot help").
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "src/sample/sampled_run.hh"
#include "src/sample/signature.hh"
#include "src/shard/manifest.hh"
#include "src/sim/sweep.hh"
#include "src/sim/sweep_engine.hh"
#include "src/wload/synthetic.hh"
#include "test_helpers.hh"

using namespace kilo;
using namespace kilo::sample;
using kilo::test::stat;

namespace
{

/** The sampling configuration the accuracy pins are validated at. */
sim::RunConfig
sampledConfig()
{
    sim::RunConfig rc;
    rc.warmupInsts = 20000;
    rc.measureInsts = 400000;
    rc.intervalInsts = 10000;
    rc.numClusters = 12;
    rc.samplingMode = sim::SamplingMode::Sampled;
    return rc;
}

/** Same region, exact (every instruction simulated in detail). */
sim::RunConfig
exactConfig()
{
    sim::RunConfig rc = sampledConfig();
    rc.intervalInsts = 0;
    rc.samplingMode = sim::SamplingMode::Off;
    return rc;
}

/** The JSON keys of a JSONL row, in order of appearance. */
std::vector<std::string>
rowKeys(const std::string &row)
{
    std::vector<std::string> keys;
    for (size_t i = 0; i + 1 < row.size();) {
        size_t open = row.find('"', i);
        if (open == std::string::npos)
            break;
        size_t close = row.find('"', open + 1);
        if (close == std::string::npos)
            break;
        if (close + 1 < row.size() && row[close + 1] == ':')
            keys.push_back(row.substr(open + 1, close - open - 1));
        i = close + 1;
        // Skip the value (string values contain no escapes in our
        // rows, so the next quote after a string value closes it).
        if (row[i] == ':' && i + 1 < row.size() &&
            row[i + 1] == '"') {
            size_t end = row.find('"', i + 2);
            if (end == std::string::npos)
                break;
            i = end + 1;
        }
    }
    return keys;
}

} // anonymous namespace

// --------------------------------------------------- fingerprinting

TEST(SampledFingerprint, IntervalLengthsCoverTheRegion)
{
    auto wl = wload::makeWorkload("swim");
    SignaturePass pass =
        fingerprintIntervals(*wl, 0, 100000, 30000);
    ASSERT_EQ(pass.signatures.size(), 4u);
    ASSERT_EQ(pass.lengths.size(), 4u);
    EXPECT_EQ(pass.lengths[0], 30000u);
    EXPECT_EQ(pass.lengths[1], 30000u);
    EXPECT_EQ(pass.lengths[2], 30000u);
    EXPECT_EQ(pass.lengths[3], 10000u);  // remainder tail

    for (const Signature &sig : pass.signatures) {
        double class_sum = 0.0;
        for (int c = 0; c < isa::NumOpClasses; ++c) {
            EXPECT_GE(sig.v[c], 0.0);
            EXPECT_LE(sig.v[c], 1.0);
            class_sum += sig.v[c];
        }
        EXPECT_NEAR(class_sum, 1.0, 1e-9);
        for (int d = isa::NumOpClasses; d < SigDims; ++d) {
            EXPECT_GE(sig.v[d], 0.0);
            EXPECT_LE(sig.v[d], 1.0);
        }
    }
}

TEST(SampledFingerprint, DeterministicAcrossPasses)
{
    auto a = wload::makeWorkload("mcf");
    auto b = wload::makeWorkload("mcf");
    SignaturePass pa = fingerprintIntervals(*a, 5000, 50000, 10000);
    SignaturePass pb = fingerprintIntervals(*b, 5000, 50000, 10000);
    ASSERT_EQ(pa.signatures.size(), pb.signatures.size());
    for (size_t i = 0; i < pa.signatures.size(); ++i)
        EXPECT_EQ(pa.signatures[i].v, pb.signatures[i].v);
}

// ---------------------------------------------------------- k-means

TEST(SampledKmeans, SeparatesObviousGroups)
{
    // Two well-separated blobs along dimension 0.
    std::vector<Signature> sigs(8);
    for (int i = 0; i < 4; ++i)
        sigs[i].v[0] = 0.1 + 0.01 * i;
    for (int i = 4; i < 8; ++i)
        sigs[i].v[0] = 0.9 - 0.01 * (i - 4);

    Clustering c = clusterSignatures(sigs, 2);
    ASSERT_EQ(c.representatives.size(), 2u);
    ASSERT_EQ(c.assignment.size(), 8u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(c.assignment[i], c.assignment[0]);
    for (int i = 4; i < 8; ++i)
        EXPECT_EQ(c.assignment[i], c.assignment[4]);
    EXPECT_NE(c.assignment[0], c.assignment[4]);
    // Each representative belongs to the cluster it stands for.
    for (uint32_t k = 0; k < 2; ++k)
        EXPECT_EQ(c.assignment[c.representatives[k]], k);
}

TEST(SampledKmeans, EdgeCasesAndDeterminism)
{
    // Empty input -> empty clustering.
    Clustering empty = clusterSignatures({}, 4);
    EXPECT_TRUE(empty.assignment.empty());
    EXPECT_TRUE(empty.representatives.empty());

    // k > n clamps to n; identical points collapse to one cluster.
    std::vector<Signature> same(3);
    Clustering collapsed = clusterSignatures(same, 10);
    EXPECT_EQ(collapsed.representatives.size(), 1u);
    for (uint32_t a : collapsed.assignment)
        EXPECT_EQ(a, 0u);
    // Ties break to the lowest interval index.
    EXPECT_EQ(collapsed.representatives[0], 0u);

    // k == 0 behaves like k == 1.
    Clustering one = clusterSignatures(same, 0);
    EXPECT_EQ(one.representatives.size(), 1u);

    // Same input twice -> identical output.
    std::vector<Signature> sigs(16);
    for (int i = 0; i < 16; ++i)
        sigs[i].v[0] = (i * 37 % 16) / 16.0;
    Clustering c1 = clusterSignatures(sigs, 4);
    Clustering c2 = clusterSignatures(sigs, 4);
    EXPECT_EQ(c1.assignment, c2.assignment);
    EXPECT_EQ(c1.representatives, c2.representatives);
}

// --------------------------------------------------------- accuracy

TEST(SampledAccuracy, WithinTwoPercentOfExactAllMachines)
{
    const mem::MemConfig mem = mem::MemConfig::mem400();
    struct Case
    {
        sim::MachineConfig machine;
        const char *workload;
    };
    const Case cases[] = {
        {sim::MachineConfig::r10_64(), "mcf"},
        {sim::MachineConfig::kilo1024(), "mcf"},
        {sim::MachineConfig::dkip2048(), "mcf"},
        {sim::MachineConfig::kilo1024(), "swim"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(c.machine.name) + "/" + c.workload);
        sim::RunResult exact = sim::Simulator::run(
            c.machine, c.workload, mem, exactConfig());
        SampledResult sampled = runSampled(
            c.machine, c.workload, mem, sampledConfig());
        ASSERT_GT(exact.ipc, 0.0);
        double rel_err =
            std::fabs(sampled.result.ipc - exact.ipc) / exact.ipc;
        EXPECT_LE(rel_err, 0.02)
            << "exact " << exact.ipc << " sampled "
            << sampled.result.ipc;
        // Sampling must actually sample: far fewer detailed
        // instructions than the exact run's measured region.
        EXPECT_LT(sampled.simulatedIntervals, sampled.totalIntervals);
        EXPECT_LT(sampled.detailInsts + sampled.warmInsts,
                  sampledConfig().measureInsts);
    }
}

// --------------------------------------------- rows and determinism

TEST(SampledRow, DeterministicAndSchemaMatchesExact)
{
    const auto machine = sim::MachineConfig::dkip2048();
    const mem::MemConfig mem = mem::MemConfig::mem400();

    sim::RunResult exact = sim::Simulator::run(machine, "swim", mem,
                                               exactConfig());
    sim::RunResult s1 = sim::Simulator::run(machine, "swim", mem,
                                            sampledConfig());
    sim::RunResult s2 = sim::Simulator::run(machine, "swim", mem,
                                            sampledConfig());

    std::string row1 = sim::runResultJson(s1);
    std::string row2 = sim::runResultJson(s2);
    EXPECT_EQ(row1, row2);  // byte-identical across repeated runs

    // A sampled row carries exactly the schema an exact row does, so
    // downstream JSONL aggregation cannot tell them apart.
    EXPECT_EQ(rowKeys(row1), rowKeys(sim::runResultJson(exact)));
}

TEST(SampledRow, SuiteReductionsReadTheEstimate)
{
    sim::RunConfig rc = sampledConfig();
    rc.numClusters = 4;
    sim::RunResult r = sim::Simulator::run(sim::MachineConfig::dkip2048(),
                                           "swim", mem::MemConfig::mem400(),
                                           rc);
    // The Figure 11/12 reduction sees the sampled estimate, not 0.
    const double mp = stat(r, "mp_fraction");
    EXPECT_GT(mp, 0.0);
    EXPECT_EQ(sim::meanMpFraction({r}), mp);
    // Counts only: one representative's buckets are not the run's
    // distribution, so a sampled estimate carries none.
    EXPECT_GT(stat(r, "issue_latency"), 0.0);
    EXPECT_EQ(r.snapshot.histogram("issue_latency"), nullptr);
}

TEST(SampledSweep, ShardedMergeMatchesSingleProcess)
{
    sim::RunConfig rc = sampledConfig();
    rc.measureInsts = 120000;  // keep the 2x4-job matrix quick
    auto jobs = sim::SweepEngine::matrixByName(
        {"r10-64", "dkip"}, {"mcf", "swim"}, {"mem-400"}, rc);

    sim::SweepEngine engine(2);
    auto full = engine.run(jobs);

    // Two shards, merged by global index like the orchestrator does.
    std::vector<sim::RunResult> merged(jobs.size());
    for (uint32_t shard = 0; shard < 2; ++shard) {
        auto indices =
            sim::SweepEngine::shardIndices(jobs.size(), shard, 2);
        auto part = engine.runSubset(jobs, indices);
        for (size_t i = 0; i < indices.size(); ++i)
            merged[indices[i]] = part[i];
    }

    ASSERT_EQ(full.size(), merged.size());
    for (size_t i = 0; i < full.size(); ++i)
        EXPECT_EQ(sim::runResultJson(full[i]),
                  sim::runResultJson(merged[i]))
            << "job " << i;
}

// -------------------------------------------------------- manifests

TEST(SampledManifest, SamplingDirectivesRoundTrip)
{
    shard::Manifest m;
    m.machines = {"dkip"};
    m.workloads = {"mcf"};
    m.mems = {"mem-400"};
    m.run.intervalInsts = 10000;
    m.run.numClusters = 12;
    m.run.samplingMode = sim::SamplingMode::Sampled;

    shard::Manifest back = shard::Manifest::parse(m.serialize());
    EXPECT_TRUE(back == m);
    EXPECT_EQ(back.serialize(), m.serialize());
    EXPECT_NE(m.serialize().find("sampling sampled"),
              std::string::npos);
    EXPECT_NE(m.serialize().find("clusters 12"), std::string::npos);

    // Defaults emit no sampling directives at all, so pre-sampling
    // manifests round-trip byte-identically.
    shard::Manifest plain;
    plain.machines = {"dkip"};
    plain.workloads = {"mcf"};
    plain.mems = {"mem-400"};
    std::string text = plain.serialize();
    EXPECT_EQ(text.find("sampling"), std::string::npos);
    EXPECT_EQ(text.find("clusters"), std::string::npos);
    EXPECT_EQ(text.find("interval"), std::string::npos);

    // Explicit directives parse back.
    shard::Manifest parsed = shard::Manifest::parse(
        "KILOSHARD 1\n"
        "machine dkip\n"
        "workload mcf\n"
        "mem mem-400\n"
        "interval 5000\n"
        "clusters 6\n"
        "sampling sampled\n");
    EXPECT_EQ(parsed.run.intervalInsts, 5000u);
    EXPECT_EQ(parsed.run.numClusters, 6u);
    EXPECT_EQ(parsed.run.samplingMode, sim::SamplingMode::Sampled);

    EXPECT_THROW(shard::Manifest::parse("KILOSHARD 1\nmachine dkip\n"
                                        "workload mcf\nmem mem-400\n"
                                        "sampling maybe\n"),
                 shard::ShardError);
    EXPECT_THROW(shard::Manifest::parse("KILOSHARD 1\nmachine dkip\n"
                                        "workload mcf\nmem mem-400\n"
                                        "clusters 0\n"),
                 shard::ShardError);
}

// ------------------------------------------------------- error bars

TEST(SampledErrorBars, CoverRowStatsWithFiniteSigmas)
{
    SampledResult r =
        runSampled(sim::MachineConfig::kilo1024(), "mcf",
                   mem::MemConfig::mem400(), sampledConfig());
    ASSERT_FALSE(r.errorBars.empty());

    std::set<std::string> names;
    for (const StatError &e : r.errorBars) {
        EXPECT_TRUE(std::isfinite(e.relSigma)) << e.name;
        EXPECT_GE(e.relSigma, 0.0) << e.name;
        names.insert(e.name);
    }
    // The headline stats all carry an error bar.
    EXPECT_TRUE(names.count("ipc"));
    EXPECT_TRUE(names.count("cycles"));
    EXPECT_TRUE(names.count("committed"));
}
