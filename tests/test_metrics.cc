/**
 * @file
 * Tests for the time-series telemetry subsystem (common/metrics.hh):
 * windowed-delta math, drain semantics, the sweep progress stream,
 * agreement of the sampled counters with the RunStats traffic, and
 * the invariant that sampling never perturbs simulation results.
 */

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_common.hh"
#include "common/json.hh"
#include "common/metrics.hh"
#include "dnn/layers/activation.hh"
#include "dnn/layers/conv.hh"
#include "dnn/layers/fc.hh"
#include "dnn/layers/norm.hh"
#include "dnn/layers/pool.hh"
#include "dnn/network.hh"
#include "sim/network_sim.hh"

using namespace zcomp;

namespace {

struct TempPath
{
    std::string path;
    explicit TempPath(const std::string &p) : path(p) {}
    ~TempPath() { std::remove(path.c_str()); }
};

/** Parse every line of a JSONL file; fails the test on bad JSON. */
std::vector<Json>
readJsonl(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::vector<Json> records;
    std::string line;
    while (std::getline(in, line)) {
        std::string err;
        records.push_back(Json::parse(line, &err));
        EXPECT_EQ(err, "") << "line " << records.size() << ": " << line;
    }
    return records;
}

/** Numeric member or test failure. */
double
num(const Json &rec, const char *key)
{
    const Json *p = rec.find(key);
    EXPECT_NE(p, nullptr) << "missing " << key;
    return p ? p->asDouble() : 0.0;
}

const Json &
sub(const Json &rec, const char *key)
{
    const Json *p = rec.find(key);
    EXPECT_NE(p, nullptr) << "missing " << key;
    static const Json null_json;
    return p ? *p : null_json;
}

/** The test convnet from test_network_sim, for end-to-end runs. */
std::unique_ptr<Network>
midNet(VSpace &vs, int batch)
{
    auto net = std::make_unique<Network>(
        "mid", vs, TensorShape{batch, 3, 64, 64});
    net->add(std::make_unique<ConvLayer>("conv1", 32, 3, 3, 1, 1));
    net->add(std::make_unique<ReluLayer>("relu1"));
    net->add(std::make_unique<PoolLayer>("pool1", LayerKind::MaxPool, 2,
                                         2));
    net->add(std::make_unique<ConvLayer>("conv2", 64, 3, 3, 1, 1));
    net->add(std::make_unique<ReluLayer>("relu2"));
    net->add(std::make_unique<FcLayer>("fc", 10));
    net->add(std::make_unique<SoftmaxLayer>("prob"));
    return net;
}

struct SimSetup
{
    std::unique_ptr<ExecContext> ctx;
    std::unique_ptr<Network> net;
    std::unique_ptr<NetworkSim> sim;
};

SimSetup
makeSetup(int batch = 4)
{
    SimSetup s;
    ArchConfig cfg;
    s.ctx = std::make_unique<ExecContext>(cfg);
    s.net = midNet(s.ctx->vs(), batch);
    s.net->build(false, 21);
    Rng rng(22);
    s.net->fillSyntheticInput(rng);
    s.net->forward();
    s.sim = std::make_unique<NetworkSim>(*s.ctx, *s.net);
    return s;
}

/** One run under the bench's --metrics observer (cell "mid"). */
NetworkSimResult
observedRun(SimSetup &s, const NetworkSimConfig &cfg)
{
    std::unique_ptr<PhaseObserver> obs =
        bench::observeTelemetry(*s.ctx, "mid", ioPolicyName(cfg.policy));
    EXPECT_NE(obs, nullptr);
    return s.sim->run(cfg);
}

} // namespace

TEST(MetricsSampler, PerCoreSumsReportWindowDeltas)
{
    TempPath tmp("test_metrics_per_core.jsonl");
    MetricsSink sink(tmp.path);

    // A two-core machine: the provider sums each core's counters, as
    // the bench observer's does, and the records carry the sums' deltas.
    uint64_t l1_0 = 0, l1_1 = 0, busy0 = 0, busy1 = 0;
    auto provider = [&] {
        SampleCounters c;
        c.l1Hits = l1_0 + l1_1;
        c.zcompBusyCycles = busy0 + busy1;
        return c;
    };
    MetricsSampler s(&sink, "cell", "policy", 100, 2, provider);
    s.rebase(0);

    l1_0 = 10;
    l1_1 = 32;
    busy0 = 5;
    busy1 = 7;
    s.sample(100);
    // A second window sees only the increments since the first.
    l1_0 = 11;
    s.sample(200);

    std::vector<Json> recs = readJsonl(tmp.path);
    ASSERT_EQ(recs.size(), 2u);
    const Json &c0 = sub(recs[0], "counters");
    EXPECT_DOUBLE_EQ(num(c0, "mem.l1_*.hits"), 42.0);
    EXPECT_DOUBLE_EQ(num(c0, "core*.zcomp_busy_cycles"), 12.0);
    // 12 busy cycles over a 100-cycle window on 2 cores.
    EXPECT_DOUBLE_EQ(num(sub(recs[0], "derived"), "zcompBusyFraction"),
                     0.06);
    const Json &c1 = sub(recs[1], "counters");
    EXPECT_DOUBLE_EQ(num(c1, "mem.l1_*.hits"), 1.0);
    EXPECT_DOUBLE_EQ(num(c1, "core*.zcomp_busy_cycles"), 0.0);
}

TEST(MetricsSampler, WindowedDeltasAndDerivedRates)
{
    TempPath tmp("test_metrics_window.jsonl");
    MetricsSink sink(tmp.path);

    uint64_t rd = 1000, wr = 0;
    auto provider = [&] {
        SampleCounters c;
        c.dramBytesRead = rd;
        c.dramBytesWritten = wr;
        return c;
    };
    MetricsSampler s(&sink, "resnet", "zcomp", 100, 4, provider);
    // rebase() captures the warm-start baseline; the 1000 preexisting
    // bytes must never appear in any delta.
    s.rebase(0);
    s.setLayerContext("conv1", 2.5);

    rd = 5000;
    wr = 2000;
    s.sample(100);
    rd = 5000;  // idle window
    s.sample(300);
    EXPECT_EQ(s.samplesEmitted(), 2u);

    std::vector<Json> recs = readJsonl(tmp.path);
    ASSERT_EQ(recs.size(), 2u);

    const Json &r0 = recs[0];
    EXPECT_EQ(sub(r0, "schema").asString(), metricsSchemaVersion);
    EXPECT_EQ(sub(r0, "kind").asString(), "sample");
    EXPECT_EQ(sub(r0, "cell").asString(), "resnet");
    EXPECT_EQ(sub(r0, "policy").asString(), "zcomp");
    EXPECT_EQ(sub(r0, "layer").asString(), "conv1");
    EXPECT_DOUBLE_EQ(num(r0, "cycle"), 100.0);
    EXPECT_DOUBLE_EQ(num(r0, "window"), 100.0);
    EXPECT_EQ(r0.find("drain"), nullptr);
    EXPECT_DOUBLE_EQ(num(sub(r0, "counters"), "mem.dram.bytes_read"),
                     4000.0);
    const Json &d0 = sub(r0, "derived");
    EXPECT_DOUBLE_EQ(num(d0, "dramReadBytesPerCycle"), 40.0);
    EXPECT_DOUBLE_EQ(num(d0, "dramWriteBytesPerCycle"), 20.0);
    EXPECT_DOUBLE_EQ(num(d0, "layerCompressionRatio"), 2.5);

    const Json &r1 = recs[1];
    EXPECT_DOUBLE_EQ(num(r1, "cycle"), 300.0);
    EXPECT_DOUBLE_EQ(num(r1, "window"), 200.0);
    EXPECT_DOUBLE_EQ(num(sub(r1, "counters"), "mem.dram.bytes_read"),
                     0.0);
    EXPECT_DOUBLE_EQ(num(sub(r1, "derived"), "dramReadBytesPerCycle"),
                     0.0);
}

TEST(MetricsSampler, ShortRunYieldsOneDrainRecord)
{
    TempPath tmp("test_metrics_drain.jsonl");
    MetricsSink sink(tmp.path);

    uint64_t hops = 0;
    auto provider = [&] {
        SampleCounters c;
        c.nocHops = hops;
        return c;
    };
    // Interval far beyond the run length: the loop never crosses it.
    MetricsSampler s(&sink, "c", "p", 1e9, 1, provider);
    s.rebase(0);

    hops = 17;
    s.finish(123.5);
    // finish() is a no-op once everything is drained.
    s.finish(123.5);
    EXPECT_EQ(s.samplesEmitted(), 1u);

    std::vector<Json> recs = readJsonl(tmp.path);
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_TRUE(recs[0].find("drain") != nullptr);
    EXPECT_DOUBLE_EQ(num(recs[0], "cycle"), 123.5);
    EXPECT_DOUBLE_EQ(num(recs[0], "window"), 123.5);
    EXPECT_DOUBLE_EQ(num(sub(recs[0], "counters"), "mem.noc.hops"),
                     17.0);
}

TEST(MetricsSampler, NextSampleCycleAdvances)
{
    auto provider = [] { return SampleCounters{}; };
    MetricsSampler s(nullptr, "c", "p", 100, 1, provider);
    EXPECT_DOUBLE_EQ(s.nextSampleCycle(), 100.0);

    // rebase into the middle of a window: next crossing is the next
    // interval multiple, not lastCycle + interval.
    s.rebase(250);
    EXPECT_DOUBLE_EQ(s.nextSampleCycle(), 300.0);

    // A crossing observed late (at 305) still advances to 400, never
    // re-firing inside the same interval.
    s.sample(305);
    EXPECT_DOUBLE_EQ(s.nextSampleCycle(), 400.0);

    s.finish(450);
    EXPECT_EQ(s.nextSampleCycle(),
              std::numeric_limits<double>::infinity());
}

TEST(Metrics, SamplingDoesNotPerturbSimResults)
{
    // Byte-identity invariant: the same cell simulated with and
    // without a metrics sink produces identical cycles and traffic.
    NetworkSimConfig cfg;
    cfg.policy = IoPolicy::Zcomp;

    SimSetup plain = makeSetup();
    NetworkSimResult base = plain.sim->run(cfg);

    TempPath tmp("test_metrics_perturb.jsonl");
    MetricsSink::enableGlobal(tmp.path, 20000);
    SimSetup metered = makeSetup();
    NetworkSimResult sampled = observedRun(metered, cfg);
    MetricsSink::finishGlobal();

    EXPECT_EQ(base.cycles(), sampled.cycles());
    EXPECT_EQ(base.trafficBytes(), sampled.trafficBytes());
    ASSERT_EQ(base.layers.size(), sampled.layers.size());
    for (size_t i = 0; i < base.layers.size(); i++)
        EXPECT_EQ(base.layers[i].stats.cycles,
                  sampled.layers[i].stats.cycles);

    // And the stream the metered run produced is well-formed: samples
    // for the ("mid", "zcomp") series with strictly increasing cycles.
    std::vector<Json> recs = readJsonl(tmp.path);
    ASSERT_FALSE(recs.empty());
    double last = -1;
    for (const Json &rec : recs) {
        EXPECT_EQ(sub(rec, "kind").asString(), "sample");
        EXPECT_EQ(sub(rec, "cell").asString(), "mid");
        EXPECT_EQ(sub(rec, "policy").asString(), "zcomp");
        double cycle = num(rec, "cycle");
        EXPECT_GT(cycle, last);
        last = cycle;
        EXPECT_GT(num(rec, "window"), 0.0);
    }
    // The run ends mid-window, so the last record is the drain.
    EXPECT_NE(recs.back().find("drain"), nullptr);
}

TEST(Metrics, SampledCountersSumToRunTraffic)
{
    // The sampler's typed reader and the RunStats path read the same
    // counters: over one run, the windows' deltas add up to the run's
    // traffic.
    NetworkSimConfig cfg;
    cfg.policy = IoPolicy::Zcomp;

    TempPath tmp("test_metrics_sum.jsonl");
    MetricsSink::enableGlobal(tmp.path, 20000);
    SimSetup s = makeSetup();
    NetworkSimResult r = observedRun(s, cfg);
    MetricsSink::finishGlobal();

    std::vector<Json> recs = readJsonl(tmp.path);
    ASSERT_GT(recs.size(), 1u);
    auto sum = [&](const char *key) {
        uint64_t total = 0;
        for (const Json &rec : recs)
            total += sub(sub(rec, "counters"), key).asUint();
        return total;
    };
    const HierSnapshot &t = r.total.traffic;
    EXPECT_GT(t.l1Hits, 0u);
    EXPECT_EQ(sum("mem.l1_*.hits"), t.l1Hits);
    EXPECT_EQ(sum("mem.l1_*.misses"), t.l1Misses);
    EXPECT_EQ(sum("mem.l2_*.hits"), t.l2Hits);
    EXPECT_EQ(sum("mem.l2_*.misses"), t.l2Misses);
    EXPECT_EQ(sum("mem.l3.hits"), t.l3Hits);
    EXPECT_EQ(sum("mem.l3.misses"), t.l3Misses);
    EXPECT_EQ(sum("mem.noc.hops"), t.nocHops);
    EXPECT_EQ(sum("mem.links.l3_dram_bytes"), t.l3DramBytes);
    // The zcomp policy keeps the logic units busy.
    EXPECT_GT(sum("core*.zcomp_busy_cycles"), 0u);
}

TEST(Metrics, SampleStreamIsDeterministicModuloHostMs)
{
    NetworkSimConfig cfg;
    cfg.policy = IoPolicy::Avx512Comp;

    auto run = [&](const std::string &path) {
        MetricsSink::enableGlobal(path, 50000);
        SimSetup s = makeSetup();
        observedRun(s, cfg);
        MetricsSink::finishGlobal();
        std::vector<std::string> lines;
        for (Json &rec : readJsonl(path)) {
            if (sub(rec, "kind").asString() != "sample")
                continue;
            rec["hostMs"] = 0;  // the only host-timing field
            lines.push_back(rec.dump());
        }
        return lines;
    };

    TempPath a("test_metrics_det_a.jsonl");
    TempPath b("test_metrics_det_b.jsonl");
    std::vector<std::string> la = run(a.path);
    std::vector<std::string> lb = run(b.path);
    ASSERT_FALSE(la.empty());
    ASSERT_EQ(la.size(), lb.size());
    for (size_t i = 0; i < la.size(); i++)
        EXPECT_EQ(la[i], lb[i]) << "record " << i;
}

TEST(SweepProgress, EmitsProgressRecords)
{
    TempPath tmp("test_metrics_progress.jsonl");
    MetricsSink::enableGlobal(tmp.path);
    {
        SweepProgress sp(3, /*live=*/false);
        sp.cellDone(/*cached=*/false, /*failed=*/false, /*attempts=*/1);
        sp.cellDone(/*cached=*/true, /*failed=*/false, /*attempts=*/1);
        sp.cellDone(/*cached=*/false, /*failed=*/true, /*attempts=*/3);
        EXPECT_EQ(sp.done(), 3u);
    }
    MetricsSink::finishGlobal();

    std::vector<Json> recs = readJsonl(tmp.path);
    ASSERT_EQ(recs.size(), 3u);
    for (size_t i = 0; i < recs.size(); i++) {
        const Json &rec = recs[i];
        EXPECT_EQ(sub(rec, "schema").asString(), metricsSchemaVersion);
        EXPECT_EQ(sub(rec, "kind").asString(), "progress");
        EXPECT_DOUBLE_EQ(num(rec, "done"), static_cast<double>(i + 1));
        EXPECT_DOUBLE_EQ(num(rec, "total"), 3.0);
        EXPECT_GE(num(rec, "cellsPerSec"), 0.0);
        EXPECT_GE(num(rec, "etaSec"), 0.0);
        EXPECT_GE(num(rec, "hostMs"), 0.0);
    }
    const Json &last = recs.back();
    EXPECT_DOUBLE_EQ(num(last, "cached"), 1.0);
    EXPECT_DOUBLE_EQ(num(last, "failed"), 1.0);
    EXPECT_DOUBLE_EQ(num(last, "retried"), 1.0);
    EXPECT_DOUBLE_EQ(num(last, "etaSec"), 0.0);
}
