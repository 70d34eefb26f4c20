/**
 * @file
 * Integration tests for the full-network timing replay: the traffic
 * and speedup relationships of Figures 13/14 and the cycle breakdown
 * of Figure 2.
 */

#include <gtest/gtest.h>

#include "dnn/layers/activation.hh"
#include "dnn/layers/conv.hh"
#include "dnn/layers/fc.hh"
#include "dnn/layers/norm.hh"
#include "dnn/layers/pool.hh"
#include "dnn/network.hh"
#include "sim/network_sim.hh"

using namespace zcomp;

namespace {

/** Medium convnet whose feature maps exceed the private caches. */
std::unique_ptr<Network>
midNet(VSpace &vs, int batch)
{
    auto net = std::make_unique<Network>(
        "mid", vs, TensorShape{batch, 3, 64, 64});
    net->add(std::make_unique<ConvLayer>("conv1", 32, 3, 3, 1, 1));
    net->add(std::make_unique<ReluLayer>("relu1"));
    net->add(std::make_unique<ConvLayer>("conv2", 32, 3, 3, 1, 1));
    net->add(std::make_unique<ReluLayer>("relu2"));
    net->add(std::make_unique<PoolLayer>("pool1", LayerKind::MaxPool, 2,
                                         2));
    net->add(std::make_unique<ConvLayer>("conv3", 64, 3, 3, 1, 1));
    net->add(std::make_unique<ReluLayer>("relu3"));
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
makeSetup(bool training, int batch = 8)
{
    SimSetup s;
    ArchConfig cfg;
    s.ctx = std::make_unique<ExecContext>(cfg);
    s.net = midNet(s.ctx->vs(), batch);
    s.net->build(training, 21);
    Rng rng(22);
    s.net->fillSyntheticInput(rng);
    s.net->forward();
    if (training) {
        std::vector<int> labels(static_cast<size_t>(batch));
        for (int i = 0; i < batch; i++)
            labels[static_cast<size_t>(i)] = i % 10;
        s.net->lossAndBackward(labels);
    }
    s.sim = std::make_unique<NetworkSim>(*s.ctx, *s.net);
    return s;
}

} // namespace

TEST(NetworkSim, PolicyNames)
{
    EXPECT_STREQ(ioPolicyName(IoPolicy::Uncompressed), "uncompressed");
    EXPECT_STREQ(ioPolicyName(IoPolicy::Avx512Comp), "avx512-comp");
    EXPECT_STREQ(ioPolicyName(IoPolicy::Zcomp), "zcomp");
}

TEST(NetworkSim, ProducesPerLayerStats)
{
    SimSetup s = makeSetup(false);
    NetworkSimConfig cfg;
    NetworkSimResult r = s.sim->run(cfg);
    // conv layers contribute three passes each, others one.
    EXPECT_GT(r.layers.size(), s.net->numNodes());
    EXPECT_GT(r.cycles(), 0.0);
    EXPECT_GT(r.trafficBytes(), 0u);
    for (const auto &lp : r.layers)
        EXPECT_FALSE(lp.backward);
}

TEST(NetworkSim, TrainingAddsBackwardPasses)
{
    SimSetup s = makeSetup(true);
    NetworkSimConfig cfg;
    NetworkSimResult r = s.sim->run(cfg);
    int bwd = 0;
    for (const auto &lp : r.layers)
        bwd += lp.backward;
    EXPECT_GT(bwd, 0);
    // Backward roughly doubles the work.
    SimSetup si = makeSetup(false);
    NetworkSimResult ri = si.sim->run(cfg);
    EXPECT_GT(r.cycles(), 1.5 * ri.cycles());
}

TEST(NetworkSim, CompressionReducesTraffic)
{
    // Figure 13: both schemes cut traffic; ZCOMP at least as much as
    // avx512-comp (which moves extra mask arrays).
    uint64_t traffic[numIoPolicies];
    for (int p = 0; p < numIoPolicies; p++) {
        SimSetup s = makeSetup(true);
        NetworkSimConfig cfg;
        cfg.policy = static_cast<IoPolicy>(p);
        traffic[p] = s.sim->run(cfg).trafficBytes();
    }
    EXPECT_LT(traffic[1], traffic[0]);
    EXPECT_LT(traffic[2], traffic[0]);
    // zcomp and avx512-comp move near-identical volumes (2-byte
    // headers vs 2-byte masks); allow a small tolerance either way.
    EXPECT_LE(traffic[2], static_cast<uint64_t>(1.05 * traffic[1]));
    // Reduction lands in a plausible band (paper: ~20-35%).
    double red = 1.0 - static_cast<double>(traffic[2]) / traffic[0];
    EXPECT_GT(red, 0.10);
    EXPECT_LT(red, 0.60);
}

TEST(NetworkSim, ZcompSpeedsUpTraining)
{
    // Figure 14: ZCOMP improves end-to-end training time vs the
    // uncompressed baseline.
    double cycles[numIoPolicies];
    for (int p = 0; p < numIoPolicies; p++) {
        SimSetup s = makeSetup(true);
        NetworkSimConfig cfg;
        cfg.policy = static_cast<IoPolicy>(p);
        cycles[p] = s.sim->run(cfg).cycles();
    }
    EXPECT_LT(cycles[2], cycles[0]);
    // avx512-comp must not beat zcomp (extra instruction overheads).
    EXPECT_LE(cycles[2], cycles[1] * 1.05);
}

TEST(NetworkSim, BreakdownHasAllThreeComponents)
{
    // Figure 2: compute, memory and sync all present.
    SimSetup s = makeSetup(true);
    NetworkSimConfig cfg;
    NetworkSimResult r = s.sim->run(cfg);
    EXPECT_GT(r.total.breakdown.compute, 0.0);
    EXPECT_GT(r.total.breakdown.memory, 0.0);
    EXPECT_GT(r.total.breakdown.sync, 0.0);
    // Memory stalls are a significant but not dominant fraction
    // (paper: 24-41% for the five DNNs).
    double mem_frac = r.total.breakdown.memory /
                      r.total.breakdown.total();
    EXPECT_GT(mem_frac, 0.05);
    EXPECT_LT(mem_frac, 0.9);
}

TEST(NetworkSim, DeterministicAcrossRuns)
{
    SimSetup s = makeSetup(false);
    NetworkSimConfig cfg;
    cfg.policy = IoPolicy::Zcomp;
    NetworkSimResult a = s.sim->run(cfg);
    NetworkSimResult b = s.sim->run(cfg);
    EXPECT_DOUBLE_EQ(a.cycles(), b.cycles());
    EXPECT_EQ(a.trafficBytes(), b.trafficBytes());
}

TEST(NetworkSim, InferenceBenefitSmallerThanTraining)
{
    // Figure 13/14: inference reductions are smaller than training
    // (no gradient maps, weight transfers dominate more).
    auto reduction = [](bool training) {
        uint64_t t[2];
        for (int p = 0; p < 2; p++) {
            SimSetup s = makeSetup(training);
            NetworkSimConfig cfg;
            cfg.policy = p == 0 ? IoPolicy::Uncompressed
                                : IoPolicy::Zcomp;
            t[p] = s.sim->run(cfg).trafficBytes();
        }
        return 1.0 - static_cast<double>(t[1]) / t[0];
    };
    double train_red = reduction(true);
    double infer_red = reduction(false);
    EXPECT_GT(train_red, 0.0);
    EXPECT_GT(infer_red, 0.0);
}

TEST(NetworkSim, SeparateRunsShareFunctionalState)
{
    // Two NetworkSims over the same prepared network agree exactly
    // (the functional pass is the single source of truth for sizes).
    SimSetup s = makeSetup(false, 4);
    NetworkSimConfig cfg;
    cfg.policy = IoPolicy::Avx512Comp;
    NetworkSim other(*s.ctx, *s.net);
    NetworkSimResult a = s.sim->run(cfg);
    NetworkSimResult b = other.run(cfg);
    EXPECT_DOUBLE_EQ(a.cycles(), b.cycles());
    EXPECT_EQ(a.trafficBytes(), b.trafficBytes());
}

namespace {

/** Records every phase-observer call in order. */
struct RecordingObserver : PhaseObserver
{
    struct Call
    {
        bool before;
        std::string name;
        uint64_t orig = 0, comp = 0;    //!< before calls
        double cycles = 0;              //!< after calls
    };
    std::vector<Call> calls;

    void
    beforePhase(const TracePhase &phase, uint64_t orig_bytes,
                uint64_t comp_bytes) override
    {
        calls.push_back({true, phase.name, orig_bytes, comp_bytes});
    }

    void
    afterPhase(const TracePhase &phase, const PhaseResult &r) override
    {
        calls.push_back({false, phase.name, 0, 0, r.cycles});
    }
};

} // namespace

TEST(NetworkSim, ObserverSeesEachPassOnceWithItsRatio)
{
    SimSetup s = makeSetup(true, 4);
    for (IoPolicy pol : {IoPolicy::Uncompressed, IoPolicy::Zcomp}) {
        SCOPED_TRACE(ioPolicyName(pol));
        NetworkSimConfig cfg;
        cfg.policy = pol;
        NetworkSimResult plain = s.sim->run(cfg);

        RecordingObserver obs;
        s.ctx->setObserver(&obs);
        NetworkSimResult r = s.sim->run(cfg);
        s.ctx->setObserver(nullptr);

        // Observing does not perturb the replay.
        EXPECT_EQ(r.cycles(), plain.cycles());
        EXPECT_EQ(r.trafficBytes(), plain.trafficBytes());

        // One before/after pair per replayed pass, in pass order.
        ASSERT_EQ(obs.calls.size(), 2 * r.layers.size());
        bool compressed = false;
        for (size_t i = 0; i < r.layers.size(); i++) {
            const RecordingObserver::Call &b = obs.calls[2 * i];
            const RecordingObserver::Call &a = obs.calls[2 * i + 1];
            EXPECT_TRUE(b.before);
            EXPECT_FALSE(a.before);
            EXPECT_EQ(b.name, r.layers[i].name);
            EXPECT_EQ(a.name, r.layers[i].name);
            EXPECT_EQ(a.cycles, r.layers[i].stats.cycles);
            ASSERT_GT(b.comp, 0u) << b.name;
            double ratio = static_cast<double>(b.orig) /
                           static_cast<double>(b.comp);
            if (pol == IoPolicy::Uncompressed) {
                EXPECT_EQ(ratio, 1.0) << b.name;
            }
            compressed |= ratio > 1.0;
        }
        EXPECT_EQ(compressed, pol == IoPolicy::Zcomp);
    }
}

TEST(NetworkSim, DenseTensorsStayUncompressed)
{
    // The compressibility gate: with dense inputs and no ReLU fusion
    // possible (inference on raw conv outputs feeding pool only), the
    // zcomp run must not inflate traffic above the baseline by more
    // than the headers it adds on sparse maps.
    SimSetup s = makeSetup(false, 4);
    NetworkSimConfig base, zc;
    zc.policy = IoPolicy::Zcomp;
    uint64_t tb = s.sim->run(base).trafficBytes();
    uint64_t tz = s.sim->run(zc).trafficBytes();
    EXPECT_LE(tz, tb);
}
