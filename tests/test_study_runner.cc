#include "bench/bench_common.hh"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "cachecomp/cache_model.hh"
#include "common/error.hh"
#include "common/fault.hh"
#include "common/log.hh"
#include "common/result_cache.hh"
#include "common/thread_pool.hh"

using namespace zcomp;
using namespace zcomp::bench;

namespace {

// A cut-down study cell set (ResNet-32 at small batches) so the test
// stays quick while still covering training + inference and all
// three policies.
StudyOptions
quickOptions()
{
    StudyOptions opt;
    opt.models = {{ModelId::Resnet32, 2, 1, 0, 1.0}};
    return opt;
}

void
expectStatsEqual(const RunStats &a, const RunStats &b,
                 const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what << " cycles";
    EXPECT_EQ(a.breakdown.compute, b.breakdown.compute)
        << what << " compute";
    EXPECT_EQ(a.breakdown.memory, b.breakdown.memory)
        << what << " memory";
    EXPECT_EQ(a.breakdown.sync, b.breakdown.sync) << what << " sync";
    EXPECT_EQ(a.traffic.coreL1Bytes, b.traffic.coreL1Bytes)
        << what << " core-L1";
    EXPECT_EQ(a.traffic.l1L2Bytes, b.traffic.l1L2Bytes)
        << what << " L1-L2";
    EXPECT_EQ(a.traffic.l2L3Bytes, b.traffic.l2L3Bytes)
        << what << " L2-L3";
    EXPECT_EQ(a.traffic.l3DramBytes, b.traffic.l3DramBytes)
        << what << " L3-DRAM";
}

} // namespace

/**
 * The determinism guarantee behind the figure benches: a parallel
 * runStudy() produces NetworkSimResult numbers identical to the
 * sequential path, row for row and layer for layer.
 */
TEST(StudyRunner, ParallelMatchesSequentialExactly)
{
    setQuiet(true);
    // Exercise the parallel GEMM in functional preparation too.
    ThreadPool::setGlobalJobs(4);

    ThreadPool seq(1), par(4);
    StudyOptions opt = quickOptions();
    opt.pool = &seq;
    auto a = runStudy(opt);
    opt.pool = &par;
    auto b = runStudy(opt);

    ThreadPool::setGlobalJobs(ThreadPool::defaultJobs());
    setQuiet(false);

    ASSERT_EQ(a.size(), 2u);
    ASSERT_EQ(b.size(), a.size());
    for (size_t r = 0; r < a.size(); r++) {
        const StudyRow &ra = a[r], &rb = b[r];
        EXPECT_EQ(ra.model, rb.model);
        EXPECT_EQ(ra.training, rb.training);
        for (int pol = 0; pol < numIoPolicies; pol++) {
            std::string what =
                ra.model + (ra.training ? "/train/" : "/infer/") +
                ioPolicyName(static_cast<IoPolicy>(pol));
            const NetworkSimResult &sa = ra.results[pol];
            const NetworkSimResult &sb = rb.results[pol];
            expectStatsEqual(sa.total, sb.total, what);
            ASSERT_EQ(sa.layers.size(), sb.layers.size()) << what;
            for (size_t l = 0; l < sa.layers.size(); l++) {
                EXPECT_EQ(sa.layers[l].name, sb.layers[l].name);
                EXPECT_EQ(sa.layers[l].backward,
                          sb.layers[l].backward);
                expectStatsEqual(sa.layers[l].stats,
                                 sb.layers[l].stats,
                                 what + "." + sa.layers[l].name);
            }
        }
    }
}

/** Row order must match the sequential (model, mode) nesting. */
TEST(StudyRunner, RowOrderIsDeterministic)
{
    setQuiet(true);
    ThreadPool par(3);
    StudyOptions opt;
    opt.models = {{ModelId::Resnet32, 2, 1, 0, 1.0},
                  {ModelId::AlexNet, 2, 1, 0, 1.0}};
    opt.pool = &par;
    auto rows = runStudy(opt);
    setQuiet(false);

    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(rows[0].model, "resnet-32");
    EXPECT_TRUE(rows[0].training);
    EXPECT_EQ(rows[1].model, "resnet-32");
    EXPECT_FALSE(rows[1].training);
    EXPECT_EQ(rows[2].model, "alexnet");
    EXPECT_TRUE(rows[2].training);
    EXPECT_EQ(rows[3].model, "alexnet");
    EXPECT_FALSE(rows[3].training);
}

/** trainingOnly / inferenceOnly filters prune the cell grid. */
TEST(StudyRunner, ModeFilters)
{
    setQuiet(true);
    ThreadPool seq(1);
    StudyOptions opt = quickOptions();
    opt.pool = &seq;
    opt.trainingOnly = true;
    auto train = runStudy(opt);
    opt.trainingOnly = false;
    opt.inferenceOnly = true;
    auto infer = runStudy(opt);
    setQuiet(false);

    ASSERT_EQ(train.size(), 1u);
    EXPECT_TRUE(train[0].training);
    ASSERT_EQ(infer.size(), 1u);
    EXPECT_FALSE(infer[0].training);
}

/**
 * A cell whose attempts all throw becomes a Failed row (within the
 * failure budget) instead of killing the sweep; other cells complete
 * normally.
 */
TEST(StudyRunner, FaultIsolation)
{
    setQuiet(true);
    ThreadPool seq(1);
    StudyHarness h;
    h.failBudget = 2;
    StudyOptions opt = quickOptions();
    opt.pool = &seq;
    opt.harness = &h;
    opt.faultHook = [](const StudyModel &, bool training, int) {
        if (training)
            throw std::runtime_error("injected cell fault");
    };
    auto rows = runStudy(opt);
    setQuiet(false);

    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].status, CellStatus::Failed);
    EXPECT_TRUE(rows[0].training);
    EXPECT_EQ(rows[0].error, "injected cell fault");
    EXPECT_EQ(rows[0].attempts, 1);
    EXPECT_EQ(rows[1].status, CellStatus::Simulated);
    EXPECT_GT(rows[1].results[0].cycles(), 0.0);

    // Failed rows serialize in the compact failure schema.
    Json j = studyRowToJson(rows[0]);
    const Json *failed = j.find("failed");
    ASSERT_NE(failed, nullptr);
    EXPECT_TRUE(failed->asBool());
    EXPECT_EQ(j.find("error")->asString(), "injected cell fault");
    EXPECT_EQ(j.find("policies"), nullptr);
}

/** A transient fault is retried and the cell then succeeds. */
TEST(StudyRunner, TransientFaultRetries)
{
    setQuiet(true);
    ThreadPool seq(1);
    StudyHarness h;
    h.retries = 2;
    h.backoffMillis = 1;    // keep the test fast
    StudyOptions opt = quickOptions();
    opt.inferenceOnly = true;
    opt.pool = &seq;
    opt.harness = &h;
    opt.faultHook = [](const StudyModel &, bool, int attempt) {
        if (attempt == 1)
            throw std::runtime_error("transient fault");
    };
    auto rows = runStudy(opt);
    setQuiet(false);

    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].status, CellStatus::Simulated);
    EXPECT_EQ(rows[0].attempts, 2);
    EXPECT_GT(rows[0].results[0].cycles(), 0.0);
}

/**
 * End-to-end --fault-spec path: a capped kernel.transient site faults
 * the first two attempts inside NetworkSim::run() itself (no test
 * hook), and the retry loop recovers the cell once the cap is hit.
 */
TEST(StudyRunner, InjectedKernelFaultIsRetriedEndToEnd)
{
    FaultInjector::global().reset();
    resetDecodeErrorCount();
    setQuiet(true);
    ThreadPool seq(1);
    StudyHarness h;
    h.retries = 2;
    h.backoffMillis = 1;
    StudyOptions opt = quickOptions();
    opt.inferenceOnly = true;
    opt.pool = &seq;
    opt.harness = &h;
    // prob 1, seed 1, at most 2 injections: attempts 1 and 2 fault on
    // their first policy run, attempt 3 completes all policies clean.
    FaultInjector::global().configure("kernel.transient:1:1:2");
    auto rows = runStudy(opt);
    setQuiet(false);

    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].status, CellStatus::Simulated);
    EXPECT_EQ(rows[0].attempts, 3);
    EXPECT_GT(rows[0].results[0].cycles(), 0.0);
    EXPECT_EQ(
        FaultInjector::global().injected(faultsite::KernelTransient),
        2u);
    FaultInjector::global().reset();
}

/** An uncapped always-fire fault site exhausts retries into a
 *  typed Failed row whose error names the site. */
TEST(StudyRunner, InjectedKernelFaultExhaustsRetries)
{
    FaultInjector::global().reset();
    setQuiet(true);
    ThreadPool seq(1);
    StudyHarness h;
    h.retries = 2;
    h.backoffMillis = 1;
    h.failBudget = 1;
    StudyOptions opt = quickOptions();
    opt.inferenceOnly = true;
    opt.pool = &seq;
    opt.harness = &h;
    FaultInjector::global().configure("kernel.transient:1");
    auto rows = runStudy(opt);
    setQuiet(false);
    FaultInjector::global().reset();

    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].status, CellStatus::Failed);
    EXPECT_EQ(rows[0].attempts, 3);
    EXPECT_NE(rows[0].error.find("fault:"), std::string::npos)
        << rows[0].error;
    EXPECT_NE(rows[0].error.find("kernel.transient"),
              std::string::npos)
        << rows[0].error;
}

/** CellAbort bypasses the retry loop entirely. */
TEST(StudyRunner, CellAbortSkipsRetries)
{
    setQuiet(true);
    ThreadPool seq(1);
    StudyHarness h;
    h.retries = 5;
    h.backoffMillis = 1;
    h.failBudget = 1;
    StudyOptions opt = quickOptions();
    opt.inferenceOnly = true;
    opt.pool = &seq;
    opt.harness = &h;
    opt.faultHook = [](const StudyModel &, bool, int) {
        throw CellAbort("operator stop");
    };
    auto rows = runStudy(opt);
    setQuiet(false);

    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].status, CellStatus::Failed);
    EXPECT_EQ(rows[0].attempts, 1);
    EXPECT_EQ(rows[0].error, "aborted: operator stop");
}

/** Arming fault injection changes the cell cache key, so faulted
 *  sweeps can never poison (or reuse) clean cached rows. */
TEST(StudyRunner, FaultSpecIsPartOfCellKey)
{
    StudyOptions opt = quickOptions();
    FaultInjector::global().reset();
    std::string clean = studyCellKey(opt.models[0], true, false);
    FaultInjector::global().configure("kernel.transient:0.5");
    std::string faulted = studyCellKey(opt.models[0], true, false);
    FaultInjector::global().reset();
    EXPECT_NE(clean, faulted);
    EXPECT_EQ(clean, studyCellKey(opt.models[0], true, false));
}

/** Successful study rows round-trip through JSON byte-identically. */
TEST(StudyRunner, RowJsonRoundTripsExactly)
{
    setQuiet(true);
    ThreadPool seq(1);
    StudyOptions opt = quickOptions();
    opt.inferenceOnly = true;
    opt.pool = &seq;
    auto rows = runStudy(opt);
    setQuiet(false);

    ASSERT_EQ(rows.size(), 1u);
    Json j = studyRowToJson(rows[0]);
    std::string dumped = j.dump(2);
    std::string err;
    Json parsed = Json::parse(dumped, &err);
    ASSERT_TRUE(err.empty()) << err;
    StudyRow restored = studyRowFromJson(parsed);
    EXPECT_EQ(studyRowToJson(restored).dump(2), dumped);
    EXPECT_EQ(restored.model, rows[0].model);
    EXPECT_EQ(restored.results[0].total.cycles,
              rows[0].results[0].total.cycles);

    // Every counter distinct, so a name paired with the wrong member
    // in the serializer cannot round-trip by accident.
    RunStats &t = rows[0].results[0].total;
    t.cycles = 1.5;
    t.breakdown.compute = 2.25;
    t.breakdown.memory = 3.5;
    t.breakdown.sync = 4.75;
    HierSnapshot &h = t.traffic;
    h.coreL1Bytes = 101;
    h.l1L2Bytes = 102;
    h.l2L3Bytes = 103;
    h.l3DramBytes = 104;
    h.l1Hits = 105;
    h.l1Misses = 106;
    h.l2Hits = 107;
    h.l2Misses = 108;
    h.l3Hits = 109;
    h.l3Misses = 110;
    h.l2PrefIssued = 111;
    h.l2PrefUseful = 112;
    h.l2PrefUnused = 113;
    h.l2DemandMissesBelow = 114;
    h.nocHops = 115;
    Json tj = runStatsToJson(t);
    std::vector<std::string> keys;
    for (const auto &[key, value] : tj.find("traffic")->members())
        keys.push_back(key);
    const std::vector<std::string> want = {
        "coreL1Bytes", "l1L2Bytes", "l2L3Bytes", "l3DramBytes",
        "onChipBytes", "totalBytes", "l1Hits", "l1Misses", "l2Hits",
        "l2Misses", "l3Hits", "l3Misses", "l2PrefIssued", "l2PrefUseful",
        "l2PrefUnused", "l2DemandMissesBelow", "nocHops"};
    EXPECT_EQ(keys, want);
    EXPECT_EQ(tj.find("traffic")->find("onChipBytes")->asUint(),
              101u + 102u + 103u);
    EXPECT_EQ(tj.find("traffic")->find("totalBytes")->asUint(),
              101u + 102u + 103u + 104u);

    dumped = studyRowToJson(rows[0]).dump(2);
    restored = studyRowFromJson(Json::parse(dumped, &err));
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(studyRowToJson(restored).dump(2), dumped);
    const RunStats &r = restored.results[0].total;
    EXPECT_EQ(r.cycles, t.cycles);
    EXPECT_EQ(r.breakdown.compute, t.breakdown.compute);
    EXPECT_EQ(r.breakdown.memory, t.breakdown.memory);
    EXPECT_EQ(r.breakdown.sync, t.breakdown.sync);
    EXPECT_EQ(0, std::memcmp(&r.traffic, &h, sizeof(HierSnapshot)));
}

/**
 * The tentpole guarantee: a resumed sweep restores cached cells with
 * bitwise-identical rows, a corrupted cache entry degrades to a
 * re-simulation, and the cell key distinguishes modes.
 */
TEST(StudyRunner, CacheResumeIsByteIdentical)
{
    std::string dir = "study_cache_test";
    std::filesystem::remove_all(dir);

    setQuiet(true);
    ThreadPool seq(1);
    StudyHarness h;
    h.cacheDir = dir;
    StudyOptions opt = quickOptions();
    opt.pool = &seq;
    opt.harness = &h;
    auto fresh = runStudy(opt);     // populates the cache

    h.resume = true;
    auto resumed = runStudy(opt);   // must restore every cell
    setQuiet(false);

    ASSERT_EQ(fresh.size(), 2u);
    ASSERT_EQ(resumed.size(), fresh.size());
    for (size_t r = 0; r < fresh.size(); r++) {
        EXPECT_EQ(fresh[r].status, CellStatus::Simulated);
        EXPECT_EQ(resumed[r].status, CellStatus::Cached);
        EXPECT_EQ(studyRowToJson(resumed[r]).dump(2),
                  studyRowToJson(fresh[r]).dump(2))
            << "row " << r << " not byte-identical after resume";
    }

    // Corrupt one entry: that cell (and only that cell) re-simulates,
    // and its numbers still match the fresh run exactly.
    ResultCache cache(dir);
    std::string key =
        studyCellKey(opt.models[0], /*training=*/true,
                     /*want_stats=*/false);
    {
        std::ofstream f(cache.entryPath(key), std::ios::trunc);
        f << "not json";
    }
    setQuiet(true);
    auto repaired = runStudy(opt);
    setQuiet(false);
    ASSERT_EQ(repaired.size(), 2u);
    EXPECT_EQ(repaired[0].status, CellStatus::Simulated);
    EXPECT_EQ(repaired[1].status, CellStatus::Cached);
    // The re-simulated cell has new wall-clock timings but identical
    // simulation numbers.
    for (int pol = 0; pol < numIoPolicies; pol++)
        expectStatsEqual(repaired[0].results[pol].total,
                         fresh[0].results[pol].total, "repaired cell");

    // Training and inference cells must never share a key.
    EXPECT_NE(studyCellKey(opt.models[0], true, false),
              studyCellKey(opt.models[0], false, false));
    EXPECT_NE(studyCellKey(opt.models[0], true, false),
              studyCellKey(opt.models[0], true, true));
}

/**
 * A truncated (non-line-aligned) snapshot surfacing mid-cell raises a
 * typed DecodeError: the runner treats it as a recoverable SimError -
 * retried per the harness, then recorded as a failed row with the
 * "decode" kind - instead of fatal()ing the whole sweep (ISSUE 9).
 */
TEST(StudyRunner, TruncatedSnapshotFailsCellInIsolation)
{
    resetDecodeErrorCount();
    setQuiet(true);
    ThreadPool seq(1);
    StudyHarness h;
    h.retries = 1;
    h.backoffMillis = 1;
    h.failBudget = 1;
    StudyOptions opt = quickOptions();
    opt.inferenceOnly = true;
    opt.pool = &seq;
    opt.harness = &h;
    opt.faultHook = [](const StudyModel &, bool, int) {
        // 65 bytes: a snapshot cut off mid-line.
        std::vector<uint8_t> snap(65, 0);
        zcompSnapshotRatio(snap.data(), snap.size());
    };
    auto rows = runStudy(opt);
    setQuiet(false);

    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].status, CellStatus::Failed);
    EXPECT_EQ(rows[0].attempts, 2);
    EXPECT_NE(rows[0].error.find("decode"), std::string::npos)
        << rows[0].error;
    EXPECT_NE(rows[0].error.find("line-aligned"), std::string::npos)
        << rows[0].error;
    // Every detection bumped the observable counter (one per attempt).
    EXPECT_EQ(decodeErrorCount(), 2u);
}
