/** @file End-to-end tests for --isolate-cells: the real study runner
 *  sharded across worker processes (this very binary, re-invoked via
 *  the hidden --worker-cell flag). Covers row byte-identity against
 *  the in-process path (also under a fault spec), progress retry
 *  counts, worker rejection of foreign cell keys, the SIGSEGV/SIGKILL
 *  crash matrix with byte-identical --resume healing, hard-timeout
 *  reaping of a spinning cell, and tear-free worker output under a
 *  sticky status line. Process-level supervisor mechanics (deadlines,
 *  stealing, backoff) are unit-tested in test_sweep_supervisor.cc. */

#include "bench/bench_common.hh"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hh"
#include "common/log.hh"
#include "common/metrics.hh"
#include "common/subprocess.hh"

using namespace zcomp;
using namespace zcomp::bench;

namespace fs = std::filesystem;

namespace {

// The quick two-cell sweep every test uses: ResNet-32 at tiny
// batches, training + inference (same set as test_study_runner).
StudyOptions
quickOptions()
{
    StudyOptions opt;
    opt.models = {{ModelId::Resnet32, 2, 1, 0, 1.0}};
    return opt;
}

// A harness tuned for tests: isolated, fast backoff, and a generous
// heartbeat so slow CI machines never trip it by accident.
StudyHarness
isolatedHarness(int workers)
{
    StudyHarness h;
    h.isolateCells = true;
    h.workers = workers;
    h.backoffMillis = 1;
    h.heartbeatTimeoutSec = 60;
    return h;
}

/**
 * Canonical row bytes modulo host wall-clock: the only fields two
 * runs of the same cell may legitimately differ in are the prep/sim
 * millisecond timings, so zero them and compare the full dump.
 */
std::string
canonRow(StudyRow row)
{
    row.prepMillis = 0;
    for (double &ms : row.simMillis)
        ms = 0;
    return studyRowToJson(row).dump(2);
}

std::vector<StudyRow>
runQuiet(const StudyOptions &opt)
{
    setQuiet(true);
    std::vector<StudyRow> rows = runStudy(opt);
    setQuiet(false);
    return rows;
}

/** Scoped ZCOMP_TEST_CRASH_CELL so no test leaks a crash spec. */
class ScopedCrashEnv
{
  public:
    explicit ScopedCrashEnv(const std::string &spec)
    {
        setenv("ZCOMP_TEST_CRASH_CELL", spec.c_str(), 1);
    }
    ~ScopedCrashEnv() { unsetenv("ZCOMP_TEST_CRASH_CELL"); }
};

class ScopedDir
{
  public:
    explicit ScopedDir(std::string path) : path_(std::move(path))
    {
        fs::remove_all(path_);
    }
    ~ScopedDir() { fs::remove_all(path_); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace

/**
 * The determinism half of DESIGN.md section 4.11: sharding cells
 * across worker processes must yield rows byte-identical (modulo
 * wall-clock) to the in-process pool path - fault-free, and under a
 * capped fault spec with retries, which reaches the workers only
 * through their cell key. The faulted input sweeps one cell, so both
 * executors see exactly one injection (each worker process has its
 * own injector, and with it its own cap).
 */
TEST(StudyIsolation, IsolatedRowsMatchInProcessRowsExactly)
{
    struct Input
    {
        const char *faultSpec;
        int retries;
        bool trainingOnly;
    };
    for (const Input &in : {Input{"", 0, false},
                            Input{"kernel.transient:1:7:1", 1, true}}) {
        SCOPED_TRACE(in.faultSpec);
        StudyOptions opt = quickOptions();
        opt.trainingOnly = in.trainingOnly;
        ThreadPool seq(1);
        opt.pool = &seq;
        StudyHarness pooled;
        pooled.retries = in.retries;
        pooled.backoffMillis = 1;
        opt.harness = &pooled;
        FaultInjector::global().configure(in.faultSpec);
        std::vector<StudyRow> inproc = runQuiet(opt);

        StudyHarness h = isolatedHarness(2);
        h.retries = in.retries;
        opt.harness = &h;
        std::vector<StudyRow> isolated = runQuiet(opt);
        FaultInjector::global().reset();

        ASSERT_EQ(inproc.size(), in.trainingOnly ? 1u : 2u);
        ASSERT_EQ(isolated.size(), inproc.size());
        for (size_t i = 0; i < inproc.size(); i++) {
            EXPECT_EQ(isolated[i].status, CellStatus::Simulated);
            EXPECT_EQ(isolated[i].attempts, 1 + in.retries);
            EXPECT_EQ(canonRow(isolated[i]), canonRow(inproc[i]))
                << "row " << i;
        }
    }
}

/**
 * Both executors count a cell as retried in the sweep progress from
 * the row's own attempts: the final progress record's "retried" is
 * the number of rows with attempts > 1. (Worker processes launched
 * for a cell - a work-stolen straggler - are not retries.)
 */
TEST(StudyIsolation, ProgressRetriedMatchesRetriedRows)
{
    for (bool isolate : {false, true}) {
        SCOPED_TRACE(isolate ? "isolated" : "in-process");
        std::string path = std::string("study_isolation_progress_") +
                           (isolate ? "iso" : "pool") + ".jsonl";
        fs::remove(path);
        StudyOptions opt = quickOptions();
        ThreadPool seq(1);
        opt.pool = &seq;
        StudyHarness h = isolate ? isolatedHarness(2) : StudyHarness();
        h.retries = 1;
        h.backoffMillis = 1;
        opt.harness = &h;
        FaultInjector::global().configure("kernel.transient:1:7:1");
        MetricsSink::enableGlobal(path, 1e12);
        std::vector<StudyRow> rows = runQuiet(opt);
        MetricsSink::finishGlobal();
        FaultInjector::global().reset();

        uint64_t retried_rows = 0;
        for (const StudyRow &row : rows)
            retried_rows += row.attempts > 1;
        // In-process the cap is shared (one retried row); each worker
        // process has its own cap (every row retried).
        EXPECT_EQ(retried_rows, isolate ? rows.size() : 1u);

        std::ifstream in(path);
        Json last;
        for (std::string line; std::getline(in, line);) {
            std::string err;
            Json rec = Json::parse(line, &err);
            ASSERT_EQ(err, "") << line;
            const Json *kind = rec.find("kind");
            if (kind && kind->asString() == "progress")
                last = rec;
        }
        ASSERT_TRUE(last.isObject()) << "no progress record";
        EXPECT_EQ(last.find("done")->asUint(), rows.size());
        EXPECT_EQ(last.find("retried")->asUint(), retried_rows);
        fs::remove(path);
    }
}

namespace {

/** Run this binary as a worker on one --worker-cell spec. */
struct WorkerRun
{
    ExitStatus status;
    bool result = false;   //!< a "result" record reached stdout
    std::string stderrText;
};

WorkerRun
runWorker(const std::string &key)
{
    Json spec = Json::object();
    spec["key"] = key;
    spec["cacheDir"] = "";
    spec["retries"] = 0;
    spec["quiet"] = true;
    Subprocess::Options sopt;
    sopt.argv = {"/proc/self/exe", "--worker-cell", spec.dump()};
    Subprocess p(sopt);
    LineReader out(p.stdoutFd()), err(p.stderrFd());
    std::vector<std::string> out_lines, err_lines;
    // Drain both pipes every round (non-short-circuit |), so neither
    // can fill up while the other is being read to EOF.
    while (out.poll(out_lines) | err.poll(err_lines))
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    while (!p.poll())
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    WorkerRun run;
    run.status = p.status();
    for (const std::string &line : out_lines)
        run.result |= line.find("\"kind\":\"result\"") !=
                      std::string::npos;
    for (const std::string &line : err_lines)
        run.stderrText += line + "\n";
    return run;
}

/** studyCellKey() of the quick inference cell, edited by @p edit. */
std::string
editedKey(const std::function<void(Json &)> &edit)
{
    std::string err;
    Json key = Json::parse(
        studyCellKey(quickOptions().models[0], false, false), &err);
    edit(key);
    return key.dump();
}

} // namespace

/**
 * The worker spec is the cell key: a worker handed a key this build
 * would not compute exits non-zero before reporting any result,
 * rather than simulating a cell the supervisor did not ask for.
 */
TEST(StudyIsolation, WorkerRejectsForeignCellKeys)
{
    // Control: the unedited key computes its cell.
    WorkerRun ok = runWorker(editedKey([](Json &) {}));
    EXPECT_TRUE(ok.status.ok()) << ok.stderrText;
    EXPECT_TRUE(ok.result);

    struct Case
    {
        const char *what;
        std::function<void(Json &)> edit;
        const char *message;
    };
    std::vector<Case> cases = {
        {"unknown model",
         [](Json &k) { k["cell"]["model"] = "no-such-net"; },
         "unknown model 'no-such-net'"},
        {"other schema",
         [](Json &k) { k["schema"] = "zcomp-study-cell-v0"; },
         "not this build's key"},
        {"other policies",
         [](Json &k) {
             Json pols = Json::array();
             pols.push("uncompressed");
             pols.push("zcomp");
             k["policies"] = std::move(pols);
         },
         "not this build's key"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        WorkerRun run = runWorker(editedKey(c.edit));
        EXPECT_FALSE(run.status.ok()) << run.status.describe();
        EXPECT_FALSE(run.status.signaled()) << run.status.describe();
        EXPECT_FALSE(run.result);
        EXPECT_NE(run.stderrText.find(c.message), std::string::npos)
            << run.stderrText;
    }
}

/**
 * The crash matrix: a worker dying of SIGSEGV or SIGKILL mid-cell
 * costs exactly that cell (typed with the signal name), and a
 * --resume afterwards heals the sweep into a report byte-identical
 * (modulo wall-clock) to an uninterrupted run.
 */
TEST(StudyIsolation, CrashedCellIsTypedAndResumeHealsByteIdentically)
{
    // Uninterrupted reference rows, computed once for both signals.
    StudyOptions opt = quickOptions();
    StudyHarness h = isolatedHarness(2);
    opt.harness = &h;
    std::vector<StudyRow> ref = runQuiet(opt);
    ASSERT_EQ(ref.size(), 2u);

    struct Crash {
        const char *how;
        const char *signal;
    };
    for (const Crash &c : {Crash{"sigsegv", "SIGSEGV"},
                           Crash{"sigkill", "SIGKILL"}}) {
        SCOPED_TRACE(c.how);
        ScopedDir cache(std::string("study_isolation_cache_") +
                        c.how);
        h.cacheDir = cache.path();
        h.failBudget = 1;

        // Crashed sweep: the training cell dies, the inference cell
        // completes and lands in the cache.
        std::vector<StudyRow> crashed;
        {
            ScopedCrashEnv env(std::string("resnet-32:training:") +
                               c.how);
            crashed = runQuiet(opt);
        }
        ASSERT_EQ(crashed.size(), 2u);
        EXPECT_EQ(crashed[0].status, CellStatus::Failed);
        EXPECT_NE(crashed[0].error.find(c.signal), std::string::npos)
            << crashed[0].error;
        EXPECT_EQ(crashed[1].status, CellStatus::Simulated);
        EXPECT_EQ(canonRow(crashed[1]), canonRow(ref[1]));

        // Resume (crash hook disarmed): the failed cell re-simulates,
        // the surviving cell restores from cache, and both rows match
        // the uninterrupted run byte for byte.
        h.resume = true;
        std::vector<StudyRow> healed = runQuiet(opt);
        h.resume = false;
        ASSERT_EQ(healed.size(), 2u);
        EXPECT_EQ(healed[0].status, CellStatus::Simulated);
        EXPECT_EQ(healed[1].status, CellStatus::Cached);
        for (size_t i = 0; i < healed.size(); i++)
            EXPECT_EQ(canonRow(healed[i]), canonRow(ref[i]))
                << "row " << i;
        h.cacheDir.clear();
        h.failBudget = 0;
    }
}

/**
 * A cell spinning forever while its heartbeat thread keeps beating
 * can only be ended by the hard wall-clock deadline; the sweep must
 * reap it within that budget and type the row accordingly.
 */
TEST(StudyIsolation, SpinningCellIsReapedWithinHardTimeout)
{
    ScopedCrashEnv env("resnet-32:training:spin");
    StudyOptions opt = quickOptions();
    opt.trainingOnly = true;
    StudyHarness h = isolatedHarness(1);
    h.hardTimeoutSec = 2;
    h.failBudget = 1;
    opt.harness = &h;

    auto t0 = std::chrono::steady_clock::now();
    std::vector<StudyRow> rows = runQuiet(opt);
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();

    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].status, CellStatus::Failed);
    EXPECT_NE(rows[0].error.find("hard timeout"), std::string::npos)
        << rows[0].error;
    // The deadline is 2s; allow generous slack for load, but a spin
    // surviving this long means the reaper never fired.
    EXPECT_LT(elapsed, 30.0);
}

/**
 * Satellite guarantee for --progress: worker log output forwarded by
 * the supervisor must never tear the sticky status line, even with
 * four workers emitting concurrently. The child half (below main())
 * runs a 4-cell sweep at --workers 4 with a status line pinned;
 * here we spawn it and check every stderr line decodes as
 * [status][erase]<whole log line> - a torn write would surface a
 * fragment with no erase sequence or no log prefix.
 */
TEST(StudyIsolation, WorkerOutputDoesNotTearTheStatusLine)
{
    Subprocess::Options sopt;
    sopt.argv = {"/proc/self/exe", "--tear-test-child"};
    Subprocess p(sopt);
    LineReader err(p.stderrFd());
    std::vector<std::string> lines;
    while (err.poll(lines))
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    while (!p.poll())
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(p.status().ok()) << p.status().describe();

    const std::string erase = "\r\x1b[2K";
    int forwarded = 0;
    for (const std::string &line : lines) {
        size_t pos = line.rfind(erase);
        // Every emission while the status line is pinned starts by
        // erasing it; a line with no erase sequence is a torn write.
        ASSERT_NE(pos, std::string::npos) << "torn line: " << line;
        std::string rest = line.substr(pos + erase.size());
        if (rest.empty())
            continue; // the final clearStatusLine()
        EXPECT_TRUE(rest.rfind("info: ", 0) == 0 ||
                    rest.rfind("warn: ", 0) == 0)
            << "torn line: " << line;
        forwarded++;
    }
    // Vacuous-pass guard: 4 workers x (preparing + row done) lines.
    EXPECT_GE(forwarded, 8);
}

namespace {

/** The --tear-test-child body: see the test above. */
int
runTearTestChild()
{
    setQuiet(false);
    setStatusLine("sweep: 0/4 cells");
    StudyOptions opt;
    opt.models = {{ModelId::Resnet32, 2, 1, 0, 1.0},
                  {ModelId::Resnet32, 4, 2, 0, 1.0}};
    StudyHarness h = isolatedHarness(4);
    opt.harness = &h;
    std::vector<StudyRow> rows = runStudy(opt);
    clearStatusLine();
    return rows.size() == 4 ? 0 : 1;
}

} // namespace

/**
 * Custom main: the supervisor re-invokes this very binary as its
 * worker (--worker-cell), so that mode must be intercepted before
 * gtest ever sees argv - exactly what the bench binaries do via
 * parseBenchArgs().
 */
int
main(int argc, char **argv)
{
    zcomp::bench::maybeRunWorkerCell(argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "--tear-test-child") == 0)
        return runTearTestChild();
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
