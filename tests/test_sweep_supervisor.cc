/** @file Unit tests for the sweep supervisor's process-level
 *  behavior, using /bin/sh stand-ins for the bench worker: sharding,
 *  crash isolation, hard/heartbeat deadlines, one worker per cell, and
 *  the exited-without-result failure path. The end-to-end crash matrix
 *  against the real study runner lives in test_study_isolation.cc. */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/sweep_supervisor.hh"

using namespace zcomp;

namespace {

/**
 * A fake worker: /bin/sh -c <script> worker [--worker-cell <spec>].
 * Inside the script $2 is the cell spec the supervisor appended.
 */
SweepSupervisorOptions
fakeWorker(const std::string &script, int workers)
{
    SweepSupervisorOptions opt;
    opt.workerArgv = {"/bin/sh", "-c", script, "worker"};
    opt.workers = workers;
    return opt;
}

/** Script emitting a hello record then a result row for its cell. */
const char *okScript =
    "printf '{\"schema\":\"zcomp-worker-v1\",\"kind\":\"hello\","
    "\"cell\":\"%s\"}\\n' \"$2\"\n"
    "printf '{\"schema\":\"zcomp-worker-v1\",\"kind\":\"result\","
    "\"cell\":\"%s\",\"row\":{\"cell\":\"%s\",\"value\":42}}\\n' "
    "\"$2\" \"$2\"\n";

std::vector<SweepCell>
cellsNamed(const std::vector<std::string> &names)
{
    std::vector<SweepCell> cells;
    for (const std::string &n : names)
        cells.push_back({n, n});
    return cells;
}

} // namespace

TEST(SweepSupervisor, RunsAllCellsInInputOrder)
{
    SweepSupervisor sup(fakeWorker(okScript, 3));
    std::vector<SweepCellResult> results =
        sup.run(cellsNamed({"a", "b", "c", "d", "e"}));
    ASSERT_EQ(results.size(), 5u);
    const char *want[] = {"a", "b", "c", "d", "e"};
    for (size_t i = 0; i < results.size(); i++) {
        EXPECT_EQ(results[i].spec, want[i]);
        EXPECT_TRUE(results[i].ok) << results[i].error;
        const Json *cell = results[i].row.find("cell");
        ASSERT_NE(cell, nullptr);
        EXPECT_EQ(cell->asString(), want[i]);
    }
}

TEST(SweepSupervisor, CrashedCellIsIsolatedAndTyped)
{
    // Cell "boom" dies of SIGSEGV mid-run; every other cell must
    // complete and the failure must carry the signal name.
    std::string script = std::string("if [ \"$2\" = boom ]; then "
                                     "kill -SEGV $$; fi\n") +
                         okScript;
    SweepSupervisorOptions opt = fakeWorker(script, 2);
    int done_calls = 0;
    opt.onCellDone = [&](size_t, const SweepCellResult &) {
        done_calls++;
    };
    SweepSupervisor sup(opt);
    std::vector<SweepCellResult> results =
        sup.run(cellsNamed({"a", "boom", "c"}));
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_TRUE(results[2].ok);
    EXPECT_FALSE(results[1].ok);
    EXPECT_EQ(results[1].signalName, "SIGSEGV");
    EXPECT_NE(results[1].error.find("SIGSEGV"), std::string::npos)
        << results[1].error;
    EXPECT_EQ(done_calls, 3);
}

TEST(SweepSupervisor, HungWorkerIsReapedByHeartbeatTimeout)
{
    // The worker says hello, then goes silent forever - only the
    // supervisor's heartbeat deadline can end it.
    std::string script =
        "printf '{\"schema\":\"zcomp-worker-v1\",\"kind\":\"hello\","
        "\"cell\":\"%s\"}\\n' \"$2\"\n"
        "sleep 60\n";
    SweepSupervisorOptions opt = fakeWorker(script, 1);
    opt.heartbeatTimeoutSec = 0.4;
    SweepSupervisor sup(opt);
    std::vector<SweepCellResult> results = sup.run(cellsNamed({"a"}));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].signalName, "SIGKILL");
    EXPECT_NE(results[0].error.find("no heartbeat"),
              std::string::npos)
        << results[0].error;
}

TEST(SweepSupervisor, SpinningWorkerIsReapedByHardTimeout)
{
    // The worker heartbeats diligently while spinning forever, so
    // only the *hard* wall-clock deadline catches it.
    std::string script =
        "while :; do "
        "printf '{\"schema\":\"zcomp-worker-v1\","
        "\"kind\":\"heartbeat\",\"cell\":\"%s\"}\\n' \"$2\"; "
        "sleep 0.05; done\n";
    SweepSupervisorOptions opt = fakeWorker(script, 1);
    opt.heartbeatTimeoutSec = 10;
    opt.hardTimeoutSec = 0.5;
    SweepSupervisor sup(opt);
    std::vector<SweepCellResult> results = sup.run(cellsNamed({"a"}));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].signalName, "SIGKILL");
    EXPECT_NE(results[0].error.find("hard timeout"),
              std::string::npos)
        << results[0].error;
}

TEST(SweepSupervisor, ExitWithoutResultIsAFailure)
{
    SweepSupervisor sup(fakeWorker("exit 3\n", 1));
    std::vector<SweepCellResult> results = sup.run(cellsNamed({"a"}));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_TRUE(results[0].signalName.empty());
    EXPECT_NE(results[0].error.find("exit 3"), std::string::npos)
        << results[0].error;
}

TEST(SweepSupervisor, IdleSlotsNeverDuplicateACell)
{
    // One slow cell, two slots: the idle slot must stay idle rather
    // than start a second copy of the running cell. Each launch
    // appends a line to a counter file before the cell's work.
    const std::string counter =
        std::filesystem::absolute("sweep_supervisor_test_launches");
    std::filesystem::remove(counter);
    std::string script = "echo launch >> '" + counter + "'\n" +
                         "sleep 1\n" + okScript;
    SweepSupervisor sup(fakeWorker(script, 2));
    std::vector<SweepCellResult> results = sup.run(cellsNamed({"a"}));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok) << results[0].error;

    std::ifstream in(counter);
    int launches = 0;
    for (std::string line; std::getline(in, line);)
        launches += line == "launch";
    EXPECT_EQ(launches, 1);
    std::filesystem::remove(counter);
}

TEST(SweepSupervisor, StderrIsForwardedWholeLine)
{
    // Worker stderr goes through the status-aware log sink; with
    // quiet() set it must be swallowed entirely (this also exercises
    // the forwarding path without asserting on global stderr).
    std::string script =
        std::string("echo 'info: worker says hi' >&2\n") + okScript;
    setQuiet(true);
    SweepSupervisor sup(fakeWorker(script, 1));
    std::vector<SweepCellResult> results = sup.run(cellsNamed({"a"}));
    setQuiet(false);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok);
}

TEST(SweepSupervisor, CrashBackoffDoesNotStallHealthyCells)
{
    // A crashing cell must pace respawns, not block the sweep: all
    // cells still complete and the crasher is typed.
    std::string script = std::string("if [ \"$2\" = boom ]; then "
                                     "kill -KILL $$; fi\n") +
                         okScript;
    SweepSupervisorOptions opt = fakeWorker(script, 2);
    opt.backoffMillis = 20;
    SweepSupervisor sup(opt);
    std::vector<SweepCellResult> results =
        sup.run(cellsNamed({"boom", "b", "c", "d"}));
    ASSERT_EQ(results.size(), 4u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].signalName, "SIGKILL");
    for (size_t i = 1; i < 4; i++)
        EXPECT_TRUE(results[i].ok) << results[i].error;
}
