#include "common/sweep_supervisor.hh"

#include <algorithm>
#include <thread>

#include "common/log.hh"
#include "common/metrics.hh"

namespace zcomp {

namespace {

/** Worker status-channel schema (stdout JSONL records). */
constexpr const char *workerSchema = "zcomp-worker-v1";

/** Backoff after consecutive crashes is capped here (ms). */
constexpr int maxBackoffMillis = 5000;

double
secondsSince(std::chrono::steady_clock::time_point t,
             std::chrono::steady_clock::time_point now)
{
    return std::chrono::duration<double>(now - t).count();
}

} // namespace

struct SweepSupervisor::WorkerSlot {
    int id = 0;
    size_t cellIdx = 0;
    std::unique_ptr<Subprocess> proc;
    std::unique_ptr<LineReader> out;
    std::unique_ptr<LineReader> err;
    Clock::time_point started;
    Clock::time_point lastHeard;
    bool gotResult = false;
    Json row;
    /** Deadline enforcement reason, set before the SIGKILL. */
    const char *killReason = nullptr;
    std::string killError;
    bool finished = false;
};

SweepSupervisor::SweepSupervisor(SweepSupervisorOptions opt)
    : opt_(std::move(opt)), backoff_(opt_.backoffMillis),
      nextSpawnAt_(Clock::now())
{
    fatal_if(opt_.workerArgv.empty(),
             "sweep supervisor needs a worker argv");
    fatal_if(opt_.workers < 1, "sweep supervisor needs >= 1 worker");
    if (backoff_ < 1)
        backoff_ = 1;
}

SweepSupervisor::WorkerSlot
SweepSupervisor::spawnWorker(const SweepCell &cell, size_t cell_idx)
{
    Subprocess::Options sopt;
    sopt.argv = opt_.workerArgv;
    sopt.argv.push_back("--worker-cell");
    sopt.argv.push_back(cell.spec);

    WorkerSlot w;
    w.id = nextWorkerId_++;
    w.cellIdx = cell_idx;
    w.proc = std::make_unique<Subprocess>(sopt);
    w.out = std::make_unique<LineReader>(w.proc->stdoutFd());
    w.err = std::make_unique<LineReader>(w.proc->stderrFd());
    w.started = w.lastHeard = Clock::now();

    if (MetricsSink *sink = MetricsSink::global()) {
        Json r = Json::object();
        r["schema"] = metricsSchemaVersion;
        r["kind"] = "worker";
        r["event"] = "spawn";
        r["worker"] = static_cast<int64_t>(w.id);
        r["pid"] = static_cast<int64_t>(w.proc->pid());
        r["cell"] = cell.label;
        sink->append(std::move(r));
    }
    return w;
}

void
SweepSupervisor::handleRecord(WorkerSlot &w, const std::string &line)
{
    if (line.empty())
        return;
    std::string err;
    Json rec = Json::parse(line, &err);
    if (!err.empty() || !rec.isObject()) {
        // Not protocol traffic - some stray stdout print. Forward it
        // like a log line rather than silently dropping it.
        logRawLine(line);
        return;
    }
    const Json *schema = rec.find("schema");
    if (!schema || !schema->isString() ||
        schema->asString() != workerSchema) {
        logRawLine(line); // JSON, but not ours - treat as stray output
        return;
    }
    const Json *kind = rec.find("kind");
    if (!kind || !kind->isString())
        return;
    if (kind->asString() == "result") {
        const Json *row = rec.find("row");
        if (row) {
            w.gotResult = true;
            w.row = *row;
        } else {
            warn("worker %d sent a result record with no row", w.id);
        }
    }
    // hello / heartbeat / result all count as signs of life; the
    // lastHeard update in the drain loop already covered this line.
}

SweepCellResult
SweepSupervisor::finishWorker(WorkerSlot &w, const SweepCell &cell)
{
    // Drain both pipes first: the worker may have written its result
    // record microseconds before exiting, and declaring "exited
    // without result" on a still-buffered pipe would turn a success
    // into a phantom crash. One poll() suffices - it consumes
    // everything buffered up to EAGAIN/EOF, and the dead worker can
    // write no more. Never wait for EOF here: an orphaned grandchild
    // (a shell's sleep, say) can hold the write end open long after
    // the worker itself is gone.
    std::vector<std::string> lines;
    w.out->poll(lines);
    for (const std::string &l : lines)
        handleRecord(w, l);
    lines.clear();
    w.err->poll(lines);
    for (const std::string &l : lines)
        logRawLine(l);

    const ExitStatus &st = w.proc->status();
    w.finished = true;

    if (MetricsSink *sink = MetricsSink::global()) {
        Json r = Json::object();
        r["schema"] = metricsSchemaVersion;
        r["kind"] = "worker";
        r["event"] = "exit";
        r["worker"] = static_cast<int64_t>(w.id);
        r["pid"] = static_cast<int64_t>(w.proc->pid());
        r["cell"] = cell.label;
        r["status"] = st.describe();
        sink->append(std::move(r));
    }

    SweepCellResult result;
    result.spec = cell.spec;
    result.label = cell.label;
    if (w.gotResult && st.ok()) {
        result.ok = true;
        result.row = std::move(w.row);
        backoff_ = opt_.backoffMillis;
        return result;
    }

    // Supervisor-domain failure: signal, enforced deadline, or an
    // exit with no result record.
    const char *crash_reason = nullptr;
    if (w.killReason) {
        result.error = w.killError;
        result.signalName = "SIGKILL";
        crash_reason = w.killReason;
    } else if (st.signaled()) {
        result.signalName = ExitStatus::signalName(st.sig);
        result.error = "killed by " + result.signalName;
        crash_reason = "signal";
    } else {
        result.error = format("worker exited without result (%s)",
                              st.describe().c_str());
    }

    if (crash_reason) {
        if (MetricsSink *sink = MetricsSink::global()) {
            Json r = Json::object();
            r["schema"] = metricsSchemaVersion;
            r["kind"] = "crash";
            r["worker"] = static_cast<int64_t>(w.id);
            r["cell"] = cell.label;
            r["signal"] = result.signalName;
            r["reason"] = crash_reason;
            sink->append(std::move(r));
        }
    }
    warn("worker %d: cell %s: %s", w.id, cell.label.c_str(),
         result.error.c_str());

    // Pace the next spawn: a binary that crashes instantly must
    // degrade to a trickle of typed failures, not a fork storm.
    nextSpawnAt_ = Clock::now() + std::chrono::milliseconds(backoff_);
    backoff_ = std::min(backoff_ * 2, maxBackoffMillis);
    return result;
}

std::vector<SweepCellResult>
SweepSupervisor::run(const std::vector<SweepCell> &cells)
{
    std::vector<SweepCellResult> results(cells.size());
    std::vector<WorkerSlot> live;
    size_t next = 0;        // cells [0, next) have been spawned
    size_t completed = 0;

    while (completed < cells.size()) {
        Clock::time_point now = Clock::now();

        // ------------------------------------------------ spawn
        while (next < cells.size() &&
               static_cast<int>(live.size()) < opt_.workers &&
               now >= nextSpawnAt_) {
            live.push_back(spawnWorker(cells[next], next));
            next++;
        }

        // ------------------------------------------------ poll
        bool activity = false;
        for (WorkerSlot &w : live) {
            std::vector<std::string> lines;
            w.out->poll(lines);
            if (!lines.empty()) {
                activity = true;
                w.lastHeard = now;
                for (const std::string &l : lines)
                    handleRecord(w, l);
            }
            lines.clear();
            w.err->poll(lines);
            for (const std::string &l : lines) {
                activity = true;
                logRawLine(l);
            }

            if (!w.proc->poll()) {
                // Still running: enforce the hard deadlines the
                // cell itself cannot be trusted to honor.
                if (opt_.hardTimeoutSec > 0 &&
                    secondsSince(w.started, now) >
                        opt_.hardTimeoutSec) {
                    w.killReason = "timeout";
                    w.killError = format(
                        "hard timeout after %.1fs (SIGKILL)",
                        opt_.hardTimeoutSec);
                } else if (opt_.heartbeatTimeoutSec > 0 &&
                           secondsSince(w.lastHeard, now) >
                               opt_.heartbeatTimeoutSec) {
                    w.killReason = "heartbeat";
                    w.killError = format(
                        "no heartbeat for %.1fs (SIGKILL)",
                        opt_.heartbeatTimeoutSec);
                } else {
                    continue;
                }
                w.proc->kill(); // blocking SIGKILL + reap
            }
            activity = true;
            SweepCellResult &r = results[w.cellIdx];
            r = finishWorker(w, cells[w.cellIdx]);
            completed++;
            if (opt_.onCellDone)
                opt_.onCellDone(w.cellIdx, r);
        }

        // Free the slots of finished workers.
        live.erase(std::remove_if(live.begin(), live.end(),
                                  [](const WorkerSlot &w) {
                                      return w.finished;
                                  }),
                   live.end());

        if (!activity && completed < cells.size())
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return results;
}

} // namespace zcomp
