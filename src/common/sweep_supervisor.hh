/**
 * @file
 * SweepSupervisor - crash-isolated multi-process execution of study
 * cells (--isolate-cells / --workers N).
 *
 * The in-process study runner is resilient only to *exceptions*:
 * --retries / --fail-budget both assume the cell unwinds
 * cooperatively - a cell that SIGSEGVs, deadlocks or spins takes the
 * whole sweep (and every in-flight result) with it, and nothing
 * in-process can bound its wall time. The supervisor closes that gap by
 * running each cell in its own worker process, so the blast radius
 * of any failure is exactly one cell:
 *
 *  - Sharding: (model, mode) cells are dealt to up to N concurrent
 *    worker processes; each worker is the same bench binary
 *    re-invoked with a hidden `--worker-cell <spec>` flag, computes
 *    one cell, stores the row into the shared --cache dir, and
 *    reports it back over stdout.
 *  - Protocol: worker stdout is a JSONL status channel (hello /
 *    heartbeat / result records); worker stderr carries human log
 *    lines, which the supervisor forwards through logRawLine() so
 *    they never tear the sticky --progress status line.
 *  - Hard deadlines: every worker is monitored against a wall-clock
 *    hard timeout and a heartbeat-silence timeout. A hung or crashed
 *    cell is SIGKILLed and recorded as a typed failed row carrying
 *    the signal name - enforcement no in-process check can
 *    provide.
 *  - Restart with backoff: after a crash the next spawn is delayed
 *    by a doubling backoff (reset on any clean exit), so a broken
 *    binary degrades to a paced trickle of typed failures instead of
 *    a fork storm.
 *  - One worker per cell: a cell never runs twice. Rows are
 *    deterministic, so a second copy of a slow cell would compute
 *    the same row, start later and hold a second copy of the cell's
 *    memory, so once the queue drains, idle slots stay idle.
 *
 * Failure domains: a cell that fails with a typed in-process error
 * (SimError and friends) is *not* a supervisor failure - the worker
 * reports a failed row and exits 0. The supervisor only synthesizes
 * failures for the out-of-process domain: death by signal, hard
 * timeout, heartbeat loss, or a worker exiting without reporting.
 * Signal-killed cells are never retried in-process determinism means
 * they would die again; --resume after a fixed binary heals the
 * report byte-identically from the cache.
 *
 * The run loop is single-threaded by design (no locks, no signal
 * handlers beyond what Subprocess needs); everything is driven by
 * non-blocking pipe drains and WNOHANG reaps on a ~5ms tick.
 */

#ifndef ZCOMP_COMMON_SWEEP_SUPERVISOR_HH
#define ZCOMP_COMMON_SWEEP_SUPERVISOR_HH

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/subprocess.hh"

namespace zcomp {

/** One unit of isolated work: an opaque spec the worker binary
 *  understands (via --worker-cell) plus a human-readable label. */
struct SweepCell {
    std::string spec;
    std::string label;
};

/** Outcome of one cell, in the supervisor's failure domain. */
struct SweepCellResult {
    std::string spec;
    std::string label;
    /** Worker reported a result record and exited cleanly. The row
     *  itself may still describe a typed in-process failure - that
     *  domain belongs to the worker, not the supervisor. */
    bool ok = false;
    /** The "row" payload of the worker's result record (when ok). */
    Json row;
    /** Supervisor-domain failure description when !ok. */
    std::string error;
    /** Signal that terminated the worker ("SIGKILL", "SIGSEGV", ...)
     *  or empty for a plain bad exit. */
    std::string signalName;
};

struct SweepSupervisorOptions {
    /** Base argv of the worker binary; the supervisor appends
     *  "--worker-cell <spec>" per launch. */
    std::vector<std::string> workerArgv;
    /** Maximum concurrent worker processes. */
    int workers = 2;
    /** Per-attempt wall-clock hard deadline in seconds (0 = none). */
    double hardTimeoutSec = 0;
    /** Max seconds of stdout silence before a worker is declared
     *  hung and SIGKILLed (0 = none). Heartbeat records, result
     *  records and hello all count as signs of life. */
    double heartbeatTimeoutSec = 0;
    /** Initial respawn delay after a crash; doubles per consecutive
     *  crash (capped), resets on a clean exit. */
    int backoffMillis = 50;
    /** Invoked once per finished cell (with its input index), in
     *  completion order. */
    std::function<void(size_t, const SweepCellResult &)> onCellDone;
};

class SweepSupervisor
{
  public:
    explicit SweepSupervisor(SweepSupervisorOptions opt);

    /**
     * Run every cell to completion (success, typed failure, or
     * supervisor-domain failure - never an abort), returning results
     * in input order. Degrades gracefully: a crashing cell yields a
     * typed result and the sweep continues.
     */
    std::vector<SweepCellResult> run(const std::vector<SweepCell> &cells);

  private:
    using Clock = std::chrono::steady_clock;

    struct WorkerSlot;

    WorkerSlot spawnWorker(const SweepCell &cell, size_t cell_idx);
    void handleRecord(WorkerSlot &w, const std::string &line);
    SweepCellResult finishWorker(WorkerSlot &w, const SweepCell &cell);

    SweepSupervisorOptions opt_;
    int backoff_;
    Clock::time_point nextSpawnAt_;
    int nextWorkerId_ = 0;
};

} // namespace zcomp

#endif // ZCOMP_COMMON_SWEEP_SUPERVISOR_HH
