/**
 * @file
 * Time-series telemetry in two clock domains (schema zcomp-metrics-v1).
 *
 * Cycle domain - MetricsSampler: reads the simulator's counters
 * (SampleCounters) every N *simulated* cycles from the MultiCoreSystem
 * stepping loop, emitting one JSONL record per crossing with the
 * windowed counter deltas and derived rates (DRAM bytes/cycle,
 * per-level miss rates, zcomp busy fraction, NoC hops/cycle, the live
 * per-layer compression ratio). When a
 * Perfetto trace is active (--trace), every derived metric is also
 * emitted as a counter track on the run's simulated track group, so
 * the timelines render next to the PR 2 spans.
 *
 * Host domain - SweepProgress: tracks a study sweep's cells
 * done/total/cached/failed/retried, throughput and ETA on the host
 * wall clock, emitting progress records into the same JSONL stream
 * and (opt-in) a single sticky status line on stderr.
 *
 * Both domains append to one MetricsSink (--metrics out.jsonl). Every
 * record carries "schema" and a "kind" of "sample" or "progress";
 * the sink stamps "hostMs" (milliseconds since the sink was created)
 * on each line. Records from concurrent cells interleave freely in
 * the file, but each (cell, policy) pair's sample stream is strictly
 * monotonic in "cycle" - the property zcomp_inspect --metrics checks.
 *
 * Invariants: with no --metrics flag there is no sink, no sampler is
 * ever constructed, and the stepping loop's only cost is one
 * always-false comparison against +infinity; stdout and every other
 * artifact stay byte-identical. Sampling only reads simulation state,
 * so RunStats are identical with metrics on or off.
 */

#ifndef ZCOMP_COMMON_METRICS_HH
#define ZCOMP_COMMON_METRICS_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

#include "common/annotate.hh"
#include "common/json.hh"

namespace zcomp {

/** Schema tag carried by every metrics record. */
constexpr const char *metricsSchemaVersion = "zcomp-metrics-v1";

/**
 * Thread-safe append-only JSONL writer shared by every sampler and
 * progress reporter in the process. One record per line; each line is
 * written and flushed atomically under a mutex, so records from
 * concurrent study cells interleave whole-line (never torn) and a
 * live `tail -f` / zcomp_metrics.py tail sees complete records.
 */
class MetricsSink
{
  public:
    /** Default cycle-domain sampling interval (--metrics-interval). */
    static constexpr double defaultIntervalCycles = 100000;

    explicit MetricsSink(std::string path,
                         double interval_cycles = defaultIntervalCycles);
    ~MetricsSink();

    MetricsSink(const MetricsSink &) = delete;
    MetricsSink &operator=(const MetricsSink &) = delete;

    /**
     * Stamp "hostMs" (wall milliseconds since the sink was created)
     * on the record and append it as one flushed JSONL line.
     */
    void append(Json record) ZCOMP_EXCLUDES(mu_);

    double intervalCycles() const { return interval_; }
    const std::string &path() const { return path_; }

    // ------------------------------------------------- global sink
    /** The process-wide sink enabled by --metrics, or null. */
    static MetricsSink *global();

    /** Install the process-wide sink (replaces any previous one). */
    static void enableGlobal(const std::string &path,
                             double interval_cycles =
                                 defaultIntervalCycles);

    /** Close and drop the process-wide sink (atexit-safe). */
    static void finishGlobal();

  private:
    using Clock = std::chrono::steady_clock;

    // Lock contract: mu_ guards the output stream; path_, interval_
    // and t0_ are set once in the constructor and read-only after.
    std::string path_;
    double interval_;
    Clock::time_point t0_;
    Mutex mu_;
    std::FILE *f_ ZCOMP_GUARDED_BY(mu_) = nullptr;
};

/**
 * The machine-wide counters one sample reads, each summed over the
 * cores (per-core L1/L2 and zcomp busy cycles) or read from the one
 * shared L3, NoC and DRAM.
 */
struct SampleCounters
{
    uint64_t dramBytesRead = 0;
    uint64_t dramBytesWritten = 0;
    uint64_t l3DramBytes = 0;
    uint64_t l1Hits = 0;
    uint64_t l1Misses = 0;
    uint64_t l2Hits = 0;
    uint64_t l2Misses = 0;
    uint64_t l3Hits = 0;
    uint64_t l3Misses = 0;
    uint64_t zcompBusyCycles = 0;   //!< sum of each core's truncated count
    uint64_t nocHops = 0;
};

/**
 * Cycle-domain sampler for one (cell, policy) simulation run.
 *
 * A provider callback reads the counters (the bench observer's reads
 * the simulator; tests return fakes). Records name each counter by its
 * stats-tree path, with '*' standing for "summed over every core":
 * "mem.l1_*.misses", "core*.zcomp_busy_cycles".
 *
 * sample(now) is invoked from the stepping loop whenever the global
 * low-water mark crosses nextSampleCycle(); it reads the counters,
 * emits one "sample" record with their deltas over the
 * window (now - previous sample) plus derived rates, and advances the
 * next crossing to the smallest interval multiple > now. finish(now)
 * emits a final short-window record (flagged "drain": true) covering
 * any cycles after the last crossing - a run shorter than one
 * interval yields exactly one drain record.
 *
 * Not thread-safe: one sampler belongs to one simulation run on one
 * thread (the sink it appends to is shared and mutexed).
 */
class MetricsSampler
{
  public:
    /** @p trace_pid routes the derived metrics to Perfetto counter
     *  tracks under that simulated track group; -1 disables them. */
    MetricsSampler(MetricsSink *sink, std::string cell,
                   std::string policy, double interval_cycles,
                   int num_cores,
                   std::function<SampleCounters()> provider,
                   int trace_pid = -1);

    /**
     * Read the counters as the new delta baseline and restart the
     * window at @p now_cycle. Call once before the first sample
     * (counters may be nonzero when caches start warm).
     */
    void rebase(double now_cycle);

    /**
     * The layer pass the stepping loop is currently replaying and its
     * static compression ratio (original bytes / policy bytes over
     * the pass's tensor streams; 1.0 when nothing is compressed).
     * Samples report these as "layer" / derived.layerCompressionRatio.
     */
    void setLayerContext(const std::string &layer, double ratio);

    /** Emit one windowed sample at simulated cycle @p now_cycle. */
    void sample(double now_cycle);

    /** Emit the final drain record if any cycles are unsampled. */
    void finish(double now_cycle);

    /** The next cycle at which sample() should run. */
    double nextSampleCycle() const { return nextAt_; }

    /** Records emitted so far (tests). */
    uint64_t samplesEmitted() const { return emitted_; }

  private:
    void emit(double now_cycle, bool drain);

    MetricsSink *sink_;
    std::string cell_;
    std::string policy_;
    double interval_;
    int numCores_;
    std::function<SampleCounters()> provider_;

    SampleCounters last_;       //!< counters at the previous sample
    double lastCycle_ = 0;
    double nextAt_;
    int tracePid_;
    std::string layer_;
    double layerRatio_ = 1.0;
    uint64_t emitted_ = 0;
};

/**
 * Host-domain progress reporter for one study sweep. Thread-safe:
 * pool workers call cellDone() as their cells finish (in completion
 * order, not row order). Every completed cell emits one "progress"
 * record - done/total/cached/failed/retried counts, cells-per-second
 * throughput and the remaining-time estimate, all on the host wall
 * clock - and, when live display is on, redraws a single sticky
 * status line through the log sink (so concurrent inform()/warn()
 * lines and the status line never tear each other).
 */
class SweepProgress
{
  public:
    /**
     * @param total_cells cells the sweep will run
     * @param live draw the stderr status line (callers gate this on
     *        --progress, !quiet() and stderr being a TTY)
     */
    SweepProgress(uint64_t total_cells, bool live);

    /** Clears the status line (records stay in the JSONL). */
    ~SweepProgress();

    SweepProgress(const SweepProgress &) = delete;
    SweepProgress &operator=(const SweepProgress &) = delete;

    /**
     * Record one finished cell. @p attempts is the simulation
     * attempts the cell consumed (> 1 counts it as retried).
     */
    void cellDone(bool cached, bool failed, int attempts)
        ZCOMP_EXCLUDES(mu_);

    /**
     * Clear the status line now, once every cell has reported. The
     * destructor also clears, but worker-held copies of a shared
     * reporter can outlive the sweep loop (pool task objects release
     * their captures lazily) - call this before printing the result
     * tables so they never append to a stale status line.
     */
    void finish() ZCOMP_EXCLUDES(mu_);

    uint64_t done() const ZCOMP_EXCLUDES(mu_);

  private:
    using Clock = std::chrono::steady_clock;

    // Lock contract: mu_ guards every tally plus the live-display
    // flag (finish() clears it exactly once); total_ and t0_ are
    // constructor-set and read-only after. The status line itself is
    // guarded separately by the log sink's output mutex - cellDone()
    // takes mu_ then that mutex, never the other way around.
    mutable Mutex mu_;
    uint64_t total_;
    bool live_ ZCOMP_GUARDED_BY(mu_);
    Clock::time_point t0_;
    uint64_t done_ ZCOMP_GUARDED_BY(mu_) = 0;
    uint64_t cached_ ZCOMP_GUARDED_BY(mu_) = 0;
    uint64_t failed_ ZCOMP_GUARDED_BY(mu_) = 0;
    uint64_t retried_ ZCOMP_GUARDED_BY(mu_) = 0;
};

} // namespace zcomp

#endif // ZCOMP_COMMON_METRICS_HH
