/**
 * @file
 * Shared helpers for the figure-reproduction bench binaries: the
 * scaled-down model configurations used for full-network simulation
 * (documented in EXPERIMENTS.md), functional execution driving, and
 * the per-policy study runner behind Figures 2, 13 and 14.
 *
 * The study runner fans its (model, mode) cells out over a
 * ThreadPool - each cell owns a private ExecContext/MemoryHierarchy,
 * prepares its network once, and times every studyPolicies() I/O
 * policy sequentially against those shared read-only tensors. Rows come
 * back in the same deterministic order as the old sequential loop
 * and with bitwise-identical numbers for any worker count;
 * parallelism only ever spans independent simulations, never the
 * inside of one timing run.
 *
 * The runner is fault-tolerant and resumable (see EXPERIMENTS.md):
 *  - every completed cell can be written to an on-disk ResultCache
 *    (--cache DIR) keyed by a content hash of the machine config,
 *    the cell parameters and a code-schema version, and --resume
 *    restores those cells with bitwise-identical rows instead of
 *    re-simulating them;
 *  - a cell that throws is retried up to --retries times with
 *    exponential backoff and then recorded as a failed row instead of
 *    killing the whole sweep; the process only exits non-zero once
 *    more than --fail-budget cells have failed;
 *  - under --isolate-cells every cell runs in its own worker process,
 *    so a cell that crashes or hangs (bounded by --hard-timeout)
 *    costs exactly itself.
 *
 * Both executors - a pool slot and a worker process - share one
 * resume pre-pass, one simulate-and-store step, one row decoder and
 * one tail for progress, the report and the fail budget.
 */

#ifndef ZCOMP_BENCH_BENCH_COMMON_HH
#define ZCOMP_BENCH_BENCH_COMMON_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.hh"
#include "common/json.hh"
#include "common/thread_pool.hh"
#include "dnn/models.hh"
#include "sim/network_sim.hh"

namespace zcomp::bench {

/**
 * Simulation-scale model configuration. The paper trains at batch 64
 * (ResNet: 128) and infers at batch 4 on full-resolution inputs;
 * single-host simulation uses the batches/images below, chosen so the
 * early-layer feature maps preserve their cache-residency regimes
 * (see EXPERIMENTS.md).
 */
struct StudyModel
{
    ModelId id;
    int trainBatch;
    int inferBatch;
    int imageSize;      //!< 0 = native
    double widthScale;  //!< Inception-ResNet channel scale
};

/** The five-network study set (Section 5.3). */
const std::vector<StudyModel> &studyModels();

/** Build + functionally execute one model (forward [+ backward]). */
struct PreparedNet
{
    std::unique_ptr<ExecContext> ctx;
    std::unique_ptr<Network> net;
};

/**
 * @param arena optional caller-owned bump arena backing every tensor
 *        and scratch buffer of the prepared network (see
 *        ExecContext(const ArchConfig &, BumpArena *)). The study
 *        runner passes one arena per (model, mode) cell and resets it
 *        between retry attempts so a faulted attempt's memory is
 *        reclaimed wholesale.
 */
PreparedNet prepareNet(const StudyModel &m, bool training,
                       uint64_t seed = 1, BumpArena *arena = nullptr);

/**
 * The --trace / --metrics observer of one policy run, installed on
 * @p ctx until destroyed; null without either flag. It writes the
 * run's track group "<cell> [<policy>]" and its "sample" records.
 */
std::unique_ptr<PhaseObserver> observeTelemetry(
    ExecContext &ctx, const std::string &cell, const std::string &policy);

/** How a study cell's row came to be. */
enum class CellStatus
{
    Simulated,  //!< freshly simulated in this process
    Cached,     //!< restored from the --cache result cache
    Failed,     //!< all attempts threw, or the worker process died
};

/**
 * One I/O policy the study sweeps: its CompressionScheme name paired
 * with its NetworkSim dispatch value.
 */
struct StudyPolicy
{
    std::string name;   //!< == the CompressionScheme's name()
    IoPolicy policy;
};

/**
 * The policies every study cell runs: one per IoPolicy, in enum
 * order (uncompressed / avx512-comp / zcomp), which is also their
 * order in allSchemes(). Row layout, report keys and figure output
 * follow this order.
 */
const std::vector<StudyPolicy> &studyPolicies();

/** One (model, mode) row of the Figures 13/14 study. */
struct StudyRow
{
    std::string model;
    bool training = false;

    /** Per-policy simulation results, indexed like studyPolicies().
     *  Empty on failed rows; use result(name) for keyed access. */
    std::vector<NetworkSimResult> results;

    // Harness wall-clock (host seconds, not simulated cycles), logged
    // per row so BENCH_*.json entries can track runner speed.
    double prepMillis = 0;
    std::vector<double> simMillis;

    /** The results entry for one policy/scheme name; panics when the
     *  name is not a study policy or the row carries no results. */
    const NetworkSimResult &result(const std::string &policy) const;

    /**
     * Stats-tree snapshot of the cell's system after all three policy
     * runs (MultiCoreSystem::statsJson()). Only populated
     * when a --report is being collected; Null otherwise so the
     * default path stays cheap.
     */
    Json stats;

    CellStatus status = CellStatus::Simulated;
    std::string error;  //!< failure reason (status == Failed only)
    int attempts = 1;   //!< simulation attempts consumed
};

/**
 * Serialize one StudyRow into the report schema: model/mode, prep and
 * per-policy sim wall-clock, and for each policy the total RunStats
 * (cycles, breakdown, per-level traffic) plus per-layer attribution.
 * Successful rows serialize identically whether simulated or cached
 * (the determinism guarantee behind --resume); failed rows serialize
 * as { model, mode, failed, error, attempts }.
 */
Json studyRowToJson(const StudyRow &row);

/**
 * Rebuild a StudyRow from its studyRowToJson() form. Round-trips
 * exactly (doubles print with full precision, integers verbatim), so
 * a cached row re-serializes byte-identically. The compact failed
 * form { model, mode, failed, error, attempts } decodes to a
 * CellStatus::Failed row. Throws std::runtime_error on missing or
 * mistyped fields, so corrupt cache entries degrade to a
 * re-simulation.
 */
StudyRow studyRowFromJson(const Json &j);

/**
 * Code-schema version folded into every result-cache key. Bump it
 * whenever simulation semantics, the row schema or the cell
 * preparation change, so stale caches miss instead of resurrecting
 * rows the current code would not reproduce.
 */
constexpr const char *studyCellSchemaVersion = "zcomp-study-cell-v3";

/**
 * Canonical result-cache key of one (model, mode) study cell: a JSON
 * dump of the schema version, the full Table 1 machine config and
 * every cell parameter (including whether a stats snapshot is
 * collected). Two runs share a key exactly when they are guaranteed
 * to produce bitwise-identical rows.
 */
std::string studyCellKey(const StudyModel &m, bool training,
                         bool want_stats);

/**
 * Resilience knobs of the study runner, normally filled in from the
 * CLI (--cache/--resume/--retries/--fail-budget/--isolate-cells) via
 * parseBenchArgs(). Tests construct their own and point
 * StudyOptions::harness at it.
 */
struct StudyHarness
{
    std::string cacheDir;       //!< empty = no result cache
    bool resume = false;        //!< restore cached cells (needs cacheDir)
    int retries = 0;            //!< extra attempts after a cell fault
    int failBudget = 0;         //!< failed cells tolerated before exit(1)
    int backoffMillis = 50;     //!< base retry backoff (doubles per retry)
    bool progress = false;      //!< live sweep status line (--progress)

    // --- out-of-process execution (--isolate-cells; DESIGN.md §4.11)
    bool isolateCells = false;  //!< one worker process per cell
    int workers = 2;            //!< concurrent worker processes
    /** Per-cell wall-clock *hard* deadline enforced by SIGKILL from
     *  the supervisor; 0 = none. Catches cells that SIGSEGV'd into a
     *  handler, deadlocked or spin. */
    double hardTimeoutSec = 0;
    /** Max seconds of worker status-channel silence before the
     *  supervisor declares it hung and SIGKILLs it; 0 = none. */
    double heartbeatTimeoutSec = 30;
};

/** The process-wide harness knobs parseBenchArgs() populates. */
StudyHarness &studyHarness();

/** Knobs for runStudy(); the defaults reproduce the full study. */
struct StudyOptions
{
    bool trainingOnly = false;
    bool inferenceOnly = false;
    std::vector<StudyModel> models; //!< empty = studyModels()
    ThreadPool *pool = nullptr;     //!< null = ThreadPool::global()

    /** Resilience knobs; null = the CLI-driven studyHarness(). */
    const StudyHarness *harness = nullptr;

    /**
     * Test hook, invoked at the start of every cell attempt (before
     * any simulation work). A throw from the hook is treated exactly
     * like a cell fault: retried per the harness, then recorded as a
     * failed row.
     */
    std::function<void(const StudyModel &m, bool training, int attempt)>
        faultHook;
};

/**
 * Run every (model, mode) cell of the study under every
 * studyPolicies() policy, in parallel across cells on the pool. Row order and
 * simulation numbers are independent of the worker count and of
 * which cells were restored from the cache.
 *
 * Faulting cells never abort the process: they come back as rows
 * with status == CellStatus::Failed. Only when more than
 * harness.failBudget cells failed does runStudy() exit(1) - after
 * appending every row (including the failures) to the global
 * RunReport, so the partial report survives for inspection.
 */
std::vector<StudyRow> runStudy(const StudyOptions &opt);

/**
 * Run the full five-network study: every model in both training and
 * inference mode under every study policy.
 */
std::vector<StudyRow> runFullStudy(bool training_only = false,
                                   bool inference_only = false);

/**
 * Parse the arguments shared by all bench mains and print the Table 1
 * machine banner. fatal()s on unknown arguments.
 *
 *   --jobs N, -j N     size the global ThreadPool (env: ZCOMP_JOBS)
 *   --quiet, -q        silence inform()/warn() (setQuiet)
 *   --report PATH      write a structured JSON RunReport at exit
 *   --trace PATH       write a Perfetto/Chrome trace at exit
 *   --cache DIR        record completed study cells on disk
 *   --resume           restore cached cells instead of re-simulating
 *   --retries N        retry a faulting cell N times (backoff)
 *   --fail-budget N    tolerate up to N failed cells (default 0)
 *   --fault-spec SPEC  arm deterministic fault injection
 *                      (site:prob[:seed[:max]][,...]; common/fault.hh)
 *   --metrics PATH     append time-series telemetry JSONL (schema
 *                      zcomp-metrics-v1; cycle-domain samples + host
 *                      sweep progress; common/metrics.hh)
 *   --metrics-interval N  cycles between samples (default 100000)
 *   --progress         live one-line sweep status on stderr (TTY
 *                      only, off under --quiet)
 *   --isolate-cells    run every study cell in its own worker
 *                      process (crash isolation; DESIGN.md §4.11)
 *   --workers N        concurrent worker processes (default 2;
 *                      needs --isolate-cells)
 *   --hard-timeout S   per-cell wall-clock hard deadline - a cell
 *                      still running after S seconds is SIGKILLed
 *                      and recorded as a typed failed row (needs
 *                      --isolate-cells)
 *   --heartbeat-timeout S  SIGKILL a worker silent for S seconds
 *                      (default 30; needs --isolate-cells)
 *
 * --report and --trace install the process-wide RunReport/TraceWriter
 * and register atexit flushes, so every bench binary gets them
 * without touching its main(). The resilience flags land in
 * studyHarness(), which runStudy() consults by default. With no
 * flags the run is byte-identical to before.
 */
void parseBenchArgs(int argc, char **argv, const std::string &title);

/**
 * Worker-mode entry point for --isolate-cells. When argv carries the
 * hidden `--worker-cell <spec>` flag this computes exactly that one
 * study cell, speaking the supervisor's JSONL protocol on stdout
 * (hello / heartbeat / result records, schema zcomp-worker-v1),
 * stores the row into the cache dir when given one, and never
 * returns (std::exit). Without the flag it is a no-op.
 *
 * The spec is a JSON object { key, cacheDir, retries, quiet }: key is
 * the cell's studyCellKey() string, from which the worker rebuilds
 * the StudyModel and arms the fault injector (key.faultSpec). A key
 * this build would not compute - unknown model, other schema, machine
 * or policy set - is fatal before any record is written.
 *
 * parseBenchArgs() calls this first, so every bench binary doubles
 * as its own worker; test binaries with a custom main() call it
 * before InitGoogleTest for the same reason.
 */
void maybeRunWorkerCell(int argc, char **argv);

/** Print the Table 1 machine banner. */
void printBanner(const std::string &title);

} // namespace zcomp::bench

#endif // ZCOMP_BENCH_BENCH_COMMON_HH
