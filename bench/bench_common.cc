#include "bench/bench_common.hh"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "common/annotate.hh"
#include "common/error.hh"
#include "common/fault.hh"
#include "common/log.hh"
#include "common/metrics.hh"
#include "common/report.hh"
#include "common/result_cache.hh"
#include "common/sweep_supervisor.hh"
#include "common/trace_writer.hh"

namespace zcomp::bench {

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

} // namespace

const std::vector<StudyPolicy> &
studyPolicies()
{
    // One row per IoPolicy, in enum order (uncompressed, avx512-comp,
    // zcomp), so row indices, report keys and figure output never
    // move. Each name is also a CompressionScheme name; schemes with
    // no timing-model dispatch (limitcc, twotagcc, ebpc, zvc) enter
    // through bench_fig15_cache_comp instead.
    static const std::vector<StudyPolicy> policies = [] {
        std::vector<StudyPolicy> v;
        for (int p = 0; p < numIoPolicies; p++) {
            IoPolicy pol = static_cast<IoPolicy>(p);
            v.push_back({ioPolicyName(pol), pol});
        }
        return v;
    }();
    return policies;
}

const NetworkSimResult &
StudyRow::result(const std::string &policy) const
{
    const std::vector<StudyPolicy> &pols = studyPolicies();
    for (size_t i = 0; i < pols.size(); i++) {
        if (pols[i].name == policy) {
            panic_if(i >= results.size(),
                     "study row for %s carries no '%s' result "
                     "(failed cell?)",
                     model.c_str(), policy.c_str());
            return results[i];
        }
    }
    panic("'%s' is not a study policy", policy.c_str());
}

const std::vector<StudyModel> &
studyModels()
{
    // Batches/images scaled from the paper's 64 (ResNet 128) / 4 so
    // that early-layer feature maps keep their cache-residency
    // regimes on a single host (see EXPERIMENTS.md).
    static const std::vector<StudyModel> models = {
        {ModelId::AlexNet, 16, 2, 0, 1.0},
        {ModelId::GoogLeNet, 4, 1, 0, 1.0},
        {ModelId::InceptionResnetV2, 4, 1, 0, 0.5},
        {ModelId::Resnet32, 64, 4, 0, 1.0},
        {ModelId::Vgg16, 3, 1, 0, 1.0},
    };
    return models;
}

PreparedNet
prepareNet(const StudyModel &m, bool training, uint64_t seed,
           BumpArena *arena)
{
    PreparedNet p;
    ArchConfig cfg;
    p.ctx = std::make_unique<ExecContext>(cfg, arena);

    ModelOptions opt;
    opt.batch = training ? m.trainBatch : m.inferBatch;
    opt.imageSize = m.imageSize;
    opt.widthScale = m.widthScale;
    p.net = buildModel(m.id, p.ctx->vs(), opt);
    p.net->build(training, seed);

    Rng rng(seed + 17);
    p.net->fillSyntheticInput(rng);
    p.net->forward();
    if (training) {
        std::vector<int> labels(
            static_cast<size_t>(opt.batch));
        for (size_t i = 0; i < labels.size(); i++)
            labels[i] = static_cast<int>(rng.below(
                static_cast<uint64_t>(opt.classes)));
        p.net->lossAndBackward(labels);
    }
    return p;
}

namespace {

/**
 * Opens the run's track group and sampler at the first phase, after
 * NetworkSim::run()'s cold reset: the sampler's cycles start at the
 * run's cycle 0, and a run that throws before its first phase leaves
 * no track group. One of the two is open after that (see
 * observeTelemetry()). The destructor drains and detaches the sampler,
 * also on a throw.
 */
class TelemetryObserver final : public PhaseObserver
{
  public:
    TelemetryObserver(ExecContext &ctx, std::string cell,
                      std::string policy)
        : ctx_(ctx), cell_(std::move(cell)), policy_(std::move(policy))
    {
        ctx_.setObserver(this);
    }

    ~TelemetryObserver() override
    {
        if (sampler_) {
            sampler_->finish(ctx_.sys().now());
            ctx_.sys().attachSampler(nullptr);
        }
        ctx_.setObserver(nullptr);
    }

    void
    beforePhase(const TracePhase &phase, uint64_t orig_bytes,
                uint64_t comp_bytes) override
    {
        if (tracePid_ < 0 && !sampler_)
            open();
        if (!sampler_)
            return;
        double ratio = comp_bytes > 0 ? static_cast<double>(orig_bytes) /
                                            static_cast<double>(comp_bytes)
                                      : 1.0;
        sampler_->setLayerContext(phase.name, ratio);
    }

    void
    afterPhase(const TracePhase &phase, const PhaseResult &r) override
    {
        TraceWriter *tw = TraceWriter::global();
        if (!tw || tracePid_ < 0)
            return;
        // One span per active core, in simulated cycles; the gap to
        // the next phase's start is that core's barrier wait.
        for (size_t c = 0; c < r.coreEndTimes.size(); c++) {
            if (c >= phase.perCore.size() || phase.perCore[c].empty())
                continue;
            Json args = Json::object();
            args["ops"] = phase.perCore[c].size();
            tw->span(tracePid_, static_cast<int>(c), r.startTime,
                     r.coreEndTimes[c] - r.startTime, phase.name,
                     "sim", args);
        }
    }

  private:
    void
    open()
    {
        const int cores = ctx_.config().numCores;
        // Each (cell, policy) run gets its own simulated track group,
        // so the per-core lanes of back-to-back policy runs (which
        // all restart at cycle 0) do not overlap in the trace.
        if (TraceWriter *tw = TraceWriter::global()) {
            tracePid_ = tw->newProcess(cell_ + " [" + policy_ + "]");
            for (int c = 0; c < cores; c++)
                tw->nameThread(tracePid_, c, format("core %d", c));
        }
        MetricsSink *sink = MetricsSink::global();
        if (!sink)
            return;
        auto read = [&sys = ctx_.sys(), cores] {
            const HierSnapshot h = sys.mem().snapshot();
            const Dram &dram = sys.mem().dram();
            SampleCounters c;
            c.dramBytesRead = dram.bytesRead;
            c.dramBytesWritten = dram.bytesWritten;
            c.l3DramBytes = h.l3DramBytes;
            c.l1Hits = h.l1Hits;
            c.l1Misses = h.l1Misses;
            c.l2Hits = h.l2Hits;
            c.l2Misses = h.l2Misses;
            c.l3Hits = h.l3Hits;
            c.l3Misses = h.l3Misses;
            // Each core's count truncated, then summed, as
            // statsJson() reports them.
            for (int i = 0; i < cores; i++)
                c.zcompBusyCycles +=
                    static_cast<uint64_t>(sys.core(i).zcompBusyCycles());
            c.nocHops = h.nocHops;
            return c;
        };
        sampler_ = std::make_unique<MetricsSampler>(
            sink, cell_, policy_, sink->intervalCycles(), cores, read,
            tracePid_);
        sampler_->rebase(ctx_.sys().now());
        ctx_.sys().attachSampler(sampler_.get());
    }

    ExecContext &ctx_;
    std::string cell_;
    std::string policy_;
    int tracePid_ = -1;     //!< -1 without --trace
    std::unique_ptr<MetricsSampler> sampler_;   //!< null without --metrics
};

} // namespace

std::unique_ptr<PhaseObserver>
observeTelemetry(ExecContext &ctx, const std::string &cell,
                 const std::string &policy)
{
    if (!TraceWriter::global() && !MetricsSink::global())
        return nullptr;
    return std::make_unique<TelemetryObserver>(ctx, cell, policy);
}

namespace {

std::string
cellLabel(const StudyModel &m, bool training)
{
    return std::string(modelName(m.id)) + " (" +
           (training ? "training" : "inference") + ")";
}

/** The one way a failed StudyRow is built: in-process faults, worker
 *  deaths, undecodable worker rows and decoded failed rows alike. */
StudyRow
failedRow(std::string model, bool training, std::string error,
          int attempts)
{
    StudyRow row;
    row.model = std::move(model);
    row.training = training;
    row.status = CellStatus::Failed;
    row.error = std::move(error);
    row.attempts = attempts;
    return row;
}

/**
 * One (model, mode) study cell: build + functionally execute the
 * network (the preparation tensors are then shared read-only by the
 * policy runs), and time all three policies back to back. Each cell
 * owns its ExecContext and MemoryHierarchy, so cells are mutually
 * independent; the policies within a cell stay sequential because
 * they share the cell's simulated address space.
 */
StudyRow
runStudyCell(const StudyModel &m, bool training, const StudyOptions &opt,
             int attempt, BumpArena &arena, bool want_stats)
{
    const char *mode = training ? "training" : "inference";
    inform("preparing %s (%s)...", modelName(m.id), mode);
    TraceWriter *tw = TraceWriter::global();
    std::string cell = cellLabel(m, training);

    if (opt.faultHook)
        opt.faultHook(m, training, attempt);

    // Span timestamps are sampled outside the timed windows: nowUs()
    // before Clock::now() on entry, and after msSince() on exit, so
    // --trace never perturbs the prep/sim wall-clock numbers.
    double tus0 = tw ? tw->nowUs() : 0;
    Clock::time_point t0 = Clock::now();
    PreparedNet p = prepareNet(m, training, /*seed=*/1, &arena);
    StudyRow row;
    row.model = modelName(m.id);
    row.training = training;
    row.prepMillis = msSince(t0);
    row.attempts = attempt;
    if (tw)
        tw->hostSpan("prep " + cell, tus0, tw->nowUs());

    const std::vector<StudyPolicy> &pols = studyPolicies();
    row.results.resize(pols.size());
    row.simMillis.assign(pols.size(), 0.0);
    NetworkSim sim(*p.ctx, *p.net);
    for (size_t pi = 0; pi < pols.size(); pi++) {
        auto telemetry = observeTelemetry(*p.ctx, cell, pols[pi].name);
        double tus1 = tw ? tw->nowUs() : 0;
        Clock::time_point t1 = Clock::now();
        row.results[pi] = sim.run({pols[pi].policy});
        row.simMillis[pi] = msSince(t1);
        if (tw) {
            tw->hostSpan(std::string("sim ") + pols[pi].name + " " +
                             cell,
                         tus1, tw->nowUs());
        }
    }

    // Snapshot the cell's full stats tree only when a report wants
    // it. Each policy run resets caches and counters, so the
    // tree reflects the final (Zcomp) run; the per-policy numbers
    // live in results[] either way. The flag is explicit (not
    // RunReport::global()) because an isolated worker has no report
    // installed but must still produce whatever row shape the
    // parent's cache key promises.
    if (want_stats)
        row.stats = p.ctx->sys().statsJson();
    std::string sim_ms;
    for (size_t pi = 0; pi < row.simMillis.size(); pi++) {
        sim_ms += pi ? "/" : "";
        sim_ms += format("%.0f", row.simMillis[pi]);
    }
    inform("%s (%s) row done: prep %.0f ms, sim %s ms",
           modelName(m.id), mode, row.prepMillis, sim_ms.c_str());
    return row;
}

/**
 * Fault-isolated wrapper around runStudyCell(): a throwing attempt is
 * retried up to harness.retries times with doubling backoff, and
 * exhausted attempts come back as a CellStatus::Failed row instead of
 * propagating out of the pool worker.
 */
StudyRow
runStudyCellGuarded(const StudyModel &m, bool training,
                    const StudyOptions &opt, const StudyHarness &h,
                    bool want_stats)
{
    const char *mode = training ? "training" : "inference";
    int max_attempts = 1 + std::max(0, h.retries);
    int attempts_used = max_attempts;
    std::string error = "unknown cell fault";
    // One arena per cell: every attempt's tensors and scratch come
    // from it, and a faulted attempt's memory is reclaimed wholesale
    // by the reset below (chunks and warmed pages are retained).
    BumpArena arena;
    for (int attempt = 1; attempt <= max_attempts; attempt++) {
        if (attempt > 1) {
            arena.reset();
            // Doubling backoff, capped so a long retry chain cannot
            // stall the sweep for minutes.
            int shift = std::min(attempt - 2, 10);
            int wait = std::min(h.backoffMillis << shift, 5000);
            if (wait > 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(wait));
        }
        bool aborted = false;
        try {
            return runStudyCell(m, training, opt, attempt, arena,
                                want_stats);
        } catch (const CellAbort &e) {
            // Deterministic failure: retrying would reproduce it.
            error = format("aborted: %s", e.what());
            aborted = true;
        } catch (const SimError &e) {
            // DecodeError / FaultInjected: recoverable, worth a retry.
            error = format("%s: %s", e.kind(), e.what());
        } catch (const std::exception &e) {
            error = e.what();
        } catch (...) { // zcomp-lint: allow(catch-swallow)
            // Last resort so one cell can never kill the sweep; the
            // warn() below reports it like every other cell fault.
            error = "non-standard exception";
        }
        warn("%s (%s) attempt %d/%d failed: %s", modelName(m.id),
             mode, attempt, max_attempts, error.c_str());
        if (aborted) {
            attempts_used = attempt;
            break;
        }
    }
    return failedRow(modelName(m.id), training, error, attempts_used);
}

} // namespace

std::string
studyCellKey(const StudyModel &m, bool training, bool want_stats)
{
    Json key = Json::object();
    key["schema"] = studyCellSchemaVersion;
    // Rows simulated under fault injection must never stand in for
    // fault-free ones (or for runs with a different spec).
    key["faultSpec"] = FaultInjector::global().spec();
    key["machine"] = machineToJson(ArchConfig{});
    // The policy set is part of the row layout: a cached row can only
    // stand in for a fresh one when both sweep the same schemes.
    Json policies = Json::array();
    for (const StudyPolicy &sp : studyPolicies())
        policies.push(sp.name);
    key["policies"] = std::move(policies);
    Json &cell = key["cell"];
    cell = Json::object();
    cell["model"] = modelName(m.id);
    cell["trainBatch"] = m.trainBatch;
    cell["inferBatch"] = m.inferBatch;
    cell["imageSize"] = m.imageSize;
    cell["widthScale"] = m.widthScale;
    cell["training"] = training;
    cell["stats"] = want_stats;
    return key.dump();
}

Json
studyRowToJson(const StudyRow &row)
{
    Json j = Json::object();
    j["model"] = row.model;
    j["mode"] = row.training ? "training" : "inference";
    if (row.status == CellStatus::Failed) {
        // Failed rows use a separate compact schema so successful
        // rows keep their exact historical byte layout (the cache
        // byte-identity guarantee rests on that).
        j["failed"] = true;
        j["error"] = row.error;
        j["attempts"] = row.attempts;
        return j;
    }
    j["prepMillis"] = row.prepMillis;
    // Only rows that actually consumed retries carry the field, so
    // fault-free rows keep their exact historical byte layout.
    if (row.attempts > 1)
        j["attempts"] = row.attempts;

    const std::vector<StudyPolicy> &policies = studyPolicies();
    Json &pols = j["policies"];
    pols = Json::object();
    for (size_t pi = 0; pi < policies.size(); pi++) {
        const NetworkSimResult &res = row.results.at(pi);
        Json p = Json::object();
        p["simMillis"] = row.simMillis.at(pi);
        p["total"] = runStatsToJson(res.total);

        Json layers = Json::array();
        for (const LayerPassStats &lp : res.layers) {
            Json l = Json::object();
            l["name"] = lp.name;
            l["backward"] = lp.backward;
            l["stats"] = runStatsToJson(lp.stats);
            layers.push(std::move(l));
        }
        p["layers"] = std::move(layers);
        pols[policies[pi].name] = std::move(p);
    }
    if (!row.stats.isNull())
        j["stats"] = row.stats;
    return j;
}

namespace {

/** obj[key]; throws std::runtime_error when the field is missing or
 *  fails the type check @p is. */
const Json &
field(const Json &obj, const char *key, bool (Json::*is)() const)
{
    const Json *p = obj.find(key);
    if (!p || !(p->*is)())
        throw std::runtime_error(
            format("field '%s' missing or mistyped", key));
    return *p;
}

} // namespace

StudyRow
studyRowFromJson(const Json &j)
{
    std::string model = field(j, "model", &Json::isString).asString();
    const std::string &mode = field(j, "mode", &Json::isString).asString();
    if (mode != "training" && mode != "inference")
        throw std::runtime_error("study row JSON: bad mode");
    bool training = mode == "training";
    if (const Json *failed = j.find("failed");
        failed && failed->isBool() && failed->asBool())
        return failedRow(
            model, training,
            field(j, "error", &Json::isString).asString(),
            static_cast<int>(
                field(j, "attempts", &Json::isNumber).asInt()));

    StudyRow row;
    row.model = std::move(model);
    row.training = training;
    row.prepMillis = field(j, "prepMillis", &Json::isNumber).asDouble();
    if (j.find("attempts"))
        row.attempts = static_cast<int>(
            field(j, "attempts", &Json::isNumber).asInt());

    // Policy names are validated here, at parse time, against
    // studyPolicies(): every study policy must be present, and no
    // unknown policy entry may ride along (an unrecognized name would
    // otherwise deserialize into a row whose layout no caller
    // expects).
    const std::vector<StudyPolicy> &policies = studyPolicies();
    const Json &pols = field(j, "policies", &Json::isObject);
    if (pols.size() != policies.size())
        throw std::runtime_error(
            "study row JSON: policies do not match the study "
            "policies");
    row.results.resize(policies.size());
    row.simMillis.assign(policies.size(), 0.0);
    for (size_t pi = 0; pi < policies.size(); pi++) {
        const Json &p =
            field(pols, policies[pi].name.c_str(), &Json::isObject);
        row.simMillis[pi] =
            field(p, "simMillis", &Json::isNumber).asDouble();
        row.results[pi].total =
            runStatsFromJson(field(p, "total", &Json::isObject));

        const Json &layers = field(p, "layers", &Json::isArray);
        row.results[pi].layers.reserve(layers.size());
        for (size_t i = 0; i < layers.size(); i++) {
            const Json &l = layers.at(i);
            LayerPassStats lp;
            lp.name = field(l, "name", &Json::isString).asString();
            lp.backward = field(l, "backward", &Json::isBool).asBool();
            lp.stats = runStatsFromJson(field(l, "stats", &Json::isObject));
            row.results[pi].layers.push_back(std::move(lp));
        }
    }
    if (const Json *stats = j.find("stats"))
        row.stats = *stats;
    return row;
}

StudyHarness &
studyHarness()
{
    static StudyHarness h;
    return h;
}

namespace {

/** One (model, mode) cell of a sweep. */
struct CellRef
{
    StudyModel m;
    bool training;
};

/**
 * Simulate one cell (retries included) and store a successful row in
 * the result cache. Both executors run every cell through here: the
 * pool task in-process, and runWorkerCell() in a worker process. A
 * worker stores its own row because the cache is the data plane
 * between workers and any later --resume: a supervisor that dies
 * after the store loses coordination, not results.
 */
StudyRow
simulateAndStore(const StudyModel &m, bool training,
                 const StudyOptions &opt, const StudyHarness &h,
                 bool want_stats, ResultCache *cache)
{
    StudyRow row = runStudyCellGuarded(m, training, opt, h, want_stats);
    if (cache && row.status != CellStatus::Failed)
        cache->store(studyCellKey(m, training, want_stats),
                     studyRowToJson(row));
    return row;
}

/**
 * The --isolate-cells executor: run the given cells in worker
 * processes under the SweepSupervisor, so a cell that SIGSEGVs,
 * deadlocks or spins costs exactly itself. Each worker is this
 * binary re-invoked with `--worker-cell <spec>`, where the spec is
 * the cell's cache key plus the three harness values a worker needs
 * that the key does not hold (cache dir, retries, quiet). Rows come
 * back in studyRowToJson() form and round-trip exactly; @p settle
 * receives each one as its cell finishes.
 */
void
runCellsInWorkers(const std::vector<CellRef> &cells,
                  const std::vector<size_t> &todo, const StudyHarness &h,
                  bool want_stats,
                  const std::function<void(size_t, StudyRow)> &settle)
{
    std::vector<SweepCell> specs;
    for (size_t i : todo) {
        Json spec = Json::object();
        spec["key"] = studyCellKey(cells[i].m, cells[i].training,
                                   want_stats);
        spec["cacheDir"] = h.cacheDir;
        spec["retries"] = h.retries;
        spec["quiet"] = quiet();
        specs.push_back(
            {spec.dump(), cellLabel(cells[i].m, cells[i].training)});
    }
    SweepSupervisorOptions sopt;
    sopt.workerArgv = {"/proc/self/exe"};
    sopt.workers = std::max(1, h.workers);
    sopt.hardTimeoutSec = h.hardTimeoutSec;
    sopt.heartbeatTimeoutSec = h.heartbeatTimeoutSec;
    sopt.backoffMillis = h.backoffMillis;
    sopt.onCellDone = [&](size_t j, const SweepCellResult &r) {
        const CellRef &c = cells[todo[j]];
        // A supervisor-domain failure (signal name, hard timeout or
        // heartbeat loss) types the row unless the worker reported
        // one of its own.
        StudyRow row =
            failedRow(modelName(c.m.id), c.training, r.error, 1);
        if (r.ok) {
            try {
                row = studyRowFromJson(r.row);
            } catch (const std::exception &e) {
                row.error =
                    format("worker row does not decode: %s", e.what());
            }
        }
        settle(todo[j], std::move(row));
    };
    SweepSupervisor(sopt).run(specs);
}

} // namespace

std::vector<StudyRow>
runStudy(const StudyOptions &opt)
{
    const std::vector<StudyModel> &models =
        opt.models.empty() ? studyModels() : opt.models;
    ThreadPool &pool = opt.pool ? *opt.pool : ThreadPool::global();
    const StudyHarness &h = opt.harness ? *opt.harness : studyHarness();

    // The stats snapshot is part of the row, so whether one is
    // collected is part of the cache key: a cached row can only stand
    // in for a fresh one when both would carry the same fields.
    bool want_stats = RunReport::global() != nullptr;
    std::unique_ptr<ResultCache> cache;
    if (!h.cacheDir.empty())
        cache = std::make_unique<ResultCache>(h.cacheDir);

    std::vector<CellRef> cells;
    for (const StudyModel &m : models) {
        for (int mode = 0; mode < 2; mode++) {
            bool training = mode == 0;
            if (training && opt.inferenceOnly)
                continue;
            if (!training && opt.trainingOnly)
                continue;
            cells.push_back({m, training});
        }
    }

    // Host-domain sweep telemetry: progress records into the metrics
    // JSONL and/or the live status line. Constructed only when either
    // consumer exists, so flag-free runs carry zero extra work.
    bool live = h.progress && !quiet() && isatty(STDERR_FILENO);
    std::unique_ptr<SweepProgress> progress;
    if (live || MetricsSink::global())
        progress = std::make_unique<SweepProgress>(cells.size(), live);

    // Every finished cell - restored, simulated or failed, from either
    // executor - lands here. Rows keep their cell's submission slot,
    // so row order (and hence the figure output) never depends on
    // scheduling. Executors call this from a pool thread or the
    // supervisor loop, always for distinct cells.
    std::vector<StudyRow> rows(cells.size());
    auto settle = [&rows, &progress](size_t i, StudyRow row) {
        if (progress) {
            bool cached = row.status == CellStatus::Cached;
            progress->cellDone(cached, row.status == CellStatus::Failed,
                               cached ? 1 : row.attempts);
        }
        rows[i] = std::move(row);
    };

    // Resume pre-pass: cached cells never reach an executor. An entry
    // that does not decode, or decodes to a failed row, is a miss.
    std::vector<size_t> todo;
    for (size_t i = 0; i < cells.size(); i++) {
        const CellRef &c = cells[i];
        std::optional<Json> v;
        if (cache && h.resume)
            v = cache->lookup(studyCellKey(c.m, c.training, want_stats));
        if (v) {
            try {
                StudyRow row = studyRowFromJson(*v);
                if (row.status != CellStatus::Failed) {
                    row.status = CellStatus::Cached;
                    inform("%s restored from cache",
                           cellLabel(c.m, c.training).c_str());
                    settle(i, std::move(row));
                    continue;
                }
            } catch (const std::exception &e) {
                warn("result cache: entry for %s does not decode (%s); "
                     "re-simulating",
                     cellLabel(c.m, c.training).c_str(), e.what());
            }
        }
        todo.push_back(i);
    }

    // The one place the executors differ: a worker process per cell
    // (crash isolation, --isolate-cells) or a pool slot. With a 1-job
    // pool, submit() runs inline and this is the sequential loop.
    if (h.isolateCells) {
        runCellsInWorkers(cells, todo, h, want_stats, settle);
    } else {
        std::vector<std::future<void>> futs;
        futs.reserve(todo.size());
        for (size_t i : todo) {
            futs.push_back(pool.submit([&, i] {
                settle(i, simulateAndStore(cells[i].m, cells[i].training,
                                           opt, h, want_stats,
                                           cache.get()));
            }));
        }
        for (std::future<void> &f : futs)
            f.get();
    }
    // Clear the status line before the tables print.
    progress.reset();

    uint64_t cached = 0, failed = 0;
    for (const StudyRow &row : rows) {
        cached += row.status == CellStatus::Cached;
        failed += row.status == CellStatus::Failed;
    }

    // Rows land in the report here, after the ordered collection
    // above, so the report's row order matches the printed tables no
    // matter how the pool scheduled the cells. The harness counters
    // go under "host" (host-side bookkeeping, not simulation output),
    // accumulating across multiple runStudy() calls in one process.
    if (RunReport *rep = RunReport::global()) {
        for (const StudyRow &row : rows)
            rep->addRow(studyRowToJson(row));
        rep->withRoot([&](Json &doc) {
            Json &host = doc["host"];
            auto bump = [&host](const char *key, uint64_t v) {
                const Json *prev = host.find(key);
                host[key] = (prev ? prev->asUint() : 0) + v;
            };
            bump("cellsTotal", rows.size());
            bump("cellsSimulated", rows.size() - cached - failed);
            bump("cellsCached", cached);
            bump("cellsFailed", failed);
            // The fault section only appears when something
            // fault-related happened, keeping fault-free reports
            // byte-identical.
            if (FaultInjector::global().enabled() ||
                decodeErrorCount() > 0)
                host["faults"] = faultStatsJson();
        });
    }

    // Enforce the failure budget only after every row (including the
    // failures) is in the report: fatal() exits through the atexit
    // handlers, so the partial report still flushes for inspection.
    fatal_if(failed > static_cast<uint64_t>(std::max(0, h.failBudget)),
             "%llu study cell(s) failed (budget %d); see the failed "
             "rows above",
             static_cast<unsigned long long>(failed), h.failBudget);
    return rows;
}

std::vector<StudyRow>
runFullStudy(bool training_only, bool inference_only)
{
    StudyOptions opt;
    opt.trainingOnly = training_only;
    opt.inferenceOnly = inference_only;
    return runStudy(opt);
}

namespace {

/**
 * Match "--name V" / "--name=V"; on a hit *value points at V and i is
 * advanced past any consumed extra argv slot.
 */
bool
valueArg(int argc, char **argv, int &i, const char *name,
         const char *shortName, const char **value)
{
    const char *arg = argv[i];
    if (std::strcmp(arg, name) == 0 ||
        (shortName && std::strcmp(arg, shortName) == 0)) {
        fatal_if(i + 1 >= argc, "%s needs a value", arg);
        *value = argv[++i];
        return true;
    }
    size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
        *value = arg + n + 1;
        return true;
    }
    return false;
}

long
intValue(const char *flag, const char *value, long lo, long hi)
{
    char *rest = nullptr;
    long v = std::strtol(value, &rest, 10);
    fatal_if(*value == '\0' || (rest && *rest != '\0') || v < lo ||
                 v > hi,
             "bad %s value '%s' (want an integer in [%ld, %ld])",
             flag, value, lo, hi);
    return v;
}

double
secondsValue(const char *flag, const char *value)
{
    char *rest = nullptr;
    double s = std::strtod(value, &rest);
    fatal_if(*value == '\0' || (rest && *rest != '\0') || !(s >= 0),
             "bad %s value '%s' (want seconds >= 0)", flag, value);
    return s;
}

// ----------------------------------------------------------------
// Worker mode (--worker-cell): one isolated study cell per process,
// speaking the supervisor's JSONL protocol on stdout.
// ----------------------------------------------------------------

/** Serializes hello/heartbeat/result records: the heartbeat thread
 *  and the cell thread share stdout, and the supervisor parses it
 *  line-wise, so every record must land whole. */
Mutex workerOutMu;

void
emitWorkerRecord(Json rec) ZCOMP_EXCLUDES(workerOutMu)
{
    rec["schema"] = "zcomp-worker-v1";
    std::string line = rec.dump();
    line += '\n';
    LockGuard lk(workerOutMu);
    std::fwrite(line.data(), 1, line.size(), stdout);
    std::fflush(stdout);
}

/**
 * Background sign-of-life emitter: one heartbeat record every ~500ms
 * until destruction. The supervisor SIGKILLs workers whose status
 * channel goes silent past --heartbeat-timeout: a worker process that
 * stalls as a whole. A hung cell is not caught (this thread beats on
 * while the cell thread hangs); only --hard-timeout reaps it. The stop
 * flag is polled every 50ms instead of a timed condition wait to keep
 * the thread trivially sanitizer-clean.
 */
class WorkerHeartbeat
{
  public:
    explicit WorkerHeartbeat(std::string cell)
    {
        th_ = std::thread([this, cell = std::move(cell)] {
            int ticks = 0;
            while (!stop_.load(std::memory_order_relaxed)) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
                if (++ticks < 10)
                    continue;
                ticks = 0;
                Json r = Json::object();
                r["kind"] = "heartbeat";
                r["cell"] = cell;
                emitWorkerRecord(std::move(r));
            }
        });
    }

    ~WorkerHeartbeat()
    {
        stop_.store(true, std::memory_order_relaxed);
        th_.join();
    }

  private:
    std::atomic<bool> stop_{false};
    std::thread th_;
};

/**
 * Test-only crash hook: ZCOMP_TEST_CRASH_CELL="<model>:<mode>:<how>"
 * makes the worker running that cell die mid-cell, where <how> is
 *   sigsegv - raise a real SIGSEGV (default disposition restored
 *             first, so sanitizer handlers cannot soften it)
 *   sigkill - raise SIGKILL
 *   spin    - hang forever while the heartbeat thread keeps beating
 *             (only the hard wall-clock deadline can reap this)
 *   exit    - exit 42 without reporting a result
 * The hook only ever fires in worker processes, after the hello
 * record, so the supervisor observes a mid-cell death.
 */
void
maybeCrashForTest(const StudyModel &m, bool training)
{
    const char *spec = std::getenv("ZCOMP_TEST_CRASH_CELL");
    if (!spec)
        return;
    std::string s(spec);
    size_t colon = s.rfind(':');
    if (colon == std::string::npos)
        return;
    std::string target = s.substr(0, colon);
    std::string how = s.substr(colon + 1);
    std::string cell = std::string(modelName(m.id)) + ":" +
                       (training ? "training" : "inference");
    if (target != cell)
        return;
    warn("ZCOMP_TEST_CRASH_CELL: crashing cell %s (%s)",
         cell.c_str(), how.c_str());
    if (how == "sigsegv") {
        std::signal(SIGSEGV, SIG_DFL);
        std::raise(SIGSEGV);
    } else if (how == "sigkill") {
        std::raise(SIGKILL);
    } else if (how == "spin") {
        for (;;)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
    } else if (how == "exit") {
        std::exit(42);
    }
}

/** Parse a JSON document, throwing on a syntax error. */
Json
parseJson(const std::string &text)
{
    std::string err;
    Json j = Json::parse(text, &err);
    if (!err.empty())
        throw std::runtime_error(err);
    return j;
}

/**
 * Compute the one cell a --worker-cell spec names (see
 * runCellsInWorkers()). The cell is rebuilt from the key, the fault
 * injector is armed from it, and the key is then recomputed: a key
 * this build would not produce (another schema, machine or policy
 * set, or an unknown model) is fatal before any record is emitted.
 */
int
runWorkerCell(const std::string &spec_text)
{
    std::string key;
    StudyHarness h;
    StudyModel m{};
    bool training = false, want_stats = false;
    try {
        Json spec = parseJson(spec_text);
        key = field(spec, "key", &Json::isString).asString();
        h.cacheDir = field(spec, "cacheDir", &Json::isString).asString();
        h.retries = static_cast<int>(
            field(spec, "retries", &Json::isNumber).asInt());
        setQuiet(field(spec, "quiet", &Json::isBool).asBool());

        Json k = parseJson(key);
        const Json &cell = field(k, "cell", &Json::isObject);
        const std::string &model =
            field(cell, "model", &Json::isString).asString();
        int id = 0;
        while (id < numModels &&
               model != modelName(static_cast<ModelId>(id)))
            id++;
        if (id == numModels)
            throw std::runtime_error("unknown model '" + model + "'");
        m.id = static_cast<ModelId>(id);
        auto num = [&cell](const char *name) {
            return field(cell, name, &Json::isNumber).asDouble();
        };
        m.trainBatch = static_cast<int>(num("trainBatch"));
        m.inferBatch = static_cast<int>(num("inferBatch"));
        m.imageSize = static_cast<int>(num("imageSize"));
        m.widthScale = num("widthScale");
        training = field(cell, "training", &Json::isBool).asBool();
        want_stats = field(cell, "stats", &Json::isBool).asBool();
        FaultInjector::global().configure(
            field(k, "faultSpec", &Json::isString).asString());
    } catch (const std::exception &e) {
        fatal("bad --worker-cell spec: %s", e.what());
    }
    std::string cell = cellLabel(m, training);
    fatal_if(studyCellKey(m, training, want_stats) != key,
             "--worker-cell key for %s is not this build's key "
             "(schema, machine or policy set differ)",
             cell.c_str());

    {
        Json r = Json::object();
        r["kind"] = "hello";
        r["cell"] = cell;
        r["pid"] = static_cast<int64_t>(getpid());
        emitWorkerRecord(std::move(r));
    }
    WorkerHeartbeat heartbeat(cell);
    maybeCrashForTest(m, training);

    std::unique_ptr<ResultCache> cache;
    if (!h.cacheDir.empty())
        cache = std::make_unique<ResultCache>(h.cacheDir);
    StudyRow row = simulateAndStore(m, training, StudyOptions(), h,
                                    want_stats, cache.get());

    Json r = Json::object();
    r["kind"] = "result";
    r["cell"] = cell;
    r["row"] = studyRowToJson(row);
    emitWorkerRecord(std::move(r));
    return 0;
}

} // namespace

void
maybeRunWorkerCell(int argc, char **argv)
{
    // Workers read nothing but their spec: no banner, no report/
    // trace/metrics sinks, no atexit machinery.
    const char *spec = nullptr;
    for (int i = 1; i < argc && !spec; i++)
        valueArg(argc, argv, i, "--worker-cell", nullptr, &spec);
    if (spec)
        std::exit(runWorkerCell(spec));
}

void
parseBenchArgs(int argc, char **argv, const std::string &title)
{
    // Worker mode first: a --worker-cell invocation computes its one
    // cell and exits before any banner, report or sink is installed.
    maybeRunWorkerCell(argc, argv);

    std::string report_path, trace_path, metrics_path;
    double metrics_interval = MetricsSink::defaultIntervalCycles;
    bool metrics_interval_set = false;
    bool workers_set = false, hard_timeout_set = false;
    bool heartbeat_set = false;
    StudyHarness &h = studyHarness();
    for (int i = 1; i < argc; i++) {
        const char *arg = argv[i];
        const char *value = nullptr;
        if (std::strcmp(arg, "--help") == 0 ||
            std::strcmp(arg, "-h") == 0) {
            std::printf(
                "usage: %s [--jobs N] [--quiet] [--report PATH] "
                "[--trace PATH]\n"
                "       [--metrics PATH] [--metrics-interval N] "
                "[--progress]\n"
                "       [--cache DIR] [--resume] [--retries N] "
                "[--fail-budget N]\n"
                "       [--isolate-cells] [--workers N] "
                "[--hard-timeout S]\n"
                "       [--heartbeat-timeout S]\n\n"
                "  --jobs N, -j N    run N study cells in parallel "
                "(default: ZCOMP_JOBS\n"
                "                    or the hardware thread count; "
                "1 = sequential)\n"
                "  --quiet, -q       suppress informational messages "
                "(tables still print)\n"
                "  --report PATH     write a structured JSON run "
                "report (schema\n"
                "                    zcomp-run-report-v1; see "
                "EXPERIMENTS.md)\n"
                "  --trace PATH      write a Chrome/Perfetto trace "
                "of the run\n"
                "                    (open at ui.perfetto.dev)\n"
                "  --metrics PATH    append time-series telemetry "
                "JSONL (schema\n"
                "                    zcomp-metrics-v1: cycle-domain "
                "counter samples\n"
                "                    + host sweep progress; see "
                "EXPERIMENTS.md)\n"
                "  --metrics-interval N  simulated cycles between "
                "samples\n"
                "                    (default 100000; needs "
                "--metrics; not with\n"
                "                    --isolate-cells)\n"
                "  --progress        live one-line sweep status on "
                "stderr (TTY\n"
                "                    only; off under --quiet)\n"
                "  --cache DIR       record every completed study "
                "cell in DIR\n"
                "  --resume          restore cached cells instead of "
                "re-simulating\n"
                "                    (needs --cache; rows are "
                "bitwise-identical)\n"
                "  --retries N       retry a faulting cell N times "
                "with backoff\n"
                "  --fail-budget N   tolerate up to N failed cells "
                "before exiting\n"
                "                    non-zero (default 0)\n"
                "  --fault-spec SPEC arm deterministic fault "
                "injection, e.g.\n"
                "                    kernel.transient:1:7:2 "
                "(site:prob[:seed[:max]],\n"
                "                    comma-separated; see "
                "EXPERIMENTS.md)\n"
                "  --isolate-cells   run each study cell in its own "
                "worker process\n"
                "                    (a crashing or hung cell costs "
                "exactly itself;\n"
                "                    see DESIGN.md section 4.11)\n"
                "  --workers N       concurrent worker processes, "
                "one per cell;\n"
                "                    a cell never runs twice "
                "(default 2; needs\n"
                "                    --isolate-cells)\n"
                "  --hard-timeout S  SIGKILL a cell still running "
                "after S seconds\n"
                "                    and record a typed failed row "
                "(needs\n"
                "                    --isolate-cells)\n"
                "  --heartbeat-timeout S  SIGKILL a worker whose "
                "status channel\n"
                "                    is silent for S seconds "
                "(default 30; needs\n"
                "                    --isolate-cells)\n",
                argv[0]);
            std::exit(0);
        } else if (std::strcmp(arg, "--quiet") == 0 ||
                   std::strcmp(arg, "-q") == 0) {
            setQuiet(true);
        } else if (std::strcmp(arg, "--resume") == 0) {
            h.resume = true;
        } else if (std::strcmp(arg, "--progress") == 0) {
            h.progress = true;
        } else if (valueArg(argc, argv, i, "--metrics", nullptr,
                            &value)) {
            metrics_path = value;
        } else if (valueArg(argc, argv, i, "--metrics-interval",
                            nullptr, &value)) {
            metrics_interval = static_cast<double>(intValue(
                "--metrics-interval", value, 1, 1000000000000L));
            metrics_interval_set = true;
        } else if (valueArg(argc, argv, i, "--jobs", "-j", &value)) {
            ThreadPool::setGlobalJobs(static_cast<int>(
                intValue("--jobs", value, 1, 1024)));
        } else if (valueArg(argc, argv, i, "--report", nullptr,
                            &value)) {
            report_path = value;
        } else if (valueArg(argc, argv, i, "--trace", nullptr,
                            &value)) {
            trace_path = value;
        } else if (valueArg(argc, argv, i, "--cache", nullptr,
                            &value)) {
            h.cacheDir = value;
        } else if (valueArg(argc, argv, i, "--retries", nullptr,
                            &value)) {
            h.retries = static_cast<int>(
                intValue("--retries", value, 0, 100));
        } else if (valueArg(argc, argv, i, "--fail-budget", nullptr,
                            &value)) {
            h.failBudget = static_cast<int>(
                intValue("--fail-budget", value, 0, 1000000));
        } else if (valueArg(argc, argv, i, "--fault-spec", nullptr,
                            &value)) {
            FaultInjector::global().configure(value);
        } else if (std::strcmp(arg, "--isolate-cells") == 0) {
            h.isolateCells = true;
        } else if (valueArg(argc, argv, i, "--workers", nullptr,
                            &value)) {
            h.workers = static_cast<int>(
                intValue("--workers", value, 1, 256));
            workers_set = true;
        } else if (valueArg(argc, argv, i, "--hard-timeout", nullptr,
                            &value)) {
            h.hardTimeoutSec = secondsValue("--hard-timeout", value);
            hard_timeout_set = true;
        } else if (valueArg(argc, argv, i, "--heartbeat-timeout",
                            nullptr, &value)) {
            h.heartbeatTimeoutSec =
                secondsValue("--heartbeat-timeout", value);
            heartbeat_set = true;
        } else {
            fatal("unknown argument '%s' (try --help)", arg);
        }
    }
    fatal_if(h.resume && h.cacheDir.empty(),
             "--resume needs --cache DIR (nothing to resume from)");
    fatal_if(metrics_interval_set && metrics_path.empty(),
             "--metrics-interval needs --metrics PATH (nothing is "
             "sampled without a sink)");
    fatal_if(metrics_interval_set && h.isolateCells,
             "--metrics-interval cannot be used with --isolate-cells "
             "(isolated workers record no cycle-domain samples)");
    fatal_if(workers_set && !h.isolateCells,
             "--workers needs --isolate-cells (in-process "
             "parallelism is --jobs)");
    fatal_if((hard_timeout_set || heartbeat_set) && !h.isolateCells,
             "--hard-timeout/--heartbeat-timeout need "
             "--isolate-cells");

    // Install the process-wide report/trace sinks before any work
    // runs, and flush them at exit so every bench main gets both
    // without being edited. The atexit handlers are idempotent.
    if (!report_path.empty()) {
        std::vector<std::string> args(argv, argv + argc);
        RunReport::enableGlobal(report_path, title, std::move(args));
        RunReport::global()->setMachine(ArchConfig{});
        std::atexit(RunReport::finishGlobal);
        // Registered after finishGlobal, so (LIFO) it runs first and
        // the flushed report carries the final fault/decode counters
        // even when the process exits through fatal().
        std::atexit(+[] {
            RunReport *rep = RunReport::global();
            if (!rep)
                return;
            if (!FaultInjector::global().enabled() &&
                decodeErrorCount() == 0)
                return;
            rep->withRoot([](Json &doc) {
                doc["host"]["faults"] = faultStatsJson();
            });
        });
    }
    if (!trace_path.empty()) {
        TraceWriter::enableGlobal(trace_path);
        std::atexit(TraceWriter::finishGlobal);
    }
    if (!metrics_path.empty()) {
        MetricsSink::enableGlobal(metrics_path, metrics_interval);
        std::atexit(MetricsSink::finishGlobal);
    }
    printBanner(title);
}

void
printBanner(const std::string &title)
{
    ArchConfig cfg;
    std::printf("=============================================="
                "==============================\n");
    std::printf("%s\n", title.c_str());
    std::printf("machine: %s\n", cfg.summary().c_str());
    std::printf("=============================================="
                "==============================\n");
}

} // namespace zcomp::bench
