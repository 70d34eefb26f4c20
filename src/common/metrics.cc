#include "common/metrics.hh"

#include <atomic>
#include <cmath>
#include <iterator>
#include <limits>

#include "common/log.hh"
#include "common/trace_writer.hh"

namespace zcomp {

// ------------------------------------------------------ MetricsSink

MetricsSink::MetricsSink(std::string path, double interval_cycles)
    : path_(std::move(path)), interval_(interval_cycles),
      t0_(Clock::now())
{
    std::FILE *f = std::fopen(path_.c_str(), "w");
    if (!f)
        warn("cannot write metrics file %s", path_.c_str());
    LockGuard lk(mu_);
    f_ = f;
}

MetricsSink::~MetricsSink()
{
    LockGuard lk(mu_);
    if (f_) {
        std::fclose(f_);
        f_ = nullptr;
    }
}

void
MetricsSink::append(Json record)
{
    record["hostMs"] =
        std::chrono::duration<double, std::milli>(Clock::now() - t0_)
            .count();
    std::string line = record.dump();
    line += '\n';
    LockGuard lk(mu_);
    if (!f_)
        return;
    std::fwrite(line.data(), 1, line.size(), f_);
    // Flushed per record so a live sweep can be tailed
    // (zcomp_metrics.py tail) and a killed run keeps every complete
    // sample.
    std::fflush(f_);
}

namespace {
std::atomic<MetricsSink *> globalSink{nullptr};
} // namespace

MetricsSink *
MetricsSink::global()
{
    return globalSink.load(std::memory_order_acquire);
}

void
MetricsSink::enableGlobal(const std::string &path,
                          double interval_cycles)
{
    MetricsSink *prev =                 // zcomp-lint: allow(raw-new)
        globalSink.exchange(new MetricsSink(path, interval_cycles),
                            std::memory_order_acq_rel);
    delete prev;        // zcomp-lint: allow(raw-new)
}

void
MetricsSink::finishGlobal()
{
    MetricsSink *s =
        globalSink.exchange(nullptr, std::memory_order_acq_rel);
    delete s;           // zcomp-lint: allow(raw-new)
}

// --------------------------------------------------- MetricsSampler

namespace {

/** Every SampleCounters field and its record key, in record order. */
struct CounterKey
{
    const char *key;
    uint64_t SampleCounters::*field;
};

constexpr CounterKey counterKeys[] = {
    {"mem.dram.bytes_read", &SampleCounters::dramBytesRead},
    {"mem.dram.bytes_written", &SampleCounters::dramBytesWritten},
    {"mem.links.l3_dram_bytes", &SampleCounters::l3DramBytes},
    {"mem.l1_*.hits", &SampleCounters::l1Hits},
    {"mem.l1_*.misses", &SampleCounters::l1Misses},
    {"mem.l2_*.hits", &SampleCounters::l2Hits},
    {"mem.l2_*.misses", &SampleCounters::l2Misses},
    {"mem.l3.hits", &SampleCounters::l3Hits},
    {"mem.l3.misses", &SampleCounters::l3Misses},
    {"core*.zcomp_busy_cycles", &SampleCounters::zcompBusyCycles},
    {"mem.noc.hops", &SampleCounters::nocHops},
};
static_assert(sizeof(SampleCounters) ==
                  std::size(counterKeys) * sizeof(uint64_t),
              "every SampleCounters field needs a CounterKey entry");

} // namespace

MetricsSampler::MetricsSampler(
    MetricsSink *sink, std::string cell, std::string policy,
    double interval_cycles, int num_cores,
    std::function<SampleCounters()> provider, int trace_pid)
    : sink_(sink), cell_(std::move(cell)), policy_(std::move(policy)),
      interval_(interval_cycles), numCores_(num_cores),
      provider_(std::move(provider)), tracePid_(trace_pid)
{
    fatal_if(!(interval_ > 0),
             "metrics interval must be positive (got %g)", interval_);
    nextAt_ = interval_;
}

void
MetricsSampler::rebase(double now_cycle)
{
    last_ = provider_();
    lastCycle_ = now_cycle;
    nextAt_ = (std::floor(now_cycle / interval_) + 1) * interval_;
}

void
MetricsSampler::setLayerContext(const std::string &layer, double ratio)
{
    layer_ = layer;
    layerRatio_ = ratio;
}

void
MetricsSampler::emit(double now_cycle, bool drain)
{
    const double window = now_cycle - lastCycle_;
    const SampleCounters now = provider_();
    SampleCounters d;
    for (const CounterKey &k : counterKeys)
        d.*k.field = now.*k.field - last_.*k.field;

    Json rec = Json::object();
    rec["schema"] = metricsSchemaVersion;
    rec["kind"] = "sample";
    rec["cell"] = cell_;
    rec["policy"] = policy_;
    rec["cycle"] = now_cycle;
    rec["window"] = window;
    if (drain)
        rec["drain"] = true;
    rec["layer"] = layer_;

    Json &counters = rec["counters"];
    counters = Json::object();
    for (const CounterKey &k : counterKeys)
        counters[k.key] = d.*k.field;

    const double inv = window > 0 ? 1.0 / window : 0.0;
    auto rate = [](uint64_t misses, uint64_t hits) {
        double total = static_cast<double>(misses) +
                       static_cast<double>(hits);
        return total > 0 ? static_cast<double>(misses) / total : 0.0;
    };
    auto per_cycle = [inv](uint64_t n) {
        return static_cast<double>(n) * inv;
    };
    Json &derived = rec["derived"];
    derived = Json::object();
    derived["dramReadBytesPerCycle"] = per_cycle(d.dramBytesRead);
    derived["dramWriteBytesPerCycle"] = per_cycle(d.dramBytesWritten);
    derived["l1MissRate"] = rate(d.l1Misses, d.l1Hits);
    derived["l2MissRate"] = rate(d.l2Misses, d.l2Hits);
    derived["l3MissRate"] = rate(d.l3Misses, d.l3Hits);
    derived["zcompBusyFraction"] =
        numCores_ > 0 ? per_cycle(d.zcompBusyCycles) /
                            static_cast<double>(numCores_)
                      : 0.0;
    derived["nocHopsPerCycle"] = per_cycle(d.nocHops);
    derived["layerCompressionRatio"] = layerRatio_;

    // The counter tracks mirror the derived block 1:1, on the same
    // simulated-cycle timebase as the PR 2 per-core spans.
    TraceWriter *tw = TraceWriter::global();
    if (tw && tracePid_ >= 0) {
        for (const auto &[name, value] : derived.members())
            tw->counter(tracePid_, now_cycle, name,
                        value.asDouble());
    }

    if (sink_)
        sink_->append(std::move(rec));

    last_ = now;
    lastCycle_ = now_cycle;
    emitted_++;
}

void
MetricsSampler::sample(double now_cycle)
{
    emit(now_cycle, /*drain=*/false);
    // The smallest interval multiple strictly beyond this sample, so
    // a crossing observed late (the low-water mark jumps in op-sized
    // steps) never re-fires inside the same interval.
    nextAt_ = (std::floor(now_cycle / interval_) + 1) * interval_;
}

void
MetricsSampler::finish(double now_cycle)
{
    if (now_cycle > lastCycle_)
        emit(now_cycle, /*drain=*/true);
    nextAt_ = std::numeric_limits<double>::infinity();
}

// ---------------------------------------------------- SweepProgress

SweepProgress::SweepProgress(uint64_t total_cells, bool live)
    : total_(total_cells), live_(live), t0_(Clock::now())
{
}

SweepProgress::~SweepProgress()
{
    finish();
}

void
SweepProgress::finish()
{
    LockGuard lk(mu_);
    if (live_) {
        clearStatusLine();
        live_ = false;
    }
}

void
SweepProgress::cellDone(bool cached, bool failed, int attempts)
{
    LockGuard lk(mu_);
    done_++;
    cached_ += cached;
    failed_ += failed;
    retried_ += attempts > 1;

    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0_).count();
    const double rate =
        elapsed > 0 ? static_cast<double>(done_) / elapsed : 0.0;
    const uint64_t left = total_ > done_ ? total_ - done_ : 0;
    const double eta =
        rate > 0 ? static_cast<double>(left) / rate : 0.0;

    if (MetricsSink *sink = MetricsSink::global()) {
        Json rec = Json::object();
        rec["schema"] = metricsSchemaVersion;
        rec["kind"] = "progress";
        rec["done"] = done_;
        rec["total"] = total_;
        rec["cached"] = cached_;
        rec["failed"] = failed_;
        rec["retried"] = retried_;
        rec["cellsPerSec"] = rate;
        rec["etaSec"] = eta;
        sink->append(std::move(rec));
    }

    if (live_) {
        setStatusLine(format(
            "sweep %llu/%llu | %llu cached, %llu failed | "
            "%.2f cells/s | eta %.0f s",
            static_cast<unsigned long long>(done_),
            static_cast<unsigned long long>(total_),
            static_cast<unsigned long long>(cached_),
            static_cast<unsigned long long>(failed_), rate, eta));
    }
}

uint64_t
SweepProgress::done() const
{
    LockGuard lk(mu_);
    return done_;
}

} // namespace zcomp
