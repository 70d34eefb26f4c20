#include "sim/exec_context.hh"

#include <iterator>
#include <stdexcept>

#include "common/log.hh"
#include "common/trace_writer.hh"

namespace zcomp {

namespace {

/** Every HierSnapshot counter and its JSON name, in report order. */
struct TrafficField
{
    const char *name;
    uint64_t HierSnapshot::*field;
};

constexpr TrafficField counters[] = {
    {"coreL1Bytes", &HierSnapshot::coreL1Bytes},
    {"l1L2Bytes", &HierSnapshot::l1L2Bytes},
    {"l2L3Bytes", &HierSnapshot::l2L3Bytes},
    {"l3DramBytes", &HierSnapshot::l3DramBytes},
    {"l1Hits", &HierSnapshot::l1Hits},
    {"l1Misses", &HierSnapshot::l1Misses},
    {"l2Hits", &HierSnapshot::l2Hits},
    {"l2Misses", &HierSnapshot::l2Misses},
    {"l3Hits", &HierSnapshot::l3Hits},
    {"l3Misses", &HierSnapshot::l3Misses},
    {"l2PrefIssued", &HierSnapshot::l2PrefIssued},
    {"l2PrefUseful", &HierSnapshot::l2PrefUseful},
    {"l2PrefUnused", &HierSnapshot::l2PrefUnused},
    {"l2DemandMissesBelow", &HierSnapshot::l2DemandMissesBelow},
    {"nocHops", &HierSnapshot::nocHops},
};
static_assert(sizeof(HierSnapshot) == std::size(counters) * sizeof(uint64_t),
              "every HierSnapshot counter needs a TrafficField entry");

HierSnapshot
diff(const HierSnapshot &after, const HierSnapshot &before)
{
    HierSnapshot d;
    for (const TrafficField &c : counters)
        d.*c.field = after.*c.field - before.*c.field;
    return d;
}

CycleBreakdown
diff(const CycleBreakdown &after, const CycleBreakdown &before)
{
    CycleBreakdown d;
    d.compute = after.compute - before.compute;
    d.memory = after.memory - before.memory;
    d.sync = after.sync - before.sync;
    return d;
}

} // namespace

RunStats &
RunStats::operator+=(const RunStats &o)
{
    cycles += o.cycles;
    breakdown += o.breakdown;
    for (const TrafficField &c : counters)
        traffic.*c.field += o.traffic.*c.field;
    return *this;
}

Json
runStatsToJson(const RunStats &s)
{
    Json j = Json::object();
    j["cycles"] = s.cycles;

    Json &bd = j["breakdown"];
    bd = Json::object();
    bd["compute"] = s.breakdown.compute;
    bd["memory"] = s.breakdown.memory;
    bd["sync"] = s.breakdown.sync;

    const HierSnapshot &t = s.traffic;
    Json &tr = j["traffic"];
    tr = Json::object();
    for (const TrafficField &c : counters) {
        tr[c.name] = t.*c.field;
        if (c.field == &HierSnapshot::l3DramBytes) {
            // The derived aggregates follow the last link counter.
            tr["onChipBytes"] = t.onChipBytes();
            tr["totalBytes"] = t.totalBytes();
        }
    }
    return j;
}

namespace {

/** Fetch an object member that must be a number; throws otherwise. */
const Json &
numField(const Json &obj, const char *key)
{
    const Json *p = obj.isObject() ? obj.find(key) : nullptr;
    if (!p || !p->isNumber())
        throw std::runtime_error(
            format("RunStats JSON: missing numeric field '%s'", key));
    return *p;
}

} // namespace

RunStats
runStatsFromJson(const Json &j)
{
    if (!j.isObject())
        throw std::runtime_error("RunStats JSON: not an object");
    RunStats s;
    s.cycles = numField(j, "cycles").asDouble();

    const Json *bd = j.find("breakdown");
    if (!bd)
        throw std::runtime_error("RunStats JSON: missing breakdown");
    s.breakdown.compute = numField(*bd, "compute").asDouble();
    s.breakdown.memory = numField(*bd, "memory").asDouble();
    s.breakdown.sync = numField(*bd, "sync").asDouble();

    const Json *tr = j.find("traffic");
    if (!tr)
        throw std::runtime_error("RunStats JSON: missing traffic");
    HierSnapshot &t = s.traffic;
    for (const TrafficField &c : counters)
        t.*c.field = numField(*tr, c.name).asUint();
    return s;
}

ExecContext::ExecContext(const ArchConfig &cfg) : sys_(cfg)
{
}

ExecContext::ExecContext(const ArchConfig &cfg, BumpArena *arena)
    : vs_(0x10000, /*allocate_host=*/true, arena), sys_(cfg)
{
}

RunStats
ExecContext::run(const TracePhase &phase)
{
    HierSnapshot before = sys_.mem().snapshot();
    CycleBreakdown bd_before = sys_.breakdown();
    PhaseResult r = sys_.runPhase(phase);
    RunStats stats;
    stats.cycles = r.cycles;
    stats.traffic = diff(sys_.mem().snapshot(), before);
    stats.breakdown = diff(sys_.breakdown(), bd_before);

    // One span per active core on the simulated-cycle timebase; the
    // gap to the next phase's start is that core's barrier wait.
    TraceWriter *tw = TraceWriter::global();
    if (tw && tracePid_ >= 0) {
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
    return stats;
}

void
ExecContext::warm(const TracePhase &phase)
{
    sys_.runPhase(phase);
}

std::unique_ptr<MetricsSampler>
ExecContext::makeMetricsSampler(const std::string &cell,
                                const std::string &policy)
{
    MetricsSink *sink = MetricsSink::global();
    if (!sink)
        return nullptr;
    auto read = [this] {
        const HierSnapshot h = sys_.mem().snapshot();
        const Dram &dram = sys_.mem().dram();
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
        // Each core's count truncated, then summed, as statsJson()
        // reports them.
        for (int i = 0; i < sys_.config().numCores; i++)
            c.zcompBusyCycles +=
                static_cast<uint64_t>(sys_.core(i).zcompBusyCycles());
        c.nocHops = h.nocHops;
        return c;
    };
    auto s = std::make_unique<MetricsSampler>(
        sink, cell, policy, sink->intervalCycles(),
        sys_.config().numCores, read);
    s->setTracePid(tracePid_);
    s->rebase(sys_.now());
    return s;
}

} // namespace zcomp
