#include "sim/exec_context.hh"

#include <iterator>
#include <stdexcept>

#include "common/log.hh"

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

RunStats
ExecContext::run(const TracePhase &phase, uint64_t orig_bytes,
                 uint64_t comp_bytes)
{
    if (observer_)
        observer_->beforePhase(phase, orig_bytes, comp_bytes);
    HierSnapshot before = sys_.mem().snapshot();
    CycleBreakdown bd_before = sys_.breakdown();
    PhaseResult r = sys_.runPhase(phase);
    RunStats stats;
    stats.cycles = r.cycles;
    stats.traffic = diff(sys_.mem().snapshot(), before);
    stats.breakdown = diff(sys_.breakdown(), bd_before);
    if (observer_)
        observer_->afterPhase(phase, r);
    return stats;
}

void
ExecContext::warm(const TracePhase &phase)
{
    sys_.runPhase(phase);
}

} // namespace zcomp
