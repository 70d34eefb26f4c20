#include "cpu/system.hh"

#include <algorithm>
#include <queue>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/metrics.hh"

namespace zcomp {

MultiCoreSystem::MultiCoreSystem(const ArchConfig &cfg)
    : cfg_(cfg), mem_(cfg)
{
    for (int c = 0; c < cfg.numCores; c++)
        cores_.push_back(std::make_unique<CoreModel>(c, cfg_, mem_));
}

PhaseResult
MultiCoreSystem::runPhase(const TracePhase &phase)
{
    fatal_if(phase.perCore.size() >
                 static_cast<size_t>(cfg_.numCores),
             "phase '%s' targets %zu cores, system has %d",
             phase.name.c_str(), phase.perCore.size(), cfg_.numCores);

    PhaseResult result;
    result.startTime = globalTime_;

    static const CoreTrace emptyTrace;
    for (int c = 0; c < cfg_.numCores; c++) {
        const CoreTrace *t =
            static_cast<size_t>(c) < phase.perCore.size()
                ? &phase.perCore[static_cast<size_t>(c)]
                : &emptyTrace;
        cores_[static_cast<size_t>(c)]->startPhase(t, globalTime_);
    }

    // Interleave: always advance the core with the smallest local
    // time. A min-heap keyed (time, coreId) replaces the former
    // linear scan over all cores per step; the lexicographic order
    // reproduces the scan's pick exactly (strictly-smaller time wins,
    // lowest core id wins ties), so the step sequence - and therefore
    // every timing result - is unchanged. Each live core has exactly
    // one heap entry, kept current by re-pushing after its step.
    using TimeSlot = std::pair<double, int>;
    std::priority_queue<TimeSlot, std::vector<TimeSlot>,
                        std::greater<TimeSlot>>
        ready;
    for (int c = 0; c < cfg_.numCores; c++)
        ready.push({cores_[static_cast<size_t>(c)]->time(), c});
    int remaining = cfg_.numCores;
    while (remaining > 0) {
        // The heap top is the global time low-water mark: every live
        // core's clock is >= it and it only moves forward, so one
        // comparison per step is the entire metrics hot-path cost
        // (sampleAt_ is +infinity when no sampler is attached).
        if (ready.top().first >= sampleAt_) {
            sampler_->sample(ready.top().first);
            sampleAt_ = sampler_->nextSampleCycle();
        }
        const int id = ready.top().second;
        ready.pop();
        CoreModel *next = cores_[static_cast<size_t>(id)].get();
        next->step();
        if (next->done())
            remaining--;
        else
            ready.push({next->time(), id});
    }

    // Barrier: everyone waits for the slowest core.
    double end = globalTime_;
    result.coreEndTimes.reserve(cores_.size());
    for (auto &core : cores_) {
        result.coreEndTimes.push_back(core->time());
        end = std::max(end, core->time());
    }
    for (auto &core : cores_)
        core->syncTo(end);

    globalTime_ = end;
    result.endTime = end;
    result.cycles = end - result.startTime;
    return result;
}

CycleBreakdown
MultiCoreSystem::breakdown() const
{
    CycleBreakdown sum;
    for (const auto &core : cores_)
        sum += core->breakdown();
    return sum;
}

Json
MultiCoreSystem::statsJson() const
{
    Json counters = Json::object();
    counters["cycles"] = static_cast<uint64_t>(globalTime_);
    Json children = Json::object();
    for (const auto &core : cores_) {
        const CycleBreakdown &bd = core->breakdown();
        Json c = Json::object();
        c["compute_cycles"] = static_cast<uint64_t>(bd.compute);
        c["memory_cycles"] = static_cast<uint64_t>(bd.memory);
        c["sync_cycles"] = static_cast<uint64_t>(bd.sync);
        c["zcomp_busy_cycles"] =
            static_cast<uint64_t>(core->zcompBusyCycles());
        Json g = Json::object();
        g["counters"] = std::move(c);
        children[format("core%d", core->id())] = std::move(g);
    }
    children["mem"] = mem_.statsJson();
    Json tree = Json::object();
    tree["counters"] = std::move(counters);
    tree["children"] = std::move(children);
    return tree;
}

void
MultiCoreSystem::resetStats()
{
    for (auto &core : cores_)
        core->resetBreakdown();
    mem_.resetStats();
    // Note: globalTime_ keeps advancing monotonically; callers measure
    // deltas via PhaseResult.
}

void
MultiCoreSystem::attachSampler(MetricsSampler *sampler)
{
    sampler_ = sampler;
    sampleAt_ = sampler
                    ? sampler->nextSampleCycle()
                    : std::numeric_limits<double>::infinity();
}

void
MultiCoreSystem::resetAll()
{
    resetStats();
    mem_.resetAll();
    // Rewind the clocks so back-to-back experiments are bit-identical:
    // double-precision timestamps round differently at large offsets,
    // which would otherwise perturb the core interleaving order.
    for (auto &core : cores_)
        core->resetTime();
    globalTime_ = 0;
}

} // namespace zcomp
