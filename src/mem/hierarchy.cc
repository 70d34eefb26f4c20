#include "mem/hierarchy.hh"

#include <algorithm>
#include <iterator>

#include "common/check.hh"
#include "common/log.hh"

namespace zcomp {

namespace {

/** Every CacheCounters field and its stats-tree name, in report order. */
struct CacheField
{
    const char *name;
    uint64_t CacheCounters::*field;
};

constexpr CacheField cacheFields[] = {
    {"hits", &CacheCounters::hits},
    {"misses", &CacheCounters::misses},
    {"writebacks", &CacheCounters::writebacks},
    {"evictions", &CacheCounters::evictions},
    {"invalidations", &CacheCounters::invalidations},
    {"pf_fills", &CacheCounters::prefetchFills},
    {"pf_useful", &CacheCounters::prefetchUseful},
    {"pf_unused", &CacheCounters::prefetchUnused},
};
static_assert(sizeof(CacheCounters) ==
                  std::size(cacheFields) * sizeof(uint64_t),
              "every CacheCounters field needs a CacheField entry");

} // namespace

double
HierSnapshot::prefetchAccuracy() const
{
    if (l2PrefIssued == 0)
        return 0.0;
    return static_cast<double>(l2PrefUseful) /
           static_cast<double>(l2PrefIssued);
}

double
HierSnapshot::prefetchCoverage() const
{
    uint64_t denom = l2PrefUseful + l2DemandMissesBelow;
    if (denom == 0)
        return 0.0;
    return static_cast<double>(l2PrefUseful) /
           static_cast<double>(denom);
}

MemoryHierarchy::MemoryHierarchy(const ArchConfig &cfg)
    : cfg_(cfg), noc_(cfg.noc), dram_(cfg.dram, cfg.core.freqGHz)
{
    for (int c = 0; c < cfg.numCores; c++) {
        l1_.push_back(std::make_unique<Cache>(format("l1.%d", c), cfg.l1,
                                              false));
        l2_.push_back(std::make_unique<Cache>(format("l2.%d", c), cfg.l2,
                                              false));
        l2Pref_.emplace_back(cfg.prefetch);
        l1Pref_.emplace_back();
    }
    l3_ = std::make_unique<Cache>("l3", cfg.l3, true);
    l1Busy_.assign(static_cast<size_t>(cfg.numCores), 0.0);
    l2Busy_.assign(static_cast<size_t>(cfg.numCores), 0.0);
    l3SliceBusy_.assign(static_cast<size_t>(noc_.numTiles()), 0.0);
}

AccessResult
MemoryHierarchy::access(int core, Addr addr, uint32_t bytes,
                        bool is_write, double now, uint32_t pc)
{
    panic_if(core < 0 || core >= cfg_.numCores, "bad core id %d", core);
    if (bytes == 0)
        return {0.0, 1};

    coreL1Bytes_ += bytes;

    // Split line-crossing accesses; the lines are fetched in parallel
    // (separate fill paths) with a one-cycle split penalty each.
    AccessResult result;
    uint64_t nlines = linesTouched(addr, bytes);
    Addr line = lineAddr(addr);
    for (uint64_t i = 0; i < nlines; i++, line += lineBytes) {
        AccessResult r = accessLine(core, line, is_write, now, pc);
        ZCOMP_DCHECK(r.latency >= 0.0 && r.level >= 1 && r.level <= 4,
                     "bad access result: latency %f level %d",
                     r.latency, r.level);
        result.latency = std::max(result.latency,
                                  r.latency + static_cast<double>(i));
        result.level = std::max(result.level, r.level);
    }
    return result;
}

AccessResult
MemoryHierarchy::accessLine(int core, Addr line, bool is_write,
                            double now, uint32_t pc)
{
    ZCOMP_DCHECK(line % lineBytes == 0, "unaligned line address 0x%llx",
                 static_cast<unsigned long long>(line));
    auto uc = static_cast<size_t>(core);
    AccessResult res;

    // L1 bandwidth server.
    double l1_service =
        static_cast<double>(lineBytes) / cfg_.l1.bytesPerCycle;
    double l1_wait = std::max(0.0, l1Busy_[uc] - now);
    l1Busy_[uc] = std::max(l1Busy_[uc], now) + l1_service;

    runL1Prefetch(core, line, pc, now);

    // The stream prefetcher trains on the full demand line stream
    // (L1 hits included): L1 prefetch promotions would otherwise
    // punch gaps into the sequence it observes and break training.
    runL2Prefetch(core, line, now);

    CacheSlot l1 = l1_[uc]->probe(line);
    if (l1_[uc]->demand(l1, is_write)) {
        res.latency = cfg_.l1.latency + l1_wait;
        res.level = 1;
        return res;
    }

    // L1 miss -> L2.
    double l2_service =
        static_cast<double>(lineBytes) / cfg_.l2.bytesPerCycle;
    double l2_wait = std::max(0.0, l2Busy_[uc] - now);
    l2Busy_[uc] = std::max(l2Busy_[uc], now) + l2_service;

    double lat = cfg_.l1.latency + l1_wait;
    CacheSlot l2 = l2_[uc]->probe(line);
    if (l2_[uc]->demand(l2, false)) {
        // If the line was filled by a still-in-flight prefetch, the
        // demand access waits for the remaining fill latency.
        lat += cfg_.l2.latency + l2_wait +
               l2_[uc]->readyWait(l2, now + lat);
        l1L2Bytes_ += lineBytes;    // fill into L1
        insertL1(core, l1, is_write);
        res.latency = lat;
        res.level = 2;
        return res;
    }

    // L2 miss -> L3 (through the NoC).
    l2DemandMissesBelow_++;
    int slice = noc_.sliceOf(line);
    double noc_rt = noc_.roundTrip(core, slice);
    nocHops_ += static_cast<uint64_t>(2 * noc_.hops(core, slice));
    double l3_service =
        static_cast<double>(lineBytes) / cfg_.l3.bytesPerCycle;
    auto us = static_cast<size_t>(slice);
    double l3_wait = std::max(0.0, l3SliceBusy_[us] - now);
    l3SliceBusy_[us] = std::max(l3SliceBusy_[us], now) + l3_service;

    lat += cfg_.l2.latency + l2_wait + noc_rt + cfg_.l3.latency + l3_wait;
    CacheSlot l3 = l3_->probe(line);
    res.level = l3.hit() ? 3 : 4;   // L3 miss -> DRAM
    lat += fillL3(core, l3, now, now + lat);

    // Fill the private caches. The L3 fill may have back-invalidated
    // lines in these sets; each fill picks its way only now.
    l2L3Bytes_ += lineBytes;
    insertL2(core, l2, false, now);
    l1L2Bytes_ += lineBytes;
    insertL1(core, l1, is_write);

    res.latency = lat;
    return res;
}

double
MemoryHierarchy::fillL3(int core, CacheSlot &l3, double now, double dram_at)
{
    double lat = 0;
    if (!l3_->demand(l3, false)) {
        lat = dram_.access(l3.line, false, dram_at);
        l3DramBytes_ += lineBytes;
        evictFromL3(l3_->fill(l3, false, false), now);
    }
    l3_->markPresence(l3, core);
    return lat;
}

void
MemoryHierarchy::evictFromL3(const CacheVictim &victim, double now)
{
    if (!victim.valid)
        return;
    bool dirty = victim.dirty;
    // Inclusive L3: remove the line from every private cache that may
    // hold it; dirty private copies merge into the writeback.
    for (int c = 0; c < cfg_.numCores; c++) {
        if (victim.presence & (1U << c)) {
            auto uc = static_cast<size_t>(c);
            if (l1_[uc]->invalidate(l1_[uc]->probe(victim.addr))) {
                dirty = true;
                l1L2Bytes_ += lineBytes;
            }
            if (l2_[uc]->invalidate(l2_[uc]->probe(victim.addr))) {
                dirty = true;
                l2L3Bytes_ += lineBytes;
            }
        }
    }
    if (dirty) {
        dram_.access(victim.addr, true, now);
        l3DramBytes_ += lineBytes;
    }
}

void
MemoryHierarchy::insertL2(int core, CacheSlot &l2, bool prefetch,
                          double now, double ready_at)
{
    auto uc = static_cast<size_t>(core);
    CacheVictim v = l2_[uc]->fill(l2, false, prefetch, ready_at);
    if (v.valid) {
        // Inclusion of L1: the evicted L2 line leaves L1 as well.
        if (l1_[uc]->invalidate(l1_[uc]->probe(v.addr))) {
            l1L2Bytes_ += lineBytes;
            v.dirty = true;
        }
        if (v.dirty) {
            // Write back into L3; the line is still there (inclusive)
            // unless it was already evicted - then it goes to DRAM.
            l2L3Bytes_ += lineBytes;
            CacheSlot l3 = l3_->probe(v.addr);
            if (l3.hit()) {
                l3WbProbes_++;
                l3_->demand(l3, true);
            } else {
                dram_.access(v.addr, true, now);
                l3DramBytes_ += lineBytes;
            }
        }
    }
}

void
MemoryHierarchy::insertL1(int core, CacheSlot &l1, bool dirty)
{
    auto uc = static_cast<size_t>(core);
    CacheVictim v = l1_[uc]->fill(l1, dirty, false);
    if (v.valid && v.dirty) {
        // Write back into L2 (inclusive of L1, so it must be there).
        l1L2Bytes_ += lineBytes;
        CacheSlot l2 = l2_[uc]->probe(v.addr);
        if (!l2.hit()) {
            // Defensive: racing back-invalidation removed it.
            insertL2(core, l2, false, 0.0);
        }
        l2_[uc]->demand(l2, true);
    }
}

void
MemoryHierarchy::runL2Prefetch(int core, Addr line, double now)
{
    if (!cfg_.prefetch.l2Stream)
        return;
    auto uc = static_cast<size_t>(core);
    prefetchScratch_.clear();
    l2Pref_[uc].onAccess(line, prefetchScratch_);
    for (Addr pf : prefetchScratch_) {
        l2_[uc]->touchSet(pf);
        l3_->touchSet(pf);
    }
    for (Addr pf : prefetchScratch_) {
        CacheSlot l2 = l2_[uc]->probe(pf);
        if (l2.hit())
            continue;
        // Prefetch throttling: hardware prefetchers drop requests
        // when the memory queues are saturated. Without this, a core
        // running at cache speed can flood DRAM with fills faster
        // than the channels drain, and the ready-time of late fills
        // runs away unboundedly.
        CacheSlot l3 = l3_->probe(pf);
        if (!l3.hit() && dram_.backlog(pf, now) > prefetchBacklogCap_)
            continue;
        // Fetch from L3/DRAM into L2, consuming real bandwidth. The
        // fill's arrival time is recorded so that a demand access that
        // catches up with a late prefetch still pays the residual
        // latency.
        int slice = noc_.sliceOf(pf);
        auto us = static_cast<size_t>(slice);
        double l3_service =
            static_cast<double>(lineBytes) / cfg_.l3.bytesPerCycle;
        double l3_wait = std::max(0.0, l3SliceBusy_[us] - now);
        l3SliceBusy_[us] = std::max(l3SliceBusy_[us], now) + l3_service;
        double fill_lat = noc_.roundTrip(core, slice) + cfg_.l3.latency +
                          l3_wait + fillL3(core, l3, now, now);
        nocHops_ += static_cast<uint64_t>(2 * noc_.hops(core, slice));
        l2L3Bytes_ += lineBytes;
        l2PrefFilled_++;
        insertL2(core, l2, true, now, now + fill_lat);
    }
}

void
MemoryHierarchy::runL1Prefetch(int core, Addr line, uint32_t pc,
                               double now)
{
    if (!cfg_.prefetch.l1IpStride)
        return;
    auto uc = static_cast<size_t>(core);
    prefetchScratch_.clear();
    l1Pref_[uc].onAccess(pc, line, prefetchScratch_);
    for (Addr pf : prefetchScratch_) {
        CacheSlot l1 = l1_[uc]->probe(pf);
        if (l1.hit())
            continue;
        // L1 prefetch only promotes lines already in this core's L2;
        // it does not cascade misses further down, and it leaves
        // still-in-flight L2 prefetch fills alone (their data has not
        // arrived yet).
        CacheSlot l2 = l2_[uc]->probe(pf);
        if (!l2.hit() || l2_[uc]->readyWait(l2, now) > 0)
            continue;
        // Promoting a prefetched L2 line on behalf of an imminent
        // demand access consumes (and credits) the L2 prefetch.
        l2_[uc]->takePrefetchFlag(l2);
        l1L2Bytes_ += lineBytes;
        insertL1(core, l1, false);
    }
}

void
MemoryHierarchy::checkInvariants() const
{
    uint64_t l1_misses = 0, l1_writebacks = 0;
    uint64_t l2_accesses = 0, l2_misses = 0, l2_pref_fills = 0;
    for (int c = 0; c < cfg_.numCores; c++) {
        auto uc = static_cast<size_t>(c);
        const CacheCounters &l1 = l1_[uc]->counters();
        const CacheCounters &l2 = l2_[uc]->counters();
        l1_misses += l1.misses;
        l1_writebacks += l1.writebacks;
        l2_accesses += l2.hits + l2.misses;
        l2_misses += l2.misses;
        l2_pref_fills += l2.prefetchFills;
    }

    // Level-N misses + writebacks == level-N+1 accesses: every L2
    // lookup is caused by an L1 demand miss or an L1 dirty writeback.
    ZCOMP_CHECK(l2_accesses == l1_misses + l1_writebacks,
                "L1->L2 conservation: %llu L2 accesses vs %llu misses "
                "+ %llu writebacks",
                (unsigned long long)l2_accesses,
                (unsigned long long)l1_misses,
                (unsigned long long)l1_writebacks);

    // Demand misses leaving the private caches are counted twice,
    // once per L2 and once at the hierarchy; they must agree.
    ZCOMP_CHECK(l2_misses == l2DemandMissesBelow_,
                "L2 miss accounting drifted: %llu vs %llu",
                (unsigned long long)l2_misses,
                (unsigned long long)l2DemandMissesBelow_);

    // Every L3 lookup is a demand L2 miss, a prefetch fill probe, or
    // an L2 dirty writeback landing in the (inclusive) L3.
    uint64_t l3_accesses = l3_->counters().hits + l3_->counters().misses;
    ZCOMP_CHECK(l3_accesses ==
                    l2DemandMissesBelow_ + l2PrefFilled_ + l3WbProbes_,
                "L2->L3 conservation: %llu L3 accesses vs %llu + %llu "
                "+ %llu",
                (unsigned long long)l3_accesses,
                (unsigned long long)l2DemandMissesBelow_,
                (unsigned long long)l2PrefFilled_,
                (unsigned long long)l3WbProbes_);

    // Bytes entering or leaving DRAM are exactly the bytes accounted
    // on the L3<->DRAM link.
    ZCOMP_CHECK(dram_.bytesRead + dram_.bytesWritten == l3DramBytes_,
                "L3->DRAM conservation: %llu DRAM bytes vs %llu link "
                "bytes",
                (unsigned long long)(dram_.bytesRead +
                                     dram_.bytesWritten),
                (unsigned long long)l3DramBytes_);

    // DRAM busy-time accounting: accrued busy cycles fit the channel
    // schedules (deferred posted writes only count once drained).
    dram_.checkInvariants();

    // Hierarchy-side and cache-side prefetch fill counts must agree.
    ZCOMP_CHECK(l2_pref_fills == l2PrefFilled_,
                "prefetch fill accounting drifted: %llu vs %llu",
                (unsigned long long)l2_pref_fills,
                (unsigned long long)l2PrefFilled_);

    // Structural sanity.
    ZCOMP_CHECK(l1L2Bytes_ % lineBytes == 0 &&
                    l2L3Bytes_ % lineBytes == 0 &&
                    l3DramBytes_ % lineBytes == 0,
                "link traffic is not line-granular");
    ZCOMP_CHECK(nocHops_ % 2 == 0,
                "round-trip NoC hop total %llu is odd",
                (unsigned long long)nocHops_);

    auto check_cache = [](const Cache &c) {
        const CacheCounters &n = c.counters();
        ZCOMP_CHECK(n.writebacks <= n.evictions,
                    "cache %s: %llu writebacks exceed %llu evictions",
                    c.name().c_str(), (unsigned long long)n.writebacks,
                    (unsigned long long)n.evictions);
        uint64_t capacity = static_cast<uint64_t>(c.numSets()) *
                            static_cast<uint64_t>(c.assoc());
        // Each counted fill resolves at most once as useful or unused;
        // the capacity slack covers still-flagged lines that survived
        // a resetStats() (their fill predates the counter epoch).
        ZCOMP_CHECK(n.prefetchUseful + n.prefetchUnused <=
                        n.prefetchFills + capacity,
                    "cache %s: prefetch outcome accounting drifted",
                    c.name().c_str());
        // Debug only: the occupancy probe walks every line, too slow
        // for the per-phase snapshot() calls of Release studies.
        ZCOMP_DCHECK(c.validLines() <= capacity,
                     "cache %s: occupancy exceeds capacity",
                     c.name().c_str());
    };
    for (int c = 0; c < cfg_.numCores; c++) {
        auto uc = static_cast<size_t>(c);
        check_cache(*l1_[uc]);
        check_cache(*l2_[uc]);
    }
    check_cache(*l3_);
}

HierSnapshot
MemoryHierarchy::snapshot() const
{
    checkInvariants();
    HierSnapshot s;
    s.coreL1Bytes = coreL1Bytes_;
    s.l1L2Bytes = l1L2Bytes_;
    s.l2L3Bytes = l2L3Bytes_;
    s.l3DramBytes = l3DramBytes_;
    for (int c = 0; c < cfg_.numCores; c++) {
        auto uc = static_cast<size_t>(c);
        const CacheCounters &l1 = l1_[uc]->counters();
        const CacheCounters &l2 = l2_[uc]->counters();
        s.l1Hits += l1.hits;
        s.l1Misses += l1.misses;
        s.l2Hits += l2.hits;
        s.l2Misses += l2.misses;
        s.l2PrefUseful += l2.prefetchUseful;
        s.l2PrefUnused += l2.prefetchUnused;
    }
    s.l2PrefIssued = l2PrefFilled_;
    s.l3Hits = l3_->counters().hits;
    s.l3Misses = l3_->counters().misses;
    s.l2DemandMissesBelow = l2DemandMissesBelow_;
    s.nocHops = nocHops_;
    return s;
}

Json
MemoryHierarchy::statsJson() const
{
    HierSnapshot s = snapshot();
    Json children = Json::object();
    auto group = [&children](const std::string &name, Json counters) {
        Json g = Json::object();
        g["counters"] = std::move(counters);
        children[name] = std::move(g);
    };

    Json links = Json::object();
    links["core_l1_bytes"] = s.coreL1Bytes;
    links["l1_l2_bytes"] = s.l1L2Bytes;
    links["l2_l3_bytes"] = s.l2L3Bytes;
    links["l3_dram_bytes"] = s.l3DramBytes;
    group("links", std::move(links));

    Json noc = Json::object();
    noc["hops"] = s.nocHops;
    group("noc", std::move(noc));

    auto cache = [&group](const std::string &name, const Cache &c) {
        Json counters = Json::object();
        for (const CacheField &f : cacheFields)
            counters[f.name] = c.counters().*f.field;
        group(name, std::move(counters));
    };
    for (int c = 0; c < cfg_.numCores; c++) {
        auto uc = static_cast<size_t>(c);
        cache(format("l1_%d", c), *l1_[uc]);
        cache(format("l2_%d", c), *l2_[uc]);
    }
    cache("l3", *l3_);

    Json dram = Json::object();
    dram["bytes_read"] = dram_.bytesRead;
    dram["bytes_written"] = dram_.bytesWritten;
    dram["busy_cycles"] = static_cast<uint64_t>(dram_.busyCycles());
    // Only present under --fault-spec, so fault-free stats trees keep
    // their shape.
    if (dram_.injectedBitflips() > 0)
        dram["fault_bitflips"] = dram_.injectedBitflips();
    group("dram", std::move(dram));

    Json tree = Json::object();
    tree["children"] = std::move(children);
    return tree;
}

void
MemoryHierarchy::resetStats()
{
    coreL1Bytes_ = 0;
    l1L2Bytes_ = 0;
    l2L3Bytes_ = 0;
    l3DramBytes_ = 0;
    l2DemandMissesBelow_ = 0;
    l2PrefFilled_ = 0;
    l3WbProbes_ = 0;
    nocHops_ = 0;
    for (int c = 0; c < cfg_.numCores; c++) {
        auto uc = static_cast<size_t>(c);
        l1_[uc]->resetCounters();
        l2_[uc]->resetCounters();
        l2Pref_[uc].reset();
        l1Pref_[uc].reset();
    }
    l3_->resetCounters();
    dram_.reset();
}

void
MemoryHierarchy::resetAll()
{
    for (int c = 0; c < cfg_.numCores; c++) {
        auto uc = static_cast<size_t>(c);
        l1_[uc]->clear();
        l2_[uc]->clear();
    }
    l3_->clear();
    std::fill(l1Busy_.begin(), l1Busy_.end(), 0.0);
    std::fill(l2Busy_.begin(), l2Busy_.end(), 0.0);
    std::fill(l3SliceBusy_.begin(), l3SliceBusy_.end(), 0.0);
    resetStats();
}

} // namespace zcomp
