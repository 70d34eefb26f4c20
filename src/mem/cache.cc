#include "mem/cache.hh"

#include "common/check.hh"
#include "common/log.hh"

namespace zcomp {

Cache::Cache(std::string name, const CacheConfig &cfg, bool directory)
    : name_(std::move(name)), assoc_(cfg.assoc), directory_(directory),
      hashIndex_(cfg.hashIndex)
{
    uint64_t num_lines = cfg.size / lineBytes;
    fatal_if(num_lines % cfg.assoc != 0,
             "cache %s: %llu lines not divisible by associativity %d",
             name_.c_str(), (unsigned long long)num_lines, cfg.assoc);
    numSets_ = static_cast<int>(num_lines / cfg.assoc);
    ZCOMP_CHECK(numSets_ > 0 && assoc_ > 0,
                "cache %s: degenerate geometry %d sets x %d ways",
                name_.c_str(), numSets_, assoc_);
    tags_.assign(num_lines, kInvalidTag);
    lines_.resize(num_lines);
    repl_ = ReplacementPolicy::create(cfg.repl, numSets_, assoc_);
}

size_t
Cache::resident(const CacheSlot &slot) const
{
    ZCOMP_DCHECK(slot.hit(), "cache %s: slot operation on a miss",
                 name_.c_str());
    size_t idx = static_cast<size_t>(slot.set) * assoc_ + slot.way;
    ZCOMP_DCHECK(tags_[idx] == slot.line,
                 "cache %s: stale slot for line 0x%llx", name_.c_str(),
                 static_cast<unsigned long long>(slot.line));
    return idx;
}

bool
Cache::demand(const CacheSlot &slot, bool is_write)
{
    if (!slot.hit()) {
        counters_.misses++;
        return false;
    }
    counters_.hits++;
    Line &l = lines_[resident(slot)];
    if (l.prefetched) {
        counters_.prefetchUseful++;
        l.prefetched = false;
    }
    if (is_write)
        l.dirty = true;
    repl_->onHit(slot.set, slot.way);
    return true;
}

CacheVictim
Cache::fill(CacheSlot &slot, bool dirty, bool is_prefetch, double ready_at)
{
    CacheVictim victim;
    if (slot.hit()) {
        // Refresh in place (e.g. a demand fill racing a prefetch fill).
        Line &l = lines_[resident(slot)];
        l.dirty = l.dirty || dirty;
        if (!is_prefetch && l.prefetched) {
            counters_.prefetchUseful++;
            l.prefetched = false;
        }
        return victim;
    }
    ZCOMP_DCHECK(findWay(slot.set, slot.line) < 0,
                 "cache %s: stale miss slot, line 0x%llx is resident",
                 name_.c_str(), static_cast<unsigned long long>(slot.line));

    // Prefer the first empty way (it carries the sentinel tag, so this
    // is just another tag scan), else evict the replacement victim.
    size_t base = static_cast<size_t>(slot.set) * assoc_;
    int way = findWay(slot.set, kInvalidTag);
    if (way < 0) {
        way = repl_->victim(slot.set);
        ZCOMP_DCHECK(way >= 0 && way < assoc_,
                     "cache %s: replacement chose bad way %d",
                     name_.c_str(), way);
        Line &v = lines_[base + way];
        victim.valid = true;
        victim.dirty = v.dirty;
        victim.wasPrefetch = v.prefetched;
        victim.addr = tags_[base + way];
        victim.presence = v.presence;
        counters_.evictions++;
        if (v.dirty)
            counters_.writebacks++;
        if (v.prefetched)
            counters_.prefetchUnused++;
    }
    Line &l = lines_[base + way];
    tags_[base + way] = slot.line;
    l.dirty = dirty;
    l.prefetched = is_prefetch;
    l.presence = 0;
    l.readyAt = ready_at;
    repl_->onInsert(slot.set, way);
    if (is_prefetch)
        counters_.prefetchFills++;
    slot.way = way;
    // The victim left its set for good: it cannot be the filled line.
    ZCOMP_DCHECK(!victim.valid || victim.addr != slot.line,
                 "cache %s: evicted the line being filled",
                 name_.c_str());
    return victim;
}

bool
Cache::invalidate(const CacheSlot &slot)
{
    if (!slot.hit())
        return false;
    size_t idx = resident(slot);
    Line &l = lines_[idx];
    bool was_dirty = l.dirty;
    if (l.prefetched)
        counters_.prefetchUnused++;
    tags_[idx] = kInvalidTag;
    l.dirty = false;
    l.prefetched = false;
    l.presence = 0;
    counters_.invalidations++;
    return was_dirty;
}

double
Cache::readyWait(const CacheSlot &slot, double now) const
{
    if (!slot.hit())
        return 0.0;
    double ready = lines_[resident(slot)].readyAt;
    return ready > now ? ready - now : 0.0;
}

void
Cache::takePrefetchFlag(const CacheSlot &slot)
{
    Line &l = lines_[resident(slot)];
    if (l.prefetched) {
        counters_.prefetchUseful++;
        l.prefetched = false;
    }
}

void
Cache::markPresence(const CacheSlot &slot, int core)
{
    panic_if(!directory_, "cache %s has no directory", name_.c_str());
    lines_[resident(slot)].presence |= static_cast<uint16_t>(1U << core);
}

uint16_t
Cache::presence(const CacheSlot &slot) const
{
    return slot.hit() ? lines_[resident(slot)].presence : 0;
}

uint64_t
Cache::validLines() const
{
    uint64_t n = 0;
    for (Addr t : tags_) {
        if (t != kInvalidTag)
            n++;
    }
    return n;
}

} // namespace zcomp
