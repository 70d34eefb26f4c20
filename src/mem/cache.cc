#include "mem/cache.hh"

#include <cstring>

#include "common/bitops.hh"
#include "common/check.hh"
#include "common/log.hh"

namespace zcomp {

Cache::Cache(std::string name, const CacheConfig &cfg, bool directory)
    : name_(std::move(name)), assoc_(cfg.assoc), directory_(directory),
      hashIndex_(cfg.hashIndex), lru_(cfg.repl == ReplPolicy::LRU)
{
    uint64_t num_lines = cfg.size / lineBytes;
    fatal_if(num_lines % cfg.assoc != 0,
             "cache %s: %llu lines not divisible by associativity %d",
             name_.c_str(), (unsigned long long)num_lines, cfg.assoc);
    numSets_ = static_cast<int>(num_lines / cfg.assoc);
    ZCOMP_CHECK(numSets_ > 0 && assoc_ > 0,
                "cache %s: degenerate geometry %d sets x %d ways",
                name_.c_str(), numSets_, assoc_);
    setMask_ = isPow2(numSets_) ? numSets_ - 1 : 0;

    // Lay out one set block; each array is aligned to its element.
    auto ways = static_cast<size_t>(assoc_);
    size_t off = ways * sizeof(uint32_t);
    flagsOff_ = off;
    off += ways;
    if (lru_) {
        replOff_ = alignUp(off, sizeof(uint64_t));
        off = replOff_ + ways * sizeof(uint64_t);
    } else {
        replOff_ = off;
        off += ways;
    }
    if (directory_) {
        presenceOff_ = alignUp(off, sizeof(uint16_t));
        off = presenceOff_ + ways * sizeof(uint16_t);
    }
    readyOff_ = alignUp(off, sizeof(double));
    stride_ = alignUp(readyOff_ + ways * sizeof(double), kHostLine);

    // Plain vector storage (not aligned_alloc) aligned by hand: it
    // reuses the malloc heap that short-lived hierarchies free.
    storage_.resize(stride_ * static_cast<size_t>(numSets_) + kHostLine - 1);
    auto addr = reinterpret_cast<uintptr_t>(storage_.data());
    base_ = storage_.data() + (alignUp(addr, kHostLine) - addr);
    clear();
}

void
Cache::clear()
{
    auto ways = static_cast<size_t>(assoc_);
    for (int s = 0; s < numSets_; s++) {
        uint8_t *block = field<uint8_t>(s, 0);
        std::memset(block, 0, stride_);
        std::memset(block, 0xFF, ways * sizeof(uint32_t));     // kEmptyTag
        if (!lru_)
            std::memset(block + replOff_, kMaxRrpv, ways);
    }
    clock_ = 0;
    counters_ = {};
}

int
Cache::resident(const CacheSlot &slot) const
{
    ZCOMP_DCHECK(slot.hit(), "cache %s: slot operation on a miss",
                 name_.c_str());
    ZCOMP_DCHECK(field<const uint32_t>(slot.set, 0)[slot.way] ==
                     slot.line / lineBytes,
                 "cache %s: stale slot for line 0x%llx", name_.c_str(),
                 static_cast<unsigned long long>(slot.line));
    return slot.way;
}

void
Cache::markUsed(int set, int way, uint8_t rrpv)
{
    if (lru_)
        field<uint64_t>(set, replOff_)[way] = ++clock_;
    else
        field<uint8_t>(set, replOff_)[way] = rrpv;
}

int
Cache::pickVictim(int set)
{
    if (lru_) {
        const uint64_t *stamp = field<const uint64_t>(set, replOff_);
        int v = 0;
        for (int w = 1; w < assoc_; w++) {
            if (stamp[w] < stamp[v])
                v = w;
        }
        return v;
    }
    // SRRIP: the first way predicted for distant re-reference, aging
    // every way until one is.
    uint8_t *rrpv = field<uint8_t>(set, replOff_);
    while (true) {
        for (int w = 0; w < assoc_; w++) {
            if (rrpv[w] >= kMaxRrpv)
                return w;
        }
        for (int w = 0; w < assoc_; w++)
            rrpv[w]++;
    }
}

bool
Cache::demand(const CacheSlot &slot, bool is_write)
{
    if (!slot.hit()) {
        counters_.misses++;
        return false;
    }
    counters_.hits++;
    uint8_t &f = field<uint8_t>(slot.set, flagsOff_)[resident(slot)];
    if (f & kPrefetched)
        counters_.prefetchUseful++;
    f = static_cast<uint8_t>((f & ~kPrefetched) | (is_write ? kDirty : 0));
    markUsed(slot.set, slot.way, 0);
    return true;
}

CacheVictim
Cache::fill(CacheSlot &slot, bool dirty, bool is_prefetch, double ready_at)
{
    CacheVictim victim;
    uint8_t *flags = field<uint8_t>(slot.set, flagsOff_);
    if (slot.hit()) {
        // Refresh in place (e.g. a demand fill racing a prefetch fill).
        uint8_t &f = flags[resident(slot)];
        if (dirty)
            f |= kDirty;
        if (!is_prefetch && (f & kPrefetched)) {
            counters_.prefetchUseful++;
            f &= static_cast<uint8_t>(~kPrefetched);
        }
        return victim;
    }
    auto tag = static_cast<uint32_t>(slot.line / lineBytes);
    ZCOMP_DCHECK(findWay(slot.set, tag) < 0,
                 "cache %s: stale miss slot, line 0x%llx is resident",
                 name_.c_str(), static_cast<unsigned long long>(slot.line));

    // Prefer the first empty way (it carries the sentinel tag, so this
    // is just another tag scan), else evict the replacement victim.
    uint32_t *tags = field<uint32_t>(slot.set, 0);
    int way = findWay(slot.set, kEmptyTag);
    if (way < 0) {
        way = pickVictim(slot.set);
        ZCOMP_DCHECK(way >= 0 && way < assoc_,
                     "cache %s: replacement chose bad way %d",
                     name_.c_str(), way);
        uint8_t f = flags[way];
        victim.valid = true;
        victim.dirty = f & kDirty;
        victim.wasPrefetch = f & kPrefetched;
        victim.addr = static_cast<Addr>(tags[way]) * lineBytes;
        if (directory_)
            victim.presence = field<uint16_t>(slot.set, presenceOff_)[way];
        counters_.evictions++;
        if (victim.dirty)
            counters_.writebacks++;
        if (victim.wasPrefetch)
            counters_.prefetchUnused++;
    }
    tags[way] = tag;
    flags[way] = static_cast<uint8_t>((dirty ? kDirty : 0) |
                                      (is_prefetch ? kPrefetched : 0));
    if (directory_)
        field<uint16_t>(slot.set, presenceOff_)[way] = 0;
    field<double>(slot.set, readyOff_)[way] = ready_at;
    markUsed(slot.set, way, kInsertRrpv);
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
    int way = resident(slot);
    uint8_t &f = field<uint8_t>(slot.set, flagsOff_)[way];
    bool was_dirty = f & kDirty;
    if (f & kPrefetched)
        counters_.prefetchUnused++;
    field<uint32_t>(slot.set, 0)[way] = kEmptyTag;
    f = 0;
    if (directory_)
        field<uint16_t>(slot.set, presenceOff_)[way] = 0;
    counters_.invalidations++;
    return was_dirty;
}

double
Cache::readyWait(const CacheSlot &slot, double now) const
{
    if (!slot.hit())
        return 0.0;
    double ready = field<const double>(slot.set, readyOff_)[resident(slot)];
    return ready > now ? ready - now : 0.0;
}

void
Cache::takePrefetchFlag(const CacheSlot &slot)
{
    uint8_t &f = field<uint8_t>(slot.set, flagsOff_)[resident(slot)];
    if (f & kPrefetched) {
        counters_.prefetchUseful++;
        f &= static_cast<uint8_t>(~kPrefetched);
    }
}

void
Cache::markPresence(const CacheSlot &slot, int core)
{
    panic_if(!directory_, "cache %s has no directory", name_.c_str());
    field<uint16_t>(slot.set, presenceOff_)[resident(slot)] |=
        static_cast<uint16_t>(1U << core);
}

uint16_t
Cache::presence(const CacheSlot &slot) const
{
    if (!slot.hit() || !directory_)
        return 0;
    return field<const uint16_t>(slot.set, presenceOff_)[resident(slot)];
}

uint64_t
Cache::validLines() const
{
    uint64_t n = 0;
    for (int s = 0; s < numSets_; s++) {
        const uint32_t *tags = field<const uint32_t>(s, 0);
        for (int w = 0; w < assoc_; w++)
            n += tags[w] != kEmptyTag;
    }
    return n;
}

} // namespace zcomp
