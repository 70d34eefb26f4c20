/**
 * @file
 * Reference model for the set-blocked Cache: the structure-of-arrays
 * layout the model used before (64-bit tags, a per-line state array,
 * and LRU/SRRIP replacement state in arrays of their own). Tests
 * drive it and Cache with the same operations and compare every
 * result; it must not be "fixed" to match Cache.
 */

#ifndef ZCOMP_TESTS_CACHE_REF_HH
#define ZCOMP_TESTS_CACHE_REF_HH

#include <vector>

#include "mem/cache.hh"

namespace zcomp {

class RefCache
{
  public:
    RefCache(const CacheConfig &cfg, bool directory)
        : numSets_(static_cast<int>(cfg.size / lineBytes / cfg.assoc)),
          assoc_(cfg.assoc), directory_(directory),
          hashIndex_(cfg.hashIndex), lru_(cfg.repl == ReplPolicy::LRU),
          tags_(cfg.size / lineBytes, kInvalidTag),
          lines_(cfg.size / lineBytes),
          stamp_(cfg.size / lineBytes, 0),
          rrpv_(cfg.size / lineBytes, maxRrpv)
    {}

    CacheSlot
    probe(Addr line) const
    {
        int set = setIndex(line);
        return {line, set, findWay(set, line)};
    }

    bool
    demand(const CacheSlot &slot, bool is_write)
    {
        if (!slot.hit()) {
            counters_.misses++;
            return false;
        }
        counters_.hits++;
        Line &l = lines_[index(slot)];
        if (l.prefetched) {
            counters_.prefetchUseful++;
            l.prefetched = false;
        }
        if (is_write)
            l.dirty = true;
        onHit(index(slot));
        return true;
    }

    CacheVictim
    fill(CacheSlot &slot, bool dirty, bool is_prefetch, double ready_at)
    {
        CacheVictim victim;
        if (slot.hit()) {
            Line &l = lines_[index(slot)];
            l.dirty = l.dirty || dirty;
            if (!is_prefetch && l.prefetched) {
                counters_.prefetchUseful++;
                l.prefetched = false;
            }
            return victim;
        }
        size_t base = static_cast<size_t>(slot.set) * assoc_;
        int way = findWay(slot.set, kInvalidTag);
        if (way < 0) {
            way = pickVictim(base);
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
        if (lru_)
            stamp_[base + way] = ++clock_;
        else
            rrpv_[base + way] = insertRrpv;
        if (is_prefetch)
            counters_.prefetchFills++;
        slot.way = way;
        return victim;
    }

    bool
    invalidate(const CacheSlot &slot)
    {
        if (!slot.hit())
            return false;
        size_t idx = index(slot);
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
    readyWait(const CacheSlot &slot, double now) const
    {
        if (!slot.hit())
            return 0.0;
        double ready = lines_[index(slot)].readyAt;
        return ready > now ? ready - now : 0.0;
    }

    void
    takePrefetchFlag(const CacheSlot &slot)
    {
        Line &l = lines_[index(slot)];
        if (l.prefetched) {
            counters_.prefetchUseful++;
            l.prefetched = false;
        }
    }

    void
    markPresence(const CacheSlot &slot, int core)
    {
        lines_[index(slot)].presence |= static_cast<uint16_t>(1U << core);
    }

    uint16_t
    presence(const CacheSlot &slot) const
    {
        return slot.hit() ? lines_[index(slot)].presence : 0;
    }

    uint64_t
    validLines() const
    {
        uint64_t n = 0;
        for (Addr t : tags_)
            n += t != kInvalidTag;
        return n;
    }

    bool directory() const { return directory_; }
    const CacheCounters &counters() const { return counters_; }

  private:
    static constexpr Addr kInvalidTag = ~Addr{0};
    static constexpr uint8_t maxRrpv = 3;
    static constexpr uint8_t insertRrpv = 2;

    struct Line
    {
        bool dirty = false;
        bool prefetched = false;
        uint16_t presence = 0;
        double readyAt = 0.0;
    };

    int
    setIndex(Addr line) const
    {
        uint64_t ln = line / lineBytes;
        if (hashIndex_) {
            ln *= 0x9E3779B97F4A7C15ULL;
            ln ^= ln >> 29;
            ln *= 0xBF58476D1CE4E5B9ULL;
            ln ^= ln >> 32;
        }
        return static_cast<int>(ln % static_cast<uint64_t>(numSets_));
    }

    int
    findWay(int set, Addr tag) const
    {
        const Addr *tags = tags_.data() + static_cast<size_t>(set) * assoc_;
        for (int w = 0; w < assoc_; w++) {
            if (tags[w] == tag)
                return w;
        }
        return -1;
    }

    size_t
    index(const CacheSlot &slot) const
    {
        return static_cast<size_t>(slot.set) * assoc_ + slot.way;
    }

    void
    onHit(size_t idx)
    {
        if (lru_)
            stamp_[idx] = ++clock_;
        else
            rrpv_[idx] = 0;
    }

    int
    pickVictim(size_t base)
    {
        if (lru_) {
            int v = 0;
            uint64_t oldest = stamp_[base];
            for (int w = 1; w < assoc_; w++) {
                if (stamp_[base + w] < oldest) {
                    oldest = stamp_[base + w];
                    v = w;
                }
            }
            return v;
        }
        while (true) {
            for (int w = 0; w < assoc_; w++) {
                if (rrpv_[base + w] >= maxRrpv)
                    return w;
            }
            for (int w = 0; w < assoc_; w++)
                rrpv_[base + w]++;
        }
    }

    int numSets_;
    int assoc_;
    bool directory_;
    bool hashIndex_;
    bool lru_;
    std::vector<Addr> tags_;
    std::vector<Line> lines_;
    uint64_t clock_ = 0;
    std::vector<uint64_t> stamp_;
    std::vector<uint8_t> rrpv_;
    CacheCounters counters_;
};

} // namespace zcomp

#endif // ZCOMP_TESTS_CACHE_REF_HH
