/**
 * @file
 * A set-associative, write-back, write-allocate cache model with
 * pluggable replacement (LRU/SRRIP), prefetch-fill tracking, and an
 * optional per-line presence directory (used by the inclusive shared
 * L3 to back-invalidate private caches).
 *
 * The cache stores only tags and state - data always lives in host
 * memory; the timing and traffic consequences of hits, fills,
 * writebacks and invalidations are handled by MemoryHierarchy.
 */

#ifndef ZCOMP_MEM_CACHE_HH
#define ZCOMP_MEM_CACHE_HH

#include <memory>
#include <string>
#include <vector>

#include "common/check.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "mem/addr.hh"
#include "mem/replacement.hh"

namespace zcomp {

/** A line displaced by Cache::fill(). */
struct CacheVictim
{
    bool valid = false;     //!< a line was evicted
    bool dirty = false;     //!< ... and it was dirty (writeback needed)
    bool wasPrefetch = false; //!< ... and it was a never-used prefetch
    Addr addr = 0;          //!< line address of the evicted line
    uint16_t presence = 0;  //!< directory bits of the evicted line
};

/**
 * Where Cache::probe() found a line: its set and, if resident, its
 * way. Valid until the next fill or invalidate on the same cache;
 * fill() updates the slot it is given, and a miss slot survives
 * invalidations because fill() picks its way at fill time (DESIGN.md
 * section 4.3b).
 */
struct CacheSlot
{
    Addr line = 0;
    int set = 0;
    int way = -1;           //!< -1: the line is not resident

    bool hit() const { return way >= 0; }
};

/** Event counters, aggregated externally into the hierarchy report. */
struct CacheCounters
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t writebacks = 0;        //!< dirty evictions
    uint64_t prefetchFills = 0;
    uint64_t prefetchUseful = 0;    //!< prefetched lines hit by demand
    uint64_t prefetchUnused = 0;    //!< prefetched lines evicted unused
    uint64_t invalidations = 0;
    uint64_t evictions = 0;         //!< total victims displaced
};

/**
 * Every operation works on a slot from probe(), so a caller that
 * needs several things done to one line looks it up once.
 */
class Cache
{
  public:
    Cache(std::string name, const CacheConfig &cfg, bool directory);

    /** Find a line's set and way. Pure: updates no state. */
    CacheSlot probe(Addr line) const;

    /**
     * Count a demand access to a probed line. On a hit, updates
     * replacement state, credits a pending prefetch and marks dirty
     * for writes. @return true on hit.
     */
    bool demand(const CacheSlot &slot, bool is_write);

    /**
     * Make a probed line resident (demand or prefetch fill). A slot
     * that hit is refreshed in place; otherwise the way is chosen now,
     * from the set as it is at fill time: the first empty way, else
     * the replacement victim. The slot is updated to the filled way.
     *
     * @param ready_at cycle at which the fill data actually arrives;
     *        a demand access before then pays the residual latency
     *        (used to model in-flight prefetches, so a saturated DRAM
     *        makes prefetched lines late rather than free).
     * @return the displaced line, if any.
     */
    CacheVictim fill(CacheSlot &slot, bool dirty, bool is_prefetch,
                     double ready_at = 0.0);

    /**
     * Drop a probed line if resident. @return true if it was dirty
     * (the caller is responsible for the writeback).
     */
    bool invalidate(const CacheSlot &slot);

    /** Residual wait until a resident line's fill data arrives. */
    double readyWait(const CacheSlot &slot, double now) const;

    /**
     * Clear a resident line's prefetch flag on behalf of an imminent
     * demand access, crediting the prefetch as useful.
     */
    void takePrefetchFlag(const CacheSlot &slot);

    /** Set a presence bit on a resident line (directory caches only). */
    void markPresence(const CacheSlot &slot, int core);

    /** Presence bits of a probed line (0 if absent). */
    uint16_t presence(const CacheSlot &slot) const;

    int numSets() const { return numSets_; }
    int assoc() const { return assoc_; }
    const std::string &name() const { return name_; }

    /** Currently valid lines (occupancy probe for tests/benches). */
    uint64_t validLines() const;

    const CacheCounters &counters() const { return counters_; }

    /** Zero every counter; contents and replacement state stay. */
    void resetCounters() { counters_ = {}; }

  private:
    /**
     * The tag of an empty way. Lookups are a pure tag-array probe (no
     * valid bit): line addresses are 64-byte aligned so they can never
     * equal the all-ones sentinel, making "tag matches" equivalent to
     * "valid and tag matches". The tags of each set are contiguous, so
     * a probe scans one short array.
     */
    static constexpr Addr kInvalidTag = ~Addr{0};

    /** Per-line state other than the tag (tag lives in tags_). */
    struct Line
    {
        bool dirty = false;
        bool prefetched = false;    //!< filled by prefetch, not yet used
        uint16_t presence = 0;      //!< cores holding this line (L3 only)
        double readyAt = 0.0;       //!< fill-data arrival time
    };

    int setIndex(Addr line) const;
    int findWay(int set, Addr tag) const;

    /** Index of a hit slot's line; checks the slot is not stale. */
    size_t resident(const CacheSlot &slot) const;

    std::string name_;
    int numSets_;
    int assoc_;
    bool directory_;
    bool hashIndex_ = false;
    std::vector<Addr> tags_;        //!< [set * assoc + way], kInvalidTag = empty
    std::vector<Line> lines_;
    std::unique_ptr<ReplacementPolicy> repl_;
    CacheCounters counters_;
};

// probe() runs for every line at every level - the timing model's
// hottest path - so the lookup chain stays in the header, where it
// inlines into the hierarchy walk.

inline int
Cache::setIndex(Addr line) const
{
    uint64_t ln = line / lineBytes;
    if (hashIndex_) {
        // Strong multiplicative mix (Intel-LLC style complex set
        // hashing): parallel streams at power-of-two strides spread
        // uniformly over all sets instead of aliasing, and each
        // stream's lines equidistribute across the whole index space.
        ln *= 0x9E3779B97F4A7C15ULL;
        ln ^= ln >> 29;
        ln *= 0xBF58476D1CE4E5B9ULL;
        ln ^= ln >> 32;
    }
    return static_cast<int>(ln % static_cast<uint64_t>(numSets_));
}

/** First way of `set` holding `tag` (kInvalidTag: an empty way), or -1. */
inline int
Cache::findWay(int set, Addr tag) const
{
    const Addr *tags = tags_.data() + static_cast<size_t>(set) * assoc_;
    for (int w = 0; w < assoc_; w++) {
        if (tags[w] == tag)
            return w;
    }
    return -1;
}

inline CacheSlot
Cache::probe(Addr line) const
{
    ZCOMP_DCHECK(line != kInvalidTag, "probe of the invalid-tag sentinel");
    int set = setIndex(line);
    return {line, set, findWay(set, line)};
}

} // namespace zcomp

#endif // ZCOMP_MEM_CACHE_HH
