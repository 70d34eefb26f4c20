/**
 * @file
 * A set-associative, write-back, write-allocate cache model with
 * LRU or SRRIP replacement, prefetch-fill tracking, and an optional
 * per-line presence directory (used by the inclusive shared L3 to
 * back-invalidate private caches).
 *
 * The cache stores only tags and state - data always lives in host
 * memory; the timing and traffic consequences of hits, fills,
 * writebacks and invalidations are handled by MemoryHierarchy. Each
 * modelled set is one 64-byte-aligned host block holding every field
 * of its ways (DESIGN.md section 4.3b), so a lookup and the slot
 * operation after it touch adjacent host lines.
 */

#ifndef ZCOMP_MEM_CACHE_HH
#define ZCOMP_MEM_CACHE_HH

#include <string>
#include <vector>

#include "common/check.hh"
#include "common/config.hh"
#include "mem/addr.hh"

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

    // The set blocks are addressed through a pointer into storage_.
    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    /**
     * Find a line's set and way. Pure: updates no state. Tags hold
     * 32-bit line numbers, so the line must lie below 2^38 bytes
     * (always checked: a larger address would alias a smaller one).
     */
    CacheSlot probe(Addr line) const;

    /**
     * Ask the host to prefetch the set block a line maps to. Reads
     * and writes no simulated state; any address is allowed.
     */
    void touchSet(Addr line) const;

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

    /**
     * Return to the just-constructed state in place: every way empty,
     * replacement state and LRU clock reset, counters zeroed.
     */
    void clear();

  private:
    /**
     * The tag of an empty way. Tags are line numbers (address / 64),
     * which probe() keeps below this sentinel, so "tag matches" is
     * equivalent to "valid and tag matches" with no valid bit.
     */
    static constexpr uint32_t kEmptyTag = ~uint32_t{0};

    /** Per-way flag bits. */
    static constexpr uint8_t kDirty = 1;
    static constexpr uint8_t kPrefetched = 2;  //!< filled by prefetch, unused

    /** SRRIP: 2-bit re-reference prediction values. */
    static constexpr uint8_t kMaxRrpv = 3;
    static constexpr uint8_t kInsertRrpv = 2;

    /** Bytes per host line: the block alignment and prefetch stride. */
    static constexpr size_t kHostLine = 64;

    /** Field `off` of set `set`'s block, as an array of T (one per way). */
    template <typename T>
    T *
    field(int set, size_t off) const
    {
        return reinterpret_cast<T *>(base_ +
                                     static_cast<size_t>(set) * stride_ +
                                     off);
    }

    int setIndex(uint64_t ln) const;
    int findWay(int set, uint32_t tag) const;

    /** Way of a hit slot; checks the slot is not stale. */
    int resident(const CacheSlot &slot) const;

    /** Update replacement state for a hit (rrpv 0) or an insert. */
    void markUsed(int set, int way, uint8_t rrpv);

    /** Choose the way to evict from a full set. */
    int pickVictim(int set);

    std::string name_;
    int numSets_;
    uint64_t setMask_ = 0;  //!< numSets_ - 1 if a power of two (> 1), else 0
    int assoc_;
    bool directory_;
    bool hashIndex_ = false;
    bool lru_ = false;
    // Byte offsets of the per-way arrays within a set block: the tags
    // start it, then flags, replacement state, presence (directory
    // only) and ready times. stride_ is the block size.
    size_t flagsOff_ = 0;
    size_t replOff_ = 0;
    size_t presenceOff_ = 0;
    size_t readyOff_ = 0;
    size_t stride_ = 0;
    std::vector<uint8_t> storage_;  //!< every set block, plus alignment slack
    uint8_t *base_ = nullptr;       //!< first block, 64-byte aligned
    uint64_t clock_ = 0;            //!< LRU stamp source
    CacheCounters counters_;
};

// probe() runs for every line at every level - the timing model's
// hottest path - so the lookup chain stays in the header, where it
// inlines into the hierarchy walk.

inline int
Cache::setIndex(uint64_t ln) const
{
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
    // Table 1's set counts are powers of two: mask, don't divide.
    return static_cast<int>(setMask_ ? ln & setMask_
                                     : ln % static_cast<uint64_t>(numSets_));
}

/** First way of `set` holding `tag` (kEmptyTag: an empty way), or -1. */
inline int
Cache::findWay(int set, uint32_t tag) const
{
    const uint32_t *tags = field<const uint32_t>(set, 0);
    for (int w = 0; w < assoc_; w++) {
        if (tags[w] == tag)
            return w;
    }
    return -1;
}

inline CacheSlot
Cache::probe(Addr line) const
{
    uint64_t ln = line / lineBytes;
    ZCOMP_CHECK(ln < kEmptyTag,
                "cache %s: line 0x%llx is beyond the 2^38-byte address "
                "space of 32-bit tags",
                name_.c_str(), static_cast<unsigned long long>(line));
    int set = setIndex(ln);
    return {line, set, findWay(set, static_cast<uint32_t>(ln))};
}

inline void
Cache::touchSet(Addr line) const
{
    const uint8_t *block = field<const uint8_t>(setIndex(line / lineBytes), 0);
    for (size_t off = 0; off < stride_; off += kHostLine)
        __builtin_prefetch(block + off);
}

} // namespace zcomp

#endif // ZCOMP_MEM_CACHE_HH
