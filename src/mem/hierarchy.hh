/**
 * @file
 * MemoryHierarchy - the full Table 1 memory system: per-core L1-D and
 * L2 caches, a shared sliced inclusive L3 with a presence directory,
 * stream (L2) and IP-stride (L1) prefetchers, a 2D-mesh NoC, and the
 * multi-channel DRAM model.
 *
 * Inclusion policy: L2 is inclusive of L1 (an L2 eviction
 * back-invalidates the core's L1), and the shared L3 is inclusive of
 * all private caches (an L3 eviction back-invalidates every core whose
 * presence bit is set). Writes allocate and dirty the L1 line; dirty
 * data migrates down on eviction.
 *
 * Traffic accounting per link (bytes):
 *   core<->L1 : exact requested bytes of each load/store (this is the
 *               quantity Figure 12a reports - compressed accesses move
 *               fewer bytes between core and caches)
 *   L1<->L2, L2<->L3, L3<->DRAM : whole-line fills and writebacks.
 */

#ifndef ZCOMP_MEM_HIERARCHY_HH
#define ZCOMP_MEM_HIERARCHY_HH

#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/json.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/noc.hh"
#include "mem/prefetcher.hh"

namespace zcomp {

/** Result of one core-issued memory access. */
struct AccessResult
{
    double latency = 0;     //!< cycles until data available
    int level = 1;          //!< deepest level consulted (1..3, 4=DRAM)
};

/** Snapshot of all hierarchy counters for reporting. */
struct HierSnapshot
{
    uint64_t coreL1Bytes = 0;
    uint64_t l1L2Bytes = 0;
    uint64_t l2L3Bytes = 0;
    uint64_t l3DramBytes = 0;

    uint64_t l1Hits = 0, l1Misses = 0;
    uint64_t l2Hits = 0, l2Misses = 0;
    uint64_t l3Hits = 0, l3Misses = 0;

    uint64_t l2PrefIssued = 0;
    uint64_t l2PrefUseful = 0;
    uint64_t l2PrefUnused = 0;
    uint64_t l2DemandMissesBelow = 0;   //!< demand L2 misses (coverage)

    uint64_t nocHops = 0;   //!< mesh hops traversed (demand + prefetch)

    /** Bytes crossing every on-chip link (core-L1 + L1-L2 + L2-L3). */
    uint64_t onChipBytes() const
    {
        return coreL1Bytes + l1L2Bytes + l2L3Bytes;
    }

    /** Total bytes across all links including DRAM. */
    uint64_t totalBytes() const { return onChipBytes() + l3DramBytes; }

    /** Prefetch accuracy: useful / issued. */
    double prefetchAccuracy() const;

    /** Prefetch coverage: useful / (useful + uncovered demand misses). */
    double prefetchCoverage() const;
};

class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const ArchConfig &cfg);

    /**
     * Issue one access from a core.
     * @param core  requesting core id
     * @param addr  simulated virtual byte address
     * @param bytes access size (may span lines; may be < a line)
     * @param is_write store (true) or load (false)
     * @param now   core-cycle timestamp of the request
     * @param pc    pseudo instruction pointer (for the L1 prefetcher)
     */
    AccessResult access(int core, Addr addr, uint32_t bytes,
                        bool is_write, double now, uint32_t pc);

    /** Current counter snapshot. */
    HierSnapshot snapshot() const;

    /**
     * Verify the cross-level accounting identities (always-on checks;
     * aborts on violation). Conservation laws enforced:
     *  - L2 accesses  == L1 demand misses + L1 dirty writebacks
     *  - L2 misses    == demand misses counted below L2
     *  - L3 accesses  == L2 demand misses + prefetch fills
     *                    + L2 writeback probes
     *  - DRAM bytes   == bytes accounted on the L3<->DRAM link
     * plus structural sanity (line-granular link counters, even NoC
     * hop totals, per-cache prefetch/writeback bounds, occupancy
     * within capacity). Called from snapshot(), so every stats dump
     * re-validates the run; tests may call it directly.
     */
    void checkInvariants() const;

    /**
     * The counters as a stats tree: {"children": {name: group}}, one
     * {"counters": {name: value}} group each for links, noc, every
     * l1_N/l2_N, l3 and dram (the --report rows' "mem" subtree).
     */
    Json statsJson() const;

    /** Clear counters but keep cache contents (post-warmup). */
    void resetStats();

    /** Drop all cache contents and counters, in place. */
    void resetAll();

    /**
     * Host-prefetch the L1, L2 and L3 set blocks a core's access to
     * `addr` will probe. Reads and writes no simulated state.
     */
    void
    hint(int core, Addr addr) const
    {
        Addr line = lineAddr(addr);
        l1_[static_cast<size_t>(core)]->touchSet(line);
        l2_[static_cast<size_t>(core)]->touchSet(line);
        l3_->touchSet(line);
    }

    const ArchConfig &config() const { return cfg_; }
    const Dram &dram() const { return dram_; }

  private:
    /** Serve one line; returns {latency, level}. */
    AccessResult accessLine(int core, Addr line, bool is_write,
                            double now, uint32_t pc);

    /**
     * Count a demand access to a probed L3 line, fetch it from DRAM
     * (read issued at `dram_at`) if absent, and mark the core in the
     * directory. @return the DRAM latency (0 on an L3 hit).
     */
    double fillL3(int core, CacheSlot &l3, double now, double dram_at);

    /** Handle an L3 victim: back-invalidate and write back. */
    void evictFromL3(const CacheVictim &victim, double now);

    /** Fill a probed line into a core's L2, handling inclusion of L1. */
    void insertL2(int core, CacheSlot &l2, bool prefetch, double now,
                  double ready_at = 0.0);

    /** Fill a probed line into a core's L1. */
    void insertL1(int core, CacheSlot &l1, bool dirty);

    /** Run the L2 stream prefetcher for a demand access. */
    void runL2Prefetch(int core, Addr line, double now);

    /** Run the L1 IP-stride prefetcher. */
    void runL1Prefetch(int core, Addr line, uint32_t pc, double now);

    ArchConfig cfg_;
    std::vector<std::unique_ptr<Cache>> l1_;
    std::vector<std::unique_ptr<Cache>> l2_;
    std::unique_ptr<Cache> l3_;
    std::vector<StreamPrefetcher> l2Pref_;
    std::vector<IpStridePrefetcher> l1Pref_;
    Mesh2D noc_;
    Dram dram_;

    // Bandwidth servers (busy-until, in cycles).
    std::vector<double> l1Busy_;
    std::vector<double> l2Busy_;
    std::vector<double> l3SliceBusy_;

    // Link traffic counters (bytes).
    uint64_t coreL1Bytes_ = 0;
    uint64_t l1L2Bytes_ = 0;
    uint64_t l2L3Bytes_ = 0;
    uint64_t l3DramBytes_ = 0;
    uint64_t l2DemandMissesBelow_ = 0;
    uint64_t l2PrefFilled_ = 0;     //!< prefetch fills actually performed
    uint64_t l3WbProbes_ = 0;       //!< L2 writebacks probing the L3
    uint64_t nocHops_ = 0;          //!< round-trip mesh hops traversed

    /**
     * Drop DRAM-bound prefetches once a channel queue exceeds this.
     * Healthy bandwidth-bound streaming keeps the queues a few
     * hundred cycles deep; the cap only breaks the runaway feedback
     * where unthrottled fills outpace the channels indefinitely.
     */
    static constexpr double prefetchBacklogCap_ = 3000.0;

    std::vector<Addr> prefetchScratch_;
};

} // namespace zcomp

#endif // ZCOMP_MEM_HIERARCHY_HH
