/**
 * @file
 * Hardware prefetchers per Table 1: a stream/stride prefetcher at L2
 * and an IP-based stride prefetcher at L1.
 *
 * The L2 stream prefetcher tracks up to N concurrent streams at 4 KiB
 * page granularity. Two accesses in the same direction train a
 * stream; once trained it runs `distance` lines ahead of the demand
 * stream, issuing up to `degree` new prefetches per demand access.
 * This is the mechanism Section 3.3 relies on: ZCOMP's sequentially-
 * dependent header/data reads are perfectly sequential in memory, so
 * the stream prefetcher hides their latency (the paper reports 98-99%
 * accuracy and 94-97% coverage, which the bench_ablation_prefetch
 * binary reproduces).
 */

#ifndef ZCOMP_MEM_PREFETCHER_HH
#define ZCOMP_MEM_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "mem/addr.hh"

namespace zcomp {

/**
 * Page granularity the prefetchers reason at: the stream table tracks
 * one stream per 4 KiB page (crossing streams retarget their
 * tracker), and IP-stride candidates stop at the page boundary the
 * way real hardware does (the next page's physical mapping is
 * unknown).
 */
constexpr uint64_t prefetchPageBytes = 4 * KiB;

/** L2 stream/stride prefetcher. */
class StreamPrefetcher
{
  public:
    explicit StreamPrefetcher(const PrefetchConfig &cfg);

    /**
     * Observe a demand access to a line; append up to cfg.degree
     * prefetch line addresses to out.
     */
    void onAccess(Addr line, std::vector<Addr> &out);

    uint64_t issued() const { return issued_; }
    void reset();

  private:
    struct Stream
    {
        Addr lastLine = 0;      //!< most recent demand line
        Addr nextIssue = 0;     //!< next line to prefetch
        int direction = 1;      //!< +1 ascending, -1 descending
        int confidence = 0;
        uint64_t lastUse = 0;
    };

    static constexpr uint64_t pageBytes = prefetchPageBytes;

    /** pages_ entry of a free stream; never a 4 KiB-aligned page. */
    static constexpr Addr kFree = ~Addr{0};

    PrefetchConfig cfg_;
    /**
     * 4 KiB region each stream tracks, apart from the rest of its
     * state so the per-access lookup scans one short array. A page is
     * tracked by at most one stream.
     */
    std::vector<Addr> pages_;
    std::vector<Stream> streams_;
    uint64_t clock_ = 0;
    uint64_t issued_ = 0;
};

/** L1 IP-based stride prefetcher. */
class IpStridePrefetcher
{
  public:
    explicit IpStridePrefetcher(int table_size = 64, int degree = 2);

    /**
     * Observe a demand access from instruction pc to a line; append
     * prefetch line addresses to out.
     */
    void onAccess(uint32_t pc, Addr line, std::vector<Addr> &out);

    uint64_t issued() const { return issued_; }
    void reset();

  private:
    struct Entry
    {
        bool valid = false;
        uint32_t pc = 0;
        Addr lastLine = 0;
        int64_t stride = 0;
        int confidence = 0;
    };

    std::vector<Entry> table_;
    int degree_;
    uint64_t issued_ = 0;
};

} // namespace zcomp

#endif // ZCOMP_MEM_PREFETCHER_HH
