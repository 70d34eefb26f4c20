/**
 * @file
 * Machine and simulation configuration.
 *
 * ArchConfig defaults reproduce Table 1 of the paper:
 *   16 cores, x86 AVX512, 2.4 GHz, 4-issue
 *   L1-D/I 32 KB private 8-way LRU
 *   L2 1 MB private 16-way SRRIP, stream/stride prefetcher
 *   L3 24 MB shared 12-way SRRIP
 *   NoC 2D-mesh, XY routing, 2-cycle hop
 *   Memory 4 channels DDR4-2133, 68 GB/s total
 */

#ifndef ZCOMP_COMMON_CONFIG_HH
#define ZCOMP_COMMON_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/units.hh"

namespace zcomp {

/** Cache replacement policies supported by the hierarchy. */
enum class ReplPolicy { LRU, SRRIP };

struct CacheConfig
{
    uint64_t size = 32 * KiB;
    int assoc = 8;
    int latency = 4;                    //!< hit latency in core cycles
    ReplPolicy repl = ReplPolicy::LRU;
    double bytesPerCycle = 64.0;        //!< sustained fill/access bandwidth
    bool hashIndex = false;             //!< XOR-folded set index (L3)
};

struct PrefetchConfig
{
    bool l1IpStride = true;     //!< IP-based stride prefetcher at L1
    bool l2Stream = true;       //!< stream/stride prefetcher at L2
    int l2Degree = 8;           //!< prefetches issued per trained stream hit
    int l2Distance = 32;        //!< how far ahead (in lines) streams run
    int l2StreamTableSize = 32; //!< concurrently tracked streams
};

struct DramConfig
{
    int channels = 4;
    double totalBandwidthGBps = 68.0;   //!< DDR4-2133 x4 channels
    double latencyNs = 60.0;            //!< idle round-trip latency
    uint64_t interleaveBytes = 256;     //!< channel interleave granularity
};

struct NocConfig
{
    int meshX = 4;
    int meshY = 4;
    int hopCycles = 2;
};

struct CoreConfig
{
    int issueWidth = 4;
    double freqGHz = 2.4;
    int mshrs = 10;             //!< outstanding misses per core
    int storeBuffer = 56;       //!< store buffer entries
    int loadPorts = 2;          //!< L1 loads accepted per cycle
    int storePorts = 1;         //!< L1 stores accepted per cycle
};

/** ZCOMP micro-architecture knobs (Section 3.3). */
struct ZcompConfig
{
    int logicLatency = 2;       //!< pipeline cycles for the logic component
    int logicThroughput = 1;    //!< instructions accepted per cycle
};

struct ArchConfig
{
    int numCores = 16;
    CoreConfig core;
    // The shared L3 hashes its set index (as Intel LLCs do) so that
    // power-of-two-strided parallel streams do not alias into the
    // same sets in lockstep.
    CacheConfig l1 = {32 * KiB, 8, 4, ReplPolicy::LRU, 192.0, false};
    CacheConfig l2 = {1 * MiB, 16, 14, ReplPolicy::SRRIP, 64.0, false};
    CacheConfig l3 = {24 * MiB, 12, 36, ReplPolicy::SRRIP, 32.0, true};
    PrefetchConfig prefetch;
    DramConfig dram;
    NocConfig noc;
    ZcompConfig zcomp;

    /** DRAM latency converted to core cycles. */
    int dramLatencyCycles() const;

    /** Total DRAM bytes per core cycle across all channels. */
    double dramBytesPerCycle() const;

    /** One-line summary for bench banners. */
    std::string summary() const;
};

} // namespace zcomp

#endif // ZCOMP_COMMON_CONFIG_HH
