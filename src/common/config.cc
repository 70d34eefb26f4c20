#include "common/config.hh"

#include <cmath>

#include "common/log.hh"

namespace zcomp {

int
ArchConfig::dramLatencyCycles() const
{
    return static_cast<int>(std::lround(dram.latencyNs * core.freqGHz));
}

double
ArchConfig::dramBytesPerCycle() const
{
    // GB/s -> bytes per core cycle: (GB/s) / (Gcycles/s).
    return dram.totalBandwidthGBps / core.freqGHz;
}

std::string
ArchConfig::summary() const
{
    return format(
        "%d cores @ %.1f GHz, %d-issue | L1 %lluKB/%d-way | "
        "L2 %lluKB/%d-way | L3 %lluMB/%d-way | %d ch DDR4 %.0f GB/s",
        numCores, core.freqGHz, core.issueWidth,
        (unsigned long long)(l1.size / KiB), l1.assoc,
        (unsigned long long)(l2.size / KiB), l2.assoc,
        (unsigned long long)(l3.size / MiB), l3.assoc, dram.channels,
        dram.totalBandwidthGBps);
}

} // namespace zcomp
