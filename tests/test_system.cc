/** @file Unit tests for the multicore system and phase barriers. */

#include <gtest/gtest.h>

#include "common/fault.hh"
#include "cpu/system.hh"
#include "stats_path.hh"

using namespace zcomp;

namespace {

ArchConfig
cfg4()
{
    ArchConfig cfg;
    cfg.numCores = 4;
    cfg.prefetch.l1IpStride = false;
    cfg.prefetch.l2Stream = false;
    return cfg;
}

/** 64 cold line loads per core on four cores: every one reads DRAM. */
TracePhase
coldLoads()
{
    TracePhase p("work", 4);
    for (int c = 0; c < 4; c++) {
        for (int i = 0; i < 64; i++) {
            p.perCore[static_cast<size_t>(c)].push_back(
                TraceOp::load(0x10000000 + static_cast<Addr>(c) *
                                               0x100000 +
                                  static_cast<Addr>(i) * 64,
                              64, 1, 1));
        }
    }
    return p;
}

} // namespace

TEST(System, EmptyPhaseIsFree)
{
    MultiCoreSystem sys(cfg4());
    TracePhase p("empty", 4);
    PhaseResult r = sys.runPhase(p);
    EXPECT_DOUBLE_EQ(r.cycles, 0.0);
}

TEST(System, BalancedPhaseHasNoSync)
{
    MultiCoreSystem sys(cfg4());
    TracePhase p("balanced", 4);
    for (auto &t : p.perCore) {
        for (int i = 0; i < 100; i++)
            t.push_back(TraceOp::issue(4));
    }
    sys.runPhase(p);
    CycleBreakdown bd = sys.breakdown();
    EXPECT_NEAR(bd.sync, 0.0, 1.0);
    EXPECT_NEAR(bd.compute, 400.0, 1.0);
}

TEST(System, ImbalancedPhaseChargesSyncToIdleCores)
{
    MultiCoreSystem sys(cfg4());
    TracePhase p("imbalanced", 4);
    for (int i = 0; i < 400; i++)
        p.perCore[0].push_back(TraceOp::issue(4));  // 400 cycles
    PhaseResult r = sys.runPhase(p);
    EXPECT_NEAR(r.cycles, 400.0, 1.0);
    CycleBreakdown bd = sys.breakdown();
    EXPECT_NEAR(bd.sync, 3 * 400.0, 3.0);   // 3 idle cores wait
}

TEST(System, PhasesRunBackToBack)
{
    MultiCoreSystem sys(cfg4());
    TracePhase p("a", 4);
    for (int i = 0; i < 10; i++)
        p.perCore[0].push_back(TraceOp::issue(4));
    PhaseResult r1 = sys.runPhase(p);
    PhaseResult r2 = sys.runPhase(p);
    EXPECT_DOUBLE_EQ(r2.startTime, r1.endTime);
    EXPECT_NEAR(r2.cycles, r1.cycles, 1e-9);
}

TEST(System, SharedDramContentionSlowsParallelStreams)
{
    // One core streaming from DRAM is MSHR-latency-limited
    // (10 in-flight misses of ~150 cycles each) and leaves DRAM
    // bandwidth to spare. Sixteen cores streaming disjoint regions
    // together demand ~16x that and must saturate the 68 GB/s DRAM,
    // slowing every core down.
    ArchConfig cfg;
    cfg.prefetch.l1IpStride = false;
    cfg.prefetch.l2Stream = false;
    auto stream_trace = [](Addr base) {
        CoreTrace t;
        for (int i = 0; i < 4096; i++) {
            t.push_back(TraceOp::load(base + static_cast<Addr>(i) * 64,
                                      64, 1, 1));
        }
        return t;
    };

    MultiCoreSystem solo(cfg);
    TracePhase p1("solo", 16);
    p1.perCore[0] = stream_trace(0x10000000);
    double solo_cycles = solo.runPhase(p1).cycles;

    MultiCoreSystem full(cfg);
    TracePhase p16("full", 16);
    for (int c = 0; c < 16; c++) {
        p16.perCore[static_cast<size_t>(c)] = stream_trace(
            0x10000000 + static_cast<Addr>(c) * 0x4000000);
    }
    double full_cycles = full.runPhase(p16).cycles;

    EXPECT_GT(full_cycles, 1.5 * solo_cycles);
    // ... but far less than 16x: the solo run had bandwidth headroom.
    EXPECT_LT(full_cycles, 12.0 * solo_cycles);
}

TEST(System, SecondsFollowFrequency)
{
    ArchConfig cfg = cfg4();
    MultiCoreSystem sys(cfg);
    TracePhase p("a", 4);
    for (int i = 0; i < 2400; i++)
        p.perCore[0].push_back(TraceOp::issue(4));
    sys.runPhase(p);
    EXPECT_NEAR(sys.seconds(), 2400.0 / (2.4e9), 1e-12);
}

TEST(System, FewerTracesThanCoresIsAllowed)
{
    MultiCoreSystem sys(cfg4());
    TracePhase p("partial", 2);
    for (int i = 0; i < 10; i++)
        p.perCore[1].push_back(TraceOp::issue(4));
    PhaseResult r = sys.runPhase(p);
    EXPECT_NEAR(r.cycles, 10.0, 1.0);
}

TEST(System, DumpStatsReport)
{
    MultiCoreSystem sys(cfg4());
    sys.runPhase(coldLoads());

    Json stats = sys.statsJson();
    const Json *cycles = statsCounter(stats, "cycles");
    ASSERT_NE(cycles, nullptr);
    EXPECT_GT(cycles->asUint(), 0u);
    // Per-core and hierarchy subtrees are populated.
    EXPECT_NE(statsCounter(stats, "core0.memory_cycles"), nullptr);
    const Json *dram_read = statsCounter(stats, "mem.dram.bytes_read");
    ASSERT_NE(dram_read, nullptr);
    EXPECT_EQ(dram_read->asUint(), 4u * 64 * 64);
    EXPECT_NE(statsCounter(stats, "mem.l3.misses"), nullptr);
    EXPECT_NE(statsCounter(stats, "mem.links.l3_dram_bytes"), nullptr);

    // "mem" has no counters of its own, so no "counters" key.
    const Json *mem = stats.find("children")->find("mem");
    ASSERT_NE(mem, nullptr);
    EXPECT_EQ(mem->find("counters"), nullptr);
}

TEST(System, StatsJsonFaultBitflipsOnlyWhenInjected)
{
    MultiCoreSystem clean(cfg4());
    clean.runPhase(coldLoads());
    Json clean_stats = clean.statsJson();
    EXPECT_EQ(statsCounter(clean_stats, "mem.dram.fault_bitflips"),
              nullptr);

    FaultInjector::global().configure("dram.bitflip:1");
    MultiCoreSystem faulty(cfg4());
    faulty.runPhase(coldLoads());
    FaultInjector::global().reset();
    Json stats = faulty.statsJson();
    const Json *flips = statsCounter(stats, "mem.dram.fault_bitflips");
    ASSERT_NE(flips, nullptr);
    EXPECT_GT(flips->asUint(), 0u);
    EXPECT_EQ(flips->asUint(), faulty.mem().dram().injectedBitflips());
    // The key comes last in the dram group.
    const Json *dram = stats.find("children")
                           ->find("mem")
                           ->find("children")
                           ->find("dram")
                           ->find("counters");
    EXPECT_EQ(dram->members().back().first, "fault_bitflips");
}
