/** @file Unit tests for ArchConfig: Table 1 defaults, derived values. */

#include <gtest/gtest.h>

#include "common/config.hh"

using namespace zcomp;

TEST(Config, Table1Defaults)
{
    ArchConfig cfg;
    EXPECT_EQ(cfg.numCores, 16);
    EXPECT_EQ(cfg.core.issueWidth, 4);
    EXPECT_DOUBLE_EQ(cfg.core.freqGHz, 2.4);
    EXPECT_EQ(cfg.l1.size, 32 * KiB);
    EXPECT_EQ(cfg.l1.assoc, 8);
    EXPECT_EQ(cfg.l1.repl, ReplPolicy::LRU);
    EXPECT_EQ(cfg.l2.size, 1 * MiB);
    EXPECT_EQ(cfg.l2.assoc, 16);
    EXPECT_EQ(cfg.l2.repl, ReplPolicy::SRRIP);
    EXPECT_EQ(cfg.l3.size, 24 * MiB);
    EXPECT_EQ(cfg.l3.assoc, 12);
    EXPECT_EQ(cfg.dram.channels, 4);
    EXPECT_DOUBLE_EQ(cfg.dram.totalBandwidthGBps, 68.0);
    EXPECT_EQ(cfg.noc.hopCycles, 2);
    EXPECT_EQ(cfg.zcomp.logicLatency, 2);
}

TEST(Config, DerivedQuantities)
{
    ArchConfig cfg;
    // 68 GB/s at 2.4 GHz -> ~28.3 bytes/cycle.
    EXPECT_NEAR(cfg.dramBytesPerCycle(), 68.0 / 2.4, 1e-9);
    // 60 ns at 2.4 GHz -> 144 cycles.
    EXPECT_EQ(cfg.dramLatencyCycles(), 144);
}

TEST(Config, SummaryMentionsKeyNumbers)
{
    ArchConfig cfg;
    std::string s = cfg.summary();
    EXPECT_NE(s.find("16 cores"), std::string::npos);
    EXPECT_NE(s.find("2.4 GHz"), std::string::npos);
    EXPECT_NE(s.find("24MB"), std::string::npos);
}
