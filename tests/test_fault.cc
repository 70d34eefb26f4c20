/** @file Unit tests for the FaultInjector and the SimError hierarchy. */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "common/fault.hh"

using namespace zcomp;

TEST(Fault, DisabledByDefault)
{
    FaultInjector fi;
    EXPECT_FALSE(fi.enabled());
    EXPECT_FALSE(fi.shouldInject(faultsite::KernelTransient));
    EXPECT_NO_THROW(fi.maybeInject(faultsite::KernelTransient));
    EXPECT_EQ(fi.spec(), "");
    EXPECT_EQ(fi.totalInjected(), 0u);
}

TEST(Fault, EmptySpecStaysDisabled)
{
    FaultInjector fi;
    fi.configure("");
    EXPECT_FALSE(fi.enabled());
}

TEST(Fault, EmptySpecDisarmsEarlierConfig)
{
    // Regression: configure("") used to return early and leave the
    // previously armed sites live, contradicting "an empty spec
    // disables injection".
    FaultInjector fi;
    fi.configure("kernel.transient:1");
    EXPECT_TRUE(fi.enabled());
    fi.configure("");
    EXPECT_FALSE(fi.enabled());
    EXPECT_FALSE(fi.shouldInject(faultsite::KernelTransient));
    EXPECT_EQ(fi.spec(), "");
}

TEST(Fault, ConfigureReplacesNotMerges)
{
    FaultInjector fi;
    fi.configure("kernel.transient:1");
    fi.configure("dram.bitflip:1");
    EXPECT_FALSE(fi.shouldInject(faultsite::KernelTransient));
    EXPECT_TRUE(fi.shouldInject(faultsite::DramBitflip));
    EXPECT_EQ(fi.spec(), "dram.bitflip:1");
}

TEST(Fault, ProbabilityOneAlwaysFires)
{
    FaultInjector fi;
    fi.configure("kernel.transient:1");
    EXPECT_TRUE(fi.enabled());
    for (int i = 0; i < 10; i++)
        EXPECT_TRUE(fi.shouldInject(faultsite::KernelTransient));
    EXPECT_EQ(fi.injected(faultsite::KernelTransient), 10u);
    EXPECT_EQ(fi.totalInjected(), 10u);
}

TEST(Fault, ProbabilityZeroNeverFires)
{
    FaultInjector fi;
    fi.configure("dram.bitflip:0");
    EXPECT_TRUE(fi.enabled());
    for (int i = 0; i < 1000; i++)
        EXPECT_FALSE(fi.shouldInject(faultsite::DramBitflip));
    EXPECT_EQ(fi.injected(faultsite::DramBitflip), 0u);
}

TEST(Fault, UnconfiguredSiteNeverFires)
{
    FaultInjector fi;
    fi.configure("kernel.transient:1");
    EXPECT_FALSE(fi.shouldInject(faultsite::DramBitflip));
}

TEST(Fault, SameSeedSameDecisionSequence)
{
    auto decisions = [](const std::string &spec) {
        FaultInjector fi;
        fi.configure(spec);
        std::vector<bool> out;
        for (int i = 0; i < 200; i++)
            out.push_back(fi.shouldInject(faultsite::ZcompHeader));
        return out;
    };
    EXPECT_EQ(decisions("zcomp.header:0.3:42"),
              decisions("zcomp.header:0.3:42"));
    EXPECT_NE(decisions("zcomp.header:0.3:42"),
              decisions("zcomp.header:0.3:43"));
}

TEST(Fault, MaxCapsInjections)
{
    FaultInjector fi;
    fi.configure("kernel.transient:1:7:2");
    EXPECT_TRUE(fi.shouldInject(faultsite::KernelTransient));
    EXPECT_TRUE(fi.shouldInject(faultsite::KernelTransient));
    for (int i = 0; i < 10; i++)
        EXPECT_FALSE(fi.shouldInject(faultsite::KernelTransient));
    EXPECT_EQ(fi.injected(faultsite::KernelTransient), 2u);
}

TEST(Fault, MaybeInjectThrowsTypedError)
{
    FaultInjector fi;
    fi.configure("kernel.transient:1");
    try {
        fi.maybeInject(faultsite::KernelTransient);
        FAIL() << "maybeInject did not throw";
    } catch (const FaultInjected &e) {
        EXPECT_EQ(e.site(), faultsite::KernelTransient);
        EXPECT_STREQ(e.kind(), "fault");
        EXPECT_NE(std::string(e.what()).find("kernel.transient"),
                  std::string::npos);
    }
}

TEST(Fault, SpecCanonicalForm)
{
    FaultInjector fi;
    fi.configure("zcomp.header:0.5,kernel.transient:1:7:2");
    // Sites are kept in name order; optional fields only appear when
    // they were given.
    EXPECT_EQ(fi.spec(), "kernel.transient:1:7:2,zcomp.header:0.5");
}

/** configure(spec()) is the identity on the canonical form, and the
 *  re-armed injector decides exactly like the original: an isolated
 *  worker arms itself from the spec carried in its cell key. */
TEST(Fault, SpecRoundTripsThroughConfigure)
{
    FaultInjector fi;
    fi.configure("zcomp.header:0.1:42:3,kernel.transient:0.3");
    FaultInjector again;
    again.configure(fi.spec());
    EXPECT_EQ(again.spec(), fi.spec());
    EXPECT_EQ(fi.spec(), "kernel.transient:0.3,zcomp.header:0.1:42:3");
    for (int i = 0; i < 200; i++) {
        EXPECT_EQ(again.shouldInject(faultsite::ZcompHeader),
                  fi.shouldInject(faultsite::ZcompHeader));
        EXPECT_EQ(again.shouldInject(faultsite::KernelTransient),
                  fi.shouldInject(faultsite::KernelTransient));
    }
    EXPECT_EQ(fi.injected(faultsite::ZcompHeader), 3u);
}

TEST(Fault, MultiSiteSpecArmsEachSite)
{
    FaultInjector fi;
    fi.configure("dram.bitflip:1,zcomp.stream.truncate:1");
    EXPECT_TRUE(fi.shouldInject(faultsite::DramBitflip));
    EXPECT_TRUE(fi.shouldInject(faultsite::StreamTruncate));
    EXPECT_FALSE(fi.shouldInject(faultsite::KernelTransient));
}

TEST(Fault, ToJsonReportsFiredSitesOnly)
{
    FaultInjector fi;
    fi.configure("kernel.transient:1,dram.bitflip:0");
    fi.shouldInject(faultsite::KernelTransient);
    fi.shouldInject(faultsite::KernelTransient);
    fi.shouldInject(faultsite::DramBitflip);
    Json j = fi.toJson();
    ASSERT_TRUE(j.isObject());
    EXPECT_EQ(j["spec"].asString(),
              "dram.bitflip:0,kernel.transient:1");
    const Json &inj = j["injected"];
    EXPECT_EQ(inj.size(), 1u);
    ASSERT_NE(inj.find("kernel.transient"), nullptr);
    EXPECT_EQ(inj.find("kernel.transient")->asUint(), 2u);
    EXPECT_EQ(inj.find("dram.bitflip"), nullptr);
}

TEST(Fault, ResetDisablesAndClears)
{
    FaultInjector fi;
    fi.configure("kernel.transient:1");
    fi.shouldInject(faultsite::KernelTransient);
    fi.reset();
    EXPECT_FALSE(fi.enabled());
    EXPECT_EQ(fi.totalInjected(), 0u);
    EXPECT_EQ(fi.spec(), "");
}

TEST(Fault, ReconfigureResetsSiteCounts)
{
    FaultInjector fi;
    fi.configure("kernel.transient:1");
    fi.shouldInject(faultsite::KernelTransient);
    fi.configure("kernel.transient:1");
    EXPECT_EQ(fi.injected(faultsite::KernelTransient), 0u);
}

TEST(FaultDeath, UnknownSiteIsFatal)
{
    FaultInjector fi;
    EXPECT_DEATH(fi.configure("no.such.site:1"), "unknown fault site");
}

TEST(FaultDeath, MalformedEntriesAreFatal)
{
    EXPECT_DEATH(FaultInjector().configure("kernel.transient"),
                 "site:prob");
    EXPECT_DEATH(FaultInjector().configure("kernel.transient:1.5"),
                 "not in \\[0, 1\\]");
    EXPECT_DEATH(FaultInjector().configure("kernel.transient:-0.5"),
                 "not in \\[0, 1\\]");
    EXPECT_DEATH(FaultInjector().configure("kernel.transient:x"),
                 "not in \\[0, 1\\]");
    EXPECT_DEATH(FaultInjector().configure("kernel.transient:1:abc"),
                 "not a non-negative integer");
    EXPECT_DEATH(FaultInjector().configure("kernel.transient:1:1:1:1"),
                 "site:prob");
}

TEST(Fault, ProbabilityConvergesOnFrequency)
{
    FaultInjector fi;
    fi.configure("dram.bitflip:0.25:99");
    int fired = 0;
    for (int i = 0; i < 10000; i++)
        fired += fi.shouldInject(faultsite::DramBitflip);
    EXPECT_NEAR(fired / 10000.0, 0.25, 0.02);
}

TEST(Error, DecodeErrorBumpsGlobalCounter)
{
    uint64_t before = decodeErrorCount();
    try {
        decodeError("synthetic decode failure %d", 7);
        FAIL() << "decodeError did not throw";
    } catch (const DecodeError &e) {
        EXPECT_STREQ(e.kind(), "decode");
        EXPECT_STREQ(e.what(), "synthetic decode failure 7");
    }
    EXPECT_EQ(decodeErrorCount(), before + 1);
}

TEST(Error, HierarchyCatchableAsSimError)
{
    try {
        throw CellAbort("done for");
    } catch (const SimError &e) {
        EXPECT_STREQ(e.kind(), "abort");
    }
    try {
        throw FaultInjected("dram.bitflip", "zap");
    } catch (const SimError &e) {
        EXPECT_STREQ(e.kind(), "fault");
    }
}

TEST(Error, FaultStatsJsonIncludesDecodeErrors)
{
    FaultInjector::global().reset();
    resetDecodeErrorCount();
    try {
        decodeError("one synthetic error");
    } catch (const DecodeError &) {
    }
    Json j = faultStatsJson();
    ASSERT_NE(j.find("decodeErrors"), nullptr);
    EXPECT_EQ(j.find("decodeErrors")->asUint(), 1u);
    resetDecodeErrorCount();
}
