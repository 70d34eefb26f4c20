/** @file Unit tests for the simulated virtual address space. */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "mem/vspace.hh"

using namespace zcomp;

TEST(VSpace, AllocationsAreAlignedAndDisjoint)
{
    VSpace vs;
    Buffer &a = vs.alloc("a", 1000, AllocClass::FeatureMap);
    Buffer &b = vs.alloc("b", 5000, AllocClass::Weight);
    EXPECT_EQ(a.base % 4096, 0u);
    EXPECT_EQ(b.base % 4096, 0u);
    EXPECT_GE(b.base, a.base + a.size);
    EXPECT_NE(a.host, b.host);
}

TEST(VSpace, GuardGapBetweenRegions)
{
    VSpace vs;
    Buffer &a = vs.alloc("a", 4096, AllocClass::Other);
    Buffer &b = vs.alloc("b", 64, AllocClass::Other);
    EXPECT_GE(b.base - (a.base + a.size), 4096u);
}

TEST(VSpace, HostMemoryIsZeroed)
{
    VSpace vs;
    Buffer &a = vs.alloc("a", 256, AllocClass::Scratch);
    for (size_t i = 0; i < a.size; i++)
        EXPECT_EQ(a.host[i], 0);
}

TEST(VSpace, ClassFootprintAccounting)
{
    VSpace vs;
    vs.alloc("fm1", 1024, AllocClass::FeatureMap);
    vs.alloc("fm2", 2048, AllocClass::FeatureMap);
    vs.alloc("w", 512, AllocClass::Weight);
    EXPECT_EQ(vs.bytesInClass(AllocClass::FeatureMap), 3072u);
    EXPECT_EQ(vs.bytesInClass(AllocClass::Weight), 512u);
    EXPECT_EQ(vs.bytesInClass(AllocClass::GradientMap), 0u);
    EXPECT_EQ(vs.totalBytes(), 3584u);
}

TEST(VSpace, StableReferencesAcrossManyAllocations)
{
    VSpace vs;
    Buffer &first = vs.alloc("first", 64, AllocClass::Other);
    Addr base = first.base;
    uint8_t *host = first.host;
    for (int i = 0; i < 1000; i++)
        vs.alloc(format("x%d", i), 64, AllocClass::Other);
    EXPECT_EQ(first.base, base);
    EXPECT_EQ(first.host, host);
}

TEST(VSpace, ReleaseHostKeepsFootprint)
{
    VSpace vs;
    Buffer &a = vs.alloc("a", 1 * MiB, AllocClass::FeatureMap);
    vs.releaseHost(a);
    EXPECT_EQ(a.host, nullptr);
    EXPECT_EQ(vs.bytesInClass(AllocClass::FeatureMap), 1 * MiB);
}

TEST(VSpace, AddrAtAndTypedAccess)
{
    VSpace vs;
    Buffer &a = vs.alloc("a", 64, AllocClass::Other);
    EXPECT_EQ(a.addrAt(16), a.base + 16);
    a.f32()[3] = 1.5f;
    EXPECT_FLOAT_EQ(a.f32()[3], 1.5f);
}

TEST(VSpace, AllocClassNames)
{
    EXPECT_STREQ(allocClassName(AllocClass::FeatureMap), "feature-maps");
    EXPECT_STREQ(allocClassName(AllocClass::GradientMap),
                 "gradient-maps");
    EXPECT_STREQ(allocClassName(AllocClass::Weight), "weights");
}
