/**
 * @file
 * Integration tests for the ReLU experiment kernels: functional
 * correctness, traffic ordering across implementations, and the
 * qualitative performance regimes of Figure 12.
 */

#include <gtest/gtest.h>

#include "sim/kernels.hh"

using namespace zcomp;

namespace {

ArchConfig
cfgSmall()
{
    ArchConfig cfg;     // full Table 1 machine
    return cfg;
}

ReluExperimentConfig
expCfg(size_t elems, double sparsity = 0.53)
{
    ReluExperimentConfig c;
    c.elems = elems;
    c.sparsity = sparsity;
    c.verify = true;
    return c;
}

} // namespace

TEST(ReluKernels, ImplNames)
{
    EXPECT_STREQ(reluImplName(ReluImpl::Avx512Vec), "avx512-vec");
    EXPECT_STREQ(reluImplName(ReluImpl::Avx512Comp), "avx512-comp");
    EXPECT_STREQ(reluImplName(ReluImpl::Zcomp), "zcomp");
}

TEST(ReluKernels, FunctionalVerificationPasses)
{
    for (int i = 0; i < numReluImpls; i++) {
        ExecContext ctx(cfgSmall());
        ReluExperimentConfig c = expCfg(16 * 1024);
        runReluExperiment(ctx, static_cast<ReluImpl>(i), c);
    }
    // Section 3.2's separate-header zcomp variant.
    ExecContext ctx(cfgSmall());
    ReluExperimentConfig c = expCfg(16 * 1024);
    c.separateHeader = true;
    runReluExperiment(ctx, ReluImpl::Zcomp, c);
}

TEST(ReluKernels, PinnedRunStats)
{
    // Exact Fig 12 results of every kernel variant, so a rewrite of
    // the trace builders must replay the same accesses in the same
    // order. The (cores, subBlocks, map) cells form a two-level
    // orthogonal array: each pair of factor levels appears once per
    // variant, which keeps the test under ~3 s.
    struct Pin
    {
        ReluImpl impl;
        bool separateHeader;
        int cores;
        int subBlocks;
        size_t kib;
        double cycles;
        uint64_t coreL1, l1L2, l2L3, l3Dram;
        uint64_t xBytes, yBytes;    //!< stream totalBytes()
    };
    const Pin pins[] = {
        {ReluImpl::Avx512Vec, false, 1, 1, 64, 2308,
         196608, 262144, 0, 0, 0, 0},
        {ReluImpl::Avx512Vec, false, 1, 8, 4096, 200363.83333333291,
         12582912, 33059904, 16859456, 4352, 0, 0},
        {ReluImpl::Avx512Vec, false, 16, 1, 4096, 9353.2852941176388,
         12582912, 16777216, 14144, 14080, 0, 0},
        {ReluImpl::Avx512Vec, false, 16, 8, 64, 148, 196608, 0, 0, 0, 0, 0},
        {ReluImpl::Avx512Comp, false, 1, 1, 64, 6665.9166666666688,
         96640, 123776, 0, 0, 33208, 31716},
        {ReluImpl::Avx512Comp, false, 1, 8, 4096, 459653.91666684684,
         6111728, 22251136, 9655104, 0, 2102832, 2004448},
        {ReluImpl::Avx512Comp, false, 16, 1, 4096, 26634.416666666686,
         6111728, 8124288, 256, 256, 2102832, 2004448},
        {ReluImpl::Avx512Comp, false, 16, 8, 64, 425.91666666666606,
         96640, 3968, 0, 0, 33208, 31716},
        {ReluImpl::Zcomp, false, 1, 1, 64, 13854.666666665742,
         96640, 124288, 0, 0, 33208, 31716},
        {ReluImpl::Zcomp, false, 1, 8, 4096, 146926.33333330645,
         6111728, 8207616, 8014208, 0, 2102832, 2004448},
        {ReluImpl::Zcomp, false, 16, 1, 4096, 55192.000000036933,
         6111728, 8124288, 0, 0, 2102832, 2004448},
        {ReluImpl::Zcomp, false, 16, 8, 64, 141.2499999999809,
         96640, 704, 0, 0, 33208, 31716},
        {ReluImpl::Zcomp, true, 1, 1, 64, 13242.833333332615,
         96640, 123776, 0, 0, 33208, 31716},
        {ReluImpl::Zcomp, true, 1, 8, 4096, 542924.66666832939,
         6111728, 22251392, 9654208, 0, 2102832, 2004448},
        {ReluImpl::Zcomp, true, 16, 1, 4096, 53039.833333365154,
         6111728, 8124288, 0, 0, 2102832, 2004448},
        {ReluImpl::Zcomp, true, 16, 8, 64, 175.99999999990723,
         96640, 1344, 0, 0, 33208, 31716},
    };
    for (const Pin &p : pins) {
        ArchConfig arch;
        arch.numCores = p.cores;
        ExecContext ctx(arch);
        ReluExperimentConfig c;
        c.elems = p.kib * KiB / 4;
        c.subBlocks = p.subBlocks;
        c.separateHeader = p.separateHeader;
        auto r = runReluExperiment(ctx, p.impl, c);
        const RunStats t = r.total();
        SCOPED_TRACE(::testing::Message()
                     << reluImplName(p.impl)
                     << (p.separateHeader ? " separate" : "")
                     << " cores=" << p.cores << " subs=" << p.subBlocks
                     << " kib=" << p.kib);
        EXPECT_EQ(t.cycles, p.cycles);
        EXPECT_EQ(t.traffic.coreL1Bytes, p.coreL1);
        EXPECT_EQ(t.traffic.l1L2Bytes, p.l1L2);
        EXPECT_EQ(t.traffic.l2L3Bytes, p.l2L3);
        EXPECT_EQ(t.traffic.l3DramBytes, p.l3Dram);
        EXPECT_EQ(r.xStream.totalBytes(), p.xBytes);
        EXPECT_EQ(r.yStream.totalBytes(), p.yBytes);
    }
}

TEST(ReluKernels, CompressionStatsMatchSparsity)
{
    ExecContext ctx(cfgSmall());
    ReluExperimentConfig c = expCfg(16 * 4096, 0.53);
    auto r = runReluExperiment(ctx, ReluImpl::Zcomp, c);
    EXPECT_NEAR(r.xStream.sparsity(ElemType::F32), 0.53, 0.04);
    // Y adds the ReLU-clamped negatives on top of the zeros.
    EXPECT_GT(r.yStream.sparsity(ElemType::F32),
              r.xStream.sparsity(ElemType::F32));
    EXPECT_GT(r.yStream.ratio(), 1.5);
}

TEST(ReluKernels, CoreTrafficOrdering)
{
    // Figure 12a: both compression schemes cut core<->cache traffic
    // vs the baseline, and ZCOMP cuts slightly more than avx512-comp
    // (no separate mask arrays).
    const size_t elems = 16 * 8192;     // 512 KiB: L3-resident
    uint64_t traffic[numReluImpls];
    for (int i = 0; i < numReluImpls; i++) {
        ExecContext ctx(cfgSmall());
        auto r = runReluExperiment(ctx, static_cast<ReluImpl>(i),
                                   expCfg(elems));
        traffic[i] = r.total().traffic.coreL1Bytes;
    }
    uint64_t vec = traffic[0], comp = traffic[1], zc = traffic[2];
    // Interleaved headers and separate mask arrays move the same
    // requested bytes at the core; avx512-comp's extra cost shows in
    // dynamic instructions and deeper-link traffic instead.
    EXPECT_LE(zc, comp);
    EXPECT_LT(comp, vec);
    // ~53% sparsity on all three accesses: expect roughly half.
    EXPECT_NEAR(static_cast<double>(zc) / vec, 0.52, 0.10);
}

TEST(ReluKernels, DramTrafficReducedForLargeMaps)
{
    // Figure 12b: a DRAM-resident feature map (>> 24 MiB L3) sees its
    // off-chip traffic cut by roughly the compression ratio.
    const size_t elems = 16u * 1024u * 1024u;   // 64 MiB
    uint64_t dram[numReluImpls];
    for (int i = 0; i < numReluImpls; i++) {
        ExecContext ctx(cfgSmall());
        ReluExperimentConfig c = expCfg(elems);
        c.verify = false;
        auto r = runReluExperiment(ctx, static_cast<ReluImpl>(i), c);
        dram[i] = r.total().traffic.l3DramBytes;
    }
    EXPECT_LT(dram[2], 0.70 * dram[0]);     // zcomp strictly better
    EXPECT_LT(dram[1], 0.80 * dram[0]);
    // zcomp and avx512-comp move nearly the same DRAM volume (the
    // interleaved headers vs separate mask arrays trade within a few
    // percent at line granularity).
    EXPECT_LE(dram[2], 1.10 * dram[1]);
}

TEST(ReluKernels, SmallMapsAreNotHurtMuchByZcomp)
{
    // Figure 12c outliers: for L1-resident inputs ZCOMP has little
    // headroom but must not collapse (paper: worst case -2%/-4%).
    const size_t elems = 16 * 512;      // 32 KiB total
    double cycles[numReluImpls];
    for (int i = 0; i < numReluImpls; i++) {
        ExecContext ctx(cfgSmall());
        auto r = runReluExperiment(ctx, static_cast<ReluImpl>(i),
                                   expCfg(elems));
        cycles[i] = r.total().cycles;
    }
    EXPECT_LT(cycles[2], 1.35 * cycles[0]);
}

TEST(ReluKernels, LargeMapsZcompWinsBig)
{
    // DRAM-bound regime: runtime follows traffic, so ZCOMP should be
    // markedly faster than the baseline and beat avx512-comp.
    const size_t elems = 16u * 1024u * 1024u;   // 64 MiB
    double cycles[numReluImpls];
    for (int i = 0; i < numReluImpls; i++) {
        ExecContext ctx(cfgSmall());
        ReluExperimentConfig c = expCfg(elems);
        c.verify = false;
        auto r = runReluExperiment(ctx, static_cast<ReluImpl>(i), c);
        cycles[i] = r.total().cycles;
    }
    EXPECT_LT(cycles[2], 0.8 * cycles[0]);
    EXPECT_LE(cycles[2], cycles[1] * 1.25);
}

TEST(ReluKernels, Avx512CompHasInstructionOverheadOnSmallMaps)
{
    // Figure 12c: avx512-comp degrades cache-resident shapes because
    // of its extra instructions.
    const size_t elems = 16 * 512;
    ExecContext a(cfgSmall()), b(cfgSmall());
    auto vec = runReluExperiment(a, ReluImpl::Avx512Vec, expCfg(elems));
    auto comp = runReluExperiment(b, ReluImpl::Avx512Comp,
                                  expCfg(elems));
    EXPECT_GT(comp.total().cycles, vec.total().cycles);
}

TEST(ReluKernels, StaticBodiesMatchSection44)
{
    // avx512-comp needs 5-6 extra static instructions and 4-5 extra
    // registers in the loop body compared to ZCOMP.
    KernelBody z = reluStoreBody(ReluImpl::Zcomp);
    KernelBody a = reluStoreBody(ReluImpl::Avx512Comp);
    int extra_instrs = a.totalInstrs() - z.totalInstrs();
    int extra_regs = a.totalRegs() - z.totalRegs();
    EXPECT_GE(extra_instrs, 5);
    EXPECT_LE(extra_instrs, 6);
    EXPECT_GE(extra_regs, 4);
    EXPECT_LE(extra_regs, 5);

    KernelBody zr = reluRetrieveBody(ReluImpl::Zcomp);
    KernelBody ar = reluRetrieveBody(ReluImpl::Avx512Comp);
    EXPECT_GE(ar.totalInstrs() - zr.totalInstrs(), 3);
    EXPECT_GE(ar.totalRegs() - zr.totalRegs(), 3);
}

TEST(ReluKernels, SubBlockUnrollingHelpsZcomp)
{
    // Section 4.3: sub-block unrolling breaks the pointer chain; with
    // a single stream per thread the chained latency shows.
    const size_t elems = 16 * 16384;    // 1 MiB: L2/L3 resident
    ReluExperimentConfig c1 = expCfg(elems);
    c1.subBlocks = 1;
    c1.verify = false;
    ReluExperimentConfig c4 = c1;
    c4.subBlocks = 4;

    ExecContext a(cfgSmall()), b(cfgSmall());
    double one = runReluExperiment(a, ReluImpl::Zcomp, c1)
                     .total().cycles;
    double four = runReluExperiment(b, ReluImpl::Zcomp, c4)
                      .total().cycles;
    EXPECT_LT(four, one);
}

TEST(ReluKernels, SeparateHeaderVariantWorks)
{
    // Section 3.2: the separate-header variant produces the same
    // payload statistics with decoupled metadata, costs slightly more
    // traffic (an extra stream), and never risks memory violations.
    const size_t elems = 16 * 16384;
    ReluExperimentConfig ci = expCfg(elems);
    ci.verify = false;
    ReluExperimentConfig cs = ci;
    cs.separateHeader = true;

    ExecContext a(cfgSmall()), b(cfgSmall());
    auto inter = runReluExperiment(a, ReluImpl::Zcomp, ci);
    auto sep = runReluExperiment(b, ReluImpl::Zcomp, cs);
    EXPECT_EQ(inter.yStream.nnz, sep.yStream.nnz);
    // Same compressed payload either way; headers live elsewhere.
    EXPECT_EQ(inter.yStream.payloadBytes, sep.yStream.payloadBytes);
    // The decoupled metadata stream costs extra L1 accesses per
    // vector, which shows on cache-resident maps (and fades once
    // memory-bound); it must stay within 2x.
    EXPECT_LT(sep.total().cycles, 2.0 * inter.total().cycles);
    EXPECT_GT(sep.total().cycles, inter.total().cycles);
}

TEST(ReluKernels, SeparateHeaderHandlesIncompressibleData)
{
    // Fully dense data would overflow interleaved windows without
    // allocation slack; the separate-header variant is immune by
    // construction (Section 4.1).
    ReluExperimentConfig c = expCfg(16 * 1024, /*sparsity=*/0.0);
    c.negFraction = 0.0;
    c.separateHeader = true;
    c.verify = false;
    ExecContext ctx(cfgSmall());
    auto r = runReluExperiment(ctx, ReluImpl::Zcomp, c);
    EXPECT_DOUBLE_EQ(r.yStream.sparsity(ElemType::F32), 0.0);
    EXPECT_GT(r.total().cycles, 0.0);
}

TEST(ReluKernels, RepeatsScaleMeasuredWork)
{
    ReluExperimentConfig c1 = expCfg(16 * 2048);
    c1.verify = false;
    ReluExperimentConfig c4 = c1;
    c4.repeats = 4;
    ExecContext a(cfgSmall()), b(cfgSmall());
    auto r1 = runReluExperiment(a, ReluImpl::Avx512Vec, c1);
    auto r4 = runReluExperiment(b, ReluImpl::Avx512Vec, c4);
    EXPECT_NEAR(static_cast<double>(
                    r4.total().traffic.coreL1Bytes),
                4.0 * static_cast<double>(
                          r1.total().traffic.coreL1Bytes),
                0.01 * static_cast<double>(
                           r4.total().traffic.coreL1Bytes));
}
