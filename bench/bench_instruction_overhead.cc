/**
 * @file
 * Section 4.4 reproduction: static instruction and register usage of
 * the compression-enabled ReLU loop bodies (Figures 8-11).
 *
 * Paper: "AVX512 vcompress and vexpand require 5-6 extra static
 * scalar/vector instructions inside the loop body, and use 4-5
 * additional registers, compared to ZCOMP."
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "common/table.hh"
#include "sim/kernels.hh"

using namespace zcomp;

namespace {

void
printBody(const KernelBody &body, Table &table)
{
    std::string mix;
    for (const auto &[cls, count] : body.instrs) {
        if (!mix.empty())
            mix += " ";
        mix += instrClassName(cls);
        if (count > 1)
            mix += format("x%d", count);
    }
    table.addRow({body.name, std::to_string(body.totalInstrs()),
                  std::to_string(body.totalUops()),
                  std::to_string(body.vecRegs),
                  std::to_string(body.maskRegs),
                  std::to_string(body.scalarRegs), mix});
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv,
        "Section 4.4: static loop-body comparison (Figures 8-11)");

    Table table("per-iteration loop bodies");
    table.setHeader({"kernel", "instrs", "uops", "vregs", "kregs",
                     "gprs", "instruction mix"});
    for (int i = 0; i < numReluImpls; i++) {
        printBody(reluStoreBody(static_cast<ReluImpl>(i)), table);
        printBody(reluRetrieveBody(static_cast<ReluImpl>(i)), table);
    }
    table.print(std::cout);

    KernelBody zs = reluStoreBody(ReluImpl::Zcomp);
    KernelBody as = reluStoreBody(ReluImpl::Avx512Comp);
    Table summary("Section 4.4 summary vs paper (store loop)");
    summary.setHeader({"metric", "paper", "measured"});
    summary.addRow({"extra static instructions (avx512-comp)", "5-6",
                    std::to_string(as.totalInstrs() -
                                   zs.totalInstrs())});
    summary.addRow({"extra registers (avx512-comp)", "4-5",
                    std::to_string(as.totalRegs() - zs.totalRegs())});
    summary.print(std::cout);
    return 0;
}
