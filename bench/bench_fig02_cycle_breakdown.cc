/**
 * @file
 * Figure 2 reproduction: CPU cycle breakdown (compute / memory /
 * synchronization) for the five DNN training benchmarks on the
 * uncompressed baseline.
 *
 * Paper: memory stalls account for 24-41% of execution time.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "common/table.hh"

using namespace zcomp;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv,
        "Figure 2: CPU cycle breakdown (training)");

    Table table("normalized cycle breakdown per network");
    table.setHeader({"network", "compute", "memory", "sync"});
    double min_mem = 1.0, max_mem = 0.0;
    for (const auto &m : bench::studyModels()) {
        bench::PreparedNet p = bench::prepareNet(m, /*training=*/true);
        NetworkSim sim(*p.ctx, *p.net);
        NetworkSimConfig cfg;    // uncompressed baseline
        auto telemetry = bench::observeTelemetry(
            *p.ctx, p.net->name(), ioPolicyName(cfg.policy));
        NetworkSimResult r = sim.run(cfg);
        const CycleBreakdown &bd = r.total.breakdown;
        double total = bd.total();
        double mem = bd.memory / total;
        min_mem = std::min(min_mem, mem);
        max_mem = std::max(max_mem, mem);
        table.addRow({modelName(m.id),
                      Table::fmtPct(bd.compute / total),
                      Table::fmtPct(mem),
                      Table::fmtPct(bd.sync / total)});
    }
    table.print(std::cout);

    Table summary("Figure 2 summary vs paper");
    summary.setHeader({"metric", "paper", "measured"});
    summary.addRow({"memory stall fraction range", "24%-41%",
                    Table::fmtPct(min_mem, 0) + "-" +
                        Table::fmtPct(max_mem, 0)});
    summary.print(std::cout);
    return 0;
}
