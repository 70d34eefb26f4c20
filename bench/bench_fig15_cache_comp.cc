/**
 * @file
 * Figure 15 reproduction, enlarged: effective compression ratio of
 * every CompressionScheme in allSchemes() on feature-map snapshots from
 * the five DNN workloads. The paper's field (ZCOMP vs the FPC-D
 * cache-compression baselines LimitCC and TwoTagCC) is extended with
 * EBPC (bit-plane coding) and cDMA-style ZVC; allSchemes() drives the
 * tables, so a scheme added to that list shows up here.
 *
 * Paper geomeans: ZCOMP 1.8, LimitCC 1.54, TwoTagCC 1.1.
 *
 * Per-scheme summary columns:
 *  - ratio   : geomean snapshot compression ratio across all
 *              networks/snapshots;
 *  - traffic : relative cross-layer bytes moved, 1/ratio;
 *  - speedup : a bandwidth-bound model of the end-to-end effect.
 *              With m the memory-bound fraction of baseline run time
 *              (Figure 2 puts memory time at 24-41%; we use 1/3) and
 *              a 64-cycle baseline transfer per 64 B line (1 B/cycle
 *              of effective per-core bandwidth):
 *                base cycles/line: C_cpu + C_mem, C_mem = 64,
 *                                  C_cpu = C_mem * (1-m)/m
 *                scheme cycles   : C_cpu + C_mem/ratio
 *                                  + packCyclesPerLine
 *                                  + unpackCyclesPerLine
 *              speedup = base / scheme. Not a substitute for the
 *              full Figure 14 simulation - a common yardstick for
 *              schemes that have no timing-model dispatch.
 *
 * --report PATH writes one row per (network, snapshot, scheme) with
 * the full-precision ratio.
 *
 * --smoke swaps the workload snapshots for small synthetic
 * activation buffers and asserts every listed scheme appears
 * exactly once in the summary (the tier-1 ctest hook).
 */

#include <cstring>
#include <iostream>
#include <map>

#include "bench/bench_common.hh"
#include "cachecomp/cache_model.hh"
#include "cachecomp/scheme.hh"
#include "common/report.hh"
#include "common/table.hh"
#include "workload/snapshot.hh"

using namespace zcomp;

namespace {

/**
 * Five static snapshots per network: the concatenated ReLU-output
 * maps of a forward pass on five different synthetic inputs.
 */
std::vector<std::vector<uint8_t>>
snapshotsOf(const bench::StudyModel &m)
{
    std::vector<std::vector<uint8_t>> snaps;
    for (int s = 0; s < 5; s++) {
        bench::PreparedNet p = bench::prepareNet(
            m, /*training=*/false, 500 + static_cast<uint64_t>(s));
        std::vector<uint8_t> bytes;
        for (size_t i = 1; i < p.net->numNodes(); i++) {
            const auto &node = p.net->node(static_cast<int>(i));
            if (node.layer->kind() != LayerKind::Relu)
                continue;
            size_t aligned = node.act->bytes() / 64 * 64;
            size_t off = bytes.size();
            bytes.resize(off + aligned);
            std::memcpy(bytes.data() + off, node.act->data(), aligned);
            if (bytes.size() > 8u * 1024 * 1024)
                break;      // 8 MiB per snapshot is plenty
        }
        snaps.push_back(std::move(bytes));
    }
    return snaps;
}

/** --smoke stand-in: small synthetic activation snapshots at the
 *  default feature-map sparsity, one per seed. */
std::vector<std::vector<uint8_t>>
syntheticSnapshots(uint64_t base_seed)
{
    std::vector<std::vector<uint8_t>> snaps;
    for (int s = 0; s < 2; s++) {
        std::vector<float> acts = makeActivations(
            4096, SnapshotParams{}, base_seed + static_cast<uint64_t>(s));
        std::vector<uint8_t> bytes(acts.size() * 4);
        std::memcpy(bytes.data(), acts.data(), bytes.size());
        snaps.push_back(std::move(bytes));
    }
    return snaps;
}

/** The Figure 15 speedup model described in the file header. */
double
schemeSpeedup(const CompressionScheme &s, double ratio)
{
    constexpr double mem_fraction = 1.0 / 3.0;
    constexpr double mem_cycles = 64;
    const double cpu_cycles =
        mem_cycles * (1.0 - mem_fraction) / mem_fraction;
    double base = cpu_cycles + mem_cycles;
    double with = cpu_cycles + mem_cycles / ratio +
                  s.packCyclesPerLine() + s.unpackCyclesPerLine();
    return base / with;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::vector<char *> rest{argv[0]};
    for (int i = 1; i < argc; i++) {
        if (!std::strcmp(argv[i], "--smoke"))
            smoke = true;
        else
            rest.push_back(argv[i]);
    }
    bench::parseBenchArgs(static_cast<int>(rest.size()), rest.data(),
        "Figure 15: ZCOMP vs cache compression (all schemes)");

    const std::vector<const CompressionScheme *> &schemes =
        allSchemes();

    // Per-network table: one ratio column per scheme.
    Table table(smoke
                    ? "compression ratios (synthetic smoke snapshots)"
                    : "compression ratios (5 snapshots per network)");
    std::vector<std::string> header{"network"};
    for (const CompressionScheme *s : schemes)
        header.push_back(s->name());
    table.setHeader(header);

    std::vector<std::vector<double>> all(schemes.size());
    uint64_t smoke_seed = 900;
    RunReport *report = RunReport::global();
    for (const auto &m : bench::studyModels()) {
        auto snaps = smoke ? syntheticSnapshots(smoke_seed += 10)
                           : snapshotsOf(m);
        std::vector<std::vector<double>> per(schemes.size());
        for (size_t sn = 0; sn < snaps.size(); sn++) {
            const std::vector<uint8_t> &snap = snaps[sn];
            for (size_t si = 0; si < schemes.size(); si++) {
                double r = schemes[si]->snapshotRatio(snap.data(),
                                                      snap.size());
                per[si].push_back(r);
                all[si].push_back(r);
                if (report) {
                    // The unrounded ratio, so two runs' reports
                    // differ wherever any ratio does.
                    Json row = Json::object();
                    row["network"] = modelName(m.id);
                    row["snapshot"] = static_cast<int>(sn);
                    row["scheme"] = schemes[si]->name();
                    row["ratio"] = r;
                    report->addRow(std::move(row));
                }
            }
        }
        std::vector<std::string> cells{modelName(m.id)};
        for (size_t si = 0; si < schemes.size(); si++)
            cells.push_back(Table::fmt(geomean(per[si]), 2));
        table.addRow(cells);
    }
    table.print(std::cout);

    // The per-scheme ratio/traffic/speedup summary: exactly one row
    // per scheme in allSchemes().
    Table summary("per-scheme summary (geomean ratio, relative "
                  "traffic, modeled speedup)");
    summary.setHeader({"scheme", "ratio", "traffic", "speedup"});
    std::vector<std::string> emitted;
    for (size_t si = 0; si < schemes.size(); si++) {
        double ratio = geomean(all[si]);
        emitted.push_back(schemes[si]->name());
        summary.addRow({schemes[si]->name(), Table::fmt(ratio, 2),
                        Table::fmtPct(1.0 / ratio),
                        Table::fmt(schemeSpeedup(*schemes[si], ratio),
                                   3) +
                            "x"});
    }
    summary.print(std::cout);

    auto measured = [&](const char *name) {
        for (size_t si = 0; si < schemes.size(); si++) {
            if (!std::strcmp(schemes[si]->name(), name))
                return geomean(all[si]);
        }
        fatal("scheme '%s' not in allSchemes()", name);
    };
    Table paper("Figure 15 vs paper (geometric means)");
    paper.setHeader({"scheme", "paper", "measured"});
    paper.addRow({"zcomp", "1.80", Table::fmt(measured("zcomp"), 2)});
    paper.addRow({"limitcc", "1.54",
                  Table::fmt(measured("limitcc"), 2)});
    paper.addRow({"twotagcc", "1.10",
                  Table::fmt(measured("twotagcc"), 2)});
    paper.print(std::cout);

    if (smoke) {
        // Tier-1 assertion: every listed scheme landed in the
        // emitted summary exactly once, and the new comparators are
        // among them.
        int failures = 0;
        std::map<std::string, int> seen;
        for (const std::string &name : emitted)
            seen[name]++;
        for (const CompressionScheme *s : schemes) {
            int count = seen.count(s->name()) ? seen[s->name()] : 0;
            if (count != 1) {
                std::printf("FAIL: scheme '%s' appears %d times in "
                            "the summary\n", s->name(), count);
                failures++;
            }
        }
        for (const char *want :
             {"uncompressed", "avx512-comp", "zcomp", "limitcc",
              "twotagcc", "ebpc", "zvc"}) {
            if (!seen.count(want)) {
                std::printf("FAIL: scheme '%s' missing from the "
                            "summary\n", want);
                failures++;
            }
        }
        if (failures) {
            std::printf("bench_fig15 smoke: %d check(s) failed\n",
                        failures);
            return 1;
        }
        std::printf("bench_fig15 smoke: all %zu schemes present "
                    "exactly once\n", schemes.size());
    }
    return 0;
}
