/**
 * @file
 * bench_perf - the simulator's performance-regression trajectory.
 *
 * Runs a pinned micro-kernel set (ZCOMP vector round-trips, FPC,
 * FPC-D, EBPC, ZVC and zero-value snapshot sizing, GEMM) and a pinned
 * Figure 13/14 study subset under every available SIMD backend in one
 * process, and writes a BENCH_<date>.json snapshot: throughput rates,
 * wall-clock per figure subset, peak RSS, git sha and backend names.
 * CI compares a fresh snapshot against the committed baseline with
 * tools/bench_perf.py and fails on >5% regressions (see
 * EXPERIMENTS.md, "bench_perf trajectory").
 *
 *   bench_perf [--quick] [--out PATH] [shared bench args]
 *
 * --quick shrinks iteration counts and the study subset for the CI
 * smoke leg; trajectory baselines are recorded without it. Simulated
 * *results* are backend-independent (the differential tests enforce
 * bit-identity); only the rates differ between backends.
 */

#include <sys/resource.h>
#include <sys/utsname.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "cachecomp/cache_model.hh"
#include "cachecomp/ebpc.hh"
#include "cachecomp/fpc.hh"
#include "cachecomp/fpcd.hh"
#include "cachecomp/scheme.hh"
#include "cachecomp/zvc.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/metrics.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "dnn/gemm.hh"
#include "zcomp/stream.hh"

using namespace zcomp;

namespace {

using Clock = std::chrono::steady_clock;

double
secSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** ~60% zero fp32 test pattern, deterministic across runs/backends. */
std::vector<float>
sparsePattern(size_t elems)
{
    Rng rng(42);
    std::vector<float> v(elems);
    for (size_t i = 0; i < elems; i++) {
        v[i] = rng.uniform() < 0.6
                   ? 0.0f
                   : static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    return v;
}

/** zcomps+zcompl round-trips of a whole buffer, in vectors/sec. */
double
microVecRoundTrips(bool quick)
{
    const size_t elems = quick ? (size_t{1} << 18) : (size_t{1} << 20);
    const int iters = quick ? 4 : 16;
    std::vector<float> src = sparsePattern(elems);
    std::vector<uint8_t> comp(elems * 4 + (elems / 16) * 2);
    std::vector<float> back(elems);

    Clock::time_point t0 = Clock::now();
    uint64_t vectors = 0;
    for (int it = 0; it < iters; it++) {
        StreamStats ws = compressBufferPs(src.data(), elems, comp.data(),
                                          comp.size(), Ccf::EQZ);
        expandBufferPs(comp.data(), ws.totalBytes(), back.data(), elems);
        vectors += ws.vectors;
    }
    double sec = secSince(t0);
    fatal_if(std::memcmp(src.data(), back.data(), elems * 4) != 0,
             "bench_perf round-trip mismatch");
    return static_cast<double>(vectors) / sec;
}

/** FPC + FPC-D classification of 64 B lines, in lines/sec. */
double
microFpcLines(bool quick)
{
    const size_t lines = quick ? (size_t{1} << 14) : (size_t{1} << 16);
    const int iters = quick ? 4 : 16;
    std::vector<float> pat = sparsePattern(lines * 16);
    const uint8_t *bytes = reinterpret_cast<const uint8_t *>(pat.data());

    Clock::time_point t0 = Clock::now();
    uint64_t sink = 0;
    for (int it = 0; it < iters; it++) {
        for (size_t l = 0; l < lines; l++) {
            sink += static_cast<uint64_t>(fpcLineBytes(bytes + l * 64));
            sink += static_cast<uint64_t>(fpcdLineBytes(bytes + l * 64));
        }
    }
    double sec = secSince(t0);
    fatal_if(sink == 0, "bench_perf fpc sink is zero");
    return static_cast<double>(lines) * 2 * iters / sec;
}

/** FPC-D sizing through limitCCRatio()'s 16-line block path, in
 *  lines/sec (fpcLinesPerSec sizes one line at a time). */
double
microFpcdLines(bool quick)
{
    const size_t lines = quick ? (size_t{1} << 14) : (size_t{1} << 16);
    const int iters = quick ? 4 : 16;
    std::vector<float> pat = sparsePattern(lines * 16);
    const uint8_t *bytes = reinterpret_cast<const uint8_t *>(pat.data());

    Clock::time_point t0 = Clock::now();
    double sink = 0;
    for (int it = 0; it < iters; it++)
        sink += limitCCRatio(bytes, lines * 64);
    double sec = secSince(t0);
    fatal_if(sink == 0, "bench_perf fpcd sink is zero");
    return static_cast<double>(lines) * iters / sec;
}

/** Zero-value sizing through the zcomp scheme's snapshotRatio() (one
 *  nonzero-word histogram pass), in lines/sec. */
double
microZeroLines(bool quick)
{
    const size_t lines = quick ? (size_t{1} << 14) : (size_t{1} << 16);
    const int iters = quick ? 16 : 64;
    std::vector<float> pat = sparsePattern(lines * 16);
    const uint8_t *bytes = reinterpret_cast<const uint8_t *>(pat.data());
    const CompressionScheme *zcomp = schemeByName("zcomp");

    Clock::time_point t0 = Clock::now();
    double sink = 0;
    for (int it = 0; it < iters; it++)
        sink += zcomp->snapshotRatio(bytes, lines * 64);
    double sec = secSince(t0);
    fatal_if(sink == 0, "bench_perf zero-value sink is zero");
    return static_cast<double>(lines) * iters / sec;
}

/** One scheme codec's 64 B line sizing over sparse data, lines/sec
 *  (the EBPC/ZVC trajectory legs; see tools/bench_perf.py). */
double
microSchemeLines(int (*line_bytes)(const uint8_t *), bool quick)
{
    const size_t lines = quick ? (size_t{1} << 13) : (size_t{1} << 15);
    const int iters = quick ? 4 : 16;
    std::vector<float> pat = sparsePattern(lines * 16);
    const uint8_t *bytes = reinterpret_cast<const uint8_t *>(pat.data());

    Clock::time_point t0 = Clock::now();
    uint64_t sink = 0;
    for (int it = 0; it < iters; it++) {
        for (size_t l = 0; l < lines; l++)
            sink += static_cast<uint64_t>(line_bytes(bytes + l * 64));
    }
    double sec = secSince(t0);
    fatal_if(sink == 0, "bench_perf scheme sink is zero");
    return static_cast<double>(lines) * iters / sec;
}

/** A*Bt GEMM (the conv/FC inner product shape), in MAC/sec. */
double
microGemm(bool quick)
{
    const size_t m = quick ? 64 : 128, n = 128, k = 256;
    const int iters = quick ? 8 : 32;
    std::vector<float> a = sparsePattern(m * k);
    std::vector<float> b = sparsePattern(n * k);
    std::vector<float> c(m * n);

    Clock::time_point t0 = Clock::now();
    for (int it = 0; it < iters; it++)
        gemmABt(m, n, k, a.data(), b.data(), c.data());
    double sec = secSince(t0);
    return static_cast<double>(m * n * k) * iters / sec;
}

/** The pinned Figure 13/14 study subset for this backend. */
Json
figureSubset(bool quick)
{
    bench::StudyOptions opt;
    opt.models = quick
        ? std::vector<bench::StudyModel>{
              {ModelId::Resnet32, 4, 2, 0, 1.0}}
        : std::vector<bench::StudyModel>{
              {ModelId::Resnet32, 64, 4, 0, 1.0},
              {ModelId::AlexNet, 16, 2, 0, 1.0}};

    Clock::time_point t0 = Clock::now();
    auto rows = bench::runStudy(opt);
    double sec = secSince(t0);

    int cells = 0;
    for (const auto &row : rows)
        cells += row.status != bench::CellStatus::Failed;
    fatal_if(cells == 0, "bench_perf study subset produced no cells");

    Json j = Json::object();
    j["wallSeconds"] = sec;
    j["cells"] = cells;
    j["cellsPerSec"] = cells / sec;
    return j;
}

std::string
gitSha()
{
    // One-shot metadata probe, read-to-EOF and pclose()d right here;
    // the Subprocess machinery would be overkill for it.
    // zcomp-lint: allow(process-isolation)
    FILE *p = popen("git rev-parse HEAD 2>/dev/null", "r");
    if (!p)
        return "unknown";
    char buf[64] = {};
    size_t n = fread(buf, 1, sizeof(buf) - 1, p);
    pclose(p);
    std::string sha(buf, n);
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
        sha.pop_back();
    return sha.empty() ? "unknown" : sha;
}

std::string
todayIso()
{
    std::time_t t = std::time(nullptr);
    std::tm tm{};
    localtime_r(&t, &tm);
    char buf[16];
    std::strftime(buf, sizeof(buf), "%Y-%m-%d", &tm);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string out;
    std::vector<char *> rest{argv[0]};
    for (int i = 1; i < argc; i++) {
        if (!std::strcmp(argv[i], "--quick")) {
            quick = true;
        } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out = argv[++i];
        } else {
            rest.push_back(argv[i]);
        }
    }
    bench::parseBenchArgs(static_cast<int>(rest.size()), rest.data(),
        "bench_perf: regression trajectory (micro + study subset)");
    if (out.empty())
        out = "BENCH_" + todayIso() + ".json";

    // Scalar first, then the best native backend (when distinct), in
    // one process so both halves see identical host conditions.
    std::vector<simd::Backend> backends{simd::Backend::Scalar};
    if (simd::bestSupportedBackend() != simd::Backend::Scalar)
        backends.push_back(simd::bestSupportedBackend());

    Json bk = Json::array();
    for (simd::Backend b : backends) {
        simd::setBackend(b);
        inform("bench_perf: backend %s...", simd::backendName(b));
        Json micro = Json::object();
        micro["vecRoundTripsPerSec"] = microVecRoundTrips(quick);
        micro["fpcLinesPerSec"] = microFpcLines(quick);
        micro["fpcdLinesPerSec"] = microFpcdLines(quick);
        micro["ebpcLinesPerSec"] = microSchemeLines(ebpcLineBytes, quick);
        micro["zvcLinesPerSec"] = microSchemeLines(zvcLineBytes, quick);
        micro["zeroLinesPerSec"] = microZeroLines(quick);
        micro["gemmMacsPerSec"] = microGemm(quick);
        Json fig = figureSubset(quick);

        // Telemetry tax: the same subset again with a throwaway
        // --metrics sink at the default interval, reported as a
        // wall-clock ratio (1.0 = free; EXPERIMENTS.md gates < 1.03).
        // Skipped when the user's own --metrics sink is installed -
        // replacing it would clobber their stream, and the first run
        // would already have been sampled anyway.
        if (!MetricsSink::global()) {
            const std::string probe = out + ".metrics-probe.jsonl";
            MetricsSink::enableGlobal(probe);
            Json figm = figureSubset(quick);
            MetricsSink::finishGlobal();
            std::remove(probe.c_str());
            fig["metricsOverheadRatio"] =
                figm["wallSeconds"].asDouble() /
                fig["wallSeconds"].asDouble();
        }

        Json figures = Json::object();
        figures["fig13_14_subset"] = std::move(fig);
        Json entry = Json::object();
        entry["backend"] = simd::backendName(b);
        entry["micro"] = std::move(micro);
        entry["figures"] = std::move(figures);
        bk.push(std::move(entry));
    }

    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    struct utsname un{};
    uname(&un);

    Json j = Json::object();
    j["schema"] = "zcomp-bench-perf-v1";
    j["date"] = todayIso();
    j["gitSha"] = gitSha();
    j["quick"] = quick;
    Json host = Json::object();
    host["machine"] = std::string(un.machine) + " " + un.sysname;
    host["node"] = un.nodename;
    // ru_maxrss is KiB on Linux.
    host["peakRssBytes"] =
        static_cast<uint64_t>(ru.ru_maxrss) * 1024;
    j["host"] = std::move(host);
    j["backends"] = std::move(bk);

    std::ofstream f(out);
    fatal_if(!f, "cannot write %s", out.c_str());
    f << j.dump(2) << "\n";
    inform("bench_perf: wrote %s", out.c_str());
    std::printf("bench_perf: ok (%s)\n", out.c_str());
    return 0;
}
