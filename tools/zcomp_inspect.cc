/**
 * @file
 * zcomp_inspect - a command-line compressibility explorer.
 *
 * Feeds a raw binary file (or a generated synthetic snapshot) through
 * the ZCOMP functional model and the FPC-D cache-compression model,
 * reporting per-block and aggregate compression statistics. Useful for
 * checking how a real feature-map dump would fare before committing to
 * interleaved headers (Section 4.1's compressibility question).
 *
 * Usage:
 *   zcomp_inspect <file>            analyze a raw fp32 binary dump
 *   zcomp_inspect --synth <sparsity> [bytes]
 *                                   analyze a generated snapshot
 *   zcomp_inspect --metrics <file>  validate a --metrics JSONL stream
 *
 * --json (anywhere on the command line) switches the report to a
 * machine-readable JSON document on stdout with the same numbers.
 *
 * The --metrics mode checks every record of a zcomp-metrics-v1
 * telemetry stream (bench --metrics out.jsonl): schema tag, record
 * kind, required fields and types, and that sample cycles are
 * strictly increasing within each (cell, policy) series. Any
 * violation is a one-line diagnostic naming the offending line and
 * a non-zero exit, so CI can gate on it.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "cachecomp/cache_model.hh"
#include "common/json.hh"
#include "common/table.hh"
#include "workload/snapshot.hh"
#include "zcomp/stream.hh"

using namespace zcomp;

namespace {

/** Strict numeric parsers: reject trailing junk and out-of-range
 *  values with a message instead of silently reading them as 0. */
double
parseSparsity(const char *text)
{
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE || !(v >= 0) ||
        !(v <= 1)) {
        std::fprintf(stderr,
                     "zcomp_inspect: sparsity '%s' is not a number "
                     "in [0, 1]\n",
                     text);
        std::exit(1);
    }
    return v;
}

size_t
parseBytes(const char *text)
{
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(text, &end, 10);
    const long long max_bytes = 1ll << 32;
    if (end == text || *end != '\0' || errno == ERANGE || v < 64 ||
        v > max_bytes) {
        std::fprintf(stderr,
                     "zcomp_inspect: bytes '%s' is not an integer in "
                     "[64, %lld]\n",
                     text, max_bytes);
        std::exit(1);
    }
    return static_cast<size_t>(v);
}

std::vector<uint8_t>
readFile(const char *path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path);
        std::exit(1);
    }
    auto size = static_cast<size_t>(in.tellg());
    size -= size % 64;      // line-align
    if (size == 0) {
        std::fprintf(stderr, "%s: too small (need >= 64 bytes)\n",
                     path);
        std::exit(1);
    }
    std::vector<uint8_t> bytes(size);
    in.seekg(0);
    if (!in.read(reinterpret_cast<char *>(bytes.data()),
                 static_cast<std::streamsize>(size))) {
        std::fprintf(stderr, "%s: short read (wanted %zu bytes)\n",
                     path, size);
        std::exit(1);
    }
    return bytes;
}

std::vector<uint8_t>
makeSynthetic(double sparsity, size_t bytes)
{
    SnapshotParams p;
    p.sparsity = sparsity;
    auto floats = makeActivations(bytes / 4, p, 0x5eed);
    std::vector<uint8_t> out(floats.size() * 4);
    std::memcpy(out.data(), floats.data(), out.size());
    return out;
}

/** Compose "<path>:<line>: <what>" for metrics-stream diagnostics. */
std::runtime_error
metricsError(const std::string &path, size_t line,
             const std::string &what)
{
    return std::runtime_error(path + ":" + std::to_string(line) +
                              ": " + what);
}

/** Fetch a required member of a known Json type, or throw. */
const Json &
requireField(const Json &rec, const char *key, const char *type,
             const std::string &path, size_t line)
{
    const Json *p = rec.find(key);
    bool ok = p != nullptr;
    if (ok) {
        if (std::strcmp(type, "string") == 0)
            ok = p->isString();
        else if (std::strcmp(type, "number") == 0)
            ok = p->isNumber();
        else if (std::strcmp(type, "object") == 0)
            ok = p->isObject();
    }
    if (!ok)
        throw metricsError(path, line,
                           std::string("record needs ") + type +
                               " field '" + key + "'");
    return *p;
}

/**
 * Validate a zcomp-metrics-v1 JSONL stream (see common/metrics.hh
 * for the writer). Prints a summary on success; throws on the first
 * malformed record, which main() turns into exit 1.
 */
int
validateMetrics(const char *file, bool json_mode)
{
    std::ifstream in(file);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", file);
        std::exit(1);
    }
    const std::string path = file;

    // Last sample cycle per (cell, policy) series, for monotonicity.
    std::map<std::pair<std::string, std::string>, double> lastCycle;
    std::map<std::pair<std::string, std::string>, uint64_t> perSeries;
    uint64_t samples = 0, progress = 0, drains = 0;
    uint64_t workerEvents = 0, crashes = 0;
    double maxCycle = 0;

    std::string text;
    size_t lineno = 0;
    while (std::getline(in, text)) {
        lineno++;
        if (text.empty())
            throw metricsError(path, lineno, "empty line");
        std::string err;
        Json rec = Json::parse(text, &err);
        if (!err.empty())
            throw metricsError(path, lineno, "bad JSON: " + err);
        if (!rec.isObject())
            throw metricsError(path, lineno, "record is not an object");

        const Json &schema =
            requireField(rec, "schema", "string", path, lineno);
        if (schema.asString() != "zcomp-metrics-v1")
            throw metricsError(path, lineno,
                               "unknown schema '" + schema.asString() +
                                   "' (want zcomp-metrics-v1)");
        const Json &kind =
            requireField(rec, "kind", "string", path, lineno);
        requireField(rec, "hostMs", "number", path, lineno);

        if (kind.asString() == "sample") {
            samples++;
            const std::string cell =
                requireField(rec, "cell", "string", path, lineno)
                    .asString();
            const std::string policy =
                requireField(rec, "policy", "string", path, lineno)
                    .asString();
            double cycle =
                requireField(rec, "cycle", "number", path, lineno)
                    .asDouble();
            double window =
                requireField(rec, "window", "number", path, lineno)
                    .asDouble();
            if (!(window > 0))
                throw metricsError(path, lineno,
                                   "sample window must be > 0");
            const Json &counters =
                requireField(rec, "counters", "object", path, lineno);
            for (const auto &kv : counters.members())
                if (!kv.second.isNumber())
                    throw metricsError(path, lineno,
                                       "counter '" + kv.first +
                                           "' is not a number");
            const Json &derived =
                requireField(rec, "derived", "object", path, lineno);
            for (const auto &kv : derived.members())
                if (!kv.second.isNumber())
                    throw metricsError(path, lineno,
                                       "derived '" + kv.first +
                                           "' is not a number");
            if (rec.find("drain"))
                drains++;

            auto key = std::make_pair(cell, policy);
            auto it = lastCycle.find(key);
            if (it != lastCycle.end() && !(cycle > it->second))
                throw metricsError(
                    path, lineno,
                    "sample cycle " + std::to_string(cycle) +
                        " not after " + std::to_string(it->second) +
                        " for (" + cell + ", " + policy + ")");
            lastCycle[key] = cycle;
            perSeries[key]++;
            if (cycle > maxCycle)
                maxCycle = cycle;
        } else if (kind.asString() == "progress") {
            progress++;
            for (const char *k :
                 {"done", "total", "cached", "failed", "retried",
                  "cellsPerSec", "etaSec"})
                requireField(rec, k, "number", path, lineno);
            double done =
                rec.find("done")->asDouble();
            double total = rec.find("total")->asDouble();
            if (done > total)
                throw metricsError(path, lineno,
                                   "progress done exceeds total");
        } else if (kind.asString() == "worker") {
            // Sweep-supervisor lifecycle (--isolate-cells): a worker
            // process was spawned or reaped.
            workerEvents++;
            const std::string event =
                requireField(rec, "event", "string", path, lineno)
                    .asString();
            if (event != "spawn" && event != "exit")
                throw metricsError(path, lineno,
                                   "unknown worker event '" + event +
                                       "'");
            requireField(rec, "worker", "number", path, lineno);
            requireField(rec, "pid", "number", path, lineno);
            requireField(rec, "cell", "string", path, lineno);
            if (event == "exit")
                requireField(rec, "status", "string", path, lineno);
        } else if (kind.asString() == "crash") {
            // Supervisor-domain cell failure: signal death, hard
            // timeout or heartbeat loss.
            crashes++;
            requireField(rec, "worker", "number", path, lineno);
            requireField(rec, "cell", "string", path, lineno);
            requireField(rec, "signal", "string", path, lineno);
            const std::string reason =
                requireField(rec, "reason", "string", path, lineno)
                    .asString();
            if (reason != "signal" && reason != "timeout" &&
                reason != "heartbeat")
                throw metricsError(path, lineno,
                                   "unknown crash reason '" + reason +
                                       "'");
        } else {
            throw metricsError(path, lineno,
                               "unknown kind '" + kind.asString() +
                                   "'");
        }
    }
    if (lineno == 0)
        throw std::runtime_error(path + ": no records");

    if (json_mode) {
        Json doc = Json::object();
        doc["file"] = path;
        doc["records"] = lineno;
        doc["samples"] = samples;
        doc["progress"] = progress;
        doc["workerEvents"] = workerEvents;
        doc["crashes"] = crashes;
        doc["drains"] = drains;
        doc["series"] = perSeries.size();
        doc["maxCycle"] = maxCycle;
        std::printf("%s\n", doc.dump(2).c_str());
        return 0;
    }

    std::printf("%s: %zu records OK\n", file, (size_t)lineno);
    std::printf("samples  : %llu (%llu drain) across %zu "
                "(cell, policy) series\n",
                (unsigned long long)samples, (unsigned long long)drains,
                perSeries.size());
    std::printf("progress : %llu records\n",
                (unsigned long long)progress);
    if (workerEvents || crashes)
        std::printf("workers  : %llu events, %llu crashes\n",
                    (unsigned long long)workerEvents,
                    (unsigned long long)crashes);
    std::printf("max cycle: %.0f\n", maxCycle);
    return 0;
}

int runInspect(int argc, char **argv);

} // namespace

int
main(int argc, char **argv)
{
    // Malformed inputs must come back as a clean diagnostic and a
    // non-zero exit, never as an unhandled exception or a crash.
    try {
        return runInspect(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "zcomp_inspect: %s\n", e.what());
        return 1;
    }
}

namespace {

int
runInspect(int argc, char **argv)
{
    // Pull --json out first so it can appear anywhere.
    bool json_mode = false;
    std::vector<char *> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--json") == 0)
            json_mode = true;
        else
            args.push_back(argv[i]);
    }
    int nargs = static_cast<int>(args.size());

    std::vector<uint8_t> data;
    std::string source;
    if (nargs == 3 && std::string(args[1]) == "--metrics") {
        return validateMetrics(args[2], json_mode);
    } else if (nargs >= 3 && std::string(args[1]) == "--synth") {
        double sparsity = parseSparsity(args[2]);
        size_t bytes = nargs >= 4 ? parseBytes(args[3]) : (1u << 20);
        bytes -= bytes % 64;
        data = makeSynthetic(sparsity, bytes);
        source = "synthetic snapshot";
    } else if (nargs == 2) {
        data = readFile(args[1]);
        source = args[1];
    } else {
        std::fprintf(stderr,
                     "usage: %s [--json] <file> | "
                     "--synth <sparsity> [bytes] | "
                     "--metrics <file.jsonl>\n",
                     argv[0]);
        return 1;
    }

    const size_t n = data.size() / 4;

    // Whole-buffer ZCOMP statistics (interleaved fp32 headers).
    std::vector<uint8_t> dst(data.size() + (n / 16 + 1) * 2 + 64);
    const float *floats = reinterpret_cast<const float *>(data.data());
    size_t vec_elems = n - n % 16;
    StreamStats s = compressBufferPs(floats, vec_elems, dst.data(),
                                     dst.size(), Ccf::EQZ);

    // Cache-compression comparison on the same data.
    CompRatios r = analyzeSnapshot(data.data(),
                                   data.size() - data.size() % 64);

    // Per-block (1 MiB) profile: sparsity and ratio across the file.
    const size_t block = 1u << 20;
    struct BlockStat
    {
        size_t offset;
        double sparsity;
        double ratio;
    };
    std::vector<BlockStat> blocks;
    if (data.size() > 2 * block) {
        for (size_t off = 0; off + block <= data.size();
             off += block) {
            const float *bf =
                reinterpret_cast<const float *>(data.data() + off);
            size_t bn = block / 4;
            std::vector<uint8_t> bd(block + (bn / 16) * 2 + 64);
            StreamStats bs = compressBufferPs(bf, bn, bd.data(),
                                              bd.size(), Ccf::EQZ);
            blocks.push_back(
                {off, bs.sparsity(ElemType::F32), bs.ratio()});
        }
    }

    if (json_mode) {
        Json doc = Json::object();
        doc["source"] = source;
        doc["bytes"] = data.size();
        doc["elements"] = n;

        Json &zc = doc["zcomp"];
        zc = Json::object();
        zc["sparsity"] = s.sparsity(ElemType::F32);
        zc["ratio"] = s.ratio();
        zc["originalBytes"] = s.originalBytes();
        zc["totalBytes"] = s.totalBytes();
        zc["headerBytes"] = s.headerBytes;
        zc["fitsOriginalAlloc"] = s.totalBytes() <= s.originalBytes();

        Json &cc = doc["cachecomp"];
        cc = Json::object();
        cc["limitCC"] = r.limitCC;
        cc["twoTagCC"] = r.twoTagCC;

        Json blk = Json::array();
        for (const BlockStat &b : blocks) {
            Json e = Json::object();
            e["offset"] = b.offset;
            e["sparsity"] = b.sparsity;
            e["ratio"] = b.ratio;
            blk.push(std::move(e));
        }
        doc["perMiB"] = std::move(blk);
        std::printf("%s\n", doc.dump(2).c_str());
        return 0;
    }

    std::printf("source : %s (%zu bytes, %zu fp32 elements)\n",
                source.c_str(), data.size(), n);
    std::printf("zero sparsity      : %5.1f%%\n",
                s.sparsity(ElemType::F32) * 100);
    std::printf("zcomp ratio        : %5.2fx (%llu -> %llu bytes, "
                "%llu header bytes)\n",
                s.ratio(), (unsigned long long)s.originalBytes(),
                (unsigned long long)s.totalBytes(),
                (unsigned long long)s.headerBytes);
    std::printf("fits orig. alloc.  : %s (needs >= 3.125%% "
                "compressibility)\n",
                s.totalBytes() <= s.originalBytes() ? "yes" : "NO");
    std::printf("FPC-D LimitCC ratio: %5.2fx\n", r.limitCC);
    std::printf("FPC-D TwoTagCC     : %5.2fx\n", r.twoTagCC);

    if (!blocks.empty()) {
        Table t("per-MiB profile");
        t.setHeader({"offset", "sparsity", "zcomp ratio"});
        for (const BlockStat &b : blocks) {
            t.addRow({Table::fmtBytes(static_cast<double>(b.offset)),
                      Table::fmtPct(b.sparsity),
                      Table::fmt(b.ratio, 2) + "x"});
        }
        t.print(std::cout);
    }
    return 0;
}

} // namespace
