/**
 * @file
 * zcomp_perfbench: one benchmark run of one workload.
 *
 *   zcomp_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                   --expected PATH [--trace-out PATH]
 *                   [--record-out PATH] [--git-sha SHA]
 *                   [--perturb-expected] [--write-expected]
 *
 * A run sets the workload up (input preparation plus one untimed
 * warm-up op), then runs whole op cycles until S seconds have passed
 * (one cycle with S = 0), checking every op's results. setup_s is the
 * time from the start of main to the end of the set-up, measured in
 * this process and in two fresh processes of the same binary
 * (--setup-only), and reported as the median of the three: each
 * sample pays every first-use cost, none runs in a warmed process.
 * The last line of stdout is the result object
 *   {"correct", "attempted", "failed", "metrics"}
 * with the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1). A traced run measures an untraced window first and
 * then an equally long traced one; the per-layer numbers come from
 * the traced window and trace.overhead_frac compares the two.
 *
 * The line before the result is the run record: the pinned settings
 * and the machine context (nproc, load average at start and end)
 * that tell a noisy run apart afterwards.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/simd.hh"
#include "common/subprocess.hh"
#include "common/thread_pool.hh"
#include "spans.hh"
#include "stats.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

/** Pool size for the functional GEMMs: with 4 threads on a 4-vCPU
 *  guest the ResNet-32 forward passes ran ~40% slower than with 1-2. */
constexpr int pinnedJobs = 2;

/** Set-up samples per run: this process plus fresh ones. */
constexpr size_t setupSamples = 3;

struct Args
{
    std::string workload;
    unsigned long long seed = pinnedSeed;
    double seconds = 10;
    bool trace = false;
    std::string expected;
    std::string traceOut;
    std::string recordOut;
    std::string gitSha = "unknown";
    bool perturbExpected = false;
    bool writeExpected = false;
    bool setupOnly = false;     //!< print this process's setup_s, exit
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "zcomp_perfbench: " << why << "\n"
              << "usage: zcomp_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --expected PATH "
                 "[--trace-out PATH] [--record-out PATH] [--git-sha SHA] "
                 "[--perturb-expected] [--write-expected]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; i++) {
        std::string k = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(k + " needs a value");
            return argv[++i];
        };
        try {
            if (k == "--workload")
                a.workload = value();
            else if (k == "--seed")
                a.seed = std::stoull(value());
            else if (k == "--seconds")
                a.seconds = std::stod(value());
            else if (k == "--trace")
                a.trace = std::stoi(value()) != 0;
            else if (k == "--expected")
                a.expected = value();
            else if (k == "--trace-out")
                a.traceOut = value();
            else if (k == "--record-out")
                a.recordOut = value();
            else if (k == "--git-sha")
                a.gitSha = value();
            else if (k == "--perturb-expected")
                a.perturbExpected = true;
            else if (k == "--write-expected")
                a.writeExpected = true;
            else if (k == "--setup-only")
                a.setupOnly = true;
            else
                usage("unknown argument " + k);
        } catch (const std::logic_error &) {
            usage("bad value for " + k);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (a.expected.empty())
        usage("--expected is required");
    if (a.writeExpected && a.seed != pinnedSeed)
        usage("--write-expected needs the pinned seed");
    if (a.seconds < 0)
        usage("--seconds must not be negative");
    return a;
}

zcomp::Json
loadAverage()
{
    double la[3] = {0, 0, 0};
    zcomp::Json j = zcomp::Json::array();
    if (getloadavg(la, 3) == 3) {
        for (double v : la)
            j.push(v);
    }
    return j;
}

int
affinityCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 0;
    return CPU_COUNT(&set);
}

/** One timed window: whole op cycles until `seconds` have passed. */
struct Window
{
    std::vector<OpRecord> ops;
    double seconds = 0;
    long failed = 0;
};

Window
runWindow(Workload &wl, SpanRecorder &rec, ResultCheck &check,
          const Args &a, int64_t first_op_id)
{
    Window w;
    const int cycle = wl.cycleLength();
    const int64_t t0 = nowNs();
    for (int64_t i = 0;; i++) {
        const int64_t id = first_op_id + i;
        const int64_t s0 = nowNs();
        OpRecord op;
        int span = rec.begin("op", id);
        try {
            op = wl.runOp(i, id, rec);
        } catch (const std::exception &e) {
            op.kind = "error";
            op.error = e.what();
        }
        rec.end(span);
        op.span = span;
        op.seconds = static_cast<double>(nowNs() - s0) * 1e-9;
        if (op.error.empty())
            op.error = wl.verifyOp();
        std::vector<std::string> bad = check.check(op.kind, op.checked);
        if (!op.error.empty())
            bad.insert(bad.begin(), op.error);
        if (!bad.empty()) {
            w.failed++;
            std::cerr << "op " << id << " (" << op.kind << ") failed: "
                      << bad.front();
            if (bad.size() > 1)
                std::cerr << " (+" << bad.size() - 1 << " more)";
            std::cerr << "\n";
        }
        w.ops.push_back(std::move(op));
        const int64_t done = static_cast<int64_t>(w.ops.size());
        if (done % cycle == 0 &&
            static_cast<double>(nowNs() - t0) * 1e-9 >= a.seconds)
            break;
    }
    w.seconds = static_cast<double>(nowNs() - t0) * 1e-9;
    return w;
}

/** The workload set up for the run: input preparation plus one
 *  untimed warm-up op, inside a "setup" span. */
std::unique_ptr<Workload>
setUp(const Args &a, SpanRecorder &rec)
{
    int span = rec.begin("setup", -1);
    std::unique_ptr<Workload> wl = makeWorkload(a.workload);
    wl->setup(a.seed, rec);
    wl->runOp(0, -1, rec);
    rec.end(span);
    if (std::string error = wl->verifyOp(); !error.empty())
        throw std::runtime_error("warm-up op failed: " + error);
    return wl;
}

/** setup_s of a fresh process of this binary run with --setup-only;
 *  its stderr passes through. */
double
setupInFreshProcess(const Args &a)
{
    zcomp::Subprocess::Options opt;
    opt.argv = {"/proc/self/exe", "--workload", a.workload,
                "--seed", std::to_string(a.seed),
                "--expected", a.expected, "--setup-only"};
    zcomp::Subprocess child(opt);
    zcomp::LineReader out(child.stdoutFd()), err(child.stderrFd());
    std::vector<std::string> lines, errs;
    while (!(out.eof() && err.eof() && child.poll())) {
        out.poll(lines);
        err.poll(errs);
        for (const std::string &line : errs)
            std::cerr << line << "\n";
        errs.clear();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (!child.status().ok() || lines.empty())
        throw std::runtime_error("set-up in a fresh process failed (" +
                                 child.status().describe() + ")");
    return std::stod(lines.back());
}

double
peakRssMiB()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

} // namespace

int
main(int argc, char **argv)
{
    nowNs();    // time zero for set-up and spans
    Args a = parseArgs(argc, argv);

    zcomp::setQuiet(true);
    zcomp::ThreadPool::setGlobalJobs(pinnedJobs);
    zcomp::simd::setBackend(zcomp::simd::bestSupportedBackend());
    zcomp::Json load_start = loadAverage();

    ResultCheck check;
    try {
        if (a.seed == pinnedSeed && !a.writeExpected) {
            Expected exp = loadExpected(a.expected, a.workload);
            if (a.perturbExpected && !exp.empty() &&
                !exp.begin()->second.empty())
                exp.begin()->second.begin()->second += 1;
            check.setExpected(std::move(exp));
        }

        SpanRecorder rec(a.trace);
        std::unique_ptr<Workload> wl = setUp(a, rec);
        std::vector<double> setup_s = {static_cast<double>(nowNs()) * 1e-9};
        if (a.setupOnly) {
            std::cout.precision(17);
            std::cout << setup_s.front() << std::endl;
            return 0;
        }
        // setup_s is an end-to-end metric: the traced run skips it.
        while (!a.trace && setup_s.size() < setupSamples)
            setup_s.push_back(setupInFreshProcess(a));

        // A traced run first measures an untraced window of the same
        // length, so trace.overhead_frac compares like with like.
        Window untraced, traced;
        int64_t next_id = 0;
        {
            SpanRecorder off(false);
            untraced = runWindow(*wl, off, check, a, next_id);
            next_id += static_cast<int64_t>(untraced.ops.size());
        }
        if (a.trace) {
            traced = runWindow(*wl, rec, check, a, next_id);
        }

        if (a.writeExpected) {
            Expected all;
            for (const OpRecord &op : untraced.ops)
                all[op.kind].insert(op.checked.begin(), op.checked.end());
            storeExpected(a.expected, a.workload, all);
        }

        const long attempted = static_cast<long>(untraced.ops.size() +
                                                 traced.ops.size());
        const long failed = untraced.failed + traced.failed;
        auto rate = [](const Window &w) {
            return static_cast<double>(w.ops.size()) / w.seconds;
        };

        Metrics metrics;
        if (!a.trace) {
            metrics["ops_per_s"] = Metric{rate(untraced), "1/s"};
            metrics["setup_s"] = Metric{median(setup_s), "s"};
            metrics["peak_rss_mib"] = Metric{peakRssMiB(), "MiB"};
        } else {
            metrics = perLayerMetricTemplate();
            wl->layerMetrics(rec, traced.ops, metrics);
            std::vector<double> op_s;
            double coverage = 1.0;
            double prepare_s = 0;
            for (const OpRecord &op : traced.ops) {
                op_s.push_back(op.seconds);
                coverage = std::min(coverage, rec.childCoverage(op.span));
            }
            for (const Span &s : rec.spans()) {
                if (s.name == "dnn.prepare")
                    prepare_s += s.seconds();
            }
            const double tail = tailPercentile(op_s.size());
            metrics["dnn.prepare_s"].value = prepare_s;
            metrics["op.p50_s"].value = median(op_s);
            metrics["op.tail_s"].value = percentile(op_s, tail);
            metrics["op.tail_pct"].value = tail;
            metrics["op.samples"].value = static_cast<double>(op_s.size());
            metrics["trace.overhead_frac"].value =
                rate(untraced) / rate(traced) - 1.0;
            metrics["trace.span_coverage_min"].value = coverage;
            if (!a.traceOut.empty())
                rec.writeChromeTrace(a.traceOut);
        }

        zcomp::Json record = zcomp::Json::object();
        record["workload"] = a.workload;
        record["seed"] = static_cast<unsigned long long>(a.seed);
        record["trace"] = a.trace;
        record["git_sha"] = a.gitSha;
        record["nproc"] = affinityCpus();
        record["pool_jobs"] = zcomp::ThreadPool::global().jobs();
        record["simd_backend"] =
            zcomp::simd::backendName(zcomp::simd::activeBackend());
        zcomp::Json setups = zcomp::Json::array();
        for (double s : setup_s)
            setups.push(s);
        record["setup_s"] = std::move(setups);
        record["window_s"] = untraced.seconds;
        record["ops"] = static_cast<long long>(untraced.ops.size());
        zcomp::Json op_s = zcomp::Json::array();
        for (const OpRecord &op : untraced.ops)
            op_s.push(op.seconds);
        record["op_s"] = std::move(op_s);
        record["loadavg_start"] = std::move(load_start);
        record["loadavg_end"] = loadAverage();
        zcomp::Json rec_line = zcomp::Json::object();
        rec_line["run_record"] = record;
        if (!a.recordOut.empty())
            std::ofstream(a.recordOut, std::ios::app) << record.dump() << "\n";

        zcomp::Json m = zcomp::Json::object();
        for (const auto &[name, metric] : metrics) {
            zcomp::Json v = zcomp::Json::object();
            v["value"] = metric.value;
            v["unit"] = metric.unit;
            m[name] = std::move(v);
        }
        zcomp::Json out = zcomp::Json::object();
        out["correct"] = failed == 0;
        out["attempted"] = static_cast<long long>(attempted);
        out["failed"] = static_cast<long long>(failed);
        out["metrics"] = std::move(m);
        std::cout << rec_line.dump() << "\n" << out.dump() << std::endl;
    } catch (const std::exception &e) {
        std::cerr << "zcomp_perfbench: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
