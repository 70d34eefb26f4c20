/**
 * @file
 * The benchmark's workloads. Each one prepares its inputs from the
 * workload seed once (set-up), then runs ops that call the
 * simulator's public layer functions directly:
 *
 *  - study-train     : bench::prepareNet + NetworkSim::run of ResNet-32
 *                      training (batch 8), cycling the three study
 *                      policies (the Figure 13/14 path);
 *  - relu-deepbench  : runReluExperiment over a pinned DeepBench
 *                      subset x the three ReluImpls (the Figure 12
 *                      path: kernels plus timing replay, no dnn);
 *  - fig15-snapshots : every registered CompressionScheme's
 *                      snapshotRatio over five ResNet-32 ReLU
 *                      snapshots, plus an exact zcomp stream round
 *                      trip (the Figure 15 path: no timing model).
 *
 * Every layer call sits inside a span of the SpanRecorder passed in,
 * so the traced run can split host time by layer; with a disabled
 * recorder the same calls run without a clock read.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check.hh"
#include "spans.hh"

namespace perfbench {

struct Metric
{
    double value = 0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/** What one op produced. */
struct OpRecord
{
    std::string kind;       //!< ops of one kind must repeat exactly
    Results checked;        //!< simulated results held to the check
    Results counters;       //!< exact layer counts ("mem.l1_misses", ...)
    std::string error;      //!< op threw or failed verifyOp()
    int span = -1;          //!< the op's span in a traced run
    double seconds = 0;     //!< op wall time
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** One-time preparation of the inputs for this seed. */
    virtual void setup(uint64_t seed, SpanRecorder &rec) = 0;

    /** Ops per cycle; a timed window always covers whole cycles. */
    virtual int cycleLength() const = 0;

    /** Run op number index (its kind is index % cycleLength()). */
    virtual OpRecord runOp(int64_t index, int64_t op_id,
                           SpanRecorder &rec) = 0;

    /**
     * Check the last op's outputs beyond its simulated results; runs
     * after the op's span has closed, so the check is not timed as
     * the op's work. Returns an error message, empty when they pass.
     */
    virtual std::string verifyOp() const { return {}; }

    /** Per-layer metrics from a traced window's spans and ops. */
    virtual void layerMetrics(const SpanRecorder &rec,
                              const std::vector<OpRecord> &ops,
                              Metrics &out) const = 0;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** A fresh workload by name; throws std::invalid_argument if unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

/**
 * Every per-layer metric the traced run reports, with its unit, each
 * set to 0 (the value a workload that never calls that layer keeps).
 */
Metrics perLayerMetricTemplate();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
