/**
 * @file
 * NetworkSim - replays a functionally-executed Network through the
 * timing model under a cross-layer I/O policy.
 *
 * Policies (the three systems Figures 13/14 compare):
 *  - Uncompressed : plain AVX512 loads/stores of every tensor.
 *  - Avx512Comp   : software compression of cross-layer tensors with
 *                   vcompressstoreu/vexpandloadu and explicit mask
 *                   arrays (Figures 10/11 style).
 *  - Zcomp        : the proposed instructions with interleaved
 *                   headers; ReLU stores fuse the LTEZ comparison.
 *
 * Only cross-layer data (feature maps and gradient maps) is
 * compressed; inputs, weights and within-layer scratch always move
 * uncompressed, exactly as Section 4 prescribes.
 *
 * Timing model per layer (see DESIGN.md Section 4.3):
 *  - streaming layers (ReLU/LRN/dropout/eltwise/softmax/concat) read
 *    their inputs and write their output vector-by-vector;
 *  - pooling reads the input once (window reuse is L1-resident) and
 *    writes the smaller output;
 *  - conv/FC run three phases: pack (read input via the policy,
 *    expand into a per-core L2-resident scratch), GEMM (weight panels
 *    re-read once per Mc-row block, compute charged at 2 uops per
 *    16-lane FMA = 32 MACs/cycle/core peak), and output write (via
 *    the policy);
 *  - the backward pass mirrors this with gradient maps: dW needs
 *    dY + packed X, dX needs the weight panels again and writes a
 *    gradient map.
 * Every layer pass ends in a barrier (sync time in the Figure 2
 * breakdown).
 */

#ifndef ZCOMP_SIM_NETWORK_SIM_HH
#define ZCOMP_SIM_NETWORK_SIM_HH

#include <string>
#include <unordered_map>

#include "dnn/network.hh"
#include "sim/exec_context.hh"

namespace zcomp {

enum class IoPolicy
{
    Uncompressed = 0,
    Avx512Comp,
    Zcomp,
};

constexpr int numIoPolicies = 3;

/** Stable policy label ("uncompressed"/"avx512-comp"/"zcomp"), also
 *  the matching CompressionScheme name; panics on an out-of-range
 *  value so a bad policy can never reach report rows or result-cache
 *  keys under a shared "?" label. */
const char *ioPolicyName(IoPolicy p);

struct NetworkSimConfig
{
    IoPolicy policy = IoPolicy::Uncompressed;
};

/** Per-layer-pass accounting (also powers the examples). */
struct LayerPassStats
{
    std::string name;
    bool backward = false;
    RunStats stats;
};

struct NetworkSimResult
{
    RunStats total;
    std::vector<LayerPassStats> layers;

    double cycles() const { return total.cycles; }

    /** Aggregate traffic across all links incl. DRAM (Figure 13). */
    uint64_t trafficBytes() const { return total.traffic.totalBytes(); }
};

class NetworkSim
{
  public:
    /**
     * @param net a built Network whose functional forward (and, for
     *        training, backward) pass has already run, so tensor
     *        values - and hence compressed sizes - are real.
     */
    NetworkSim(ExecContext &ctx, Network &net);

    /** Replay one full pass (forward, plus backward when training). */
    NetworkSimResult run(const NetworkSimConfig &cfg);

  private:
    /**
     * One full scan of a tensor's values: per-16-lane-vector nonzero
     * counts plus the derived sparsity. Tensor values are frozen once
     * the functional pass has run, so the scan is computed once per
     * tensor and shared by every policy run on this NetworkSim (the
     * same tensor streams in several passes of each of the three
     * policy runs; rescanning per emitted vector dominated trace
     * construction).
     */
    struct TensorScan
    {
        std::vector<uint16_t> nnz;  //!< per elems/16 full vectors
        double sparsity = 0.0;      //!< == Tensor::sparsity() exactly
    };

    const TensorScan &scanFor(const Tensor &t);

    ExecContext &ctx_;
    Network &net_;
    std::vector<Buffer *> maskArena_;   //!< avx512-comp header arrays
    std::vector<Buffer *> scratch_;     //!< per-core pack scratch

    Buffer &maskFor(int node, bool grad);
    Buffer &scratchFor(int core);

    std::vector<Buffer *> gradMaskArena_;
    // Determinism note: this map is a pure memo keyed by tensor
    // identity - only ever probed with find()/emplace(), never
    // iterated - so its (pointer-hashed, run-varying) internal order
    // cannot reach simulated state or study output. The zcomp_lint
    // unordered-iteration rule enforces exactly this invariant.
    std::unordered_map<const Tensor *, TensorScan> scans_;
};

} // namespace zcomp

#endif // ZCOMP_SIM_NETWORK_SIM_HH
