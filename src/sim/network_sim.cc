#include "sim/network_sim.hh"

#include <algorithm>
#include <numeric>

#include "common/bitops.hh"
#include "common/check.hh"
#include "common/fault.hh"
#include "common/log.hh"
#include "dnn/layers/conv.hh"
#include "dnn/layers/fc.hh"
#include "isa/dtype.hh"

namespace zcomp {

const char *
ioPolicyName(IoPolicy p)
{
    switch (p) {
      case IoPolicy::Uncompressed:
        return "uncompressed";
      case IoPolicy::Avx512Comp:
        return "avx512-comp";
      case IoPolicy::Zcomp:
        return "zcomp";
    }
    // An out-of-range value here would otherwise flow silently into
    // report rows and result-cache keys, colliding distinct invalid
    // policies on one cached entry (ISSUE 9).
    panic("invalid IoPolicy %d", static_cast<int>(p));
}

namespace {

constexpr uint64_t hdrB = headerBytes(ElemType::F32);  //!< mask bytes
constexpr size_t scratchBytes = 128 * KiB;  //!< per-core pack buffer
constexpr int subBlocks = 8;                //!< unroll streams per thread
constexpr uint64_t gemmBlockRows = 2048;    //!< Mc: rows per panel re-read

/** One tensor's role in a streaming pass. */
struct StreamSpec
{
    const Tensor *tensor = nullptr;
    Buffer *mask = nullptr;     //!< avx512-comp header array (or null)
    const uint16_t *nnz = nullptr;  //!< memoized per-vector nonzeros
    bool write = false;
    bool fusedLtez = false;     //!< zcomps does the ReLU comparison
    bool compress = false;      //!< this tensor moves compressed
    int extraUops = 0;          //!< layer compute attached per vector
};

/** Whether a tensor is cross-layer data the policy may compress. */
bool
isCrossLayer(const Tensor &t)
{
    return t.allocClass() == AllocClass::FeatureMap ||
           t.allocClass() == AllocClass::GradientMap;
}

/**
 * Interleaved headers must amortize their metadata to stay within the
 * original allocation (Section 4.1: >= 3.125% compressibility for
 * fp32/512-bit). Dense tensors - e.g. pre-activation conv outputs -
 * therefore move uncompressed under every policy.
 */
constexpr double minSparsityToCompress = 0.05;

/** Base address of a Conv/FC layer's weight panel. */
Addr
weightBase(const Layer &layer)
{
    if (layer.kind() == LayerKind::Conv)
        return static_cast<const ConvLayer &>(layer).weights().addrAt(0);
    return static_cast<const FcLayer &>(layer).weights().addrAt(0);
}

/**
 * Builds one barrier-delimited TracePhase for a layer pass and runs
 * it. Streams are partitioned over cores and sub-blocks; compressed
 * streams replay exact per-vector sizes scanned from tensor values.
 */
class PassBuilder
{
  public:
    PassBuilder(ExecContext &ctx, const NetworkSimConfig &cfg,
                std::string name)
        : ctx_(ctx), cfg_(cfg),
          phase_(std::move(name), ctx.config().numCores),
          cores_(ctx.config().numCores),
          logicLat_(static_cast<uint8_t>(
              ctx.config().zcomp.logicLatency))
    {}

    /** Emit an interleaved streaming pass over the given tensors. */
    void
    stream(const std::vector<StreamSpec> &specs)
    {
        for (const StreamSpec &spec : specs) {
            ZCOMP_DCHECK(!spec.compress || spec.nnz,
                         "compressed stream without nonzero counts");
        }
        int subs = std::max(
            1, std::min(subBlocks,
                        CoreModel::maxStreams /
                            std::max<int>(1, specs.size())));
        // This pass's bytes before and after compression, for the
        // phase observer. Only paid when one is installed; the
        // per-vector sizes are the memoized nnz counts the emit loop
        // replays anyway.
        if (ctx_.observer()) {
            for (const StreamSpec &spec : specs) {
                uint64_t vecs = spec.tensor->elems() / 16;
                uint64_t comp = vecs * 64;
                if (spec.compress)
                    comp = vecs * hdrB +
                           4 * std::accumulate(spec.nnz, spec.nnz + vecs,
                                               uint64_t{0});
                origBytes_ += vecs * 64;
                compBytes_ += comp;
            }
        }
        for (int c = 0; c < cores_; c++)
            emitCore(c, specs, subs);
    }

    /**
     * Emit a blocked-GEMM compute pass, partitioned over the panel
     * (output-channel / N-K) dimension: each core owns a disjoint
     * 1/cores slice of the weight panel and walks *all* m_rows
     * against it, re-reading its slice once per `gemmBlockRows` rows.
     * This is how library GEMMs parallelize when M is small (batch-
     * sized FC layers read the weights exactly once in total) and is
     * traffic-equivalent to M-partitioning when M is large; per-core
     * slices also stay L2-resident across panel re-reads.
     *
     * Issue uops charge 2 per 16-lane FMA (32 MACs/cycle/core peak).
     * Total MACs = m_rows * panel_bytes / 4.
     */
    void
    gemmCompute(Addr panel_base, uint64_t panel_bytes, uint64_t m_rows)
    {
        if (panel_bytes == 0 || m_rows == 0)
            return;
        if (ctx_.observer()) {
            // Weight panels always move uncompressed: ratio 1.
            origBytes_ += panel_bytes;
            compBytes_ += panel_bytes;
        }
        uint64_t lines = divCeil(panel_bytes, lineBytes);
        for (int c = 0; c < cores_; c++) {
            uint64_t line_begin =
                lines * static_cast<uint64_t>(c) /
                static_cast<uint64_t>(cores_);
            uint64_t line_end =
                lines * (static_cast<uint64_t>(c) + 1) /
                static_cast<uint64_t>(cores_);
            if (line_begin == line_end)
                continue;
            CoreTrace &t = phase_.perCore[static_cast<size_t>(c)];
            uint64_t done = 0;
            while (done < m_rows) {
                uint64_t panel_rows = std::min<uint64_t>(
                    m_rows - done, gemmBlockRows);
                // 2 uops per 16-lane FMA, panel_rows FMAs per line.
                uint16_t uops = static_cast<uint16_t>(
                    std::min<uint64_t>(2 * panel_rows, 60000));
                for (uint64_t l = line_begin; l < line_end; l++) {
                    t.push_back(TraceOp::load(
                        panel_base + l * lineBytes, lineBytes, uops,
                        /*pc=*/200));
                }
                done += panel_rows;
            }
        }
    }

    RunStats run() { return ctx_.run(phase_, origBytes_, compBytes_); }

  private:
    struct StreamState
    {
        size_t vecBegin = 0;
        size_t vecCount = 0;
        size_t byteOff = 0;     //!< running offset within the window
        Addr base = 0;          //!< window base (simulated address)
        Addr maskBase = 0;
    };

    void
    emitCore(int core, const std::vector<StreamSpec> &specs, int subs)
    {
        CoreTrace &t = phase_.perCore[static_cast<size_t>(core)];
        // Per (spec, sub) stream state.
        std::vector<std::vector<StreamState>> st(specs.size());
        size_t max_count = 0;
        for (size_t s = 0; s < specs.size(); s++) {
            const Tensor &ten = *specs[s].tensor;
            size_t vecs = ten.elems() / 16;
            size_t core_begin = vecs * static_cast<size_t>(core) /
                                static_cast<size_t>(cores_);
            size_t core_end = vecs * (static_cast<size_t>(core) + 1) /
                              static_cast<size_t>(cores_);
            st[s].resize(static_cast<size_t>(subs));
            for (int k = 0; k < subs; k++) {
                StreamState &ss = st[s][static_cast<size_t>(k)];
                size_t b = core_begin + (core_end - core_begin) *
                                            static_cast<size_t>(k) /
                                            static_cast<size_t>(subs);
                size_t e = core_begin + (core_end - core_begin) *
                                            (static_cast<size_t>(k) +
                                             1) /
                                            static_cast<size_t>(subs);
                ss.vecBegin = b;
                ss.vecCount = e - b;
                // Compressed streams live in the original allocation
                // window of their slice (Section 4.1).
                ss.base = specs[s].tensor->addrAt(b * 16);
                if (specs[s].mask)
                    ss.maskBase = specs[s].mask->addrAt(b * hdrB);
                max_count = std::max(max_count, ss.vecCount);
            }
        }

        for (size_t g = 0; g < max_count; g++) {
            for (int k = 0; k < subs; k++) {
                for (size_t s = 0; s < specs.size(); s++) {
                    StreamState &ss = st[s][static_cast<size_t>(k)];
                    if (g >= ss.vecCount)
                        continue;
                    const StreamSpec &spec = specs[s];
                    bool comp = spec.compress;
                    size_t vec = ss.vecBegin + g;
                    int stream_id =
                        static_cast<int>(s) * subs + k;
                    emitVec(t, spec, ss, vec, comp, stream_id);
                }
            }
        }

        // Tail elements (tensor size not a multiple of 16): one plain
        // access on core 0.
        if (core == 0) {
            for (const StreamSpec &spec : specs) {
                size_t tail = spec.tensor->elems() % 16;
                if (tail == 0)
                    continue;
                size_t off = spec.tensor->elems() - tail;
                TraceOp op = TraceOp::load(
                    spec.tensor->addrAt(off),
                    static_cast<uint32_t>(tail * 4), 2, 99);
                op.isWrite = spec.write;
                t.push_back(op);
            }
        }
    }

    void
    emitVec(CoreTrace &t, const StreamSpec &spec, StreamState &ss,
            size_t vec, bool comp, int stream_id)
    {
        if (!comp) {
            // Plain AVX512 vector move.
            TraceOp op = TraceOp::load(
                spec.tensor->addrAt(vec * 16), 64,
                static_cast<uint16_t>(1 + spec.extraUops +
                                      (spec.write ? 1 : 0)),
                static_cast<uint16_t>(1 + stream_id));
            op.isWrite = spec.write;
            t.push_back(op);
            return;
        }

        uint32_t nnz = spec.nnz[vec];
        if (cfg_.policy == IoPolicy::Zcomp) {
            TraceOp op = TraceOp::load(
                ss.base + ss.byteOff,
                static_cast<uint32_t>(hdrB) + nnz * 4,
                static_cast<uint16_t>(
                    1 + spec.extraUops +
                    (spec.fusedLtez ? 0 : (spec.write ? 1 : 0))),
                static_cast<uint16_t>(1 + stream_id));
            op.isWrite = spec.write;
            op.stream = static_cast<int8_t>(stream_id %
                                            CoreModel::maxStreams);
            op.chainLat = logicLat_;
            op.zcompUnit = true;
            t.push_back(op);
            ss.byteOff += hdrB + nnz * 4;
            return;
        }

        // Avx512Comp: separate mask array + packed payload.
        TraceOp mask_op = TraceOp::load(
            ss.maskBase + (vec - ss.vecBegin) * hdrB,
            static_cast<uint32_t>(hdrB), 1,
            static_cast<uint16_t>(64 + stream_id));
        mask_op.isWrite = spec.write;
        t.push_back(mask_op);
        TraceOp data_op = TraceOp::load(
            ss.base + ss.byteOff, nnz * 4,
            static_cast<uint16_t>((spec.write ? 8 : 6) +
                                  spec.extraUops),
            static_cast<uint16_t>(1 + stream_id));
        data_op.isWrite = spec.write;
        t.push_back(data_op);
        ss.byteOff += nnz * 4;
    }

    ExecContext &ctx_;
    const NetworkSimConfig &cfg_;
    TracePhase phase_;
    int cores_;
    uint8_t logicLat_;
    uint64_t origBytes_ = 0;    //!< pass bytes before compression
    uint64_t compBytes_ = 0;    //!< pass bytes as the policy moves them
};

/** Per-vector compute uops attached to a layer's streaming pass. */
int
computeUops(LayerKind kind)
{
    switch (kind) {
      case LayerKind::Relu:
        return 1;       // vmaxps
      case LayerKind::Dropout:
        return 2;       // mask load + blend
      case LayerKind::Lrn:
        return 10;      // square/sum window + pow approximation
      case LayerKind::EltwiseAdd:
        return 1;       // vaddps
      case LayerKind::MaxPool:
      case LayerKind::AvgPool:
        return 6;       // window max/accumulate per output vector
      case LayerKind::Softmax:
        return 8;
      default:
        return 1;
    }
}

} // namespace

NetworkSim::NetworkSim(ExecContext &ctx, Network &net)
    : ctx_(ctx), net_(net)
{
    maskArena_.assign(net.numNodes(), nullptr);
    gradMaskArena_.assign(net.numNodes(), nullptr);
}

Buffer &
NetworkSim::maskFor(int node, bool grad)
{
    auto &arena = grad ? gradMaskArena_ : maskArena_;
    Buffer *&slot = arena[static_cast<size_t>(node)];
    if (!slot) {
        const Tensor &t = grad ? *net_.gradient(node)
                               : net_.activation(node);
        size_t vecs = divCeil(t.elems(), static_cast<size_t>(16));
        slot = &ctx_.vs().alloc(
            format("netsim.mask.%d.%s", node, grad ? "g" : "a"),
            std::max<size_t>(1, vecs * hdrB),
            t.allocClass());
    }
    return *slot;
}

Buffer &
NetworkSim::scratchFor(int core)
{
    while (scratch_.size() <= static_cast<size_t>(core)) {
        scratch_.push_back(&ctx_.vs().alloc(
            format("netsim.scratch.%zu", scratch_.size()),
            scratchBytes, AllocClass::Scratch));
    }
    return *scratch_[static_cast<size_t>(core)];
}

const NetworkSim::TensorScan &
NetworkSim::scanFor(const Tensor &t)
{
    // Lookup-or-compute only; see the determinism note on scans_ in
    // the header before adding any iteration over the map.
    auto it = scans_.find(&t);
    if (it != scans_.end())
        return it->second;

    TensorScan scan;
    const float *d = t.data();
    const size_t elems = t.elems();
    const size_t vecs = elems / 16;
    scan.nnz.resize(vecs);
    for (size_t v = 0; v < vecs; v++) {
        uint32_t n = 0;
        for (int i = 0; i < 16; i++)
            n += d[v * 16 + i] != 0.0f;
        scan.nnz[v] = static_cast<uint16_t>(n);
    }
    size_t nnz_total = 0;
    for (size_t v = 0; v < vecs; v++)
        nnz_total += scan.nnz[v];
    for (size_t i = vecs * 16; i < elems; i++)
        nnz_total += d[i] != 0.0f;
    // Same integer zero count as Tensor::sparsity(), so the derived
    // double (and hence the compressibility gate) is bit-identical.
    scan.sparsity = static_cast<double>(elems - nnz_total) /
                    static_cast<double>(elems);
    return scans_.emplace(&t, std::move(scan)).first->second;
}

NetworkSimResult
NetworkSim::run(const NetworkSimConfig &cfg)
{
    // Transient launch fault: thrown before any simulation state is
    // mutated so a retried cell replays from a clean slate. This is
    // the site the study runner's retry loop is tested against.
    FaultInjector::global().maybeInject(faultsite::KernelTransient);

    // Every run starts from cold caches and zeroed counters, so the
    // policy runs sharing this NetworkSim are independent.
    ctx_.sys().resetAll();

    NetworkSimResult result;
    bool avx = cfg.policy == IoPolicy::Avx512Comp;

    // Compressibility gate off the memoized tensor scan (shared with
    // the other policy runs on this NetworkSim).
    auto compressible = [&](const Tensor &t) {
        if (cfg.policy == IoPolicy::Uncompressed || !isCrossLayer(t))
            return false;
        return scanFor(t).sparsity >= minSparsityToCompress;
    };

    // Build one stream spec, resolving policy, gate and mask arena.
    auto spec = [&](int node, bool grad, bool write, bool fused,
                    int uops) {
        const Tensor &t = grad ? *net_.gradient(node)
                               : net_.activation(node);
        StreamSpec s;
        s.tensor = &t;
        s.write = write;
        s.fusedLtez = fused;
        s.extraUops = uops;
        s.compress = compressible(t);
        if (s.compress) {
            s.nnz = scanFor(t).nnz.data();
            if (avx)
                s.mask = &maskFor(node, grad);
        }
        return s;
    };

    auto record = [&](const std::string &name, bool backward,
                      RunStats stats) {
        result.layers.push_back({name, backward, stats});
        result.total += stats;
    };

    // Pre-create the per-core pack scratch (stable addresses).
    for (int c = 0; c < ctx_.config().numCores; c++)
        scratchFor(c);

    // Conv/FC + ReLU fusion (Intel-Caffe/MKL style, and what the
    // paper's zcomps-LTEZ fusion assumes): when a conv/fc feeds
    // exactly one ReLU, the dense pre-activation map never reaches
    // memory - the producer writes the ReLU's (sparse) output
    // directly, and on the way back the consumer's dx pass writes the
    // masked gradient below the ReLU. The standalone ReLU passes are
    // skipped.
    std::vector<int> fuse_out(net_.numNodes(), -1);
    std::vector<bool> fused_relu(net_.numNodes(), false);
    for (size_t i = 1; i < net_.numNodes(); i++) {
        const auto &n = net_.node(static_cast<int>(i));
        if (n.layer->kind() != LayerKind::Relu)
            continue;
        int producer = n.inputs[0];
        const auto &p = net_.node(producer);
        if ((p.layer->kind() == LayerKind::Conv ||
             p.layer->kind() == LayerKind::Fc) &&
            p.consumers == 1) {
            fuse_out[static_cast<size_t>(producer)] =
                static_cast<int>(i);
            fused_relu[i] = true;
        }
    }
    // A fused ReLU's gradient is written by its consumer's dx pass
    // into the node *below* the ReLU; resolve that indirection.
    auto grad_target = [&](int node) {
        if (node > 0 && fused_relu[static_cast<size_t>(node)])
            return net_.node(node).inputs[0];
        return node;
    };

    // ------------------------------------------------------ forward
    for (size_t i = 1; i < net_.numNodes(); i++) {
        int node = static_cast<int>(i);
        const auto &n = net_.node(node);
        LayerKind kind = n.layer->kind();
        Tensor &out = net_.activation(node);

        if (fused_relu[i])
            continue;   // folded into the producing conv/fc

        if (kind == LayerKind::Conv || kind == LayerKind::Fc) {
            const Tensor &x = net_.activation(n.inputs[0]);
            // Pack: read input through the policy, expand into the
            // per-core L2-resident scratch (whose writes are absorbed
            // locally and charged as the extra uop).
            {
                PassBuilder pb(ctx_, cfg, n.layer->name() + ".pack");
                pb.stream({spec(n.inputs[0], false, false, false, 1)});
                record(n.layer->name() + ".pack", false, pb.run());
            }
            // GEMM: weight panels re-read per Mc rows.
            {
                std::vector<TensorShape> in_shapes{x.shape()};
                uint64_t macs = n.layer->forwardMacs(in_shapes);
                uint64_t wbytes = n.layer->weightBytes();
                uint64_t m_rows =
                    wbytes ? macs / (wbytes / 4) : 0;
                PassBuilder pb(ctx_, cfg, n.layer->name() + ".gemm");
                pb.gemmCompute(weightBase(*n.layer), wbytes, m_rows);
                record(n.layer->name() + ".gemm", false, pb.run());
            }
            // Output write through the policy. With a fused ReLU the
            // producer writes the ReLU's sparse output directly
            // (zcomps-LTEZ fuses the comparison, costing no extra
            // uops).
            {
                int out_node = fuse_out[i] >= 0 ? fuse_out[i] : node;
                bool fused = fuse_out[i] >= 0 &&
                             cfg.policy == IoPolicy::Zcomp &&
                             compressible(net_.activation(out_node));
                PassBuilder pb(ctx_, cfg, n.layer->name() + ".out");
                pb.stream({spec(out_node, false, true, fused,
                                fused ? 0 : 1)});
                record(n.layer->name() + ".out", false, pb.run());
            }
            continue;
        }

        // Streaming layers: inputs + output interleaved.
        std::vector<StreamSpec> specs;
        for (int in : n.inputs)
            specs.push_back(spec(in, false, false, false,
                                 computeUops(kind)));
        bool fused = kind == LayerKind::Relu &&
                     cfg.policy == IoPolicy::Zcomp &&
                     compressible(out);
        specs.push_back(spec(node, false, true, fused, fused ? 0 : 1));
        PassBuilder pb(ctx_, cfg, n.layer->name());
        pb.stream(specs);
        record(n.layer->name(), false, pb.run());
    }

    if (!net_.training())
        return result;

    // ----------------------------------------------------- backward
    for (size_t i = net_.numNodes(); i-- > 1;) {
        int node = static_cast<int>(i);
        const auto &n = net_.node(node);
        LayerKind kind = n.layer->kind();

        if (fused_relu[i])
            continue;   // mask applied by the consumer's dx pass

        if (kind == LayerKind::Conv || kind == LayerKind::Fc) {
            const Tensor &x = net_.activation(n.inputs[0]);
            std::vector<TensorShape> in_shapes{x.shape()};
            uint64_t macs = n.layer->forwardMacs(in_shapes);
            uint64_t wbytes = n.layer->weightBytes();
            uint64_t m_rows = wbytes ? macs / (wbytes / 4) : 0;

            // dW: re-read dY and X (packed), accumulate into the
            // weight-gradient region (modeled over the weight panel).
            {
                PassBuilder pb(ctx_, cfg, n.layer->name() + ".dw");
                pb.stream({spec(node, true, false, false, 1),
                           spec(n.inputs[0], false, false, false, 1)});
                pb.gemmCompute(weightBase(*n.layer), wbytes, m_rows);
                record(n.layer->name() + ".dw", true, pb.run());
            }
            // dX: weight panels again, write the input gradient map.
            // When the input comes through a fused ReLU, the mask is
            // applied inline (reading the sparse ReLU output for the
            // mask) and the gradient lands below the ReLU.
            int dx_node = grad_target(n.inputs[0]);
            if (dx_node != 0) {
                PassBuilder pb(ctx_, cfg, n.layer->name() + ".dx");
                pb.gemmCompute(weightBase(*n.layer), wbytes, m_rows);
                std::vector<StreamSpec> dx_specs;
                if (dx_node != n.inputs[0]) {
                    // Mask source: the fused ReLU's sparse output.
                    dx_specs.push_back(
                        spec(n.inputs[0], false, false, false, 0));
                }
                dx_specs.push_back(spec(dx_node, true, true, false, 1));
                pb.stream(dx_specs);
                record(n.layer->name() + ".dx", true, pb.run());
            }
            continue;
        }

        // Streaming backward: read dY (and X where the derivative
        // needs it), write dX per input.
        std::vector<StreamSpec> specs;
        specs.push_back(
            spec(node, true, false, false, computeUops(kind)));
        if (kind == LayerKind::Relu || kind == LayerKind::MaxPool)
            specs.push_back(spec(n.inputs[0], false, false, false, 0));
        for (int in : n.inputs) {
            if (in == 0)
                continue;
            specs.push_back(spec(in, true, true, false, 1));
        }
        PassBuilder pb(ctx_, cfg, n.layer->name() + ".bwd");
        pb.stream(specs);
        record(n.layer->name() + ".bwd", true, pb.run());
    }
    return result;
}

} // namespace zcomp
