#include "sim/kernels.hh"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <optional>
#include <span>

#include "common/fault.hh"
#include "common/log.hh"
#include "isa/avx512.hh"
#include "zcomp/intrinsics.hh"

namespace zcomp {

namespace {

constexpr uint64_t hdrB = headerBytes(ElemType::F32);

/**
 * Where a map's vectors live (Section 4.1):
 *  - Plain:    64 B per vector at the sub-chunk's region offset.
 *  - Separate: nnz*4 B of payload at the region offset, plus the
 *              vector's header in a mask array at gvec*hdrB.
 *  - Inline:   hdrB + nnz*4 B per vector at the slack offset.
 */
enum class Layout
{
    Plain,
    Separate,
    Inline,
};

/** uops and pseudo-PC slot of one per-vector trace access. */
struct Cost
{
    uint16_t uops;
    int slot;
};

/** One access of a loop body: which map, which way, header or data. */
struct Step
{
    int map;        //!< 0 = X, 1 = Y
    bool write;
    bool header;    //!< mask-array access (Separate layout only)
};

constexpr int mapX = 0, mapY = 1;

/** Store loop: [X header load], X load, Y store, [Y header store]. */
constexpr Step storeSteps[] = {{mapX, false, true},
                               {mapX, false, false},
                               {mapY, true, false},
                               {mapY, true, true}};

/** Retrieve loop: [Y header load], Y load. */
constexpr Step retrieveSteps[] = {{mapY, false, true},
                                  {mapY, false, false}};

/**
 * One Figure 8-11 implementation: its Section 4.4 loop bodies, the
 * cost of each access of its loops (indexed like storeSteps and
 * retrieveSteps; header costs apply only under Layout::Separate),
 * the layout it stores maps in, and whether its data accesses go
 * through the ZCOMP unit and its pointer chain.
 */
struct ImplRow
{
    const char *name;
    KernelBody storeBody;
    KernelBody retrieveBody;
    Cost store[std::size(storeSteps)];
    Cost retrieve[std::size(retrieveSteps)];
    Layout layout;          //!< zcomp's Inline becomes Separate with
                            //!< ReluExperimentConfig::separateHeader
    bool zcompUnit;
};

const ImplRow &
rowOf(ReluImpl impl)
{
    using IC = InstrClass;
    static const ImplRow rows[numReluImpls] = {
        {"avx512-vec",
         // vmovups; vmaxps; vmovups; loop. Registers: tvec, zero
         // vector | X, Y, i.
         {"relu-store avx512-vec",
          {{IC::VecLoad, 1}, {IC::VecMax, 1}, {IC::VecStore, 1},
           {IC::LoopOverhead, 1}},
          2, 0, 3},
         // vmovups + consume + loop.
         {"retrieve avx512-vec",
          {{IC::VecLoad, 1}, {IC::LoopOverhead, 1}},
          1, 0, 2},
         {{0, 0}, {1, 0}, {4, 1}, {0, 0}},
         {{0, 0}, {4, 4}},
         Layout::Plain, false},
        {"avx512-comp",
         // Figure 10: headers[i] load; kmov + vexpandload + popcnt +
         // index add; vcmp + popcnt + vcompressstore + index add;
         // headers store + loop. Registers: tvec, zvec | k | X, Y,
         // headers, index, nnz_cnt, i.
         {"relu-store avx512-comp",
          {{IC::VecLoad, 1}, {IC::VecCmpMask, 1}, {IC::KMov, 1},
           {IC::Popcnt, 1}, {IC::VecCompressStore, 1},
           {IC::ScalarAlu, 1}, {IC::ScalarStore, 1},
           {IC::LoopOverhead, 1}},
          2, 1, 6},
         // Figure 11: headers[i] load; kmov + vexpandload + popcnt +
         // add + consume + loop. Registers: X, headers, index,
         // nnz_cnt, i.
         {"retrieve avx512-comp",
          {{IC::ScalarLoad, 1}, {IC::KMov, 1}, {IC::VecExpandLoad, 1},
           {IC::Popcnt, 1}, {IC::ScalarAlu, 1}, {IC::LoopOverhead, 1}},
          1, 1, 5},
         {{1, 0}, {6, 1}, {7, 2}, {3, 3}},
         {{1, 4}, {8, 5}},
         Layout::Separate, false},
        {"zcomp",
         // Figure 8: zcompl X; zcomps Y (LTEZ fused ReLU) + loop.
         // Separate headers have statically known addresses (fixed
         // reg3 stride): issued by the same instruction, no extra
         // uops. Registers: tvec | X, Y_ptr, i.
         {"relu-store zcomp",
          {{IC::VecLoad, 1}, {IC::ZcompS, 1}, {IC::LoopOverhead, 1}},
          1, 0, 3},
         // Figure 9: zcompl + consume + loop. Registers: X_ptr, i.
         {"retrieve zcomp",
          {{IC::ZcompL, 1}, {IC::LoopOverhead, 1}},
          1, 0, 2},
         {{0, 2}, {1, 0}, {3, 1}, {0, 3}},
         {{0, 5}, {4, 4}},
         Layout::Inline, true},
    };
    const int i = static_cast<int>(impl);
    panic_if(i < 0 || i >= numReluImpls, "invalid ReluImpl %d", i);
    return rows[i];
}

/** Per-(core, sub-block) layout and per-vector compressed sizes. */
struct SubStream
{
    Chunk chunk;                    //!< element range + region window
    std::vector<uint8_t> nnz[2];    //!< per-vector NNZ of X and Y
};

struct ExperimentState
{
    Layout layout = Layout::Plain;
    Buffer *data[2] = {};           //!< X and Y
    Buffer *mask[2] = {};           //!< their headers (Separate only)
    std::vector<std::vector<SubStream>> subs;   //!< [core][sub]
    StreamStats stream[2];
};

/**
 * Compressed-window layout with header slack.
 *
 * Small sub-chunks (down to one vector) cannot amortize interleaved
 * headers locally: a dense vector needs 66 bytes. Section 4.1's
 * fallback for unknown compressibility is to enlarge the allocation
 * by the metadata size, so every sub-chunk window gets hdrB bytes of
 * slack per vector and region offsets shift accordingly.
 */
size_t
slackOffset(const Chunk &sub)
{
    return sub.regionOffset + (sub.elemBegin / 16) * hdrB;
}

size_t
slackBytes(const Chunk &sub)
{
    return sub.regionBytes + (sub.elems() / 16) * hdrB;
}

/** Region bytes for n elements including per-vector header slack. */
size_t
regionWithSlack(size_t n)
{
    return n * 4 + (n / 16) * hdrB;
}

/** Offset of a sub-chunk's data window within its map. */
size_t
windowOffset(Layout layout, const Chunk &sub)
{
    return layout == Layout::Inline ? slackOffset(sub) : sub.regionOffset;
}

/** Offset of a sub-chunk's headers within its mask array. */
size_t
maskOffset(const Chunk &sub)
{
    return (sub.elemBegin / 16) * hdrB;
}

/** Compressing writer over map m's window of one sub-chunk. */
CompressedWriter
writerFor(const ExperimentState &st, int m, const Chunk &sub)
{
    const Ccf ccf = m == mapY ? Ccf::LTEZ : Ccf::EQZ;
    uint8_t *data = st.data[m]->host + windowOffset(st.layout, sub);
    if (st.layout == Layout::Separate)
        return CompressedWriter(data, sub.regionBytes,
                                st.mask[m]->host + maskOffset(sub),
                                (sub.elems() / 16) * hdrB, ElemType::F32,
                                ccf);
    return CompressedWriter(data, slackBytes(sub), ElemType::F32, ccf);
}

/** Panic unless Y's window of @p sub reads back as relu(raw). */
void
verifyY(const ExperimentState &st, const Chunk &sub,
        const std::vector<float> &raw)
{
    const uint8_t *data = st.data[mapY]->host + windowOffset(st.layout, sub);
    std::optional<CompressedReader> r;
    if (st.layout == Layout::Separate)
        r.emplace(data, sub.regionBytes,
                  st.mask[mapY]->host + maskOffset(sub),
                  (sub.elems() / 16) * hdrB, ElemType::F32);
    else if (st.layout == Layout::Inline)
        r.emplace(data, slackBytes(sub), ElemType::F32);
    const float *plain = reinterpret_cast<const float *>(data);
    for (size_t i = sub.elemBegin; i < sub.elemEnd; i += 16) {
        Vec512 v = r ? r->get() : Vec512::load(plain + (i - sub.elemBegin));
        for (int l = 0; l < 16; l++) {
            float expect = raw[i + l] > 0 ? raw[i + l] : 0.0f;
            panic_if(v.lane<float>(l) != expect,
                     "relu Y mismatch at element %zu", i + l);
        }
    }
}

/**
 * Functional pass: build compressed/uncompressed X and Y contents and
 * the per-vector NNZ records for the timing replay.
 */
ExperimentState
prepare(ExecContext &ctx, Layout layout, const ReluExperimentConfig &cfg)
{
    fatal_if(cfg.elems == 0 || cfg.elems % 16 != 0,
             "relu experiment needs a multiple of 16 elements, got %zu",
             cfg.elems);
    fatal_if(cfg.subBlocks < 1 || cfg.subBlocks > 8,
             "subBlocks must be in [1, 8]");

    const int cores = ctx.config().numCores;
    const size_t n = cfg.elems;

    SnapshotParams sp;
    sp.sparsity = cfg.sparsity;
    sp.negFraction = cfg.negFraction;
    std::vector<float> raw = makeActivations(n, sp, cfg.seed);

    ExperimentState st;
    st.layout = layout;
    st.data[mapX] = &ctx.vs().alloc("relu.x", regionWithSlack(n),
                                    AllocClass::FeatureMap);
    st.data[mapY] = &ctx.vs().alloc("relu.y", regionWithSlack(n),
                                    AllocClass::FeatureMap);
    if (layout == Layout::Separate) {
        st.mask[mapX] = &ctx.vs().alloc("relu.xmask", (n / 16) * hdrB,
                                        AllocClass::FeatureMap);
        st.mask[mapY] = &ctx.vs().alloc("relu.ymask", (n / 16) * hdrB,
                                        AllocClass::FeatureMap);
    }

    auto coreChunks = partitionElements(n, cores, ElemType::F32);
    st.subs.resize(static_cast<size_t>(cores));

    for (int c = 0; c < cores; c++) {
        auto subChunks = subPartition(coreChunks[static_cast<size_t>(c)],
                                      cfg.subBlocks, ElemType::F32);
        for (const Chunk &sub : subChunks) {
            SubStream &ss = st.subs[static_cast<size_t>(c)].emplace_back();
            ss.chunk = sub;
            if (sub.elems() == 0)
                continue;
            if (layout == Layout::Plain) {
                // X plain; Y = relu(X) plain.
                std::memcpy(st.data[mapX]->host + sub.regionOffset,
                            raw.data() + sub.elemBegin, sub.elems() * 4);
                float *yp = reinterpret_cast<float *>(
                    st.data[mapY]->host + sub.regionOffset);
                for (size_t i = 0; i < sub.elems(); i++) {
                    float v = raw[sub.elemBegin + i];
                    yp[i] = v > 0 ? v : 0.0f;
                }
            } else {
                // X stored as the previous layer left it (EQZ), Y
                // through the fused ReLU (LTEZ).
                CompressedWriter w[2] = {writerFor(st, mapX, sub),
                                         writerFor(st, mapY, sub)};
                for (size_t i = sub.elemBegin; i < sub.elemEnd; i += 16) {
                    Vec512 v = Vec512::load(raw.data() + i);
                    w[mapX].put(v);
                    w[mapY].put(v);
                }
                for (int m : {mapX, mapY}) {
                    ss.nnz[m] = w[m].nnzRecord();
                    st.stream[m] += w[m].stats();
                }
            }
            if (cfg.verify)
                verifyY(st, sub, raw);
        }
    }
    return st;
}

/** Pseudo-PC ids: keep per-sub streams distinct for the prefetcher. */
uint16_t
pcOf(int sub, int which)
{
    return static_cast<uint16_t>(1 + sub * 8 + which);
}

/**
 * Build one pass's trace: per core, vector i of every sub-block in
 * turn, each emitting the loop body's accesses in step order.
 */
TracePhase
buildPhase(const ExperimentState &st, const ImplRow &row, bool store,
           int cores, int logic_lat)
{
    const std::span<const Step> steps =
        store ? std::span<const Step>(storeSteps)
              : std::span<const Step>(retrieveSteps);
    const Cost *costs = store ? row.store : row.retrieve;
    TracePhase phase(store ? "relu-store" : "relu-retrieve", cores);
    for (int c = 0; c < cores; c++) {
        const auto &subs = st.subs[static_cast<size_t>(c)];
        CoreTrace &t = phase.perCore[static_cast<size_t>(c)];

        size_t max_vecs = 0;
        for (const auto &ss : subs)
            max_vecs = std::max(max_vecs, ss.chunk.elems() / 16);

        // Running data offset of each map's window, per sub-block.
        std::vector<size_t> off[2] = {std::vector<size_t>(subs.size()),
                                      std::vector<size_t>(subs.size())};
        for (size_t i = 0; i < max_vecs; i++) {
            for (size_t s = 0; s < subs.size(); s++) {
                const SubStream &ss = subs[s];
                if (i >= ss.chunk.elems() / 16)
                    continue;
                const Chunk &sub = ss.chunk;
                for (size_t k = 0; k < steps.size(); k++) {
                    const Step &step = steps[k];
                    if (step.header && st.layout != Layout::Separate)
                        continue;
                    Addr addr;
                    uint32_t bytes;
                    if (step.header) {
                        addr = st.mask[step.map]->addrAt(
                            maskOffset(sub) + i * hdrB);
                        bytes = static_cast<uint32_t>(hdrB);
                    } else {
                        bytes = 64;
                        if (st.layout != Layout::Plain) {
                            bytes = ss.nnz[step.map][i] * 4u;
                            if (st.layout == Layout::Inline)
                                bytes += static_cast<uint32_t>(hdrB);
                        }
                        size_t &o = off[step.map][s];
                        addr = st.data[step.map]->addrAt(
                            windowOffset(st.layout, sub) + o);
                        o += bytes;
                    }
                    const uint16_t pc =
                        pcOf(static_cast<int>(s), costs[k].slot);
                    TraceOp op =
                        step.write
                            ? TraceOp::store(addr, bytes, costs[k].uops, pc)
                            : TraceOp::load(addr, bytes, costs[k].uops, pc);
                    if (row.zcompUnit && !step.header) {
                        // zcompl/zcomps chain through reg2.
                        op.stream = static_cast<int8_t>(
                            2 * s + (step.write ? 1 : 0));
                        op.chainLat = static_cast<uint8_t>(logic_lat);
                        op.zcompUnit = true;
                    }
                    t.push_back(op);
                }
            }
        }
    }
    return phase;
}

} // namespace

const char *
reluImplName(ReluImpl impl)
{
    return rowOf(impl).name;
}

ReluExperimentResult
runReluExperiment(ExecContext &ctx, ReluImpl impl,
                  const ReluExperimentConfig &cfg)
{
    const int cores = ctx.config().numCores;
    const int logic_lat = ctx.config().zcomp.logicLatency;
    const ImplRow &row = rowOf(impl);
    const Layout layout = row.layout == Layout::Inline && cfg.separateHeader
                              ? Layout::Separate
                              : row.layout;

    // See NetworkSim::run(): fault before any state is prepared.
    FaultInjector::global().maybeInject(faultsite::KernelTransient);

    ExperimentState st = prepare(ctx, layout, cfg);
    TracePhase store = buildPhase(st, row, true, cores, logic_lat);
    TracePhase retrieve = buildPhase(st, row, false, cores, logic_lat);

    if (cfg.warmup) {
        ctx.warm(store);
        ctx.warm(retrieve);
    }

    ReluExperimentResult res;
    int repeats = std::max(1, cfg.repeats);
    for (int rep = 0; rep < repeats; rep++) {
        res.store += ctx.run(store);
        res.retrieve += ctx.run(retrieve);
    }
    res.xStream = st.stream[mapX];
    res.yStream = st.stream[mapY];
    return res;
}

KernelBody
reluStoreBody(ReluImpl impl)
{
    return rowOf(impl).storeBody;
}

KernelBody
reluRetrieveBody(ReluImpl impl)
{
    return rowOf(impl).retrieveBody;
}

} // namespace zcomp
