#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <stdexcept>

#include "bench/bench_common.hh"
#include "cachecomp/cache_model.hh"
#include "cachecomp/scheme.hh"
#include "sim/kernels.hh"
#include "stats.hh"
#include "workload/deepbench.hh"
#include "zcomp/stream.hh"

namespace perfbench {

namespace {

using namespace zcomp;

/** Self seconds of the op-level spans whose name satisfies match,
 *  summed per op id (set-up spans, op id -1, are skipped). */
std::map<int64_t, double>
selfPerOp(const SpanRecorder &rec,
          const std::function<bool(const std::string &)> &match)
{
    std::map<int64_t, double> per;
    const std::vector<Span> &spans = rec.spans();
    for (size_t i = 0; i < spans.size(); i++) {
        if (spans[i].op >= 0 && match(spans[i].name))
            per[spans[i].op] += rec.selfSeconds(static_cast<int>(i));
    }
    return per;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/** Median over ops of the per-op self time of matching spans; 0 when
 *  no op called the layer. */
double
medianSelf(const SpanRecorder &rec,
           const std::function<bool(const std::string &)> &match)
{
    std::vector<double> v;
    for (const auto &[op, s] : selfPerOp(rec, match))
        v.push_back(s);
    return v.empty() ? 0 : median(v);
}

/** Total self time of matching op-level spans. */
double
totalSelf(const SpanRecorder &rec,
          const std::function<bool(const std::string &)> &match)
{
    double t = 0;
    for (const auto &[op, s] : selfPerOp(rec, match))
        t += s;
    return t;
}

void
set(Metrics &out, const std::string &name, double v)
{
    auto it = out.find(name);
    if (it == out.end())
        throw std::logic_error("per-layer metric " + name +
                               " is not in the template");
    it->second.value = v;
}

/** Cache-hierarchy counts of one replay, reported as mem.*. */
void
addMemCounters(Results &c, const HierSnapshot &t)
{
    c["mem.l1_accesses"] += static_cast<double>(t.l1Hits + t.l1Misses);
    c["mem.l1_misses"] += static_cast<double>(t.l1Misses);
    c["mem.l2_misses"] += static_cast<double>(t.l2Misses);
    c["mem.l3_misses"] += static_cast<double>(t.l3Misses);
    c["mem.dram_bytes"] += static_cast<double>(t.l3DramBytes);
    c["mem.noc_hops"] += static_cast<double>(t.nocHops);
    c["mem.l2_pref_issued"] += static_cast<double>(t.l2PrefIssued);
}

/**
 * The exact counts (mem.*, cpu.cycles.*) summed over the first cycle
 * of ops, simulated L1 accesses per host second spent inside the
 * replay spans, and each policy's simulated speedup over `base`.
 */
void
countMetrics(const SpanRecorder &rec, const std::vector<OpRecord> &ops,
             size_t cycle, const std::string &replay_prefix,
             const std::string &base, Metrics &out)
{
    Results first;
    double all_l1 = 0;
    for (size_t i = 0; i < ops.size(); i++) {
        for (const auto &[k, v] : ops[i].counters) {
            if (i < cycle)
                first[k] += v;
            if (k == "mem.l1_accesses")
                all_l1 += v;
        }
    }
    for (const auto &[k, v] : first)
        set(out, k, v);
    double replay_s = totalSelf(rec, [&](const std::string &n) {
        return startsWith(n, replay_prefix);
    });
    set(out, "mem.l1_accesses_per_s", replay_s > 0 ? all_l1 / replay_s : 0);
    const double base_cycles = out.at("cpu.cycles." + base).value;
    for (const char *p : {"avx512-comp", "zcomp"}) {
        const double c = out.at(std::string("cpu.cycles.") + p).value;
        if (c > 0)
            set(out, std::string("sim.speedup.") + p, base_cycles / c);
    }
}

/** The study set's ResNet-32 configuration (bench_common.cc). */
bench::StudyModel
resnet32()
{
    for (const bench::StudyModel &m : bench::studyModels()) {
        if (m.id == ModelId::Resnet32)
            return m;
    }
    throw std::logic_error("ResNet-32 is not in the study set");
}

// ---------------------------------------------------------------------
// study-train
// ---------------------------------------------------------------------

/**
 * ResNet-32 training at batch 8, prepared on a BumpArena exactly as
 * the study runner prepares a cell; each op is one NetworkSim::run
 * under the next study policy (uncompressed -> avx512-comp -> zcomp).
 * coldCaches (the NetworkSimConfig default) empties the modelled
 * caches before every run, so repeats of a policy are identical.
 */
class StudyTrain : public Workload
{
  public:
    void
    setup(uint64_t seed, SpanRecorder &rec) override
    {
        bench::StudyModel m = resnet32();
        m.trainBatch = 8;
        {
            ScopedSpan s(rec, "dnn.prepare", -1);
            prep_ = bench::prepareNet(m, /*training=*/true, seed, &arena_);
        }
        ScopedSpan s(rec, "sim.construct", -1);
        sim_ = std::make_unique<NetworkSim>(*prep_.ctx, *prep_.net);
    }

    int
    cycleLength() const override
    {
        return static_cast<int>(bench::studyPolicies().size());
    }

    OpRecord
    runOp(int64_t index, int64_t op_id, SpanRecorder &rec) override
    {
        const bench::StudyPolicy &p =
            bench::studyPolicies()[static_cast<size_t>(index % cycleLength())];
        NetworkSimConfig cfg;
        cfg.policy = p.policy;
        NetworkSimResult r;
        {
            ScopedSpan s(rec, "sim.run." + p.name, op_id);
            r = sim_->run(cfg);
        }
        OpRecord op;
        op.kind = p.name;
        const HierSnapshot &t = r.total.traffic;
        op.checked[p.name + ".cycles"] = r.total.cycles;
        op.checked[p.name + ".core_l1_bytes"] =
            static_cast<double>(t.coreL1Bytes);
        op.checked[p.name + ".l1_l2_bytes"] = static_cast<double>(t.l1L2Bytes);
        op.checked[p.name + ".l2_l3_bytes"] = static_cast<double>(t.l2L3Bytes);
        op.checked[p.name + ".l3_dram_bytes"] =
            static_cast<double>(t.l3DramBytes);
        addMemCounters(op.counters, t);
        op.counters["cpu.cycles." + p.name] = r.total.cycles;
        return op;
    }

    void
    layerMetrics(const SpanRecorder &rec, const std::vector<OpRecord> &ops,
                 Metrics &out) const override
    {
        for (const bench::StudyPolicy &p : bench::studyPolicies()) {
            const std::string span = "sim.run." + p.name;
            set(out, "sim.run_s." + p.name,
                medianSelf(rec,
                           [&](const std::string &n) { return n == span; }));
        }
        countMetrics(rec, ops, static_cast<size_t>(cycleLength()),
                     "sim.run.", bench::studyPolicies().front().name, out);
    }

  private:
    // Declaration order is destruction order in reverse: the
    // NetworkSim goes first, then the network, and the arena that
    // backs the network's tensors last.
    BumpArena arena_;
    bench::PreparedNet prep_;
    std::unique_ptr<NetworkSim> sim_;
};

// ---------------------------------------------------------------------
// relu-deepbench
// ---------------------------------------------------------------------

/**
 * The pinned DeepBench subset: maps that fit one core's 1 MiB L2, maps
 * that fit the 24 MiB L3, and raw maps above the L3 (the Figure 12
 * cache-fit cliff).
 */
const std::vector<std::string> &
reluShapeNames()
{
    static const std::vector<std::string> names = {
        "gemm 4096x4",          //  64 KiB, l2, 16 repeats
        "conv3-512 16x16 n1",   // 512 KiB, l2, 4 repeats
        "conv3-512 32x32 n1",   //   2 MiB, l3
        "conv3-64 112x112 n1",  // 3.2 MB,  l3
        "conv3-256 56x56 n8",   // 25.7 MB, dram (24.5 MiB raw map)
    };
    return names;
}

/** Residency class of a raw map against the modelled caches. */
const char *
sizeClass(size_t bytes, const ArchConfig &cfg)
{
    if (bytes <= cfg.l2.size)
        return "l2";
    return bytes <= cfg.l3.size ? "l3" : "dram";
}

/**
 * One op = every subset shape under all three ReluImpls, each (shape,
 * impl) on a fresh ExecContext with Figure 12's warm-up/repeat rule:
 * maps below 4x the L3 get an untimed warm-up pass, and small maps
 * repeat until about 2 MiB have been streamed (at most 16 times).
 */
class ReluDeepbench : public Workload
{
  public:
    void
    setup(uint64_t seed, SpanRecorder &) override
    {
        seed_ = seed;
        shapes_.clear();
        for (const std::string &name : reluShapeNames()) {
            auto it = std::find_if(
                deepBenchShapes().begin(), deepBenchShapes().end(),
                [&](const DeepBenchShape &s) { return s.name == name; });
            if (it == deepBenchShapes().end())
                throw std::runtime_error("no DeepBench shape " + name);
            shapes_.push_back(*it);
        }
    }

    int cycleLength() const override { return 1; }

    OpRecord
    runOp(int64_t, int64_t op_id, SpanRecorder &rec) override
    {
        OpRecord op;
        op.kind = "pass";
        const ArchConfig cfg;
        for (const DeepBenchShape &shape : shapes_) {
            ReluExperimentConfig rc;
            rc.elems = shape.elems;
            rc.sparsity = shape.sparsity;
            // Figure 12's per-shape seed for the pinned workload seed;
            // other workload seeds shift every shape's snapshot.
            rc.seed = 1000 + shape.elems % 977 +
                      (seed_ - pinnedSeed) * 1000003ULL;
            rc.warmup = shape.bytes() < 4 * cfg.l3.size;
            rc.repeats = static_cast<int>(std::min<size_t>(
                16, std::max<size_t>(1, (2u << 20) / shape.bytes())));
            const std::string cls = sizeClass(shape.bytes(), cfg);
            for (int i = 0; i < numReluImpls; i++) {
                const ReluImpl impl = static_cast<ReluImpl>(i);
                const std::string iname = reluImplName(impl);
                std::unique_ptr<ExecContext> ctx;
                {
                    ScopedSpan s(rec, "sim.ctx_build", op_id);
                    ctx = std::make_unique<ExecContext>(cfg);
                }
                RunStats t;
                {
                    ScopedSpan s(rec, "relu.run." + iname + "." + cls,
                                 op_id);
                    t = runReluExperiment(*ctx, impl, rc).total();
                }
                {
                    ScopedSpan s(rec, "sim.ctx_free", op_id);
                    ctx.reset();
                }
                const std::string key = shape.name + "/" + iname;
                op.checked[key + ".cycles"] = t.cycles;
                op.checked[key + ".core_l1_bytes"] =
                    static_cast<double>(t.traffic.coreL1Bytes);
                op.checked[key + ".dram_bytes"] =
                    static_cast<double>(t.traffic.l3DramBytes);
                addMemCounters(op.counters, t.traffic);
                op.counters["cpu.cycles." + iname] += t.cycles;
            }
        }
        return op;
    }

    void
    layerMetrics(const SpanRecorder &rec, const std::vector<OpRecord> &ops,
                 Metrics &out) const override
    {
        for (int i = 0; i < numReluImpls; i++) {
            const std::string iname = reluImplName(static_cast<ReluImpl>(i));
            set(out, "relu.run_s." + iname,
                medianSelf(rec, [&](const std::string &n) {
                    return startsWith(n, "relu.run." + iname + ".");
                }));
        }
        for (const char *cls : {"l2", "l3", "dram"}) {
            const std::string suffix = std::string(".") + cls;
            set(out, std::string("relu.run_s.") + cls,
                medianSelf(rec, [&](const std::string &n) {
                    return startsWith(n, "relu.run.") && endsWith(n, suffix);
                }));
        }
        set(out, "sim.ctx_build_s",
            medianSelf(rec, [](const std::string &n) {
                return n == "sim.ctx_build";
            }));
        countMetrics(rec, ops, 1, "relu.run.",
                     reluImplName(ReluImpl::Avx512Vec), out);
    }

  private:
    uint64_t seed_ = pinnedSeed;
    std::vector<DeepBenchShape> shapes_;
};

// ---------------------------------------------------------------------
// fig15-snapshots
// ---------------------------------------------------------------------

/**
 * Five ResNet-32 inference ReLU snapshots built as bench_fig15 builds
 * them (concatenated ReLU outputs of a forward pass, up to 8 MiB
 * each); one op runs every registered scheme's snapshotRatio over
 * all five, then compresses and expands each snapshot through the
 * zcomp stream; verifyOp() requires the round trip to be exact.
 */
class Fig15Snapshots : public Workload
{
  public:
    void
    setup(uint64_t seed, SpanRecorder &rec) override
    {
        bench::StudyModel m = resnet32();
        snaps_.clear();
        size_t most = 0;
        for (uint64_t s = 0; s < 5; s++) {
            // bench_fig15's seeds 500..504 for the pinned workload
            // seed; other seeds move to disjoint groups of five.
            const uint64_t net_seed = 500 + 5 * (seed - pinnedSeed) + s;
            std::vector<float> snap;
            {
                ScopedSpan span(rec, "dnn.prepare", -1);
                bench::PreparedNet p = bench::prepareNet(m, false, net_seed);
                for (size_t i = 1; i < p.net->numNodes(); i++) {
                    const auto &node = p.net->node(static_cast<int>(i));
                    if (node.layer->kind() != LayerKind::Relu)
                        continue;
                    size_t floats = node.act->bytes() / 64 * 16;
                    const float *src =
                        reinterpret_cast<const float *>(node.act->data());
                    snap.insert(snap.end(), src, src + floats);
                    if (snap.size() * 4 > 8u * 1024 * 1024)
                        break;  // 8 MiB per snapshot, as bench_fig15
                }
            }
            most = std::max(most, snap.size());
            snaps_.push_back(std::move(snap));
        }
        // Round-trip buffers are sized once here so an op never
        // allocates: worst case every lane survives plus a 2-byte
        // header per 16-lane vector.
        stream_.assign(most * 4 + most / 16 * 2, 0);
        expanded_.clear();
        for (const std::vector<float> &snap : snaps_)
            expanded_.emplace_back(snap.size(), 0.0f);
    }

    int cycleLength() const override { return 1; }

    OpRecord
    runOp(int64_t, int64_t op_id, SpanRecorder &rec) override
    {
        OpRecord op;
        op.kind = "snapshots";
        for (const CompressionScheme *scheme : allSchemes()) {
            const std::string span =
                std::string("cachecomp.") + scheme->name();
            double compressed = 0;
            for (size_t i = 0; i < snaps_.size(); i++) {
                const size_t bytes = snaps_[i].size() * 4;
                double ratio;
                {
                    ScopedSpan s(rec, span, op_id);
                    ratio = scheme->snapshotRatio(
                        reinterpret_cast<const uint8_t *>(snaps_[i].data()),
                        bytes);
                }
                compressed += std::round(static_cast<double>(bytes) / ratio);
                op.checked[std::string(scheme->name()) + ".ratio." +
                           std::to_string(i)] = ratio;
            }
            op.checked[std::string(scheme->name()) + ".compressed_bytes"] =
                compressed;
        }
        double stream_bytes = 0;
        for (size_t i = 0; i < snaps_.size(); i++) {
            const std::vector<float> &snap = snaps_[i];
            StreamStats c, e;
            {
                ScopedSpan s(rec, "zcomp.compress", op_id);
                c = compressBufferPs(snap.data(), snap.size(), stream_.data(),
                                     stream_.size(), Ccf::EQZ);
            }
            {
                ScopedSpan s(rec, "zcomp.expand", op_id);
                e = expandBufferPs(stream_.data(), stream_.size(),
                                   expanded_[i].data(), snap.size());
            }
            stream_bytes += static_cast<double>(c.totalBytes());
            if (e.totalBytes() != c.totalBytes())
                op.error = "zcomp stream expanded a different byte count";
        }
        op.checked["zcomp_stream.bytes"] = stream_bytes;
        return op;
    }

    std::string
    verifyOp() const override
    {
        for (size_t i = 0; i < snaps_.size(); i++) {
            if (std::memcmp(expanded_[i].data(), snaps_[i].data(),
                            snaps_[i].size() * 4))
                return "zcomp stream round trip is not exact";
        }
        return {};
    }

    void
    layerMetrics(const SpanRecorder &rec, const std::vector<OpRecord> &ops,
                 Metrics &out) const override
    {
        double mb_per_op = 0;
        for (const std::vector<float> &snap : snaps_)
            mb_per_op += static_cast<double>(snap.size()) * 4 / 1e6;
        const double mb = mb_per_op * static_cast<double>(ops.size());
        auto rate = [&](const std::string &span) {
            double s = totalSelf(
                rec, [&](const std::string &n) { return n == span; });
            return s > 0 ? mb / s : 0;
        };
        for (const CompressionScheme *scheme : allSchemes()) {
            const std::string name = scheme->name();
            set(out, "cachecomp." + name + ".mb_per_s",
                rate("cachecomp." + name));
            if (ops.empty())
                continue;
            std::vector<double> ratios;
            for (size_t i = 0; i < snaps_.size(); i++)
                ratios.push_back(ops.front().checked.at(name + ".ratio." +
                                                        std::to_string(i)));
            set(out, "cachecomp." + name + ".ratio", geomean(ratios));
        }
        set(out, "zcomp.compress_mb_per_s", rate("zcomp.compress"));
        set(out, "zcomp.expand_mb_per_s", rate("zcomp.expand"));
    }

  private:
    std::vector<std::vector<float>> snaps_;
    std::vector<uint8_t> stream_;
    std::vector<std::vector<float>> expanded_;  //!< one per snapshot
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "study-train", "relu-deepbench", "fig15-snapshots"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "study-train")
        return std::make_unique<StudyTrain>();
    if (name == "relu-deepbench")
        return std::make_unique<ReluDeepbench>();
    if (name == "fig15-snapshots")
        return std::make_unique<Fig15Snapshots>();
    throw std::invalid_argument("unknown workload '" + name + "'");
}

Metrics
perLayerMetricTemplate()
{
    Metrics m;
    auto add = [&](const std::string &name, const char *unit) {
        m[name] = Metric{0, unit};
    };
    add("dnn.prepare_s", "s");
    for (const char *p : {"uncompressed", "avx512-comp", "zcomp"})
        add(std::string("sim.run_s.") + p, "s");
    for (const char *k :
         {"avx512-vec", "avx512-comp", "zcomp", "l2", "l3", "dram"})
        add(std::string("relu.run_s.") + k, "s");
    add("sim.ctx_build_s", "s");
    add("mem.l1_accesses_per_s", "1/s");
    for (const char *k : {"l1_accesses", "l1_misses", "l2_misses",
                          "l3_misses", "noc_hops", "l2_pref_issued"})
        add(std::string("mem.") + k, "count");
    add("mem.dram_bytes", "B");
    for (const char *p :
         {"uncompressed", "avx512-vec", "avx512-comp", "zcomp"})
        add(std::string("cpu.cycles.") + p, "cycles");
    for (const char *p : {"avx512-comp", "zcomp"})
        add(std::string("sim.speedup.") + p, "x");
    for (const CompressionScheme *s : allSchemes()) {
        add(std::string("cachecomp.") + s->name() + ".mb_per_s", "MB/s");
        add(std::string("cachecomp.") + s->name() + ".ratio", "x");
    }
    add("zcomp.compress_mb_per_s", "MB/s");
    add("zcomp.expand_mb_per_s", "MB/s");
    add("op.p50_s", "s");
    add("op.tail_s", "s");
    add("op.tail_pct", "%");
    add("op.samples", "count");
    add("trace.overhead_frac", "frac");
    add("trace.span_coverage_min", "frac");
    return m;
}

} // namespace perfbench
