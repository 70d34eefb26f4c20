/**
 * @file
 * zcomp_fuzz - differential fuzzer for the ZCOMP compress/expand path.
 *
 * Every round draws a random tensor configuration (element type x CCF x
 * header mode x vector count x sparsity), fills it with random lane
 * values, and round-trips it through four independent implementations
 * of the ZCOMP semantics:
 *
 *   1. a scalar reference built here from the Section 3 prose alone
 *      (manual little-endian lane walks, no shared helpers),
 *   2. the architectural emulator executing zcomps/zcompl ZcompInstrs
 *      (including the auto-incrementing pointer registers),
 *   3. CompressedWriter (stream compression + per-vector NNZ record),
 *   4. CompressedReader (stream expansion + decode validation).
 *
 * Any byte of disagreement - stream contents, pointer increments,
 * expanded vectors, NNZ counts - is a bug and fails the run with a
 * seed/round reproducer.
 *
 * Each round also round-trips one random fp32 buffer of 1-40 vectors
 * through compressBufferPs/expandBufferPs under every backend under
 * test and compares the bytes, statistics and expansion with the
 * per-vector CompressedWriter/CompressedReader loops.
 *
 * Under --backend both, each round also sizes a random snapshot of
 * 1-40 lines through every compression scheme's snapshotRatio() under
 * the scalar and the native backend and fails on any difference: the
 * Figure 15 codecs (the EBPC closed form, the 16-line FPC-D block
 * kernel) must be backend-independent too.
 *
 * Each round then injects stream corruption (truncation and header
 * bitflips, constrained to classes a self-describing stream can
 * provably detect - see corruptAndDecode()) and asserts the decoder
 * *always* raises DecodeError and bumps the zcomp.decode_errors
 * counter. Silent acceptance of corrupted input is a failure.
 *
 * Usage: zcomp_fuzz [--rounds N] [--seconds S] [--seed S] [--quiet]
 *                   [--backend scalar|simd|both]
 *   --rounds N   rounds to run (default 2500; 0 = no round limit)
 *   --seconds S  stop after S seconds (default 0 = no time limit)
 *   --seed S     base RNG seed (default 1)
 *   --quiet      suppress the periodic progress line
 *   --backend B  SIMD backend under test (default both). "both" runs
 *                every round's emulator and stream differentials under
 *                the scalar backend AND the best native one against
 *                the same scalar-built reference, so any divergence
 *                between the two implementations fails that round -
 *                this is the cross-backend bit-identity oracle the CI
 *                fuzz legs rely on. "simd" degrades to scalar (with a
 *                warning) when the host has no vector extension.
 */

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cachecomp/scheme.hh"
#include "common/error.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "isa/emulator.hh"
#include "zcomp/stream.hh"

using namespace zcomp;

namespace {

constexpr Addr kBase = 0x1000;

/** One round's tensor configuration. */
struct RoundCfg
{
    ElemType t;
    Ccf ccf;
    bool sep;       //!< separate-header mode
    int nvec;
    double sparsity;
};

/**
 * Scalar reference streams, built lane by lane straight from the
 * paper's semantics with no code shared with the implementations
 * under test.
 */
struct Reference
{
    std::vector<uint8_t> interleaved;   //!< header+payload stream
    std::vector<uint8_t> payload;       //!< separate-mode data stream
    std::vector<uint8_t> headers;       //!< separate-mode header store
    std::vector<uint8_t> nnz;           //!< per-vector surviving lanes
    std::vector<size_t> hdrOffsets;     //!< per-vector header offset
                                        //!< (interleaved stream)
    std::vector<Vec512> expanded;       //!< expected zcompl results
};

/** Independent lane-drop decision: zero = all bytes zero, negative =
 * top bit of the most significant byte. */
bool
refKept(const uint8_t *lane, int eb, Ccf ccf)
{
    bool zero = true;
    for (int b = 0; b < eb; b++) {
        if (lane[b] != 0)
            zero = false;
    }
    if (ccf == Ccf::EQZ)
        return !zero;
    bool neg = (lane[eb - 1] & 0x80) != 0;
    return !zero && !neg;
}

Reference
buildReference(const RoundCfg &cfg, const std::vector<Vec512> &input)
{
    const int eb = elemBytes(cfg.t);
    const int lanes = lanesPerVec(cfg.t);
    const int hb = headerBytes(cfg.t);
    Reference ref;
    for (const Vec512 &v : input) {
        uint64_t header = 0;
        std::vector<uint8_t> packed;
        Vec512 exp = Vec512::zero();
        for (int i = 0; i < lanes; i++) {
            const uint8_t *lane = v.bytes + i * eb;
            if (!refKept(lane, eb, cfg.ccf))
                continue;
            header |= 1ULL << i;
            packed.insert(packed.end(), lane, lane + eb);
            std::memcpy(exp.bytes + i * eb, lane,
                        static_cast<size_t>(eb));
        }
        ref.hdrOffsets.push_back(ref.interleaved.size());
        for (int b = 0; b < hb; b++) {
            uint8_t byte =
                static_cast<uint8_t>(header >> (8 * b));
            ref.interleaved.push_back(byte);
            ref.headers.push_back(byte);
        }
        ref.interleaved.insert(ref.interleaved.end(), packed.begin(),
                               packed.end());
        ref.payload.insert(ref.payload.end(), packed.begin(),
                           packed.end());
        ref.nnz.push_back(static_cast<uint8_t>(packed.size() /
                                               static_cast<size_t>(eb)));
        ref.expanded.push_back(exp);
    }
    return ref;
}

uint64_t gSeed = 1;
uint64_t gRound = 0;

/** Fail the run with a reproducer; never returns. */
[[noreturn]] void
fail(const RoundCfg &cfg, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr,
                 "zcomp_fuzz FAILED: %s\n"
                 "  repro: --seed %llu (round %llu: %s %s %s nvec=%d "
                 "sparsity=%.2f)\n",
                 msg.c_str(), (unsigned long long)gSeed,
                 (unsigned long long)gRound, elemSuffix(cfg.t),
                 ccfName(cfg.ccf), cfg.sep ? "separate" : "interleaved",
                 cfg.nvec, cfg.sparsity);
    std::exit(1);
}

/** Random input vectors: each lane zeroed with probability sparsity,
 * otherwise filled with uniform random bytes (half of which have the
 * sign bit set, exercising LTEZ). */
std::vector<Vec512>
makeInput(const RoundCfg &cfg, Rng &rng)
{
    const int eb = elemBytes(cfg.t);
    const int lanes = lanesPerVec(cfg.t);
    std::vector<Vec512> input;
    for (int v = 0; v < cfg.nvec; v++) {
        Vec512 vec = Vec512::zero();
        for (int i = 0; i < lanes; i++) {
            if (rng.chance(cfg.sparsity))
                continue;
            for (int b = 0; b < eb; b++)
                vec.bytes[i * eb + b] =
                    static_cast<uint8_t>(rng.below(256));
        }
        input.push_back(vec);
    }
    return input;
}

/** Emulator differential: zcomps then zcompl against the reference,
 * including stream bytes and pointer increments. */
void
checkEmulator(const RoundCfg &cfg, const std::vector<Vec512> &input,
              const Reference &ref)
{
    const int hb = headerBytes(cfg.t);
    const size_t data_region =
        cfg.sep ? static_cast<size_t>(cfg.nvec) * 64
                : static_cast<size_t>(cfg.nvec) *
                      static_cast<size_t>(maxCompressedBytes(cfg.t));
    const size_t hdr_region =
        cfg.sep ? static_cast<size_t>(cfg.nvec * hb) : 0;
    std::vector<uint8_t> mem(data_region + hdr_region, 0xAA);
    ZcompEmulator emu(mem.data(), mem.size(), kBase);

    ZcompInstr store;
    store.isStore = true;
    store.sepHeader = cfg.sep;
    store.etype = cfg.t;
    store.ccf = cfg.ccf;
    store.vreg = 1;
    store.dataPtrReg = 2;
    store.hdrPtrReg = cfg.sep ? 3 : 0;

    emu.reg(2) = kBase;
    if (cfg.sep)
        emu.reg(3) = kBase + data_region;
    for (int v = 0; v < cfg.nvec; v++) {
        emu.vreg(1) = input[static_cast<size_t>(v)];
        ZcompResult r = emu.exec(store);
        if (r.nnz != ref.nnz[static_cast<size_t>(v)])
            fail(cfg, "emulator zcomps nnz %d != reference %d at "
                 "vector %d", r.nnz, ref.nnz[static_cast<size_t>(v)],
                 v);
    }
    const std::vector<uint8_t> &stream =
        cfg.sep ? ref.payload : ref.interleaved;
    if (emu.reg(2) != kBase + stream.size())
        fail(cfg, "emulator data pointer advanced %llu, reference "
             "stream is %zu bytes",
             (unsigned long long)(emu.reg(2) - kBase), stream.size());
    if (cfg.sep &&
        emu.reg(3) != kBase + data_region + ref.headers.size())
        fail(cfg, "emulator header pointer advanced %llu, reference "
             "store is %zu bytes",
             (unsigned long long)(emu.reg(3) - kBase - data_region),
             ref.headers.size());
    if (!stream.empty() &&
        std::memcmp(mem.data(), stream.data(), stream.size()) != 0)
        fail(cfg, "emulator compressed stream differs from reference");
    if (cfg.sep && std::memcmp(mem.data() + data_region,
                               ref.headers.data(),
                               ref.headers.size()) != 0)
        fail(cfg, "emulator header store differs from reference");

    ZcompInstr load;
    load.isStore = false;
    load.sepHeader = cfg.sep;
    load.etype = cfg.t;
    load.vreg = 4;
    load.dataPtrReg = 2;
    load.hdrPtrReg = cfg.sep ? 3 : 0;

    emu.reg(2) = kBase;
    if (cfg.sep)
        emu.reg(3) = kBase + data_region;
    for (int v = 0; v < cfg.nvec; v++) {
        ZcompResult r = emu.exec(load);
        if (r.nnz != ref.nnz[static_cast<size_t>(v)])
            fail(cfg, "emulator zcompl nnz %d != reference %d at "
                 "vector %d", r.nnz, ref.nnz[static_cast<size_t>(v)],
                 v);
        if (!(emu.vreg(4) == ref.expanded[static_cast<size_t>(v)]))
            fail(cfg, "emulator zcompl expansion differs from "
                 "reference at vector %d", v);
    }
    if (emu.reg(2) != kBase + stream.size())
        fail(cfg, "emulator zcompl data pointer did not return to the "
             "stream end");
}

/** Stream-layer differential: CompressedWriter bytes and NNZ record,
 * then CompressedReader expansion with every guard armed. */
void
checkStreams(const RoundCfg &cfg, const std::vector<Vec512> &input,
             const Reference &ref)
{
    const int hb = headerBytes(cfg.t);
    std::vector<uint8_t> data(
        static_cast<size_t>(cfg.nvec) *
            static_cast<size_t>(maxCompressedBytes(cfg.t)),
        0xAA);
    std::vector<uint8_t> hdrs(static_cast<size_t>(cfg.nvec * hb), 0xAA);

    std::vector<uint8_t> expect_stream;
    size_t written, hdr_written;
    std::vector<uint8_t> record;
    if (cfg.sep) {
        CompressedWriter w(data.data(), data.size(), hdrs.data(),
                           hdrs.size(), cfg.t, cfg.ccf);
        for (const Vec512 &v : input)
            w.put(v);
        written = w.bytesWritten();
        hdr_written = w.hdrBytesWritten();
        record = w.nnzRecord();
        expect_stream = ref.payload;
        if (hdr_written != ref.headers.size() ||
            std::memcmp(hdrs.data(), ref.headers.data(),
                        ref.headers.size()) != 0)
            fail(cfg, "writer header store differs from reference");
    } else {
        CompressedWriter w(data.data(), data.size(), cfg.t, cfg.ccf);
        for (const Vec512 &v : input)
            w.put(v);
        written = w.bytesWritten();
        hdr_written = 0;
        record = w.nnzRecord();
        expect_stream = ref.interleaved;
    }
    if (written != expect_stream.size() ||
        (!expect_stream.empty() &&
         std::memcmp(data.data(), expect_stream.data(),
                     expect_stream.size()) != 0))
        fail(cfg, "writer stream (%zu bytes) differs from reference "
             "(%zu bytes)", written, expect_stream.size());
    if (record != ref.nnz)
        fail(cfg, "writer NNZ record differs from reference");

    CompressedReader r =
        cfg.sep ? CompressedReader(data.data(), written, hdrs.data(),
                                   hdr_written, cfg.t)
                : CompressedReader(data.data(), written, cfg.t);
    r.expectNnzRecord(&record);
    for (int v = 0; v < cfg.nvec; v++) {
        Vec512 out = r.get();
        if (!(out == ref.expanded[static_cast<size_t>(v)]))
            fail(cfg, "reader expansion differs from reference at "
                 "vector %d", v);
    }
    r.finish();
}

/**
 * Whole-buffer differential: one fp32 buffer of 1-40 vectors (lanes
 * zero with the round's sparsity, else random bits: signed zeros, NaN
 * payloads and denormals included) through compressBufferPs and
 * expandBufferPs under each backend. The stream bytes and statistics
 * must equal a CompressedWriter loop's, and the expansion a
 * CompressedReader loop's (for EQZ, the input itself).
 */
void
checkBufferStreams(const RoundCfg &cfg,
                   const std::vector<simd::Backend> &backends, Rng &rng)
{
    const size_t n = 16 * (1 + rng.below(40));
    std::vector<float> src(n, 0.0f);
    for (float &x : src) {
        if (rng.chance(cfg.sparsity))
            continue;
        const uint32_t bits = static_cast<uint32_t>(rng.next64());
        std::memcpy(&x, &bits, 4);
    }
    const size_t cap = n / 16 * 66;
    for (simd::Backend b : backends) {
        simd::setBackend(b);
        std::vector<uint8_t> want(cap, 0xAA), got(cap, 0xAA);
        CompressedWriter w(want.data(), cap, ElemType::F32, cfg.ccf);
        for (size_t i = 0; i < n; i += 16)
            w.put(Vec512::load(src.data() + i));
        const StreamStats ws = w.stats();
        const StreamStats gs = compressBufferPs(src.data(), n, got.data(),
                                                cap, cfg.ccf);
        if (gs.vectors != ws.vectors || gs.nnz != ws.nnz ||
            gs.payloadBytes != ws.payloadBytes ||
            gs.headerBytes != ws.headerBytes)
            fail(cfg, "compressBufferPs stats differ from the writer loop "
                 "under %s (%zu vectors)", simd::backendName(b), n / 16);
        if (got != want)
            fail(cfg, "compressBufferPs stream differs from the writer "
                 "loop under %s (%zu vectors)", simd::backendName(b),
                 n / 16);

        std::vector<float> back(n, -7.0f), ref(n, -7.0f);
        const StreamStats es =
            expandBufferPs(got.data(), ws.totalBytes(), back.data(), n);
        CompressedReader r(got.data(), ws.totalBytes(), ElemType::F32);
        for (size_t i = 0; i < n; i += 16)
            r.get().store(ref.data() + i);
        if (es.nnz != ws.nnz || es.totalBytes() != ws.totalBytes())
            fail(cfg, "expandBufferPs stats differ from the writer's "
                 "under %s", simd::backendName(b));
        if (std::memcmp(back.data(), ref.data(), n * 4) != 0 ||
            (cfg.ccf == Ccf::EQZ &&
             std::memcmp(back.data(), src.data(), n * 4) != 0))
            fail(cfg, "expandBufferPs output differs from the reader loop "
                 "under %s", simd::backendName(b));
    }
}

/**
 * Scheme differential: one snapshot sized through every scheme under
 * each backend; the ratios must be equal as doubles. Words are zero
 * with the round's sparsity, else random, a repeat of the previous
 * nonzero, the previous one's upper 24 bits with a new low byte, or a
 * small sign-extended integer - the FPC-D dictionary and significance
 * paths. Line counts straddle the 16-line FPC-D blocks.
 */
void
checkSchemes(const RoundCfg &cfg, const std::vector<simd::Backend> &backends,
             Rng &rng)
{
    const size_t lines = 1 + rng.below(40);
    std::vector<uint8_t> snap(lines * 64);
    uint32_t prev = 1;
    for (size_t w = 0; w < lines * 16; w++) {
        uint32_t word = 0;
        if (!rng.chance(cfg.sparsity)) {
            switch (rng.below(4)) {
              case 0:
                word = prev;
                break;
              case 1:
                word = (prev & 0xFFFFFF00u) |
                       static_cast<uint32_t>(rng.below(256));
                break;
              case 2:
                word = static_cast<uint32_t>(rng.below(1 << 17)) -
                       (1u << 16);
                break;
              default:
                word = static_cast<uint32_t>(rng.next64());
                break;
            }
            prev = word ? word : prev;
        }
        std::memcpy(snap.data() + w * 4, &word, 4);
    }
    for (const CompressionScheme *s : allSchemes()) {
        simd::setBackend(backends[0]);
        const double want = s->snapshotRatio(snap.data(), snap.size());
        for (size_t b = 1; b < backends.size(); b++) {
            simd::setBackend(backends[b]);
            const double got = s->snapshotRatio(snap.data(), snap.size());
            if (got != want)
                fail(cfg, "scheme %s ratio %.17g under %s != %.17g under "
                     "%s (%zu lines)", s->name(), got,
                     simd::backendName(backends[b]), want,
                     simd::backendName(backends[0]), lines);
        }
    }
}

/**
 * Corruption oracle: corrupt one copy of the reference stream, decode
 * it to the end, and require a DecodeError.
 *
 * The injected classes are exactly the ones a self-describing ZCOMP
 * stream can *always* detect, which is what makes the assertion sound
 * rather than probabilistic:
 *  - truncation: some vector's header or promised payload no longer
 *    fits the capacity (bounds check), or the loop consumes short and
 *    finish() sees the count mismatch;
 *  - a header bitflip in the *last* interleaved vector: the payload
 *    promise changes by one element, so the exactly-sized stream
 *    either overruns (bounds) or leaves trailing bytes (finish());
 *  - any header bitflip in separate mode: headers live out of band,
 *    so the cumulative payload promise shifts and the stream end
 *    can never line up again;
 *  - any header bitflip anywhere when the reader cross-checks the
 *    writer's NNZ record: the popcount disagrees at the flipped
 *    vector itself.
 * (A mid-stream interleaved flip *without* the NNZ record can
 * coincidentally resynchronize and is not deterministically
 * detectable by any decoder - the NNZ record is the defense, and the
 * oracle proves it works.)
 */
void
corruptAndDecode(const RoundCfg &cfg, const Reference &ref, Rng &rng)
{
    const int hb = headerBytes(cfg.t);
    std::vector<uint8_t> data =
        cfg.sep ? ref.payload : ref.interleaved;
    std::vector<uint8_t> hdrs = ref.headers;
    bool use_record = false;
    const char *what = "";

    int kind = static_cast<int>(rng.below(3));
    if (kind == 0) {
        // Truncation. An empty separate-mode payload (everything
        // compressed away) truncates the header store instead.
        std::vector<uint8_t> &victim =
            (cfg.sep && data.empty()) ? hdrs : data;
        size_t cut = 1 + rng.below(std::min<size_t>(16, victim.size()));
        victim.resize(victim.size() - cut);
        what = "truncation";
    } else if (kind == 1 && !cfg.sep) {
        // Interleaved: flip a header bit of the last vector.
        size_t off = ref.hdrOffsets.back() +
                     rng.below(static_cast<uint64_t>(hb));
        data[off] ^= static_cast<uint8_t>(1 << rng.below(8));
        what = "last-vector header bitflip";
    } else if (kind == 1) {
        // Separate: flip any header bit of any vector.
        size_t off = rng.below(hdrs.size());
        hdrs[off] ^= static_cast<uint8_t>(1 << rng.below(8));
        what = "header bitflip (separate store)";
    } else {
        // Any header bit anywhere, caught by the NNZ record.
        use_record = true;
        if (cfg.sep) {
            size_t off = rng.below(hdrs.size());
            hdrs[off] ^= static_cast<uint8_t>(1 << rng.below(8));
        } else {
            size_t v = rng.below(ref.hdrOffsets.size());
            size_t off = ref.hdrOffsets[v] +
                         rng.below(static_cast<uint64_t>(hb));
            data[off] ^= static_cast<uint8_t>(1 << rng.below(8));
        }
        what = "header bitflip vs NNZ record";
    }

    uint64_t errors_before = decodeErrorCount();
    bool detected = false;
    try {
        CompressedReader r =
            cfg.sep ? CompressedReader(data.data(), data.size(),
                                       hdrs.data(), hdrs.size(), cfg.t)
                    : CompressedReader(data.data(), data.size(), cfg.t);
        if (use_record)
            r.expectNnzRecord(&ref.nnz);
        for (int v = 0; v < cfg.nvec; v++)
            r.get();
        r.finish();
    } catch (const DecodeError &) {
        detected = true;
    }
    if (!detected)
        fail(cfg, "injected %s was NOT detected (silent corruption)",
             what);
    if (decodeErrorCount() <= errors_before)
        fail(cfg, "injected %s detected but zcomp.decode_errors did "
             "not advance", what);
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t rounds = 2500;
    double seconds = 0;
    bool quiet = false;
    std::string backend_mode = "both";
    for (int i = 1; i < argc; i++) {
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(1);
            }
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--rounds") == 0) {
            rounds = std::strtoull(value("--rounds"), nullptr, 10);
        } else if (std::strcmp(argv[i], "--seconds") == 0) {
            seconds = std::strtod(value("--seconds"), nullptr);
        } else if (std::strcmp(argv[i], "--seed") == 0) {
            gSeed = std::strtoull(value("--seed"), nullptr, 10);
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else if (std::strcmp(argv[i], "--backend") == 0) {
            backend_mode = value("--backend");
        } else {
            std::fprintf(stderr,
                         "usage: %s [--rounds N] [--seconds S] "
                         "[--seed S] [--quiet] "
                         "[--backend scalar|simd|both]\n",
                         argv[0]);
            return 1;
        }
    }

    // Backends each round's differentials run under. "both" makes
    // every round a cross-backend oracle: scalar and native must each
    // match the independent scalar-built reference byte for byte.
    std::vector<simd::Backend> backends;
    if (backend_mode == "scalar") {
        backends = {simd::Backend::Scalar};
    } else if (backend_mode == "simd") {
        if (simd::bestSupportedBackend() == simd::Backend::Scalar)
            warn("zcomp_fuzz: no native SIMD backend on this host; "
                 "--backend simd runs scalar");
        backends = {simd::bestSupportedBackend()};
    } else if (backend_mode == "both") {
        backends = {simd::Backend::Scalar};
        if (simd::bestSupportedBackend() != simd::Backend::Scalar)
            backends.push_back(simd::bestSupportedBackend());
    } else {
        std::fprintf(stderr,
                     "unknown --backend '%s' (scalar|simd|both)\n",
                     backend_mode.c_str());
        return 1;
    }
    if (rounds == 0 && seconds <= 0)
        rounds = 2500;

    Rng rng(gSeed);
    auto t0 = std::chrono::steady_clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };

    static const double sparsities[] = {0.0,  0.1, 0.3, 0.5,
                                        0.62, 0.8, 0.95, 1.0};
    uint64_t vec_round_trips = 0;
    uint64_t corruptions = 0;
    uint64_t scheme_snapshots = 0;
    for (gRound = 0;; gRound++) {
        if (rounds > 0 && gRound >= rounds)
            break;
        if (seconds > 0 && elapsed() >= seconds)
            break;

        RoundCfg cfg;
        cfg.t = static_cast<ElemType>(gRound %
                                      static_cast<uint64_t>(numElemTypes));
        cfg.ccf = rng.chance(0.5) ? Ccf::EQZ : Ccf::LTEZ;
        cfg.sep = rng.chance(0.5);
        cfg.nvec = 1 + static_cast<int>(rng.below(24));
        cfg.sparsity =
            sparsities[rng.below(sizeof(sparsities) /
                                 sizeof(sparsities[0]))];

        std::vector<Vec512> input = makeInput(cfg, rng);
        Reference ref = buildReference(cfg, input);
        for (simd::Backend b : backends) {
            simd::setBackend(b);
            checkEmulator(cfg, input, ref);
            checkStreams(cfg, input, ref);
        }
        vec_round_trips +=
            static_cast<uint64_t>(cfg.nvec) * backends.size();
        checkBufferStreams(cfg, backends, rng);
        if (backends.size() > 1) {
            checkSchemes(cfg, backends, rng);
            scheme_snapshots++;
        }

        // Corruption trials alternate the active backend so the
        // decode-validation path is fuzzed under each one.
        simd::setBackend(backends[gRound % backends.size()]);
        for (int trial = 0; trial < 2; trial++) {
            corruptAndDecode(cfg, ref, rng);
            corruptions++;
        }

        if (!quiet && gRound > 0 && gRound % 1000 == 0)
            std::printf("... %llu rounds, %llu vector round-trips, "
                        "%llu corruptions detected\n",
                        (unsigned long long)gRound,
                        (unsigned long long)vec_round_trips,
                        (unsigned long long)corruptions);
    }

    std::printf("zcomp_fuzz OK: %llu rounds, %llu vector round-trips "
                "clean, %llu whole buffers match the per-vector loops, "
                "%llu scheme snapshots backend-identical, "
                "%llu/%llu injected corruptions detected "
                "(%.1f s, seed %llu)\n",
                (unsigned long long)gRound,
                (unsigned long long)vec_round_trips,
                (unsigned long long)gRound,
                (unsigned long long)scheme_snapshots,
                (unsigned long long)corruptions,
                (unsigned long long)corruptions, elapsed(),
                (unsigned long long)gSeed);
    return 0;
}
