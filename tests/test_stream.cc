/** @file Unit and property tests for compressed stream reader/writer. */

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "codec_lines.hh"
#include "common/error.hh"
#include "common/fault.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "zcomp/stream.hh"

using namespace zcomp;

namespace {

std::vector<float>
makeSparse(size_t n, double sparsity, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> v(n);
    for (auto &x : v)
        x = rng.chance(sparsity) ? 0.0f
                                 : static_cast<float>(rng.gaussian(0, 1)) +
                                       3.0f;
    return v;
}

} // namespace

TEST(Stream, CompressExpandRoundTrip)
{
    const size_t n = 16 * 100;
    auto src = makeSparse(n, 0.5, 1);
    std::vector<uint8_t> buf(n * 4 + 2 * (n / 16));
    StreamStats cs = compressBufferPs(src.data(), n, buf.data(),
                                      buf.size(), Ccf::EQZ);
    std::vector<float> out(n, -1.0f);
    StreamStats es = expandBufferPs(buf.data(), buf.size(), out.data(), n);
    EXPECT_EQ(cs.vectors, es.vectors);
    EXPECT_EQ(cs.nnz, es.nnz);
    EXPECT_EQ(out, src);
}

TEST(Stream, StatsMatchSparsity)
{
    const size_t n = 16 * 4096;
    auto src = makeSparse(n, 0.53, 2);
    std::vector<uint8_t> buf(n * 4 + 2 * (n / 16));
    StreamStats s = compressBufferPs(src.data(), n, buf.data(),
                                     buf.size(), Ccf::EQZ);
    EXPECT_EQ(s.vectors, n / 16);
    EXPECT_NEAR(s.sparsity(ElemType::F32), 0.53, 0.02);
    // With ~53% sparsity: compressed = 0.47*64 + 2 bytes per vector.
    double expected_ratio = 64.0 / (0.47 * 64.0 + 2.0);
    EXPECT_NEAR(s.ratio(), expected_ratio, 0.15);
}

TEST(Stream, InterleavedFitsOriginalAllocationAtModestSparsity)
{
    // Section 4.1: >= 3.125% compressibility amortizes the metadata for
    // fp32/512-bit, so the stream fits in the original allocation.
    const size_t n = 16 * 1024;
    auto src = makeSparse(n, 0.10, 3);
    std::vector<uint8_t> buf(n * 4);    // exactly the original size
    StreamStats s = compressBufferPs(src.data(), n, buf.data(),
                                     buf.size(), Ccf::EQZ);
    EXPECT_LE(s.totalBytes(), n * 4);
}

TEST(StreamDeath, IncompressibleDataOverflowsOriginalAllocation)
{
    const size_t n = 16 * 8;
    std::vector<float> src(n, 1.0f);    // fully dense
    std::vector<uint8_t> buf(n * 4);    // no room for headers
    EXPECT_DEATH(
        compressBufferPs(src.data(), n, buf.data(), buf.size(), Ccf::EQZ),
        "memory violation");
}

TEST(Stream, WriterRecordsPerVectorNnz)
{
    const size_t n = 16 * 3;
    std::vector<float> src(n, 0.0f);
    src[0] = 1.0f;              // vector 0: nnz 1
    src[16] = 1.0f;             // vector 1: nnz 2
    src[17] = 2.0f;
    std::vector<uint8_t> buf(n * 4 + 8);
    CompressedWriter w(buf.data(), buf.size(), ElemType::F32, Ccf::EQZ);
    for (size_t i = 0; i < n; i += 16)
        w.put(Vec512::load(src.data() + i));
    ASSERT_EQ(w.nnzRecord().size(), 3u);
    EXPECT_EQ(w.nnzRecord()[0], 1);
    EXPECT_EQ(w.nnzRecord()[1], 2);
    EXPECT_EQ(w.nnzRecord()[2], 0);
}

TEST(Stream, SeparateHeaderWriterReader)
{
    const size_t n = 16 * 64;
    auto src = makeSparse(n, 0.6, 4);
    std::vector<uint8_t> data(n * 4);
    std::vector<uint8_t> hdrs(2 * (n / 16));
    CompressedWriter w(data.data(), data.size(), hdrs.data(), hdrs.size(),
                       ElemType::F32, Ccf::EQZ);
    for (size_t i = 0; i < n; i += 16)
        w.put(Vec512::load(src.data() + i));
    EXPECT_EQ(w.hdrBytesWritten(), hdrs.size());

    CompressedReader r(data.data(), w.bytesWritten(), hdrs.data(),
                       hdrs.size(), ElemType::F32);
    for (size_t i = 0; i < n; i += 16) {
        Vec512 v = r.get();
        for (int l = 0; l < 16; l++)
            EXPECT_FLOAT_EQ(v.lane<float>(l), src[i + l]);
    }
}

TEST(Stream, ValidateStreamAcceptsWellFormed)
{
    const size_t n = 16 * 10;
    auto src = makeSparse(n, 0.5, 5);
    std::vector<uint8_t> buf(n * 4 + 2 * (n / 16));
    StreamStats s = compressBufferPs(src.data(), n, buf.data(),
                                     buf.size(), Ccf::EQZ);
    EXPECT_EQ(validateStream(buf.data(), buf.size(), n / 16,
                             ElemType::F32),
              s.totalBytes());
}

TEST(Stream, ValidateStreamRejectsTruncated)
{
    const size_t n = 16 * 10;
    auto src = makeSparse(n, 0.2, 6);
    std::vector<uint8_t> buf(n * 4 + 2 * (n / 16));
    StreamStats s = compressBufferPs(src.data(), n, buf.data(),
                                     buf.size(), Ccf::EQZ);
    EXPECT_EQ(validateStream(buf.data(), s.totalBytes() - 1, n / 16,
                             ElemType::F32),
              0u);
}

TEST(Stream, RatioOfEmptyStreamIsOne)
{
    StreamStats s;
    EXPECT_DOUBLE_EQ(s.ratio(), 1.0);
    EXPECT_DOUBLE_EQ(s.sparsity(ElemType::F32), 0.0);
}

class StreamSparsitySweep : public ::testing::TestWithParam<double>
{
};

TEST_P(StreamSparsitySweep, RoundTripAndRatioMonotonicity)
{
    double sparsity = GetParam();
    const size_t n = 16 * 512;
    auto src = makeSparse(n, sparsity, 7);
    std::vector<uint8_t> buf(n * 4 + 2 * (n / 16));
    StreamStats s = compressBufferPs(src.data(), n, buf.data(),
                                     buf.size(), Ccf::EQZ);
    std::vector<float> out(n);
    expandBufferPs(buf.data(), buf.size(), out.data(), n);
    EXPECT_EQ(out, src);
    // Ratio must be at least the worst case and grow with sparsity.
    EXPECT_GE(s.ratio(), 64.0 / 66.0 - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sparsities, StreamSparsitySweep,
                         ::testing::Values(0.0, 0.1, 0.3, 0.49, 0.62,
                                           0.8, 0.95, 1.0));

TEST(Stream, SeparateHeaderImmuneToIncompressibleData)
{
    // Section 4.1 option 2: with a decoupled header store, fully
    // dense data still fits - payload occupies exactly the original
    // allocation and the headers live in their own region.
    const size_t n = 16 * 32;
    std::vector<float> src(n, 1.0f);
    std::vector<uint8_t> data(n * 4);
    std::vector<uint8_t> hdrs(2 * (n / 16));
    CompressedWriter w(data.data(), data.size(), hdrs.data(),
                       hdrs.size(), ElemType::F32, Ccf::EQZ);
    for (size_t i = 0; i < n; i += 16)
        w.put(Vec512::load(src.data() + i));
    EXPECT_EQ(w.bytesWritten(), n * 4);
    EXPECT_EQ(w.hdrBytesWritten(), hdrs.size());
    EXPECT_DOUBLE_EQ(w.stats().sparsity(ElemType::F32), 0.0);
}

TEST(Stream, TruncatedStreamRaisesDecodeError)
{
    const size_t n = 16 * 4;
    auto src = makeSparse(n, 0.4, 8);
    std::vector<uint8_t> buf(n * 4 + 2 * (n / 16));
    StreamStats s = compressBufferPs(src.data(), n, buf.data(),
                                     buf.size(), Ccf::EQZ);
    uint64_t before = decodeErrorCount();
    CompressedReader r(buf.data(), s.totalBytes() - 1, ElemType::F32);
    EXPECT_THROW(
        {
            for (size_t i = 0; i < n / 16; i++)
                r.get();
        },
        DecodeError);
    EXPECT_GT(decodeErrorCount(), before);
}

TEST(Stream, FinishRejectsTrailingBytes)
{
    const size_t n = 16 * 4;
    auto src = makeSparse(n, 0.4, 9);
    std::vector<uint8_t> buf(n * 4 + 2 * (n / 16));
    StreamStats s = compressBufferPs(src.data(), n, buf.data(),
                                     buf.size(), Ccf::EQZ);

    CompressedReader exact(buf.data(), s.totalBytes(), ElemType::F32);
    for (size_t i = 0; i < n / 16; i++)
        exact.get();
    EXPECT_NO_THROW(exact.finish());

    // Same stream with 3 extra capacity bytes: a truncated decode
    // loop (one vector short) leaves undecoded bytes behind.
    CompressedReader leftover(buf.data(), s.totalBytes(),
                              ElemType::F32);
    for (size_t i = 0; i < n / 16 - 1; i++)
        leftover.get();
    EXPECT_THROW(leftover.finish(), DecodeError);
}

TEST(Stream, NnzRecordMismatchRaisesDecodeError)
{
    const size_t n = 16 * 3;
    auto src = makeSparse(n, 0.4, 10);
    std::vector<uint8_t> buf(n * 4 + 2 * (n / 16));
    CompressedWriter w(buf.data(), buf.size(), ElemType::F32,
                       Ccf::EQZ);
    for (size_t i = 0; i < n; i += 16)
        w.put(Vec512::load(src.data() + i));

    // Intact stream + intact record decodes clean.
    {
        CompressedReader r(buf.data(), w.bytesWritten(), ElemType::F32);
        r.expectNnzRecord(&w.nnzRecord());
        for (int i = 0; i < 3; i++)
            r.get();
        EXPECT_NO_THROW(r.finish());
    }

    // A header bitflip in vector 1 disagrees with the record at
    // exactly that vector.
    std::vector<uint8_t> corrupt(buf.begin(), buf.end());
    size_t v1_hdr = 2 + static_cast<size_t>(w.nnzRecord()[0]) * 4;
    corrupt[v1_hdr] ^= 0x01;
    CompressedReader r(corrupt.data(), w.bytesWritten(), ElemType::F32);
    r.expectNnzRecord(&w.nnzRecord());
    r.get();
    uint64_t before = decodeErrorCount();
    EXPECT_THROW(r.get(), DecodeError);
    EXPECT_EQ(decodeErrorCount(), before + 1);

    // Reading past the recorded vector count is also a mismatch.
    CompressedReader over(buf.data(), w.bytesWritten(), ElemType::F32);
    std::vector<uint8_t> short_record(w.nnzRecord().begin(),
                                      w.nnzRecord().begin() + 2);
    over.expectNnzRecord(&short_record);
    over.get();
    over.get();
    EXPECT_THROW(over.get(), DecodeError);
}

TEST(Stream, SeparateHeaderStoreTruncationRaisesDecodeError)
{
    const size_t n = 16 * 4;
    auto src = makeSparse(n, 0.5, 11);
    std::vector<uint8_t> data(n * 4);
    std::vector<uint8_t> hdrs(2 * (n / 16));
    CompressedWriter w(data.data(), data.size(), hdrs.data(),
                       hdrs.size(), ElemType::F32, Ccf::EQZ);
    for (size_t i = 0; i < n; i += 16)
        w.put(Vec512::load(src.data() + i));

    CompressedReader r(data.data(), w.bytesWritten(), hdrs.data(),
                       hdrs.size() - 1, ElemType::F32);
    EXPECT_THROW(
        {
            for (size_t i = 0; i < n / 16; i++)
                r.get();
        },
        DecodeError);
}

TEST(Stream, InjectedFaultSitesRaiseDecodeError)
{
    const size_t n = 16;
    auto src = makeSparse(n, 0.5, 12);
    std::vector<uint8_t> buf(n * 4 + 2);
    StreamStats s = compressBufferPs(src.data(), n, buf.data(),
                                     buf.size(), Ccf::EQZ);

    FaultInjector::global().configure("zcomp.header:1");
    uint64_t before = decodeErrorCount();
    CompressedReader r(buf.data(), s.totalBytes(), ElemType::F32);
    EXPECT_THROW(r.get(), DecodeError);
    EXPECT_EQ(decodeErrorCount(), before + 1);
    EXPECT_EQ(FaultInjector::global().injected(faultsite::ZcompHeader),
              1u);
    FaultInjector::global().reset();

    FaultInjector::global().configure("zcomp.stream.truncate:1");
    CompressedReader r2(buf.data(), s.totalBytes(), ElemType::F32);
    EXPECT_THROW(r2.get(), DecodeError);
    EXPECT_EQ(
        FaultInjector::global().injected(faultsite::StreamTruncate),
        1u);
    FaultInjector::global().reset();

    // Disarmed again: the same stream decodes clean.
    CompressedReader r3(buf.data(), s.totalBytes(), ElemType::F32);
    EXPECT_NO_THROW(r3.get());
}

TEST(Stream, FitsWorstCaseReportsHonestly)
{
    std::vector<uint8_t> buf(100);
    CompressedWriter w(buf.data(), buf.size(), ElemType::F32,
                       Ccf::EQZ);
    EXPECT_TRUE(w.fitsWorstCase());     // 66 <= 100
    // Write one dense vector (66 bytes): only 34 left.
    Vec512 dense;
    for (int i = 0; i < 16; i++)
        dense.setLane<float>(i, 1.0f + i);
    w.put(dense);
    EXPECT_FALSE(w.fitsWorstCase());
}

// ---------------------------------------------------------------------
// compressBufferPs / expandBufferPs against the per-vector loops they
// must reproduce, under every backend the host supports.
// ---------------------------------------------------------------------

namespace {

using codec_lines::BackendGuard;
using codec_lines::supportedBackends;

/** The specification of compressBufferPs: one put() per vector. */
StreamStats
writerLoop(const std::vector<float> &src, uint8_t *dst, size_t cap,
           Ccf ccf)
{
    CompressedWriter w(dst, cap, ElemType::F32, ccf, false);
    for (size_t i = 0; i < src.size(); i += 16)
        w.put(Vec512::load(src.data() + i));
    return w.stats();
}

/** The specification of expandBufferPs: one get() per vector. */
StreamStats
readerLoop(const uint8_t *src, size_t cap, float *dst, size_t n)
{
    CompressedReader r(src, cap, ElemType::F32);
    for (size_t i = 0; i < n; i += 16)
        r.get().store(dst + i);
    return r.stats();
}

void
expectSameStats(const StreamStats &got, const StreamStats &want,
                const std::string &what)
{
    EXPECT_EQ(got.vectors, want.vectors) << what;
    EXPECT_EQ(got.nnz, want.nnz) << what;
    EXPECT_EQ(got.payloadBytes, want.payloadBytes) << what;
    EXPECT_EQ(got.headerBytes, want.headerBytes) << what;
}

/** `vectors` 16-lane vectors of codec_lines words, as floats. */
std::vector<float>
lineFloats(size_t vectors, codec_lines::Kind kind, double sparsity,
           uint64_t seed)
{
    std::vector<uint8_t> bytes =
        codec_lines::makeLines(vectors, kind, sparsity, seed);
    std::vector<float> out(vectors * 16);
    std::memcpy(out.data(), bytes.data(), bytes.size());
    return out;
}

/** What one decode attempt left behind. */
struct DecodeOutcome
{
    std::string error;          //!< DecodeError message; "" if none
    uint64_t errorsCounted = 0; //!< decodeErrorCount() advance
    uint64_t headerFaults = 0;  //!< zcomp.header injections
    uint64_t truncFaults = 0;   //!< zcomp.stream.truncate injections
    std::vector<float> out;     //!< the output buffer afterwards
};

/** Run `decode` into a sentinel-filled n-float buffer, with
 *  `fault_spec` (re)armed first when non-empty. */
template <typename Decode>
DecodeOutcome
decodeOutcome(size_t n, const std::string &fault_spec, Decode decode)
{
    FaultInjector &faults = FaultInjector::global();
    if (!fault_spec.empty())
        faults.configure(fault_spec);
    DecodeOutcome o;
    o.out.assign(n, -7.0f);
    const uint64_t before = decodeErrorCount();
    try {
        decode(o.out.data());
    } catch (const DecodeError &e) {
        o.error = e.what();
    }
    o.errorsCounted = decodeErrorCount() - before;
    o.headerFaults = faults.injected(faultsite::ZcompHeader);
    o.truncFaults = faults.injected(faultsite::StreamTruncate);
    faults.reset();
    return o;
}

void
expectSameOutcome(const DecodeOutcome &got, const DecodeOutcome &want,
                  const std::string &what)
{
    EXPECT_EQ(got.error, want.error) << what;
    EXPECT_EQ(got.errorsCounted, want.errorsCounted) << what;
    EXPECT_EQ(got.headerFaults, want.headerFaults) << what;
    EXPECT_EQ(got.truncFaults, want.truncFaults) << what;
    EXPECT_EQ(std::memcmp(got.out.data(), want.out.data(),
                          got.out.size() * 4),
              0)
        << what;
}

} // namespace

TEST(StreamDiff, BufferMatchesPerVectorLoops)
{
    BackendGuard guard;
    const size_t vectors = 37;
    const size_t cap = vectors * 66 + 5;
    for (simd::Backend b : supportedBackends()) {
        simd::setBackend(b);
        for (Ccf ccf : {Ccf::EQZ, Ccf::LTEZ}) {
            for (codec_lines::Kind kind : codec_lines::allKinds) {
                for (double sp : {0.0, 0.3, 0.5, 0.9, 1.0}) {
                    const std::string what =
                        std::string(simd::backendName(b)) + " " +
                        ccfName(ccf) + " " + codec_lines::kindName(kind) +
                        " sparsity " + std::to_string(sp);
                    const std::vector<float> src =
                        lineFloats(vectors, kind, sp, 11);
                    std::vector<uint8_t> want(cap, 0xAA), got(cap, 0xAA);
                    const StreamStats ws =
                        writerLoop(src, want.data(), cap, ccf);
                    const StreamStats gs = compressBufferPs(
                        src.data(), src.size(), got.data(), cap, ccf);
                    expectSameStats(gs, ws, what);
                    EXPECT_EQ(got, want) << what;

                    std::vector<float> back(src.size(), -7.0f);
                    std::vector<float> ref(src.size(), -7.0f);
                    const StreamStats es = expandBufferPs(
                        got.data(), ws.totalBytes(), back.data(),
                        src.size());
                    expectSameStats(es, ws, what);
                    readerLoop(got.data(), ws.totalBytes(), ref.data(),
                               src.size());
                    EXPECT_EQ(std::memcmp(back.data(), ref.data(),
                                          src.size() * 4),
                              0)
                        << what;
                    if (ccf == Ccf::EQZ) {
                        // -0.0f, NaN payloads and denormals come back
                        // bit for bit.
                        EXPECT_EQ(std::memcmp(back.data(), src.data(),
                                              src.size() * 4),
                                  0)
                            << what;
                    }
                }
            }
        }
    }
}

TEST(StreamDiff, ExactFitAndOneByteShort)
{
    BackendGuard guard;
    const size_t vectors = 9;
    for (simd::Backend b : supportedBackends()) {
        simd::setBackend(b);
        // Dense ends on a 66-byte vector, sparse on a 2-byte one.
        for (double sp : {0.0, 0.5}) {
            std::vector<float> src =
                lineFloats(vectors, codec_lines::Kind::Mixed, sp, 12);
            if (sp == 0.0) {
                for (float &x : src)
                    x = x == 0.0f ? 1.0f : x;
            } else {
                std::fill(src.end() - 16, src.end(), 0.0f);
            }
            std::vector<uint8_t> want(vectors * 66, 0xAA);
            const size_t exact =
                writerLoop(src, want.data(), want.size(), Ccf::EQZ)
                    .totalBytes();
            std::vector<uint8_t> got(exact, 0xAA);
            const StreamStats gs = compressBufferPs(
                src.data(), src.size(), got.data(), exact, Ccf::EQZ);
            EXPECT_EQ(gs.totalBytes(), exact);
            EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
                << simd::backendName(b) << " sparsity " << sp;
            EXPECT_DEATH(compressBufferPs(src.data(), src.size(),
                                          got.data(), exact - 1,
                                          Ccf::EQZ),
                         "memory violation")
                << simd::backendName(b) << " sparsity " << sp;
        }
    }
}

TEST(StreamDiff, TruncatedStreamFailsLikeReaderLoop)
{
    BackendGuard guard;
    const size_t vectors = 8;
    std::vector<float> src =
        lineFloats(vectors, codec_lines::Kind::Random, 0.5, 13);
    // Vector 5 keeps every lane, so a cut can land in its payload.
    for (size_t i = 5 * 16; i < 6 * 16; i++)
        src[i] = 1.0f + static_cast<float>(i);
    std::vector<uint8_t> stream(vectors * 66);
    CompressedWriter w(stream.data(), stream.size(), ElemType::F32,
                       Ccf::EQZ);
    size_t v5 = 0;
    for (size_t v = 0; v < vectors; v++) {
        if (v == 5)
            v5 = w.bytesWritten();
        w.put(Vec512::load(src.data() + v * 16));
    }
    const size_t n = src.size();
    for (simd::Backend b : supportedBackends()) {
        simd::setBackend(b);
        // Inside vector 5's header, then inside its payload. The cut
        // stream is its own allocation, so a read past it is an
        // out-of-bounds read under ASan.
        for (size_t cap : {v5 + 1, v5 + 2 + 16 * 4 - 1}) {
            const std::string what = std::string(simd::backendName(b)) +
                                     " capacity " + std::to_string(cap);
            const std::vector<uint8_t> cut(stream.begin(),
                                           stream.begin() + cap);
            const DecodeOutcome want =
                decodeOutcome(n, "", [&](float *out) {
                    readerLoop(cut.data(), cap, out, n);
                });
            const DecodeOutcome got =
                decodeOutcome(n, "", [&](float *out) {
                    expandBufferPs(cut.data(), cap, out, n);
                });
            EXPECT_NE(want.error.find("truncated at vector 5"),
                      std::string::npos)
                << want.error;
            EXPECT_EQ(got.errorsCounted, 1u) << what;
            expectSameOutcome(got, want, what);
        }
    }
}

TEST(StreamDiff, InjectedFaultsMatchReaderLoop)
{
    BackendGuard guard;
    const size_t vectors = 64;
    const std::vector<float> src =
        lineFloats(vectors, codec_lines::Kind::Random, 0.5, 14);
    std::vector<uint8_t> stream(vectors * 66);
    const size_t bytes = compressBufferPs(src.data(), src.size(),
                                          stream.data(), stream.size(),
                                          Ccf::EQZ)
                             .totalBytes();
    const size_t n = src.size();
    for (simd::Backend b : supportedBackends()) {
        simd::setBackend(b);
        for (const char *spec :
             {"zcomp.header:1", "zcomp.stream.truncate:1",
              "zcomp.header:0.05:3", "zcomp.stream.truncate:0.1:5",
              "kernel.transient:1"}) {
            const std::string what =
                std::string(simd::backendName(b)) + " " + spec;
            const DecodeOutcome want =
                decodeOutcome(n, spec, [&](float *out) {
                    readerLoop(stream.data(), bytes, out, n);
                });
            const DecodeOutcome got =
                decodeOutcome(n, spec, [&](float *out) {
                    expandBufferPs(stream.data(), bytes, out, n);
                });
            expectSameOutcome(got, want, what);
            if (std::strstr(spec, "zcomp.") == spec) {
                // Every zcomp spec here fires before the stream ends.
                EXPECT_EQ(want.errorsCounted, 1u) << what;
            }
        }
        // Probability 1 fires at the first vector, once.
        const DecodeOutcome header =
            decodeOutcome(n, "zcomp.header:1", [&](float *out) {
                expandBufferPs(stream.data(), bytes, out, n);
            });
        EXPECT_EQ(header.headerFaults, 1u);
        EXPECT_EQ(header.errorsCounted, 1u);
        EXPECT_NE(header.error.find("at vector 0"), std::string::npos);
        const DecodeOutcome trunc =
            decodeOutcome(n, "zcomp.stream.truncate:1", [&](float *out) {
                expandBufferPs(stream.data(), bytes, out, n);
            });
        EXPECT_EQ(trunc.truncFaults, 1u);
        EXPECT_EQ(trunc.errorsCounted, 1u);
    }
}
