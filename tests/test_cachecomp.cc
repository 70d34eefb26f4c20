/**
 * @file
 * Tests for FPC, FPC-D and the cache-compression architecture models
 * behind the Figure 15 comparison, including the 16-line FPC-D block
 * path against the per-line loops it batches, on every backend.
 */

#include <algorithm>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "cachecomp/cache_model.hh"
#include "cachecomp/fpc.hh"
#include "cachecomp/fpcd.hh"
#include "workload/snapshot.hh"

#include "codec_lines.hh"

using namespace zcomp;

namespace {

std::vector<uint8_t>
lineOf(std::initializer_list<uint32_t> words)
{
    std::vector<uint8_t> line(64, 0);
    int i = 0;
    for (uint32_t w : words) {
        std::memcpy(line.data() + i * 4, &w, 4);
        i++;
    }
    return line;
}

std::vector<uint8_t>
snapshotBytes(size_t elems, double sparsity, uint64_t seed)
{
    SnapshotParams p;
    p.sparsity = sparsity;
    auto floats = makeActivations(elems, p, seed);
    std::vector<uint8_t> bytes(elems * 4);
    std::memcpy(bytes.data(), floats.data(), bytes.size());
    return bytes;
}

/*
 * Oracles: FPC-D sizing one line at a time, as the cache models did
 * before they sized lines in 16-line blocks. They use only the scalar
 * FPC classifier and must not be "fixed" to match the code under test.
 */

int
refFpcdLineBytes(const uint8_t *line)
{
    uint32_t dict[fpcdDictEntries] = {};
    int dict_fill = 0;
    int next_slot = 0;
    int payload_bits = 0;
    for (int w = 0; w < 16; w++) {
        uint32_t word = 0;
        std::memcpy(&word, line + w * 4, 4);
        if (word == 0)
            continue;
        bool full = false, partial = false;
        for (int d = 0; d < dict_fill; d++) {
            if (dict[d] == word) {
                full = true;
                break;
            }
            if ((dict[d] >> 8) == (word >> 8))
                partial = true;
        }
        if (full)
            payload_bits += 1;
        else if (partial)
            payload_bits += 1 + 8;
        else
            payload_bits += fpcPayloadBits(fpcClassify(word));
        if (!full) {
            dict[next_slot] = word;
            next_slot = (next_slot + 1) % fpcdDictEntries;
            dict_fill = std::min(dict_fill + 1, fpcdDictEntries);
        }
    }
    return std::min(64, fpcdPrefixBytes + (payload_bits + 7) / 8);
}

double
refLimitCCRatio(const uint8_t *data, size_t bytes)
{
    uint64_t compressed = 0;
    for (size_t off = 0; off < bytes; off += 64)
        compressed += static_cast<uint64_t>(refFpcdLineBytes(data + off));
    return static_cast<double>(bytes) / static_cast<double>(compressed);
}

double
refTwoTagCCRatio(const uint8_t *data, size_t bytes, int sets)
{
    size_t lines = bytes / 64;
    std::vector<int> pending(static_cast<size_t>(sets), -1);
    uint64_t physical = 0;
    for (size_t l = 0; l < lines; l++) {
        int set = static_cast<int>(l % static_cast<size_t>(sets));
        int sz = refFpcdLineBytes(data + l * 64);
        int prev = pending[static_cast<size_t>(set)];
        if (prev >= 0 && prev + sz <= 64) {
            pending[static_cast<size_t>(set)] = -1;
        } else {
            physical++;
            pending[static_cast<size_t>(set)] = sz;
        }
    }
    return static_cast<double>(lines) / static_cast<double>(physical);
}

} // namespace

TEST(Fpc, PatternClassification)
{
    EXPECT_EQ(fpcClassify(0), FpcPattern::ZeroRun);
    EXPECT_EQ(fpcClassify(3), FpcPattern::SignExt4);
    EXPECT_EQ(fpcClassify(0xFFFFFFFF), FpcPattern::SignExt4);   // -1
    EXPECT_EQ(fpcClassify(100), FpcPattern::SignExt8);
    EXPECT_EQ(fpcClassify(30000), FpcPattern::SignExt16);
    EXPECT_EQ(fpcClassify(0x12340000), FpcPattern::ZeroPaddedHalf);
    EXPECT_EQ(fpcClassify(0x00050006), FpcPattern::SignExtHalves);
    EXPECT_EQ(fpcClassify(0xABABABAB), FpcPattern::RepeatedBytes);
    EXPECT_EQ(fpcClassify(0x3F8CC0DE), FpcPattern::Uncompressed);
}

TEST(Fpc, AllZeroLineCompressesHard)
{
    auto line = lineOf({});
    // Two zero runs of 8: 2 * (3 prefix + 3 run) = 12 bits -> 2 bytes.
    EXPECT_EQ(fpcLineBits(line.data()), 12);
    EXPECT_EQ(fpcLineBytes(line.data()), 2);
}

TEST(Fpc, IncompressibleLineCapsAtRawSize)
{
    std::vector<uint8_t> line(64);
    for (int i = 0; i < 64; i++)
        line[static_cast<size_t>(i)] = static_cast<uint8_t>(37 + i * 71);
    EXPECT_EQ(fpcLineBytes(line.data()), 64);
}

TEST(Fpc, ClassificationBoundaries)
{
    // Sign-extension class edges, including the negative end where an
    // off-by-one in the range test would misclassify.
    EXPECT_EQ(fpcClassify(0xFFFFFFF8u), FpcPattern::SignExt4);      // -8
    EXPECT_EQ(fpcClassify(0xFFFFFFF7u), FpcPattern::SignExt8);      // -9
    EXPECT_EQ(fpcClassify(7), FpcPattern::SignExt4);
    EXPECT_EQ(fpcClassify(8), FpcPattern::SignExt8);
    EXPECT_EQ(fpcClassify(127), FpcPattern::SignExt8);
    EXPECT_EQ(fpcClassify(128), FpcPattern::SignExt16);
    EXPECT_EQ(fpcClassify(0xFFFFFF80u), FpcPattern::SignExt8);      // -128
    EXPECT_EQ(fpcClassify(0xFFFFFF7Fu), FpcPattern::SignExt16);     // -129
    EXPECT_EQ(fpcClassify(32767), FpcPattern::SignExt16);
    EXPECT_EQ(fpcClassify(0xFFFF8000u), FpcPattern::SignExt16);     // -32768
    // 32768 overflows SignExt16 and its low half 0x8000 does not fit
    // an 8-bit sign extension, so nothing catches it.
    EXPECT_EQ(fpcClassify(32768), FpcPattern::Uncompressed);
}

TEST(Fpc, ZeroRunSplitsAtEight)
{
    // Eight zeros fill one run; the ninth opens a second one.
    std::vector<uint8_t> line(64, 0);
    uint32_t marker = 0x3F8CC0DEu;      // Uncompressed class
    std::memcpy(line.data() + 9 * 4, &marker, 4);
    // Run of 8 (6 bits) + run of 1 (6 bits) + marker (35 bits)
    // + run of 6 (6 bits).
    EXPECT_EQ(fpcLineBits(line.data()), 6 + 6 + 35 + 6);
}

TEST(Fpc, MaxSizeEncodingCapsAtRawLine)
{
    // Sixteen uncompressible words want 16 * (3 + 32) = 560 bits
    // (70 B) - more than the raw line; the byte size must cap at 64.
    std::vector<uint8_t> line(64);
    for (int w = 0; w < 16; w++) {
        uint32_t word = 0x3F8CC0DEu + static_cast<uint32_t>(w) * 0x01010101u;
        ASSERT_EQ(fpcClassify(word), FpcPattern::Uncompressed);
        std::memcpy(line.data() + w * 4, &word, 4);
    }
    EXPECT_EQ(fpcLineBits(line.data()), 560);
    EXPECT_EQ(fpcLineBytes(line.data()), 64);
}

TEST(Fpc, AlternatingSignFloats)
{
    // +-1.0f alternating: every word is ZeroPaddedHalf (mantissa low
    // half zero), 16 * (3 + 16) = 304 bits -> 38 bytes. The sign flip
    // defeats zero runs but not the significance patterns.
    std::vector<uint8_t> line(64);
    for (int i = 0; i < 16; i++) {
        float v = (i % 2 == 0) ? 1.0f : -1.0f;
        std::memcpy(line.data() + i * 4, &v, 4);
    }
    EXPECT_EQ(fpcLineBits(line.data()), 304);
    EXPECT_EQ(fpcLineBytes(line.data()), 38);
}

TEST(FpcD, ZeroLineIsPrefixOnly)
{
    auto line = lineOf({});
    EXPECT_EQ(fpcdLineBytes(line.data()), fpcdPrefixBytes);
}

TEST(FpcD, DictionaryCatchesRepeatedFloats)
{
    // The same fp32 value repeated: first word uncompressed, the rest
    // dictionary hits of 1 bit.
    std::vector<uint8_t> line(64);
    float v = 1.234567f;
    for (int i = 0; i < 16; i++)
        std::memcpy(line.data() + i * 4, &v, 4);
    int sz = fpcdLineBytes(line.data());
    EXPECT_LT(sz, 16);
    EXPECT_GE(sz, fpcdPrefixBytes);
}

TEST(FpcD, PartialMatchesShareHighBytes)
{
    // Floats with identical exponent/high-mantissa differ only in the
    // low byte: partial dictionary hits.
    std::vector<uint8_t> line(64);
    for (int i = 0; i < 16; i++) {
        uint32_t w = 0x3F800000u | static_cast<uint32_t>(i);
        std::memcpy(line.data() + i * 4, &w, 4);
    }
    EXPECT_LT(fpcdLineBytes(line.data()), 32);
}

TEST(FpcD, AlternatingSignFloatsHitDictionary)
{
    // +-1.0f alternating: the first two words miss (16 payload bits
    // each as ZeroPaddedHalf) and fill the two-entry dictionary; the
    // remaining 14 are full 1-bit hits. 16 + 16 + 14 = 46 bits -> 6 B
    // payload + 8 B prefix.
    std::vector<uint8_t> line(64);
    for (int i = 0; i < 16; i++) {
        float v = (i % 2 == 0) ? 1.0f : -1.0f;
        std::memcpy(line.data() + i * 4, &v, 4);
    }
    EXPECT_EQ(fpcdLineBytes(line.data()), fpcdPrefixBytes + 6);
}

TEST(FpcD, PartialMatchExactSize)
{
    // Words sharing the upper 24 bits: first word misses
    // (ZeroPaddedHalf, 16 bits), the other 15 are partial hits at
    // 1 + 8 bits. 16 + 15 * 9 = 151 bits -> 19 B payload + prefix.
    std::vector<uint8_t> line(64);
    for (int i = 0; i < 16; i++) {
        uint32_t w = 0x3F800000u | static_cast<uint32_t>(i);
        std::memcpy(line.data() + i * 4, &w, 4);
    }
    EXPECT_EQ(fpcdLineBytes(line.data()), fpcdPrefixBytes + 19);
}

TEST(FpcD, MaxSizeEncodingCapsAtRawLine)
{
    // Distinct uncompressible words with distinct upper-24 prefixes:
    // no dictionary help, 16 * 32 = 512 payload bits + the 8-byte
    // prefix would be 72 B; the line must cap at the raw 64.
    std::vector<uint8_t> line(64);
    for (int w = 0; w < 16; w++) {
        uint32_t word = 0x3F8CC0DEu + static_cast<uint32_t>(w) * 0x01010101u;
        std::memcpy(line.data() + w * 4, &word, 4);
    }
    EXPECT_EQ(fpcdLineBytes(line.data()), 64);
}

TEST(FpcD, RandomFloatsBarelyCompress)
{
    auto bytes = snapshotBytes(16 * 64, 0.0, 5);
    uint64_t total = 0;
    for (size_t off = 0; off < bytes.size(); off += 64)
        total += static_cast<uint64_t>(fpcdLineBytes(bytes.data() + off));
    // Dense gaussian floats: prefix overhead eats most of the gains.
    EXPECT_GT(total, bytes.size() / 2);
}

TEST(CacheModel, ZcompRatioTracksSparsity)
{
    auto bytes = snapshotBytes(1 << 16, 0.53, 7);
    double r = zcompSnapshotRatio(bytes.data(), bytes.size());
    // 64 / (2 + 0.47*64) ~ 2.0.
    EXPECT_NEAR(r, 2.0, 0.25);
}

TEST(CacheModel, LimitCCBeatsTwoTag)
{
    auto bytes = snapshotBytes(1 << 16, 0.53, 9);
    CompRatios r = analyzeSnapshot(bytes.data(), bytes.size());
    EXPECT_GT(r.limitCC, r.twoTagCC);
    EXPECT_GE(r.twoTagCC, 1.0);
}

TEST(CacheModel, Figure15Ordering)
{
    // ZCOMP > LimitCC > TwoTagCC on feature-map snapshots (Figure 15:
    // geomeans 1.8 / 1.54 / 1.1).
    std::vector<double> z, l, t;
    for (double s : {0.49, 0.53, 0.58, 0.62, 0.55}) {
        auto bytes =
            snapshotBytes(1 << 16, s, static_cast<uint64_t>(s * 100));
        CompRatios r = analyzeSnapshot(bytes.data(), bytes.size());
        z.push_back(r.zcomp);
        l.push_back(r.limitCC);
        t.push_back(r.twoTagCC);
    }
    double gz = geomean(z), gl = geomean(l), gt = geomean(t);
    EXPECT_GT(gz, gl);
    EXPECT_GT(gl, gt);
    EXPECT_NEAR(gz, 1.8, 0.45);
    EXPECT_NEAR(gl, 1.54, 0.45);
    EXPECT_NEAR(gt, 1.1, 0.3);
}

TEST(CacheModel, TwoTagPairsOnlyWithinSets)
{
    // All-zero snapshot: every pair fits, ratio approaches 2.
    std::vector<uint8_t> zeros(64 * 128, 0);
    EXPECT_NEAR(twoTagCCRatio(zeros.data(), zeros.size(), 4), 2.0,
                0.05);
    // Incompressible snapshot: no pairs fit, ratio 1.
    auto dense = snapshotBytes(64 * 32, 0.0, 11);
    EXPECT_NEAR(twoTagCCRatio(dense.data(), dense.size(), 4), 1.0,
                0.05);
}

TEST(CacheModel, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({}), 1.0);
    EXPECT_DOUBLE_EQ(geomean({2.0, 2.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-9);
}

// --- FPC-D block path vs the per-line loops, on every backend -------

TEST(FpcDDiff, BlockSizesMatchPerLineLoop)
{
    using namespace codec_lines;
    BackendGuard guard;
    for (simd::Backend b : supportedBackends()) {
        simd::setBackend(b);
        uint64_t seed = 1;
        for (Kind kind : allKinds) {
            for (double sparsity : {0.0, 0.3, 0.5, 0.9, 1.0}) {
                // 16 whole blocks plus a 5-line tail.
                const size_t n = 16 * 16 + 5;
                std::vector<uint8_t> lines =
                    makeLines(n, kind, sparsity, seed++);
                std::vector<int> sizes(n);
                fpcdLinesBytes(lines.data(), n, sizes.data());
                for (size_t l = 0; l < n; l++) {
                    const uint8_t *line = lines.data() + l * 64;
                    const int want = refFpcdLineBytes(line);
                    ASSERT_EQ(sizes[l], want)
                        << simd::backendName(b) << " " << kindName(kind)
                        << " sparsity " << sparsity << " line " << l;
                    ASSERT_EQ(fpcdLineBytes(line), want);
                }
            }
        }
    }
}

TEST(FpcDDiff, CacheModelsMatchPerLineLoopOverBlockTails)
{
    using namespace codec_lines;
    BackendGuard guard;
    for (simd::Backend b : supportedBackends()) {
        simd::setBackend(b);
        uint64_t seed = 100;
        for (size_t n : {1, 15, 16, 17, 255, 257}) {
            for (Kind kind : {Kind::Mixed, Kind::Repeated,
                              Kind::SharedHigh}) {
                // One byte of slack so the snapshot can also start
                // off the line alignment.
                std::vector<uint8_t> buf =
                    makeLines(n + 1, kind, 0.5, seed++);
                for (size_t shift : {size_t{0}, size_t{4}, size_t{1}}) {
                    const uint8_t *data = buf.data() + shift;
                    const size_t bytes = n * 64;
                    EXPECT_EQ(limitCCRatio(data, bytes),
                              refLimitCCRatio(data, bytes))
                        << simd::backendName(b) << " " << kindName(kind)
                        << " lines " << n << " shift " << shift;
                    for (int sets : {64, 4, 1}) {
                        EXPECT_EQ(twoTagCCRatio(data, bytes, sets),
                                  refTwoTagCCRatio(data, bytes, sets))
                            << simd::backendName(b) << " "
                            << kindName(kind) << " lines " << n
                            << " sets " << sets << " shift " << shift;
                    }
                }
            }
        }
    }
}
