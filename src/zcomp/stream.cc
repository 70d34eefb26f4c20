#include "zcomp/stream.hh"

#include <cstring>

#include "common/bitops.hh"
#include "common/error.hh"
#include "common/fault.hh"
#include "common/log.hh"
#include "common/simd.hh"

namespace zcomp {

double
StreamStats::ratio() const
{
    uint64_t total = totalBytes();
    if (total == 0)
        return 1.0;
    return static_cast<double>(originalBytes()) /
           static_cast<double>(total);
}

double
StreamStats::sparsity(ElemType t) const
{
    uint64_t elems = vectors * static_cast<uint64_t>(lanesPerVec(t));
    if (elems == 0)
        return 0.0;
    return 1.0 - static_cast<double>(nnz) / static_cast<double>(elems);
}

StreamStats &
StreamStats::operator+=(const StreamStats &o)
{
    vectors += o.vectors;
    nnz += o.nnz;
    payloadBytes += o.payloadBytes;
    headerBytes += o.headerBytes;
    return *this;
}

CompressedWriter::CompressedWriter(uint8_t *data, size_t data_capacity,
                                   ElemType t, Ccf ccf, bool record_nnz)
    : dataBase_(data), dataPtr_(data), dataCap_(data_capacity), etype_(t),
      ccf_(ccf), recordNnz_(record_nnz)
{
}

CompressedWriter::CompressedWriter(uint8_t *data, size_t data_capacity,
                                   uint8_t *hdr, size_t hdr_capacity,
                                   ElemType t, Ccf ccf, bool record_nnz)
    : dataBase_(data), dataPtr_(data), dataCap_(data_capacity),
      hdrBase_(hdr), hdrPtr_(hdr), hdrCap_(hdr_capacity), etype_(t),
      ccf_(ccf), recordNnz_(record_nnz)
{
}

bool
CompressedWriter::fitsWorstCase() const
{
    size_t payload_max =
        separateHeader() ? 64u : static_cast<size_t>(
                                     maxCompressedBytes(etype_));
    if (bytesWritten() + payload_max > dataCap_)
        return false;
    if (separateHeader() &&
        hdrBytesWritten() + static_cast<size_t>(headerBytes(etype_)) >
            hdrCap_) {
        return false;
    }
    return true;
}

ZcompResult
CompressedWriter::put(const Vec512 &v)
{
    // The header is computed once, drives the capacity pre-check, and
    // is then handed to the WithHeader entry points so the lane
    // comparison is not repeated inside the ISA routine.
    ZcompResult r;
    const uint64_t header = computeHeader(v, etype_, ccf_);
    size_t payload = static_cast<size_t>(popcount64(header)) *
                     static_cast<size_t>(elemBytes(etype_));
    if (separateHeader()) {
        fatal_if(hdrBytesWritten() + static_cast<size_t>(
                     headerBytes(etype_)) > hdrCap_,
                 "header store overflow at vector %llu",
                 (unsigned long long)stats_.vectors);
        fatal_if(bytesWritten() + payload > dataCap_,
                 "compressed data overflow at vector %llu",
                 (unsigned long long)stats_.vectors);
        r = zcompsSeparateWithHeader(v, etype_, header, dataPtr_,
                                     hdrPtr_);
        dataPtr_ += r.dataBytes;
        hdrPtr_ += headerBytes(etype_);
    } else {
        size_t need = static_cast<size_t>(headerBytes(etype_)) + payload;
        fatal_if(bytesWritten() + need > dataCap_,
                 "interleaved stream memory violation at vector %llu: "
                 "data is not compressible enough for the original "
                 "allocation (Section 4.1)",
                 (unsigned long long)stats_.vectors);
        r = zcompsInterleavedWithHeader(v, etype_, header, dataPtr_);
        dataPtr_ += r.totalBytes;
    }
    stats_.vectors++;
    stats_.nnz += static_cast<uint64_t>(r.nnz);
    stats_.payloadBytes += static_cast<uint64_t>(r.dataBytes);
    stats_.headerBytes += static_cast<uint64_t>(headerBytes(etype_));
    if (recordNnz_)
        nnzRecord_.push_back(static_cast<uint8_t>(r.nnz));
    return r;
}

CompressedReader::CompressedReader(const uint8_t *data,
                                   size_t data_capacity, ElemType t)
    : dataBase_(data), dataPtr_(data), dataCap_(data_capacity), etype_(t)
{
}

CompressedReader::CompressedReader(const uint8_t *data,
                                   size_t data_capacity,
                                   const uint8_t *hdr, size_t hdr_capacity,
                                   ElemType t)
    : dataBase_(data), dataPtr_(data), dataCap_(data_capacity),
      hdrBase_(hdr), hdrPtr_(hdr), hdrCap_(hdr_capacity), etype_(t)
{
}

Vec512
CompressedReader::get()
{
    const unsigned long long vec = stats_.vectors;
    FaultInjector &faults = FaultInjector::global();
    if (faults.enabled()) {
        // Both sites model corruption the decoder *detects*; they take
        // the same DecodeError path real validation failures do.
        if (faults.shouldInject(faultsite::ZcompHeader)) {
            decodeError("injected header corruption at vector %llu", vec);
        }
        if (faults.shouldInject(faultsite::StreamTruncate)) {
            decodeError("injected stream truncation at vector %llu", vec);
        }
    }

    // Validate the vector fully - header reachable, lanes in range,
    // payload within capacity - before unpacking any payload byte.
    const size_t hb = static_cast<size_t>(headerBytes(etype_));
    const size_t eb = static_cast<size_t>(elemBytes(etype_));
    uint64_t header;
    if (hdrBase_) {
        if (hdrBytesRead() + hb > hdrCap_) {
            decodeError("header store truncated at vector %llu: "
                        "%zu of %zu header bytes remain",
                        vec, hdrCap_ - hdrBytesRead(), hb);
        }
        header = loadBytesLe(hdrPtr_, static_cast<int>(hb));
    } else {
        if (bytesRead() + hb > dataCap_) {
            decodeError("compressed stream truncated at vector %llu: "
                        "%zu of %zu header bytes remain",
                        vec, dataCap_ - bytesRead(), hb);
        }
        header = loadBytesLe(dataPtr_, static_cast<int>(hb));
    }
    if (!headerInRange(header, etype_)) {
        // Lane-count validation runs in every build type: a header
        // selecting lanes the element type does not have is corrupted
        // input data, not a simulator bug.
        decodeError("vector %llu header 0x%llx selects lanes beyond "
                    "the %d lanes of the element type",
                    vec, (unsigned long long)header,
                    lanesPerVec(etype_));
    }
    const size_t nnz = static_cast<size_t>(popcount64(header));
    if (nnzRecord_) {
        if (stats_.vectors >= nnzRecord_->size()) {
            decodeError("decoding vector %llu but the writer recorded "
                        "only %zu vectors",
                        vec, nnzRecord_->size());
        }
        if ((*nnzRecord_)[stats_.vectors] != nnz) {
            decodeError("vector %llu header popcount %zu does not match "
                        "the writer's recorded nnz %u",
                        vec, nnz,
                        (unsigned)(*nnzRecord_)[stats_.vectors]);
        }
    }
    const size_t payload = nnz * eb;
    if (hdrBase_) {
        if (bytesRead() + payload > dataCap_) {
            decodeError("compressed payload truncated at vector %llu: "
                        "header promises %zu bytes, %zu remain",
                        vec, payload, dataCap_ - bytesRead());
        }
    } else {
        if (bytesRead() + hb + payload > dataCap_) {
            decodeError("compressed payload truncated at vector %llu: "
                        "header promises %zu bytes, %zu remain",
                        vec, payload, dataCap_ - bytesRead() - hb);
        }
    }

    // The pre-check above read and fully validated the header, so the
    // expand passes it down instead of re-reading it; the WithHeader
    // routines keep their own validation under ZCOMP_DCHECK only.
    Vec512 out;
    ZcompResult r;
    if (hdrBase_) {
        r = zcomplSeparateWithHeader(dataPtr_, etype_, header, out);
        dataPtr_ += r.dataBytes;
        hdrPtr_ += hb;
    } else {
        r = zcomplInterleavedWithHeader(dataPtr_, etype_, header, out);
        dataPtr_ += r.totalBytes;
    }
    stats_.vectors++;
    stats_.nnz += static_cast<uint64_t>(r.nnz);
    stats_.payloadBytes += static_cast<uint64_t>(r.dataBytes);
    stats_.headerBytes += static_cast<uint64_t>(headerBytes(etype_));
    return out;
}

void
CompressedReader::finish() const
{
    if (bytesRead() != dataCap_) {
        decodeError("compressed stream has %zu undecoded trailing bytes "
                    "after %llu vectors",
                    dataCap_ - bytesRead(),
                    (unsigned long long)stats_.vectors);
    }
    if (hdrBase_ && hdrBytesRead() != hdrCap_) {
        decodeError("header store has %zu undecoded trailing bytes "
                    "after %llu vectors",
                    hdrCap_ - hdrBytesRead(),
                    (unsigned long long)stats_.vectors);
    }
}

namespace {

/** Stats of an interleaved F32 stream of `vectors` vectors. */
StreamStats
wholeStreamStats(uint64_t vectors, uint64_t nnz)
{
    StreamStats s;
    s.vectors = vectors;
    s.nnz = nnz;
    s.payloadBytes = nnz * 4;
    s.headerBytes = vectors * static_cast<uint64_t>(
                                  headerBytes(ElemType::F32));
    return s;
}

} // namespace

StreamStats
compressBufferPs(const float *src, size_t n, uint8_t *dst,
                 size_t dst_capacity, Ccf ccf)
{
    fatal_if(n % 16 != 0, "element count %zu is not a multiple of 16", n);
    uint64_t nnz;
    if (simd::compressStream32(reinterpret_cast<const uint8_t *>(src),
                               n / 16, ccf == Ccf::LTEZ, dst, dst_capacity,
                               nnz))
        return wholeStreamStats(n / 16, nnz);
    // The per-vector writer is the specification; it also raises the
    // overflow the kernel declined.
    CompressedWriter w(dst, dst_capacity, ElemType::F32, ccf,
                       /*record_nnz=*/false);
    for (size_t i = 0; i < n; i += 16)
        w.put(Vec512::load(src + i));
    return w.stats();
}

StreamStats
expandBufferPs(const uint8_t *src, size_t src_capacity, float *dst,
               size_t n)
{
    fatal_if(n % 16 != 0, "element count %zu is not a multiple of 16", n);
    uint64_t nnz;
    if (!FaultInjector::global().enabled() &&
        simd::expandStream32(src, src_capacity, n / 16,
                             reinterpret_cast<uint8_t *>(dst), nnz))
        return wholeStreamStats(n / 16, nnz);
    // The per-vector reader is the specification; it also raises the
    // truncation the kernel declined and visits the fault sites.
    CompressedReader r(src, src_capacity, ElemType::F32);
    for (size_t i = 0; i < n; i += 16) {
        Vec512 v = r.get();
        v.store(dst + i);
    }
    return r.stats();
}

size_t
validateStream(const uint8_t *data, size_t capacity, size_t num_vectors,
               ElemType t)
{
    size_t off = 0;
    const int hb = headerBytes(t);
    for (size_t i = 0; i < num_vectors; i++) {
        if (off + static_cast<size_t>(hb) > capacity)
            return 0;
        uint64_t header = 0;
        std::memcpy(&header, data + off, static_cast<size_t>(hb));
        size_t total =
            static_cast<size_t>(hb) +
            static_cast<size_t>(popcount64(header) * elemBytes(t));
        if (off + total > capacity)
            return 0;
        off += total;
    }
    return off;
}

} // namespace zcomp
