/**
 * @file
 * Bounds-checked compressed stream abstractions over the ZCOMP
 * intrinsics, plus whole-buffer convenience routines and stream
 * statistics (compression ratios, per-vector NNZ records).
 *
 * The per-vector NNZ record produced by CompressedWriter is what the
 * timing simulator consumes to regenerate the exact byte-accurate
 * address stream of a compressed region without storing a full trace.
 */

#ifndef ZCOMP_ZCOMP_STREAM_HH
#define ZCOMP_ZCOMP_STREAM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "zcomp/intrinsics.hh"

namespace zcomp {

/** Aggregate statistics over a compressed stream. */
struct StreamStats
{
    uint64_t vectors = 0;       //!< vectors compressed/expanded
    uint64_t nnz = 0;           //!< total surviving elements
    uint64_t payloadBytes = 0;  //!< compressed element bytes
    uint64_t headerBytes = 0;   //!< metadata bytes

    uint64_t totalBytes() const { return payloadBytes + headerBytes; }

    /** Uncompressed bytes these vectors would occupy. */
    uint64_t originalBytes() const { return vectors * 64; }

    /** original / (payload + header); 1.0 when empty. */
    double ratio() const;

    /** Fraction of elements dropped (zero/negative). */
    double sparsity(ElemType t) const;

    StreamStats &operator+=(const StreamStats &o);
};

/**
 * Sequential compressing writer with capacity checking.
 *
 * Interleaved mode: construct with the data region only. Separate
 * mode: also supply a header region. put() fatal()s (memory violation,
 * Section 4.1) if the next vector would overflow the data region —
 * mirroring what happens on real hardware when interleaved headers are
 * used on insufficiently compressible data without enlarged
 * allocations.
 */
class CompressedWriter
{
  public:
    /** Interleaved-header writer. */
    CompressedWriter(uint8_t *data, size_t data_capacity, ElemType t,
                     Ccf ccf, bool record_nnz = true);

    /** Separate-header writer. */
    CompressedWriter(uint8_t *data, size_t data_capacity, uint8_t *hdr,
                     size_t hdr_capacity, ElemType t, Ccf ccf,
                     bool record_nnz = true);

    /** Compress-store the next vector. */
    ZcompResult put(const Vec512 &v);

    /** True if another (worst-case incompressible) vector fits. */
    bool fitsWorstCase() const;

    const StreamStats &stats() const { return stats_; }
    size_t bytesWritten() const { return dataPtr_ - dataBase_; }
    size_t hdrBytesWritten() const { return hdrPtr_ - hdrBase_; }
    bool separateHeader() const { return hdrBase_ != nullptr; }

    /** Per-vector NNZ values (for timing replay); empty if disabled. */
    const std::vector<uint8_t> &nnzRecord() const { return nnzRecord_; }

  private:
    uint8_t *dataBase_;
    uint8_t *dataPtr_;
    size_t dataCap_;
    uint8_t *hdrBase_ = nullptr;
    uint8_t *hdrPtr_ = nullptr;
    size_t hdrCap_ = 0;
    ElemType etype_;
    Ccf ccf_;
    bool recordNnz_;
    StreamStats stats_;
    std::vector<uint8_t> nnzRecord_;
};

/**
 * Sequential expanding reader with decode validation.
 *
 * Every get() validates the next vector *before* touching payload
 * bytes: the header must lie within the remaining stream, it may only
 * select lanes the element type has, and the payload it implies must
 * fit the remaining capacity. Violations raise DecodeError (and bump
 * the global zcomp.decode_errors counter) in all build types - a
 * corrupted stream is a recoverable input-data failure, not a
 * simulator bug. The reader is also a fault-injection client: the
 * zcomp.header and zcomp.stream.truncate sites model corruption that
 * the decoder detects.
 */
class CompressedReader
{
  public:
    /** Interleaved-header reader. */
    CompressedReader(const uint8_t *data, size_t data_capacity, ElemType t);

    /** Separate-header reader. */
    CompressedReader(const uint8_t *data, size_t data_capacity,
                     const uint8_t *hdr, size_t hdr_capacity, ElemType t);

    /** Load-expand the next vector; DecodeError on a malformed stream. */
    Vec512 get();

    /**
     * Cross-check each decoded header's popcount against the writer's
     * per-vector NNZ record (see CompressedWriter::nnzRecord()). Any
     * mismatch - including reading more vectors than were written -
     * raises DecodeError at the offending vector. The record must
     * outlive the reader; pass nullptr to disable.
     */
    void expectNnzRecord(const std::vector<uint8_t> *record)
    {
        nnzRecord_ = record;
    }

    /**
     * Assert the stream was consumed exactly: for exactly-sized
     * streams, trailing unread bytes mean a truncated decode loop or a
     * header that under-reported its payload. DecodeError on leftovers.
     */
    void finish() const;

    const StreamStats &stats() const { return stats_; }
    size_t bytesRead() const { return dataPtr_ - dataBase_; }
    size_t hdrBytesRead() const { return hdrPtr_ - hdrBase_; }

  private:
    const uint8_t *dataBase_;
    const uint8_t *dataPtr_;
    size_t dataCap_;
    const uint8_t *hdrBase_ = nullptr;
    const uint8_t *hdrPtr_ = nullptr;
    size_t hdrCap_ = 0;
    ElemType etype_;
    StreamStats stats_;
    const std::vector<uint8_t> *nnzRecord_ = nullptr;
};

/**
 * Compress a whole fp32 buffer (n must be a multiple of 16) into dst
 * with interleaved headers. Returns the stream statistics. Bytes,
 * statistics and the overflow fatal() are those of a CompressedWriter
 * loop, which runs whenever simd::compressStream32 declines the
 * buffer.
 */
StreamStats compressBufferPs(const float *src, size_t n, uint8_t *dst,
                             size_t dst_capacity, Ccf ccf);

/**
 * Expand a whole interleaved-header fp32 stream of n elements
 * (multiple of 16) into dst. Returns the stream statistics. Output,
 * statistics and DecodeErrors are those of a CompressedReader loop,
 * which runs whenever a fault spec is armed or
 * simd::expandStream32 declines the stream.
 */
StreamStats expandBufferPs(const uint8_t *src, size_t src_capacity,
                           float *dst, size_t n);

/**
 * Walk an interleaved stream of num_vectors vectors and verify that it
 * stays within capacity; returns the total bytes it occupies or 0 if
 * it would overflow.
 */
size_t validateStream(const uint8_t *data, size_t capacity,
                      size_t num_vectors, ElemType t);

} // namespace zcomp

#endif // ZCOMP_ZCOMP_STREAM_HH
