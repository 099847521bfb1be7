/**
 * @file
 * PQ4 fast-scan kernels (Andre et al., VLDB 2016): 4-bit PQ codes are
 * packed into register-friendly blocks of 32 vectors and the ADC lookup
 * table is quantized to uint8 so 32 table lookups run as one AVX2
 * byte-shuffle. This is the "IVF-FS" configuration the paper adopts for
 * its CPU tier (Section II-B, Fig. 3).
 *
 * Layout: for each block of 32 codes and each sub-quantizer m, 16 bytes
 * are stored; byte j holds the 4-bit code of vector j in its low nibble
 * and of vector j+16 in its high nibble.
 */

#ifndef VLR_VECSEARCH_FASTSCAN_H
#define VLR_VECSEARCH_FASTSCAN_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "vecsearch/topk.h"

namespace vlr::vs
{

/** Number of codes per packed block. */
inline constexpr std::size_t kFastScanBlock = 32;

/** uint8-quantized ADC lookup table with the affine mapping back. */
struct QuantizedLut
{
    /** m * 16 quantized entries. */
    std::vector<std::uint8_t> table;
    /** Reconstruction: distance ~= bias + step * accumulated_score. */
    float bias = 0.f;
    float step = 1.f;
};

/**
 * Distance an accumulated score maps back to. Every scan computes its
 * distances through this one expression, so the score threshold of
 * scanPackedList and the distances it pushes agree bit for bit.
 */
inline float
scoreToDistance(const QuantizedLut &lut, std::uint16_t score)
{
    return lut.bias + lut.step * static_cast<float>(score);
}

/**
 * A query ready for fast scanning: the query itself plus its quantized
 * LUT. Built once per query and shared by every list, shard and cold
 * scan of that query.
 */
struct PreparedQuery
{
    const float *query = nullptr;
    QuantizedLut lut;
};

/**
 * One packed inverted list as the scan loop reads it: @p count ids in
 * scan order and their codes in whole fast-scan blocks (in an index's
 * heap, an mmap()ed artifact or an in-RAM delta list alike).
 */
struct PackedList
{
    const idx_t *ids = nullptr;
    std::size_t count = 0;
    const std::uint8_t *packed = nullptr;
};

/** Bytes of one packed block for m sub-quantizers. */
std::size_t packedBlockBytes(std::size_t m);

/**
 * Pack n 4-bit codes (one byte per sub-quantizer, values < 16) into the
 * blocked layout. Output is padded to a whole number of blocks; padding
 * lanes carry code 0 and must be masked by the caller via ids.
 */
std::vector<std::uint8_t> packPq4Codes(std::size_t m,
                                       std::span<const std::uint8_t> codes,
                                       std::size_t n);

/**
 * Append n_new codes to an already-packed list of n_old codes in place:
 * the tail block's free lanes are filled and whole new blocks are
 * grown, without unpacking the existing codes. @p packed must hold
 * exactly the blocks of n_old codes (padding lanes zero, as
 * packPq4Codes leaves them) and afterwards is byte-for-byte identical
 * to packPq4Codes over the concatenated code sequence — the O(n_new)
 * ingestion primitive behind addPreassigned and the storage layer's
 * delta lists.
 */
void appendPq4Codes(std::size_t m, std::vector<std::uint8_t> &packed,
                    std::size_t n_old,
                    std::span<const std::uint8_t> codes,
                    std::size_t n_new);

/**
 * Quantize a float LUT (m rows of 16) to uint8 with a shared step so
 * accumulated uint16 scores map back to distances affinely.
 */
QuantizedLut quantizeLut(std::size_t m, std::span<const float> lut);

/**
 * Scan packed blocks, producing one uint16 score per code lane.
 * @param out must hold nblocks * 32 entries.
 */
void scanPq4Blocks(std::size_t m, const std::uint8_t *packed,
                   std::size_t nblocks, const QuantizedLut &lut,
                   std::uint16_t *out);

/** Scalar reference producing bit-identical scores to the SIMD path. */
void scanPq4BlocksScalar(std::size_t m, const std::uint8_t *packed,
                         std::size_t nblocks, const QuantizedLut &lut,
                         std::uint16_t *out);

/**
 * Largest score whose distance (scoreToDistance) is <= @p worst, or -1
 * when not even score 0 reaches it. Requires a finite bias and a
 * finite step >= 0, under which the distance never decreases with the
 * score, so the scores that reach @p worst are exactly [0, result].
 */
int scoreThreshold(const QuantizedLut &lut, float worst);

/**
 * The fast-scan loop every index and backend shares: score all codes of
 * @p list with scanPq4Blocks, then push into @p topk only the lanes
 * whose score is at most the integer form of topk.worst()
 * (scoreThreshold), compared 32 lanes at a time. A dropped lane has a
 * distance above worst(), which TopK::push would reject, so the kept
 * hits — tie-breaks included — equal pushing every lane.
 * @param scores scratch buffer, grown as needed.
 */
void scanPackedList(std::size_t m, const QuantizedLut &lut,
                    const PackedList &list,
                    std::vector<std::uint16_t> &scores, TopK &topk);

/** True when the AVX2 kernel is compiled in. */
bool fastScanHasSimd();

} // namespace vlr::vs

#endif // VLR_VECSEARCH_FASTSCAN_H
