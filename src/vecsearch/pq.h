/**
 * @file
 * Product quantization (Jegou et al., TPAMI 2011): vectors are split into
 * M sub-vectors, each encoded as the id of its nearest codeword from a
 * per-subspace codebook of size 2^nbits. Asymmetric distance computation
 * (ADC) precomputes a query-to-codeword lookup table (LUT) so scanning a
 * code costs M table lookups — the stage the paper identifies as the
 * retrieval bottleneck (Fig. 3 right).
 */

#ifndef VLR_VECSEARCH_PQ_H
#define VLR_VECSEARCH_PQ_H

#include <cstdint>
#include <span>
#include <vector>

#include "vecsearch/kmeans.h"
#include "vecsearch/metric.h"

namespace vlr::vs
{

/**
 * Product quantizer with M sub-quantizers of 2^nbits codewords each.
 * Codes are stored one byte per sub-quantizer (values < 2^nbits);
 * the fast-scan path repacks 4-bit codes into its own blocked layout.
 */
class ProductQuantizer
{
  public:
    /**
     * @param dim full vector dimensionality; must be divisible by m.
     * @param m number of sub-quantizers.
     * @param nbits bits per code, 4 or 8.
     */
    ProductQuantizer(std::size_t dim, std::size_t m, std::size_t nbits);

    /** Train all codebooks on n vectors. */
    void train(std::span<const float> data, std::size_t n,
               const KMeansParams &base_params = {});

    /**
     * Construct a trained quantizer from previously learned codebooks
     * (deserialization path). @pre codebooks.size() == m * 2^nbits *
     * (dim / m).
     */
    static ProductQuantizer fromCodebooks(std::size_t dim, std::size_t m,
                                          std::size_t nbits,
                                          std::vector<float> codebooks);

    bool isTrained() const { return trained_; }

    /** Encode one vector into m code bytes. */
    void encode(const float *vec, std::uint8_t *code) const;

    /** Encode n vectors into n*m code bytes. */
    std::vector<std::uint8_t> encodeBatch(std::span<const float> data,
                                          std::size_t n) const;

    /** Reconstruct (decode) a vector from its code. */
    void decode(const std::uint8_t *code, float *vec) const;

    /**
     * Build the ADC lookup table for a query: lut[sub*ksub + j] is the
     * squared L2 distance between query sub-vector `sub` and codeword j.
     */
    void computeLut(const float *query, float *lut) const;

    /** ADC distance of one code given a precomputed LUT. */
    float adcDistance(const float *lut, const std::uint8_t *code) const;

    /** Mean squared reconstruction error over n vectors. */
    double reconstructionError(std::span<const float> data,
                               std::size_t n) const;

    std::size_t dim() const { return dim_; }
    std::size_t numSub() const { return m_; }
    std::size_t nbits() const { return nbits_; }
    std::size_t ksub() const { return ksub_; }
    std::size_t dsub() const { return dsub_; }
    /** Bytes per stored (unpacked) code. */
    std::size_t codeSize() const { return m_; }
    std::size_t lutSize() const { return m_ * ksub_; }

    /** Codebook of sub-quantizer `sub`: ksub * dsub floats. */
    std::span<const float> codebook(std::size_t sub) const;

  private:
    /** Rebuild subTables_ from codebooks_. */
    void buildSubTables();

    std::size_t dim_;
    std::size_t m_;
    std::size_t nbits_;
    std::size_t ksub_;
    std::size_t dsub_;
    bool trained_ = false;
    /** m * ksub * dsub floats. */
    std::vector<float> codebooks_;
    /** Each subspace's codebook laid out for distancesToRows. */
    std::vector<RowTable> subTables_;
};

} // namespace vlr::vs

#endif // VLR_VECSEARCH_PQ_H
