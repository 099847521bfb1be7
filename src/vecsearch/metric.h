/**
 * @file
 * Distance kernels for similarity search (L2 squared and inner product)
 * with AVX2 implementations and scalar fallbacks.
 *
 * Convention: all search code minimizes a "distance". For inner-product
 * metrics the comparable distance is the negated dot product so a single
 * smaller-is-better code path serves both metrics.
 */

#ifndef VLR_VECSEARCH_METRIC_H
#define VLR_VECSEARCH_METRIC_H

#include <cstddef>
#include <string_view>
#include <vector>

namespace vlr::vs
{

/** Supported similarity metrics. */
enum class Metric { L2, InnerProduct };

/** Squared Euclidean distance between d-dim float vectors. */
float l2Sqr(const float *a, const float *b, std::size_t d);

/** Dot product between d-dim float vectors. */
float innerProduct(const float *a, const float *b, std::size_t d);

/** Smaller-is-better distance under the given metric. */
float comparableDistance(Metric m, const float *a, const float *b,
                         std::size_t d);

/** Scalar reference implementations (exposed for kernel tests). */
float l2SqrScalar(const float *a, const float *b, std::size_t d);
float innerProductScalar(const float *a, const float *b, std::size_t d);

/**
 * Distances from one query to n contiguous database vectors;
 * out[i] = comparableDistance(q, base + i*d).
 */
void distancesToMany(Metric m, const float *q, const float *base,
                     std::size_t n, std::size_t d, float *out);

/**
 * A table of k rows of d floats laid out for distancesToRows: rows are
 * grouped in blocks of kBlock, and each block is stored
 * dimension-major, d groups of kBlock floats with group j holding
 * dimension j of the block's rows. The last block is padded with zero
 * rows. Coarse centroids and each PQ subspace's codewords are kept in
 * this form next to their row-major copy.
 */
class RowTable
{
  public:
    /** Rows per block: one AVX2 register of floats. */
    static constexpr std::size_t kBlock = 8;

    RowTable() = default;

    /** Copy @p k row-major rows of @p d floats. */
    RowTable(const float *rows, std::size_t k, std::size_t d);

    std::size_t rows() const { return rows_; }
    std::size_t dim() const { return dim_; }

    /** Block b's d * kBlock floats, dimension-major. */
    const float *
    block(std::size_t b) const
    {
        return data_.data() + b * dim_ * kBlock;
    }

  private:
    std::size_t rows_ = 0;
    std::size_t dim_ = 0;
    std::vector<float> data_;
};

/**
 * The row kernel: out[r] = comparableDistance(m, x, row r) for every
 * row of @p table, computed kBlock rows at a time with SIMD across
 * rows. Each row is summed in exactly the order l2Sqr and innerProduct
 * use in the same build, so every distance is bit-identical to the
 * per-pair call: in the AVX2 build eight strided partial sums, the
 * hsum256 tree, then the fused scalar tail; in the scalar build one
 * sequential sum. @p out holds table.rows() floats.
 */
void distancesToRows(Metric m, const float *x, const RowTable &table,
                     float *out);

/**
 * Index of the first of the @p n distances that is smallest under `<`,
 * or 0 when none is below the largest finite float: the choice every
 * nearest-codeword and nearest-centroid assignment makes.
 */
std::size_t nearestRow(const float *dists, std::size_t n);

/**
 * Throw std::invalid_argument when a component of the @p n queries of
 * @p d floats at @p queries is NaN or infinite. The message names
 * @p who, the query and its first bad component ("who: query 2
 * component 5 is not finite (nan)"). Such a component yields NaN
 * distances, which break the total (dist, id) order that top-k
 * selection relies on. Batch searches call it before forking pool
 * tasks: an exception thrown inside a task ends the process.
 */
void requireFiniteQueries(std::string_view who, const float *queries,
                          std::size_t n, std::size_t d);

} // namespace vlr::vs

#endif // VLR_VECSEARCH_METRIC_H
