#include "vecsearch/metric.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#ifdef VLR_USE_AVX2
#include <immintrin.h>
#endif

namespace vlr::vs
{

float
l2SqrScalar(const float *a, const float *b, std::size_t d)
{
    float acc = 0.f;
    for (std::size_t i = 0; i < d; ++i) {
        const float diff = a[i] - b[i];
        acc += diff * diff;
    }
    return acc;
}

float
innerProductScalar(const float *a, const float *b, std::size_t d)
{
    float acc = 0.f;
    for (std::size_t i = 0; i < d; ++i)
        acc += a[i] * b[i];
    return acc;
}

#ifdef VLR_USE_AVX2

namespace
{

float
hsum256(__m256 v)
{
    __m128 lo = _mm256_castps256_ps128(v);
    __m128 hi = _mm256_extractf128_ps(v, 1);
    lo = _mm_add_ps(lo, hi);
    __m128 sh = _mm_movehdup_ps(lo);
    __m128 sums = _mm_add_ps(lo, sh);
    sh = _mm_movehl_ps(sh, sums);
    sums = _mm_add_ss(sums, sh);
    return _mm_cvtss_f32(sums);
}

} // namespace

float
l2Sqr(const float *a, const float *b, std::size_t d)
{
    __m256 acc = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= d; i += 8) {
        const __m256 va = _mm256_loadu_ps(a + i);
        const __m256 vb = _mm256_loadu_ps(b + i);
        const __m256 diff = _mm256_sub_ps(va, vb);
        acc = _mm256_fmadd_ps(diff, diff, acc);
    }
    // The tail is fused explicitly, so distancesToRows can repeat it
    // bit for bit whatever the compiler would contract on its own.
    float total = hsum256(acc);
    for (; i < d; ++i) {
        const float diff = a[i] - b[i];
        total = std::fma(diff, diff, total);
    }
    return total;
}

float
innerProduct(const float *a, const float *b, std::size_t d)
{
    __m256 acc = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= d; i += 8) {
        const __m256 va = _mm256_loadu_ps(a + i);
        const __m256 vb = _mm256_loadu_ps(b + i);
        acc = _mm256_fmadd_ps(va, vb, acc);
    }
    float total = hsum256(acc);
    for (; i < d; ++i)
        total = std::fma(a[i], b[i], total);
    return total;
}

namespace
{

/** One dimension of one row block: acc += (x - t)^2 or x * t. */
template <Metric M>
__m256
rowStep(float x, const float *t, __m256 acc)
{
    const __m256 vx = _mm256_set1_ps(x);
    const __m256 vt = _mm256_loadu_ps(t);
    if constexpr (M == Metric::L2) {
        const __m256 diff = _mm256_sub_ps(vx, vt);
        return _mm256_fmadd_ps(diff, diff, acc);
    } else {
        return _mm256_fmadd_ps(vx, vt, acc);
    }
}

/**
 * Distances of x to the kBlock rows of one block. Register l holds
 * lane l of every row's accumulator in l2Sqr/innerProduct, and the
 * adds after the loop are hsum256's tree done across rows.
 */
template <Metric M>
__m256
rowBlock(const float *x, const float *blk, std::size_t d)
{
    constexpr std::size_t B = RowTable::kBlock;
    const std::size_t main = d - d % 8;
    __m256 total = _mm256_setzero_ps();
    if (main > 0) {
        __m256 acc[8];
        for (auto &a : acc)
            a = _mm256_setzero_ps();
        for (std::size_t i = 0; i < main; i += 8)
            for (std::size_t l = 0; l < 8; ++l)
                acc[l] = rowStep<M>(x[i + l], blk + (i + l) * B, acc[l]);
        total = _mm256_add_ps(
            _mm256_add_ps(_mm256_add_ps(acc[0], acc[4]),
                          _mm256_add_ps(acc[1], acc[5])),
            _mm256_add_ps(_mm256_add_ps(acc[2], acc[6]),
                          _mm256_add_ps(acc[3], acc[7])));
    }
    for (std::size_t j = main; j < d; ++j)
        total = rowStep<M>(x[j], blk + j * B, total);
    if constexpr (M == Metric::InnerProduct)
        total = _mm256_xor_ps(total, _mm256_set1_ps(-0.f));
    return total;
}

template <Metric M>
void
rowDistances(const float *x, const RowTable &table, float *out)
{
    constexpr std::size_t B = RowTable::kBlock;
    const std::size_t k = table.rows();
    for (std::size_t r = 0; r < k; r += B) {
        const __m256 dist = rowBlock<M>(x, table.block(r / B), table.dim());
        if (r + B <= k) {
            _mm256_storeu_ps(out + r, dist);
        } else {
            alignas(32) float tail[B] = {};
            _mm256_store_ps(tail, dist);
            std::copy_n(tail, k - r, out + r);
        }
    }
}

} // namespace

#else

float
l2Sqr(const float *a, const float *b, std::size_t d)
{
    return l2SqrScalar(a, b, d);
}

float
innerProduct(const float *a, const float *b, std::size_t d)
{
    return innerProductScalar(a, b, d);
}

namespace
{

/** Distances of x to the kBlock rows of one block, each row summed
 *  sequentially as l2SqrScalar/innerProductScalar do. */
template <Metric M>
void
rowBlock(const float *x, const float *blk, std::size_t d, float *acc)
{
    constexpr std::size_t B = RowTable::kBlock;
    std::fill_n(acc, B, 0.f);
    for (std::size_t j = 0; j < d; ++j) {
        const float *t = blk + j * B;
        for (std::size_t l = 0; l < B; ++l) {
            if constexpr (M == Metric::L2) {
                const float diff = x[j] - t[l];
                acc[l] += diff * diff;
            } else {
                acc[l] += x[j] * t[l];
            }
        }
    }
    if constexpr (M == Metric::InnerProduct)
        for (std::size_t l = 0; l < B; ++l)
            acc[l] = -acc[l];
}

template <Metric M>
void
rowDistances(const float *x, const RowTable &table, float *out)
{
    constexpr std::size_t B = RowTable::kBlock;
    const std::size_t k = table.rows();
    float dist[B] = {};
    for (std::size_t r = 0; r < k; r += B) {
        rowBlock<M>(x, table.block(r / B), table.dim(), dist);
        std::copy_n(dist, std::min(B, k - r), out + r);
    }
}

} // namespace

#endif // VLR_USE_AVX2

RowTable::RowTable(const float *rows, std::size_t k, std::size_t d)
    : rows_(k), dim_(d),
      data_((k + kBlock - 1) / kBlock * kBlock * d, 0.f)
{
    for (std::size_t r = 0; r < k; ++r)
        for (std::size_t j = 0; j < d; ++j)
            data_[(r / kBlock * d + j) * kBlock + r % kBlock] =
                rows[r * d + j];
}

void
distancesToRows(Metric m, const float *x, const RowTable &table,
                float *out)
{
    if (m == Metric::L2)
        rowDistances<Metric::L2>(x, table, out);
    else
        rowDistances<Metric::InnerProduct>(x, table, out);
}

std::size_t
nearestRow(const float *dists, std::size_t n)
{
    float best = std::numeric_limits<float>::max();
#ifdef VLR_USE_AVX2
    // The smallest value below FLT_MAX, then the first row equal to it:
    // the row the sequential `<` scan of the scalar build ends on.
    // min_ps keeps its second operand when the first is NaN, so NaNs
    // drop out as they do there. The equality scan ORs up to 64 rows
    // of compare masks before it branches, as the position of the
    // minimum is unpredictable.
    const std::size_t n8 = n - n % 8;
    std::size_t r = 0;
    if (n8 > 0) {
        __m256 vmin = _mm256_set1_ps(best);
        for (; r < n8; r += 8)
            vmin = _mm256_min_ps(_mm256_loadu_ps(dists + r), vmin);
        __m128 m4 = _mm_min_ps(_mm256_castps256_ps128(vmin),
                               _mm256_extractf128_ps(vmin, 1));
        m4 = _mm_min_ps(m4, _mm_movehl_ps(m4, m4));
        m4 = _mm_min_ss(m4, _mm_movehdup_ps(m4));
        best = _mm_cvtss_f32(m4);
    }
    for (; r < n; ++r)
        best = dists[r] < best ? dists[r] : best;
    if (!(best < std::numeric_limits<float>::max()))
        return 0;
    const __m256 vbest = _mm256_set1_ps(best);
    for (r = 0; r < n8; r += 64) {
        std::uint64_t mask = 0;
        for (std::size_t b = r; b < n8 && b < r + 64; b += 8) {
            const int m = _mm256_movemask_ps(_mm256_cmp_ps(
                _mm256_loadu_ps(dists + b), vbest, _CMP_EQ_OQ));
            mask |= static_cast<std::uint64_t>(m) << (b - r);
        }
        if (mask != 0)
            return r + static_cast<std::size_t>(__builtin_ctzll(mask));
    }
    for (r = n8; !(dists[r] == best); ++r) {
    }
    return r;
#else
    std::size_t best_r = 0;
    for (std::size_t r = 0; r < n; ++r) {
        if (dists[r] < best) {
            best = dists[r];
            best_r = r;
        }
    }
    return best_r;
#endif
}

void
requireFiniteQueries(std::string_view who, const float *queries,
                     std::size_t n, std::size_t d)
{
    for (std::size_t q = 0; q < n; ++q) {
        for (std::size_t i = 0; i < d; ++i) {
            const float v = queries[q * d + i];
            if (!std::isfinite(v))
                throw std::invalid_argument(
                    std::string(who) + ": query " + std::to_string(q) +
                    " component " + std::to_string(i) +
                    " is not finite (" + std::to_string(v) + ")");
        }
    }
}

float
comparableDistance(Metric m, const float *a, const float *b, std::size_t d)
{
    if (m == Metric::L2)
        return l2Sqr(a, b, d);
    return -innerProduct(a, b, d);
}

void
distancesToMany(Metric m, const float *q, const float *base, std::size_t n,
                std::size_t d, float *out)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = comparableDistance(m, q, base + i * d, d);
}

} // namespace vlr::vs
