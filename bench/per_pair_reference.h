/**
 * @file
 * The per-pair distance loops that coarse probing, ADC LUT build, PQ
 * encoding and k-means ran before the row kernel
 * (vs::distancesToRows): one l2Sqr or comparableDistance call per
 * (vector, row) pair, and k-means training built on that assignment.
 * Nothing in src/ uses them. They are the reference that the parity
 * tests (tests/test_row_kernel.cc) compare the kernel's callers with
 * bit for bit, and the baseline of bench/micro_kernels.
 */

#ifndef VLR_BENCH_PER_PAIR_REFERENCE_H
#define VLR_BENCH_PER_PAIR_REFERENCE_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "common/rng.h"
#include "vecsearch/ivf.h"
#include "vecsearch/kmeans.h"
#include "vecsearch/metric.h"
#include "vecsearch/pq.h"
#include "vecsearch/topk.h"

namespace vlr::ref
{

/** FlatCoarseQuantizer::probe as a per-centroid loop. */
inline vs::ProbeList
probe(vs::Metric metric, const float *centroids, std::size_t nlist,
      std::size_t d, const float *query, std::size_t nprobe)
{
    nprobe = std::min(nprobe, nlist);
    vs::TopK topk(nprobe);
    for (std::size_t c = 0; c < nlist; ++c) {
        const float dist =
            vs::comparableDistance(metric, query, centroids + c * d, d);
        topk.push(static_cast<idx_t>(c), dist);
    }
    vs::ProbeList out;
    for (const auto &h : topk.sortedHits()) {
        out.clusters.push_back(static_cast<cluster_id_t>(h.id));
        out.dists.push_back(h.dist);
    }
    return out;
}

/** ProductQuantizer::computeLut as a per-codeword loop. */
inline void
computeLut(const vs::ProductQuantizer &pq, const float *query, float *lut)
{
    const std::size_t ksub = pq.ksub(), dsub = pq.dsub();
    for (std::size_t s = 0; s < pq.numSub(); ++s) {
        const float *cb = pq.codebook(s).data();
        for (std::size_t j = 0; j < ksub; ++j)
            lut[s * ksub + j] =
                vs::l2Sqr(query + s * dsub, cb + j * dsub, dsub);
    }
}

/** ProductQuantizer::encode as a per-codeword loop. */
inline void
encode(const vs::ProductQuantizer &pq, const float *vec, std::uint8_t *code)
{
    const std::size_t ksub = pq.ksub(), dsub = pq.dsub();
    for (std::size_t s = 0; s < pq.numSub(); ++s) {
        const float *x = vec + s * dsub;
        const float *cb = pq.codebook(s).data();
        float best = std::numeric_limits<float>::max();
        std::size_t best_j = 0;
        for (std::size_t j = 0; j < ksub; ++j) {
            const float dist = vs::l2Sqr(x, cb + j * dsub, dsub);
            if (dist < best) {
                best = dist;
                best_j = j;
            }
        }
        code[s] = static_cast<std::uint8_t>(best_j);
    }
}

/** vs::kmeansAssign as a per-centroid loop. */
inline std::vector<std::int32_t>
kmeansAssign(const float *data, std::size_t n, std::size_t d,
             const float *centroids, std::size_t k)
{
    std::vector<std::int32_t> assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const float *x = data + i * d;
        float best = std::numeric_limits<float>::max();
        std::int32_t best_c = 0;
        for (std::size_t c = 0; c < k; ++c) {
            const float dist = vs::l2Sqr(x, centroids + c * d, d);
            if (dist < best) {
                best = dist;
                best_c = static_cast<std::int32_t>(c);
            }
        }
        assign[i] = best_c;
    }
    return assign;
}

/** vs::kmeansTrain's k-means++ seeding. */
inline std::vector<float>
seedPlusPlus(const float *data, std::size_t n, std::size_t d, std::size_t k,
             Rng &rng)
{
    std::vector<float> centroids(k * d);
    std::vector<double> min_dist(n, std::numeric_limits<double>::max());
    const std::size_t first = rng.uniformU64(n);
    std::copy_n(data + first * d, d, centroids.begin());
    for (std::size_t c = 1; c < k; ++c) {
        const float *prev = centroids.data() + (c - 1) * d;
        double total = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double dist = vs::l2Sqr(data + i * d, prev, d);
            min_dist[i] = std::min(min_dist[i], dist);
            total += min_dist[i];
        }
        std::size_t chosen = 0;
        if (total > 0.0) {
            double target = rng.uniform() * total;
            for (std::size_t i = 0; i < n; ++i) {
                target -= min_dist[i];
                if (target <= 0.0) {
                    chosen = i;
                    break;
                }
            }
        } else {
            chosen = rng.uniformU64(n);
        }
        std::copy_n(data + chosen * d, d, centroids.begin() + c * d);
    }
    return centroids;
}

/** vs::kmeansTrain over the per-centroid assignment loop. */
inline vs::KMeansResult
kmeansTrain(std::span<const float> data, std::size_t n, std::size_t d,
            const vs::KMeansParams &params)
{
    const std::size_t k = params.k;
    Rng rng(params.seed);
    const float *train_data = data.data();
    std::size_t train_n = n;
    std::vector<float> sampled;
    if (params.maxPointsPerCentroid > 0) {
        const std::size_t cap = params.maxPointsPerCentroid * k;
        if (n > cap) {
            std::vector<std::size_t> perm(n);
            std::iota(perm.begin(), perm.end(), 0);
            rng.shuffle(perm);
            sampled.resize(cap * d);
            for (std::size_t i = 0; i < cap; ++i)
                std::copy_n(data.data() + perm[i] * d, d,
                            sampled.begin() + i * d);
            train_data = sampled.data();
            train_n = cap;
        }
    }

    vs::KMeansResult res;
    res.centroids = ref::seedPlusPlus(train_data, train_n, d, k, rng);
    std::vector<double> sums(k * d);
    std::vector<std::size_t> counts(k);
    double prev_obj = std::numeric_limits<double>::max();
    for (int iter = 0; iter < params.maxIters; ++iter) {
        const auto assign =
            ref::kmeansAssign(train_data, train_n, d, res.centroids.data(), k);
        std::fill(sums.begin(), sums.end(), 0.0);
        std::fill(counts.begin(), counts.end(), 0);
        double obj = 0.0;
        for (std::size_t i = 0; i < train_n; ++i) {
            const auto c = static_cast<std::size_t>(assign[i]);
            const float *x = train_data + i * d;
            obj += vs::l2Sqr(x, res.centroids.data() + c * d, d);
            ++counts[c];
            for (std::size_t j = 0; j < d; ++j)
                sums[c * d + j] += x[j];
        }
        obj /= static_cast<double>(train_n);
        res.objective = obj;
        res.iterations = iter + 1;
        for (std::size_t c = 0; c < k; ++c) {
            if (counts[c] == 0)
                continue;
            const double inv = 1.0 / static_cast<double>(counts[c]);
            for (std::size_t j = 0; j < d; ++j)
                res.centroids[c * d + j] =
                    static_cast<float>(sums[c * d + j] * inv);
        }
        for (std::size_t c = 0; c < k; ++c) {
            if (counts[c] > 0)
                continue;
            const std::size_t big = static_cast<std::size_t>(
                std::max_element(counts.begin(), counts.end()) -
                counts.begin());
            for (std::size_t j = 0; j < d; ++j) {
                const float v = res.centroids[big * d + j];
                const float eps = static_cast<float>(
                    rng.gaussian(0.0, 1e-3 * (std::fabs(v) + 1e-3)));
                res.centroids[c * d + j] = v + eps;
                res.centroids[big * d + j] = v - eps;
            }
            counts[c] = counts[big] / 2;
            counts[big] -= counts[c];
        }
        if (prev_obj < std::numeric_limits<double>::max()) {
            const double rel = (prev_obj - obj) / std::max(prev_obj, 1e-30);
            if (rel >= 0.0 && rel < params.tol)
                break;
        }
        prev_obj = obj;
    }
    return res;
}

/** ProductQuantizer::train's codebooks (m * ksub * dsub floats). */
inline std::vector<float>
trainPqCodebooks(std::span<const float> data, std::size_t n,
                 std::size_t dim, std::size_t m, std::size_t nbits,
                 const vs::KMeansParams &base_params = {})
{
    const std::size_t ksub = std::size_t{1} << nbits, dsub = dim / m;
    std::vector<float> codebooks(m * ksub * dsub);
    std::vector<float> sub(n * dsub);
    for (std::size_t s = 0; s < m; ++s) {
        for (std::size_t i = 0; i < n; ++i)
            std::copy_n(data.data() + i * dim + s * dsub, dsub,
                        sub.begin() + i * dsub);
        vs::KMeansParams params = base_params;
        params.k = ksub;
        params.seed = base_params.seed + s * 7919;
        const auto res = ref::kmeansTrain(sub, n, dsub, params);
        std::copy(res.centroids.begin(), res.centroids.end(),
                  codebooks.begin() + s * ksub * dsub);
    }
    return codebooks;
}

} // namespace vlr::ref

#endif // VLR_BENCH_PER_PAIR_REFERENCE_H
