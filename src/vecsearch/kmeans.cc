#include "vecsearch/kmeans.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/log.h"
#include "common/threadpool.h"
#include "vecsearch/metric.h"

namespace vlr::vs
{

namespace
{

/** k-means++ seeding over the (possibly subsampled) training set. */
std::vector<float>
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
            const double dist = l2Sqr(data + i * d, prev, d);
            min_dist[i] = std::min(min_dist[i], dist);
            total += min_dist[i];
        }
        // Sample proportional to squared distance; degenerate case
        // (all points identical) falls back to uniform choice.
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

} // namespace

std::vector<std::int32_t>
kmeansAssign(std::span<const float> data, std::size_t n, std::size_t d,
             std::span<const float> centroids, std::size_t k,
             ThreadPool *pool)
{
    assert(data.size() >= n * d);
    assert(centroids.size() >= k * d);
    std::vector<std::int32_t> assign(n, 0);

    const RowTable table(centroids.data(), k, d);
    auto worker = [&](std::size_t b, std::size_t e) {
        std::vector<float> dists(k);
        for (std::size_t i = b; i < e; ++i) {
            distancesToRows(Metric::L2, data.data() + i * d, table,
                            dists.data());
            assign[i] = static_cast<std::int32_t>(nearestRow(dists.data(), k));
        }
    };
    if (pool)
        pool->parallelChunks(n, worker);
    else
        worker(0, n);
    return assign;
}

KMeansResult
kmeansTrain(std::span<const float> data, std::size_t n, std::size_t d,
            const KMeansParams &params, ThreadPool *pool)
{
    assert(data.size() >= n * d);
    const std::size_t k = params.k;
    if (n < k)
        fatal("kmeansTrain: fewer points than centroids");

    Rng rng(params.seed);

    // Subsample training points, Faiss-style, to bound training cost.
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
            for (std::size_t i = 0; i < cap; ++i) {
                std::copy_n(data.data() + perm[i] * d, d,
                            sampled.begin() + i * d);
            }
            train_data = sampled.data();
            train_n = cap;
        }
    }

    KMeansResult res;
    res.centroids = seedPlusPlus(train_data, train_n, d, k, rng);

    std::vector<std::int32_t> assign(train_n);
    std::vector<double> sums(k * d);
    std::vector<std::size_t> counts(k);
    double prev_obj = std::numeric_limits<double>::max();

    for (int iter = 0; iter < params.maxIters; ++iter) {
        // Assignment step.
        assign = kmeansAssign({train_data, train_n * d}, train_n, d,
                              res.centroids, k, pool);

        // Update step with objective tracking.
        std::fill(sums.begin(), sums.end(), 0.0);
        std::fill(counts.begin(), counts.end(), 0);
        double obj = 0.0;
        for (std::size_t i = 0; i < train_n; ++i) {
            const auto c = static_cast<std::size_t>(assign[i]);
            const float *x = train_data + i * d;
            obj += l2Sqr(x, res.centroids.data() + c * d, d);
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
            for (std::size_t j = 0; j < d; ++j) {
                res.centroids[c * d + j] =
                    static_cast<float>(sums[c * d + j] * inv);
            }
        }

        // Repair empty clusters: split the most populated one with a
        // small perturbation, as Faiss does.
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
            const double rel =
                (prev_obj - obj) / std::max(prev_obj, 1e-30);
            if (rel >= 0.0 && rel < params.tol)
                break;
        }
        prev_obj = obj;
    }
    return res;
}

} // namespace vlr::vs
