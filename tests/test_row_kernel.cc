/**
 * @file
 * Parity of the row kernel (vs::distancesToRows) and of every loop it
 * replaced — coarse probing, float and quantized LUT build, PQ
 * encoding, PQ training and k-means — against the per-pair reference
 * loops in bench/per_pair_reference.h. Every comparison is bitwise:
 * the kernel promises the exact summation order of l2Sqr and
 * innerProduct in each build (AVX2 and scalar), not a tolerance.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "bench/per_pair_reference.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "vecsearch/fastscan.h"
#include "vecsearch/ivf.h"
#include "vecsearch/kmeans.h"
#include "vecsearch/metric.h"
#include "vecsearch/pq.h"

namespace vlr::vs
{
namespace
{

const std::size_t kDims[] = {1, 2, 3, 7, 8, 9, 16, 63, 64, 65};
const std::size_t kRows[] = {1, 15, 16, 17, 256};

/** Gaussian values with a per-vector scale from 1e-2 to 1e2, so sums
 *  of very different magnitudes meet in one accumulator. */
std::vector<float>
randomRows(Rng &rng, std::size_t n, std::size_t d)
{
    std::vector<float> v(n * d);
    for (std::size_t i = 0; i < n; ++i) {
        const double scale = std::pow(10.0, rng.uniform(-2.0, 2.0));
        for (std::size_t j = 0; j < d; ++j)
            v[i * d + j] = static_cast<float>(rng.gaussian(0.0, scale));
    }
    return v;
}

/** Overwrite every third row with a copy of an earlier one, so exact
 *  distance ties occur. */
void
duplicateRows(Rng &rng, std::vector<float> &rows, std::size_t n,
              std::size_t d)
{
    for (std::size_t r = 2; r < n; r += 3) {
        const std::size_t src = rng.uniformU64(r);
        std::copy_n(rows.begin() + src * d, d, rows.begin() + r * d);
    }
}

template <typename T>
void
expectBitEqual(std::span<const T> got, std::span<const T> want,
               const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        if constexpr (std::is_same_v<T, float>) {
            ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                      std::bit_cast<std::uint32_t>(want[i]))
                << what << " entry " << i << ": " << got[i] << " vs "
                << want[i];
        } else {
            ASSERT_EQ(got[i], want[i]) << what << " entry " << i;
        }
    }
}

std::string
label(std::size_t d, std::size_t k, Metric m = Metric::L2)
{
    return "d=" + std::to_string(d) + " k=" + std::to_string(k) +
           (m == Metric::L2 ? " L2" : " IP");
}

TEST(RowKernel, MatchesPerPairDistancesBitForBit)
{
    Rng rng(1);
    for (const Metric m : {Metric::L2, Metric::InnerProduct}) {
        for (const std::size_t d : kDims) {
            for (const std::size_t k : kRows) {
                const auto rows = randomRows(rng, k, d);
                const RowTable table(rows.data(), k, d);
                EXPECT_EQ(table.rows(), k);
                EXPECT_EQ(table.dim(), d);
                for (int q = 0; q < 3; ++q) {
                    const auto x = randomRows(rng, 1, d);
                    std::vector<float> got(k), want(k);
                    distancesToRows(m, x.data(), table, got.data());
                    for (std::size_t r = 0; r < k; ++r)
                        want[r] = comparableDistance(m, x.data(),
                                                     rows.data() + r * d, d);
                    expectBitEqual<float>(got, want, label(d, k, m));
                }
            }
        }
    }
}

TEST(RowKernel, OverflowToInfinityMatches)
{
    // Squares past FLT_MAX give +inf in both paths; ±inf products
    // meeting in an inner product give NaN in both.
    const std::size_t d = 9, k = 3;
    std::vector<float> rows(k * d, 1e30f);
    rows[d] = -1e30f;
    const RowTable table(rows.data(), k, d);
    std::vector<float> x(d, -1e30f);
    x[8] = 1e30f;
    for (const Metric m : {Metric::L2, Metric::InnerProduct}) {
        std::vector<float> got(k), want(k);
        distancesToRows(m, x.data(), table, got.data());
        for (std::size_t r = 0; r < k; ++r)
            want[r] =
                comparableDistance(m, x.data(), rows.data() + r * d, d);
        expectBitEqual<float>(got, want, label(d, k, m));
    }
}

TEST(RowKernel, NearestRowTakesFirstStrictMinimum)
{
    const float ties[] = {3.f, 1.f, 2.f, 1.f};
    EXPECT_EQ(nearestRow(ties, 4), 1u);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const float none[] = {nan, inf, nan};
    EXPECT_EQ(nearestRow(none, 3), 0u);
    const float late[] = {nan, inf, 5.f};
    EXPECT_EQ(nearestRow(late, 3), 2u);

    // Against the sequential scan, over lengths around the SIMD width
    // and past one 64-row mask, with NaNs, infinities, FLT_MAX, signed
    // zeros and repeated minima mixed in.
    const float specials[] = {nan, inf, -inf, std::numeric_limits<float>::max(),
                              0.f, -0.f, 1.f};
    Rng rng(7);
    for (std::size_t n = 1; n <= 80; ++n) {
        for (int trial = 0; trial < 40; ++trial) {
            std::vector<float> v(n);
            for (auto &x : v)
                x = rng.uniform() < 0.3
                        ? specials[rng.uniformU64(std::size(specials))]
                        : static_cast<float>(rng.uniformU64(8));
            float best = std::numeric_limits<float>::max();
            std::size_t want = 0;
            for (std::size_t r = 0; r < n; ++r) {
                if (v[r] < best) {
                    best = v[r];
                    want = r;
                }
            }
            ASSERT_EQ(nearestRow(v.data(), n), want) << "n=" << n;
        }
    }
}

TEST(RowKernel, ProbeMatchesPerCentroidLoopWithTies)
{
    Rng rng(2);
    for (const Metric m : {Metric::L2, Metric::InnerProduct}) {
        for (const std::size_t d : kDims) {
            for (const std::size_t nlist : kRows) {
                auto centroids = randomRows(rng, nlist, d);
                duplicateRows(rng, centroids, nlist, d);
                const FlatCoarseQuantizer cq(centroids, nlist, d, m);
                for (int q = 0; q < 4; ++q) {
                    // Query 0 sits on a duplicated centroid: an exact
                    // tie at the nearest distance.
                    auto x = randomRows(rng, 1, d);
                    if (q == 0)
                        std::copy_n(centroids.begin() + (nlist - 1) * d, d,
                                    x.begin());
                    for (const std::size_t nprobe :
                         {std::size_t{1}, std::size_t{2}, std::size_t{16},
                          nlist, nlist + 5}) {
                        const auto got = cq.probe(x.data(), nprobe);
                        const auto want = ref::probe(
                            m, centroids.data(), nlist, d, x.data(), nprobe);
                        const auto what = label(d, nlist, m) + " nprobe=" +
                                          std::to_string(nprobe);
                        expectBitEqual<cluster_id_t>(got.clusters,
                                                     want.clusters, what);
                        expectBitEqual<float>(got.dists, want.dists, what);
                    }
                }
            }
        }
    }
}

/** A trained PQ with random codebooks, every third codeword a copy of
 *  an earlier one of its subspace. */
ProductQuantizer
randomPq(Rng &rng, std::size_t dsub, std::size_t m, std::size_t nbits)
{
    const std::size_t ksub = std::size_t{1} << nbits;
    std::vector<float> codebooks;
    for (std::size_t s = 0; s < m; ++s) {
        auto cb = randomRows(rng, ksub, dsub);
        duplicateRows(rng, cb, ksub, dsub);
        codebooks.insert(codebooks.end(), cb.begin(), cb.end());
    }
    return ProductQuantizer::fromCodebooks(dsub * m, m, nbits,
                                           std::move(codebooks));
}

TEST(RowKernel, LutsAndCodesMatchPerCodewordLoops)
{
    Rng rng(3);
    const std::size_t m = 3;
    for (const std::size_t nbits : {std::size_t{4}, std::size_t{8}}) {
        for (const std::size_t dsub : kDims) {
            const auto pq = randomPq(rng, dsub, m, nbits);
            const std::size_t n = 40, dim = pq.dim();
            auto vecs = randomRows(rng, n, dim);
            // Vector 0 is codeword 0 of every subspace: a tie wherever
            // that codeword was duplicated.
            for (std::size_t s = 0; s < m; ++s)
                std::copy_n(pq.codebook(s).begin(), dsub,
                            vecs.begin() + s * dsub);
            const auto what =
                "dsub=" + std::to_string(dsub) + " nbits=" +
                std::to_string(nbits);

            std::vector<std::uint8_t> want_codes(n * m);
            for (std::size_t i = 0; i < n; ++i)
                ref::encode(pq, vecs.data() + i * dim,
                            want_codes.data() + i * m);
            expectBitEqual<std::uint8_t>(pq.encodeBatch(vecs, n),
                                         want_codes, what + " codes");

            std::vector<float> got(pq.lutSize()), want(pq.lutSize());
            for (std::size_t i = 0; i < n; ++i) {
                pq.computeLut(vecs.data() + i * dim, got.data());
                ref::computeLut(pq, vecs.data() + i * dim, want.data());
                expectBitEqual<float>(got, want, what + " lut");
                if (nbits != 4)
                    continue;
                const auto qgot = quantizeLut(m, got);
                const auto qwant = quantizeLut(m, want);
                expectBitEqual<std::uint8_t>(qgot.table, qwant.table,
                                             what + " quantized lut");
                EXPECT_EQ(std::bit_cast<std::uint32_t>(qgot.bias),
                          std::bit_cast<std::uint32_t>(qwant.bias));
                EXPECT_EQ(std::bit_cast<std::uint32_t>(qgot.step),
                          std::bit_cast<std::uint32_t>(qwant.step));
            }
        }
    }
}

TEST(RowKernel, PqTrainMatchesPerPairTraining)
{
    Rng rng(4);
    const std::size_t m = 2;
    for (const std::size_t nbits : {std::size_t{4}, std::size_t{8}}) {
        for (const std::size_t dsub : kDims) {
            // 8-bit training is 16x the work; its sweep stays short.
            if (nbits == 8 && dsub > 9)
                continue;
            const std::size_t n = nbits == 4 ? 1500 : 600;
            const auto data = randomRows(rng, n, dsub * m);
            KMeansParams params;
            params.seed = 99;
            ProductQuantizer pq(dsub * m, m, nbits);
            pq.train(data, n, params);
            std::vector<float> got;
            for (std::size_t s = 0; s < m; ++s)
                got.insert(got.end(), pq.codebook(s).begin(),
                           pq.codebook(s).end());
            expectBitEqual<float>(
                got,
                ref::trainPqCodebooks(data, n, dsub * m, m, nbits, params),
                "dsub=" + std::to_string(dsub) + " nbits=" +
                    std::to_string(nbits));
        }
    }
}

TEST(RowKernel, KmeansAssignMatchesPerCentroidLoop)
{
    Rng rng(5);
    ThreadPool pool(3);
    for (const std::size_t d : kDims) {
        for (const std::size_t k : kRows) {
            const std::size_t n = 200;
            auto centroids = randomRows(rng, k, d);
            duplicateRows(rng, centroids, k, d);
            auto data = randomRows(rng, n, d);
            // Point 0 sits on the last centroid, a duplicate when k > 2.
            std::copy_n(centroids.begin() + (k - 1) * d, d, data.begin());
            const auto want =
                ref::kmeansAssign(data.data(), n, d, centroids.data(), k);
            expectBitEqual<std::int32_t>(
                kmeansAssign(data, n, d, centroids, k), want, label(d, k));
            expectBitEqual<std::int32_t>(
                kmeansAssign(data, n, d, centroids, k, &pool), want,
                label(d, k) + " pool");
        }
    }
}

TEST(RowKernel, KmeansTrainMatchesPerPairTraining)
{
    Rng rng(6);
    for (const std::size_t d : kDims) {
        for (const std::size_t k : {std::size_t{1}, std::size_t{15},
                                    std::size_t{17}}) {
            const std::size_t n = 40 * k;
            const auto data = randomRows(rng, n, d);
            KMeansParams params;
            params.k = k;
            params.seed = 7 + d;
            // A low cap subsamples, so the shuffle path runs too.
            params.maxPointsPerCentroid = 32;
            const auto got = kmeansTrain(data, n, d, params);
            const auto want = ref::kmeansTrain(data, n, d, params);
            expectBitEqual<float>(got.centroids, want.centroids,
                                  label(d, k));
            EXPECT_EQ(got.iterations, want.iterations);
            EXPECT_EQ(got.objective, want.objective);
        }
    }
}

} // namespace
} // namespace vlr::vs
