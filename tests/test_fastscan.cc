/**
 * @file
 * Tests for the PQ4 fast-scan kernels: packing layout, SIMD/scalar
 * agreement, LUT quantization error bounds, and the exactness of the
 * shared score-filtered scan loop (scanPackedList) against pushing
 * every lane through TopK.
 */

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "vecsearch/fastscan.h"

namespace vlr::vs
{
namespace
{

std::vector<std::uint8_t>
randomCodes(Rng &rng, std::size_t m, std::size_t n)
{
    std::vector<std::uint8_t> codes(n * m);
    for (auto &c : codes)
        c = static_cast<std::uint8_t>(rng.uniformU64(16));
    return codes;
}

std::vector<float>
randomLut(Rng &rng, std::size_t m)
{
    std::vector<float> lut(m * 16);
    for (auto &x : lut)
        x = static_cast<float>(rng.uniform(0.0, 4.0));
    return lut;
}

TEST(FastScan, PackedBlockBytes)
{
    EXPECT_EQ(packedBlockBytes(1), 16u);
    EXPECT_EQ(packedBlockBytes(8), 128u);
}

TEST(FastScan, PackPadsToWholeBlocks)
{
    Rng rng(1);
    const std::size_t m = 4;
    const auto codes = randomCodes(rng, m, 40); // 40 -> 2 blocks of 32
    const auto packed = packPq4Codes(m, codes, 40);
    EXPECT_EQ(packed.size(), 2 * packedBlockBytes(m));
}

TEST(FastScan, PackLayoutNibbles)
{
    // Code of vector j lands in byte j%16's low (j<16) or high (j>=16)
    // nibble of sub-quantizer m's 16-byte group.
    const std::size_t m = 2;
    std::vector<std::uint8_t> codes(32 * m);
    for (std::size_t j = 0; j < 32; ++j) {
        codes[j * m + 0] = static_cast<std::uint8_t>(j % 16);
        codes[j * m + 1] = static_cast<std::uint8_t>((j + 3) % 16);
    }
    const auto packed = packPq4Codes(m, codes, 32);
    ASSERT_EQ(packed.size(), packedBlockBytes(m));
    for (std::size_t j = 0; j < 16; ++j) {
        const std::uint8_t lo = packed[j] & 0xF;
        const std::uint8_t hi = (packed[j] >> 4) & 0xF;
        EXPECT_EQ(lo, j % 16);
        EXPECT_EQ(hi, (j + 16) % 16);
    }
}

TEST(FastScan, QuantizedLutReconstructsApproximately)
{
    Rng rng(2);
    const std::size_t m = 8;
    const auto lut = randomLut(rng, m);
    const auto qlut = quantizeLut(m, lut);
    // Entries quantize relative to their sub-quantizer row minimum with
    // a shared step; the row minima accumulate into the global bias.
    double bias = 0.0;
    for (std::size_t s = 0; s < m; ++s) {
        float row_min = lut[s * 16];
        for (std::size_t j = 1; j < 16; ++j)
            row_min = std::min(row_min, lut[s * 16 + j]);
        bias += row_min;
        for (std::size_t j = 0; j < 16; ++j) {
            const double rec =
                row_min + qlut.step * qlut.table[s * 16 + j];
            EXPECT_NEAR(rec, lut[s * 16 + j], qlut.step + 1e-6);
        }
    }
    EXPECT_NEAR(qlut.bias, bias, 1e-4);
}

TEST(FastScan, ScalarScanMatchesManualLookup)
{
    Rng rng(3);
    const std::size_t m = 4, n = 64;
    const auto codes = randomCodes(rng, m, n);
    const auto lut = randomLut(rng, m);
    const auto qlut = quantizeLut(m, lut);
    const auto packed = packPq4Codes(m, codes, n);
    const std::size_t nblocks = packed.size() / packedBlockBytes(m);

    std::vector<std::uint16_t> scores(nblocks * kFastScanBlock);
    scanPq4BlocksScalar(m, packed.data(), nblocks, qlut, scores.data());

    for (std::size_t j = 0; j < n; ++j) {
        std::uint32_t expect = 0;
        for (std::size_t sub = 0; sub < m; ++sub)
            expect += qlut.table[sub * 16 + codes[j * m + sub]];
        EXPECT_EQ(scores[j], expect) << "lane " << j;
    }
}

TEST(FastScan, SimdMatchesScalar)
{
    Rng rng(4);
    const std::size_t m = 8, n = 256;
    const auto codes = randomCodes(rng, m, n);
    const auto lut = randomLut(rng, m);
    const auto qlut = quantizeLut(m, lut);
    const auto packed = packPq4Codes(m, codes, n);
    const std::size_t nblocks = packed.size() / packedBlockBytes(m);

    std::vector<std::uint16_t> simd(nblocks * kFastScanBlock);
    std::vector<std::uint16_t> scalar(nblocks * kFastScanBlock);
    scanPq4Blocks(m, packed.data(), nblocks, qlut, simd.data());
    scanPq4BlocksScalar(m, packed.data(), nblocks, qlut, scalar.data());
    for (std::size_t i = 0; i < simd.size(); ++i)
        EXPECT_EQ(simd[i], scalar[i]) << "lane " << i;
}

TEST(FastScan, AffineMappingPreservesOrder)
{
    // Lower float LUT distance must map to lower quantized score for
    // well-separated values.
    Rng rng(5);
    const std::size_t m = 4, n = 32;
    auto codes = randomCodes(rng, m, n);
    std::vector<float> lut(m * 16);
    for (std::size_t i = 0; i < lut.size(); ++i)
        lut[i] = static_cast<float>(i % 16); // 0..15 per sub
    const auto qlut = quantizeLut(m, lut);
    const auto packed = packPq4Codes(m, codes, n);
    std::vector<std::uint16_t> scores(kFastScanBlock);
    scanPq4BlocksScalar(m, packed.data(), 1, qlut, scores.data());

    for (std::size_t j = 0; j < n; ++j) {
        float fdist = 0.f;
        for (std::size_t sub = 0; sub < m; ++sub)
            fdist += lut[sub * 16 + codes[j * m + sub]];
        const double rec = qlut.bias + qlut.step * scores[j];
        EXPECT_NEAR(rec, fdist, m * qlut.step + 1e-5);
    }
}

/** SIMD/scalar equivalence across m and block-count combinations. */
class FastScanParamTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>>
{
};

TEST_P(FastScanParamTest, KernelsAgree)
{
    const auto [m, n] = GetParam();
    Rng rng(100 + m * 31 + n);
    const auto codes = randomCodes(rng, m, n);
    const auto lut = randomLut(rng, m);
    const auto qlut = quantizeLut(m, lut);
    const auto packed = packPq4Codes(m, codes, n);
    const std::size_t nblocks = packed.size() / packedBlockBytes(m);

    std::vector<std::uint16_t> simd(nblocks * kFastScanBlock);
    std::vector<std::uint16_t> scalar(nblocks * kFastScanBlock);
    scanPq4Blocks(m, packed.data(), nblocks, qlut, simd.data());
    scanPq4BlocksScalar(m, packed.data(), nblocks, qlut, scalar.data());
    for (std::size_t i = 0; i < simd.size(); ++i)
        ASSERT_EQ(simd[i], scalar[i]) << "lane " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FastScanParamTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 8, 16),
                       ::testing::Values(1, 31, 32, 33, 100, 256)));

TEST(FastScan, AppendMatchesRepackOverConcatenation)
{
    Rng rng(99);
    const std::size_t m = 8;
    // Sweep splits crossing block boundaries both ways: filling a
    // partial tail block, landing exactly on one, and growing past it.
    for (const std::size_t n_old : {0ul, 1ul, 15ul, 16ul, 31ul, 32ul,
                                    33ul, 64ul, 97ul})
        for (const std::size_t n_new : {1ul, 7ul, 16ul, 32ul, 40ul}) {
            std::vector<std::uint8_t> codes((n_old + n_new) * m);
            for (auto &c : codes)
                c = static_cast<std::uint8_t>(rng.uniformU64(16));
            auto packed = packPq4Codes(
                m, std::span<const std::uint8_t>(codes.data(),
                                                 n_old * m),
                n_old);
            appendPq4Codes(
                m, packed, n_old,
                std::span<const std::uint8_t>(codes.data() + n_old * m,
                                              n_new * m),
                n_new);
            const auto repacked =
                packPq4Codes(m, codes, n_old + n_new);
            ASSERT_EQ(packed.size(), repacked.size())
                << n_old << "+" << n_new;
            EXPECT_TRUE(packed == repacked) << n_old << "+" << n_new;
        }
}

// --- Shared scan loop: score filter exactness -------------------------

/** One packed list with non-monotone ids. */
struct TestList
{
    std::vector<idx_t> ids;
    std::vector<std::uint8_t> packed;

    PackedList
    view() const
    {
        return {ids.data(), ids.size(), packed.data()};
    }
};

/**
 * @p n codes drawn by @p code (called per (vector, sub-quantizer)),
 * ids a shuffled stride-@p stride sequence offset by @p offset, so
 * ids of several lists interleave and no list is scanned in id order.
 */
template <typename CodeFn>
TestList
makeList(Rng &rng, std::size_t m, std::size_t n, idx_t stride,
         idx_t offset, CodeFn code)
{
    std::vector<std::uint8_t> codes(n * m);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t s = 0; s < m; ++s)
            codes[i * m + s] = code(i, s);
    TestList list;
    list.ids.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        list.ids[i] = static_cast<idx_t>(i) * stride + offset;
    rng.shuffle(list.ids);
    list.packed = packPq4Codes(m, codes, n);
    return list;
}

/** The scan loop before the score filter: every lane into TopK. */
std::vector<SearchHit>
pushEveryLane(std::size_t m, const QuantizedLut &lut,
              const std::vector<TestList> &lists, std::size_t k)
{
    TopK topk(k);
    std::vector<std::uint16_t> scores;
    for (const TestList &list : lists) {
        const std::size_t nblocks =
            (list.ids.size() + kFastScanBlock - 1) / kFastScanBlock;
        scores.resize(nblocks * kFastScanBlock);
        scanPq4BlocksScalar(m, list.packed.data(), nblocks, lut,
                            scores.data());
        for (std::size_t i = 0; i < list.ids.size(); ++i)
            topk.push(list.ids[i],
                      lut.bias + lut.step * static_cast<float>(scores[i]));
    }
    return topk.sortedHits();
}

std::vector<SearchHit>
sharedScan(std::size_t m, const QuantizedLut &lut,
           const std::vector<TestList> &lists, std::size_t k)
{
    TopK topk(k);
    std::vector<std::uint16_t> scores;
    for (const TestList &list : lists)
        scanPackedList(m, lut, list.view(), scores, topk);
    return topk.sortedHits();
}

void
expectSameHits(const std::vector<SearchHit> &got,
               const std::vector<SearchHit> &want, const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i].id) << what << " rank " << i;
        // Bitwise: +inf == +inf, and no NaN reaches these LUTs.
        EXPECT_EQ(got[i].dist, want[i].dist) << what << " rank " << i;
    }
}

/** A LUT with an explicit table, bias and step. */
QuantizedLut
makeLut(std::size_t m, float bias, float step,
        const std::function<std::uint8_t(std::size_t, std::size_t)> &entry)
{
    QuantizedLut lut;
    lut.table.resize(m * 16);
    for (std::size_t s = 0; s < m; ++s)
        for (std::size_t j = 0; j < 16; ++j)
            lut.table[s * 16 + j] = entry(s, j);
    lut.bias = bias;
    lut.step = step;
    return lut;
}

const std::size_t kListSizes[] = {0, 1, 31, 32, 33, 1000};
const std::size_t kKs[] = {1, 10, 100, 5000};

/** Every k x list size, one list per call and all of them into one
 *  TopK, for one LUT and code distribution. */
template <typename CodeFn>
void
sweepLists(const std::string &name, std::size_t m, const QuantizedLut &lut,
           std::uint64_t seed, CodeFn code)
{
    Rng rng(seed);
    std::vector<TestList> all;
    idx_t offset = 0;
    const idx_t stride = std::size(kListSizes);
    for (const std::size_t n : kListSizes)
        all.push_back(makeList(rng, m, n, stride, offset++, code));
    for (const std::size_t k : kKs) {
        for (const TestList &list : all) {
            const std::vector<TestList> one{list};
            expectSameHits(sharedScan(m, lut, one, k),
                           pushEveryLane(m, lut, one, k),
                           name + " k=" + std::to_string(k) +
                               " n=" + std::to_string(list.ids.size()));
        }
        expectSameHits(sharedScan(m, lut, all, k),
                       pushEveryLane(m, lut, all, k),
                       name + " k=" + std::to_string(k) + " all lists");
    }
}

TEST(ScanPackedList, TieHeavyConstantRowsBreakTiesById)
{
    // Constant rows: every score is 0 and every distance equal, so the
    // kept hits depend on id order alone.
    const std::size_t m = 8;
    Rng rng(11);
    std::vector<float> flut(m * 16);
    for (std::size_t s = 0; s < m; ++s)
        std::fill_n(flut.begin() + s * 16, 16, static_cast<float>(s));
    const QuantizedLut lut = quantizeLut(m, flut);
    sweepLists("constant", m, lut, 12, [&](std::size_t, std::size_t) {
        return static_cast<std::uint8_t>(rng.uniformU64(16));
    });
}

TEST(ScanPackedList, FewDistinctScoresTie)
{
    // Two-level rows: scores take only m + 1 values, so many lanes tie
    // exactly at the threshold.
    const std::size_t m = 4;
    const QuantizedLut lut = makeLut(
        m, 1.5f, 0.25f, [](std::size_t, std::size_t j) {
            return static_cast<std::uint8_t>(j < 8 ? 0 : 1);
        });
    Rng rng(13);
    sweepLists("two-level", m, lut, 14, [&](std::size_t, std::size_t) {
        return static_cast<std::uint8_t>(rng.uniformU64(16));
    });
}

TEST(ScanPackedList, RandomLutMatchesPushEveryLane)
{
    for (const std::size_t m : {1ul, 8ul, 32ul}) {
        Rng rng(20 + m);
        const QuantizedLut lut = quantizeLut(m, randomLut(rng, m));
        sweepLists("random m=" + std::to_string(m), m, lut, 21 + m,
                   [&](std::size_t, std::size_t) {
                       return static_cast<std::uint8_t>(
                           rng.uniformU64(16));
                   });
    }
}

TEST(ScanPackedList, ThresholdNearZero)
{
    // Code 0 costs nothing and every other code the maximum, and most
    // vectors have some nonzero code: the k-th score sits at or just
    // above 0.
    const std::size_t m = 8;
    const QuantizedLut lut = makeLut(
        m, -3.0f, 0.01f, [](std::size_t, std::size_t j) {
            return static_cast<std::uint8_t>(j == 0 ? 0 : 255);
        });
    Rng rng(31);
    sweepLists("near-0", m, lut, 32, [&](std::size_t, std::size_t) {
        return static_cast<std::uint8_t>(
            rng.uniformU64(40) < 38 ? 0 : rng.uniformU64(16));
    });
}

TEST(ScanPackedList, ThresholdNearMaxScore)
{
    // 257 sub-quantizers at 255 reach score 0xFFFF exactly; code 0
    // saves one step per sub-quantizer, so scores and the threshold
    // crowd the top of the uint16 range. A large bias over a tiny step
    // also makes neighbouring scores round to one distance.
    const std::size_t m = 257;
    Rng rng(41);
    const auto code = [&](std::size_t, std::size_t) {
        return static_cast<std::uint8_t>(rng.uniformU64(50) == 0 ? 0
                                                                 : 1);
    };
    const auto entry = [](std::size_t, std::size_t j) {
        return static_cast<std::uint8_t>(j == 0 ? 254 : 255);
    };
    sweepLists("near-max", m, makeLut(m, 0.f, 1.f, entry), 42, code);
    sweepLists("near-max plateaus", m, makeLut(m, 1.0e4f, 1.0e-4f, entry),
               43, code);
}

TEST(ScanPackedList, OverflowingAndNonFiniteMaps)
{
    // A huge step sends high scores to +inf (still monotone); an
    // infinite bias makes every distance +inf, and the loop then
    // pushes every lane. Either way the results match.
    const std::size_t m = 8;
    Rng rng(51);
    const QuantizedLut base = quantizeLut(m, randomLut(rng, m));
    QuantizedLut huge = base;
    huge.step = 1.0e36f;
    QuantizedLut inf_bias = base;
    inf_bias.bias = std::numeric_limits<float>::infinity();
    const auto code = [&](std::size_t, std::size_t) {
        return static_cast<std::uint8_t>(rng.uniformU64(16));
    };
    sweepLists("huge step", m, huge, 52, code);
    sweepLists("inf bias", m, inf_bias, 53, code);
}

TEST(ScanPackedList, ScoreThresholdIsTheExactEdge)
{
    // Brute force over all 65536 scores: the threshold is the last
    // score whose distance is <= worst, for estimates that land on,
    // near and far from the edge.
    Rng rng(61);
    const auto brute = [](const QuantizedLut &lut, float worst) {
        int t = -1;
        for (int s = 0; s <= 0xFFFF; ++s)
            if (scoreToDistance(lut, static_cast<std::uint16_t>(s)) <= worst)
                t = s;
        return t;
    };
    for (int trial = 0; trial < 64; ++trial) {
        QuantizedLut lut;
        lut.bias = static_cast<float>(rng.uniform(-1.0e4, 1.0e4));
        lut.step = static_cast<float>(
            std::pow(10.0, rng.uniform(-6.0, 2.0)));
        const int s = static_cast<int>(rng.uniformU64(0x10000));
        const float at = scoreToDistance(lut, static_cast<std::uint16_t>(s));
        for (const float worst :
             {at, std::nextafter(at, -INFINITY), std::nextafter(at, INFINITY),
              lut.bias - 1.0f, lut.bias,
              std::numeric_limits<float>::max()})
            ASSERT_EQ(scoreThreshold(lut, worst), brute(lut, worst))
                << "bias " << lut.bias << " step " << lut.step
                << " worst " << worst;
    }
    QuantizedLut flat;
    flat.bias = 2.f;
    flat.step = 0.f;
    EXPECT_EQ(scoreThreshold(flat, 2.f), 0xFFFF);
    EXPECT_EQ(scoreThreshold(flat, 1.f), -1);
}

} // namespace
} // namespace vlr::vs
