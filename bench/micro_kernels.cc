/**
 * @file
 * Google-benchmark microbenchmarks of the real vector-search kernels:
 * distance computation, ADC LUT construction, plain ADC scanning,
 * PQ4 fast scanning and the fast-scan top-k handler. These back the
 * Fig. 3 claim that fast scan out-throughputs plain ADC by a wide
 * margin on the same codes. The row-kernel cases time coarse probing,
 * LUT build, PQ encoding and k-means assignment at perfbench's shapes,
 * Arg 0 through the per-pair reference loops (per_pair_reference.h)
 * and Arg 1 through the library's row kernel.
 */

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "per_pair_reference.h"
#include "vecsearch/fastscan.h"
#include "vecsearch/ivf.h"
#include "vecsearch/kmeans.h"
#include "vecsearch/metric.h"
#include "vecsearch/pq.h"
#include "vecsearch/topk.h"

namespace
{

using namespace vlr;
using namespace vlr::vs;

std::vector<float>
gaussianData(std::size_t n, std::size_t d, std::uint64_t seed = 1)
{
    Rng rng(seed);
    std::vector<float> v(n * d);
    for (auto &x : v)
        x = static_cast<float>(rng.gaussian());
    return v;
}

void
BM_L2Distance(benchmark::State &state)
{
    const std::size_t d = static_cast<std::size_t>(state.range(0));
    const auto a = gaussianData(1, d, 1);
    const auto b = gaussianData(1, d, 2);
    for (auto _ : state)
        benchmark::DoNotOptimize(l2Sqr(a.data(), b.data(), d));
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * d * 2 * sizeof(float)));
}
BENCHMARK(BM_L2Distance)->Arg(64)->Arg(128)->Arg(768)->Arg(1024);

void
BM_DistancesToMany(benchmark::State &state)
{
    const std::size_t n = 4096, d = 128;
    const auto q = gaussianData(1, d, 1);
    const auto base = gaussianData(n, d, 2);
    std::vector<float> out(n);
    for (auto _ : state)
        distancesToMany(Metric::L2, q.data(), base.data(), n, d,
                        out.data());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_DistancesToMany);

struct PqSetup
{
    ProductQuantizer pq;
    std::vector<std::uint8_t> codes;
    std::vector<float> query;
    std::vector<float> lut;

    PqSetup(std::size_t m, std::size_t nbits, std::size_t n)
        : pq(64, m, nbits)
    {
        const auto data = gaussianData(n, 64, 3);
        pq.train(data, n);
        codes = pq.encodeBatch(data, n);
        query = gaussianData(1, 64, 4);
        lut.resize(pq.lutSize());
        pq.computeLut(query.data(), lut.data());
    }
};

void
BM_PqLutBuild(benchmark::State &state)
{
    PqSetup s(8, 8, 2000);
    for (auto _ : state)
        s.pq.computeLut(s.query.data(), s.lut.data());
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * s.pq.lutSize()));
}
BENCHMARK(BM_PqLutBuild);

void
BM_AdcScan(benchmark::State &state)
{
    const std::size_t n = 8192;
    PqSetup s(8, 8, n);
    TopK topk(10);
    for (auto _ : state) {
        for (std::size_t i = 0; i < n; ++i)
            benchmark::DoNotOptimize(s.pq.adcDistance(
                s.lut.data(), s.codes.data() + i * 8));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_AdcScan);

void
BM_FastScan(benchmark::State &state)
{
    const std::size_t n = 8192, m = 8;
    PqSetup s(m, 4, n);
    const auto packed = packPq4Codes(m, s.codes, n);
    const auto qlut = quantizeLut(m, s.lut);
    const std::size_t nblocks = packed.size() / packedBlockBytes(m);
    std::vector<std::uint16_t> scores(nblocks * kFastScanBlock);
    for (auto _ : state)
        scanPq4Blocks(m, packed.data(), nblocks, qlut, scores.data());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * n));
    state.SetLabel(fastScanHasSimd() ? "avx2" : "scalar");
}
BENCHMARK(BM_FastScan);

void
BM_FastScanScalarReference(benchmark::State &state)
{
    const std::size_t n = 8192, m = 8;
    PqSetup s(m, 4, n);
    const auto packed = packPq4Codes(m, s.codes, n);
    const auto qlut = quantizeLut(m, s.lut);
    const std::size_t nblocks = packed.size() / packedBlockBytes(m);
    std::vector<std::uint16_t> scores(nblocks * kFastScanBlock);
    for (auto _ : state)
        scanPq4BlocksScalar(m, packed.data(), nblocks, qlut,
                            scores.data());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_FastScanScalarReference);

/**
 * One list at m = 32 into a fresh TopK(10), as one probe of a query
 * sees it. Arg 0 = kernel only, 1 = kernel + push every lane (the loop
 * before the score filter), 2 = scanPackedList (kernel + score
 * filter). Handler cost = mode 1 or 2 minus mode 0.
 */
void
BM_ScanListTopK(benchmark::State &state)
{
    const auto mode = state.range(0);
    const auto n = static_cast<std::size_t>(state.range(1));
    const std::size_t m = 32, k = 10;
    PqSetup s(m, 4, n);
    const auto packed = packPq4Codes(m, s.codes, n);
    const auto qlut = quantizeLut(m, s.lut);
    std::vector<idx_t> ids(n);
    for (std::size_t i = 0; i < n; ++i)
        ids[i] = static_cast<idx_t>(i);
    const std::size_t nblocks = packed.size() / packedBlockBytes(m);
    std::vector<std::uint16_t> scores(nblocks * kFastScanBlock);
    for (auto _ : state) {
        TopK topk(k);
        if (mode == 2) {
            scanPackedList(m, qlut, {ids.data(), n, packed.data()},
                           scores, topk);
        } else {
            scanPq4Blocks(m, packed.data(), nblocks, qlut, scores.data());
            if (mode == 1)
                for (std::size_t i = 0; i < n; ++i)
                    topk.push(ids[i], scoreToDistance(qlut, scores[i]));
        }
        benchmark::DoNotOptimize(topk.worst());
        benchmark::DoNotOptimize(scores.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * n));
    state.SetLabel(mode == 0   ? "kernel"
                   : mode == 1 ? "push-every-lane"
                               : "filtered");
}
BENCHMARK(BM_ScanListTopK)
    ->ArgsProduct({{0, 1, 2}, {256, 4096}});

const char *
rowKernelLabel(const benchmark::State &state)
{
    return state.range(0) == 0 ? "per-pair" : "row-kernel";
}

/** One query's coarse probe: nlist 256, d 64, nprobe 16. */
void
BM_CqProbe(benchmark::State &state)
{
    const std::size_t nlist = 256, d = 64, nprobe = 16;
    const auto centroids = gaussianData(nlist, d, 6);
    const auto queries = gaussianData(64, d, 7);
    const FlatCoarseQuantizer cq(centroids, nlist, d);
    std::size_t q = 0;
    for (auto _ : state) {
        const float *x = queries.data() + (q++ % 64) * d;
        const auto pl = state.range(0) == 0
                            ? ref::probe(Metric::L2, centroids.data(), nlist,
                                         d, x, nprobe)
                            : cq.probe(x, nprobe);
        benchmark::DoNotOptimize(pl.clusters.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * nlist));
    state.SetLabel(rowKernelLabel(state));
}
BENCHMARK(BM_CqProbe)->Arg(0)->Arg(1);

/** One query's float LUT: m 32, dsub 2, 16 codewords. */
void
BM_LutBuildRows(benchmark::State &state)
{
    PqSetup s(32, 4, 2000);
    for (auto _ : state) {
        if (state.range(0) == 0)
            ref::computeLut(s.pq, s.query.data(), s.lut.data());
        else
            s.pq.computeLut(s.query.data(), s.lut.data());
        benchmark::DoNotOptimize(s.lut.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * s.pq.lutSize()));
    state.SetLabel(rowKernelLabel(state));
}
BENCHMARK(BM_LutBuildRows)->Arg(0)->Arg(1);

/** Encoding 1024 vectors: m 32, dsub 2, 16 codewords. */
void
BM_PqEncode(benchmark::State &state)
{
    const std::size_t n = 1024, m = 32;
    PqSetup s(m, 4, 2000);
    const auto data = gaussianData(n, 64, 8);
    std::vector<std::uint8_t> codes(n * m);
    for (auto _ : state) {
        for (std::size_t i = 0; i < n; ++i) {
            if (state.range(0) == 0)
                ref::encode(s.pq, data.data() + i * 64,
                            codes.data() + i * m);
            else
                s.pq.encode(data.data() + i * 64, codes.data() + i * m);
        }
        benchmark::DoNotOptimize(codes.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * n));
    state.SetLabel(rowKernelLabel(state));
}
BENCHMARK(BM_PqEncode)->Arg(0)->Arg(1);

/** One k-means assignment pass: 4096 points, k 16, d 2 (a PQ
 *  subspace's training step). */
void
BM_KmeansAssign(benchmark::State &state)
{
    const std::size_t n = 4096, k = 16, d = 2;
    const auto data = gaussianData(n, d, 9);
    const auto centroids = gaussianData(k, d, 10);
    for (auto _ : state) {
        const auto assign =
            state.range(0) == 0
                ? ref::kmeansAssign(data.data(), n, d, centroids.data(), k)
                : kmeansAssign(data, n, d, centroids, k);
        benchmark::DoNotOptimize(assign.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * n));
    state.SetLabel(rowKernelLabel(state));
}
BENCHMARK(BM_KmeansAssign)->Arg(0)->Arg(1);

void
BM_TopKPush(benchmark::State &state)
{
    Rng rng(5);
    std::vector<float> dists(100000);
    for (auto &d : dists)
        d = static_cast<float>(rng.uniform());
    for (auto _ : state) {
        TopK topk(25);
        for (std::size_t i = 0; i < dists.size(); ++i)
            topk.push(static_cast<idx_t>(i), dists[i]);
        benchmark::DoNotOptimize(topk.worst());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * dists.size()));
}
BENCHMARK(BM_TopKPush);

} // namespace

BENCHMARK_MAIN();
