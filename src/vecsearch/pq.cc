#include "vecsearch/pq.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "common/log.h"

namespace vlr::vs
{

ProductQuantizer::ProductQuantizer(std::size_t dim, std::size_t m,
                                   std::size_t nbits)
    : dim_(dim), m_(m), nbits_(nbits), ksub_(std::size_t{1} << nbits),
      dsub_(dim / m)
{
    if (m == 0 || dim % m != 0)
        fatal("ProductQuantizer: dim must be divisible by m");
    if (nbits != 4 && nbits != 8)
        fatal("ProductQuantizer: nbits must be 4 or 8");
    codebooks_.resize(m_ * ksub_ * dsub_, 0.f);
}

ProductQuantizer
ProductQuantizer::fromCodebooks(std::size_t dim, std::size_t m,
                                std::size_t nbits,
                                std::vector<float> codebooks)
{
    ProductQuantizer pq(dim, m, nbits);
    if (codebooks.size() != pq.m_ * pq.ksub_ * pq.dsub_)
        fatal("ProductQuantizer::fromCodebooks: size mismatch");
    pq.codebooks_ = std::move(codebooks);
    pq.buildSubTables();
    pq.trained_ = true;
    return pq;
}

void
ProductQuantizer::train(std::span<const float> data, std::size_t n,
                        const KMeansParams &base_params)
{
    assert(data.size() >= n * dim_);
    if (n < ksub_)
        fatal("ProductQuantizer::train: need at least ksub vectors");

    std::vector<float> sub(n * dsub_);
    for (std::size_t s = 0; s < m_; ++s) {
        for (std::size_t i = 0; i < n; ++i) {
            const float *src = data.data() + i * dim_ + s * dsub_;
            std::copy_n(src, dsub_, sub.begin() + i * dsub_);
        }
        KMeansParams params = base_params;
        params.k = ksub_;
        params.seed = base_params.seed + s * 7919;
        auto res = kmeansTrain(sub, n, dsub_, params);
        std::copy(res.centroids.begin(), res.centroids.end(),
                  codebooks_.begin() + s * ksub_ * dsub_);
    }
    buildSubTables();
    trained_ = true;
}

void
ProductQuantizer::buildSubTables()
{
    subTables_.clear();
    for (std::size_t s = 0; s < m_; ++s)
        subTables_.emplace_back(codebooks_.data() + s * ksub_ * dsub_, ksub_,
                                dsub_);
}

void
ProductQuantizer::encode(const float *vec, std::uint8_t *code) const
{
    assert(trained_);
    std::array<float, 256> dists{}; // ksub_ <= 2^8
    for (std::size_t s = 0; s < m_; ++s) {
        distancesToRows(Metric::L2, vec + s * dsub_, subTables_[s],
                        dists.data());
        code[s] = static_cast<std::uint8_t>(nearestRow(dists.data(), ksub_));
    }
}

std::vector<std::uint8_t>
ProductQuantizer::encodeBatch(std::span<const float> data,
                              std::size_t n) const
{
    assert(data.size() >= n * dim_);
    std::vector<std::uint8_t> codes(n * m_);
    for (std::size_t i = 0; i < n; ++i)
        encode(data.data() + i * dim_, codes.data() + i * m_);
    return codes;
}

void
ProductQuantizer::decode(const std::uint8_t *code, float *vec) const
{
    assert(trained_);
    for (std::size_t s = 0; s < m_; ++s) {
        const float *cw =
            codebooks_.data() + (s * ksub_ + code[s]) * dsub_;
        std::copy_n(cw, dsub_, vec + s * dsub_);
    }
}

void
ProductQuantizer::computeLut(const float *query, float *lut) const
{
    assert(trained_);
    for (std::size_t s = 0; s < m_; ++s)
        distancesToRows(Metric::L2, query + s * dsub_, subTables_[s],
                        lut + s * ksub_);
}

float
ProductQuantizer::adcDistance(const float *lut,
                              const std::uint8_t *code) const
{
    float acc = 0.f;
    for (std::size_t s = 0; s < m_; ++s)
        acc += lut[s * ksub_ + code[s]];
    return acc;
}

double
ProductQuantizer::reconstructionError(std::span<const float> data,
                                      std::size_t n) const
{
    assert(data.size() >= n * dim_);
    std::vector<std::uint8_t> code(m_);
    std::vector<float> rec(dim_);
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const float *x = data.data() + i * dim_;
        encode(x, code.data());
        decode(code.data(), rec.data());
        acc += l2Sqr(x, rec.data(), dim_);
    }
    return n ? acc / static_cast<double>(n) : 0.0;
}

std::span<const float>
ProductQuantizer::codebook(std::size_t sub) const
{
    assert(sub < m_);
    return {codebooks_.data() + sub * ksub_ * dsub_, ksub_ * dsub_};
}

} // namespace vlr::vs
