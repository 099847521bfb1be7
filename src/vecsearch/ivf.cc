#include "vecsearch/ivf.h"

#include <cassert>

#include "common/log.h"
#include "vecsearch/kmeans.h"

namespace vlr::vs
{

FlatCoarseQuantizer::FlatCoarseQuantizer(std::vector<float> centroids,
                                         std::size_t nlist, std::size_t dim,
                                         Metric metric)
    : centroids_(std::move(centroids)), nlist_(nlist), dim_(dim),
      metric_(metric)
{
    if (centroids_.size() != nlist_ * dim_)
        fatal("FlatCoarseQuantizer: centroid matrix shape mismatch");
    table_ = RowTable(centroids_.data(), nlist_, dim_);
}

ProbeList
FlatCoarseQuantizer::probe(const float *query, std::size_t nprobe) const
{
    nprobe = std::min(nprobe, nlist_);
    std::vector<float> dists(nlist_);
    distancesToRows(metric_, query, table_, dists.data());
    TopK topk(nprobe);
    std::size_t c = 0;
    for (; c < nlist_ && !topk.full(); ++c)
        topk.push(static_cast<idx_t>(c), dists[c]);
    // Once full, push keeps a centroid only when its distance is below
    // worst(): ids rise with c, so a tie loses to every kept id, and a
    // NaN compares false either way. Skipping the others here is exact.
    float worst = topk.worst();
    for (; c < nlist_; ++c)
        if (dists[c] < worst && topk.push(static_cast<idx_t>(c), dists[c]))
            worst = topk.worst();
    ProbeList out;
    out.clusters.reserve(nprobe);
    out.dists.reserve(nprobe);
    for (const auto &h : topk.sortedHits()) {
        out.clusters.push_back(static_cast<cluster_id_t>(h.id));
        out.dists.push_back(h.dist);
    }
    return out;
}

const float *
FlatCoarseQuantizer::centroid(cluster_id_t c) const
{
    assert(c >= 0 && static_cast<std::size_t>(c) < nlist_);
    return centroids_.data() + static_cast<std::size_t>(c) * dim_;
}

IvfFlatIndex::IvfFlatIndex(std::shared_ptr<const CoarseQuantizer> cq,
                           Metric metric)
    : cq_(std::move(cq)), metric_(metric)
{
    assert(cq_);
    ids_.resize(cq_->nlist());
    vecs_.resize(cq_->nlist());
}

void
IvfFlatIndex::add(std::span<const float> vecs, std::size_t n)
{
    const std::size_t d = dim();
    assert(vecs.size() >= n * d);
    for (std::size_t i = 0; i < n; ++i) {
        const float *x = vecs.data() + i * d;
        const auto pl = cq_->probe(x, 1);
        const cluster_id_t c = pl.clusters.at(0);
        ids_[c].push_back(static_cast<idx_t>(total_ + i));
        vecs_[c].insert(vecs_[c].end(), x, x + d);
    }
    total_ += n;
}

void
IvfFlatIndex::addPreassigned(std::span<const float> vecs, std::size_t n,
                             std::span<const std::int32_t> assign)
{
    const std::size_t d = dim();
    assert(vecs.size() >= n * d);
    assert(assign.size() >= n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto c = static_cast<std::size_t>(assign[i]);
        assert(c < ids_.size());
        const float *x = vecs.data() + i * d;
        ids_[c].push_back(static_cast<idx_t>(total_ + i));
        vecs_[c].insert(vecs_[c].end(), x, x + d);
    }
    total_ += n;
}

std::vector<SearchHit>
IvfFlatIndex::search(const float *query, std::size_t k,
                     std::size_t nprobe) const
{
    const auto pl = cq_->probe(query, nprobe);
    return searchClusters(query, k, pl.clusters);
}

std::vector<SearchHit>
IvfFlatIndex::searchClusters(const float *query, std::size_t k,
                             std::span<const cluster_id_t> clusters) const
{
    const std::size_t d = dim();
    TopK topk(k);
    for (const cluster_id_t c : clusters) {
        const auto ci = static_cast<std::size_t>(c);
        assert(ci < ids_.size());
        const auto &list_ids = ids_[ci];
        const float *base = vecs_[ci].data();
        for (std::size_t i = 0; i < list_ids.size(); ++i) {
            const float dist =
                comparableDistance(metric_, query, base + i * d, d);
            topk.push(list_ids[i], dist);
        }
    }
    return topk.sortedHits();
}

std::size_t
IvfFlatIndex::listSize(cluster_id_t c) const
{
    assert(c >= 0 && static_cast<std::size_t>(c) < ids_.size());
    return ids_[static_cast<std::size_t>(c)].size();
}

std::vector<std::size_t>
IvfFlatIndex::listSizes() const
{
    std::vector<std::size_t> out(ids_.size());
    for (std::size_t c = 0; c < ids_.size(); ++c)
        out[c] = ids_[c].size();
    return out;
}

const std::vector<idx_t> &
IvfFlatIndex::listIds(cluster_id_t c) const
{
    assert(c >= 0 && static_cast<std::size_t>(c) < ids_.size());
    return ids_[static_cast<std::size_t>(c)];
}

} // namespace vlr::vs
