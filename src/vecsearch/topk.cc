#include "vecsearch/topk.h"

#include <algorithm>
#include <cassert>

namespace vlr::vs
{

namespace
{

bool
heapLess(const SearchHit &a, const SearchHit &b)
{
    // Max-heap on distance; ties broken by id so ordering is total.
    if (a.dist != b.dist)
        return a.dist < b.dist;
    return a.id < b.id;
}

bool
sortedLess(const SearchHit &a, const SearchHit &b)
{
    if (a.dist != b.dist)
        return a.dist < b.dist;
    return a.id < b.id;
}

} // namespace

TopK::TopK(std::size_t k)
    : k_(k)
{
    assert(k > 0);
    heap_.reserve(k);
}

bool
TopK::push(idx_t id, float dist)
{
    if (heap_.size() < k_) {
        heap_.push_back({id, dist});
        std::push_heap(heap_.begin(), heap_.end(), heapLess);
        return true;
    }
    const SearchHit cand{id, dist};
    if (!heapLess(cand, heap_.front()))
        return false;
    std::pop_heap(heap_.begin(), heap_.end(), heapLess);
    heap_.back() = cand;
    std::push_heap(heap_.begin(), heap_.end(), heapLess);
    return true;
}

float
TopK::worst() const
{
    if (heap_.size() < k_)
        return std::numeric_limits<float>::max();
    return heap_.front().dist;
}

std::vector<SearchHit>
TopK::sortedHits() const
{
    std::vector<SearchHit> out = heap_;
    std::sort(out.begin(), out.end(), sortedLess);
    return out;
}

std::vector<SearchHit>
mergeHitLists(std::span<const std::vector<SearchHit>> lists, std::size_t k)
{
    TopK topk(k);
    for (const auto &list : lists) {
        for (const auto &h : list)
            topk.push(h.id, h.dist);
    }
    return topk.sortedHits();
}

} // namespace vlr::vs
