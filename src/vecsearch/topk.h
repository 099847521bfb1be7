/**
 * @file
 * Bounded top-k selection (smaller distance = better) and result merging.
 */

#ifndef VLR_VECSEARCH_TOPK_H
#define VLR_VECSEARCH_TOPK_H

#include <limits>
#include <span>
#include <vector>

#include "common/types.h"

namespace vlr::vs
{

/** One search result: vector id and comparable distance. */
struct SearchHit
{
    idx_t id = kInvalidIdx;
    float dist = std::numeric_limits<float>::max();

    bool
    operator==(const SearchHit &o) const
    {
        return id == o.id && dist == o.dist;
    }
};

/**
 * Fixed-capacity max-heap keeping the k smallest distances seen.
 * push() is O(log k) once full; O(1) rejection for distances worse than
 * the current kth best.
 */
class TopK
{
  public:
    explicit TopK(std::size_t k);

    /** Offer one hit; returns true when it was kept. */
    bool push(idx_t id, float dist);

    /** Largest (worst) distance currently kept, or +inf if not full. */
    float worst() const;

    bool full() const { return heap_.size() >= k_; }
    std::size_t size() const { return heap_.size(); }
    std::size_t capacity() const { return k_; }

    /** Extract hits sorted ascending by distance (ties by id). */
    std::vector<SearchHit> sortedHits() const;

  private:
    std::size_t k_;
    std::vector<SearchHit> heap_; // max-heap on dist
};

/** Merge several sorted hit lists into the k best overall. */
std::vector<SearchHit> mergeHitLists(
    std::span<const std::vector<SearchHit>> lists, std::size_t k);

} // namespace vlr::vs

#endif // VLR_VECSEARCH_TOPK_H
