/**
 * @file
 * Pure measurement helpers of the repo benchmark: percentiles, the
 * SLO-throughput crossing and its best-visit ladder, recall, span self time
 * and a JSON writer. They
 * depend on nothing but the standard library, so test_metrics.cc
 * checks them without building a corpus.
 */

#ifndef VLR_PERFBENCH_METRICS_H
#define VLR_PERFBENCH_METRICS_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace perfbench
{

/** Samples that must lie beyond a reported tail percentile. */
inline constexpr std::size_t kTailSupport = 10;

/**
 * Nearest-rank quantile (q in [0, 1]) of an ascending-sorted sample:
 * the smallest value with at least q of the sample at or below it.
 * NaN for an empty sample.
 */
inline double
quantileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return std::numeric_limits<double>::quiet_NaN();
    // The epsilon keeps q * n from rounding up past an exact rank.
    const double n = static_cast<double>(sorted.size());
    auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

/**
 * Highest of the percentiles 50, 90, 99, 99.9 and 99.99 that has at
 * least kTailSupport samples beyond it in a sample of @p n; 0 when
 * even the median lacks that support.
 */
inline double
supportedTailPercentile(std::size_t n)
{
    // Percentiles in hundredths, so the nearest rank is exact.
    static constexpr std::size_t kLadder[] = {9999, 9990, 9900, 9000,
                                              5000};
    for (const std::size_t p : kLadder) {
        // Samples strictly above the nearest-rank p-th percentile.
        const std::size_t rank = (p * n + 9999) / 10000;
        if (n - rank >= kTailSupport)
            return static_cast<double>(p) / 100.0;
    }
    return 0.0;
}

/** Latency digest of one sample: count, median, p99 and the highest
 *  percentile with kTailSupport samples beyond it. */
struct LatencyStats
{
    std::size_t count = 0;
    double p50 = std::numeric_limits<double>::quiet_NaN();
    double p99 = std::numeric_limits<double>::quiet_NaN();
    double tailPercentile = 0.0;
    double tail = std::numeric_limits<double>::quiet_NaN();
};

inline LatencyStats
latencyStats(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    LatencyStats s;
    s.count = samples.size();
    s.p50 = quantileSorted(samples, 0.50);
    s.p99 = quantileSorted(samples, 0.99);
    s.tailPercentile = supportedTailPercentile(samples.size());
    s.tail = quantileSorted(samples, s.tailPercentile / 100.0);
    return s;
}

/** Requests per slice of slicedP99: the fewest with kTailSupport
 *  samples beyond the slice's p99. */
inline constexpr std::size_t kSliceRequests = 1000;

/**
 * Share of a run's time slices that a robust figure is taken from:
 * the fastest tenth. Host noise (a descheduled vCPU, a neighbour
 * thrashing the shared cache) only ever slows the engine, and on a
 * shared VM it came in stretches of seconds to tens of seconds that
 * covered most of some runs, so the fast tail of the slices is what
 * it reaches last. A change that slows every slice still moves it.
 */
inline constexpr double kFastShare = 0.1;

/**
 * Robust percentile of a sample in arrival order: cut it into
 * consecutive slices of @p slice requests, take each slice's @p q
 * quantile, and return the kFastShare quantile of those, so a noisy
 * stretch covering up to nine slices in ten does not move the figure.
 * A trailing partial slice is dropped unless it is the only one.
 * @p slices receives the slice count.
 */
inline double
slicedQuantile(const std::vector<double> &in_order, double q,
               std::size_t &slices, std::size_t slice = kSliceRequests)
{
    std::vector<double> per_slice;
    for (std::size_t from = 0; from < in_order.size(); from += slice) {
        const std::size_t to = std::min(from + slice, in_order.size());
        if (to - from < slice && !per_slice.empty())
            break;
        std::vector<double> part(in_order.begin() + from,
                                 in_order.begin() + to);
        std::sort(part.begin(), part.end());
        per_slice.push_back(quantileSorted(part, q));
    }
    slices = per_slice.size();
    std::sort(per_slice.begin(), per_slice.end());
    return quantileSorted(per_slice, kFastShare);
}

/** slicedQuantile at the 99th percentile: the reported p99. */
inline double
slicedP99(const std::vector<double> &in_order, std::size_t &slices,
          std::size_t slice = kSliceRequests)
{
    return slicedQuantile(in_order, 0.99, slices, slice);
}

/** One load level of an open-loop ladder (or a closed loop's single
 *  level). */
struct LoadStep
{
    /** Requests sent per second during the step. */
    double rate = 0.0;
    /** Request p99 latency during the step. */
    double p99 = 0.0;
    /** False when the step broke the SLO (p99 over the limit, too
     *  many misses, or a growing backlog). */
    bool pass = true;
};

/** How sloCrossing found its answer. */
enum class CrossingKind
{
    /** Linear interpolation between a passing and a failing step. */
    kInterpolated,
    /** Every step passed: the highest step's rate (a lower bound). */
    kAllPass,
    /** The first step failed: interpolated from the zero-load point
     *  (rate 0, latency 0). */
    kFirstFails,
};

struct Crossing
{
    double rate = 0.0;
    CrossingKind kind = CrossingKind::kAllPass;
};

/**
 * SLO throughput of a ladder sorted by ascending rate: the rate at
 * which p99 crosses @p limit, interpolated linearly between the last
 * passing step and the first failing one. A virtual step at rate 0
 * with latency 0 precedes the ladder, so a ladder whose first step
 * fails still yields a finite, non-zero estimate. A failing step whose
 * p99 is still within the limit (it failed on misses or backlog)
 * places the crossing at the last passing rate.
 */
inline Crossing
sloCrossing(const std::vector<LoadStep> &steps, double limit)
{
    LoadStep prev; // the zero-load point
    for (std::size_t i = 0; i < steps.size(); ++i) {
        const LoadStep &s = steps[i];
        if (s.pass) {
            prev = s;
            continue;
        }
        const CrossingKind kind = i == 0 ? CrossingKind::kFirstFails
                                         : CrossingKind::kInterpolated;
        if (s.p99 <= limit || s.p99 <= prev.p99)
            return {prev.rate, kind};
        const double frac = std::clamp(
            (limit - prev.p99) / (s.p99 - prev.p99), 0.0, 1.0);
        return {prev.rate + frac * (s.rate - prev.rate), kind};
    }
    return {prev.rate, CrossingKind::kAllPass};
}

/**
 * Best visit of every rung of a ladder, and the rung to probe next:
 * the lowest one that has not passed yet. Host noise only ever makes
 * a step fail, never pass, so a rung's best visit is the one least
 * touched by noise and a rung that passed once stays passed: a noisy
 * stretch does not walk the probe down the ladder, and the next quiet
 * stretch resumes where the last one stopped.
 */
class BestLadder
{
  public:
    explicit BestLadder(std::size_t rungs) : best_(rungs), visits_(rungs) {}

    /** The lowest rung without a passing visit; rungs() when every
     *  rung has passed. */
    std::size_t
    next() const
    {
        std::size_t r = 0;
        while (r < best_.size() && best_[r] && best_[r]->pass)
            ++r;
        return r;
    }

    std::size_t rungs() const { return best_.size(); }
    std::size_t visits(std::size_t rung) const { return visits_.at(rung); }

    /** Records a visit of @p rung; a pass beats a failure, and among
     *  equals the lower p99 wins. */
    void
    record(std::size_t rung, const LoadStep &step)
    {
        ++visits_.at(rung);
        std::optional<LoadStep> &b = best_[rung];
        if (!b || (step.pass && !b->pass) ||
            (step.pass == b->pass && step.p99 < b->p99))
            b = step;
    }

    /** Best visits of the passed rungs below next(), then next()'s
     *  best failing visit if it has one: the ladder sloCrossing reads. */
    std::vector<LoadStep>
    ladder() const
    {
        std::vector<LoadStep> out;
        for (std::size_t r = 0; r < best_.size() && best_[r]; ++r) {
            out.push_back(*best_[r]);
            if (!best_[r]->pass)
                break;
        }
        return out;
    }

  private:
    std::vector<std::optional<LoadStep>> best_;
    std::vector<std::size_t> visits_;
};

/** Time interval [start, end) in seconds. */
struct Interval
{
    double start = 0.0;
    double end = 0.0;
};

/** Recall@k: the share of the exact top-k ids found among the served
 *  ids, in any order. */
template <typename Id>
double
recallAt(const std::vector<Id> &served, const std::vector<Id> &exact)
{
    if (exact.empty())
        return 0.0;
    std::size_t found = 0;
    for (const Id &e : exact)
        found += std::find(served.begin(), served.end(), e) != served.end();
    return static_cast<double>(found) / static_cast<double>(exact.size());
}

/**
 * Self time of a span: its duration minus the part of it that the
 * union of @p children covers. Children may overlap each other (a
 * request's shard scans run in parallel) and may stick out of the
 * parent; only the covered part inside the parent counts once.
 */
inline double
selfTime(Interval parent, std::vector<Interval> children)
{
    std::sort(children.begin(), children.end(),
              [](const Interval &a, const Interval &b) {
                  return a.start < b.start;
              });
    double covered = 0.0;
    double run_start = 0.0, run_end = 0.0;
    bool open = false;
    for (const Interval &c : children) {
        const double s = std::max(c.start, parent.start);
        const double e = std::min(c.end, parent.end);
        if (e <= s)
            continue;
        if (open && s <= run_end) {
            run_end = std::max(run_end, e);
            continue;
        }
        if (open)
            covered += run_end - run_start;
        run_start = s;
        run_end = e;
        open = true;
    }
    if (open)
        covered += run_end - run_start;
    return std::max(0.0, (parent.end - parent.start) - covered);
}

/**
 * Streaming JSON writer: comma bookkeeping through a container stack,
 * escaped strings, and doubles printed with 17 significant digits so
 * a reader recovers the exact value. Non-finite numbers become null.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}

    void beginObject() { open('{'); }
    void endObject() { close('}'); }
    void beginArray() { open('['); }
    void endArray() { close(']'); }

    void
    key(std::string_view k)
    {
        comma();
        string(k);
        os_ << ':';
        keyed_ = true;
    }

    void
    value(double v)
    {
        pre();
        if (std::isfinite(v)) {
            const auto old = os_.precision(17);
            os_ << v;
            os_.precision(old);
        } else {
            os_ << "null";
        }
        mark();
    }

    void
    value(std::uint64_t v)
    {
        pre();
        os_ << v;
        mark();
    }

    void
    value(bool v)
    {
        pre();
        os_ << (v ? "true" : "false");
        mark();
    }

    void
    value(std::string_view v)
    {
        pre();
        string(v);
        mark();
    }

    void value(const char *v) { value(std::string_view(v)); }

    template <typename T>
    void
    kv(std::string_view k, const T &v)
    {
        key(k);
        if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>)
            value(static_cast<std::uint64_t>(v));
        else
            value(v);
    }

  private:
    void
    open(char c)
    {
        pre();
        os_ << c;
        stack_.push_back(false);
    }

    void
    close(char c)
    {
        os_ << c;
        stack_.pop_back();
        mark();
    }

    void
    string(std::string_view s)
    {
        os_ << '"';
        for (const char ch : s) {
            const auto u = static_cast<unsigned char>(ch);
            if (ch == '"' || ch == '\\') {
                os_ << '\\' << ch;
            } else if (u < 0x20) {
                static constexpr char kHex[] = "0123456789abcdef";
                os_ << "\\u00" << kHex[u >> 4] << kHex[u & 15];
            } else {
                os_ << ch;
            }
        }
        os_ << '"';
    }

    void
    comma()
    {
        if (!stack_.empty() && stack_.back())
            os_ << ',';
    }

    void
    pre()
    {
        if (keyed_) {
            keyed_ = false;
            return;
        }
        comma();
    }

    void
    mark()
    {
        if (!stack_.empty())
            stack_.back() = true;
    }

    std::ostream &os_;
    std::vector<bool> stack_;
    bool keyed_ = false;
};

} // namespace perfbench

#endif // VLR_PERFBENCH_METRICS_H
