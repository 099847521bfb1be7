/**
 * @file
 * Tests of the benchmark's own measurement helpers (metrics.h): the
 * percentile rule, the SLO-throughput crossing and its best-visit ladder,
 * recall, span self time and a round-trip of a result-shaped JSON
 * document.
 */

#include <cctype>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "metrics.h"

namespace perfbench
{
namespace
{

// ---- percentile rule ------------------------------------------------

TEST(Percentiles, NearestRank)
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    EXPECT_EQ(quantileSorted(v, 0.50), 500);
    EXPECT_EQ(quantileSorted(v, 0.99), 990);
    EXPECT_EQ(quantileSorted(v, 1.0), 1000);
    EXPECT_EQ(quantileSorted({7.0}, 0.99), 7.0);
    EXPECT_TRUE(std::isnan(quantileSorted({}, 0.5)));
}

TEST(Percentiles, HighestWithTenSamplesBeyond)
{
    // p99 needs 1000 samples (990th value, 10 beyond it).
    EXPECT_EQ(supportedTailPercentile(1000), 99.0);
    EXPECT_EQ(supportedTailPercentile(999), 90.0);
    EXPECT_EQ(supportedTailPercentile(10000), 99.9);
    EXPECT_EQ(supportedTailPercentile(100000), 99.99);
    EXPECT_EQ(supportedTailPercentile(100), 90.0);
    EXPECT_EQ(supportedTailPercentile(99), 50.0);
    EXPECT_EQ(supportedTailPercentile(20), 50.0);
    EXPECT_EQ(supportedTailPercentile(19), 0.0);
    EXPECT_EQ(supportedTailPercentile(0), 0.0);
}

TEST(Percentiles, LatencyStatsReportsSupportedTail)
{
    std::vector<double> v;
    for (int i = 0; i < 2000; ++i)
        v.push_back(2000 - i); // unsorted input
    const LatencyStats s = latencyStats(v);
    EXPECT_EQ(s.count, 2000u);
    EXPECT_EQ(s.p50, 1000);
    EXPECT_EQ(s.p99, 1980);
    EXPECT_EQ(s.tailPercentile, 99.0);
    EXPECT_EQ(s.tail, 1980);
}

TEST(Percentiles, SlicedP99IgnoresOneStalledSlice)
{
    std::vector<double> v(5 * kSliceRequests, 1.0);
    // One slice stalls: every request in it is slow.
    for (std::size_t i = 2 * kSliceRequests; i < 3 * kSliceRequests; ++i)
        v[i] = 100.0;
    std::size_t slices = 0;
    EXPECT_EQ(slicedP99(v, slices), 1.0);
    EXPECT_EQ(slices, 5u);
    // A trailing partial slice is dropped...
    v.resize(5 * kSliceRequests + 10, 100.0);
    EXPECT_EQ(slicedP99(v, slices), 1.0);
    EXPECT_EQ(slices, 5u);
    // ...unless it is all there is.
    std::vector<double> few(100, 3.0);
    EXPECT_EQ(slicedP99(few, slices), 3.0);
    EXPECT_EQ(slices, 1u);
}

TEST(Percentiles, SlicedQuantileTakesTheFastTenth)
{
    // Eight of ten slices are slowed by noise; the fastest tenth still
    // reads the calm value. A slowdown of every slice moves it.
    std::vector<double> v(10 * kSliceRequests, 50.0);
    for (const std::size_t s : {3u, 6u})
        for (std::size_t i = s * kSliceRequests; i < (s + 1) * kSliceRequests;
             ++i)
            v[i] = 1.0;
    std::size_t slices = 0;
    EXPECT_EQ(slicedQuantile(v, 0.5, slices), 1.0);
    EXPECT_EQ(slices, 10u);
    for (double &x : v)
        x *= 2.0;
    EXPECT_EQ(slicedQuantile(v, 0.5, slices), 2.0);
    // Noise over every slice shows.
    for (const std::size_t s : {3u, 6u})
        for (std::size_t i = s * kSliceRequests; i < (s + 1) * kSliceRequests;
             ++i)
            v[i] = 100.0;
    EXPECT_EQ(slicedQuantile(v, 0.5, slices), 100.0);
}

// ---- SLO throughput interpolation ------------------------------------

TEST(SloCrossing, InterpolatesBetweenBracketingSteps)
{
    const std::vector<LoadStep> ladder = {{1000, 0.002, true},
                                          {2000, 0.004, true},
                                          {3000, 0.014, false},
                                          {4000, 0.100, false}};
    const Crossing c = sloCrossing(ladder, 0.010);
    EXPECT_EQ(c.kind, CrossingKind::kInterpolated);
    // 2000 + (10 - 4) / (14 - 4) * 1000
    EXPECT_NEAR(c.rate, 2600.0, 1e-9);
}

TEST(SloCrossing, EveryStepPassesGivesTheTopRate)
{
    const std::vector<LoadStep> ladder = {{1000, 0.002, true},
                                          {2000, 0.003, true}};
    const Crossing c = sloCrossing(ladder, 0.010);
    EXPECT_EQ(c.kind, CrossingKind::kAllPass);
    EXPECT_EQ(c.rate, 2000.0);
}

TEST(SloCrossing, FirstStepFailingInterpolatesFromZeroLoad)
{
    const std::vector<LoadStep> ladder = {{1000, 0.040, false},
                                          {2000, 0.100, false}};
    const Crossing c = sloCrossing(ladder, 0.010);
    EXPECT_EQ(c.kind, CrossingKind::kFirstFails);
    EXPECT_NEAR(c.rate, 250.0, 1e-9);
    EXPECT_GT(c.rate, 0.0);
}

TEST(SloCrossing, FailureOnMissesNotLatencyStopsAtLastPass)
{
    // The step broke on misses or backlog while p99 stayed in limit.
    const std::vector<LoadStep> ladder = {{1000, 0.002, true},
                                          {2000, 0.005, false}};
    const Crossing c = sloCrossing(ladder, 0.010);
    EXPECT_EQ(c.kind, CrossingKind::kInterpolated);
    EXPECT_EQ(c.rate, 1000.0);
}

TEST(SloCrossing, PassAfterFailureIsIgnored)
{
    const std::vector<LoadStep> ladder = {{1000, 0.002, true},
                                          {2000, 0.020, false},
                                          {3000, 0.003, true}};
    EXPECT_NEAR(sloCrossing(ladder, 0.010).rate, 1000 + 8.0 / 18 * 1000,
                1e-9);
}

// ---- best-visit ladder ---------------------------------------------

TEST(BestLadder, ProbesTheLowestRungThatHasNotPassed)
{
    BestLadder b(3);
    EXPECT_EQ(b.next(), 0u);
    b.record(0, {1000, 0.002, true});
    EXPECT_EQ(b.next(), 1u);
    b.record(1, {2000, 0.050, false});
    EXPECT_EQ(b.next(), 1u);
    b.record(1, {2000, 0.004, true});
    b.record(2, {3000, 0.003, true});
    EXPECT_EQ(b.next(), 3u); // every rung passed
    EXPECT_EQ(b.visits(1), 2u);
    EXPECT_EQ(sloCrossing(b.ladder(), 0.010).kind, CrossingKind::kAllPass);
}

TEST(BestLadder, NoisyFailuresNeverWalkDown)
{
    BestLadder b(4);
    b.record(0, {1000, 0.002, true});
    b.record(1, {2000, 0.004, true});
    // A noisy stretch fails the lower rungs again: they stay passed.
    b.record(0, {1000, 0.300, false});
    b.record(1, {2000, 0.300, false});
    EXPECT_EQ(b.next(), 2u);
}

TEST(BestLadder, LadderEndsWithTheBestFailingVisit)
{
    BestLadder b(4);
    b.record(0, {1000, 0.002, true});
    b.record(1, {2000, 0.004, true});
    b.record(2, {3000, 0.100, false});
    b.record(2, {3000, 0.014, false}); // the least noisy failure
    const auto l = b.ladder();
    ASSERT_EQ(l.size(), 3u);
    EXPECT_EQ(l[2].p99, 0.014);
    // 2000 + (10 - 4) / (14 - 4) * 1000
    EXPECT_NEAR(sloCrossing(l, 0.010).rate, 2600.0, 1e-9);
}

TEST(Recall, CountsExactNeighboursFoundInAnyOrder)
{
    const std::vector<int> exact = {1, 2, 3, 4};
    EXPECT_EQ(recallAt(std::vector<int>{4, 3, 2, 1}, exact), 1.0);
    EXPECT_EQ(recallAt(std::vector<int>{4, 9, 1, 8}, exact), 0.5);
    // Finding only the nearest neighbour is a quarter, not a hit.
    EXPECT_EQ(recallAt(std::vector<int>{1, 7, 8, 9}, exact), 0.25);
    EXPECT_EQ(recallAt(std::vector<int>{}, exact), 0.0);
}

// ---- self time ---------------------------------------------------

TEST(SelfTime, NoChildren)
{
    EXPECT_DOUBLE_EQ(selfTime({1.0, 3.0}, {}), 2.0);
}

TEST(SelfTime, OverlappingChildrenCountOnce)
{
    // Two parallel shard scans overlapping on [2, 3).
    EXPECT_DOUBLE_EQ(selfTime({0.0, 10.0}, {{1.0, 3.0}, {2.0, 4.0}}),
                     7.0);
    // Nested and identical children.
    EXPECT_DOUBLE_EQ(
        selfTime({0.0, 10.0}, {{1.0, 5.0}, {2.0, 3.0}, {1.0, 5.0}}), 6.0);
    // Disjoint children, given out of order.
    EXPECT_DOUBLE_EQ(selfTime({0.0, 10.0}, {{6.0, 7.0}, {1.0, 2.0}}),
                     8.0);
}

TEST(SelfTime, ChildrenOutsideTheParentAreClipped)
{
    EXPECT_DOUBLE_EQ(selfTime({2.0, 6.0}, {{0.0, 3.0}, {5.0, 9.0}}), 2.0);
    EXPECT_DOUBLE_EQ(selfTime({2.0, 6.0}, {{7.0, 9.0}}), 4.0);
    EXPECT_DOUBLE_EQ(selfTime({2.0, 6.0}, {{0.0, 9.0}}), 0.0);
}

// ---- result JSON round-trip --------------------------------------

/** Minimal JSON reader for the round-trip test. */
struct Json
{
    using Object = std::map<std::string, Json>;
    using Array = std::vector<Json>;
    std::variant<std::nullptr_t, bool, double, std::string,
                 std::shared_ptr<Array>, std::shared_ptr<Object>>
        v;

    const Json &at(const std::string &k) const
    {
        return std::get<std::shared_ptr<Object>>(v)->at(k);
    }
    double num() const { return std::get<double>(v); }
    const std::string &str() const { return std::get<std::string>(v); }
};

class Reader
{
  public:
    explicit Reader(std::string s) : s_(std::move(s)) {}

    Json
    parse()
    {
        Json j = value();
        ws();
        if (i_ != s_.size())
            throw std::runtime_error("trailing characters");
        return j;
    }

  private:
    void ws()
    {
        while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])))
            ++i_;
    }

    bool
    eat(const char *lit)
    {
        const std::string l(lit);
        if (s_.compare(i_, l.size(), l) == 0) {
            i_ += l.size();
            return true;
        }
        return false;
    }

    std::string
    string()
    {
        std::string out;
        ++i_; // opening quote
        while (s_.at(i_) != '"') {
            char c = s_[i_++];
            if (c == '\\') {
                c = s_.at(i_++);
                if (c == 'u') {
                    out += static_cast<char>(
                        std::stoi(s_.substr(i_, 4), nullptr, 16));
                    i_ += 4;
                    continue;
                }
                if (c == 'n')
                    c = '\n';
            }
            out += c;
        }
        ++i_;
        return out;
    }

    Json
    value()
    {
        ws();
        const char c = s_.at(i_);
        if (c == '{') {
            auto obj = std::make_shared<Json::Object>();
            ++i_;
            ws();
            if (s_[i_] == '}') {
                ++i_;
                return {obj};
            }
            for (;;) {
                ws();
                const std::string k = string();
                ws();
                ++i_; // ':'
                (*obj)[k] = value();
                ws();
                if (s_.at(i_++) == '}')
                    return {obj};
            }
        }
        if (c == '[') {
            auto arr = std::make_shared<Json::Array>();
            ++i_;
            ws();
            if (s_[i_] == ']') {
                ++i_;
                return {arr};
            }
            for (;;) {
                arr->push_back(value());
                ws();
                if (s_.at(i_++) == ']')
                    return {arr};
            }
        }
        if (c == '"')
            return {string()};
        if (eat("true"))
            return {true};
        if (eat("false"))
            return {false};
        if (eat("null"))
            return {nullptr};
        std::size_t used = 0;
        const double d = std::stod(s_.substr(i_), &used);
        i_ += used;
        return {d};
    }

    std::string s_;
    std::size_t i_ = 0;
};

TEST(ResultJson, RoundTripsExactly)
{
    const double awkward[] = {1.0 / 3.0, 1e-300, 123456789.123456789,
                              0.1 + 0.2, 6.02214076e23};
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv("correct", true);
    w.kv("attempted", std::size_t{123456});
    w.kv("failed", std::size_t{0});
    w.kv("cpu_model", "Xeon \"quoted\" \\ path\nnext");
    w.key("metrics");
    w.beginObject();
    for (std::size_t i = 0; i < std::size(awkward); ++i) {
        w.key("m" + std::to_string(i));
        w.beginObject();
        w.kv("value", awkward[i]);
        w.kv("unit", "ms");
        w.endObject();
    }
    w.key("nan");
    w.beginObject();
    w.kv("value", std::numeric_limits<double>::quiet_NaN());
    w.endObject();
    w.endObject();
    w.key("empty");
    w.beginArray();
    w.endArray();
    w.endObject();

    const Json j = Reader(os.str()).parse();
    EXPECT_TRUE(std::get<bool>(j.at("correct").v));
    EXPECT_EQ(j.at("attempted").num(), 123456.0);
    EXPECT_EQ(j.at("failed").num(), 0.0);
    EXPECT_EQ(j.at("cpu_model").str(), "Xeon \"quoted\" \\ path\nnext");
    for (std::size_t i = 0; i < std::size(awkward); ++i) {
        const Json &m = j.at("metrics").at("m" + std::to_string(i));
        EXPECT_EQ(m.at("value").num(), awkward[i]) << "metric " << i;
        EXPECT_EQ(m.at("unit").str(), "ms");
    }
    EXPECT_TRUE(std::holds_alternative<std::nullptr_t>(
        j.at("metrics").at("nan").at("value").v));
}

} // namespace
} // namespace perfbench
