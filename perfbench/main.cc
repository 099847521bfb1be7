/**
 * @file
 * Repo benchmark runner: runs one workload of workloads.h against the
 * real engine (core + vecsearch + storage) in this process, checks the
 * served answers, and writes every metric to a result file.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--result PATH] [--work-dir DIR]
 *             [--git-sha SHA] [--git-dirty 0|1]
 *
 * The end-to-end metrics come from per-request timestamps the load
 * generator takes around submitAsync() and the response callback;
 * never from the engine's sampled digests. With --trace 1 the run
 * also wraps the layers' public entry points (shard backends, the
 * mmap cold tier, the writer's append and merge calls, a serial
 * vecsearch replay) in timed spans and derives the per-layer metrics
 * and each layer's self time from them.
 *
 * Exit status is non-zero when a correctness gate fails: served hits
 * that differ from serial IvfPqFastScanIndex::search, recall below the
 * workload's floor, disposition or tenant counts that do not sum, or
 * a request left unresolved.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <sys/wait.h>
#include <unistd.h>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/threadpool.h"
#include "core/access_profile.h"
#include "core/engine_builder.h"
#include "core/engine_runtime.h"
#include "core/shard_backend.h"
#include "core/slo_autopilot.h"
#include "storage/index_store.h"
#include "storage/mmap_cold_tier.h"
#include "vecsearch/fastscan.h"
#include "vecsearch/ivf_pq_fastscan.h"
#include "vecsearch/metric.h"
#include "vecsearch/topk.h"
#include "workload/dataset.h"
#include "workload/plans.h"
#include "workload/tenant.h"

#include "metrics.h"
#include "workloads.h"

namespace perfbench
{
namespace
{

using namespace vlr;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

/** Seconds since process start on the steady clock. */
double
now()
{
    return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

void
sleepUntil(double t)
{
    std::this_thread::sleep_until(
        kEpoch + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(t)));
}

// ------------------------------------------------------------------
// Command line
// ------------------------------------------------------------------

struct Args
{
    const Workload *workload = nullptr;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string result = "perfbench-result.json";
    std::string workDir = ".";
    std::string gitSha = "unknown";
    std::string gitDirty = "unknown";
};

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "perfbench: " << error << "\n"
              << "usage: perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--result PATH] "
                 "[--work-dir DIR] [--git-sha SHA] [--git-dirty 0|1]\n"
              << "workloads:";
    for (const Workload &w : workloads())
        std::cerr << " " << w.name;
    std::cerr << "\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        try {
            if (flag == "--workload") {
                for (const Workload &w : workloads())
                    if (w.name == v)
                        a.workload = &w;
                if (!a.workload)
                    usage("unknown workload '" + v + "'");
            } else if (flag == "--seed") {
                a.seed = std::stoull(v);
            } else if (flag == "--seconds") {
                a.seconds = std::stod(v);
                if (!(a.seconds >= 1.0 && a.seconds <= 600.0))
                    usage("--seconds must be in [1, 600]");
            } else if (flag == "--trace") {
                if (v != "0" && v != "1")
                    usage("--trace must be 0 or 1");
                a.trace = v == "1";
            } else if (flag == "--result") {
                a.result = v;
            } else if (flag == "--work-dir") {
                a.workDir = v;
            } else if (flag == "--git-sha") {
                a.gitSha = v;
            } else if (flag == "--git-dirty") {
                a.gitDirty = v;
            } else {
                usage("unknown flag '" + flag + "'");
            }
        } catch (const std::logic_error &) {
            usage("bad value '" + v + "' for " + flag);
        }
    }
    if (!a.workload)
        usage("--workload is required");
    return a;
}

// ------------------------------------------------------------------
// Tracing: spans kept in memory, written once at exit
// ------------------------------------------------------------------

enum class SpanKind : std::uint8_t
{
    kRequest,
    kQueue,
    kSearch,
    kShardScan,
    kColdScan,
    kAppend,
    kMerge,
    kControl,
    kReplayQuery,
    kReplayCq,
    kReplayLut,
    kReplayScan,
    kReplayKernel,
};

const char *
spanName(SpanKind k)
{
    switch (k) {
    case SpanKind::kRequest: return "request";
    case SpanKind::kQueue: return "engine.queue";
    case SpanKind::kSearch: return "engine.search";
    case SpanKind::kShardScan: return "tiered.shard_scan";
    case SpanKind::kColdScan: return "storage.cold_scan";
    case SpanKind::kAppend: return "storage.append";
    case SpanKind::kMerge: return "storage.merge";
    case SpanKind::kControl: return "autopilot.cycle";
    case SpanKind::kReplayQuery: return "vecsearch.query";
    case SpanKind::kReplayCq: return "vecsearch.cq";
    case SpanKind::kReplayLut: return "vecsearch.lut";
    case SpanKind::kReplayScan: return "vecsearch.scan";
    case SpanKind::kReplayKernel: return "vecsearch.kernel";
    }
    return "?";
}

/** One timed call. `id` groups the spans of one request (or one
 *  replayed query); `parent` names the span that caused it. */
struct Span
{
    SpanKind kind = SpanKind::kRequest;
    std::optional<SpanKind> parent;
    std::uint64_t id = 0;
    /** Shard index for shard scans. */
    std::uint32_t shard = 0;
    double start = 0.0;
    double end = 0.0;
};

class SpanSink
{
  public:
    void
    add(const Span &s)
    {
        std::lock_guard<std::mutex> lk(mutex_);
        spans_.push_back(s);
    }

    std::vector<Span>
    take()
    {
        std::lock_guard<std::mutex> lk(mutex_);
        return std::move(spans_);
    }

  private:
    std::mutex mutex_;
    std::vector<Span> spans_;
};

/** FNV-1a over a query's bytes: how a backend scan is attributed to
 *  the request that submitted those bytes. */
std::uint64_t
queryKey(const float *q, std::size_t d)
{
    std::uint64_t h = 1469598103934665603ULL;
    const auto *p = reinterpret_cast<const unsigned char *>(q);
    for (std::size_t i = 0; i < d * sizeof(float); ++i)
        h = (h ^ p[i]) * 1099511628211ULL;
    return h;
}

/**
 * Timing wrapper around a shard backend (hot shards, through the
 * ShardBackendFactory) or the mmap cold tier (through coldTier()).
 * Forwards every call; records one span per searchClusters keyed by
 * the query's bytes.
 */
class TimedBackend : public core::HotShardBackend
{
  public:
    TimedBackend(std::unique_ptr<core::HotShardBackend> owned,
                 SpanSink &sink, SpanKind kind, std::uint32_t shard,
                 std::size_t dim)
        : owned_(std::move(owned)), inner_(*owned_), sink_(sink),
          kind_(kind), shard_(shard), dim_(dim)
    {
    }

    TimedBackend(const core::HotShardBackend &inner, SpanSink &sink,
                 SpanKind kind, std::size_t dim)
        : inner_(inner), sink_(sink), kind_(kind), dim_(dim)
    {
    }

    std::vector<vs::SearchHit>
    searchClusters(const float *query, std::size_t k,
                   std::span<const cluster_id_t> clusters,
                   vs::SearchScratch *scratch) const override
    {
        const double t0 = now();
        auto hits = inner_.searchClusters(query, k, clusters, scratch);
        const double t1 = now();
        sink_.add({.kind = kind_,
                   .parent = SpanKind::kSearch,
                   .id = queryKey(query, dim_),
                   .shard = shard_,
                   .start = t0,
                   .end = t1});
        return hits;
    }

    std::size_t bytes() const override { return inner_.bytes(); }
    std::size_t numClusters() const override
    {
        return inner_.numClusters();
    }
    std::size_t numVectors() const override
    {
        return inner_.numVectors();
    }
    std::string name() const override
    {
        return "timed(" + inner_.name() + ")";
    }
    std::size_t residentBytes() const override
    {
        return inner_.residentBytes();
    }
    std::size_t residentClusters() const override
    {
        return inner_.residentClusters();
    }

  private:
    std::unique_ptr<core::HotShardBackend> owned_;
    const core::HotShardBackend &inner_;
    SpanSink &sink_;
    SpanKind kind_;
    std::uint32_t shard_ = 0;
    std::size_t dim_;
};

// ------------------------------------------------------------------
// Per-request records
// ------------------------------------------------------------------

enum class Status : std::uint8_t
{
    kPending,
    kServed,
    kExpired,
    kRejected,
    kThrown,
};

/** Timestamps and engine timings of one request. Written once by the
 *  thread that resolves it; read after every request resolved. */
struct Record
{
    double due = 0.0;
    double sent = 0.0;
    double done = 0.0;
    double queue = 0.0;
    double search = 0.0;
    std::uint32_t step = 0;
    std::uint64_t tenant = 0;
    std::uint64_t key = 0;
    Status status = Status::kPending;
    /** Inside a timed (post-warm-up) window. */
    bool measured = false;
};

/**
 * Submission side shared by the load generator and the callbacks.
 * Records live in a deque so the generator can append while
 * callbacks write through pointers to earlier records.
 */
struct Requests
{
    std::deque<Record> records;
    /** Hits of the first `sampleSize` requests, for the gates. */
    std::size_t sampleSize = 0;
    std::vector<std::vector<vs::SearchHit>> sampleHits;
    std::atomic<std::size_t> resolved{0};
    /** Closed loop: requests in flight. */
    std::atomic<std::size_t> inflight{0};

    explicit Requests(std::size_t sample)
        : sampleSize(sample), sampleHits(sample)
    {
    }

    /** Submit request @p req now; @p due is its scheduled send time. */
    void
    submit(core::RetrievalEngine &engine, const core::SearchRequest &req,
           double due, std::uint32_t step, bool measured, bool trace)
    {
        const std::size_t idx = records.size();
        Record &rec = records.emplace_back();
        rec.due = due;
        rec.step = step;
        rec.tenant = req.tenant.value;
        rec.measured = measured;
        if (trace)
            rec.key = queryKey(req.query.data(), req.query.size());
        inflight.fetch_add(1, std::memory_order_relaxed);
        Record *slot = &rec;
        std::vector<vs::SearchHit> *hits =
            idx < sampleSize ? &sampleHits[idx] : nullptr;
        rec.sent = now();
        try {
            engine.submitAsync(req, [this, slot,
                                     hits](core::SearchResponse r) {
                slot->done = now();
                slot->queue = r.queueSeconds;
                slot->search = r.searchSeconds;
                switch (r.disposition) {
                case core::Disposition::kServed:
                    slot->status = Status::kServed;
                    break;
                case core::Disposition::kExpiredInQueue:
                    slot->status = Status::kExpired;
                    break;
                case core::Disposition::kRejected:
                    slot->status = Status::kRejected;
                    break;
                }
                if (hits)
                    *hits = std::move(r.hits);
                finish();
            });
        } catch (const std::exception &e) {
            std::cerr << "submit threw: " << e.what() << "\n";
            slot->done = now();
            slot->status = Status::kThrown;
            finish();
        }
    }

    void
    finish()
    {
        resolved.fetch_add(1, std::memory_order_release);
        inflight.fetch_sub(1, std::memory_order_release);
        inflight.notify_one();
    }

    /** Wait until every submitted request resolved; false on timeout. */
    bool
    waitAll(double timeout_s)
    {
        const double limit = now() + timeout_s;
        while (resolved.load(std::memory_order_acquire) < records.size()) {
            if (now() > limit)
                return false;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return true;
    }
};

/** End-to-end latency of a resolved request: from its due time (open
 *  loop) or its send (closed loop) to the callback. Unserved requests
 *  count as infinitely late: they miss any limit. */
double
latencyOf(const Record &r, bool open_loop)
{
    if (r.status != Status::kServed)
        return std::numeric_limits<double>::infinity();
    return r.done - (open_loop ? r.due : r.sent);
}

// ------------------------------------------------------------------
// Corpus, inputs and ground truth
// ------------------------------------------------------------------

/**
 * Fills @p v (dim floats) with @p centre plus Gaussian noise of
 * @p stddev per dimension.
 */
void
around(const float *centre, double stddev, Rng &rng, float *v,
       std::size_t dim)
{
    for (std::size_t j = 0; j < dim; ++j)
        v[j] = centre[j] + static_cast<float>(rng.gaussian(0.0, stddev));
}

/**
 * The corpus: the preset's cluster centres and sizes (the dataset's
 * stats), filled with documents that have near neighbours. Each
 * cluster is cut into groups of kCorpus.groupSize documents around a
 * group centre, so a query's exact top 10 is mostly its document's
 * group mates. In a plain Gaussian blob every member is nearly
 * equidistant from a query, and Recall@10 would measure nothing
 * beyond the nearest neighbour.
 */
struct Corpus
{
    wl::SyntheticDataset ds;
    std::vector<float> vectors;
    std::vector<std::int32_t> assignments;

    std::size_t size() const { return assignments.size(); }
    std::size_t dim() const { return ds.spec().dim; }
};

Corpus
makeCorpus()
{
    wl::DatasetSpec spec = wl::tinySpec();
    spec.name = "perfbench";
    spec.numVectors = kCorpus.numVectors;
    spec.dim = kCorpus.dim;
    spec.numClusters = kCorpus.nlist;
    spec.clusterSizeZipf = kCorpus.clusterSizeZipf;
    spec.seed = kCorpusSeed;
    Corpus c{wl::SyntheticDataset(spec), {}, {}};
    c.ds.buildStats();
    const std::size_t d = spec.dim;
    c.vectors.resize(spec.numVectors * d);
    c.assignments.reserve(spec.numVectors);
    Rng rng(kCorpusSeed ^ 0xC0B0u);
    std::vector<float> group(d);
    for (std::size_t cl = 0; cl < spec.numClusters; ++cl) {
        const float *centre = c.ds.centers().data() + cl * d;
        for (std::size_t i = 0; i < c.ds.clusterSizes()[cl]; ++i) {
            if (i % kCorpus.groupSize == 0)
                around(centre, kCorpus.groupStd, rng, group.data(), d);
            around(group.data(), kCorpus.docStd, rng,
                   c.vectors.data() + c.assignments.size() * d, d);
            c.assignments.push_back(static_cast<std::int32_t>(cl));
        }
    }
    return c;
}

/** Exact top-@p k by a full L2 scan (what vs::FlatIndex computes),
 *  without copying the corpus into a second index. Queries go in
 *  blocks and the corpus in L2-sized chunks, so the corpus streams
 *  from memory once per block rather than once per query. */
std::vector<std::vector<vs::SearchHit>>
exactTopK(const Corpus &corpus,
          const std::vector<std::vector<float>> &queries, std::size_t k)
{
    constexpr std::size_t kQueryBlock = 64;
    constexpr std::size_t kDocChunk = 1024;
    const std::size_t n = corpus.size();
    const std::size_t d = corpus.dim();
    const std::size_t blocks = (queries.size() + kQueryBlock - 1) / kQueryBlock;
    std::vector<std::vector<vs::SearchHit>> out(queries.size());
    ThreadPool pool(4);
    pool.parallelFor(blocks, [&](std::size_t b) {
        const std::size_t q0 = b * kQueryBlock;
        const std::size_t q1 = std::min(q0 + kQueryBlock, queries.size());
        std::vector<vs::TopK> tops(q1 - q0, vs::TopK(k));
        for (std::size_t c0 = 0; c0 < n; c0 += kDocChunk) {
            const std::size_t c1 = std::min(c0 + kDocChunk, n);
            for (std::size_t q = q0; q < q1; ++q) {
                vs::TopK &top = tops[q - q0];
                for (std::size_t j = c0; j < c1; ++j) {
                    const float dist = vs::l2Sqr(
                        queries[q].data(), corpus.vectors.data() + j * d, d);
                    if (dist <= top.worst())
                        top.push(static_cast<idx_t>(j), dist);
                }
            }
        }
        for (std::size_t q = q0; q < q1; ++q)
            out[q] = tops[q - q0].sortedHits();
    });
    return out;
}

/** Recall@k of served hits against the exact ones. */
double
recallOf(const std::vector<vs::SearchHit> &got,
         const std::vector<vs::SearchHit> &truth)
{
    const auto ids = [](const std::vector<vs::SearchHit> &hits) {
        std::vector<idx_t> out;
        for (const vs::SearchHit &h : hits)
            out.push_back(h.id);
        return out;
    };
    return recallAt(ids(got), ids(truth));
}

/**
 * A generated trace whose queries are re-anchored on documents. The
 * trace picks each query's cluster (Zipf popularity, hotspot flips,
 * tenants); the query becomes a random member of that cluster plus
 * small noise, so its exact top 10 are that document and its group
 * mates, and recall measures whether the engine finds them. (Queries
 * drawn around a cluster centre are nearly equidistant from every
 * member, which makes any recall figure noise.)
 */
struct Inputs
{
    wl::WorkloadTrace trace;
    std::vector<std::vector<float>> queries;

    std::size_t size() const { return queries.size(); }
    double at(std::size_t i) const { return trace.requests()[i].atSeconds; }

    core::SearchRequest
    request(std::size_t i) const
    {
        core::SearchRequest r = trace.request(i);
        r.query = queries[i];
        return r;
    }
};

Inputs
anchorOnDocuments(wl::WorkloadTrace trace, const Corpus &corpus,
                  const vs::CoarseQuantizer &cq, std::uint64_t seed)
{
    const std::size_t d = corpus.dim();
    std::vector<std::vector<std::size_t>> members(
        corpus.ds.spec().numClusters);
    for (std::size_t i = 0; i < corpus.size(); ++i)
        members[static_cast<std::size_t>(corpus.assignments[i])].push_back(i);
    Inputs in{std::move(trace), {}};
    in.queries.resize(in.trace.size());
    ThreadPool pool(4);
    pool.parallelFor(in.queries.size(), [&](std::size_t i) {
        const auto &q = in.trace.requests()[i].query;
        const auto c = static_cast<std::size_t>(
            cq.probe(q.data(), 1).clusters.front());
        // Rng seeds through splitmix64, so nearby seeds decorrelate.
        Rng rng((seed << 32) ^ (i * 0x9E3779B97F4A7C15ULL));
        const auto &pool_c = members[c];
        const float *doc =
            corpus.vectors.data() +
            pool_c[rng.uniformU64(pool_c.size())] * d;
        auto &out = in.queries[i];
        out.resize(d);
        for (std::size_t j = 0; j < d; ++j)
            out[j] = doc[j] + static_cast<float>(
                                  rng.gaussian(0.0, kQueryNoise));
    });
    return in;
}

/** Single-tenant inputs at unit rate: the ladder rescales the gaps,
 *  so every step draws from one popularity order. */
Inputs
unitInputs(const Workload &w, const Corpus &corpus,
           const vs::CoarseQuantizer &cq, std::uint64_t seed,
           std::size_t count)
{
    wl::WorkloadScript script;
    script.horizonSeconds = static_cast<double>(count);
    wl::TenantSpec t;
    t.name = "single";
    t.arrivalRate = 1.0;
    t.zipfTheta = w.zipfTheta;
    t.k = w.k;
    t.nprobe = w.nprobe;
    script.tenants.push_back(t);
    return anchorOnDocuments(
        wl::WorkloadTrace::generate(script, corpus.ds, seed), corpus, cq,
        seed);
}

/** AccessProfile from calibration queries (the paper's offline
 *  profiling pass). */
std::unique_ptr<core::AccessProfile>
profileFrom(const wl::SyntheticDataset &ds, const vs::CoarseQuantizer &cq,
            const std::vector<float> &queries, std::size_t nprobe)
{
    const std::size_t nq = queries.size() / ds.spec().dim;
    std::vector<double> work(ds.spec().numClusters);
    for (std::size_t c = 0; c < work.size(); ++c)
        work[c] = static_cast<double>(ds.clusterSizes()[c]);
    const auto plans = wl::PlanSet::build(cq, queries, nq, nprobe, work);
    return std::make_unique<core::AccessProfile>(
        core::AccessProfile::fromPlans(plans, ds));
}

// ------------------------------------------------------------------
// Engine set-up
// ------------------------------------------------------------------

/** Everything a running engine references, destroyed engine first. */
struct Served
{
    std::unique_ptr<vs::IvfPqFastScanIndex> index;
    std::unique_ptr<core::AccessProfile> profile;
    std::unique_ptr<storage::MmapColdTier> cold;
    std::unique_ptr<TimedBackend> coldTimed;
    std::unique_ptr<core::RetrievalEngine> engine;

    /** Tear down engine first: it references everything else. */
    void
    reset()
    {
        engine.reset();
        coldTimed.reset();
        cold.reset();
        profile.reset();
        index.reset();
    }

    /** Index the engine searches (for serial reference searches). */
    const vs::IvfPqFastScanIndex &
    source() const
    {
        return engine->tiered() ? engine->tiered()->source() : *index;
    }
};

core::EngineConfig
engineConfig(const Workload &w)
{
    core::EngineConfig cfg;
    cfg.batching = {.maxBatch = w.maxBatch,
                    .timeoutSeconds = w.batchTimeoutSeconds,
                    .maxQueue = 0};
    cfg.defaultK = w.k;
    cfg.defaultNprobe = w.nprobe;
    cfg.numSearchThreads = w.searchThreads;
    cfg.numHotShards = w.hotShards;
    return cfg;
}

core::ShardBackendFactory
shardFactory(SpanSink *sink, std::size_t dim)
{
    if (!sink)
        return core::fastScanShardFactory();
    return [sink, dim](const vs::IvfPqFastScanIndex &source,
                       std::span<const cluster_id_t> clusters,
                       std::size_t shard_id)
               -> std::unique_ptr<core::HotShardBackend> {
        return std::make_unique<TimedBackend>(
            std::make_unique<core::FastScanShardBackend>(source,
                                                         clusters),
            *sink, SpanKind::kShardScan,
            static_cast<std::uint32_t>(shard_id), dim);
    };
}

constexpr core::TenantId kPremium{1};
constexpr core::TenantId kBestEffort{2};
/** Bounded admission queue of restore-ingest, and the most requests
 *  its gate probe keeps queued (under the premium share of it). */
constexpr std::size_t kRestoreMaxQueue = 1024;
constexpr std::size_t kProbeRound = 256;

/**
 * Train + encode + profile + build: the set-up a user pays before the
 * first request on tiered-zipf.
 */
Served
setupTrained(const Workload &w, const Corpus &corpus,
             const std::shared_ptr<vs::FlatCoarseQuantizer> &cq,
             const std::vector<float> &calibration, SpanSink *sink)
{
    const wl::SyntheticDataset &ds = corpus.ds;
    Served s;
    s.index = std::make_unique<vs::IvfPqFastScanIndex>(cq, kCorpus.m);
    s.index->train(corpus.vectors, corpus.size());
    s.index->addPreassigned(corpus.vectors, corpus.size(),
                            corpus.assignments);
    core::EngineBuilder b(*s.index);
    core::EngineConfig cfg = engineConfig(w);
    s.profile = profileFrom(ds, *cq, calibration, w.nprobe);
    cfg.shardBackendFactory = shardFactory(sink, ds.spec().dim);
    b.config(cfg).tieredFromProfile(*s.profile, w.rho);
    s.engine = b.build();
    return s;
}

/**
 * Artifact restore + MmapColdTier open + build: the restart path of
 * restore-ingest. @p restore_s receives the fromArtifact() time.
 */
Served
setupRestored(const Workload &w, const std::string &artifact,
              const core::AccessProfile &profile, std::size_t dim,
              SpanSink *sink, double &restore_s)
{
    Served s;
    const double t0 = now();
    auto b = core::EngineBuilder::fromArtifact(artifact);
    restore_s = now() - t0;
    s.cold = std::make_unique<storage::MmapColdTier>(artifact);
    const core::HotShardBackend *cold = s.cold.get();
    if (sink) {
        s.coldTimed = std::make_unique<TimedBackend>(
            *s.cold, *sink, SpanKind::kColdScan, dim);
        cold = s.coldTimed.get();
    }
    core::EngineConfig cfg = engineConfig(w);
    cfg.shardBackendFactory = shardFactory(sink, dim);
    cfg.batching.maxQueue = kRestoreMaxQueue;
    cfg.tenants.enable = true;
    cfg.tenants.fairService = true;
    cfg.tenants.classes = {
        {.id = kPremium,
         .name = "premium",
         .share = 0.5,
         .weight = 4.0,
         .slo = {.missRateTarget = 0.01, .p99TargetSeconds = 0.0},
         .degradable = false},
        {.id = kBestEffort,
         .name = "best-effort",
         .share = 0.5,
         .weight = 1.0,
         .slo = {.missRateTarget = 0.05, .p99TargetSeconds = 0.0},
         .degradable = true},
    };
    cfg.autopilot.enable = true;
    // No timer: the run calls runControlCycle() at w.controlAt.
    cfg.autopilot.controlIntervalSeconds = 0.0;
    cfg.autopilot.minRho = 0.1;
    cfg.autopilot.maxRho = 0.6;
    s.engine = b.config(cfg)
                   .tieredFromProfile(profile, w.rho)
                   .coldTier(cold)
                   .build();
    return s;
}

// ------------------------------------------------------------------
// Results
// ------------------------------------------------------------------

/** A named metric with its unit, as printed and written. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    /** Sample count behind a latency percentile (0 = not a sample). */
    std::size_t samples = 0;
};

struct StepRecord
{
    /** Order of the step in the run. */
    std::size_t visit = 0;
    std::size_t step = 0;
    double offered = 0.0;
    LoadStep load;
    LatencyStats latency;
    double missPct = 0.0;
};

struct Outcome
{
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    /** Failed gates, one line each. */
    std::vector<std::string> failures;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    double missPct = 0.0;
    std::vector<std::string> notes;
    /** Every load step run, in order (one per visit of a ladder rung). */
    std::vector<StepRecord> steps;
    /** Measured share of accesses on the top 20% of clusters (-1 =
     *  not measured: the workload has no access profile). */
    double top20Share = -1.0;

    void
    e2e(std::string name, std::string unit, double v, std::size_t n = 0)
    {
        endToEnd.push_back({std::move(name), std::move(unit), v, n});
    }

    void
    layer(std::string name, std::string unit, double v,
          std::size_t n = 0)
    {
        perLayer.push_back({std::move(name), std::move(unit), v, n});
    }

    void
    gate(bool ok, const std::string &what)
    {
        if (!ok)
            failures.push_back(what);
    }
};

/** Records the measured access concentration of the calibration
 *  queries beside the paper's figure for the modelled dataset. */
void
noteAccessShare(Outcome &out, const Workload &w,
                const core::AccessProfile &profile)
{
    out.top20Share = evalConcentration(profile.accessConcentration(), 0.2);
    std::ostringstream os;
    os << "top 20% of clusters receive " << out.top20Share * 100.0
       << "% of accesses (paper: " << w.paperTop20Share * 100.0 << "%)";
    out.notes.push_back(os.str());
}

/**
 * ru_maxrss when the engine is ready to serve: after set-up and
 * warm-up, before the timed load. Read later, it would also count the
 * benchmark's own per-request log, which grows with the rates a run
 * reaches (61-77 MB over five tiered-zipf seeds), not with the engine.
 */
double
servingPeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** Steal and total jiffies of all vCPUs from /proc/stat; zeros when
 *  it cannot be read. */
std::pair<double, double>
hostCpuJiffies()
{
    std::ifstream is("/proc/stat");
    std::string cpu;
    double v = 0.0, total = 0.0, steal = 0.0;
    is >> cpu;
    for (int field = 0; cpu == "cpu" && field < 8 && (is >> v); ++field) {
        total += v;
        if (field == 7)
            steal = v;
    }
    return {steal, total};
}

std::string
cpuModel()
{
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return quantileSorted(v, 0.5);
}

// ------------------------------------------------------------------
// Request-level analysis shared by the workloads
// ------------------------------------------------------------------

/** Latency and disposition digest of a set of records. */
struct WindowStats
{
    /** Over every request in the window (p50, count, plain p99). */
    LatencyStats latency;
    /** slicedP99 and the sliced median of the window: the reported
     *  p99 and p50. */
    double p99 = 0.0;
    double p50 = 0.0;
    std::size_t p99Slices = 0;
    std::size_t attempted = 0;
    std::size_t unserved = 0;
    std::size_t overLimit = 0;
    double missPct = 0.0;
    double worstTenantP99 = 0.0;
    std::size_t worstTenantSamples = 0;
    /** Completions per second inside [from, to). */
    double completionRate = 0.0;
    /** Requests sent per second inside [from, to). */
    double sendRate = 0.0;
};

WindowStats
windowStats(const std::deque<Record> &records,
            const std::function<bool(const Record &)> &in, bool open_loop,
            double limit, const std::vector<Interval> &windows)
{
    WindowStats w;
    std::vector<double> lat;
    std::map<std::uint64_t, std::vector<double>> by_tenant;
    std::size_t completions = 0, sends = 0;
    const auto inside = [&](double t) {
        return std::any_of(windows.begin(), windows.end(),
                           [t](const Interval &i) {
                               return t >= i.start && t < i.end;
                           });
    };
    for (const Record &r : records) {
        if (r.status == Status::kServed && inside(r.done))
            ++completions;
        if (inside(r.sent))
            ++sends;
        if (!in(r))
            continue;
        const double l = latencyOf(r, open_loop);
        lat.push_back(l);
        by_tenant[r.tenant].push_back(l);
        ++w.attempted;
        if (r.status != Status::kServed)
            ++w.unserved;
        else if (l > limit)
            ++w.overLimit;
    }
    w.p99 = slicedP99(lat, w.p99Slices);
    w.p50 = slicedQuantile(lat, 0.5, w.p99Slices);
    w.latency = latencyStats(std::move(lat));
    w.missPct = w.attempted == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(w.unserved + w.overLimit) /
                          static_cast<double>(w.attempted);
    for (const auto &[tenant, v] : by_tenant) {
        std::size_t slices = 0;
        const double p99 = slicedP99(v, slices);
        if (p99 >= w.worstTenantP99) {
            w.worstTenantP99 = p99;
            w.worstTenantSamples = v.size();
        }
    }
    double span = 1e-9;
    for (const Interval &i : windows)
        span += i.end - i.start;
    w.completionRate = static_cast<double>(completions) / span;
    w.sendRate = static_cast<double>(sends) / span;
    return w;
}

/** The plain percentiles behind the reported (sliced) p99. */
void
noteTail(Outcome &out, const WindowStats &ws)
{
    std::ostringstream os;
    os << "p99 over all " << ws.latency.count << " requests "
       << ws.latency.p99 * 1e3 << " ms; highest tail with "
       << kTailSupport << " samples beyond it: p" << ws.latency.tailPercentile
       << " = " << ws.latency.tail * 1e3
       << " ms; p50_ms and p99_ms are the fastest tenth of "
       << ws.p99Slices << " slices of " << kSliceRequests << " requests";
    out.notes.push_back(os.str());
}

/** Engine-stage percentiles over served records in a window. */
void
addEngineLayers(Outcome &out, const std::deque<Record> &records,
                const std::function<bool(const Record &)> &in,
                bool open_loop, const core::EngineStatsSnapshot &st)
{
    std::vector<double> lag, queue, search, other;
    for (const Record &r : records) {
        if (!in(r))
            continue;
        if (open_loop)
            lag.push_back(r.sent - r.due);
        if (r.status != Status::kServed)
            continue;
        queue.push_back(r.queue);
        search.push_back(r.search);
        other.push_back((r.done - r.sent) - r.queue - r.search);
    }
    const LatencyStats lag_s = latencyStats(lag);
    const LatencyStats q = latencyStats(queue);
    const LatencyStats s = latencyStats(search);
    const LatencyStats o = latencyStats(other);
    out.layer("loadgen.lag_p99_ms", "ms",
              open_loop ? lag_s.p99 * 1e3 : 0.0, lag_s.count);
    out.layer("engine.queue_p99_ms", "ms", q.p99 * 1e3, q.count);
    out.layer("engine.batch_ms_p50", "ms", s.p50 * 1e3, s.count);
    out.layer("engine.batch_size_mean", "count", st.meanBatchSize);
    out.layer("engine.other_us_p50", "us", o.p50 * 1e6, o.count);
    out.layer("engine.rejected", "count",
              static_cast<double>(st.rejected));
    out.layer("engine.expired", "count", static_cast<double>(st.expired));
}

void
addTieredLayers(Outcome &out, const core::RetrievalEngine &engine,
                const std::vector<Span> &spans)
{
    const core::TieredIndex *t = engine.tiered();
    const core::EngineStatsSnapshot es = engine.stats();
    double hit = 0, hot_only = 0, scans = 0, cold_us = 0, balance = 0;
    double rho = 0, resident_mb = 0;
    if (t) {
        const core::TieredStatsSnapshot ts = t->stats();
        const double q = std::max<double>(1.0, static_cast<double>(ts.queries));
        hit = ts.meanHitRate;
        hot_only = 100.0 * static_cast<double>(ts.hotOnlyQueries) / q;
        const double shard_scans = std::accumulate(
            ts.shardScanCounts.begin(), ts.shardScanCounts.end(), 0.0);
        scans = (shard_scans + static_cast<double>(ts.coldScanCounts)) / q;
        cold_us = ts.coldScanCounts == 0
                      ? 0.0
                      : 1e6 * ts.coldScanSeconds /
                            static_cast<double>(ts.coldScanCounts);
        // The per-shard arrays are sized for the most shards a
        // repartition may build; only the live shards count.
        const auto live = std::min(ts.numShards, ts.shardProbeCounts.size());
        if (live > 0) {
            const auto [lo, hi] = std::minmax_element(
                ts.shardProbeCounts.begin(),
                ts.shardProbeCounts.begin() +
                    static_cast<std::ptrdiff_t>(live));
            balance = *hi == 0 ? 0.0
                               : static_cast<double>(*lo) /
                                     static_cast<double>(*hi);
        }
        rho = t->rho();
        resident_mb = static_cast<double>(ts.coldResidentBytes) /
                      (1024.0 * 1024.0);
    }
    double hot_s = 0;
    std::size_t hot_n = 0;
    for (const Span &s : spans)
        if (s.kind == SpanKind::kShardScan) {
            hot_s += s.end - s.start;
            ++hot_n;
        }
    out.layer("tiered.hit_rate", "ratio", hit);
    out.layer("tiered.hot_only_pct", "%", hot_only);
    out.layer("tiered.scans_per_query", "count", scans);
    out.layer("tiered.hot_scan_us", "us",
              hot_n == 0 ? 0.0 : 1e6 * hot_s / static_cast<double>(hot_n),
              hot_n);
    out.layer("tiered.cold_scan_us", "us", cold_us);
    out.layer("tiered.probe_balance", "ratio", balance);
    out.layer("autopilot.cycles", "count",
              static_cast<double>(es.autopilotCycles));
    out.layer("autopilot.repartitions", "count",
              static_cast<double>(es.autopilotRepartitions));
    out.layer("autopilot.final_rho", "ratio",
              es.autopilotCycles > 0 ? rho : 0.0);
    out.layer("storage.cold_resident_mb", "MB", resident_mb);
}

/**
 * Serial vecsearch replay: SearchBreakdown from
 * IvfPqFastScanIndex::search, then the fast-scan kernel alone over the
 * same probed lists with each query's quantized LUT.
 */
void
addVecsearchLayers(Outcome &out, const vs::IvfPqFastScanIndex &index,
                   const std::vector<std::vector<float>> &queries,
                   std::size_t k, std::size_t nprobe, SpanSink &sink)
{
    const std::size_t m = index.pq().numSub();
    vs::SearchScratch scratch;
    double cq = 0, lut = 0, scan = 0, kernel = 0, codes = 0;
    std::vector<float> flut(index.pq().lutSize());
    std::vector<std::uint16_t> scores;
    for (std::size_t i = 0; i < queries.size(); ++i) {
        const float *q = queries[i].data();
        vs::SearchBreakdown bd;
        const double t0 = now();
        const auto hits = index.search(q, k, nprobe, &bd, &scratch);
        const double t1 = now();
        (void)hits;
        const double a = t0 + bd.cqSeconds;
        const double b = a + bd.lutBuildSeconds;
        sink.add({.kind = SpanKind::kReplayQuery, .id = i, .start = t0,
                  .end = t1});
        sink.add({.kind = SpanKind::kReplayCq,
                  .parent = SpanKind::kReplayQuery, .id = i, .start = t0,
                  .end = a});
        sink.add({.kind = SpanKind::kReplayLut,
                  .parent = SpanKind::kReplayQuery, .id = i, .start = a,
                  .end = b});
        sink.add({.kind = SpanKind::kReplayScan,
                  .parent = SpanKind::kReplayQuery, .id = i, .start = b,
                  .end = b + bd.scanSeconds});
        cq += bd.cqSeconds;
        lut += bd.lutBuildSeconds;
        scan += bd.scanSeconds;

        const auto pl = index.quantizer().probe(q, nprobe);
        index.pq().computeLut(q, flut.data());
        const vs::QuantizedLut qlut = vs::quantizeLut(m, flut);
        std::size_t max_codes = 0;
        for (const cluster_id_t c : pl.clusters)
            max_codes = std::max(max_codes, index.listSize(c));
        scores.resize((max_codes / vs::kFastScanBlock + 1) *
                      vs::kFastScanBlock);
        const double k0 = now();
        for (const cluster_id_t c : pl.clusters) {
            const std::size_t n = index.listSize(c);
            vs::scanPq4Blocks(m, index.listPacked(c).data(),
                              (n + vs::kFastScanBlock - 1) /
                                  vs::kFastScanBlock,
                              qlut, scores.data());
        }
        const double k1 = now();
        sink.add({.kind = SpanKind::kReplayKernel, .id = i, .start = k0,
                  .end = k1});
        kernel += k1 - k0;
        for (const cluster_id_t c : pl.clusters)
            codes += static_cast<double>(index.listSize(c));
    }
    const double n = std::max<double>(1.0, static_cast<double>(queries.size()));
    out.layer("vecsearch.cq_us", "us", 1e6 * cq / n, queries.size());
    out.layer("vecsearch.lut_us", "us", 1e6 * lut / n, queries.size());
    out.layer("vecsearch.scan_us", "us", 1e6 * scan / n, queries.size());
    out.layer("vecsearch.kernel_us", "us", 1e6 * kernel / n,
              queries.size());
    // Derived, not measured: the scan loop minus the kernel is the
    // top-k push (plus the distance reconstruction feeding it).
    out.layer("vecsearch.topk_us", "us", 1e6 * (scan - kernel) / n,
              queries.size());
    out.layer("vecsearch.codes_per_query", "count", codes / n);
    // Computed from the code size (m / 2 bytes per 4-bit code).
    out.layer("vecsearch.kernel_bytes_per_query", "B",
              codes / n * static_cast<double>(m) / 2.0);
}

/**
 * Request spans (request, engine.queue, engine.search reconstructed
 * from the response timings) plus self time per layer: each span's
 * duration minus what its children cover, averaged per request. The
 * request span's own self time is the remainder no layer covers.
 */
void
addSelfTimes(Outcome &out, const std::deque<Record> &records,
             const std::function<bool(const Record &)> &in,
             std::vector<Span> &spans)
{
    // A pooled query can be sent more than once; a scan belongs to the
    // send of those bytes that was in flight when the scan started.
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_key;
    for (std::size_t i = 0; i < records.size(); ++i)
        if (records[i].key != 0)
            by_key[records[i].key].push_back(i);
    std::unordered_map<std::size_t, std::vector<const Span *>> scans;
    std::size_t unattributed_scans = 0;
    for (Span &s : spans) {
        if (s.kind != SpanKind::kShardScan && s.kind != SpanKind::kColdScan)
            continue;
        std::optional<std::size_t> owner;
        if (const auto it = by_key.find(s.id); it != by_key.end())
            for (const std::size_t i : it->second)
                if (records[i].sent <= s.start && s.start <= records[i].done) {
                    owner = i;
                    break;
                }
        if (!owner) {
            ++unattributed_scans;
            continue;
        }
        s.id = *owner; // re-key by request index
        scans[*owner].push_back(&s);
    }

    double self_req = 0, self_queue = 0, self_search = 0, self_hot = 0,
           self_cold = 0;
    std::size_t n = 0;
    std::vector<Span> request_spans;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const Record &r = records[i];
        if (r.status != Status::kServed)
            continue;
        const Interval req{r.sent, r.done};
        const Interval queue{r.sent, r.sent + r.queue};
        const Interval search{queue.end, queue.end + r.search};
        request_spans.push_back(
            {.kind = SpanKind::kRequest, .id = i, .start = req.start,
             .end = req.end});
        request_spans.push_back({.kind = SpanKind::kQueue,
                                 .parent = SpanKind::kRequest, .id = i,
                                 .start = queue.start, .end = queue.end});
        request_spans.push_back({.kind = SpanKind::kSearch,
                                 .parent = SpanKind::kRequest, .id = i,
                                 .start = search.start,
                                 .end = search.end});
        if (!in(r))
            continue;
        ++n;
        self_req += selfTime(req, {queue, search});
        self_queue += selfTime(queue, {});
        std::vector<Interval> children;
        for (const Span *s : scans[i]) {
            children.push_back({s->start, s->end});
            (s->kind == SpanKind::kShardScan ? self_hot : self_cold) +=
                s->end - s->start;
        }
        self_search += selfTime(search, children);
    }
    spans.insert(spans.end(), request_spans.begin(), request_spans.end());
    const double d = std::max<double>(1.0, static_cast<double>(n));
    out.layer("self.unattributed_us", "us", 1e6 * self_req / d, n);
    out.layer("self.engine_queue_us", "us", 1e6 * self_queue / d, n);
    out.layer("self.engine_search_us", "us", 1e6 * self_search / d, n);
    out.layer("self.tiered_shard_scan_us", "us", 1e6 * self_hot / d, n);
    out.layer("self.storage_cold_scan_us", "us", 1e6 * self_cold / d, n);
    if (unattributed_scans > 0)
        out.notes.push_back(std::to_string(unattributed_scans) +
                            " backend scans matched no request (warm-up "
                            "probes or gate queries)");
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream os(path, std::ios::trunc);
    JsonWriter w(os);
    w.beginObject();
    w.key("traceEvents");
    w.beginArray();
    for (const Span &s : spans) {
        w.beginObject();
        w.kv("name", spanName(s.kind));
        w.kv("ph", "X");
        w.kv("ts", s.start * 1e6);
        w.kv("dur", (s.end - s.start) * 1e6);
        w.kv("pid", std::uint64_t{1});
        w.kv("tid", s.id);
        w.key("args");
        w.beginObject();
        w.kv("parent", s.parent ? spanName(*s.parent) : "");
        w.kv("shard", std::uint64_t{s.shard});
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

// ------------------------------------------------------------------
// Correctness gates on the sample of served responses
// ------------------------------------------------------------------

void
checkSample(Outcome &out, const Workload &w,
            const vs::IvfPqFastScanIndex &index,
            const std::vector<std::vector<float>> &queries,
            const std::vector<std::vector<vs::SearchHit>> &served,
            const std::vector<std::vector<vs::SearchHit>> &truth,
            const std::deque<Record> &records)
{
    std::size_t mismatches = 0, checked = 0;
    double recall = 0.0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
        if (records[i].status != Status::kServed)
            continue;
        ++checked;
        if (served[i] != index.search(queries[i].data(), w.k, w.nprobe))
            ++mismatches;
        recall += recallOf(served[i], truth[i]);
    }
    recall /= std::max<double>(1.0, static_cast<double>(checked));
    out.gate(checked == queries.size(),
             "only " + std::to_string(checked) + " of " +
                 std::to_string(queries.size()) +
                 " sampled requests were served");
    out.gate(mismatches == 0, std::to_string(mismatches) +
                                  " served responses differ from serial "
                                  "IvfPqFastScanIndex::search");
    out.gate(recall >= w.recallFloor,
             "recall@" + std::to_string(w.k) + " " +
                 std::to_string(recall) + " below floor " +
                 std::to_string(w.recallFloor));
    out.e2e("recall_at_" + std::to_string(w.k), "ratio", recall, checked);
}

// ------------------------------------------------------------------
// Workload runners
// ------------------------------------------------------------------

struct RunContext
{
    const Args &args;
    const Workload &w;
    const Corpus &corpus;
    std::shared_ptr<vs::FlatCoarseQuantizer> cq;
    SpanSink *sink = nullptr;
};

std::vector<std::vector<float>>
queriesOf(const Inputs &in, std::size_t from, std::size_t n)
{
    const std::size_t to = std::min(from + n, in.size());
    return {in.queries.begin() + static_cast<std::ptrdiff_t>(from),
            in.queries.begin() + static_cast<std::ptrdiff_t>(to)};
}

std::vector<float>
flatten(const Inputs &in, std::size_t from, std::size_t to)
{
    std::vector<float> out;
    for (std::size_t i = from; i < to; ++i)
        out.insert(out.end(), in.queries[i].begin(), in.queries[i].end());
    return out;
}

/** Set-up time over repeated builds, the fastest tenth (kFastShare)
 *  of them, as for the other timings; keeps the last. Fast set-ups
 *  repeat until kSetupSeconds have been timed. */
template <typename Fn>
Served
timedSetups(Outcome &out, Fn &&setup)
{
    std::vector<double> times;
    double total = 0.0;
    Served s;
    for (std::size_t i = 0;
         i < kSetupRepeats ||
         (total < kSetupSeconds && i < kMaxSetupRepeats);
         ++i) {
        s.reset();
        const double t0 = now();
        s = setup();
        times.push_back(now() - t0);
        total += times.back();
    }
    std::sort(times.begin(), times.end());
    out.e2e("setup_s", "s", quantileSorted(times, kFastShare), times.size());
    return s;
}

/** End-to-end metrics every workload reports the same way. */
void
addWindowMetrics(Outcome &out, const WindowStats &ws, double qps,
                 double slo_qps, std::size_t slo_steps)
{
    out.e2e("qps", "req/s", qps, ws.attempted);
    out.e2e("slo_qps", "req/s", slo_qps, slo_steps);
    out.e2e("p50_ms", "ms", ws.p50 * 1e3, ws.latency.count);
    out.e2e("p99_ms", "ms", ws.p99 * 1e3, ws.latency.count);
    noteTail(out, ws);
    out.gate(ws.latency.count >= kSliceRequests,
             "too few samples in the timed window for p99");
    out.e2e("worst_tenant_p99_ms", "ms", ws.worstTenantP99 * 1e3,
            ws.worstTenantSamples);
    out.missPct = ws.missPct;
}

/** Requests sent, and those that were not served. */
void
countAttempts(Outcome &out, const std::deque<Record> &records)
{
    out.attempted = records.size();
    for (const Record &r : records)
        out.failed += r.status != Status::kServed;
}

/** Storage-layer figures; only restore-ingest has a storage layer. */
struct StorageFigures
{
    std::vector<double> restoreSeconds;
    std::vector<double> appendSeconds;
    std::vector<double> mergeSeconds;
};

/** Per-layer metrics of a traced run; writes its spans out once. */
void
addTraceLayers(Outcome &out, const RunContext &ctx, const Served &s,
               const std::deque<Record> &records,
               const std::function<bool(const Record &)> &in,
               bool open_loop, const StorageFigures &storage,
               const std::vector<std::vector<float>> &replay)
{
    addEngineLayers(out, records, in, open_loop, s.engine->stats());
    auto spans = ctx.sink->take();
    addTieredLayers(out, *s.engine, spans);
    const auto &merges = storage.mergeSeconds;
    out.layer("storage.restore_s", "s",
              storage.restoreSeconds.empty() ? 0.0
                                             : median(storage.restoreSeconds),
              storage.restoreSeconds.size());
    out.layer("storage.append_us_p99", "us",
              storage.appendSeconds.empty()
                  ? 0.0
                  : latencyStats(storage.appendSeconds).p99 * 1e6,
              storage.appendSeconds.size());
    out.layer("storage.merge_ms", "ms",
              merges.empty() ? 0.0
                             : 1e3 *
                                   std::accumulate(merges.begin(),
                                                   merges.end(), 0.0) /
                                   static_cast<double>(merges.size()),
              merges.size());
    double cycle_s = 0.0;
    std::size_t cycles = 0;
    for (const Span &sp : spans)
        if (sp.kind == SpanKind::kControl) {
            cycle_s += sp.end - sp.start;
            ++cycles;
        }
    out.layer("autopilot.cycle_ms", "ms",
              cycles == 0 ? 0.0 : 1e3 * cycle_s / static_cast<double>(cycles),
              cycles);
    addSelfTimes(out, records, in, spans);
    addVecsearchLayers(out, s.source(), replay, ctx.w.k, ctx.w.nprobe,
                       *ctx.sink);
    auto replay_spans = ctx.sink->take();
    spans.insert(spans.end(), replay_spans.begin(), replay_spans.end());
    writeSpans(ctx.args.result + ".spans.json", spans);
}

constexpr std::size_t kCalibrationQueries = 2000;
/** A load step fails when more than this share of its requests is
 *  unserved or over the latency limit (miss_pct). */
constexpr double kMaxMissPct = 1.0;
/** Sends between two checks of a step's backlog. */
constexpr std::size_t kBacklogCheckEvery = 16;
/** Unmeasured steps at the reference rate before the ladder. */
constexpr std::size_t kWarmupSteps = 2;
/** Distinct ladder requests; the schedule cycles through them. */
constexpr std::size_t kLadderPool = 32768;

Outcome
runLadder(const RunContext &ctx)
{
    const Workload &w = ctx.w;
    const std::size_t steps = w.ladderRates.size();
    const double step_s = w.ladderStepSeconds;
    const auto trace = unitInputs(w, ctx.corpus, *ctx.cq, ctx.args.seed,
                                  kCalibrationQueries + kLadderPool);
    const std::size_t base = kCalibrationQueries;
    const auto sample = queriesOf(trace, base, w.checkSample);
    const auto truth = exactTopK(ctx.corpus, sample, w.k);
    const auto calibration = flatten(trace, 0, base);

    // Declared before the engine, so the engine drains into it on
    // every exit path.
    Requests reqs(sample.size());
    Outcome out;
    Served s = timedSetups(out, [&] {
        return setupTrained(w, ctx.corpus, ctx.cq, calibration, ctx.sink);
    });
    noteAccessShare(out, w, *s.profile);

    // One step: Poisson arrivals at the rung's rate for step_s, then
    // wait until every request has resolved, so each step starts from
    // an empty queue.
    std::size_t cursor = base;
    std::vector<Interval> ref_windows;
    const auto run_step = [&](std::size_t st, bool warmup = false) {
        const double rate = w.ladderRates[st];
        const double start = now() + 0.01;
        const double warm_end = start + w.warmupFraction * step_s;
        const double end = start + step_s;
        // A backlog longer than the requests arriving within the
        // latency limit means the last arrivals already wait past it:
        // the engine is not keeping up and the step has failed. The
        // step then stops sending rather than queue seconds of work;
        // such a backlog slowed the engine further, and the steps after
        // it failed too.
        const double overload = std::max(rate * w.latencyLimitSeconds,
                                         static_cast<double>(w.maxBatch));
        const auto backlogged = [&] {
            return static_cast<double>(s.engine->pendingQueries()) > overload;
        };
        bool backlog = false;
        // Arrivals replay the pool's unit-rate gaps scaled to this
        // step's rate, wrapping around the pool as needed.
        for (double due = start;; ++cursor) {
            if (cursor >= trace.size())
                cursor = base;
            due += (trace.at(cursor) - trace.at(cursor - 1)) / rate;
            if (due >= end)
                break;
            if (cursor % kBacklogCheckEvery == 0 && backlogged()) {
                backlog = true;
                break;
            }
            sleepUntil(due);
            reqs.submit(*s.engine, trace.request(cursor), due,
                        static_cast<std::uint32_t>(st),
                        !warmup && due >= warm_end, ctx.sink != nullptr);
        }
        backlog = backlog || backlogged();
        out.gate(reqs.waitAll(60.0), "requests unresolved 60 s after "
                                     "ladder step " + std::to_string(st));
        if (warmup)
            return LoadStep{};
        const auto in_step = [st, start](const Record &r) {
            return r.step == st && r.measured && r.due >= start;
        };
        const WindowStats ws =
            windowStats(reqs.records, in_step, true, w.latencyLimitSeconds,
                        {{warm_end, end}});
        // A step cut short by its backlog counts at its offered rate,
        // with a p99 past any limit: its queue had no bound.
        const LoadStep ls =
            backlog ? LoadStep{.rate = rate,
                               .p99 = std::numeric_limits<double>::infinity(),
                               .pass = false}
                    : LoadStep{.rate = ws.sendRate,
                               .p99 = ws.p99,
                               .pass = ws.p99 <= w.latencyLimitSeconds &&
                                       ws.missPct <= kMaxMissPct};
        const std::size_t visit = out.steps.size();
        out.steps.push_back({visit, st, rate, ls, ws.latency, ws.missPct});
        if (st == w.referenceStep)
            ref_windows.push_back({warm_end, end});
        std::cout << "  step " << visit << " rung " << st << "  offered "
                  << rate << " req/s  sent " << ws.sendRate
                  << " req/s  p50 " << ws.latency.p50 * 1e3 << " ms  p99 "
                  << ws.p99 * 1e3 << " ms (all " << ws.latency.p99 * 1e3
                  << " ms, n=" << ws.latency.count << ")  miss "
                  << ws.missPct << "%"
                  << (backlog ? "  backlog past the limit" : "")
                  << (ls.pass ? "  pass" : "  FAIL") << "\n";
        // Let an overloaded step's aftermath settle.
        if (!ls.pass)
            std::this_thread::sleep_for(std::chrono::milliseconds(300));
        return ls;
    };

    // Warm-up at the reference rate, not measured: the first second
    // after set-up ran slow (p99 up to 10 ms at 4k req/s against 2 ms
    // later in the same run).
    for (std::size_t i = 0; i < kWarmupSteps; ++i)
        run_step(w.referenceStep, true);
    const double rss_mb = servingPeakRssMb();

    // Climb from light load, always probing the lowest rung that has
    // not passed yet. A reference step follows each failure and every
    // second pass, so the reported latencies pool visits spread over
    // the whole run, quiet stretches and noisy ones alike. The window
    // counts wall time, drains and settling included.
    BestLadder best(steps);
    std::size_t passes = 0;
    const double window_end = now() + ctx.args.seconds;
    while (now() < window_end) {
        const std::size_t r = best.next();
        if (r == steps) { // every rung passed: only the reference is left
            best.record(w.referenceStep, run_step(w.referenceStep));
            continue;
        }
        const LoadStep ls = run_step(r);
        best.record(r, ls);
        if ((!ls.pass || ++passes % 2 == 0) && now() < window_end)
            best.record(w.referenceStep, run_step(w.referenceStep));
    }
    out.gate(reqs.waitAll(60.0), "requests left unresolved at exit");

    const std::size_t ref = w.referenceStep;
    const auto in_ref = [ref](const Record &r) {
        return r.step == ref && r.measured;
    };
    const WindowStats ws = windowStats(reqs.records, in_ref, true,
                                       w.latencyLimitSeconds, ref_windows);
    // The crossing of the ladder of best visits: every rung below the
    // probe passed at least once, and the probed rung never did.
    const Crossing c = sloCrossing(best.ladder(), w.latencyLimitSeconds);
    out.notes.push_back(
        "slo crossing " + std::to_string(c.rate) + " req/s (" +
        (c.kind == CrossingKind::kAllPass
             ? "every rung passed: a lower bound"
         : c.kind == CrossingKind::kFirstFails
             ? "the first rung never passed: from zero load"
             : "interpolated") +
        "), probed rung visited " +
        std::to_string(best.next() < steps ? best.visits(best.next()) : 0) +
        " times");
    addWindowMetrics(out, ws, ws.completionRate, c.rate, out.steps.size());
    checkSample(out, w, s.source(), sample, reqs.sampleHits, truth,
                reqs.records);
    out.e2e("peak_rss_mb", "MB", rss_mb);
    countAttempts(out, reqs.records);
    if (ctx.sink)
        addTraceLayers(out, ctx, s, reqs.records, in_ref, true, {},
                       queriesOf(trace, base, w.replaySample));
    s.engine->shutdown();
    return out;
}

/** Closed loop: keeps w.outstanding requests in flight until @p end,
 *  sending next(t) whenever one resolves. */
template <typename Next>
void
closedLoop(const RunContext &ctx, Requests &reqs,
           core::RetrievalEngine &engine, double warm_end, double end,
           Next &&next)
{
    for (;;) {
        const double t = now();
        if (t >= end)
            break;
        const std::size_t cur =
            reqs.inflight.load(std::memory_order_acquire);
        if (cur >= ctx.w.outstanding) {
            reqs.inflight.wait(cur, std::memory_order_acquire);
            continue;
        }
        reqs.submit(engine, next(t), t, 0, t >= warm_end,
                    ctx.sink != nullptr);
    }
}

/** A closed loop's throughput: the fastest tenth (kFastShare) of the
 *  completions in each whole second of [from, to). Host noise only
 *  lowers throughput, so a noisy stretch covering up to nine seconds
 *  in ten does not move the figure. @p fallback when no whole second
 *  fits. */
double
perSecondRate(const std::deque<Record> &records, double from, double to,
                double fallback)
{
    std::vector<double> per_second;
    for (double a = from; a + 1.0 <= to; a += 1.0) {
        std::size_t n = 0;
        for (const Record &r : records)
            n += r.status == Status::kServed && r.done >= a && r.done < a + 1.0;
        per_second.push_back(static_cast<double>(n));
    }
    if (per_second.empty())
        return fallback;
    std::sort(per_second.begin(), per_second.end());
    return quantileSorted(per_second, 1.0 - kFastShare);
}

/** Vectors for the writer: each append is a new group of documents
 *  around a new group centre in a random cluster, shaped like the
 *  corpus's own groups. */
std::vector<float>
ingestVectors(const Corpus &corpus, std::uint64_t seed,
              std::size_t appends, std::size_t batch)
{
    const std::size_t d = corpus.dim();
    const std::size_t nlist = corpus.ds.spec().numClusters;
    Rng rng(seed ^ 0x1e57u);
    std::vector<float> v(appends * batch * d), group(d);
    for (std::size_t a = 0; a < appends; ++a) {
        around(corpus.ds.centers().data() + rng.uniformU64(nlist) * d,
               kCorpus.groupStd, rng, group.data(), d);
        for (std::size_t i = 0; i < batch; ++i)
            around(group.data(), kCorpus.docStd, rng,
                   v.data() + (a * batch + i) * d, d);
    }
    return v;
}

/**
 * The process that saved the artifact: a child trains and encodes the
 * index, saves it to @p artifact and returns its serial search of
 * @p sample, the reference the restored engine must reproduce. The
 * runner itself never holds a trained index, so its peak RSS is that
 * of a restarted process. Call it while the runner has no threads.
 */
std::vector<std::vector<vs::SearchHit>>
saveArtifactInChild(const RunContext &ctx, const std::string &artifact,
                    const std::vector<std::vector<float>> &sample)
{
    const Workload &w = ctx.w;
    const std::string ref_path = artifact + ".ref";
    std::cout.flush();
    const pid_t pid = ::fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        int rc = 1;
        try {
            vs::IvfPqFastScanIndex trained(ctx.cq, kCorpus.m);
            trained.train(ctx.corpus.vectors, ctx.corpus.size());
            trained.addPreassigned(ctx.corpus.vectors, ctx.corpus.size(),
                                   ctx.corpus.assignments);
            storage::IndexStore::save(artifact, trained);
            std::ofstream os(ref_path, std::ios::binary | std::ios::trunc);
            for (const auto &q : sample) {
                const auto hits = trained.search(q.data(), w.k, w.nprobe);
                const std::uint64_t n = hits.size();
                os.write(reinterpret_cast<const char *>(&n), sizeof n);
                os.write(reinterpret_cast<const char *>(hits.data()),
                         static_cast<std::streamsize>(
                             n * sizeof(vs::SearchHit)));
            }
            os.close();
            rc = os ? 0 : 1;
        } catch (const std::exception &e) {
            std::cerr << "perfbench: saving the artifact: " << e.what()
                      << "\n";
        }
        std::_Exit(rc); // no parent destructors or atexit in the child
    }
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        throw std::runtime_error("the artifact-saving process failed");
    std::vector<std::vector<vs::SearchHit>> ref(sample.size());
    std::ifstream is(ref_path, std::ios::binary);
    for (auto &hits : ref) {
        std::uint64_t n = 0;
        is.read(reinterpret_cast<char *>(&n), sizeof n);
        if (!is || n > w.k)
            break;
        hits.resize(n);
        is.read(reinterpret_cast<char *>(hits.data()),
                static_cast<std::streamsize>(n * sizeof(vs::SearchHit)));
    }
    const bool ok = static_cast<bool>(is);
    is.close();
    std::filesystem::remove(ref_path);
    if (!ok)
        throw std::runtime_error("reference hits of the saved index are "
                                 "truncated");
    return ref;
}

Outcome
runRestoreIngest(const RunContext &ctx)
{
    const Workload &w = ctx.w;
    const std::size_t d = ctx.corpus.dim();
    const double cal_s = 2.0;
    const double run_s = ctx.args.seconds;

    // Two tenants; the hotspot flips mid-window for both.
    wl::WorkloadScript script;
    script.horizonSeconds = cal_s + run_s;
    for (const auto &[id, frac, deadline, name] :
         {std::tuple{kPremium, w.premiumFraction, w.premiumDeadlineSeconds,
                     "premium"},
          std::tuple{kBestEffort, 1.0 - w.premiumFraction, 0.0,
                     "best-effort"}}) {
        wl::TenantSpec t;
        t.name = name;
        t.tenant = id;
        t.arrivalRate = w.poolRate * frac;
        t.zipfTheta = w.zipfTheta;
        t.hotspotFlipSeconds = {cal_s + w.flipAt * run_s};
        t.k = w.k;
        t.nprobe = w.nprobe;
        t.deadlineSeconds = deadline;
        script.tenants.push_back(t);
    }
    const auto trace = anchorOnDocuments(
        wl::WorkloadTrace::generate(script, ctx.corpus.ds, ctx.args.seed),
        ctx.corpus,
        *ctx.cq, ctx.args.seed);
    std::size_t first = 0;
    while (first < trace.size() && trace.at(first) < cal_s)
        ++first;
    const auto calibration = flatten(trace, 0, first);
    const auto sample = queriesOf(trace, first, w.checkSample);
    const auto truth = exactTopK(ctx.corpus, sample, w.k);
    const std::size_t n_appends =
        static_cast<std::size_t>(w.appendsPerSecond * run_s);
    const auto ingest =
        ingestVectors(ctx.corpus, ctx.args.seed, n_appends, w.appendBatch);

    // The artifact a previous process saved (not part of set-up).
    std::filesystem::create_directories(ctx.args.workDir);
    const std::string artifact =
        (std::filesystem::path(ctx.args.workDir) /
         ("restore-" + std::to_string(::getpid()) + ".vlra"))
            .string();
    const auto reference = saveArtifactInChild(ctx, artifact, sample);
    const auto profile = profileFrom(ctx.corpus.ds, *ctx.cq, calibration, w.nprobe);

    Requests probe(sample.size()); // both outlive the engine
    Requests reqs(0);
    Outcome out;
    noteAccessShare(out, w, *profile);
    StorageFigures storage;
    Served s = timedSetups(out, [&] {
        double r = 0.0;
        Served x = setupRestored(w, artifact, *profile, d, ctx.sink, r);
        storage.restoreSeconds.push_back(r);
        return x;
    });

    // Restore gate: the restored engine serves exactly what the index
    // it was saved from computes, before any ingest.
    {
        // Submitted in rounds that fit the premium tenant's share of
        // the bounded admission queue, so none is rejected.
        for (std::size_t i = 0; i < sample.size(); ++i) {
            if (i % kProbeRound == 0)
                out.gate(probe.waitAll(60.0), "restore probe unresolved");
            probe.submit(*s.engine,
                         {.query = sample[i], .tenant = kPremium}, now(),
                         0, false, false);
        }
        out.gate(probe.waitAll(60.0), "restore probe unresolved");
        std::size_t mismatches = 0;
        double recall = 0.0;
        for (std::size_t i = 0; i < sample.size(); ++i) {
            if (probe.records[i].status != Status::kServed ||
                probe.sampleHits[i] != reference[i])
                ++mismatches;
            recall += recallOf(probe.sampleHits[i], truth[i]);
        }
        recall /= std::max<double>(1.0, static_cast<double>(sample.size()));
        out.gate(mismatches == 0,
                 std::to_string(mismatches) +
                     " restored responses differ from the saved index");
        out.gate(recall >= w.recallFloor, "recall below floor");
        out.e2e("recall_at_" + std::to_string(w.k), "ratio", recall,
                sample.size());
    }

    const double rss_mb = servingPeakRssMb();
    const double start = now() + 0.05;
    const double warm_end = start + w.warmupFraction * run_s;
    const double end = start + run_s;

    // Writer: appends at a fixed rate, merges at fixed times.
    std::string writer_error;
    std::jthread writer([&] {
        try {
            std::size_t next_merge = 0;
            for (std::size_t a = 0; a < n_appends; ++a) {
                const double due =
                    start + static_cast<double>(a) / w.appendsPerSecond;
                while (next_merge < w.mergeAt.size() &&
                       start + w.mergeAt[next_merge] * run_s <= due) {
                    sleepUntil(start + w.mergeAt[next_merge] * run_s);
                    const double t0 = now();
                    s.cold->mergeDeltas();
                    const double t1 = now();
                    storage.mergeSeconds.push_back(t1 - t0);
                    if (ctx.sink)
                        ctx.sink->add({.kind = SpanKind::kMerge,
                                       .id = next_merge, .start = t0,
                                       .end = t1});
                    ++next_merge;
                }
                sleepUntil(due);
                const double t0 = now();
                s.cold->append(std::span<const float>(
                                   ingest.data() + a * w.appendBatch * d,
                                   w.appendBatch * d),
                               w.appendBatch);
                const double t1 = now();
                storage.appendSeconds.push_back(t1 - t0);
                if (ctx.sink)
                    ctx.sink->add({.kind = SpanKind::kAppend, .id = a,
                                   .start = t0, .end = t1});
            }
        } catch (const std::exception &e) {
            writer_error = e.what();
        }
    });

    // Control plane: the autopilot's cycles at fixed times, on a
    // lower-priority thread so a cycle takes spare CPU rather than the
    // load generator's or the search workers'.
    std::jthread control([&] {
        ::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()), 10);
        for (std::size_t c = 0; c < w.controlAt.size(); ++c) {
            sleepUntil(start + w.controlAt[c] * run_s);
            const double t0 = now();
            s.engine->autopilot()->runControlCycle();
            if (ctx.sink)
                ctx.sink->add({.kind = SpanKind::kControl, .id = c,
                               .start = t0, .end = now()});
        }
    });

    // Closed loop: w.outstanding requests in flight, drawn in trace
    // order from the part of the trace before its hotspot flip until
    // the window's flip time and from the part after it from then on,
    // each wrapping around as needed.
    std::size_t flip = first;
    while (flip < trace.size() && trace.at(flip) < cal_s + w.flipAt * run_s)
        ++flip;
    const double flip_t = start + w.flipAt * run_s;
    std::size_t pre = first, post = flip;
    sleepUntil(start);
    closedLoop(ctx, reqs, *s.engine, warm_end, end, [&](double t) {
        std::size_t i = 0;
        if (t < flip_t) {
            i = pre++;
            if (pre >= flip)
                pre = first;
        } else {
            i = post++;
            if (post >= trace.size())
                post = flip;
        }
        return trace.request(i);
    });
    writer.join();
    control.join();
    out.gate(writer_error.empty(), "writer failed: " + writer_error);
    out.gate(reqs.waitAll(60.0), "requests left unresolved at exit");
    out.gate(s.engine->pendingQueries() == 0, "engine queue not empty");

    const auto in_win = [](const Record &r) { return r.measured; };
    const WindowStats ws = windowStats(reqs.records, in_win, false,
                                       w.latencyLimitSeconds,
                                       {{warm_end, end}});
    // A closed loop is a one-step ladder at the rate it sustains.
    const double qps =
        perSecondRate(reqs.records, warm_end, end, ws.completionRate);
    const LoadStep ls{.rate = qps,
                      .p99 = ws.p99,
                      .pass = ws.p99 <= w.latencyLimitSeconds &&
                              ws.missPct <= kMaxMissPct};
    out.steps.push_back({0, 0, 0.0, ls, ws.latency, ws.missPct});
    const Crossing c = sloCrossing({ls}, w.latencyLimitSeconds);
    addWindowMetrics(out, ws, qps, c.rate, 1);
    out.e2e("peak_rss_mb", "MB", rss_mb);

    // Disposition and tenant accounting must sum exactly.
    const core::EngineStatsSnapshot st = s.engine->stats();
    out.gate(st.submitted == st.served + st.expired + st.rejected,
             "submitted != served + expired + rejected");
    std::size_t ts = 0, tv = 0, te = 0, tr = 0;
    for (const auto &t : st.tenants) {
        ts += t.submitted;
        tv += t.served;
        te += t.expired;
        tr += t.rejected;
    }
    out.gate(ts == st.submitted && tv == st.served && te == st.expired &&
                 tr == st.rejected,
             "per-tenant slices do not sum to the global counts");
    countAttempts(out, reqs.records);
    const auto thrown = static_cast<std::size_t>(std::count_if(
        reqs.records.begin(), reqs.records.end(),
        [](const Record &r) { return r.status == Status::kThrown; }));
    out.gate(st.submitted + thrown == reqs.records.size() + sample.size(),
             "engine submitted count differs from requests sent");
    if (ctx.sink)
        addTraceLayers(out, ctx, s, reqs.records, in_win, true, storage,
                       queriesOf(trace, first, w.replaySample));
    s.engine->shutdown();
    s.reset();
    std::filesystem::remove(artifact);
    return out;
}

// ------------------------------------------------------------------
// Report
// ------------------------------------------------------------------

void
writeMetrics(JsonWriter &j, const std::vector<Metric> &ms)
{
    j.beginObject();
    for (const Metric &m : ms) {
        j.key(m.name);
        j.beginObject();
        j.kv("value", m.value);
        j.kv("unit", m.unit);
        j.kv("samples", m.samples);
        j.endObject();
    }
    j.endObject();
}

void
writeResult(const Args &a, const Outcome &out)
{
    const Workload &w = *a.workload;
    std::ofstream os(a.result, std::ios::trunc);
    JsonWriter j(os);
    j.beginObject();
    j.kv("workload", w.name);
    j.kv("why", w.why);
    j.kv("seed", a.seed);
    j.kv("seconds", a.seconds);
    j.kv("trace", a.trace);
    j.kv("correct", out.failures.empty());
    j.kv("attempted", out.attempted);
    j.kv("failed", out.failed);
    j.kv("miss_pct", out.missPct);
    j.key("failures");
    j.beginArray();
    for (const auto &f : out.failures)
        j.value(f);
    j.endArray();
    j.key("notes");
    j.beginArray();
    for (const auto &n : out.notes)
        j.value(n);
    j.endArray();

    j.key("stamp");
    j.beginObject();
    j.kv("git_sha", a.gitSha);
    j.kv("git_dirty", a.gitDirty);
    j.kv("compiler", PERFBENCH_COMPILER);
    j.kv("flags", PERFBENCH_FLAGS);
    j.kv("build_type", PERFBENCH_BUILD_TYPE);
    j.kv("simd", vs::fastScanHasSimd() ? "avx2" : "scalar");
    j.kv("cpu_model", cpuModel());
    j.kv("nproc", std::thread::hardware_concurrency());
    j.endObject();

    j.key("params");
    j.beginObject();
    j.kv("corpus_vectors", kCorpus.numVectors);
    j.kv("dim", kCorpus.dim);
    j.kv("nlist", kCorpus.nlist);
    j.kv("pq_m", kCorpus.m);
    j.kv("cluster_size_zipf", kCorpus.clusterSizeZipf);
    j.kv("group_size", kCorpus.groupSize);
    j.kv("group_std", kCorpus.groupStd);
    j.kv("doc_std", kCorpus.docStd);
    j.kv("setup_repeats", kSetupRepeats);
    j.kv("loop", w.loop == Loop::kOpenLadder ? "open-ladder"
                                             : "closed-restart");
    j.kv("rho", w.rho);
    j.kv("hot_shards", w.hotShards);
    j.kv("nprobe", w.nprobe);
    j.kv("k", w.k);
    j.kv("max_batch", w.maxBatch);
    j.kv("batch_timeout_s", w.batchTimeoutSeconds);
    j.kv("search_threads", w.searchThreads);
    j.kv("zipf_theta", w.zipfTheta);
    j.kv("paper_top20_share", w.paperTop20Share);
    if (out.top20Share >= 0.0)
        j.kv("top20_share", out.top20Share);
    j.kv("latency_limit_s", w.latencyLimitSeconds);
    j.key("ladder_rates");
    j.beginArray();
    for (const double r : w.ladderRates)
        j.value(r);
    j.endArray();
    j.kv("ladder_step_s", w.ladderStepSeconds);
    j.kv("reference_step", w.referenceStep);
    j.kv("outstanding", w.outstanding);
    j.kv("pool_rate", w.poolRate);
    j.kv("warmup_fraction", w.warmupFraction);
    j.kv("premium_fraction", w.premiumFraction);
    j.kv("premium_deadline_s", w.premiumDeadlineSeconds);
    j.kv("flip_at", w.flipAt);
    j.kv("appends_per_second", w.appendsPerSecond);
    j.kv("append_batch", w.appendBatch);
    j.key("merge_at");
    j.beginArray();
    for (const double m : w.mergeAt)
        j.value(m);
    j.endArray();
    j.kv("check_sample", w.checkSample);
    j.kv("recall_floor", w.recallFloor);
    j.kv("replay_sample", w.replaySample);
    j.endObject();

    j.key("steps");
    j.beginArray();
    for (const StepRecord &st : out.steps) {
        j.beginObject();
        j.kv("visit", st.visit);
        j.kv("step", st.step);
        j.kv("offered", st.offered);
        j.kv("rate", st.load.rate);
        j.kv("p50_s", st.latency.p50);
        j.kv("p99_s", st.load.p99);
        j.kv("p99_all_s", st.latency.p99);
        j.kv("samples", st.latency.count);
        j.kv("miss_pct", st.missPct);
        j.kv("pass", st.load.pass);
        j.endObject();
    }
    j.endArray();

    j.key("end_to_end");
    writeMetrics(j, out.endToEnd);
    j.key("per_layer");
    writeMetrics(j, out.perLayer);
    j.endObject();
    os << "\n";
}

void
printMetrics(const char *title, const std::vector<Metric> &ms)
{
    std::cout << title << "\n";
    for (const Metric &m : ms) {
        std::cout << "  " << m.name << " = " << m.value << " " << m.unit;
        if (m.samples > 0)
            std::cout << "  (n=" << m.samples << ")";
        std::cout << "\n";
    }
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Args args = parseArgs(argc, argv);
    const Workload &w = *args.workload;
    std::cout << "workload " << w.name << " (seed " << args.seed << ", "
              << args.seconds << " s" << (args.trace ? ", traced" : "")
              << ")\n  why: " << w.why << "\n";

    Outcome out;
    const auto [steal0, total0] = hostCpuJiffies();
    try {
        const Corpus corpus = makeCorpus();
        SpanSink sink;
        const RunContext ctx{args, w, corpus,
                             corpus.ds.makeCoarseQuantizer(),
                             args.trace ? &sink : nullptr};
        switch (w.loop) {
        case Loop::kOpenLadder: out = runLadder(ctx); break;
        case Loop::kClosedRestart: out = runRestoreIngest(ctx); break;
        }
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }

    // The host's share of this VM's CPU time during the run: on a
    // shared host, noisy stretches show up as steal.
    const auto [steal1, total1] = hostCpuJiffies();
    if (total1 > total0) {
        std::ostringstream os;
        os << "host steal " << 100.0 * (steal1 - steal0) / (total1 - total0)
           << "% of vCPU time during the run";
        out.notes.push_back(os.str());
    }
    for (const Metric &m : out.endToEnd)
        out.gate(std::isfinite(m.value),
                 m.name + " is not finite (most requests unserved?)");
    // The traced run reports its own end-to-end figures beside the
    // layers, so the tracing overhead shows against an untraced run.
    if (args.trace)
        for (const Metric &m : out.endToEnd)
            if (m.name == "qps" || m.name == "p50_ms" || m.name == "p99_ms")
                out.layer("traced." + m.name, m.unit, m.value, m.samples);
    printMetrics("end-to-end:", out.endToEnd);
    std::cout << "  miss_pct = " << out.missPct << " %\n";
    if (args.trace)
        printMetrics("per-layer:", out.perLayer);
    for (const auto &n : out.notes)
        std::cout << "note: " << n << "\n";
    writeResult(args, out);
    for (const auto &f : out.failures)
        std::cerr << "GATE FAILED: " << f << "\n";
    return out.failures.empty() ? 0 : 1;
}
