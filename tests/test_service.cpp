/// Tests of mpct::service — the concurrent taxonomy query engine.
///
/// The concurrency strategy mirrors the engine's own design: every
/// deterministic property (result values, cache accounting, rejection
/// paths) is checked in the single-threaded fallback mode
/// (worker_threads == 0, fully reproducible under ctest), and the
/// multi-threaded paths are stress-checked for agreement with the
/// sequential API rather than for exact metric counts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "arch/registry.hpp"
#include "core/taxonomy_table.hpp"
#include "service/service.hpp"

namespace {

using namespace mpct;
using namespace mpct::service;

EngineOptions single_threaded() {
  EngineOptions options;
  options.worker_threads = 0;
  return options;
}

Request classify_request(const arch::ArchitectureSpec& spec) {
  return ClassifyRequest::of(spec);
}

// ---------------------------------------------------------------------------
// Fingerprints

TEST(Fingerprint, EqualSpecsHashEqual) {
  const auto specs = arch::surveyed_architectures();
  arch::ArchitectureSpec copy = specs[2];
  EXPECT_EQ(fingerprint(specs[2]), fingerprint(copy));
  EXPECT_EQ(fingerprint(Request(ClassifyRequest::of(specs[2]))),
            fingerprint(Request(ClassifyRequest::of(copy))));
}

TEST(Fingerprint, FieldChangesChangeHash) {
  arch::ArchitectureSpec spec = arch::surveyed_architectures()[2];
  const Fingerprint base = fingerprint(spec);
  arch::ArchitectureSpec renamed = spec;
  renamed.name += "'";
  EXPECT_NE(fingerprint(renamed), base);
  arch::ArchitectureSpec reconnected = spec;
  reconnected.at(ConnectivityRole::DpDp) = arch::ConnectivityExpr::none();
  EXPECT_NE(fingerprint(reconnected), base);
}

TEST(Fingerprint, RequestTypesCannotCollide) {
  // A classify and a cost request over the same spec must key apart.
  const arch::ArchitectureSpec& spec = arch::surveyed_architectures()[4];
  CostRequest cost;
  cost.target = spec;
  EXPECT_NE(fingerprint(Request(ClassifyRequest::of(spec))),
            fingerprint(Request(std::move(cost))));
}

TEST(Fingerprint, RequirementFieldsAllParticipate) {
  explore::Requirements base;
  const auto key = [](const explore::Requirements& r) {
    RecommendRequest req;
    req.requirements = r;
    return fingerprint(Request(std::move(req)));
  };
  const Fingerprint base_key = key(base);
  explore::Requirements changed = base;
  changed.min_flexibility = 3;
  EXPECT_NE(key(changed), base_key);
  changed = base;
  changed.paradigm = MachineType::DataFlow;
  EXPECT_NE(key(changed), base_key);
  changed = base;
  changed.needs_shared_memory = true;
  EXPECT_NE(key(changed), base_key);
  changed = base;
  changed.objective = explore::Requirements::Objective::MinArea;
  EXPECT_NE(key(changed), base_key);
}

// ---------------------------------------------------------------------------
// Sharded LRU cache

TEST(ShardedLruCache, HitMissAndEvictionAccounting) {
  ShardedLruCache<int> cache(/*shard_count=*/1, /*capacity_per_shard=*/2);
  EXPECT_EQ(cache.get(1), nullptr);  // miss
  cache.put(1, 10);
  cache.put(2, 20);
  ASSERT_NE(cache.get(1), nullptr);
  EXPECT_EQ(*cache.get(1), 10);
  cache.put(3, 30);  // evicts key 2 (LRU; key 1 was just touched)
  EXPECT_EQ(cache.get(2), nullptr);
  ASSERT_NE(cache.get(3), nullptr);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
}

TEST(ShardedLruCache, LruOrderIsPerShardRecency) {
  ShardedLruCache<int> cache(1, 3);
  cache.put(1, 1);
  cache.put(2, 2);
  cache.put(3, 3);
  EXPECT_NE(cache.get(1), nullptr);  // refresh 1; LRU victim is now 2
  cache.put(4, 4);
  EXPECT_EQ(cache.get(2), nullptr);
  EXPECT_NE(cache.get(1), nullptr);
  EXPECT_NE(cache.get(3), nullptr);
  EXPECT_NE(cache.get(4), nullptr);
}

TEST(ShardedLruCache, ShardCountRoundsUpToPowerOfTwo) {
  ShardedLruCache<int> cache(5, 1);
  EXPECT_EQ(cache.shard_count(), 8u);
  EXPECT_EQ(cache.capacity(), 8u);
}

TEST(ShardedLruCache, EvictedValueSurvivesThroughSharedPtr) {
  ShardedLruCache<std::string> cache(1, 1);
  cache.put(1, std::string("first"));
  std::shared_ptr<const std::string> held = cache.get(1);
  cache.put(2, std::string("second"));  // evicts key 1
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(*held, "first");  // reader's reference stays valid
}

// ---------------------------------------------------------------------------
// Metrics

TEST(LatencyHistogram, PercentilesBracketTheSamples) {
  LatencyHistogram hist;
  for (int i = 0; i < 100; ++i) {
    hist.record(std::chrono::microseconds(100));  // ~102.4us bucket
  }
  hist.record(std::chrono::milliseconds(50));  // one outlier
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, 101u);
  EXPECT_GT(snap.p50_us, 50.0);
  EXPECT_LT(snap.p50_us, 300.0);
  EXPECT_GE(snap.p99_us, snap.p50_us);
  EXPECT_GE(snap.max_us, 30000.0);
  EXPECT_GT(snap.mean_us, 0.0);
  EXPECT_LE(snap.min_us, snap.p50_us);
}

// The pinned boundary contract from metrics.hpp: bucket i covers
// [2^i, 2^(i+1)) ns — lower bound inclusive, upper exclusive — with
// bucket 0 irregular ([0, 2) ns) and the last bucket unbounded.
TEST(LatencyHistogram, BucketEdgesArePinned) {
  using std::chrono::nanoseconds;
  // Bucket 0 absorbs zero, clamped-negative and 1 ns samples.
  EXPECT_EQ(LatencyHistogram::bucket_of(nanoseconds(0)), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(nanoseconds(-5)), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(nanoseconds(1)), 0u);
  // Lower bound inclusive, upper exclusive, at every power of two.
  EXPECT_EQ(LatencyHistogram::bucket_of(nanoseconds(2)), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_of(nanoseconds(3)), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_of(nanoseconds(4)), 2u);
  for (std::size_t k = 2; k < 39; ++k) {
    const std::int64_t edge = std::int64_t{1} << k;
    EXPECT_EQ(LatencyHistogram::bucket_of(nanoseconds(edge - 1)), k - 1)
        << "2^" << k << " - 1";
    EXPECT_EQ(LatencyHistogram::bucket_of(nanoseconds(edge)), k)
        << "2^" << k;
  }
  // The last bucket is unbounded above.
  EXPECT_EQ(LatencyHistogram::bucket_of(nanoseconds(std::int64_t{1} << 39)),
            39u);
  EXPECT_EQ(
      LatencyHistogram::bucket_of(nanoseconds((std::int64_t{1} << 45) + 7)),
      39u);

  // The inclusive per-bucket upper edges the Prometheus exposition uses.
  EXPECT_EQ(LatencyHistogram::bucket_upper_ns(0), 1);
  EXPECT_EQ(LatencyHistogram::bucket_upper_ns(1), 3);
  EXPECT_EQ(LatencyHistogram::bucket_upper_ns(10), 2047);
  EXPECT_EQ(LatencyHistogram::bucket_upper_ns(39),
            std::numeric_limits<std::int64_t>::max());
}

TEST(LatencyHistogram, BucketsViewMatchesRecords) {
  using std::chrono::nanoseconds;
  LatencyHistogram hist;
  hist.record(nanoseconds(0));
  hist.record(nanoseconds(1));
  hist.record(nanoseconds(2));    // bucket 1
  hist.record(nanoseconds(7));    // bucket 2
  hist.record(nanoseconds(8));    // bucket 3
  hist.record(nanoseconds(std::int64_t{1} << 39));  // last bucket
  const LatencyHistogram::Buckets view = hist.buckets();
  EXPECT_EQ(view.counts[0], 2u);
  EXPECT_EQ(view.counts[1], 1u);
  EXPECT_EQ(view.counts[2], 1u);
  EXPECT_EQ(view.counts[3], 1u);
  EXPECT_EQ(view.counts[39], 1u);
  EXPECT_EQ(view.count, 6u);
  std::uint64_t total = 0;
  for (const std::uint64_t c : view.counts) total += c;
  EXPECT_EQ(total, view.count);
  EXPECT_EQ(view.sum_ns, 0u + 1 + 2 + 7 + 8 + (std::uint64_t{1} << 39));
}

TEST(BatchSizeHistogram, TracksBatchesAndMean) {
  BatchSizeHistogram hist;
  hist.record(1);
  hist.record(3);
  hist.record(200);  // clamps into the last slot
  EXPECT_EQ(hist.batches(), 3u);
  EXPECT_EQ(hist.requests(), 204u);
  EXPECT_EQ(hist.size_count(1), 1u);
  EXPECT_EQ(hist.size_count(3), 1u);
  EXPECT_EQ(hist.size_count(BatchSizeHistogram::kMaxTracked), 1u);
  EXPECT_DOUBLE_EQ(hist.mean(), 68.0);
}

TEST(Metrics, RendersTableAndCsv) {
  QueryEngine engine(single_threaded());
  const auto& spec = arch::surveyed_architectures()[0];
  engine.submit(classify_request(spec)).get();
  engine.submit(classify_request(spec)).get();  // cache hit

  const std::string table = engine.metrics().to_table(engine.cache_stats());
  EXPECT_NE(table.find("cache"), std::string::npos);
  EXPECT_NE(table.find("latency: classify"), std::string::npos);

  const std::string csv = engine.metrics().to_csv(engine.cache_stats());
  EXPECT_NE(csv.find("cache_hits,1"), std::string::npos);
  EXPECT_NE(csv.find("submitted,2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Single-threaded fallback: deterministic results and accounting

TEST(QueryEngineSingleThread, MatchesSequentialClassifyExactly) {
  QueryEngine engine(single_threaded());
  for (const arch::ArchitectureSpec& spec : arch::surveyed_architectures()) {
    const QueryResponse response =
        engine.submit(classify_request(spec)).get();
    ASSERT_TRUE(response.ok()) << spec.name;
    const ClassifyResponse* payload = response.classify();
    ASSERT_NE(payload, nullptr);

    const Classification expected = spec.classify();
    EXPECT_EQ(payload->classification.name, expected.name) << spec.name;
    EXPECT_EQ(payload->classification.implementable, expected.implementable);
    EXPECT_EQ(payload->flexibility.total(), spec.flexibility().total());
    EXPECT_EQ(payload->spec, spec);
  }
}

TEST(QueryEngineSingleThread, AdlTextInputClassifies) {
  QueryEngine engine(single_threaded());
  const std::string adl = arch::to_adl(*arch::find_architecture("MorphoSys"));
  const QueryResponse response =
      engine.submit(ClassifyRequest::of_adl(adl)).get();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.classify()->classification.name,
            arch::find_architecture("MorphoSys")->classify().name);
}

TEST(QueryEngineSingleThread, AdlParseErrorIsStructured) {
  QueryEngine engine(single_threaded());
  const QueryResponse response =
      engine.submit(ClassifyRequest::of_adl("architecture Broken {")).get();
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.status.code, StatusCode::ParseError);
  EXPECT_FALSE(response.status.message.empty());
  EXPECT_EQ(engine.metrics().failed.value(), 1u);
}

TEST(QueryEngineSingleThread, RecommendMatchesSequential) {
  QueryEngine engine(single_threaded());
  explore::Requirements requirements;
  requirements.min_flexibility = 4;
  RecommendRequest request;
  request.requirements = requirements;

  const QueryResponse response = engine.submit(Request(request)).get();
  ASSERT_TRUE(response.ok());
  const auto expected = explore::recommend(requirements);
  const RecommendResponse* payload = response.recommend();
  ASSERT_NE(payload, nullptr);
  ASSERT_EQ(payload->recommendations.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(payload->recommendations[i].name, expected[i].name);
    EXPECT_EQ(payload->recommendations[i].flexibility,
              expected[i].flexibility);
    EXPECT_EQ(payload->recommendations[i].config_bits,
              expected[i].config_bits);
  }
}

TEST(QueryEngineSingleThread, RecommendTopKTruncates) {
  QueryEngine engine(single_threaded());
  RecommendRequest request;
  request.top_k = 3;
  const QueryResponse response = engine.submit(Request(request)).get();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.recommend()->recommendations.size(), 3u);
}

TEST(QueryEngineSingleThread, CostSweepMatchesSequential) {
  QueryEngine engine(single_threaded());
  const arch::ArchitectureSpec& spec = *arch::find_architecture("MorphoSys");
  CostRequest request;
  request.target = spec;
  request.n_sweep = {4, 16, 64};

  const QueryResponse response = engine.submit(Request(request)).get();
  ASSERT_TRUE(response.ok());
  const CostResponse* payload = response.cost();
  ASSERT_NE(payload, nullptr);
  ASSERT_EQ(payload->points.size(), 3u);

  const auto library = cost::ComponentLibrary::default_library();
  for (const CostResponse::Point& point : payload->points) {
    cost::EstimateOptions options;
    options.n = point.n;
    EXPECT_DOUBLE_EQ(point.area.total_kge(),
                     cost::estimate_area(spec, library, options).total_kge());
    EXPECT_EQ(
        point.config_bits.total(),
        cost::estimate_config_bits(spec, library, options).total());
  }
}

TEST(QueryEngineSingleThread, InvalidCostSweepRejected) {
  QueryEngine engine(single_threaded());
  CostRequest request;
  request.target = MachineClass{};
  request.n_sweep = {8, -1};
  const QueryResponse response = engine.submit(Request(request)).get();
  EXPECT_EQ(response.status.code, StatusCode::InvalidRequest);
}

TEST(QueryEngineSingleThread, CacheHitsAndEvictions) {
  EngineOptions options = single_threaded();
  options.cache_shards = 1;
  options.cache_capacity_per_shard = 2;
  QueryEngine engine(options);
  const auto specs = arch::surveyed_architectures();

  // Miss, then hit.
  EXPECT_FALSE(engine.submit(classify_request(specs[0])).get().cache_hit);
  EXPECT_TRUE(engine.submit(classify_request(specs[0])).get().cache_hit);
  EXPECT_EQ(engine.metrics().cache_hits.value(), 1u);
  EXPECT_EQ(engine.metrics().cache_misses.value(), 1u);

  // Fill past capacity: specs[0] becomes the eviction victim (LRU).
  engine.submit(classify_request(specs[1])).get();
  engine.submit(classify_request(specs[2])).get();
  EXPECT_EQ(engine.cache_stats().evictions, 1u);
  EXPECT_FALSE(engine.submit(classify_request(specs[0])).get().cache_hit);

  // A cached payload is identical to a computed one.
  const QueryResponse computed = engine.submit(classify_request(specs[2])).get();
  EXPECT_TRUE(computed.cache_hit);
  EXPECT_EQ(computed.classify()->classification.name,
            specs[2].classify().name);
}

TEST(QueryEngineSingleThread, CacheDisabledNeverHits) {
  EngineOptions options = single_threaded();
  options.enable_cache = false;
  QueryEngine engine(options);
  const auto& spec = arch::surveyed_architectures()[0];
  engine.submit(classify_request(spec)).get();
  EXPECT_FALSE(engine.submit(classify_request(spec)).get().cache_hit);
  EXPECT_EQ(engine.metrics().cache_hits.value(), 0u);
  EXPECT_EQ(engine.cache_stats().insertions, 0u);
}

TEST(QueryEngineSingleThread, ExpiredDeadlineRejectedUpFront) {
  QueryEngine engine(single_threaded());
  const Deadline expired = Deadline::at_time(Clock::now() -
                                             std::chrono::milliseconds(1));
  const QueryResponse response =
      engine.submit(classify_request(arch::surveyed_architectures()[0]),
                    expired)
          .get();
  EXPECT_EQ(response.status.code, StatusCode::DeadlineExceeded);
  EXPECT_EQ(engine.metrics().rejected_deadline.value(), 1u);
  EXPECT_EQ(engine.metrics().completed.value(), 0u);
}

TEST(QueryEngineSingleThread, MetricCountsAddUp) {
  QueryEngine engine(single_threaded());
  const auto specs = arch::surveyed_architectures();
  for (int round = 0; round < 2; ++round) {
    for (const arch::ArchitectureSpec& spec : specs) {
      ASSERT_TRUE(engine.submit(classify_request(spec)).get().ok());
    }
  }
  const std::uint64_t n = static_cast<std::uint64_t>(specs.size());
  EXPECT_EQ(engine.metrics().submitted.value(), 2 * n);
  EXPECT_EQ(engine.metrics().completed.value(), 2 * n);
  EXPECT_EQ(engine.metrics().cache_misses.value(), n);
  EXPECT_EQ(engine.metrics().cache_hits.value(), n);
  EXPECT_DOUBLE_EQ(engine.metrics().cache_hit_rate(), 0.5);
  const auto latency =
      engine.metrics().latency(RequestType::Classify).snapshot();
  EXPECT_EQ(latency.count, 2 * n);
}

// ---------------------------------------------------------------------------
// Backpressure (workers suspended so the queue fills deterministically)

TEST(QueryEngineBackpressure, QueueFullRejectsWithoutBlocking) {
  EngineOptions options;
  options.worker_threads = 2;
  options.queue_capacity = 4;
  options.start_workers = false;  // nothing drains yet
  QueryEngine engine(options);
  const auto& spec = arch::surveyed_architectures()[0];

  std::vector<std::future<QueryResponse>> accepted;
  for (int i = 0; i < 4; ++i) {
    accepted.push_back(engine.submit(classify_request(spec)));
  }
  EXPECT_EQ(engine.queue_depth(), 4u);

  // Fifth request: queue full -> immediate, structured rejection.
  QueryResponse overflow = engine.submit(classify_request(spec)).get();
  EXPECT_EQ(overflow.status.code, StatusCode::QueueFull);
  EXPECT_EQ(engine.metrics().rejected_queue_full.value(), 1u);

  // Start the pool; the four accepted requests complete correctly.
  engine.start();
  for (auto& future : accepted) {
    const QueryResponse response = future.get();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.classify()->classification.name, spec.classify().name);
  }
  engine.drain();
  EXPECT_EQ(engine.metrics().completed.value(), 4u);
}

TEST(QueryEngineBackpressure, NeverStartedEngineRejectsPendingOnShutdown) {
  EngineOptions options;
  options.worker_threads = 2;
  options.queue_capacity = 8;
  options.start_workers = false;
  std::future<QueryResponse> pending;
  {
    QueryEngine engine(options);
    pending =
        engine.submit(classify_request(arch::surveyed_architectures()[0]));
  }  // destructor: queue drained by rejection, future must be ready
  const QueryResponse response = pending.get();
  EXPECT_EQ(response.status.code, StatusCode::ShuttingDown);
}

TEST(QueryEngineBackpressure, DeadlineExpiresWhileQueued) {
  EngineOptions options;
  options.worker_threads = 1;
  options.queue_capacity = 8;
  options.start_workers = false;
  QueryEngine engine(options);

  auto future =
      engine.submit(classify_request(arch::surveyed_architectures()[0]),
                    Deadline::in(std::chrono::milliseconds(1)));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  engine.start();  // worker picks it up after the deadline passed
  EXPECT_EQ(future.get().status.code, StatusCode::DeadlineExceeded);
}

// ---------------------------------------------------------------------------
// Multi-threaded stress: concurrent correctness vs the sequential API

TEST(QueryEngineConcurrent, FourWorkersMatchSequentialOverRegistry) {
  EngineOptions options;
  options.worker_threads = 4;
  options.queue_capacity = 4096;
  QueryEngine engine(options);
  const auto specs = arch::surveyed_architectures();

  // Expected results via the sequential API.
  std::vector<Classification> expected;
  std::vector<int> expected_flex;
  for (const arch::ArchitectureSpec& spec : specs) {
    expected.push_back(spec.classify());
    expected_flex.push_back(spec.flexibility().total());
  }

  constexpr int kRounds = 40;
  std::vector<std::future<QueryResponse>> futures;
  futures.reserve(static_cast<std::size_t>(kRounds) * specs.size());
  for (int round = 0; round < kRounds; ++round) {
    for (const arch::ArchitectureSpec& spec : specs) {
      futures.push_back(engine.submit(classify_request(spec)));
    }
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const QueryResponse response = futures[i].get();
    const std::size_t spec_index = i % specs.size();
    ASSERT_TRUE(response.ok()) << specs[spec_index].name;
    // Bit-identical to the sequential API, cache hit or not.
    EXPECT_EQ(response.classify()->classification.name,
              expected[spec_index].name);
    EXPECT_EQ(response.classify()->flexibility.total(),
              expected_flex[spec_index]);
  }
  engine.drain();
  EXPECT_EQ(engine.metrics().completed.value(), futures.size());
  EXPECT_EQ(engine.metrics().queue_depth.value(), 0);
}

TEST(QueryEngineConcurrent, ManyProducersMixedRequestTypes) {
  EngineOptions options;
  options.worker_threads = 4;
  options.queue_capacity = 4096;
  QueryEngine engine(options);
  const auto specs = arch::surveyed_architectures();

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 50;
  std::atomic<int> ok_count{0};
  std::atomic<int> mismatch_count{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const auto& spec = specs[static_cast<std::size_t>(p * kPerProducer + i) %
                                 specs.size()];
        switch (i % 3) {
          case 0: {
            QueryResponse r = engine.submit(classify_request(spec)).get();
            if (r.ok() &&
                r.classify()->classification.name == spec.classify().name) {
              ok_count.fetch_add(1);
            } else {
              mismatch_count.fetch_add(1);
            }
            break;
          }
          case 1: {
            RecommendRequest request;
            request.requirements.min_flexibility = i % 8;
            request.top_k = 5;
            QueryResponse r = engine.submit(Request(request)).get();
            (r.ok() ? ok_count : mismatch_count).fetch_add(1);
            break;
          }
          default: {
            CostRequest request;
            request.target = spec;
            request.n_sweep = {4, 16};
            QueryResponse r = engine.submit(Request(request)).get();
            (r.ok() ? ok_count : mismatch_count).fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();

  EXPECT_EQ(mismatch_count.load(), 0);
  EXPECT_EQ(ok_count.load(), kProducers * kPerProducer);
  EXPECT_EQ(engine.metrics().completed.value(),
            static_cast<std::uint64_t>(kProducers * kPerProducer));
  EXPECT_GT(engine.metrics().cache_hits.value(), 0u);
}

TEST(QueryEngineConcurrent, SubmitBatchResolvesEveryFuture) {
  EngineOptions options;
  options.worker_threads = 2;
  QueryEngine engine(options);
  const auto specs = arch::surveyed_architectures();

  std::vector<Request> batch;
  for (const arch::ArchitectureSpec& spec : specs) {
    batch.push_back(classify_request(spec));
  }
  auto futures = engine.submit_batch(std::move(batch));
  ASSERT_EQ(futures.size(), specs.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const QueryResponse response = futures[i].get();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.classify()->classification.name,
              specs[i].classify().name);
  }
}

TEST(QueryEngineConcurrent, ShutdownIsIdempotentAndDrains) {
  EngineOptions options;
  options.worker_threads = 2;
  QueryEngine engine(options);
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(
        engine.submit(classify_request(arch::surveyed_architectures()
                                           [static_cast<std::size_t>(i) % 25])));
  }
  engine.shutdown();
  engine.shutdown();  // second call is a no-op
  for (auto& future : futures) {
    const QueryResponse response = future.get();
    // Accepted before shutdown -> completed (never dropped).
    EXPECT_TRUE(response.ok());
  }
}

}  // namespace
