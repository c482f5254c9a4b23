/// Tests of mpct::service — the concurrent taxonomy query engine.
///
/// The concurrency strategy mirrors the engine's own design: every
/// deterministic property (result values, cache accounting, rejection
/// paths) is checked in the single-threaded fallback mode
/// (worker_threads == 0, fully reproducible under ctest), and the
/// multi-threaded paths are stress-checked for agreement with the
/// sequential API rather than for exact metric counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <fstream>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/registry.hpp"
#include "core/taxonomy_table.hpp"
#include "service/service.hpp"
#include "trace/trace.hpp"

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
  CostRequest original_cost;
  original_cost.target = specs[2];
  CostRequest copy_cost;
  copy_cost.target = copy;
  EXPECT_EQ(fingerprint(original_cost), fingerprint(copy_cost));
  EXPECT_EQ(fingerprint(Request(ClassifyRequest::of(specs[2]))),
            fingerprint(Request(ClassifyRequest::of(copy))));
}

TEST(Fingerprint, FieldChangesChangeHash) {
  const auto key = [](const arch::ArchitectureSpec& spec) {
    return fingerprint(ClassifyRequest::of(spec));
  };
  arch::ArchitectureSpec spec = arch::surveyed_architectures()[2];
  const Fingerprint base = key(spec);
  arch::ArchitectureSpec renamed = spec;
  renamed.name += "'";
  EXPECT_NE(key(renamed), base);
  arch::ArchitectureSpec reconnected = spec;
  reconnected.at(ConnectivityRole::DpDp) = arch::ConnectivityExpr::none();
  EXPECT_NE(key(reconnected), base);
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

TEST(Metrics, RendersTableAndPrometheus) {
  QueryEngine engine(single_threaded());
  const auto& spec = arch::surveyed_architectures()[0];
  engine.submit(classify_request(spec)).get();
  engine.submit(classify_request(spec)).get();  // cache hit

  const std::string table = engine.metrics().to_table(engine.cache_stats());
  EXPECT_NE(table.find("cache"), std::string::npos);
  EXPECT_NE(table.find("latency: classify"), std::string::npos);

  const std::string prom =
      engine.metrics().to_prometheus(engine.cache_stats());
  EXPECT_NE(prom.find("\nmpct_cache_hits_total 1\n"), std::string::npos);
  EXPECT_NE(prom.find("\nmpct_requests_submitted_total 2\n"),
            std::string::npos);
}

/// A registry whose every counter and gauge holds a distinct value, set
/// by member name so the goldens below do not lean on the renderers' own
/// list of rows.  Each request type's histogram gets a few fixed samples.
void fill_distinct(MetricsRegistry& m) {
  std::uint64_t next = 101;
  for (Counter* counter :
       {&m.submitted, &m.completed, &m.rejected_queue_full,
        &m.rejected_deadline, &m.rejected_shutdown, &m.expired_in_queue,
        &m.failed, &m.cache_hits, &m.cache_misses, &m.net_bytes_in,
        &m.net_bytes_out, &m.net_frames_in, &m.net_frames_out,
        &m.net_decode_errors, &m.net_connections_opened,
        &m.net_connections_closed, &m.net_retries, &m.net_requests_sent,
        &m.net_hedges_sent, &m.net_hedges_won, &m.net_failovers,
        &m.sim_runs, &m.sim_cycles, &m.sim_fault_runs,
        &m.trace_spans_exported, &m.trace_spans_dropped,
        &m.trace_spans_sampled_out, &m.trace_batches_sent,
        &m.trace_batches_dropped, &m.trace_collector_batches,
        &m.trace_collector_spans, &m.qos_shed_background,
        &m.qos_shed_batch, &m.qos_degraded_responses,
        &m.qos_cancelled_queued, &m.qos_cancelled_inflight,
        &m.qos_cancels_received, &m.qos_cancels_sent}) {
    counter->add(next++);
  }
  for (Gauge* gauge :
       {&m.queue_depth, &m.in_flight, &m.net_active_connections}) {
    gauge->set(static_cast<std::int64_t>(next++));
  }
  m.batch_sizes.record(3);
  m.batch_sizes.record(5);
  m.batch_sizes.record(9);
  for (std::size_t t = 0; t < kRequestTypeCount; ++t) {
    const auto scale = static_cast<std::int64_t>(t + 1);
    for (const std::int64_t ns : {700, 45'000, 2'500'000, 90'000'000}) {
      m.latency_by_type[t].record(std::chrono::nanoseconds(ns * scale));
    }
  }
}

CacheStats distinct_cache_stats() {
  CacheStats cache;
  cache.hits = 11;
  cache.misses = 12;
  cache.insertions = 13;
  cache.evictions = 14;
  cache.entries = 15;
  return cache;
}

/// Compare @p actual with tests/data/@p name byte for byte; on a
/// mismatch, write the actual rendering beside the test binary so it
/// can be inspected (and, for a deliberate format change, copied over).
void expect_matches_golden(const std::string& name,
                           const std::string& actual) {
  const std::string path = std::string(MPCT_TEST_DATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "cannot open " << path;
  std::ostringstream expected;
  expected << in.rdbuf();
  if (expected.str() != actual) {
    const std::string dump = name + ".actual";
    std::ofstream(dump, std::ios::binary) << actual;
    ADD_FAILURE() << path << " differs from the rendering; see " << dump;
  }
}

TEST(MetricsGolden, TableMatchesTheCheckedInRendering) {
  MetricsRegistry metrics;
  fill_distinct(metrics);
  expect_matches_golden("metrics_table.txt",
                        metrics.to_table(distinct_cache_stats()));
}

TEST(MetricsGolden, PrometheusMatchesTheCheckedInRendering) {
  MetricsRegistry metrics;
  fill_distinct(metrics);
  expect_matches_golden("metrics_prometheus.txt",
                        metrics.to_prometheus(distinct_cache_stats()));
}

TEST(MetricRows, EveryFieldRowShowsItsOwnValueInBothRenderers) {
  MetricsRegistry metrics;
  std::vector<std::pair<MetricRow, std::uint64_t>> fields;
  std::set<const void*> members;
  std::uint64_t next = 7'000'001;
  for (const MetricRow& row : metric_rows()) {
    // The family's `_total` suffix is what renders a row as a counter.
    if (row.counter != nullptr) {
      (metrics.*row.counter).add(next);
      members.insert(&(metrics.*row.counter));
      EXPECT_TRUE(row.family.ends_with("_total")) << row.family;
    } else if (row.gauge != nullptr) {
      (metrics.*row.gauge).set(static_cast<std::int64_t>(next));
      members.insert(&(metrics.*row.gauge));
      EXPECT_FALSE(row.family.ends_with("_total")) << row.family;
    } else {
      continue;
    }
    fields.emplace_back(row, next);
    next += 7'919;
  }
  // One row per Counter/Gauge member: apart from the two histograms,
  // the registry is exactly the field rows' 8-byte atomics, so a member
  // added without a row changes the size and fails here.
  static_assert(sizeof(Counter) == sizeof(Gauge));
  EXPECT_EQ(fields.size(), 41u);
  EXPECT_EQ(members.size(), fields.size()) << "two rows share a member";
  EXPECT_EQ(fields.size() * sizeof(Counter),
            sizeof(MetricsRegistry) - sizeof(BatchSizeHistogram) -
                sizeof(MetricsRegistry::latency_by_type));

  const std::string table = metrics.to_table({});
  const std::string prom = metrics.to_prometheus({});
  for (const auto& [row, value] : fields) {
    const std::string text = std::to_string(value);
    if (!row.name.empty()) {
      std::istringstream lines(table);
      std::size_t found = 0;
      for (std::string line; std::getline(lines, line);) {
        if (line.rfind("| " + std::string(row.name) + " ", 0) != 0) continue;
        ++found;
        EXPECT_NE(line.find(" " + text + " |"), std::string::npos) << line;
      }
      EXPECT_EQ(found, 1u) << row.name;
    }
    if (!row.family.empty()) {
      std::string sample = "\n";
      sample += row.family;
      if (!row.labels.empty()) {
        sample += '{';
        sample += row.labels;
        sample += '}';
      }
      sample += ' ';
      sample += text;
      sample += '\n';
      EXPECT_NE(prom.find(sample), std::string::npos) << sample;
    }
  }
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

TEST(QueryEngineBackpressure, RequestDrainedOnShutdownRecordsOneLatencySample) {
  EngineOptions options;
  options.worker_threads = 2;
  options.start_workers = false;
  QueryEngine engine(options);
  std::future<QueryResponse> pending =
      engine.submit(classify_request(arch::surveyed_architectures()[0]));
  engine.shutdown();
  EXPECT_EQ(pending.get().status.code, StatusCode::ShuttingDown);
  // Answered like a grid job drained the same way: one sample.
  EXPECT_EQ(engine.metrics().latency(RequestType::Classify).snapshot().count,
            1u);
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

// ---------------------------------------------------------------------------
// One accounting for both serving modes: the inline engine and the
// worker pool count every outcome alike.

std::size_t instants_named(const trace::TraceSnapshot& snap,
                           std::string_view name) {
  std::size_t count = 0;
  for (const trace::Span& span : snap.spans) {
    if (span.instant() && span.name != nullptr && name == span.name) ++count;
  }
  return count;
}

TEST(QueryEngineAccounting, InvalidGridAccountsLikeTheInlinePath) {
  SweepRequest invalid;
  invalid.grid.n_values = {-1};
  trace::Tracer& tracer = trace::Tracer::instance();
  // Per engine: failed, sweep latency samples, request.failed instants.
  std::vector<std::array<std::uint64_t, 3>> counts;
  for (const unsigned workers : {0u, 2u}) {
    SCOPED_TRACE(workers);
    tracer.clear();
    tracer.enable();
    EngineOptions options;
    options.worker_threads = workers;
    QueryEngine engine(options);
    EXPECT_EQ(engine.submit(invalid).get().status.code,
              StatusCode::InvalidRequest);
    tracer.disable();
    const MetricsRegistry& m = engine.metrics();
    EXPECT_EQ(m.completed.value(), 0u);
    counts.push_back({m.failed.value(),
                      m.latency(RequestType::Sweep).snapshot().count,
                      instants_named(tracer.snapshot(), "request.failed")});
  }
  tracer.clear();
  EXPECT_EQ(counts[0], (std::array<std::uint64_t, 3>{1, 1, 1}));
  EXPECT_EQ(counts[1], counts[0]);
}

struct MixEntry {
  Request request;
  bool expired = false;  ///< submitted already past its deadline
};

/// Seeded mix over point requests and both grid kinds: about a quarter
/// invalid, one in eight already expired, and values drawn from small
/// ranges so repeats hit the cache.
std::vector<MixEntry> seeded_mix(std::uint32_t seed, std::size_t size) {
  std::mt19937 rng(seed);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto specs = arch::surveyed_architectures();
  std::vector<MixEntry> mix;
  for (std::size_t i = 0; i < size; ++i) {
    const bool valid = pick(4) != 0;
    const std::int64_t n = valid ? std::int64_t{2} << pick(3) : -1;
    Request request;
    switch (pick(6)) {
      case 0:
        request = valid ? ClassifyRequest::of(specs[pick(4)])
                        : ClassifyRequest::of_adl("not an architecture");
        break;
      case 1: {
        RecommendRequest recommend;
        recommend.requirements.n = n;
        request = recommend;
        break;
      }
      case 2: {
        CostRequest cost;
        cost.target = specs[pick(4)];
        cost.n_sweep = {n};
        request = std::move(cost);
        break;
      }
      case 3: {
        SweepRequest sweep;
        sweep.grid.n_values = {n, 4};
        sweep.grid.lut_budgets = {64, 512};
        request = sweep;
        break;
      }
      case 4: {
        FaultSweepRequest curve;
        curve.spec.machine.granularity = Granularity::IpDp;
        curve.spec.machine.ips = Multiplicity::Many;
        curve.spec.machine.dps = Multiplicity::Many;
        curve.spec.machine.set_switch(ConnectivityRole::IpDp,
                                      SwitchKind::Crossbar);
        curve.spec.bindings.n = 4;
        curve.spec.fault_rates = {0.0, valid ? 0.1 * double(pick(3)) : 1.5};
        curve.spec.trials_per_rate = 8;
        request = curve;
        break;
      }
      default: {
        SweepChunkRequest chunk;
        chunk.grid.n_values = {2, 4};
        chunk.begin = pick(2);
        chunk.end = valid ? 2 : 99;
        request = chunk;
        break;
      }
    }
    mix.push_back({std::move(request), pick(8) == 0});
  }
  return mix;
}

/// submitted = completed + every rejection + failed + every shed and
/// cancel: each submission is answered under exactly one counter.
void expect_counting_law(const MetricsRegistry& m) {
  EXPECT_EQ(m.submitted.value(),
            m.completed.value() + m.rejected_queue_full.value() +
                m.rejected_deadline.value() + m.rejected_shutdown.value() +
                m.failed.value() + m.qos_shed_background.value() +
                m.qos_shed_batch.value() + m.qos_cancelled_queued.value() +
                m.qos_cancelled_inflight.value());
}

TEST(QueryEngineAccounting, SeededMixObeysTheCountingLawInBothModes) {
  const std::vector<MixEntry> mix = seeded_mix(20261019, 240);
  const Deadline past =
      Deadline::at_time(Clock::now() - std::chrono::seconds(1));
  // Latency samples per request type, inline engine then pool.
  std::array<std::array<std::uint64_t, kRequestTypeCount>, 2> samples{};
  for (const unsigned workers : {0u, 2u}) {
    SCOPED_TRACE(workers);
    EngineOptions options;
    options.worker_threads = workers;
    QueryEngine engine(options);
    std::vector<std::future<QueryResponse>> futures;
    for (const MixEntry& entry : mix) {
      futures.push_back(engine.submit(
          entry.request, entry.expired ? past : Deadline::never()));
    }
    std::size_t ok = 0;
    for (auto& future : futures) ok += future.get().ok() ? 1 : 0;
    engine.drain();
    const MetricsRegistry& m = engine.metrics();
    EXPECT_EQ(m.submitted.value(), mix.size());
    EXPECT_EQ(m.completed.value(), ok);
    EXPECT_GT(m.failed.value(), 0u);
    EXPECT_GT(m.rejected_deadline.value(), 0u);
    EXPECT_GT(m.cache_hits.value(), 0u);
    expect_counting_law(m);
    for (std::size_t type = 0; type < kRequestTypeCount; ++type) {
      samples[workers == 0 ? 0 : 1][type] =
          m.latency(static_cast<RequestType>(type)).snapshot().count;
    }
  }
  EXPECT_EQ(samples[0], samples[1]);

  // Pool only: the mix through submit_async, every third request
  // cancelled while it waits (the workers start afterwards).
  EngineOptions options;
  options.worker_threads = 2;
  options.start_workers = false;
  QueryEngine engine(options);
  std::atomic<std::size_t> answered{0};
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const Request& request = mix[i].request;
    engine.submit_async(request, mix[i].expired ? past : Deadline::never(),
                        qos::default_priority(request), /*cancel_owner=*/1,
                        /*cancel_id=*/i + 1,
                        [&answered](QueryResponse) { ++answered; });
    if (i % 3 == 0) engine.cancel(1, i + 1);
  }
  engine.start();
  engine.drain();
  EXPECT_EQ(answered.load(), mix.size());
  const MetricsRegistry& m = engine.metrics();
  EXPECT_EQ(m.submitted.value(), mix.size());
  EXPECT_GT(m.qos_cancelled_queued.value(), 0u);
  expect_counting_law(m);
  // Every answer but a submit-time expiry records one latency sample,
  // cancelled point requests included.
  const auto expired =
      std::count_if(mix.begin(), mix.end(),
                    [](const MixEntry& entry) { return entry.expired; });
  std::uint64_t recorded = 0;
  for (std::size_t type = 0; type < kRequestTypeCount; ++type) {
    recorded += m.latency(static_cast<RequestType>(type)).snapshot().count;
  }
  EXPECT_EQ(recorded, mix.size() - static_cast<std::size_t>(expired));
}

}  // namespace
