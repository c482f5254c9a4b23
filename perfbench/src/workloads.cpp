/// The two workloads.  interactive: point queries over one TCP server
/// (its traced run adds a probe of the combining-proxy fleet).  batch:
/// grid jobs on an in-process engine.  README.md says why each exists
/// and which layers it stresses.

#include <algorithm>
#include <cstdio>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "cluster/cluster.hpp"
#include "layers.hpp"
#include "net/net.hpp"
#include "trace/trace.hpp"

namespace perfbench {

namespace net = mpct::net;
namespace cluster = mpct::cluster;

namespace {

// Fixed offered load and sizes.  BENCHMARK.json and README.md quote
// these numbers; change them together.
constexpr double kInteractiveRate = 1000;  ///< req/s, interactive open loop
constexpr double kFleetPointRate = 500;    ///< req/s, fleet-probe point queries
constexpr double kFleetGridRate = 20;      ///< jobs/s, fleet-probe grid jobs
constexpr double kProbeSeconds = 4;        ///< fleet-probe open loop
constexpr unsigned kConnections = 2;       ///< senders / closed-loop callers
constexpr std::size_t kPipeline = 64;      ///< point queries per closed-loop batch
constexpr unsigned kEngineWorkers = 2;     ///< per engine, every workload
constexpr GridSize kBatchSize{128, 128, 21, 128};  ///< 32768 cells, 2688 trials
constexpr GridSize kFleetSize{64, 128, 21, 64};    ///< 16384 cells, 1344 trials
constexpr std::size_t kFleetBackends = 2;
constexpr std::size_t kChunksPerEndpoint = 2;

/// Set-ups per run; setup_s is their median.  One batch set-up reads
/// +-15% around its run's median, so three were too few to hold the
/// median of ten runs steady.
constexpr int kSetups = 9;
constexpr double kWindowS = 0.5;    ///< batch closed-loop throughput window
constexpr double kSliceS = 1.0;     ///< interactive: length of each slice of a round
constexpr int kWarmPoints = 1000;   ///< point queries sent during set-up
constexpr std::uint64_t kCheckEvery = 10;    ///< batch: verify 1 job in 10
constexpr std::uint64_t kSideJobs = 100000;  ///< job ids outside the timed sequence
constexpr std::size_t kRoundTripSamples = 1000;
constexpr auto kPointDeadline = std::chrono::seconds(2);
constexpr auto kGridDeadline = std::chrono::seconds(20);

std::string fmt(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.6g", value);
  return buffer;
}

std::string count_note(std::size_t n) { return "n=" + std::to_string(n); }

net::ClientOptions client_options(std::uint16_t port,
                                  svc::MetricsRegistry* metrics) {
  net::ClientOptions options;
  options.port = port;
  options.connect_timeout = std::chrono::milliseconds(2000);
  options.io_timeout = std::chrono::milliseconds(5000);
  options.max_retries = 2;
  options.metrics = metrics;
  return options;
}

std::vector<std::unique_ptr<net::Client>> make_clients(
    std::uint16_t port, unsigned n, svc::MetricsRegistry* metrics) {
  std::vector<std::unique_ptr<net::Client>> clients;
  for (unsigned i = 0; i < n; ++i) {
    clients.push_back(std::make_unique<net::Client>(client_options(port, metrics)));
  }
  return clients;
}

/// One engine behind one TCP server on an ephemeral loopback port.
struct Backend {
  svc::QueryEngine engine;
  net::Server server;

  explicit Backend(const svc::EngineOptions& options)
      : engine(options), server(engine) {
    if (!server.start()) throw std::runtime_error("server: " + server.error());
  }
};

/// The library's default engine with kEngineWorkers workers; with
/// @p qos, the default admission controller too.
svc::EngineOptions engine_options(bool qos) {
  svc::EngineOptions options;
  options.worker_threads = kEngineWorkers;
  options.enable_qos = qos;
  return options;
}

Outcome point_call(net::Client& client, const PoolEntry& entry) {
  const svc::QueryResponse response =
      client.call(entry.request, svc::Deadline::in(kPointDeadline));
  const Clock::time_point done = Clock::now();
  return Outcome::of(judge(response, entry.reference.get()), done);
}

/// kRoundTripSamples seeded draws from the pool, for the round-trip
/// residuals.
std::vector<const PoolEntry*> sample_pool(const Pool& pool, std::uint64_t seed) {
  std::mt19937_64 rng(splitmix(seed ^ 0xBEEFull));
  std::vector<const PoolEntry*> sample;
  for (std::size_t i = 0; i < kRoundTripSamples; ++i) {
    sample.push_back(&pool.entries[pool.draw(rng)]);
  }
  return sample;
}

/// Warm the caches and TCP paths with pipelined batches of point
/// queries; every answer must match its reference.
void warm_up(std::uint16_t port, const Pool& pool, std::uint64_t seed) {
  constexpr int kBatch = 100;
  net::Client client(client_options(port, nullptr));
  std::mt19937_64 rng(splitmix(seed ^ 0xA11CEull));
  for (int sent = 0; sent < kWarmPoints; sent += kBatch) {
    std::vector<const PoolEntry*> entries;
    std::vector<svc::Request> requests;
    for (int i = 0; i < kBatch; ++i) {
      entries.push_back(&pool.entries[pool.draw(rng)]);
      requests.push_back(entries.back()->request);
    }
    const auto responses =
        client.call_batch(std::move(requests), svc::Deadline::in(kGridDeadline));
    Tally tally;
    for (int i = 0; i < kBatch; ++i) tally.add(judge(responses[i], entries[i]->reference.get()));
    if (tally.bad() != 0) throw std::runtime_error("warm-up point query failed");
  }
}

/// The open-loop request sequence; fingerprint_sequence() draws the same.
std::vector<std::uint32_t> open_sequence(const Pool& pool, std::uint64_t seed,
                                         std::size_t count) {
  std::mt19937_64 rng(splitmix(seed));
  std::vector<std::uint32_t> sequence(count);
  for (auto& index : sequence) index = pool.draw(rng);
  return sequence;
}

/// Builds a stack kSetups times, keeps the last, records the median
/// build time as setup_s.  Tear-down is not timed.
template <typename Stack, typename Make>
std::unique_ptr<Stack> set_up(Report& report, Make make) {
  std::vector<double> seconds;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetups; ++i) {
    stack.reset();
    const Clock::time_point start = Clock::now();
    stack = make();
    seconds.push_back(us_since(start, Clock::now()) / 1e6);
  }
  std::string note = "median of " + std::to_string(kSetups) + " set-ups:";
  for (double s : seconds) note += " " + fmt(s);
  report.set_e2e("setup_s", median(seconds), note);
  return stack;
}

LoopResult point_open_loop(const std::vector<std::unique_ptr<net::Client>>& clients,
                           const Pool& pool, const std::vector<std::uint32_t>& sequence,
                           std::size_t first, std::size_t count, double rate) {
  return open_loop(rate, count, static_cast<unsigned>(clients.size()),
                   [&](unsigned t, std::size_t i) {
                     return point_call(*clients[t], pool.entries[sequence[first + i]]);
                   });
}

/// Closed loop of pipelined batches for @p seconds: each caller sends
/// kPipeline point queries on its connection (Client::call_batch) and
/// waits for all of them before sending the next batch.  @p rngs (one
/// per client) carry the draw sequence across calls; @p kinds (one per
/// client) count the kinds sent.
LoopResult point_closed_loop(const std::vector<std::unique_ptr<net::Client>>& clients,
                             const Pool& pool, std::vector<std::mt19937_64>& rngs,
                             std::vector<KindCounts>& kinds, double seconds) {
  return closed_loop(
      static_cast<unsigned>(clients.size()), seconds, seconds,
      [&](unsigned t, std::uint64_t) {
        std::vector<const PoolEntry*> entries;
        std::vector<svc::Request> requests;
        for (std::size_t i = 0; i < kPipeline; ++i) {
          entries.push_back(&pool.entries[pool.draw(rngs[t])]);
          requests.push_back(entries.back()->request);
          ++kinds[t][entries.back()->kind];
        }
        const auto responses = clients[t]->call_batch(
            std::move(requests), svc::Deadline::in(kPointDeadline));
        Outcome outcome;
        outcome.done = Clock::now();
        for (std::size_t i = 0; i < kPipeline; ++i) {
          outcome.tally.add(judge(responses[i], entries[i]->reference.get()));
        }
        return outcome;
      });
}

/// "measured mix of the requests sent: <kind> <share> ..." over @p counts.
std::string kind_shares(const std::vector<KindCounts>& counts) {
  KindCounts total{};
  for (const auto& c : counts) {
    for (std::size_t k = 0; k < kKinds; ++k) total[k] += c[k];
  }
  double sum = 0;
  for (auto n : total) sum += static_cast<double>(n);
  std::string line = "measured mix of the " + fmt(sum) + " point queries sent:";
  for (std::size_t k = 0; k < kKinds; ++k) {
    line += std::string(" ") + kKindNames[k] + " " +
            fmt(sum > 0 ? static_cast<double>(total[k]) / sum : 0);
  }
  return line;
}

std::vector<std::mt19937_64> closed_rngs(std::uint64_t seed) {
  std::vector<std::mt19937_64> rngs;
  for (unsigned c = 0; c < kConnections; ++c) rngs.emplace_back(splitmix(seed + 100 + c));
  return rngs;
}

void set_tracing(bool on) {
  auto& tracer = mpct::trace::Tracer::instance();
  if (on) {
    tracer.enable();
  } else {
    tracer.disable();
    tracer.clear();
  }
}

/// One round of the interleaved schedule: an open-loop slice, then a
/// closed-loop slice, each kSliceS long.  Interleaving the two and
/// taking medians over rounds keeps a burst of host noise from landing
/// on one metric only.
struct Round {
  bool traced = false;  ///< library tracer on during this round
  LoopResult open;      ///< open-loop point queries
  LoopResult closed;    ///< closed-loop pipelined point-query batches
};

std::size_t round_count(double seconds) {
  return std::max<std::size_t>(2, static_cast<std::size_t>(seconds / (2 * kSliceS)));
}

/// Runs @p count rounds; with @p trace, every odd round is traced.
std::vector<Round> run_rounds(std::size_t count, bool trace,
                              const std::function<void(std::size_t, Round&)>& body) {
  std::vector<Round> rounds(count);
  for (std::size_t r = 0; r < count; ++r) {
    rounds[r].traced = trace && r % 2 == 1;
    set_tracing(rounds[r].traced);
    body(r, rounds[r]);
    set_tracing(false);
  }
  return rounds;
}

/// Median over the rounds with the given tracing state of @p stat.
double median_over(const std::vector<Round>& rounds, bool traced,
                   const std::function<double(const Round&)>& stat) {
  std::vector<double> values;
  for (const Round& round : rounds) {
    if (round.traced == traced) values.push_back(stat(round));
  }
  return median(values);
}

/// One member of every round, merged.
LoopResult merged(const std::vector<Round>& rounds, LoopResult Round::*member) {
  LoopResult out;
  for (const Round& round : rounds) append(out, round.*member);
  return out;
}

std::string untraced_note(const std::vector<Round>& rounds) {
  const auto n = std::count_if(rounds.begin(), rounds.end(),
                               [](const Round& round) { return !round.traced; });
  return "median over " + std::to_string(n) + " untraced rounds";
}

double p50_of(const LoopResult& loop, int cls = 0) { return median(loop.latency_us[cls]); }
double ok_per_s_of(const LoopResult& loop) { return median(loop.window_ok_per_s); }

/// Grid responses digested during the run and checked against the
/// single-thread library answer after it, off the clock.
class GridChecks {
 public:
  void add(std::uint64_t job, std::uint64_t digest) {
    std::lock_guard<std::mutex> lock(mutex_);
    items_.emplace_back(job, digest);
  }

  std::size_t size() const { return items_.size(); }

  /// Number of checked jobs whose digest differs from the reference.
  std::uint64_t mismatches(std::uint64_t seed, const GridSize& size) const {
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> bad{0};
    const unsigned threads =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        for (std::size_t i; (i = next.fetch_add(1)) < items_.size();) {
          const auto [job, seen] = items_[i];
          if (reference_digest(grid_job(seed, job, size)) != seen) bad.fetch_add(1);
        }
      });
    }
    for (auto& w : workers) w.join();
    return bad.load();
  }

 private:
  std::mutex mutex_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> items_;
};

/// Record grid mismatches found after the run as failed operations.
void settle(Report& report, const GridChecks& checks, std::uint64_t seed,
            const GridSize& size) {
  const std::uint64_t bad = checks.mismatches(seed, size);
  report.tally.mismatched += bad;
  report.tally.ok -= std::min(report.tally.ok, bad);
  report.describe.push_back("grid jobs checked bit-identical against the library: " +
                            std::to_string(checks.size() - bad) + "/" +
                            std::to_string(checks.size()));
}

std::vector<double> concat(const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

/// p99 with its sample count and how many samples lie beyond it.
void tail(Report& report, const std::string& name, const std::vector<double>& values,
          double scale) {
  const double p99 = quantile(values, 0.99);
  const auto beyond = std::count_if(values.begin(), values.end(),
                                    [&](double v) { return v > p99; });
  report.set_layer(name, p99 * scale,
                   count_note(values.size()) + ", " + std::to_string(beyond) +
                       " beyond; tails are not steady on a shared host");
  report.set_layer(name.substr(0, name.rfind('_')) + "_n",
                   static_cast<double>(values.size()), "samples behind " + name);
}

void overhead(Report& report, double untraced_p50, double traced_p50) {
  report.set_layer("trace.overhead_share",
                   untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1 : 0,
                   "p50 with the library tracer on (" + fmt(traced_p50) +
                       ") / off (" + fmt(untraced_p50) + ") - 1");
}

void cache_layers(Report& report, const svc::CacheStats& before,
                  const svc::CacheStats& after) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double lookups = hits + static_cast<double>(after.misses - before.misses);
  report.set_layer("service.cache_hit_ratio", lookups > 0 ? hits / lookups : 0,
                   "hits " + fmt(hits) + " / lookups " + fmt(lookups));
  report.set_layer("service.cache_hits", hits);
  report.set_layer("service.cache_lookups", lookups);
}

void qos_layers(Report& report, const std::vector<svc::QueryEngine*>& engines) {
  double shed = 0;
  double degraded = 0;
  for (const auto* engine : engines) {
    const auto& m = engine->metrics();
    shed += static_cast<double>(m.qos_shed_batch.value() +
                                m.qos_shed_background.value());
    degraded += static_cast<double>(m.qos_degraded_responses.value());
  }
  report.set_layer("qos.shed", shed, "Overloaded answers (Batch + Background)");
  report.set_layer("qos.degraded", degraded, "sampled / stale answers (not failures)");
}

void point_layers_na(Report& report, const std::string& reason) {
  for (const char* type : kInteractiveTypes) {
    na_wire(report, type, reason);
    report.na(std::string("service.execute_us.") + type, reason);
  }
  for (const char* prefix : {"core.", "arch.", "cost.", "workload.",
                             "interactive_p99", "service.handoff_us"}) {
    report.na(prefix, reason);
  }
}

/// net.rtt_us and net.overhead_us (RTT minus the same engine's
/// submit_async round trip, same warm cache), then service.handoff_us
/// (round trip on a cache-less 2-worker engine minus inline execute).
void round_trip_layers(Report& report, net::Client& client, svc::QueryEngine& served,
                       const Pool& pool, std::uint64_t seed) {
  const auto sample = sample_pool(pool, seed);
  for (const PoolEntry* e : sample) point_call(client, *e);  // warm the cache

  std::vector<double> tcp_us, engine_us;
  for (const PoolEntry* e : sample) {
    Verdict verdict = Verdict::Ok;
    engine_us.push_back(engine_round_trip_us(served, e->request, e->reference.get(), verdict));
    const Clock::time_point start = Clock::now();
    const Outcome outcome = point_call(client, *e);
    tcp_us.push_back(us_since(start, outcome.done));
    if (verdict != Verdict::Ok || outcome.tally.bad() != 0) {
      throw std::runtime_error("round-trip sample failed");
    }
  }
  const double rtt = median(tcp_us);
  report.set_layer("net.rtt_us", rtt,
                   "p50 of net::Client::call, " + count_note(tcp_us.size()));
  report.set_layer("net.overhead_us", rtt - median(engine_us),
                   "residual: net.rtt_us - p50 engine submit_async round trip (" +
                       fmt(median(engine_us)) + " us)");

  svc::EngineOptions pooled_options = engine_options(false);
  pooled_options.enable_cache = false;
  svc::QueryEngine pooled(pooled_options);
  svc::QueryEngine inline_engine(inline_engine_options());
  std::vector<double> inline_us, pooled_us;
  for (const PoolEntry* e : sample) {
    const Clock::time_point start = Clock::now();
    const svc::QueryResponse response = inline_engine.execute(e->request);
    inline_us.push_back(us_since(start, Clock::now()));
    Verdict verdict = Verdict::Ok;
    pooled_us.push_back(engine_round_trip_us(pooled, e->request, e->reference.get(), verdict));
    if (!response.ok() || verdict != Verdict::Ok) {
      throw std::runtime_error("handoff sample failed");
    }
  }
  report.set_layer("service.handoff_us", median(pooled_us) - median(inline_us),
                   "residual: p50 submit_async->callback (" + fmt(median(pooled_us)) +
                       " us) - p50 inline execute (" + fmt(median(inline_us)) +
                       " us), cache off");
}

}  // namespace

// ------------------------------------------------------------ interactive

namespace {
void fleet_probe(const RunConfig& config, Report& report, const Pool& pool,
                 svc::MetricsRegistry& client_metrics);
}  // namespace

void run_interactive(const RunConfig& config, Report& report) {
  // Point-query latency is dominated by thread wake-ups; batch, which is
  // CPU-bound, runs without spinners so it leaves idle vCPUs to the host.
  const IdleSpinners spinners(std::thread::hardware_concurrency());
  const std::size_t rounds_n = round_count(config.seconds);
  const auto per_slice = static_cast<std::size_t>(kInteractiveRate * kSliceS);

  struct Stack {
    Pool pool;
    std::vector<std::uint32_t> sequence;
    std::unique_ptr<Backend> backend;
  };
  auto stack = set_up<Stack>(report, [&] {
    auto s = std::make_unique<Stack>();
    s->pool = make_pool(config.seed);
    s->sequence = open_sequence(s->pool, config.seed, per_slice * rounds_n);
    s->backend = std::make_unique<Backend>(engine_options(false));
    warm_up(s->backend->server.port(), s->pool, config.seed);
    return s;
  });
  svc::QueryEngine& engine = stack->backend->engine;
  report.describe.push_back(
      "interactive: net::Server on 127.0.0.1 (traffic crosses loopback), engine " +
      std::to_string(kEngineWorkers) + " workers, cache " +
      std::to_string(engine.options().cache_shards * engine.options().cache_capacity_per_shard) +
      " entries, pool " + std::to_string(kPoolSize) + " requests, Zipf s=" +
      fmt(kZipfExponent));
  report.describe.push_back(
      "rates: " + std::to_string(rounds_n) + " rounds of [" + fmt(kSliceS) +
      " s open loop at " + fmt(kInteractiveRate) + " req/s on " + std::to_string(kConnections) +
      " connections, " + fmt(kSliceS) + " s closed loop of " + std::to_string(kPipeline) +
      "-request pipelined batches on " + std::to_string(kConnections) + " connections]" +
      (config.trace ? "; library tracer on in odd rounds" : ""));

  svc::MetricsRegistry client_metrics;
  auto clients = make_clients(stack->backend->server.port(), kConnections, &client_metrics);
  auto rngs = closed_rngs(config.seed);
  std::vector<KindCounts> kinds(kConnections + 1);  // closed-loop callers, then the open loop
  for (std::uint32_t index : stack->sequence) ++kinds.back()[stack->pool.entries[index].kind];
  const svc::CacheStats cache_before = engine.cache_stats();
  const std::vector<Round> rounds = run_rounds(rounds_n, config.trace, [&](std::size_t r, Round& round) {
    round.open = point_open_loop(clients, stack->pool, stack->sequence, r * per_slice, per_slice,
                                 kInteractiveRate);
    round.closed = point_closed_loop(clients, stack->pool, rngs, kinds, kSliceS);
  });
  report.describe.push_back(kind_shares(kinds));
  const svc::CacheStats cache_after = engine.cache_stats();
  const LoopResult open = merged(rounds, &Round::open);
  const LoopResult closed = merged(rounds, &Round::closed);
  report.tally.merge(open.tally);
  report.tally.merge(closed.tally);

  const auto open_p50 = [](const Round& round) { return p50_of(round.open); };
  const double p50 = median_over(rounds, false, open_p50);
  const double ok_per_s = median_over(rounds, false, [](const Round& round) {
    return ok_per_s_of(round.closed);
  });
  const std::string rounds_note = untraced_note(rounds);
  report.set_e2e("p50_us", p50,
                 "open-loop point-query latency from due time, per-round p50, " + rounds_note +
                     ", " + count_note(open.latency_us[0].size()));
  report.set_e2e("p50_alt_us",
                 median_over(rounds, false, [](const Round& round) { return p50_of(round.closed); }),
                 "round trip of a pipelined batch of " + std::to_string(kPipeline) +
                     " point queries, per-round p50, " + rounds_note);
  report.set_e2e("ok_per_s", ok_per_s,
                 "closed-loop ok point queries per second, " + rounds_note);
  report.say("interactive_p50_us", p50, count_note(open.latency_us[0].size()));
  report.say("interactive_ok_per_s", ok_per_s);
  const std::string no_grid = "no grid jobs in this workload";
  report.say("batch_cells_per_s", kNotApplicable, no_grid);
  report.say("batch_trials_per_s", kNotApplicable, no_grid);
  report.say("batch_p50_ms", kNotApplicable, no_grid);
  if (!config.trace) return;

  report.set_layer("gen.late_p50_us", quantile(open.late_us, 0.5), count_note(open.late_us.size()));
  report.set_layer("gen.late_p99_us", quantile(open.late_us, 0.99), count_note(open.late_us.size()));
  tail(report, "interactive_p99_us", open.latency_us[0], 1);
  overhead(report, p50, median_over(rounds, true, open_p50));
  cache_layers(report, cache_before, cache_after);
  pool_layers(report, stack->pool);
  round_trip_layers(report, *clients[0], engine, stack->pool, config.seed);
  // The engine behind the point-query server runs without QoS; qos.*
  // comes from the fleet probe's backends.
  fleet_probe(config, report, stack->pool, client_metrics);
  report.na("service.sweep_parallel_efficiency", "measured on batch");
  report.na("service.curve_parallel_efficiency", "measured on batch");
  report.na("batch_p99", "measured on batch");
}

// ------------------------------------------------------------------ batch

namespace {

Outcome engine_grid_call(svc::QueryEngine& engine, std::uint64_t seed, std::uint64_t job,
                         const GridSize& size, GridChecks* checks) {
  std::future<svc::QueryResponse> future =
      engine.submit(grid_job(seed, job, size), svc::Deadline::in(kGridDeadline));
  const int cls = static_cast<int>(job % 2);
  if (future.wait_for(kGridDeadline + std::chrono::seconds(5)) != std::future_status::ready) {
    return Outcome::of(Verdict::Failed, Clock::now(), cls);
  }
  const svc::QueryResponse response = future.get();
  const Clock::time_point done = Clock::now();
  const Verdict verdict = judge(response, nullptr);
  if (verdict == Verdict::Ok && checks != nullptr &&
      splitmix(seed ^ job) % kCheckEvery == 0) {
    checks->add(job, digest(response));
  }
  return Outcome::of(verdict, done, cls);
}

}  // namespace

void run_batch(const RunConfig& config, Report& report) {
  struct Stack {
    std::unique_ptr<svc::QueryEngine> engine;
  };
  auto stack = set_up<Stack>(report, [&] {
    auto s = std::make_unique<Stack>();
    // Cache off: every job is distinct, so caching would only hold
    // results nobody asks for again (gigabytes over a run).
    svc::EngineOptions options = engine_options(false);
    options.enable_cache = false;
    s->engine = std::make_unique<svc::QueryEngine>(options);
    for (std::uint64_t j = kSideJobs; j < kSideJobs + 2; ++j) {
      if (engine_grid_call(*s->engine, config.seed, j, kBatchSize, nullptr).tally.bad() != 0) {
        throw std::runtime_error("warm-up grid job failed");
      }
    }
    return s;
  });
  svc::QueryEngine& engine = *stack->engine;
  report.describe.push_back(
      "batch: in-process QueryEngine, " + std::to_string(kEngineWorkers) +
      " workers, cache off, no network (traffic does not cross loopback); sweeps " +
      std::to_string(kBatchSize.sweep_cells()) + " cells, fault curves " +
      std::to_string(kBatchSize.curve_trials()) + " trials, every job distinct");
  report.describe.push_back("rates: closed loop, " + std::to_string(kConnections) +
                            " submitters alternating sweeps and fault curves for " +
                            fmt(config.seconds) + " s");

  GridChecks checks;
  std::atomic<std::uint64_t> next_job{0};
  const auto call = [&](unsigned, std::uint64_t) {
    return engine_grid_call(engine, config.seed, next_job.fetch_add(1), kBatchSize, &checks);
  };
  const std::uint64_t tasks_before = engine.metrics().batch_sizes.requests();
  const double untraced_s = config.trace ? config.seconds / 2 : config.seconds;
  LoopResult loop = closed_loop(kConnections, untraced_s, kWindowS, call);
  LoopResult traced;
  if (config.trace) {
    set_tracing(true);
    traced = closed_loop(kConnections, config.seconds - untraced_s, kWindowS, call);
    set_tracing(false);
  }
  const std::uint64_t tasks = engine.metrics().batch_sizes.requests() - tasks_before;
  report.tally.merge(loop.tally);
  report.tally.merge(traced.tally);
  settle(report, checks, config.seed, kBatchSize);

  const double sweep_p50 = median(loop.latency_us[0]);
  const double curve_p50 = median(loop.latency_us[1]);
  report.set_e2e("p50_us", sweep_p50,
                 "sweep submit-to-complete, " + count_note(loop.latency_us[0].size()));
  report.set_e2e("p50_alt_us", curve_p50,
                 "fault-curve submit-to-complete, " + count_note(loop.latency_us[1].size()));
  report.set_e2e("ok_per_s", median(loop.window_ok_per_s),
                 "grid jobs: median of " + std::to_string(loop.window_ok_per_s.size()) +
                     " " + fmt(kWindowS) + "-s windows");
  const double cells_per_s = static_cast<double>(loop.latency_us[0].size()) *
                             static_cast<double>(kBatchSize.sweep_cells()) / loop.elapsed_s;
  const double trials_per_s = static_cast<double>(loop.latency_us[1].size()) *
                              static_cast<double>(kBatchSize.curve_trials()) / loop.elapsed_s;
  report.say("batch_cells_per_s", cells_per_s);
  report.say("batch_trials_per_s", trials_per_s);
  report.say("batch_p50_ms", sweep_p50 / 1e3,
             "sweeps; fault curves " + fmt(curve_p50 / 1e3) + " ms");
  report.say("interactive_p50_us", kNotApplicable, "no point queries in this workload");
  report.say("interactive_ok_per_s", kNotApplicable, "no point queries in this workload");
  if (!config.trace) return;

  tail(report, "batch_p99_ms", concat(loop.latency_us[0], traced.latency_us[0]), 1e-3);
  overhead(report, sweep_p50, median(traced.latency_us[0]));
  report.na("service.cache_", "batch runs with the cache off: every job is distinct");
  qos_layers(report, {&engine});
  const double jobs = static_cast<double>(loop.tally.attempted + traced.tally.attempted);
  report.set_layer("service.chunks_per_request", jobs > 0 ? static_cast<double>(tasks) / jobs : 0,
                   "engine tasks " + fmt(static_cast<double>(tasks)) + " / grid jobs " + fmt(jobs));
  std::vector<svc::Request> requests;
  for (std::uint64_t j = 0; j < 8; ++j) requests.push_back(grid_job(config.seed, j, kBatchSize));
  std::vector<const svc::Request*> views;
  for (const auto& request : requests) views.push_back(&request);
  fingerprint_layer(report, views, "the first 8 grid jobs");
  const GridTimes library = grid_layers(report, config.seed, kBatchSize, 0);

  // Parallel efficiency: the engine alone on one job kind for 1 s each,
  // against kEngineWorkers x the single-thread library rate.
  const auto efficiency = [&](std::uint64_t kind, double units_per_job, double ns_per_unit) {
    std::atomic<std::uint64_t> k{0};
    const LoopResult only = closed_loop(kConnections, 1.0, kWindowS, [&](unsigned, std::uint64_t) {
      return engine_grid_call(engine, config.seed, 2 * (kSideJobs + k.fetch_add(1)) + kind,
                              kBatchSize, nullptr);
    });
    report.tally.merge(only.tally);
    const double rate = static_cast<double>(only.latency_us[kind].size()) * units_per_job /
                        only.elapsed_s;
    return rate / (kEngineWorkers * 1e9 / ns_per_unit);
  };
  report.set_layer("service.sweep_parallel_efficiency",
                   efficiency(0, static_cast<double>(kBatchSize.sweep_cells()),
                              library.sweep_ns_per_cell),
                   "engine cells/s / (" + std::to_string(kEngineWorkers) +
                       " x single-thread explore::sweep cells/s)");
  report.set_layer("service.curve_parallel_efficiency",
                   efficiency(1, static_cast<double>(kBatchSize.curve_trials()),
                              library.curve_ns_per_trial),
                   "engine trials/s / (" + std::to_string(kEngineWorkers) +
                       " x single-thread fault::evaluate_curve trials/s)");

  const std::string no_wire = "batch runs in-process and never touches the wire";
  for (const char* type : kGridTypes) na_wire(report, type, no_wire);
  for (const char* type : kChunkTypes) na_wire(report, type, no_wire);
  point_layers_na(report, "no point queries in this workload");
  report.na("gen.", "closed loop: no send schedule to be late against");
  report.na("net.", no_wire);
  report.na("cluster.", "no proxy in this workload");
}

// ------------------------------------------------------------ fleet probe

namespace {

/// Per-layer metrics of the fleet tier, measured in the interactive
/// traced run: a CombiningProxy (2 chunks per endpoint) over two
/// net::Server backends (QoS on) carrying an open loop of point queries
/// and grid jobs at fixed rates for kProbeSeconds.  Its latencies are
/// printed but not gated: as a workload of its own, the fleet spread
/// past every bound whenever the host's CPU steal drifted.
void fleet_probe(const RunConfig& config, Report& report, const Pool& pool,
                 svc::MetricsRegistry& client_metrics) {
  const auto points_per_s = static_cast<std::size_t>(kFleetPointRate);
  const auto grids_per_s = static_cast<std::size_t>(kFleetGridRate);
  std::vector<std::unique_ptr<Backend>> backends;
  cluster::ProxyOptions options;
  for (std::size_t b = 0; b < kFleetBackends; ++b) {
    backends.push_back(std::make_unique<Backend>(engine_options(true)));
    options.cluster.endpoints.push_back({"127.0.0.1", backends.back()->server.port()});
  }
  options.cluster.connect_timeout = std::chrono::milliseconds(2000);
  options.cluster.io_timeout = std::chrono::milliseconds(5000);
  options.chunks_per_endpoint = kChunksPerEndpoint;
  cluster::CombiningProxy proxy(options);  // stops before the backends
  if (!proxy.start()) throw std::runtime_error("proxy: " + proxy.error());
  warm_up(proxy.port(), pool, config.seed);
  std::vector<svc::QueryEngine*> engines;
  for (auto& b : backends) engines.push_back(&b->engine);
  report.describe.push_back(
      "fleet probe (traced run only): CombiningProxy (" +
      std::to_string(proxy.options().worker_threads) + " workers, " +
      std::to_string(kChunksPerEndpoint) + " chunks per endpoint) over " +
      std::to_string(kFleetBackends) + " net::Server backends (" +
      std::to_string(kEngineWorkers) + " workers each, QoS on) on 127.0.0.1; open loop " +
      fmt(kFleetPointRate) + " point req/s + " + fmt(kFleetGridRate) + " grid jobs/s (sweeps " +
      std::to_string(kFleetSize.sweep_cells()) + " cells, curves " +
      std::to_string(kFleetSize.curve_trials()) + " trials) for " + fmt(kProbeSeconds) + " s");

  auto point_clients = make_clients(proxy.port(), kConnections, &client_metrics);
  auto grid_clients = make_clients(proxy.port(), kConnections, &client_metrics);
  GridChecks checks;
  const auto sequence = open_sequence(pool, config.seed ^ 0xF1EE7ull,
                                      points_per_s * static_cast<std::size_t>(kProbeSeconds));
  LoopResult grids;
  std::thread grid_thread([&] {
    grids = open_loop(kFleetGridRate, grids_per_s * static_cast<std::size_t>(kProbeSeconds),
                      kConnections, [&](unsigned t, std::size_t job) {
                        const svc::QueryResponse response = grid_clients[t]->call(
                            grid_job(config.seed, job, kFleetSize),
                            svc::Deadline::in(kGridDeadline));
                        const Clock::time_point done = Clock::now();
                        const Verdict verdict = judge(response, nullptr);
                        // A degraded (sampled) answer is not the full
                        // grid, so only full answers are checked.
                        if (verdict == Verdict::Ok) checks.add(job, digest(response));
                        return Outcome::of(verdict, done, static_cast<int>(job % 2));
                      });
  });
  const LoopResult points =
      point_open_loop(point_clients, pool, sequence, 0, sequence.size(), kFleetPointRate);
  grid_thread.join();
  report.tally.merge(points.tally);
  report.tally.merge(grids.tally);
  settle(report, checks, config.seed, kFleetSize);
  Tally probe = points.tally;
  probe.merge(grids.tally);
  report.describe.push_back(
      "fleet probe answers (default admission controller): ok " + fmt(probe.ok) +
      ", degraded " + fmt(probe.degraded) + " (sampled, not checked for bit-identity), refused " +
      fmt(probe.refused) + ", failed " + fmt(probe.failed));
  report.describe.push_back(
      "fleet probe latency from due time (not gated): point p50 " + fmt(p50_of(points)) +
      " us (" + count_note(points.latency_us[0].size()) + "), sweep p50 " +
      fmt(p50_of(grids, 0) / 1e3) + " ms (" + count_note(grids.latency_us[0].size()) +
      "), fault-curve p50 " + fmt(p50_of(grids, 1) / 1e3) + " ms (" +
      count_note(grids.latency_us[1].size()) + ")");

  std::uint64_t chunks = 0;
  for (auto* e : engines) {
    chunks += e->metrics().latency(svc::RequestType::SweepChunk).snapshot().count +
              e->metrics().latency(svc::RequestType::FaultChunk).snapshot().count;
  }
  const double grid_jobs = static_cast<double>(grids.tally.attempted);
  report.set_layer("service.chunks_per_request", static_cast<double>(chunks) / grid_jobs,
                   "fleet probe: backend chunk requests " + fmt(static_cast<double>(chunks)) +
                       " / grid jobs " + fmt(grid_jobs));
  qos_layers(report, engines);
  const auto& pm = proxy.metrics();
  const double hedges = static_cast<double>(pm.net_hedges_sent.value());
  const double won = static_cast<double>(pm.net_hedges_won.value());
  const double sent = static_cast<double>(pm.net_requests_sent.value());
  report.set_layer("cluster.hedges_sent", hedges,
                   "of " + fmt(sent) + " backend requests (wasted duplicates: " +
                       fmt(hedges - won) + ")");
  report.set_layer("cluster.hedges_won", won, "of " + fmt(hedges) + " hedges");
  report.set_layer("cluster.failovers", static_cast<double>(pm.net_failovers.value()),
                   "of " + fmt(sent) + " backend requests");
  report.set_layer("net.retries",
                   static_cast<double>(client_metrics.net_retries.value() + pm.net_retries.value()),
                   "client + proxy reconnect-and-resend attempts");
  grid_layers(report, config.seed, kFleetSize, kFleetBackends * kChunksPerEndpoint);

  // Proxy overhead: the same warm point queries through the proxy and
  // straight to a backend.
  net::Client direct(client_options(backends[0]->server.port(), nullptr));
  net::Client& via_proxy = *point_clients[0];
  const auto sample = sample_pool(pool, config.seed);
  for (const PoolEntry* e : sample) {
    point_call(via_proxy, *e);
    point_call(direct, *e);
  }
  std::vector<double> proxy_us, direct_us;
  for (const PoolEntry* e : sample) {
    Clock::time_point start = Clock::now();
    const Outcome a = point_call(via_proxy, *e);
    proxy_us.push_back(us_since(start, a.done));
    start = Clock::now();
    const Outcome b = point_call(direct, *e);
    direct_us.push_back(us_since(start, b.done));
    if (a.tally.bad() != 0 || b.tally.bad() != 0) {
      throw std::runtime_error("proxy overhead sample failed");
    }
  }
  report.set_layer("cluster.proxy_overhead_us", median(proxy_us) - median(direct_us),
                   "residual: p50 proxy RTT (" + fmt(median(proxy_us)) +
                       " us) - p50 direct backend RTT (" + fmt(median(direct_us)) +
                       " us), same warm requests");
}

}  // namespace

}  // namespace perfbench
