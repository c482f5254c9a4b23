#pragma once
/// Shared declarations of the serving-stack benchmark driver.  See
/// ../README.md for the workloads, the metrics and how they map onto
/// the library's layers.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "service/service.hpp"

namespace perfbench {

namespace svc = mpct::service;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- stats

/// Nearest-rank quantile of @p values (copied, then sorted); 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double us_since(Clock::time_point from, Clock::time_point to);

/// Median over @p reps repetitions of the mean nanoseconds one call of
/// @p fn(i) takes, i cycling over [0, n).  Each repetition makes at
/// least @p n calls and runs for at least ~2 ms.
double ns_per_call(std::size_t n, int reps,
                   const std::function<void(std::size_t)>& fn);

/// Full-field digest of an ok grid response (0 for anything else), for
/// deferred bit-identity checks against the library answer.
std::uint64_t digest(const svc::QueryResponse& response);
/// Digest of the single-thread library answer to a grid request.
std::uint64_t reference_digest(const svc::Request& request);

std::uint64_t splitmix(std::uint64_t x);

// --------------------------------------------------------------- inputs

/// The point-query kinds, in equal shares: no recorded traffic gives
/// their mix, so none is weighted above another (README.md, Assumptions).
inline constexpr const char* kKindNames[] = {"classify_spec", "classify_adl", "cost",
                                             "recommend", "simulate"};
inline constexpr std::size_t kKinds = std::size(kKindNames);
using KindCounts = std::array<std::uint64_t, kKinds>;

/// One interactive request with its inline reference answer.
struct PoolEntry {
  svc::Request request;
  std::shared_ptr<const svc::ResponsePayload> reference;
  std::size_t kind = 0;  ///< index into kKindNames
};

/// Seeded set of distinct point queries (classify spec / classify ADL /
/// cost / recommend / small simulate), drawn Zipf-style so that a
/// cache smaller than the pool sees a mid-range hit ratio.
struct Pool {
  std::vector<PoolEntry> entries;
  std::vector<double> cdf;            ///< Zipf CDF over ranks
  /// rank -> entry: a seeded shuffle that keeps each rank's request
  /// kind, so the kind mix of the draws is the same for every seed.
  std::vector<std::uint32_t> by_rank;

  std::uint32_t draw(std::mt19937_64& rng) const;
};

inline constexpr std::size_t kPoolSize = 4096;  ///< 4x the engine cache
inline constexpr double kZipfExponent = 0.7;

/// A cache-less engine that runs each request on the calling thread:
/// the reference answers and the single-thread timings.
inline svc::EngineOptions inline_engine_options() {
  svc::EngineOptions options;
  options.worker_threads = 0;
  options.enable_cache = false;
  return options;
}

/// Builds the pool and computes every reference with an inline,
/// cache-less QueryEngine.  Throws if any reference is not Ok.
Pool make_pool(std::uint64_t seed);

/// Grid-job sizes: a sweep is n_values x lut_budgets x 2 objectives
/// cells, a fault curve fault_rates x trials Monte-Carlo trials.
struct GridSize {
  int n_values = 0;
  int lut_budgets = 0;
  int fault_rates = 0;
  int trials = 0;

  std::size_t sweep_cells() const {
    return static_cast<std::size_t>(n_values) *
           static_cast<std::size_t>(lut_budgets) * 2;
  }
  std::size_t curve_trials() const {
    return static_cast<std::size_t>(fault_rates) *
           static_cast<std::size_t>(trials);
  }
};

/// Grid job @p j of the seeded sequence: even j a design sweep, odd j a
/// fault curve.  Every job is distinct (no cache hits) and all jobs of
/// one kind cost about the same.
svc::Request grid_job(std::uint64_t seed, std::uint64_t j,
                      const GridSize& size);

// --------------------------------------------------------------- driver

/// What one request came back as.  Degraded is the program's declared
/// answer under QoS pressure (`sampled`): not a failure, but not the
/// full-fidelity answer either, so it is counted apart and never
/// checked for bit-identity.
enum class Verdict { Ok, Degraded, Failed, Refused, Mismatch };
Verdict judge(const svc::QueryResponse& response,
              const svc::ResponsePayload* reference);

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t degraded = 0;
  std::uint64_t failed = 0;
  std::uint64_t refused = 0;
  std::uint64_t mismatched = 0;

  void add(Verdict v);
  void merge(const Tally& other);
  std::uint64_t bad() const { return failed + refused + mismatched; }
};

/// What one call of a load generator sent and got back: one request,
/// or a pipelined batch of them.
struct Outcome {
  Tally tally;
  int cls = 0;  ///< request class, for per-class latency (0 or 1)
  /// When the (last) response arrived.  Calls stamp it before judging
  /// the response, so the correctness check is not timed.
  Clock::time_point done;

  static Outcome of(Verdict v, Clock::time_point done, int cls = 0) {
    Outcome outcome;
    outcome.tally.add(v);
    outcome.cls = cls;
    outcome.done = done;
    return outcome;
  }
};

struct LoopResult {
  Tally tally;
  std::vector<double> latency_us[2];  ///< per Outcome::cls
  std::vector<double> late_us;        ///< open loop: send time - due time
  std::vector<double> window_ok_per_s;  ///< closed loop: per window
  double elapsed_s = 0;
};

/// Adds @p from's tally, latencies and lateness to @p into.
void append(LoopResult& into, const LoopResult& from);

/// Open loop: request i (of @p count) is due at start + i / rate and is
/// sent by thread i % threads, which paces to the due time (sleep, then
/// spin the last stretch).  Latency is timed from the due time.
LoopResult open_loop(double rate_per_s, std::size_t count, unsigned threads,
                     const std::function<Outcome(unsigned, std::size_t)>& call);

/// Closed loop: @p threads callers each make their next call when the
/// previous one is answered, for @p seconds.  ok responses are counted
/// in @p window_s windows; a call's latency is recorded when all of its
/// requests succeeded.
LoopResult closed_loop(unsigned threads, double seconds, double window_s,
                       const std::function<Outcome(unsigned, std::uint64_t)>& call);

/// Keeps every CPU busy while alive with spin threads at SCHED_IDLE
/// priority, which yield to any other runnable thread at once.  On a
/// virtual machine a wake-up aimed at a halted vCPU waits for the
/// hypervisor to run that vCPU again, and that wait swings with the
/// load of other guests; with no vCPU ever halted, the latencies
/// measure the program rather than its neighbours (the user-space
/// equivalent of booting with idle=poll).
class IdleSpinners {
 public:
  explicit IdleSpinners(unsigned count);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// --------------------------------------------------------------- report

inline constexpr double kNotApplicable = -1;

struct MetricValue {
  double value = 0;
  std::string note;
};

/// Everything one run produces.  Workloads fill `e2e` and `layers` by
/// metric name; main.cpp emits them in the order of the name tables.
struct Report {
  std::map<std::string, MetricValue> e2e;
  std::map<std::string, MetricValue> layers;
  /// Why a per-layer prefix does not apply to this workload.
  std::map<std::string, std::string> not_applicable;
  /// The headline metrics printed on every run, by name.
  std::map<std::string, MetricValue> summary;
  std::vector<std::string> describe;  ///< self-description lines
  Tally tally;

  void set_e2e(const std::string& name, double value, std::string note = {});
  void set_layer(const std::string& name, double value, std::string note = {});
  /// Mark every per-layer metric whose name starts with @p prefix as not
  /// applicable to this workload (emitted as 0 with @p reason).
  void na(const std::string& prefix, std::string reason);
  /// Record a headline metric; kNotApplicable with the reason as
  /// note when the workload has no such traffic.
  void say(const std::string& name, double value, std::string note = {});
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

void run_interactive(const RunConfig& config, Report& report);
void run_batch(const RunConfig& config, Report& report);

/// The request-fingerprint sequence a workload's generator produces for
/// @p seed (self-test: identical for equal seeds).
std::vector<std::uint64_t> fingerprint_sequence(const std::string& workload,
                                                std::uint64_t seed,
                                                std::size_t count);

}  // namespace perfbench
