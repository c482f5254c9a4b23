/// perfbench: one seeded run of one workload of the taxonomy serving
/// stack.  Normally started through ../run.py, which builds it first.
///
///   perfbench --workload <interactive|batch> --seed <n>
///             --seconds <s> --trace <0|1>
///             [--commit <id>] [--src-digest <hex>]
///   perfbench --fingerprints <count> --workload <w> --seed <n>
///
/// Human-readable lines come first; the last stdout line is one JSON
/// object {"correct", "attempted", "failed", "metrics"} holding the
/// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
/// Exit codes: 0 ok, 2 usage error, 3 watchdog; 11 / 12 when a response
/// of the interactive / batch workload mismatched the library's answer;
/// 21 / 22 when that workload failed to set up or run (the reason goes
/// to stderr).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "layers.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void Report::set_e2e(const std::string& name, double value, std::string note) {
  e2e[name] = {value, std::move(note)};
}

void Report::set_layer(const std::string& name, double value, std::string note) {
  layers[name] = {value, std::move(note)};
}

void Report::na(const std::string& prefix, std::string reason) {
  not_applicable[prefix] = std::move(reason);
}

void Report::say(const std::string& name, double value, std::string note) {
  summary[name] = {value, std::move(note)};
}

namespace {

using Table = std::vector<std::pair<std::string, std::string>>;  // name, unit

/// End-to-end metrics, emitted with --trace 0 (BENCHMARK.json end_to_end).
const Table& e2e_table() {
  static const Table table = {{"setup_s", "s"},
                              {"peak_rss_mb", "MB"},
                              {"p50_us", "us"},
                              {"p50_alt_us", "us"},
                              {"ok_per_s", "1/s"}};
  return table;
}

/// Per-layer metrics, emitted with --trace 1 (BENCHMARK.json per_layer).
const Table& layer_table() {
  static const Table table = [] {
    Table t = {{"gen.late_p50_us", "us"}, {"gen.late_p99_us", "us"}};
    const std::vector<std::string> types = {"classify", "recommend", "cost",
                                            "simulate", "sweep", "fault_sweep",
                                            "sweep_chunk", "fault_chunk"};
    for (const auto& [metric, unit] : kWireMetrics) {
      for (const auto& type : types) {
        t.emplace_back(std::string("wire.") + metric + "." + type, unit);
      }
    }
    const Table rest = {
        {"service.fingerprint_ns", "ns"},
        {"service.cache_hit_ratio", "ratio"},
        {"service.cache_hits", "count"},
        {"service.cache_lookups", "count"},
        {"service.execute_us.classify", "us"},
        {"service.execute_us.recommend", "us"},
        {"service.execute_us.cost", "us"},
        {"service.execute_us.simulate", "us"},
        {"service.execute_us.sweep", "us"},
        {"service.execute_us.fault_sweep", "us"},
        {"service.handoff_us", "us"},
        {"service.sweep_parallel_efficiency", "ratio"},
        {"service.curve_parallel_efficiency", "ratio"},
        {"service.chunks_per_request", "count"},
        {"net.rtt_us", "us"},
        {"net.overhead_us", "us"},
        {"net.retries", "count"},
        {"core.classify_ns", "ns"},
        {"arch.parse_adl_us", "us"},
        {"cost.estimate_ns", "ns"},
        {"workload.simulate_us", "us"},
        {"explore.sweep_ns_per_cell", "ns"},
        {"fault.curve_ns_per_trial", "ns"},
        {"cluster.proxy_overhead_us", "us"},
        {"cluster.merge_us.sweep", "us"},
        {"cluster.merge_us.fault_sweep", "us"},
        {"cluster.hedges_sent", "count"},
        {"cluster.hedges_won", "count"},
        {"cluster.failovers", "count"},
        {"qos.shed", "count"},
        {"qos.degraded", "count"},
        {"interactive_p99_us", "us"},
        {"interactive_p99_n", "count"},
        {"batch_p99_ms", "ms"},
        {"batch_p99_n", "count"},
        {"trace.overhead_share", "ratio"},
    };
    t.insert(t.end(), rest.begin(), rest.end());
    return t;
  }();
  return table;
}

/// Headline metrics printed on every run, applicable or not.
const Table& headline_table() {
  static const Table table = {
      {"setup_s", "s"},         {"failed_share", "ratio"},
      {"interactive_p50_us", "us"}, {"interactive_ok_per_s", "1/s"},
      {"batch_cells_per_s", "1/s"}, {"batch_trials_per_s", "1/s"},
      {"batch_p50_ms", "ms"},       {"peak_rss_mb", "MB"}};
  return table;
}

const std::vector<std::string> kWorkloads = {"interactive", "batch"};

std::string json_number(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Ends the process if a run hangs: the benchmark must finish (or fail)
/// within its time budget, whatever the program under test does.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr, "perfbench: watchdog: run exceeded %lld s\n",
                         static_cast<long long>(limit.count()));
            std::fflush(stderr);
            _exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  ///< declared last: uses the members above
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <interactive|batch> "
               "--seed <n> --seconds <s> --trace <0|1> [--commit <id>] "
               "[--src-digest <hex>]\n       perfbench --fingerprints <count> "
               "--workload <w> --seed <n>\n",
               why);
  return 2;
}

void print_metric(const std::string& name, double value, const std::string& unit,
                  const std::string& note) {
  std::printf("%-40s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  std::string commit = "unknown";
  std::string src_digest = "unknown";
  long fingerprints = -1;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        config.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
        have_seconds = true;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        config.trace = value == "1";
        have_trace = true;
      } else if (arg == "--commit") {
        commit = value;
      } else if (arg == "--src-digest") {
        src_digest = value;
      } else if (arg == "--fingerprints") {
        fingerprints = std::stol(value);
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  const auto known = std::find(kWorkloads.begin(), kWorkloads.end(), config.workload);
  if (!have_workload || known == kWorkloads.end()) return usage("unknown workload");
  const int workload_index = static_cast<int>(known - kWorkloads.begin());

  if (fingerprints >= 0) {
    if (!have_seed) return usage("--fingerprints needs --seed");
    for (std::uint64_t f : fingerprint_sequence(config.workload, config.seed,
                                                static_cast<std::size_t>(fingerprints))) {
      std::printf("%016llx\n", static_cast<unsigned long long>(f));
    }
    return 0;
  }
  if (!have_seed || !have_seconds || !have_trace) return usage("missing argument");
  if (!(config.seconds >= 1 && config.seconds <= 60)) return usage("--seconds must be 1..60");

  Watchdog watchdog(std::chrono::seconds(170));
  Report report;
  try {
    if (config.workload == "interactive") run_interactive(config, report);
    if (config.workload == "batch") run_batch(config, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", config.workload.c_str(), e.what());
    return 20 + workload_index + 1;
  }
  report.set_e2e("peak_rss_mb", peak_rss_mb(), "getrusage ru_maxrss");
  const Tally& t = report.tally;
  const double failed_share =
      t.attempted > 0 ? static_cast<double>(t.bad()) / static_cast<double>(t.attempted) : 0;

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(), static_cast<unsigned long long>(config.seed),
              config.seconds, config.trace ? 1 : 0);
  std::printf("# host: nproc=%u compiler=%s build=%s commit=%s src_digest=%s\n",
              std::thread::hardware_concurrency(), "GCC " __VERSION__, PERFBENCH_BUILD_TYPE,
              commit.c_str(), src_digest.c_str());
  for (const auto& line : report.describe) std::printf("# %s\n", line.c_str());

  report.say("setup_s", report.e2e.at("setup_s").value);
  report.say("failed_share", failed_share,
             "attempted=" + std::to_string(t.attempted) + " degraded=" + std::to_string(t.degraded) +
                 " failed=" + std::to_string(t.failed) +
                 " refused=" + std::to_string(t.refused) +
                 " mismatched=" + std::to_string(t.mismatched));
  report.say("peak_rss_mb", report.e2e.at("peak_rss_mb").value);
  std::printf("## headline metrics (n/a where the workload has no such traffic)\n");
  for (const auto& [name, unit] : headline_table()) {
    const MetricValue& m = report.summary.at(name);
    if (m.value == kNotApplicable) {
      std::printf("%-40s %14s %-6s %s\n", name.c_str(), "n/a", unit.c_str(), m.note.c_str());
    } else {
      print_metric(name, m.value, unit, m.note);
    }
  }

  std::string metrics;
  const auto emit = [&](const std::string& name, double value, const std::string& unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(name) + ": {\"value\": " + json_number(value) +
               ", \"unit\": " + json_string(unit) + "}";
  };
  bool complete = true;
  if (!config.trace) {
    std::printf("## end-to-end metrics\n");
    for (const auto& [name, unit] : e2e_table()) {
      const auto it = report.e2e.find(name);
      if (it == report.e2e.end()) {
        std::fprintf(stderr, "perfbench: end-to-end metric %s not measured\n", name.c_str());
        complete = false;
        continue;
      }
      print_metric(name, it->second.value, unit, it->second.note);
      emit(name, it->second.value, unit);
    }
  } else {
    std::printf("## per-layer metrics (residual = a difference of two measurements)\n");
    for (const auto& [name, unit] : layer_table()) {
      const auto it = report.layers.find(name);
      if (it != report.layers.end()) {
        print_metric(name, it->second.value, unit, it->second.note);
        emit(name, it->second.value, unit);
        continue;
      }
      std::string reason;
      std::size_t best = 0;
      for (const auto& [prefix, why] : report.not_applicable) {
        if (name.rfind(prefix, 0) == 0 && prefix.size() > best) {
          best = prefix.size();
          reason = why;
        }
      }
      if (reason.empty()) {
        std::fprintf(stderr, "perfbench: per-layer metric %s not measured\n", name.c_str());
        complete = false;
      }
      print_metric(name, 0, unit, "n/a: " + reason);
      emit(name, 0, unit);
    }
  }
  if (!complete) return 2;

  const bool correct = t.mismatched == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.bad()), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 10 + workload_index + 1;
}
