/// Recorded-traffic replayer: feed a capture file (net::ServerOptions::
/// capture_path) back into any live server speaking the wire protocol
/// and compare runs by normalized response fingerprint.
///
///   replay <capture> <port> [--host H] [--max-speed] [--save FILE]
///          [--compare FILE] [--loop N] [--duration S] [--self-host]
///
///   --max-speed      ignore recorded arrival gaps (default: honour them)
///   --save FILE      write "id fingerprint" lines for a later --compare
///   --compare FILE   diff this run against a saved fingerprint file;
///                    exit 1 on any mismatch
///   --loop N         soak: replay the capture N times (0 = unbounded,
///                    bounded by --duration); exit 1 if any iteration's
///                    fingerprints drift from the first
///   --duration S     soak: keep looping until S seconds have elapsed
///   --self-host      boot the engine + server in this process (port may
///                    then be 0 for ephemeral) with tracing streamed back
///                    at the same server, and report the simulation,
///                    tracing and qos counters' drift between the first
///                    and last iteration; the engine's result cache is
///                    off, so every iteration executes every frame
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/net.hpp"
#include "net/trace_stream.hpp"
#include "service/service.hpp"
#include "trace/trace.hpp"

using namespace mpct;

namespace {

int usage() {
  std::cerr << "usage: replay <capture> <port> [--host H] [--max-speed] "
               "[--save FILE] [--compare FILE] [--loop N] [--duration S] "
               "[--self-host]\n"
               "  --self-host runs an in-process engine with its result "
               "cache off, so each\n"
               "  iteration executes every frame and the counters compare "
               "like for like\n";
  return 2;
}

/// The registry rows the soak report tracks across iterations: the
/// counters of the simulation, tracing and qos sections.  A steady-state
/// soak should shed and degrade at a steady rate too: drift in the qos
/// rows means the replayed load is pushing the engine up or down the QoS
/// ladder over time (see docs/QOS.md).
bool soak_row(const service::MetricRow& row) {
  return row.counter != nullptr &&
         (row.section == "simulation" || row.section == "tracing" ||
          row.section == "qos");
}

/// The soak rows' values, in metric_rows() order.
std::vector<std::uint64_t> soak_snapshot(const service::MetricsRegistry& m) {
  std::vector<std::uint64_t> values;
  for (const service::MetricRow& row : service::metric_rows()) {
    if (soak_row(row)) values.push_back(row.count(m, {}));
  }
  return values;
}

void print_drift(const std::vector<std::uint64_t>& first,
                 const std::vector<std::uint64_t>& last) {
  std::cout << "per-iteration metric drift (first vs last iteration):\n";
  std::size_t i = 0;
  for (const service::MetricRow& row : service::metric_rows()) {
    if (!soak_row(row)) continue;
    const std::uint64_t a = first[i];
    const std::uint64_t b = last[i];
    ++i;
    std::cout << "  " << row.section << " " << row.name << ": first " << a
              << ", last " << b;
    if (b > a) {
      std::cout << " (+" << b - a << ")";
    } else if (a > b) {
      std::cout << " (-" << a - b << ")";
    }
    std::cout << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string capture_path = argv[1];
  net::ReplayOptions options;
  options.port = static_cast<std::uint16_t>(std::atoi(argv[2]));
  std::string save_path;
  std::string compare_path;
  std::size_t loop = 1;
  bool loop_set = false;
  long duration_s = 0;
  bool self_host = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--max-speed") {
      options.max_speed = true;
    } else if (arg == "--host" && i + 1 < argc) {
      options.host = argv[++i];
    } else if (arg == "--save" && i + 1 < argc) {
      save_path = argv[++i];
    } else if (arg == "--compare" && i + 1 < argc) {
      compare_path = argv[++i];
    } else if (arg == "--loop" && i + 1 < argc) {
      loop = static_cast<std::size_t>(std::atoll(argv[++i]));
      loop_set = true;
    } else if (arg == "--duration" && i + 1 < argc) {
      duration_s = std::atol(argv[++i]);
      if (duration_s <= 0) return usage();
      if (!loop_set) loop = 0;  // unbounded; the clock is the limit
    } else if (arg == "--self-host") {
      self_host = true;
    } else {
      return usage();
    }
  }
  if (loop == 0 && duration_s == 0) return usage();
  const bool soak = loop != 1 || duration_s != 0;

  net::CaptureFile capture;
  std::string error;
  if (!net::read_capture(capture_path, capture, error)) {
    std::cerr << "replay: " << error << "\n";
    return 1;
  }

  // --self-host: the replay target lives in this process, so the soak
  // report can read its registry.  The trace streamer points back at
  // the same server — it absorbs SpanBatch frames sink-less, which
  // still exercises export + collector-side counters end to end.
  std::unique_ptr<service::QueryEngine> engine;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<net::TraceStreamer> streamer;
  if (self_host) {
    trace::Tracer::instance().enable();
    service::EngineOptions engine_options;
    engine_options.worker_threads = 2;
    // A cached answer skips execution, so with the cache on every
    // iteration after the first would read as drift in the simulation
    // rows.
    engine_options.enable_cache = false;
    engine = std::make_unique<service::QueryEngine>(engine_options);
    net::ServerOptions server_options;
    server_options.port = options.port;
    server = std::make_unique<net::Server>(*engine, server_options);
    if (!server->start()) {
      std::cerr << "replay: self-host server: " << server->error() << "\n";
      return 1;
    }
    options.host = "127.0.0.1";
    options.port = server->port();
    net::TraceStreamerOptions stream_options;
    stream_options.port = server->port();
    stream_options.node = "replay-soak";
    stream_options.metrics = &engine->metrics();
    streamer = std::make_unique<net::TraceStreamer>(stream_options);
    if (!streamer->start()) {
      std::cerr << "replay: trace streamer: " << streamer->error() << "\n";
    }
  }

  std::cout << capture_path << ": " << capture.records.size()
            << " frames, replaying against " << options.host << ":"
            << options.port
            << (options.max_speed ? " at max speed" : " at recorded pace");
  if (soak) {
    std::cout << " [soak:";
    if (loop != 0) std::cout << " loop=" << loop;
    if (duration_s != 0) std::cout << " duration=" << duration_s << "s";
    std::cout << "]";
  }
  std::cout << "\n";

  const auto soak_start = std::chrono::steady_clock::now();
  const auto expired = [&] {
    return duration_s != 0 &&
           std::chrono::steady_clock::now() - soak_start >=
               std::chrono::seconds(duration_s);
  };

  net::ReplayOutcome first_outcome;
  std::vector<std::uint64_t> first_delta, last_delta;
  std::size_t iterations = 0;
  std::size_t drifted = 0;
  while ((loop == 0 || iterations < loop) &&
         (iterations == 0 || !expired())) {
    const std::vector<std::uint64_t> before =
        engine ? soak_snapshot(engine->metrics())
               : std::vector<std::uint64_t>{};
    const net::ReplayOutcome outcome = net::replay_capture(capture, options);
    if (!outcome.ok()) {
      std::cerr << outcome.error << "\n";
      return 1;
    }
    if (engine) {
      // Let the streamer complete a couple of export ticks so the
      // iteration's trace counters land before the snapshot.
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
      last_delta = soak_snapshot(engine->metrics());
      for (std::size_t i = 0; i < last_delta.size(); ++i) {
        last_delta[i] -= before[i];
      }
    }
    if (iterations == 0) {
      first_outcome = outcome;
      first_delta = last_delta;
    } else if (outcome.fingerprints != first_outcome.fingerprints) {
      std::cerr << "iteration " << iterations
                << ": fingerprints drifted from iteration 0\n";
      ++drifted;
    }
    ++iterations;
  }
  const net::ReplayOutcome& outcome = first_outcome;
  std::cout << "sent " << outcome.sent << ", answered " << outcome.answered;
  if (soak) std::cout << " per iteration, " << iterations << " iterations";
  std::cout << "\n";

  if (soak && engine) print_drift(first_delta, last_delta);

  if (streamer) streamer->stop();
  if (server) server->stop();

  if (!save_path.empty()) {
    std::ofstream out(save_path);
    for (const auto& [id, print] : outcome.fingerprints) {
      out << id << " " << print << "\n";
    }
    std::cout << "fingerprints saved to " << save_path << "\n";
  }

  if (!compare_path.empty()) {
    std::ifstream in(compare_path);
    if (!in) {
      std::cerr << "replay: cannot read " << compare_path << "\n";
      return 1;
    }
    std::map<std::uint64_t, std::uint64_t> expected;
    std::uint64_t id = 0;
    std::uint64_t print = 0;
    while (in >> id >> print) expected[id] = print;
    std::size_t mismatches = 0;
    for (const auto& [got_id, got_print] : outcome.fingerprints) {
      const auto it = expected.find(got_id);
      if (it == expected.end() || it->second != got_print) {
        std::cerr << "mismatch: id " << got_id << "\n";
        ++mismatches;
      }
    }
    if (outcome.fingerprints.size() != expected.size()) {
      std::cerr << "count differs: got " << outcome.fingerprints.size()
                << ", expected " << expected.size() << "\n";
      ++mismatches;
    }
    if (mismatches > 0) return 1;
    std::cout << "all " << outcome.fingerprints.size()
              << " fingerprints match " << compare_path << "\n";
  }
  return drifted == 0 ? 0 : 1;
}
