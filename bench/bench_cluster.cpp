/// Cluster-tier benchmarks: proxy throughput vs fleet size, and the
/// cost of losing a server mid-run.
///
/// Artifact: a CSV matrix (requests/s, p99 round-trip latency and
/// failed-request count) measured through a live cluster::CombiningProxy
/// fronting 1 / 2 / 4 single-process backends, plus a degraded cell
/// where one of four backends is killed mid-run — health-driven
/// failover means its failed count must stay 0.  The workload is a
/// seeded mix of classifies (consistent-hash routed, cache-affine) and
/// design sweeps (scattered into chunks across the fleet and merged
/// bit-identically), driven by fixed-work closed-loop client threads.
///
/// Flags (both stripped before benchmark::Initialize):
///   --csv <path>    also write google-benchmark timings as CSV
///   --json <path>   write the matrix as BENCH_cluster JSON
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "arch/registry.hpp"
#include "bench_util.hpp"
#include "cluster/cluster.hpp"
#include "net/net.hpp"
#include "report/csv.hpp"
#include "service/service.hpp"

namespace {

using namespace mpct;

struct CellResult {
  std::string label;
  std::size_t backends = 0;
  double req_per_s = 0;
  double p99_us = 0;
  std::size_t failed = 0;
};

/// Seeded workload mix: mostly classifies (distinct ring keys), every
/// eighth request a small design sweep the proxy scatters.
service::Request workload_request(std::mt19937_64& rng) {
  if (rng() % 8 == 0) {
    service::SweepRequest sweep;
    sweep.grid.base.min_flexibility = 1 + static_cast<int>(rng() % 3);
    sweep.grid.n_values = {4, 16};
    sweep.grid.lut_budgets = {256, 1024};
    return sweep;
  }
  const auto& survey = arch::surveyed_architectures();
  return service::ClassifyRequest::of(survey[rng() % survey.size()]);
}

/// One process-local fleet behind a proxy.
struct Fleet {
  std::vector<std::unique_ptr<service::QueryEngine>> engines;
  std::vector<std::unique_ptr<net::Server>> servers;
  std::unique_ptr<cluster::CombiningProxy> proxy;

  explicit Fleet(std::size_t backends) {
    std::vector<cluster::Endpoint> endpoints;
    for (std::size_t i = 0; i < backends; ++i) {
      service::EngineOptions engine_options;
      engine_options.worker_threads = 2;
      engines.push_back(std::make_unique<service::QueryEngine>(engine_options));
      servers.push_back(std::make_unique<net::Server>(*engines.back()));
      if (!servers.back()->start()) {
        std::cerr << "bench_cluster: backend: " << servers.back()->error()
                  << "\n";
        std::exit(1);
      }
      endpoints.push_back({"127.0.0.1", servers.back()->port()});
    }
    cluster::ProxyOptions options;
    options.cluster.endpoints = endpoints;
    options.cluster.health.down_after = 1;
    options.cluster.pinger.interval = std::chrono::milliseconds(50);
    proxy = std::make_unique<cluster::CombiningProxy>(options);
    if (!proxy->start()) {
      std::cerr << "bench_cluster: proxy: " << proxy->error() << "\n";
      std::exit(1);
    }
  }

  ~Fleet() {
    proxy->stop();
    for (auto& server : servers) server->stop();
  }
};

/// Fixed-work closed loop: @p connections client threads each push
/// per_client seeded requests through the proxy.  When @p kill_one,
/// the last backend dies once a quarter of the work is done.
CellResult run_cell(std::string label, std::size_t backends, int connections,
                    int per_client, bool kill_one) {
  Fleet fleet(backends);

  {  // Warm backend caches and TCP paths so the cell measures steady state.
    net::ClientOptions options;
    options.port = fleet.proxy->port();
    net::Client warm(options);
    std::mt19937_64 rng(1);
    for (int i = 0; i < 64; ++i) {
      if (!warm.call(workload_request(rng)).ok()) {
        std::cerr << "bench_cluster: warmup request failed\n";
        std::exit(1);
      }
    }
  }

  std::vector<std::vector<double>> latencies_us(
      static_cast<std::size_t>(connections));
  std::atomic<std::size_t> failed{0};
  std::atomic<int> done{0};
  const int kill_at = connections * per_client / 4;

  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(connections));
  const auto start = std::chrono::steady_clock::now();
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      net::ClientOptions options;
      options.port = fleet.proxy->port();
      net::Client client(options);
      std::mt19937_64 rng(static_cast<std::uint64_t>(100 + c));
      auto& samples = latencies_us[static_cast<std::size_t>(c)];
      samples.reserve(static_cast<std::size_t>(per_client));
      for (int i = 0; i < per_client; ++i) {
        if (kill_one && done.fetch_add(1, std::memory_order_relaxed) == kill_at)
          fleet.servers.back()->stop();
        const auto t0 = std::chrono::steady_clock::now();
        const service::QueryResponse response =
            client.call(workload_request(rng));
        samples.push_back(std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
        if (!response.ok()) failed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::vector<double> all;
  for (const auto& samples : latencies_us)
    all.insert(all.end(), samples.begin(), samples.end());
  std::sort(all.begin(), all.end());

  CellResult cell;
  cell.label = std::move(label);
  cell.backends = backends;
  cell.req_per_s = static_cast<double>(all.size()) / elapsed_s;
  cell.p99_us = all.empty() ? 0 : all[all.size() * 99 / 100];
  cell.failed = failed.load();
  return cell;
}

std::string fmt(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.4g", value);
  return buffer;
}

std::vector<CellResult> run_matrix() {
  std::vector<CellResult> cells;
  for (std::size_t backends : {1u, 2u, 4u}) {
    cells.push_back(run_cell("fleet_" + std::to_string(backends), backends,
                             /*connections=*/4, /*per_client=*/256,
                             /*kill_one=*/false));
  }
  cells.push_back(run_cell("fleet_4_kill1", 4, /*connections=*/4,
                           /*per_client=*/256, /*kill_one=*/true));
  return cells;
}

void print_artifact(const std::vector<CellResult>& cells,
                    const std::string& json_path) {
  report::CsvWriter csv;
  csv.add_row({"cell", "backends", "req_per_s", "p99_us", "failed"});
  for (const CellResult& cell : cells) {
    csv.add_row({cell.label, std::to_string(cell.backends),
                 fmt(cell.req_per_s), fmt(cell.p99_us),
                 std::to_string(cell.failed)});
  }
  std::cout << "# proxy throughput vs fleet size (4 closed-loop clients, "
               "classify/sweep mix; kill1 = one of four backends dies "
               "mid-run and failed must stay 0)\n"
            << csv.str() << "\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n"
        << "  \"bench\": \"bench_cluster\",\n"
        << "  \"host_cpus\": " << std::thread::hardware_concurrency() << ",\n"
        << "  \"op\": \"mixed classify/sweep round trips through a "
           "combining proxy (req/s, p99 us and failed count per fleet "
           "cell; kill1 loses one of four backends mid-run)\",\n"
        << "  \"current\": {\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const CellResult& cell = cells[i];
      out << "    \"req_per_s_" << cell.label << "\": " << fmt(cell.req_per_s)
          << ",\n"
          << "    \"p99_us_" << cell.label << "\": " << fmt(cell.p99_us)
          << ",\n"
          << "    \"failed_" << cell.label << "\": " << cell.failed
          << (i + 1 < cells.size() ? ",\n" : "\n");
    }
    out << "  }\n}\n";
    std::cout << "JSON written to " << json_path << "\n\n";
  }
}

// ---------------------------------------------------------------------------
// Registered microbenchmarks: the routing-layer pieces alone.

void bm_ring_owner(benchmark::State& state) {
  std::vector<cluster::Endpoint> endpoints;
  for (std::uint16_t i = 0; i < 8; ++i) endpoints.push_back({"10.0.0.1", i});
  cluster::HashRing ring(endpoints);
  const service::Fingerprint key = service::fingerprint(
      service::ClassifyRequest::of(arch::surveyed_architectures().front()));
  for (auto _ : state) {
    std::size_t owner = ring.owner(key);
    benchmark::DoNotOptimize(owner);
  }
}
BENCHMARK(bm_ring_owner);

void bm_cluster_round_trip(benchmark::State& state) {
  service::EngineOptions engine_options;
  engine_options.worker_threads = 2;
  service::QueryEngine engine(engine_options);
  net::Server server(engine);
  if (!server.start()) {
    state.SkipWithError(server.error().c_str());
    return;
  }
  cluster::ClusterOptions options;
  options.endpoints = {{"127.0.0.1", server.port()}};
  cluster::ClusterClient client(options);
  const service::Request request =
      service::ClassifyRequest::of(arch::surveyed_architectures().front());
  for (auto _ : state) {
    service::QueryResponse response = client.call(request);
    benchmark::DoNotOptimize(response);
  }
  server.stop();
}
BENCHMARK(bm_cluster_round_trip)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  // Strip --json before benchmark::Initialize (it aborts on unknown
  // flags); --csv is handled by apply_csv_flag below.
  std::string json_path;
  for (int i = 1; i + 1 < argc;) {
    if (std::string_view(argv[i]) != "--json") {
      ++i;
      continue;
    }
    json_path = argv[i + 1];
    for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
    argc -= 2;
  }
  std::cout << "CLUSTER BENCHMARKS\n"
            << "(loopback fleets behind a live cluster::CombiningProxy; "
               "every number includes sockets + wire codec + routing + "
               "scatter/merge + engine)\n\n";
  print_artifact(run_matrix(), json_path);
  mpct::bench::apply_csv_flag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
