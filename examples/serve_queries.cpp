/// serve_queries — the concurrent query engine end to end.
///
/// Fires a mixed batch (classify over the whole survey twice, an ADL-text
/// classify, a recommend, a cost sweep, plus deliberate failure cases)
/// at a 4-worker QueryEngine, then prints per-request outcomes and the
/// engine's metrics table.
///
/// SIGUSR1 dumps a Chrome trace of the run so far to
/// serve_queries_trace.json — the handler only flips a flag; the
/// snapshot and export happen between responses on the main loop.
///
///   usage: serve_queries [workers]
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "arch/registry.hpp"
#include "core/naming.hpp"
#include "core/taxonomy_table.hpp"
#include "service/service.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/trace.hpp"

using namespace mpct;
using namespace mpct::service;

// GCC 12 flags the never-constructed MachineClass alternative of the
// Request variant as "maybe uninitialized" when vector::push_back moves
// it (false positive; the variant index guards the access).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace {

// Async-signal-safe flag; the main loop does the actual export.
volatile std::sig_atomic_t g_dump_trace = 0;

void on_sigusr1(int) { g_dump_trace = 1; }

void maybe_dump_trace() {
  if (!g_dump_trace) return;
  g_dump_trace = 0;
  const trace::TraceSnapshot snap = trace::Tracer::instance().snapshot();
  std::ofstream out("serve_queries_trace.json", std::ios::trunc);
  out << trace::to_chrome_json(snap);
  std::cout << "[serve_queries] dumped " << snap.spans.size()
            << " spans to serve_queries_trace.json\n";
}

std::string describe(const QueryResponse& response) {
  if (!response.ok()) return "ERROR " + response.status.to_string();
  std::string out = response.cache_hit ? "[cached] " : "[computed] ";
  if (const ClassifyResponse* c = response.classify()) {
    out += c->spec.name + " -> ";
    if (c->classification.ok()) {
      out += to_string(*c->classification.name);
    } else {
      out += "unclassifiable: ";
      out += c->classification.note;
    }
    out += " (flexibility ";
    out += std::to_string(c->flexibility.total());
    out += ')';
  } else if (const RecommendResponse* r = response.recommend()) {
    out += "top classes:";
    for (const auto& rec : r->recommendations) {
      out += ' ';
      out += to_string(rec.name);
    }
  } else if (const CostResponse* c = response.cost()) {
    out += "cost sweep:";
    for (const auto& point : c->points) {
      char cell[64];
      std::snprintf(cell, sizeof(cell), " n=%lld:%.0fkGE",
                    static_cast<long long>(point.n), point.area.total_kge());
      out += cell;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  EngineOptions options;
  options.worker_threads =
      argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 4;
  QueryEngine engine(options);

  trace::Tracer::instance().enable();
  std::signal(SIGUSR1, on_sigusr1);

  std::cout << "== serve_queries: " << options.worker_threads
            << " workers, queue capacity " << options.queue_capacity
            << ", cache " << options.cache_shards << "x"
            << options.cache_capacity_per_shard << " ==\n\n";

  // Build the mixed batch.
  std::vector<Request> batch;
  for (int round = 0; round < 2; ++round) {  // second round hits the cache
    for (const arch::ArchitectureSpec& spec : arch::surveyed_architectures()) {
      batch.push_back(ClassifyRequest::of(spec));
    }
  }
  batch.push_back(ClassifyRequest::of_adl(
      "architecture InlineCGRA {\n"
      "  ips = 1\n  dps = 16\n"
      "  ip-dp = \"1-16\"\n  ip-im = \"1-1\"\n"
      "  dp-dm = \"16x16\"\n  dp-dp = \"16x16\"\n}\n"));
  {
    RecommendRequest recommend;
    recommend.requirements.min_flexibility = 4;
    recommend.top_k = 3;
    batch.push_back(recommend);
  }
  {
    // Sweep a canonical class with symbolic counts so the cost actually
    // scales with n (a fixed-size survey row would be flat).
    CostRequest cost;
    cost.target = find_entry(*parse_taxonomic_name("IMP-XVI"))->machine;
    cost.n_sweep = {4, 16, 64};
    batch.push_back(cost);
  }
  // Failure cases: a parse error and an invalid sweep.
  batch.push_back(ClassifyRequest::of_adl("architecture Broken {"));
  {
    CostRequest bad;
    bad.target = MachineClass{};
    bad.n_sweep = {-3};
    batch.push_back(bad);
  }

  const auto deadline = Deadline::in(std::chrono::seconds(10));
  auto futures = engine.submit_batch(std::move(batch), deadline);

  std::cout << "-- responses (" << futures.size() << " requests) --\n";
  std::size_t shown = 0;
  for (auto& future : futures) {
    maybe_dump_trace();
    const QueryResponse response = future.get();
    // The first survey round and the tail requests tell the story; skip
    // the repeat round except for one representative cache hit.
    const bool repeat_round = shown >= 25 && shown < 50;
    if (!repeat_round || shown == 25) {
      std::cout << "  " << describe(response) << "\n";
    }
    ++shown;
  }

  engine.drain();
  maybe_dump_trace();
  std::cout << "\n-- metrics --\n"
            << engine.metrics().to_table(engine.cache_stats()) << "\n";
  return 0;
}
