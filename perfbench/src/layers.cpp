/// Per-layer measurements of the traced run: timings around calls into
/// each module's public functions, made from this file on the
/// workload's own inputs.  Nothing here adds instrumentation to the
/// library.

#include <future>
#include <stdexcept>

#include "arch/adl_parser.hpp"
#include "bench.hpp"
#include "cost/area_model.hpp"
#include "cost/config_bits.hpp"
#include "layers.hpp"
#include "wire/protocol.hpp"
#include "workload/runner.hpp"

namespace perfbench {

namespace wire = mpct::wire;

namespace {

template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

constexpr int kReps = 5;

std::string type_name(const svc::Request& request) {
  return std::string(svc::to_string(svc::request_type(request)));
}

svc::QueryResponse ok_response(std::shared_ptr<const svc::ResponsePayload> payload) {
  svc::QueryResponse response;
  response.payload = std::move(payload);
  return response;
}

}  // namespace

void na_wire(Report& report, const std::string& type, const std::string& reason) {
  for (const auto& [metric, unit] : kWireMetrics) {
    report.na(std::string("wire.") + metric + "." + type, reason);
  }
}

void wire_layers(Report& report, const std::vector<Example>& examples) {
  if (examples.empty()) return;
  const std::string type = type_name(examples.front().request);
  const std::size_t n = examples.size();
  std::vector<std::vector<std::uint8_t>> requests(n);
  std::vector<std::vector<std::uint8_t>> responses(n);
  double request_bytes = 0;
  double response_bytes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    requests[i] = wire::encode_request_frame(i + 1, examples[i].request);
    responses[i] = wire::encode_response_frame(i + 1, examples[i].response);
    request_bytes += static_cast<double>(requests[i].size());
    response_bytes += static_cast<double>(responses[i].size());
  }
  const auto set = [&](const char* metric, double value) {
    report.set_layer(std::string("wire.") + metric + "." + type, value,
                     "mean over " + std::to_string(n) + " " + type + " frames");
  };
  set("request_encode_ns", ns_per_call(n, kReps, [&](std::size_t i) {
        keep(wire::encode_request_frame(i + 1, examples[i].request));
      }));
  set("request_decode_ns", ns_per_call(n, kReps, [&](std::size_t i) {
        const auto decoded =
            wire::decode_request_frame(requests[i].data(), requests[i].size());
        if (!decoded.ok()) throw std::runtime_error("request frame decode failed");
        keep(decoded);
      }));
  set("response_encode_ns", ns_per_call(n, kReps, [&](std::size_t i) {
        keep(wire::encode_response_frame(i + 1, examples[i].response));
      }));
  set("response_decode_ns", ns_per_call(n, kReps, [&](std::size_t i) {
        const auto decoded =
            wire::decode_response_frame(responses[i].data(), responses[i].size());
        if (!decoded.ok()) throw std::runtime_error("response frame decode failed");
        keep(decoded);
      }));
  set("request_bytes", request_bytes / static_cast<double>(n));
  set("response_bytes", response_bytes / static_cast<double>(n));
}

void execute_layers(Report& report, const std::vector<const svc::Request*>& requests) {
  if (requests.empty()) return;
  svc::QueryEngine engine(inline_engine_options());
  const std::string type = type_name(*requests.front());
  const double ns = ns_per_call(requests.size(), kReps, [&](std::size_t i) {
    const svc::QueryResponse response = engine.execute(*requests[i]);
    if (!response.ok()) throw std::runtime_error("inline execute failed");
    keep(response);
  });
  report.set_layer("service.execute_us." + type, ns / 1e3,
                   "inline QueryEngine::execute, cache off, " +
                       std::to_string(requests.size()) + " requests");
}

void fingerprint_layer(Report& report, const std::vector<const svc::Request*>& requests,
                       const std::string& what) {
  report.set_layer("service.fingerprint_ns",
                   ns_per_call(requests.size(), kReps, [&](std::size_t i) {
                     keep(svc::fingerprint(*requests[i]));
                   }),
                   "service::fingerprint over " + what);
}

void pool_layers(Report& report, const Pool& pool) {
  std::map<std::string, std::vector<const PoolEntry*>> by_type;
  for (const auto& entry : pool.entries) {
    auto& list = by_type[type_name(entry.request)];
    if (list.size() < 256) list.push_back(&entry);
  }
  for (const auto& [type, entries] : by_type) {
    std::vector<Example> examples;
    std::vector<const svc::Request*> requests;
    for (const PoolEntry* entry : entries) {
      examples.push_back({entry->request, ok_response(entry->reference)});
      if (type != "simulate" || requests.size() < 64) {
        requests.push_back(&entry->request);
      }
    }
    wire_layers(report, examples);
    execute_layers(report, requests);
  }

  std::vector<const svc::Request*> all;
  for (const auto& entry : pool.entries) all.push_back(&entry.request);
  fingerprint_layer(report, all, "the whole pool");

  std::vector<const mpct::arch::ArchitectureSpec*> specs;
  std::vector<const std::string*> adl_texts;
  std::vector<const svc::CostRequest*> costs;
  std::vector<const svc::SimulateRequest*> simulations;
  for (const auto& entry : pool.entries) {
    if (const auto* c = std::get_if<svc::ClassifyRequest>(&entry.request)) {
      if (const auto* spec = std::get_if<mpct::arch::ArchitectureSpec>(&c->input)) {
        specs.push_back(spec);
      } else {
        adl_texts.push_back(&std::get<std::string>(c->input));
      }
    } else if (const auto* cost = std::get_if<svc::CostRequest>(&entry.request)) {
      costs.push_back(cost);
    } else if (const auto* sim = std::get_if<svc::SimulateRequest>(&entry.request)) {
      if (simulations.size() < 64) simulations.push_back(sim);
    }
  }
  report.set_layer("core.classify_ns",
                   ns_per_call(specs.size(), kReps, [&](std::size_t i) {
                     keep(specs[i]->classify());
                   }),
                   "ArchitectureSpec::classify on the pool's specs");
  report.set_layer("arch.parse_adl_us",
                   ns_per_call(adl_texts.size(), kReps, [&](std::size_t i) {
                     const auto parsed = mpct::arch::parse_single_adl(*adl_texts[i]);
                     if (!parsed.ok()) throw std::runtime_error("ADL parse failed");
                     keep(parsed);
                   }) / 1e3,
                   "arch::parse_single_adl on the pool's ADL texts");
  const auto& library = mpct::cost::ComponentLibrary::default_library();
  report.set_layer("cost.estimate_ns",
                   ns_per_call(costs.size(), kReps, [&](std::size_t i) {
                     const auto& mc = std::get<mpct::MachineClass>(costs[i]->target);
                     keep(mpct::cost::estimate_area(mc, library, costs[i]->options));
                     keep(mpct::cost::estimate_config_bits(mc, library, costs[i]->options));
                   }),
                   "cost::estimate_area + estimate_config_bits per cost request");
  report.set_layer("workload.simulate_us",
                   ns_per_call(simulations.size(), 3, [&](std::size_t i) {
                     const auto* s = simulations[i];
                     keep(mpct::workload::run_workload(
                         s->workload, std::get<mpct::MachineClass>(s->target),
                         s->options, s->faults, s->seed));
                   }) / 1e3,
                   "workload::run_workload on the pool's simulate requests");
}

GridTimes grid_layers(Report& report, std::uint64_t seed, const GridSize& size,
                      std::size_t chunks) {
  constexpr std::uint64_t kJobs = 8;  // 4 sweeps + 4 curves
  std::vector<svc::Request> jobs;
  for (std::uint64_t j = 0; j < kJobs; ++j) jobs.push_back(grid_job(seed, j, size));

  GridTimes times;
  std::vector<double> sweep_ns_per_cell;
  std::vector<double> curve_ns_per_trial;
  std::vector<double> merge_sweep_us;
  std::vector<double> merge_curve_us;
  std::vector<Example> sweeps, curves, sweep_chunks, curve_chunks;
  for (const auto& job : jobs) {
    if (const auto* s = std::get_if<svc::SweepRequest>(&job)) {
      const Clock::time_point t0 = Clock::now();
      mpct::explore::SweepResult result = mpct::explore::sweep(s->grid);
      const Clock::time_point t1 = Clock::now();
      keep(mpct::explore::pareto_front(result.points));
      const Clock::time_point t2 = Clock::now();
      sweep_ns_per_cell.push_back(us_since(t0, t1) * 1e3 /
                                  static_cast<double>(result.points.size()));
      merge_sweep_us.push_back(us_since(t1, t2));
      const std::size_t cells = result.points.size();
      for (std::size_t c = 0; chunks > 0 && c < chunks; ++c) {
        svc::SweepChunkRequest chunk{s->grid, cells * c / chunks,
                                     cells * (c + 1) / chunks};
        svc::SweepChunkResponse part;
        part.points.assign(result.points.begin() + static_cast<std::ptrdiff_t>(chunk.begin),
                           result.points.begin() + static_cast<std::ptrdiff_t>(chunk.end));
        part.candidate_classes = result.candidate_classes;
        sweep_chunks.push_back(
            {chunk, ok_response(std::make_shared<svc::ResponsePayload>(std::move(part)))});
      }
      sweeps.push_back({job, ok_response(std::make_shared<svc::ResponsePayload>(
                                 svc::SweepResponse{std::move(result)}))});
    } else {
      const auto& spec = std::get<svc::FaultSweepRequest>(job).spec;
      const Clock::time_point t0 = Clock::now();
      mpct::fault::CurveResult result = mpct::fault::evaluate_curve(spec);
      const Clock::time_point t1 = Clock::now();
      const mpct::fault::CurveEvaluator evaluator(spec);
      std::vector<mpct::fault::TrialOutcome> outcomes(evaluator.cell_count());
      evaluator.evaluate_range(0, outcomes.size(), outcomes.data());
      const Clock::time_point t2 = Clock::now();
      keep(evaluator.finalize(outcomes));
      const Clock::time_point t3 = Clock::now();
      curve_ns_per_trial.push_back(us_since(t0, t1) * 1e3 /
                                   static_cast<double>(outcomes.size()));
      merge_curve_us.push_back(us_since(t2, t3));
      for (std::size_t c = 0; chunks > 0 && c < chunks; ++c) {
        svc::FaultChunkRequest chunk{spec, outcomes.size() * c / chunks,
                                     outcomes.size() * (c + 1) / chunks};
        svc::FaultChunkResponse part;
        part.outcomes.assign(outcomes.begin() + static_cast<std::ptrdiff_t>(chunk.begin),
                             outcomes.begin() + static_cast<std::ptrdiff_t>(chunk.end));
        curve_chunks.push_back(
            {chunk, ok_response(std::make_shared<svc::ResponsePayload>(std::move(part)))});
      }
      curves.push_back({job, ok_response(std::make_shared<svc::ResponsePayload>(
                                 svc::FaultSweepResponse{std::move(result)}))});
    }
  }
  times.sweep_ns_per_cell = median(sweep_ns_per_cell);
  times.curve_ns_per_trial = median(curve_ns_per_trial);
  report.set_layer("explore.sweep_ns_per_cell", times.sweep_ns_per_cell,
                   "single-thread explore::sweep, " +
                       std::to_string(size.sweep_cells()) + "-cell grids");
  report.set_layer("fault.curve_ns_per_trial", times.curve_ns_per_trial,
                   "single-thread fault::evaluate_curve, " +
                       std::to_string(size.curve_trials()) + "-trial curves");

  std::vector<const svc::Request*> sweep_requests, curve_requests;
  for (const auto& e : sweeps) sweep_requests.push_back(&e.request);
  for (const auto& e : curves) curve_requests.push_back(&e.request);
  execute_layers(report, sweep_requests);
  execute_layers(report, curve_requests);

  if (chunks > 0) {
    wire_layers(report, sweeps);
    wire_layers(report, curves);
    wire_layers(report, sweep_chunks);
    wire_layers(report, curve_chunks);
    report.set_layer("cluster.merge_us.sweep", median(merge_sweep_us),
                     "explore::pareto_front over the merged chunk points");
    report.set_layer("cluster.merge_us.fault_sweep", median(merge_curve_us),
                     "CurveEvaluator::finalize over the merged trial outcomes");
  }
  return times;
}

double engine_round_trip_us(svc::QueryEngine& engine, const svc::Request& request,
                            const svc::ResponsePayload* reference,
                            Verdict& verdict) {
  // Shared with the callback, which may outlive this frame on timeout.
  struct Answer {
    std::promise<std::pair<Clock::time_point, Verdict>> promise;
  };
  auto answer = std::make_shared<Answer>();
  auto done = answer->promise.get_future();
  const Clock::time_point start = Clock::now();
  engine.submit_async(request, svc::Deadline::in(std::chrono::seconds(2)),
                      [answer, reference](svc::QueryResponse response) {
                        const Clock::time_point at = Clock::now();
                        answer->promise.set_value({at, judge(response, reference)});
                      });
  if (done.wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
    throw std::runtime_error("engine round trip timed out");
  }
  const auto [at, seen] = done.get();
  verdict = seen;
  return us_since(start, at);
}

}  // namespace perfbench
