/// The simulation-as-a-service pipeline end to end: the portable
/// workload IR lowers onto every runnable paradigm and reproduces the
/// host reference word for word, runs are deterministic (the golden
/// test compares inline engine vs threaded engine vs TCP vs proxy
/// byte for byte), injected mesh faults cost measurable cycles or
/// raise typed errors, SimulateRequest travels wire v2, and a recorded
/// session replays with a 100% response-fingerprint match.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <variant>
#include <vector>

#include "arch/registry.hpp"
#include "cluster/cluster.hpp"
#include "core/classifier.hpp"
#include "core/naming.hpp"
#include "fault/fault_model.hpp"
#include "net/net.hpp"
#include "service/service.hpp"
#include "wire/wire.hpp"
#include "workload/runner.hpp"

namespace mpct {
namespace {

using workload::Kernel;
using workload::Paradigm;
using workload::RunOptions;
using workload::WorkloadResult;
using workload::WorkloadSpec;

TaxonomicName name_of(const std::string& text) {
  const auto parsed = parse_taxonomic_name(text);
  EXPECT_TRUE(parsed.has_value()) << text;
  return *parsed;
}

MachineClass class_of(const std::string& text) {
  const auto canonical = canonical_class(name_of(text));
  EXPECT_TRUE(canonical.has_value()) << text;
  return *canonical;
}

WorkloadSpec stencil_spec(std::int32_t size = 8, std::int32_t iters = 4) {
  WorkloadSpec spec;
  spec.kernel = Kernel::Stencil5;
  spec.size = size;
  spec.iterations = iters;
  return spec;
}

WorkloadSpec reduce_spec(std::int32_t size = 32) {
  WorkloadSpec spec;
  spec.kernel = Kernel::Reduce;
  spec.size = size;
  spec.iterations = 1;
  return spec;
}

WorkloadSpec saxpy_spec(std::int32_t size = 24) {
  WorkloadSpec spec;
  spec.kernel = Kernel::Saxpy;
  spec.size = size;
  spec.iterations = 1;
  spec.alpha = 3;
  return spec;
}

/// The one machine name per paradigm the cross-paradigm sweeps use.
const std::vector<std::pair<std::string, Paradigm>> kMachines = {
    {"IUP", Paradigm::Uniprocessor},  {"IAP-III", Paradigm::ArrayProcessor},
    {"IMP-IV", Paradigm::Multiprocessor}, {"DUP", Paradigm::Dataflow},
    {"DMP-II", Paradigm::Dataflow},   {"ISP-II", Paradigm::Cgra},
    {"USP", Paradigm::Cgra},
};

// ---------------------------------------------------------------------------
// Workload IR

TEST(WorkloadIr, InputAndReferenceAreDeterministic) {
  for (const WorkloadSpec& spec :
       {stencil_spec(), reduce_spec(), saxpy_spec()}) {
    const auto in_a = workload::make_input(spec, 42);
    const auto in_b = workload::make_input(spec, 42);
    EXPECT_EQ(in_a, in_b);
    EXPECT_EQ(static_cast<std::int64_t>(in_a.size()),
              workload::input_words(spec));
    // A different seed is a different problem instance.
    EXPECT_NE(in_a, workload::make_input(spec, 43));

    const auto ref_a = workload::reference_output(spec, 42);
    const auto ref_b = workload::reference_output(spec, 42);
    EXPECT_EQ(ref_a, ref_b);
    EXPECT_EQ(static_cast<std::int64_t>(ref_a.size()),
              workload::output_words(spec));
    EXPECT_EQ(workload::checksum(ref_a), workload::checksum(ref_b));
  }
}

TEST(WorkloadIr, ValidateRejectsMalformedSpecs) {
  EXPECT_TRUE(workload::validate(stencil_spec()).empty());
  WorkloadSpec tiny = stencil_spec(2);  // stencil needs an interior
  EXPECT_FALSE(workload::validate(tiny).empty());
  WorkloadSpec repeated = reduce_spec();
  repeated.iterations = 2;  // only the stencil iterates
  EXPECT_FALSE(workload::validate(repeated).empty());
  WorkloadSpec huge = stencil_spec(120, 1024);  // blows the work cap
  EXPECT_FALSE(workload::validate(huge).empty());
}

// ---------------------------------------------------------------------------
// Cross-paradigm correctness: one semantics, five executions

TEST(WorkloadRunner, EveryParadigmReproducesTheReferenceOutput) {
  for (const auto& [machine, paradigm] : kMachines) {
    for (const WorkloadSpec& spec :
         {stencil_spec(), reduce_spec(), saxpy_spec()}) {
      const WorkloadResult result =
          workload::run_workload(spec, name_of(machine), RunOptions{}, {}, 7);
      EXPECT_EQ(result.paradigm, paradigm) << machine;
      EXPECT_TRUE(result.halted) << machine;
      EXPECT_TRUE(result.matches_reference)
          << machine << " " << workload::to_string(spec.kernel);
      EXPECT_GT(result.cycles, 0) << machine;
      EXPECT_GT(result.energy_pj, 0.0) << machine;
      EXPECT_EQ(result.noc_reachable_fraction, 1.0) << machine;
    }
  }
}

TEST(WorkloadRunner, NonDivisibleSizesStillMatchTheReference) {
  // Width 8 against sizes that don't split evenly across lanes, cores,
  // PEs or CGRA passes: remainder handling must not corrupt output.
  for (const auto& [machine, paradigm] : kMachines) {
    (void)paradigm;
    for (const WorkloadSpec& spec :
         {stencil_spec(9, 3), reduce_spec(13), saxpy_spec(10)}) {
      const WorkloadResult result =
          workload::run_workload(spec, name_of(machine), RunOptions{}, {}, 3);
      EXPECT_TRUE(result.matches_reference)
          << machine << " " << workload::to_string(spec.kernel);
    }
  }
}

TEST(WorkloadRunner, RepeatedRunsAreByteIdentical) {
  const RunOptions options;
  for (const auto& [machine, paradigm] : kMachines) {
    (void)paradigm;
    const WorkloadResult a =
        workload::run_workload(stencil_spec(), name_of(machine), options, {}, 11);
    const WorkloadResult b =
        workload::run_workload(stencil_spec(), name_of(machine), options, {}, 11);
    EXPECT_EQ(a, b) << machine;  // every field, checksum included
  }
}

TEST(WorkloadRunner, StencilCyclesPerParadigmAreExact) {
  // stencil5 8x8x4 at the default options and seed: the simulators are
  // deterministic, so the cycle count per paradigm is an exact figure
  // (docs/WORKLOAD.md) and any change to it is a change to a model.
  const std::vector<std::pair<std::string, std::int64_t>> expected = {
      {"IUP", 4558}, {"IAP-III", 1545}, {"IMP-IV", 1221}, {"DUP", 852},
      {"DMP-II", 120}, {"ISP-II", 720},  {"USP", 720},
  };
  for (const auto& [machine, cycles] : expected) {
    EXPECT_EQ(workload::run_workload(stencil_spec(), name_of(machine)).cycles,
              cycles)
        << machine;
  }
}

// ---------------------------------------------------------------------------
// Faults: degraded mesh => route-around => measurable cycle cost

TEST(WorkloadFaults, DeadMeshLinkCostsCyclesButPreservesTheAnswer) {
  // Width 4 => a 2x2 mesh where killing link 0-1 forces traffic from
  // core 1 to detour 1->3->2->0 (and back): same output, more cycles.
  RunOptions options;
  options.width = 4;
  const WorkloadSpec spec = stencil_spec();
  const WorkloadResult clean =
      workload::run_workload(spec, name_of("IMP-IV"), options, {}, 7);
  fault::FaultSet faults;
  faults.add_noc_link(0, 1);
  const WorkloadResult degraded =
      workload::run_workload(spec, name_of("IMP-IV"), options, faults, 7);

  EXPECT_TRUE(clean.matches_reference);
  EXPECT_TRUE(degraded.matches_reference);
  EXPECT_EQ(clean.output_checksum, degraded.output_checksum);
  EXPECT_GT(degraded.cycles, clean.cycles);
  // One dead link leaves every node pair connected (via the detour), so
  // ordered-pair reachability stays at 1.0 — the cost shows up in
  // cycles, not connectivity.
  EXPECT_EQ(clean.noc_reachable_fraction, 1.0);
  EXPECT_EQ(degraded.noc_reachable_fraction, 1.0);
  // Deterministic under faults too.
  EXPECT_EQ(degraded,
            workload::run_workload(spec, name_of("IMP-IV"), options, faults, 7));
}

TEST(WorkloadFaults, DeadSpareRouterShrinksReachabilityWithoutKillingTheRun) {
  // Width 3 on a 2x2 mesh leaves node 3 without a core.  Killing that
  // spare router is survivable — no mapped core routes through a 2x2
  // corner — but the fabric honestly reports the lost connectivity.
  RunOptions options;
  options.width = 3;
  fault::FaultSet faults;
  faults.add(fault::FaultKind::NocRouterDead, 3);
  const WorkloadResult degraded =
      workload::run_workload(stencil_spec(), name_of("IMP-IV"), options,
                             faults, 7);
  EXPECT_TRUE(degraded.matches_reference);
  EXPECT_LT(degraded.noc_reachable_fraction, 1.0);
}

TEST(WorkloadFaults, DisconnectedMeshRaisesLoweringError) {
  // Killing both links of corner node 0 strands it: no surviving route.
  RunOptions options;
  options.width = 4;
  fault::FaultSet faults;
  faults.add_noc_link(0, 1);
  faults.add_noc_link(0, 2);
  EXPECT_THROW(
      workload::run_workload(stencil_spec(), name_of("IMP-IV"), options,
                             faults, 7),
      workload::LoweringError);
}

TEST(WorkloadFaults, FatalComponentFaultsAreTyped) {
  // The uniprocessor's only core dying is fatal, not UB.
  fault::FaultSet dead_core;
  dead_core.add(fault::FaultKind::IpDead, 0);
  EXPECT_THROW(workload::run_workload(reduce_spec(), name_of("IUP"),
                                      RunOptions{}, dead_core, 1),
               workload::LoweringError);
  // A class without the DP-DM crossbar cannot hold the shared grid.
  EXPECT_THROW(
      workload::run_workload(stencil_spec(), name_of("IAP-I"), RunOptions{}),
      workload::LoweringError);
}

// ---------------------------------------------------------------------------
// SimulateRequest through the engine

service::SimulateRequest simulate_request(
    const WorkloadSpec& spec = stencil_spec(),
    const std::string& machine = "IMP-IV") {
  service::SimulateRequest req;
  req.workload = spec;
  req.target = class_of(machine);
  req.options.width = 4;
  req.seed = 7;
  return req;
}

TEST(SimulateService, EngineResultMatchesDirectRunnerCall) {
  service::EngineOptions options;
  options.worker_threads = 0;
  service::QueryEngine engine(options);

  const service::SimulateRequest req = simulate_request();
  const service::QueryResponse response = engine.execute(req);
  ASSERT_TRUE(response.ok()) << response.status.to_string();
  const service::SimulateResponse* payload = response.simulate();
  ASSERT_NE(payload, nullptr);

  const WorkloadResult direct = workload::run_workload(
      req.workload, class_of("IMP-IV"), req.options, req.faults, req.seed);
  EXPECT_EQ(payload->result, direct);
  EXPECT_EQ(engine.metrics().sim_runs.value(), 1u);
  EXPECT_EQ(engine.metrics().sim_fault_runs.value(), 0u);
  EXPECT_EQ(engine.metrics().sim_cycles.value(),
            static_cast<std::uint64_t>(direct.cycles));
}

TEST(SimulateService, InvalidRequestsComeBackTyped) {
  service::EngineOptions options;
  options.worker_threads = 0;
  service::QueryEngine engine(options);

  service::SimulateRequest bad_spec = simulate_request();
  bad_spec.workload.size = 2;  // stencil needs an interior
  EXPECT_EQ(engine.execute(bad_spec).status.code,
            service::StatusCode::InvalidRequest);

  service::SimulateRequest bad_width = simulate_request();
  bad_width.options.width = 0;
  EXPECT_EQ(engine.execute(bad_width).status.code,
            service::StatusCode::InvalidRequest);

  service::SimulateRequest bad_budget = simulate_request();
  bad_budget.options.max_cycles = 0;
  EXPECT_EQ(engine.execute(bad_budget).status.code,
            service::StatusCode::InvalidRequest);

  // A lowering failure (mesh split in two) is the caller's fault too.
  service::SimulateRequest split = simulate_request();
  split.faults.add_noc_link(0, 1);
  split.faults.add_noc_link(0, 2);
  const service::QueryResponse response = engine.execute(split);
  EXPECT_EQ(response.status.code, service::StatusCode::InvalidRequest);
  EXPECT_NE(response.status.message.find("disconnect"), std::string::npos)
      << response.status.message;
}

TEST(SimulateService, ResultsAreFingerprintCached) {
  service::EngineOptions options;
  options.worker_threads = 0;
  service::QueryEngine engine(options);

  const service::SimulateRequest req = simulate_request();
  const service::QueryResponse first = engine.execute(req);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.cache_hit);
  const service::QueryResponse second = engine.execute(req);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_TRUE(*second.payload == *first.payload);
  // The cached run is not re-counted as a simulation.
  EXPECT_EQ(engine.metrics().sim_runs.value(), 1u);

  // Faults, seed and options are all part of the key.
  service::SimulateRequest faulted = req;
  faulted.faults.add_noc_link(0, 1);
  const service::QueryResponse third = engine.execute(faulted);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third.cache_hit);
  EXPECT_FALSE(*third.payload == *first.payload);
  EXPECT_EQ(engine.metrics().sim_runs.value(), 2u);
  EXPECT_EQ(engine.metrics().sim_fault_runs.value(), 1u);

  service::SimulateRequest reseeded = req;
  reseeded.seed = 8;
  EXPECT_FALSE(engine.execute(reseeded).cache_hit);
}

// ---------------------------------------------------------------------------
// Wire protocol v2

TEST(SimulateWire, RequestRoundTripsAtVersion2) {
  service::SimulateRequest req = simulate_request();
  req.faults.add_noc_link(0, 1);
  req.faults.add(fault::FaultKind::DpDead, 3);
  const auto frame =
      wire::encode_request_frame(99, service::Request{req}, /*deadline=*/250);
  const auto decoded = wire::decode_request_frame(frame.data(), frame.size());
  ASSERT_TRUE(decoded.ok()) << decoded.error.message;
  EXPECT_EQ(decoded.value->request_id, 99u);
  ASSERT_TRUE(
      std::holds_alternative<service::SimulateRequest>(decoded.value->request));
  const auto& round =
      std::get<service::SimulateRequest>(decoded.value->request);
  EXPECT_EQ(round.workload, req.workload);
  EXPECT_TRUE(std::get<MachineClass>(round.target) ==
              std::get<MachineClass>(req.target));
  EXPECT_EQ(round.options, req.options);
  EXPECT_TRUE(round.faults == req.faults);
  EXPECT_EQ(round.seed, req.seed);
  EXPECT_TRUE(round == req);
}

TEST(SimulateWire, ResponseRoundTripsAtVersion2) {
  service::EngineOptions options;
  options.worker_threads = 0;
  service::QueryEngine engine(options);
  const service::QueryResponse response = engine.execute(simulate_request());
  ASSERT_TRUE(response.ok());

  const auto frame = wire::encode_response_frame(99, response);
  const auto decoded = wire::decode_response_frame(frame.data(), frame.size());
  ASSERT_TRUE(decoded.ok()) << decoded.error.message;
  ASSERT_NE(decoded.value->response.payload, nullptr);
  EXPECT_TRUE(*decoded.value->response.payload == *response.payload);
}

TEST(SimulateWire, Version1FramesCannotCarrySimulate) {
  // Simulate is v2+: a v1 frame with its tag is malformed, not UB.
  const auto frame = wire::encode_request_frame(
      7, service::Request{simulate_request()}, 0, /*version=*/1);
  const auto decoded = wire::decode_request_frame(frame.data(), frame.size());
  EXPECT_FALSE(decoded.ok());
}

// ---------------------------------------------------------------------------
// Golden determinism: inline == threaded == TCP == proxy, byte for byte

TEST(SimulateGolden, SameRequestIsByteIdenticalAcrossEveryServingPath) {
  const service::SimulateRequest req = simulate_request();

  service::EngineOptions inline_options;
  inline_options.worker_threads = 0;
  service::QueryEngine inline_engine(inline_options);
  const service::QueryResponse inline_response = inline_engine.execute(req);
  ASSERT_TRUE(inline_response.ok());

  // Threaded engine behind a TCP server.
  service::EngineOptions threaded_options;
  threaded_options.worker_threads = 2;
  service::QueryEngine threaded(threaded_options);
  net::Server server(threaded);
  ASSERT_TRUE(server.start()) << server.error();
  net::ClientOptions copts;
  copts.port = server.port();
  net::Client client(copts);
  const service::QueryResponse wire_response = client.call(req);
  ASSERT_TRUE(wire_response.ok()) << wire_response.status.to_string();
  ASSERT_NE(wire_response.payload, nullptr);
  EXPECT_TRUE(*wire_response.payload == *inline_response.payload);

  // Same request through the combining proxy in front of that server.
  cluster::ProxyOptions poptions;
  poptions.cluster.endpoints = {{"127.0.0.1", server.port()}};
  poptions.worker_threads = 2;
  poptions.enable_pinger = false;
  cluster::CombiningProxy proxy(poptions);
  ASSERT_TRUE(proxy.start()) << proxy.error();
  net::ClientOptions fronted;
  fronted.port = proxy.port();
  net::Client proxy_client(fronted);
  const service::QueryResponse proxied = proxy_client.call(req);
  ASSERT_TRUE(proxied.ok()) << proxied.status.to_string();
  ASSERT_NE(proxied.payload, nullptr);
  EXPECT_TRUE(*proxied.payload == *inline_response.payload);

  proxy.stop();
  server.stop();
}

// ---------------------------------------------------------------------------
// Capture + replay

/// Temp file path unique to this test binary run.
std::string temp_path(const std::string& stem) {
  return ::testing::TempDir() + stem;
}

TEST(CaptureFile, RoundTripsAndRejectsTruncation) {
  const std::string path = temp_path("capture_roundtrip.bin");
  const std::vector<std::uint8_t> frame_a = {1, 2, 3, 4};
  const std::vector<std::uint8_t> frame_b = {9, 8, 7};
  {
    net::CaptureWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path, error)) << error;
    writer.record(frame_a.data(), frame_a.size());
    writer.record(frame_b.data(), frame_b.size());
    EXPECT_EQ(writer.frames_written(), 2u);
  }
  net::CaptureFile capture;
  std::string error;
  ASSERT_TRUE(net::read_capture(path, capture, error)) << error;
  ASSERT_EQ(capture.records.size(), 2u);
  EXPECT_EQ(capture.records[0].frame, frame_a);
  EXPECT_EQ(capture.records[1].frame, frame_b);
  EXPECT_EQ(capture.records[0].delta_us, 0u);  // first frame has no gap

  // Chop the last byte: the reader reports truncation, all or nothing.
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fclose(file);
  ASSERT_EQ(::truncate(path.c_str(), size - 1), 0);
  net::CaptureFile cut;
  EXPECT_FALSE(net::read_capture(path, cut, error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(CaptureReplay, RecordedSessionReplaysWithFullFingerprintMatch) {
  const std::string path = temp_path("workload_session.capture");

  // Record: a server with the recorder hook on, a client sending a mix
  // of simulate (clean and faulted) and classify traffic.
  {
    service::EngineOptions eoptions;
    eoptions.worker_threads = 2;
    service::QueryEngine engine(eoptions);
    net::ServerOptions soptions;
    soptions.capture_path = path;
    net::Server server(engine, soptions);
    ASSERT_TRUE(server.start()) << server.error();

    net::ClientOptions copts;
    copts.port = server.port();
    net::Client client(copts);
    std::vector<service::Request> traffic;
    traffic.emplace_back(simulate_request());
    service::SimulateRequest faulted = simulate_request();
    faulted.faults.add_noc_link(0, 1);
    traffic.emplace_back(faulted);
    traffic.emplace_back(simulate_request(reduce_spec(), "DMP-II"));
    traffic.emplace_back(service::ClassifyRequest::of(
        arch::surveyed_architectures()[2]));
    for (const service::Request& request : traffic) {
      ASSERT_TRUE(client.call(request).ok());
    }
    server.stop();
  }

  net::CaptureFile capture;
  std::string error;
  ASSERT_TRUE(net::read_capture(path, capture, error)) << error;
  ASSERT_EQ(capture.records.size(), 4u);

  // Replay twice against a fresh engine: both runs answer everything,
  // and their normalized response fingerprints agree 100%.
  service::EngineOptions eoptions;
  eoptions.worker_threads = 2;
  service::QueryEngine engine(eoptions);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  net::ReplayOptions roptions;
  roptions.port = server.port();
  roptions.max_speed = true;
  const net::ReplayOutcome first = net::replay_capture(capture, roptions);
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_EQ(first.sent, 4u);
  EXPECT_EQ(first.answered, 4u);
  ASSERT_EQ(first.fingerprints.size(), 4u);

  const net::ReplayOutcome second = net::replay_capture(capture, roptions);
  ASSERT_TRUE(second.ok()) << second.error;
  EXPECT_EQ(first, second);  // 100% fingerprint match, id by id

  server.stop();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mpct
