/// Deterministic versioned binary serialisation (src/wire): frame
/// scanning, round trips for every Request / Response variant —
/// bit-identical, checked field by field and against the canonical
/// fingerprint — golden frames with their decode verdicts, and the
/// hardened decoder's typed error taxonomy (truncation, bad magic,
/// version skew, trailing bytes, enum ranges).
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "arch/registry.hpp"
#include "service/service.hpp"
#include "wire/wire.hpp"

namespace {

using namespace mpct;
using namespace mpct::wire;

using service::Request;
using service::QueryResponse;

// ---------------------------------------------------------------------------
// Representative requests, one per RequestType.

Request classify_spec_request() {
  return service::ClassifyRequest::of(arch::surveyed_architectures()[2]);
}

Request classify_adl_request() {
  return service::ClassifyRequest::of_adl(
      arch::to_adl(*arch::find_architecture("MorphoSys")));
}

Request recommend_request() {
  service::RecommendRequest req;
  req.requirements.min_flexibility = 3;
  req.requirements.paradigm = MachineType::DataFlow;
  req.requirements.needs_pe_exchange = true;
  req.requirements.n = 32;
  req.requirements.lut_budget = 2048;
  req.requirements.objective = explore::Requirements::Objective::MinArea;
  req.top_k = 5;
  return req;
}

Request cost_class_request() {
  service::CostRequest req;
  MachineClass mc;
  mc.granularity = Granularity::IpDp;
  mc.ips = Multiplicity::Many;
  mc.dps = Multiplicity::Many;
  mc.set_switch(ConnectivityRole::IpDp, SwitchKind::Crossbar);
  mc.set_switch(ConnectivityRole::DpDm, SwitchKind::Crossbar);
  req.target = mc;
  req.options.n = 8;
  req.options.include_ip_dp_switch = true;
  req.n_sweep = {4, 8, 16};
  return req;
}

Request cost_spec_request() {
  service::CostRequest req;
  req.target = arch::surveyed_architectures()[4];
  req.options.v = 128;
  return req;
}

Request sweep_request() {
  service::SweepRequest req;
  req.grid.base.min_flexibility = 2;
  req.grid.n_values = {4, 16};
  req.grid.lut_budgets = {256, 1024};
  req.grid.objectives = {explore::Requirements::Objective::MinConfigBits,
                         explore::Requirements::Objective::MinArea};
  return req;
}

Request fault_sweep_request() {
  service::FaultSweepRequest req;
  MachineClass mc;
  mc.granularity = Granularity::IpDp;
  mc.ips = Multiplicity::Many;
  mc.dps = Multiplicity::Many;
  mc.set_switch(ConnectivityRole::IpDp, SwitchKind::Crossbar);
  mc.set_switch(ConnectivityRole::DpDm, SwitchKind::Crossbar);
  req.spec.machine = mc;
  req.spec.bindings.n = 4;
  req.spec.fault_rates = {0.0, 0.1};
  req.spec.trials_per_rate = 4;
  req.spec.seed = 42;
  return req;
}

Request sweep_chunk_request() {
  service::SweepChunkRequest req;
  req.grid = std::get<service::SweepRequest>(sweep_request()).grid;
  req.begin = 1;
  req.end = 5;
  return req;
}

Request fault_chunk_request() {
  service::FaultChunkRequest req;
  req.spec = std::get<service::FaultSweepRequest>(fault_sweep_request()).spec;
  req.begin = 2;
  req.end = 6;
  return req;
}

std::vector<Request> all_requests() {
  std::vector<Request> requests;
  requests.push_back(classify_spec_request());
  requests.push_back(classify_adl_request());
  requests.push_back(recommend_request());
  requests.push_back(cost_class_request());
  requests.push_back(cost_spec_request());
  requests.push_back(sweep_request());
  requests.push_back(fault_sweep_request());
  requests.push_back(sweep_chunk_request());
  requests.push_back(fault_chunk_request());
  return requests;
}

// ---------------------------------------------------------------------------
// Frame scanning

TEST(FrameScan, IncompleteHeaderNeedsMore) {
  const auto frame = encode_request_frame(1, classify_spec_request());
  for (std::size_t len = 0; len < kHeaderSize; ++len) {
    const FrameScan scan = scan_frame(frame.data(), len);
    EXPECT_EQ(scan.state, FrameScan::State::NeedMore) << "len=" << len;
  }
}

TEST(FrameScan, IncompletePayloadNeedsMore) {
  const auto frame = encode_request_frame(1, classify_spec_request());
  const FrameScan scan = scan_frame(frame.data(), frame.size() - 1);
  EXPECT_EQ(scan.state, FrameScan::State::NeedMore);
}

TEST(FrameScan, CompleteFrameIsReady) {
  const auto frame = encode_request_frame(77, classify_spec_request(), 1234);
  const FrameScan scan = scan_frame(frame.data(), frame.size());
  ASSERT_EQ(scan.state, FrameScan::State::Ready);
  EXPECT_EQ(scan.header.kind, FrameKind::Request);
  EXPECT_EQ(scan.header.request_id, 77u);
  EXPECT_EQ(scan.frame_size, frame.size());
}

TEST(FrameScan, BadMagicIsRejectedEvenFromAPrefix) {
  // A garbage stream must be rejected as soon as the magic mismatches —
  // even before a whole header arrives — so a reader can never be
  // stalled on NeedMore by junk.
  const std::uint8_t junk[] = {'J', 'U', 'N', 'K'};
  for (std::size_t len = 1; len <= 4; ++len) {
    const FrameScan scan = scan_frame(junk, len);
    EXPECT_EQ(scan.state, FrameScan::State::Bad) << "len=" << len;
    EXPECT_EQ(scan.error.code, WireErrorCode::BadMagic);
  }
}

TEST(FrameScan, VersionSkewIsTyped) {
  auto frame = encode_request_frame(1, classify_spec_request());
  frame[4] = 0xFF;  // version low byte
  const FrameScan scan = scan_frame(frame.data(), frame.size());
  ASSERT_EQ(scan.state, FrameScan::State::Bad);
  EXPECT_EQ(scan.error.code, WireErrorCode::UnsupportedVersion);
}

TEST(FrameScan, BadKindAndReservedAreTyped) {
  auto frame = encode_request_frame(1, classify_spec_request());
  frame[6] = 9;  // frame kind
  EXPECT_EQ(scan_frame(frame.data(), frame.size()).error.code,
            WireErrorCode::BadFrameKind);
  frame[6] = 1;
  frame[7] = 1;  // reserved must be zero
  EXPECT_EQ(scan_frame(frame.data(), frame.size()).error.code,
            WireErrorCode::Malformed);
}

TEST(FrameScan, OversizedPayloadIsRejectedBeforeBuffering) {
  auto frame = encode_request_frame(1, classify_spec_request());
  const std::uint32_t huge = (16u << 20) + 1;
  std::memcpy(frame.data() + 16, &huge, sizeof(huge));
  const FrameScan scan = scan_frame(frame.data(), frame.size());
  ASSERT_EQ(scan.state, FrameScan::State::Bad);
  EXPECT_EQ(scan.error.code, WireErrorCode::Oversized);
}

// ---------------------------------------------------------------------------
// Request round trips

TEST(RequestRoundTrip, EveryRequestTypeIsBitIdentical) {
  std::uint64_t id = 100;
  for (const Request& request : all_requests()) {
    const auto frame = encode_request_frame(id, request, 5000);
    const auto decoded = decode_request_frame(frame.data(), frame.size());
    ASSERT_TRUE(decoded.ok()) << decoded.error.to_string();
    EXPECT_EQ(decoded.value->request_id, id);
    EXPECT_EQ(decoded.value->deadline_ms, 5000u);
    // The canonical fingerprint walks every response-relevant field
    // (including IEEE double bit patterns), so equality here means the
    // decoded request is response-equivalent to the original.
    EXPECT_EQ(service::fingerprint(decoded.value->request),
              service::fingerprint(request));
    EXPECT_EQ(decoded.value->request.index(), request.index());
    // Field-by-field equality, independent of the schema the codec and
    // the fingerprint share.
    EXPECT_TRUE(decoded.value->request == request);
    ++id;
  }
}

TEST(RequestRoundTrip, ReEncodingIsDeterministic) {
  for (const Request& request : all_requests()) {
    const auto first = encode_request_frame(9, request, 0);
    const auto decoded = decode_request_frame(first.data(), first.size());
    ASSERT_TRUE(decoded.ok());
    EXPECT_TRUE(decoded.value->request == request);
    const auto second =
        encode_request_frame(9, decoded.value->request, 0);
    EXPECT_EQ(first, second);  // byte-for-byte stable across a round trip
  }
}

// ---------------------------------------------------------------------------
// Response round trips

void expect_equal_responses(const QueryResponse& a, const QueryResponse& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.cache_hit, b.cache_hit);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  ASSERT_EQ(a.payload == nullptr, b.payload == nullptr);
  if (a.payload) {
    EXPECT_TRUE(*a.payload == *b.payload);
  }
}

TEST(ResponseRoundTrip, EveryPayloadAlternativeIsBitIdentical) {
  service::EngineOptions options;
  options.worker_threads = 0;
  service::QueryEngine engine(options);
  std::uint64_t id = 1;
  for (const Request& request : all_requests()) {
    const QueryResponse response = engine.execute(request);
    ASSERT_TRUE(response.ok());
    const auto frame = encode_response_frame(id, response);
    const auto decoded = decode_response_frame(frame.data(), frame.size());
    ASSERT_TRUE(decoded.ok()) << decoded.error.to_string();
    EXPECT_EQ(decoded.value->request_id, id);
    expect_equal_responses(decoded.value->response, response);
    ++id;
  }
}

TEST(ResponseRoundTrip, CacheHitFlagAndLatencySurvive) {
  service::EngineOptions options;
  options.worker_threads = 0;
  service::QueryEngine engine(options);
  engine.execute(classify_spec_request());
  const QueryResponse hit = engine.execute(classify_spec_request());
  ASSERT_TRUE(hit.cache_hit);
  const auto frame = encode_response_frame(3, hit);
  const auto decoded = decode_response_frame(frame.data(), frame.size());
  ASSERT_TRUE(decoded.ok());
  expect_equal_responses(decoded.value->response, hit);
}

TEST(ResponseRoundTrip, EveryStatusCodeSurvivesIncludingNetOnes) {
  using service::Status;
  const Status statuses[] = {
      Status::okay(),
      Status::queue_full(),
      Status::deadline_exceeded(),
      Status::parse_error("line 3: expected '}'"),
      Status::invalid_request("empty sweep"),
      Status::shutting_down(),
      Status::internal_error("boom"),
      Status::unavailable("connect refused"),
      Status::protocol_error("truncated: payload"),
  };
  for (const Status& status : statuses) {
    QueryResponse response;
    response.status = status;
    response.latency = std::chrono::nanoseconds(987654321);
    const auto frame = encode_response_frame(8, response);
    const auto decoded = decode_response_frame(frame.data(), frame.size());
    ASSERT_TRUE(decoded.ok()) << decoded.error.to_string();
    expect_equal_responses(decoded.value->response, response);
  }
}

// ---------------------------------------------------------------------------
// Hardened decoding: typed errors, never UB

TEST(DecodeErrors, TruncatedPayloadIsTyped) {
  const auto frame = encode_request_frame(1, recommend_request());
  // Chop the payload but lie about nothing: decode sees a frame whose
  // size is smaller than the header announces.
  const auto decoded =
      decode_request_frame(frame.data(), frame.size() - 3);
  EXPECT_FALSE(decoded.ok());
}

TEST(DecodeErrors, TrailingBytesAreTyped) {
  auto frame = encode_request_frame(1, recommend_request());
  // Grow the payload and fix up the announced length so framing is
  // consistent but the codec has bytes left over.
  frame.push_back(0);
  const std::uint32_t announced =
      static_cast<std::uint32_t>(frame.size() - kHeaderSize);
  std::memcpy(frame.data() + 16, &announced, sizeof(announced));
  const auto decoded = decode_request_frame(frame.data(), frame.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error.code, WireErrorCode::TrailingData);
}

TEST(DecodeErrors, OutOfRangeEnumIsMalformed) {
  auto frame = encode_request_frame(1, classify_spec_request());
  // Payload byte layout: u32 deadline_ms, then the u8 RequestType tag.
  frame[kHeaderSize + 4] = 250;
  const auto decoded = decode_request_frame(frame.data(), frame.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error.code, WireErrorCode::Malformed);
}

TEST(DecodeErrors, WrongFrameKindIsTyped) {
  QueryResponse response;
  response.status = service::Status::okay();
  const auto frame = encode_response_frame(1, response);
  const auto decoded = decode_request_frame(frame.data(), frame.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error.code, WireErrorCode::BadFrameKind);

  const auto req_frame = encode_request_frame(1, recommend_request());
  const auto as_response =
      decode_response_frame(req_frame.data(), req_frame.size());
  ASSERT_FALSE(as_response.ok());
  EXPECT_EQ(as_response.error.code, WireErrorCode::BadFrameKind);
}

TEST(DecodeErrors, ImplausibleLengthPrefixIsMalformedNotOom) {
  // A recommend-response frame whose element count claims more entries
  // than the payload could possibly hold must be rejected by the length
  // plausibility bound — before any allocation is attempted.
  service::EngineOptions options;
  options.worker_threads = 0;
  service::QueryEngine engine(options);
  const QueryResponse response = engine.execute(recommend_request());
  ASSERT_TRUE(response.ok());
  auto frame = encode_response_frame(1, response);
  // Find the recommendation-count u32: it follows status (i32 + str),
  // cache_hit (u8), latency (i64) and the payload index (u8).  Status
  // message is empty here, so the offset is fixed.
  const std::size_t count_offset = kHeaderSize + 4 + 4 + 1 + 8 + 1;
  const std::uint32_t absurd = 0x7FFFFFFF;
  std::memcpy(frame.data() + count_offset, &absurd, sizeof(absurd));
  const auto decoded = decode_response_frame(frame.data(), frame.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error.code, WireErrorCode::Malformed);
}

TEST(DecodeErrors, ErrorsRenderReadably) {
  WireError error{WireErrorCode::Truncated, "payload ends early"};
  EXPECT_EQ(error.to_string(), "truncated: payload ends early");
  EXPECT_EQ(to_string(WireErrorCode::UnsupportedVersion),
            "unsupported-version");
}

// ---------------------------------------------------------------------------
// Protocol v2: per-version headers, trace ids, control frames, and the
// v1 compatibility rules.

TEST(ProtocolV2, V1FramesUseTheShortHeaderAndStillDecode) {
  const Request request = classify_spec_request();
  const auto frame =
      encode_request_frame(5, request, 100, /*version=*/1);
  const FrameScan scan = scan_frame(frame.data(), frame.size());
  ASSERT_EQ(scan.state, FrameScan::State::Ready);
  EXPECT_EQ(scan.header.version, 1u);
  EXPECT_EQ(scan.header.trace_id, 0u);  // v1 has no trace field
  EXPECT_EQ(scan.frame_size, frame.size());
  // The v1 header is 8 bytes shorter than v2's, and a v2 request
  // payload additionally carries the trailing QoS priority byte.
  const auto v2 = encode_request_frame(5, request, 100, /*version=*/2);
  EXPECT_EQ(frame.size() + (kHeaderSizeV2 - kHeaderSizeV1) + 1, v2.size());

  const auto decoded = decode_request_frame(frame.data(), frame.size());
  ASSERT_TRUE(decoded.ok()) << decoded.error.to_string();
  EXPECT_EQ(decoded.value->version, 1u);
  EXPECT_EQ(service::fingerprint(decoded.value->request),
            service::fingerprint(request));
  EXPECT_TRUE(decoded.value->request == request);
}

TEST(ProtocolV2, TraceIdRidesTheV2HeaderBothWays) {
  const std::uint64_t trace_id = 0xFEEDFACE12345678ull;
  const auto frame = encode_request_frame(9, recommend_request(), 0,
                                          kProtocolVersion, trace_id);
  const FrameScan scan = scan_frame(frame.data(), frame.size());
  ASSERT_EQ(scan.state, FrameScan::State::Ready);
  EXPECT_EQ(scan.header.trace_id, trace_id);
  const auto decoded = decode_request_frame(frame.data(), frame.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value->trace_id, trace_id);

  QueryResponse response;
  response.status = service::Status::okay();
  const auto reply =
      encode_response_frame(9, response, kProtocolVersion, trace_id);
  const auto reply_decoded = decode_response_frame(reply.data(), reply.size());
  ASSERT_TRUE(reply_decoded.ok());
  EXPECT_EQ(reply_decoded.value->trace_id, trace_id);
}

TEST(ProtocolV2, ChunkRequestsAreRejectedOnV1Frames) {
  // The chunk request types are v2-only: a v1 frame carrying one is
  // malformed by definition (an old peer could never have sent it).
  for (const Request& request :
       {sweep_chunk_request(), fault_chunk_request()}) {
    const auto v1_frame = encode_request_frame(3, request, 0, /*version=*/1);
    const auto decoded =
        decode_request_frame(v1_frame.data(), v1_frame.size());
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error.code, WireErrorCode::Malformed);

    const auto v2_frame = encode_request_frame(3, request, 0, /*version=*/2);
    EXPECT_TRUE(
        decode_request_frame(v2_frame.data(), v2_frame.size()).ok());
  }
}

TEST(ProtocolV2, PingPongFramesScanAsHeaderOnlyFrames) {
  for (const auto& frame : {encode_ping_frame(21), encode_pong_frame(21)}) {
    const FrameScan scan = scan_frame(frame.data(), frame.size());
    ASSERT_EQ(scan.state, FrameScan::State::Ready);
    EXPECT_EQ(scan.header.request_id, 21u);
    EXPECT_EQ(scan.header.payload_size, 0u);
  }
  EXPECT_EQ(scan_frame(encode_ping_frame(1).data(),
                       encode_ping_frame(1).size())
                .header.kind,
            FrameKind::Ping);
  EXPECT_EQ(scan_frame(encode_pong_frame(1).data(),
                       encode_pong_frame(1).size())
                .header.kind,
            FrameKind::Pong);
}

TEST(ProtocolV2, HelloHandshakeRoundTripsAtV1Framing) {
  // Hello/HelloAck always travel with the v1 header: the handshake that
  // *selects* a version must be readable at every version.
  const auto hello = encode_hello_frame(31, 1, kProtocolVersion);
  const FrameScan scan = scan_frame(hello.data(), hello.size());
  ASSERT_EQ(scan.state, FrameScan::State::Ready);
  EXPECT_EQ(scan.header.version, 1u);
  EXPECT_EQ(scan.header.kind, FrameKind::Hello);
  const auto decoded = decode_hello_frame(hello.data(), hello.size());
  ASSERT_TRUE(decoded.ok()) << decoded.error.to_string();
  EXPECT_EQ(decoded.value->request_id, 31u);
  EXPECT_EQ(decoded.value->min_version, 1u);
  EXPECT_EQ(decoded.value->max_version, kProtocolVersion);

  const auto ack =
      encode_hello_ack_frame(31, service::Status::okay(), kProtocolVersion);
  const auto ack_decoded = decode_hello_ack_frame(ack.data(), ack.size());
  ASSERT_TRUE(ack_decoded.ok()) << ack_decoded.error.to_string();
  EXPECT_EQ(ack_decoded.value->request_id, 31u);
  EXPECT_TRUE(ack_decoded.value->status.ok());
  EXPECT_EQ(ack_decoded.value->agreed_version, kProtocolVersion);
}

TEST(ProtocolV2, NegotiateVersionPicksTheHighestCommonVersion) {
  EXPECT_EQ(negotiate_version(1, kProtocolVersion), kProtocolVersion);
  EXPECT_EQ(negotiate_version(1, 1), 1);  // old v1-only client
  EXPECT_EQ(negotiate_version(2, 2), 2);
  // A client entirely above what we speak cannot be served.
  EXPECT_EQ(negotiate_version(kProtocolVersion + 1, kProtocolVersion + 5),
            std::nullopt);
}

// ---------------------------------------------------------------------------
// Golden frames.  The exact bytes of every request type at every version
// that can carry it (and of the v2-only types at v1, which decoders must
// reject), every response payload alternative including none, every
// StatusCode and every control frame — plus the decode verdict of every
// truncation and of a fixed seeded set of single-bit flips of each.
// tests/data/wire_goldens.txt pins all of it; on a mismatch the test
// writes what this build produces to wire_goldens.actual.txt in the
// working directory, for review and (only for an intended format change)
// for copying over the data file.
//
// The inputs are built by hand, not computed by the engine, so a change
// to a kernel's answers never moves a golden frame.

arch::ArchitectureSpec golden_spec() {
  arch::ArchitectureSpec spec;
  spec.name = "GoldenArray";
  spec.citation = "[7]";
  spec.description = "array processor with a DP-DM crossbar";
  spec.year = 2012;
  spec.category = "CGRA";
  spec.granularity = Granularity::IpDp;
  spec.ips = arch::Count::fixed(1);
  spec.dps = arch::Count::scaled_symbolic(24, 'n');
  spec.at(ConnectivityRole::IpDp) = arch::ConnectivityExpr::direct(
      arch::Count::fixed(1), arch::Count::symbolic('n'));
  spec.at(ConnectivityRole::IpIm) = arch::ConnectivityExpr::direct(
      arch::Count::fixed(1), arch::Count::fixed(1));
  spec.at(ConnectivityRole::DpDm) = arch::ConnectivityExpr::crossbar(
      arch::Count::symbolic('n'), arch::Count::symbolic('m'));
  spec.at(ConnectivityRole::DpDp) = arch::ConnectivityExpr::crossbar(
      arch::Count::variable(), arch::Count::fixed(64));
  spec.paper_name = "IAP-II";
  spec.paper_flexibility = 4;
  return spec;
}

MachineClass golden_class() {
  MachineClass mc;
  mc.granularity = Granularity::IpDp;
  mc.ips = Multiplicity::Many;
  mc.dps = Multiplicity::Many;
  mc.set_switch(ConnectivityRole::IpDp, SwitchKind::Direct);
  mc.set_switch(ConnectivityRole::DpDm, SwitchKind::Crossbar);
  mc.set_switch(ConnectivityRole::DpDp, SwitchKind::Crossbar);
  return mc;
}

explore::SweepGrid golden_grid() {
  explore::SweepGrid grid;
  grid.base.min_flexibility = 2;
  grid.base.paradigm = MachineType::InstructionFlow;
  grid.base.needs_shared_memory = true;
  grid.n_values = {4, 16};
  grid.lut_budgets = {256};
  grid.objectives = {explore::Requirements::Objective::MinConfigBits,
                     explore::Requirements::Objective::MinArea};
  return grid;
}

fault::CurveSpec golden_curve_spec() {
  fault::CurveSpec spec;
  spec.machine = golden_class();
  spec.bindings.n = 4;
  spec.bindings.include_ip_dp_switch = true;
  spec.noc_width = 2;
  spec.noc_height = 2;
  spec.fault_rates = {0.0, 0.125};
  spec.trials_per_rate = 3;
  spec.seed = 42;
  return spec;
}

explore::SweepPoint golden_point(std::int64_t n, bool feasible) {
  explore::SweepPoint point;
  point.n = n;
  point.lut_budget = 256;
  point.objective = explore::Requirements::Objective::MinArea;
  point.feasible = feasible;
  if (feasible) {
    point.best = {MachineType::InstructionFlow, ProcessingType::ArrayProcessor,
                  2};
    point.flexibility = 3;
    point.area_kge = 12.5 * static_cast<double>(n);
    point.config_bits = 96 * n;
  }
  return point;
}

/// Every request golden: (name, request, lowest version that carries it).
std::vector<std::tuple<std::string, Request, std::uint16_t>>
golden_requests() {
  service::ClassifyRequest bare;
  bare.input = arch::ArchitectureSpec{};
  service::RecommendRequest recommend;
  recommend.requirements.min_flexibility = 3;
  recommend.requirements.paradigm = MachineType::DataFlow;
  recommend.requirements.needs_independent_programs = true;
  recommend.requirements.needs_pe_exchange = true;
  recommend.requirements.n = 32;
  recommend.requirements.lut_budget = 2048;
  recommend.requirements.objective =
      explore::Requirements::Objective::MinArea;
  recommend.top_k = 5;
  service::CostRequest cost_class;
  cost_class.target = golden_class();
  cost_class.options.n = 8;
  cost_class.options.include_ip_dp_switch = true;
  cost_class.n_sweep = {4, 8, 16};
  service::CostRequest cost_spec;
  cost_spec.target = golden_spec();
  cost_spec.options.v = 128;
  service::SweepChunkRequest sweep_chunk;
  sweep_chunk.grid = golden_grid();
  sweep_chunk.begin = 1;
  sweep_chunk.end = 3;
  service::FaultChunkRequest fault_chunk;
  fault_chunk.spec = golden_curve_spec();
  fault_chunk.begin = 2;
  fault_chunk.end = 5;
  service::SimulateRequest simulate_class;
  simulate_class.workload.kernel = workload::Kernel::Saxpy;
  simulate_class.workload.size = 64;
  simulate_class.workload.iterations = 1;
  simulate_class.workload.alpha = -5;
  simulate_class.target = golden_class();
  simulate_class.options.width = 4;
  simulate_class.options.max_cycles = 100000;
  // Added out of canonical order: the set sorts them.
  simulate_class.faults.add_noc_link(2, 1);
  simulate_class.faults.add(fault::FaultKind::DpDead, 3);
  simulate_class.faults.add_switch_port(ConnectivityRole::DpDm, 2);
  simulate_class.seed = 7;
  service::SimulateRequest simulate_spec;
  simulate_spec.target = golden_spec();
  simulate_spec.seed = 9;
  return {
      {"classify-spec", service::ClassifyRequest::of(golden_spec()), 1},
      {"classify-bare-spec", bare, 1},
      {"classify-adl",
       service::ClassifyRequest::of_adl("arch Golden {\n  ips: 1\n}\n"), 1},
      {"recommend", recommend, 1},
      {"recommend-defaults", service::RecommendRequest{}, 1},
      {"cost-class", cost_class, 1},
      {"cost-spec", cost_spec, 1},
      {"sweep", service::SweepRequest{golden_grid()}, 1},
      {"fault-sweep", service::FaultSweepRequest{golden_curve_spec()}, 1},
      {"sweep-chunk", sweep_chunk, 2},
      {"fault-chunk", fault_chunk, 2},
      {"simulate-class", simulate_class, 2},
      {"simulate-spec", simulate_spec, 2},
  };
}

/// Every response payload golden: (name, payload).
std::vector<
    std::pair<std::string, std::shared_ptr<const service::ResponsePayload>>>
golden_payloads() {
  using service::ResponsePayload;
  service::ClassifyResponse classify;
  classify.spec = golden_spec();
  classify.classification.name = TaxonomicName{
      MachineType::InstructionFlow, ProcessingType::ArrayProcessor, 2};
  classify.flexibility = {0, 1, 2, 0};
  service::RecommendResponse recommend;
  recommend.recommendations = {
      {{MachineType::DataFlow, ProcessingType::MultiProcessor, 3}, 4, 31.25,
       4096, "cheapest class with PE exchange"},
      {{MachineType::UniversalFlow, ProcessingType::SpatialProcessor, 0}, 8,
       0.1, 1 << 20, ""},
  };
  service::CostResponse cost;
  for (std::int64_t n : {4, 8}) {
    service::CostResponse::Point point;
    point.n = n;
    point.area.ip_blocks = 1.5 * static_cast<double>(n);
    point.area.dp_blocks = 2.25;
    point.area.dp_dm_switch = -0.0;
    point.area.n_ips = n;
    point.area.n_luts = 0;
    point.config_bits.ip_ip_switch = 7 * n;
    point.config_bits.dp_dp_switch = -1;
    cost.points.push_back(point);
  }
  service::SweepResponse sweep;
  sweep.result.points = {golden_point(4, true), golden_point(16, false),
                         golden_point(64, true)};
  sweep.result.pareto_front = {golden_point(4, true)};
  sweep.result.candidate_classes = 9;
  service::FaultSweepResponse fault_sweep;
  fault_sweep.result.spec = golden_curve_spec();
  fault_sweep.result.points = {{0.0, 3, 1.0, 1.0, 1.0, 1.0},
                               {0.125, 3, 2.0 / 3.0, 0.5, 0.75, 0.875}};
  service::SweepChunkResponse sweep_chunk;
  sweep_chunk.points = {golden_point(16, false), golden_point(64, true)};
  sweep_chunk.candidate_classes = 9;
  service::FaultChunkResponse fault_chunk;
  fault_chunk.outcomes = {{true, 3, 1.0, 1.0, 1.0},
                          {false, 0, 0.0, 0.25, 0.0},
                          {true, 2, 2.0 / 3.0, 0.75, 0.5}};
  service::SimulateResponse simulate;
  simulate.result.paradigm = workload::Paradigm::Multiprocessor;
  simulate.result.machine = {MachineType::InstructionFlow,
                             ProcessingType::MultiProcessor, 5};
  simulate.result.cycles = 1234;
  simulate.result.instructions = 5678;
  simulate.result.halted = true;
  simulate.result.output_words = 64;
  simulate.result.output_checksum = 0xDEADBEEFCAFEF00Dull;
  simulate.result.matches_reference = true;
  simulate.result.memory_accesses = 900;
  simulate.result.messages = 48;
  simulate.result.energy_pj = 1.0e6 / 3.0;
  simulate.result.noc_reachable_fraction = 0.75;
  const auto make = [](ResponsePayload payload) {
    return std::make_shared<const ResponsePayload>(std::move(payload));
  };
  return {
      {"none", nullptr},
      {"monostate", make(std::monostate{})},
      {"classify", make(classify)},
      {"recommend", make(recommend)},
      {"cost", make(cost)},
      {"sweep", make(sweep)},
      {"fault-sweep", make(fault_sweep)},
      {"sweep-chunk", make(sweep_chunk)},
      {"fault-chunk", make(fault_chunk)},
      {"simulate", make(simulate)},
  };
}

struct Golden {
  std::string name;
  std::vector<std::uint8_t> frame;
};

std::vector<Golden> golden_frames() {
  std::vector<Golden> out;
  for (const auto& [name, request, since] : golden_requests()) {
    // v2-only types are encoded at v1 too: decoders must reject them.
    (void)since;
    for (std::uint16_t version : {1, 2}) {
      out.push_back({"request/" + name + "/v" + std::to_string(version),
                     encode_request_frame(40 + out.size(), request, 250,
                                          version, 0)});
    }
  }
  const auto recommend = std::get<1>(golden_requests()[3]);
  out.push_back({"request/recommend/v2-traced-background",
                 encode_request_frame(7, recommend, 0, 2,
                                      0x0123456789ABCDEFull,
                                      qos::PriorityClass::Background)});

  // v2-only payloads are encoded at v1 too: decoders must reject them.
  for (const auto& [name, payload] : golden_payloads()) {
    for (std::uint16_t version : {1, 2}) {
      QueryResponse response;
      response.payload = payload;
      response.cache_hit = name == "sweep";
      response.latency = std::chrono::nanoseconds(1500 + out.size());
      out.push_back({"response/" + name + "/v" + std::to_string(version),
                     encode_response_frame(60 + out.size(), response, version,
                                           version >= 2 ? 0xABCDull : 0)});
    }
  }
  for (int code = 0; code <= static_cast<int>(service::StatusCode::Cancelled);
       ++code) {
    for (std::uint16_t version : {1, 2}) {
      QueryResponse response;
      response.status.code = static_cast<service::StatusCode>(code);
      response.status.message =
          code == 0 ? "" : "status " + std::to_string(code) + " detail";
      if (response.status.code == service::StatusCode::Overloaded) {
        response.status.retry_after_ms = 1500;
        response.sampled = true;
      }
      response.latency = std::chrono::nanoseconds(987654321);
      out.push_back({"response/status-" + std::to_string(code) + "/v" +
                         std::to_string(version),
                     encode_response_frame(90, response, version)});
    }
  }
  {
    QueryResponse sampled;
    sampled.payload = golden_payloads()[5].second;
    sampled.sampled = true;
    out.push_back({"response/sweep/v2-sampled",
                   encode_response_frame(91, sampled, 2)});
  }

  out.push_back({"ping", encode_ping_frame(5)});
  out.push_back({"pong", encode_pong_frame(5)});
  out.push_back({"hello/1-2", encode_hello_frame(6, 1, 2)});
  out.push_back({"hello/2-1", encode_hello_frame(6, 2, 1)});
  out.push_back({"hello-ack/ok",
                 encode_hello_ack_frame(6, service::Status::okay(), 2)});
  out.push_back({"hello-ack/unsupported",
                 encode_hello_ack_frame(
                     6, service::Status::unsupported_version("speaks 1..2"),
                     2)});
  out.push_back({"cancel", encode_cancel_frame(44, 0xFEEDull)});
  trace::SpanBatch batch;
  batch.node = "backend-0";
  batch.send_ns = 123456789;
  batch.dropped = 3;
  trace::ExportSpan span;
  span.name = "engine.execute";
  span.arg_name = "hit";
  span.arg = 1;
  span.id = 11;
  span.parent = 10;
  span.trace_id = 0xFEEDull;
  span.thread = 2;
  span.category = trace::Category::Execute;
  span.start_ns = 1000;
  span.dur_ns = 2500;
  batch.spans.push_back(span);
  span.name = "qos.shed";
  span.arg_name = "";
  span.arg = 0;
  span.id = 12;
  span.category = trace::Category::Qos;
  span.dur_ns = trace::Span::kInstant;
  batch.spans.push_back(span);
  out.push_back({"span-batch", encode_span_batch_frame(3, batch)});
  out.push_back({"span-batch/empty",
                 encode_span_batch_frame(4, trace::SpanBatch{})});
  return out;
}

/// Decode verdict of @p bytes read as a frame of @p kind: '.' for ok,
/// else the WireErrorCode digit.  Ping/Pong have no decoder; their
/// verdict is scan_frame's (a short or overlong buffer reads as
/// Truncated / TrailingData).
char golden_verdict(FrameKind kind, const std::vector<std::uint8_t>& bytes) {
  const auto of = [](const auto& result) {
    return result.ok() ? '.' : static_cast<char>('0' + static_cast<int>(
                                                         result.error.code));
  };
  const std::uint8_t* data = bytes.data();
  const std::size_t size = bytes.size();
  switch (kind) {
    case FrameKind::Request:
      return of(decode_request_frame(data, size));
    case FrameKind::Response:
      return of(decode_response_frame(data, size));
    case FrameKind::Hello:
      return of(decode_hello_frame(data, size));
    case FrameKind::HelloAck:
      return of(decode_hello_ack_frame(data, size));
    case FrameKind::SpanBatch:
      return of(decode_span_batch_frame(data, size));
    case FrameKind::CancelRequest:
      return of(decode_cancel_frame(data, size));
    case FrameKind::Ping:
    case FrameKind::Pong:
      break;
  }
  const FrameScan scan = scan_frame(data, size);
  if (scan.state == FrameScan::State::Bad) {
    return static_cast<char>('0' + static_cast<int>(scan.error.code));
  }
  if (scan.state == FrameScan::State::NeedMore) return '1';
  return scan.frame_size == size ? '.' : '7';
}

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += digits[b >> 4];
    out += digits[b & 15];
  }
  return out;
}

/// The four golden lines of one frame: its bytes, the verdict of every
/// raw prefix, of every payload truncation (header length patched to
/// match, so the payload decoder itself meets the short input) and of
/// 64 seeded single-bit flips.
std::string golden_record(const Golden& golden) {
  const std::vector<std::uint8_t>& frame = golden.frame;
  const FrameScan scan = scan_frame(frame.data(), frame.size());
  EXPECT_EQ(scan.state, FrameScan::State::Ready) << golden.name;
  const FrameKind kind = scan.header.kind;
  const std::size_t header = header_size(scan.header.version);

  std::string prefixes;
  for (std::size_t len = 0; len < frame.size(); ++len) {
    prefixes += golden_verdict(
        kind, std::vector<std::uint8_t>(frame.begin(), frame.begin() + len));
  }
  std::string payloads;
  for (std::size_t len = 0; len < scan.header.payload_size; ++len) {
    std::vector<std::uint8_t> cut(frame.begin(),
                                  frame.begin() + header + len);
    const auto announced = static_cast<std::uint32_t>(len);
    for (int i = 0; i < 4; ++i) {
      cut[16 + i] = static_cast<std::uint8_t>(announced >> (8 * i));
    }
    payloads += golden_verdict(kind, cut);
  }
  // splitmix64 seeded from the name (FNV-1a), so adding a golden never
  // moves another golden's flips.
  std::uint64_t state = 0xcbf29ce484222325ull;
  for (const char c : golden.name) {
    state = (state ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  std::string flips;
  for (int i = 0; i < 64; ++i) {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    const std::size_t bit = z % (frame.size() * 8);
    std::vector<std::uint8_t> flipped = frame;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    flips += golden_verdict(kind, flipped);
  }
  return "frame " + golden.name + " " + hex(frame) + "\nprefix " + prefixes +
         "\npayload " + payloads + "\nflips " + flips + "\n";
}

TEST(WireGolden, FramesAndDecodeVerdictsMatchTheCheckedInGoldens) {
  const std::string path =
      std::string(MPCT_TEST_DATA_DIR) + "/wire_goldens.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "cannot open " << path;
  // Records keyed by frame name; '#' lines are comments.
  std::map<std::string, std::string> expected;
  std::string line;
  std::string current;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("frame ", 0) == 0) {
      current = line.substr(6, line.find(' ', 6) - 6);
    }
    expected[current] += line + "\n";
  }

  std::string actual =
      "# Golden wire frames and decode verdicts; see tests/test_wire.cpp.\n"
      "# Verdicts: '.' = ok, digit = WireErrorCode.\n";
  std::size_t mismatches = 0;
  std::size_t matched = 0;
  for (const Golden& golden : golden_frames()) {
    const std::string record = golden_record(golden);
    actual += record;
    const auto it = expected.find(golden.name);
    if (it == expected.end()) {
      ADD_FAILURE() << "no golden for " << golden.name;
      ++mismatches;
      continue;
    }
    ++matched;
    if (it->second != record) {
      ADD_FAILURE() << "golden mismatch for " << golden.name << "\nexpected:\n"
                    << it->second << "actual:\n"
                    << record;
      ++mismatches;
    }
  }
  EXPECT_EQ(matched, expected.size()) << "the data file has stale goldens";
  if (mismatches > 0 || matched != expected.size()) {
    std::ofstream("wire_goldens.actual.txt") << actual;
  }
}

TEST(RequestRoundTrip, EveryGoldenRequestDecodesEqualAtEveryVersion) {
  for (const auto& [name, request, since] : golden_requests()) {
    for (std::uint16_t version = since; version <= kProtocolVersion;
         ++version) {
      const auto frame = encode_request_frame(1, request, 0, version);
      const auto decoded = decode_request_frame(frame.data(), frame.size());
      ASSERT_TRUE(decoded.ok()) << name << ": " << decoded.error.to_string();
      EXPECT_TRUE(decoded.value->request == request) << name;
    }
  }
}

TEST(Fingerprint, OneRequestTypeKeysLikeTheWrappedRequest) {
  // The grid path keys a bare SweepRequest / FaultSweepRequest; it must
  // land on the same cache entry as the same request inside a Request.
  for (const auto& [name, request, since] : golden_requests()) {
    (void)since;
    const service::Fingerprint bare = std::visit(
        [](const auto& alternative) {
          return service::fingerprint(alternative);
        },
        request);
    EXPECT_EQ(bare, service::fingerprint(request)) << name;
  }
}

}  // namespace
