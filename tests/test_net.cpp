/// End-to-end tests of the TCP transport (src/net) over loopback: every
/// request type served over the wire is bit-for-bit equal to the inline
/// QueryEngine result, pipelined responses complete out of order keyed
/// by request id, deadlines travel on the wire and expire as typed
/// responses, backpressure surfaces as QueueFull frames, malformed
/// payloads as ProtocolError frames, and graceful shutdown drains
/// mid-traffic.  The multi-threaded cases run under TSan in CI.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "arch/registry.hpp"
#include "net/net.hpp"
#include "net/trace_stream.hpp"
#include "service/service.hpp"
#include "trace/collector.hpp"
#include "trace/trace.hpp"
#include "wire/wire.hpp"

namespace {

using namespace mpct;
using service::Request;
using service::QueryResponse;
using service::StatusCode;

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
  req.requirements.needs_pe_exchange = true;
  req.top_k = 5;
  return req;
}

Request cost_request() {
  service::CostRequest req;
  req.target = arch::surveyed_architectures()[4];
  req.n_sweep = {4, 8, 16};
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

std::vector<Request> all_requests() {
  std::vector<Request> requests;
  requests.push_back(classify_spec_request());
  requests.push_back(classify_adl_request());
  requests.push_back(recommend_request());
  requests.push_back(cost_request());
  requests.push_back(sweep_request());
  requests.push_back(fault_sweep_request());
  return requests;
}

net::ClientOptions client_options(std::uint16_t port,
                                  service::MetricsRegistry* metrics =
                                      nullptr) {
  net::ClientOptions options;
  options.port = port;
  options.metrics = metrics;
  return options;
}

/// Bit-for-bit response parity: payload and status must match exactly;
/// latency / cache_hit are measurements, not results.
void expect_payload_parity(const QueryResponse& wire,
                           const QueryResponse& inline_ref) {
  EXPECT_EQ(wire.status, inline_ref.status);
  ASSERT_EQ(wire.payload == nullptr, inline_ref.payload == nullptr);
  if (wire.payload) {
    EXPECT_TRUE(*wire.payload == *inline_ref.payload);
  }
}

/// Raw frame exchange for tests that need byte-level control: write
/// @p out, then read until one complete frame arrives (or ~2 s pass).
/// Empty result = connection closed / timed out.
std::vector<std::uint8_t> raw_exchange(std::uint16_t port,
                                       const std::vector<std::uint8_t>& out,
                                       bool expect_reply = true) {
  std::string error;
  net::Socket sock = net::connect_tcp("127.0.0.1", port, 2000, error);
  if (!sock.valid()) return {};
  std::size_t sent = 0;
  std::vector<std::uint8_t> in;
  for (int rounds = 0; rounds < 200; ++rounds) {
    pollfd pfd{sock.fd(), POLLIN, 0};
    if (sent < out.size()) pfd.events |= POLLOUT;
    ::poll(&pfd, 1, 50);
    if ((pfd.revents & POLLOUT) && sent < out.size()) {
      const ssize_t n = ::send(sock.fd(), out.data() + sent,
                               out.size() - sent, MSG_NOSIGNAL);
      if (n > 0) sent += static_cast<std::size_t>(n);
    }
    if (pfd.revents & (POLLIN | POLLHUP | POLLERR)) {
      std::uint8_t buf[4096];
      const ssize_t n = ::recv(sock.fd(), buf, sizeof(buf), 0);
      if (n <= 0) return {};  // closed
      in.insert(in.end(), buf, buf + n);
      const wire::FrameScan scan = wire::scan_frame(in.data(), in.size());
      if (scan.state == wire::FrameScan::State::Ready) {
        in.resize(scan.frame_size);
        return in;
      }
    }
    if (!expect_reply && sent == out.size()) return in;
  }
  return {};
}

// ---------------------------------------------------------------------------

TEST(NetServer, EveryRequestTypeServedOverLoopbackMatchesInline) {
  service::EngineOptions options;
  options.worker_threads = 2;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  // The reference engine is configured identically; responses are pure
  // functions of (request, component library), so the payloads must be
  // bit-identical however many threads and sockets sit in between.
  service::EngineOptions ref_options;
  ref_options.worker_threads = 0;
  service::QueryEngine reference(ref_options);

  net::Client client(client_options(server.port()));
  for (const Request& request : all_requests()) {
    const QueryResponse wire_response = client.call(request);
    const QueryResponse inline_response = reference.execute(request);
    ASSERT_TRUE(wire_response.ok())
        << wire_response.status.to_string();
    expect_payload_parity(wire_response, inline_response);
  }
  server.stop();
  EXPECT_GE(engine.metrics().net_frames_in.value(), 6u);
  EXPECT_GE(engine.metrics().net_frames_out.value(), 6u);
  EXPECT_GT(engine.metrics().net_bytes_in.value(), 0u);
  EXPECT_GT(engine.metrics().net_bytes_out.value(), 0u);
  EXPECT_EQ(engine.metrics().net_connections_opened.value(), 1u);
}

TEST(NetServer, PipelinedBatchCompletesOutOfOrderByRequestId) {
  service::EngineOptions options;
  options.worker_threads = 4;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  // One slow Monte-Carlo sweep pipelined ahead of many fast classifies:
  // workers finish the classifies first, so the server writes their
  // responses before the sweep's — the client must reassemble by id.
  std::vector<Request> batch;
  batch.push_back(fault_sweep_request());
  const auto& specs = arch::surveyed_architectures();
  for (std::size_t i = 0; i < 8; ++i) {
    batch.push_back(service::ClassifyRequest::of(specs[i % specs.size()]));
  }

  service::EngineOptions ref_options;
  ref_options.worker_threads = 0;
  service::QueryEngine reference(ref_options);

  net::Client client(client_options(server.port()));
  const auto responses = client.call_batch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(responses[i].ok()) << i << ": "
                                   << responses[i].status.to_string();
    expect_payload_parity(responses[i], reference.execute(batch[i]));
  }
}

TEST(NetServer, WireDeadlineExpiresAsTypedResponse) {
  // Workers deliberately not started: the request must age out in the
  // queue, and the 1 ms deadline that travelled on the wire must come
  // back as a DeadlineExceeded *response*, not a hang or a cut stream.
  service::EngineOptions options;
  options.worker_threads = 1;
  options.start_workers = false;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  const auto frame =
      wire::encode_request_frame(7, classify_spec_request(), 1 /*ms*/);
  std::thread starter([&engine] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    engine.start();
  });
  const auto reply = raw_exchange(server.port(), frame);
  starter.join();
  ASSERT_FALSE(reply.empty());
  const auto decoded = wire::decode_response_frame(reply.data(), reply.size());
  ASSERT_TRUE(decoded.ok()) << decoded.error.to_string();
  EXPECT_EQ(decoded.value->request_id, 7u);
  EXPECT_EQ(decoded.value->response.status.code,
            StatusCode::DeadlineExceeded);
}

TEST(NetServer, BackpressureSurfacesAsQueueFullFrames) {
  // queue_capacity 1 with parked workers: of a pipelined burst, exactly
  // one request is queued and the rest must bounce as typed QueueFull
  // responses on the wire — never silent drops, never blocked reads.
  service::EngineOptions options;
  options.worker_threads = 1;
  options.queue_capacity = 1;
  options.start_workers = false;
  options.enable_cache = false;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  const auto& specs = arch::surveyed_architectures();
  std::vector<Request> batch;
  for (std::size_t i = 0; i < 6; ++i) {
    batch.push_back(service::ClassifyRequest::of(specs[i]));
  }
  std::thread starter([&engine] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    engine.start();
  });
  net::Client client(client_options(server.port()));
  const auto responses = client.call_batch(batch);
  starter.join();

  ASSERT_EQ(responses.size(), batch.size());
  std::size_t ok = 0;
  std::size_t queue_full = 0;
  for (const auto& response : responses) {
    if (response.ok()) ++ok;
    if (response.status.code == StatusCode::QueueFull) ++queue_full;
  }
  EXPECT_EQ(ok + queue_full, batch.size());
  EXPECT_GE(ok, 1u);
  EXPECT_GE(queue_full, 1u);
}

TEST(NetServer, MalformedPayloadGetsProtocolErrorAndStreamSurvives) {
  service::EngineOptions options;
  options.worker_threads = 1;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  // Well-framed garbage: valid header, payload of 0xFF.  The server
  // must answer ProtocolError (keyed by our id), not kill the stream.
  auto bad = wire::encode_request_frame(55, classify_spec_request());
  for (std::size_t i = wire::kHeaderSize; i < bad.size(); ++i) bad[i] = 0xFF;
  auto reply = raw_exchange(server.port(), bad);
  ASSERT_FALSE(reply.empty());
  auto decoded = wire::decode_response_frame(reply.data(), reply.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value->request_id, 55u);
  EXPECT_EQ(decoded.value->response.status.code, StatusCode::ProtocolError);
  EXPECT_GE(engine.metrics().net_decode_errors.value(), 1u);

  // A broken *header* is different: framing is unrecoverable, so the
  // server closes the connection instead of answering.
  std::vector<std::uint8_t> junk(64, 'J');
  EXPECT_TRUE(raw_exchange(server.port(), junk).empty());
}

TEST(NetServer, GracefulStopDrainsMidTraffic) {
  service::EngineOptions options;
  options.worker_threads = 2;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  std::atomic<bool> done{false};
  std::atomic<int> answered{0};
  std::thread traffic([&] {
    net::ClientOptions copts = client_options(server.port());
    copts.max_retries = 0;  // a cut connection at stop() is expected
    net::Client client(copts);
    const auto& specs = arch::surveyed_architectures();
    std::size_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      const QueryResponse response =
          client.call(service::ClassifyRequest::of(specs[i++ % specs.size()]));
      // Every outcome must be typed: a real answer while the server is
      // up, Unavailable once it went away — never a hang or a crash.
      if (response.ok()) {
        answered.fetch_add(1, std::memory_order_relaxed);
      } else {
        EXPECT_EQ(response.status.code, StatusCode::Unavailable);
      }
    }
  });

  // Let some traffic flow, then stop mid-stream.
  while (answered.load(std::memory_order_acquire) < 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.stop();
  done.store(true, std::memory_order_release);
  traffic.join();
  EXPECT_GE(answered.load(), 5);
  EXPECT_FALSE(server.running());
  EXPECT_EQ(engine.metrics().net_active_connections.value(), 0);
}

TEST(NetClient, UnreachableServerYieldsUnavailableAfterRetries) {
  // Grab an ephemeral port, then close the listener: nobody is home.
  service::EngineOptions eopts;
  eopts.worker_threads = 0;
  service::QueryEngine probe_engine(eopts);
  std::uint16_t dead_port = 0;
  {
    net::Server probe(probe_engine);
    ASSERT_TRUE(probe.start());
    dead_port = probe.port();
    probe.stop();
  }

  service::MetricsRegistry metrics;
  net::ClientOptions options = client_options(dead_port, &metrics);
  options.max_retries = 2;
  options.initial_backoff = std::chrono::milliseconds(1);
  options.connect_timeout = std::chrono::milliseconds(200);
  net::Client client(options);
  const QueryResponse response = client.call(classify_spec_request());
  EXPECT_EQ(response.status.code, StatusCode::Unavailable);
  EXPECT_FALSE(response.status.message.empty());
  EXPECT_EQ(metrics.net_retries.value(), 2u);
  // Retries re-send the *same* logical request: it is counted once, not
  // once per wire attempt (hedges would tick net_hedges_sent instead).
  EXPECT_EQ(metrics.net_requests_sent.value(), 1u);
  EXPECT_EQ(metrics.net_hedges_sent.value(), 0u);
}

TEST(NetClient, RequestAccountingCountsLogicalRequestsOnce) {
  service::EngineOptions options;
  options.worker_threads = 2;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  service::MetricsRegistry metrics;
  net::Client client(client_options(server.port(), &metrics));
  const auto responses = client.call_batch(all_requests());
  for (const auto& response : responses) ASSERT_TRUE(response.ok());
  EXPECT_EQ(metrics.net_requests_sent.value(), all_requests().size());
  EXPECT_EQ(metrics.net_retries.value(), 0u);
  EXPECT_EQ(metrics.net_hedges_sent.value(), 0u);
}

// ---------------------------------------------------------------------------
// Protocol version negotiation (wire v2)

TEST(NetVersion, NegotiateAgreesOnTheHighestCommonVersion) {
  service::EngineOptions options;
  options.worker_threads = 1;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  net::Client client(client_options(server.port()));
  const auto status = client.negotiate();
  ASSERT_TRUE(status.ok()) << status.to_string();
  EXPECT_EQ(client.agreed_version(), wire::kProtocolVersion);
  // The negotiated connection still serves traffic.
  EXPECT_TRUE(client.call(classify_spec_request()).ok());
}

TEST(NetVersion, OldV1ClientIsStillServed) {
  service::EngineOptions options;
  options.worker_threads = 2;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  service::EngineOptions ref_options;
  ref_options.worker_threads = 0;
  service::QueryEngine reference(ref_options);

  // A client pinned to protocol v1 (an old binary): every request frame
  // goes out with the short header, and the server must answer each at
  // v1 — bit-identical payloads, no version bleed.
  net::ClientOptions copts = client_options(server.port());
  copts.protocol_version = 1;
  net::Client v1_client(copts);
  const auto status = v1_client.negotiate();
  ASSERT_TRUE(status.ok()) << status.to_string();
  EXPECT_EQ(v1_client.agreed_version(), 1u);
  for (const Request& request : all_requests()) {
    const QueryResponse wire_response = v1_client.call(request);
    ASSERT_TRUE(wire_response.ok()) << wire_response.status.to_string();
    expect_payload_parity(wire_response, reference.execute(request));
  }
}

TEST(NetVersion, ImpossibleRangeGetsTypedUnsupportedVersion) {
  service::EngineOptions options;
  options.worker_threads = 1;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  // A future client speaking only versions we do not: the server must
  // answer a typed UnsupportedVersion HelloAck, not cut the stream.
  const auto hello = wire::encode_hello_frame(4, 99, 104);
  const auto reply = raw_exchange(server.port(), hello);
  ASSERT_FALSE(reply.empty());
  const auto ack = wire::decode_hello_ack_frame(reply.data(), reply.size());
  ASSERT_TRUE(ack.ok()) << ack.error.to_string();
  EXPECT_EQ(ack.value->request_id, 4u);
  EXPECT_EQ(ack.value->status.code, StatusCode::UnsupportedVersion);
}

TEST(NetVersion, PingPongRoundTrips) {
  service::EngineOptions options;
  options.worker_threads = 0;  // pings never touch the engine
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  net::Client client(client_options(server.port()));
  std::string error;
  EXPECT_TRUE(client.ping(std::chrono::milliseconds(2000), error)) << error;
}

// ---------------------------------------------------------------------------
// Streaming flight-recorder export (net::TraceStreamer -> span_sink)

/// The Tracer is process-wide; these tests bracket themselves with a
/// full reset so earlier suites' buffers contribute nothing.
void reset_tracer() {
  trace::Tracer::instance().disable();
  trace::Tracer::instance().set_capacity_per_thread(
      trace::Tracer::kDefaultCapacity);
  trace::Tracer::instance().clear();
}

/// End-to-end assembly parity: spans recorded in-process must arrive at
/// the collector over the wire bit-identical to the inline snapshot
/// view of the same trace.  Runs under TSan in CI.
TEST(NetTrace, StreamerShipsSpansToTheCollectorWithParity) {
  reset_tracer();
  service::EngineOptions eopts;
  eopts.worker_threads = 0;
  service::QueryEngine engine(eopts);

  trace::Collector collector;
  std::mutex received_mutex;
  std::vector<trace::ExportSpan> received;
  net::ServerOptions sopts;
  sopts.span_sink = [&](wire::SpanBatchFrame frame) {
    std::lock_guard<std::mutex> lock(received_mutex);
    collector.ingest(frame.batch, trace::Tracer::instance().now_ns());
    for (const trace::ExportSpan& span : frame.batch.spans) {
      received.push_back(span);
    }
  };
  net::Server server(engine, sopts);
  ASSERT_TRUE(server.start()) << server.error();

  constexpr std::uint64_t kTrace = 0x7ace;
  trace::Tracer::instance().enable();
  {
    trace::TraceContextScope context(kTrace);
    {
      trace::ScopedSpan a("parity.a", trace::Category::Core, "i", 1);
      trace::ScopedSpan b("parity.b", trace::Category::Cost);
    }
    trace::emit_instant("parity.mark", trace::Category::Mark);
  }
  // Inline reference BEFORE the streamer runs: snapshot() does not move
  // the export cursor, so the streamer still ships the same spans.
  std::vector<trace::ExportSpan> expected;
  for (const trace::Span& span : trace::Tracer::instance().snapshot().spans) {
    if (span.trace_id == kTrace) {
      expected.push_back(trace::ExportSpan::of(span));
    }
  }
  ASSERT_EQ(expected.size(), 3u);

  net::TraceStreamerOptions topts;
  topts.port = server.port();
  topts.node = "parity-node";
  topts.interval = std::chrono::milliseconds(5);
  net::TraceStreamer streamer(topts);
  ASSERT_TRUE(streamer.start()) << streamer.error();

  // Wait for the wire copies (the enabled tracer also records server
  // loop spans with trace id 0 — the filter below ignores them).
  std::vector<trace::ExportSpan> wire_spans;
  for (int round = 0; round < 400; ++round) {
    {
      std::lock_guard<std::mutex> lock(received_mutex);
      wire_spans.clear();
      for (const trace::ExportSpan& span : received) {
        if (span.trace_id == kTrace) wire_spans.push_back(span);
      }
    }
    if (wire_spans.size() >= expected.size()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  streamer.stop();
  server.stop();
  trace::Tracer::instance().disable();

  const auto by_id = [](const trace::ExportSpan& a,
                        const trace::ExportSpan& b) { return a.id < b.id; };
  std::sort(wire_spans.begin(), wire_spans.end(), by_id);
  std::sort(expected.begin(), expected.end(), by_id);
  EXPECT_EQ(wire_spans, expected);  // bit-for-bit across the wire

  EXPECT_EQ(streamer.spans_dropped(), 0u);
  EXPECT_EQ(streamer.spans_sampled_out(), 0u);
  EXPECT_GE(streamer.batches_sent(), 1u);
  EXPECT_GE(collector.stats().batches, 1u);
  EXPECT_EQ(collector.node_count(kTrace), 1u);
  const std::string timeline = collector.assemble(kTrace);
  EXPECT_NE(timeline.find("parity.a"), std::string::npos);
  EXPECT_NE(timeline.find("\"name\":\"parity-node\""), std::string::npos);
  reset_tracer();
}

/// Drop accounting under a stalled collector: a listener that never
/// accepts cannot empty the outbox, so once the back-pressure bound is
/// hit every batch is shed whole and counted — memory stays bounded and
/// the hot path never blocks.
TEST(NetTrace, StalledCollectorShedsBatchesAndCountsEveryDrop) {
  reset_tracer();
  // A raw listener nobody ever accepts from: the streamer's connect
  // succeeds (kernel backlog) but nothing drains the pipe.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);

  service::MetricsRegistry metrics;
  net::TraceStreamerOptions topts;
  topts.port = ntohs(addr.sin_port);
  topts.node = "stalled";
  topts.interval = std::chrono::milliseconds(2);
  // A bound smaller than any span-bearing frame: every non-empty batch
  // sheds deterministically, whatever the kernel buffers absorb.
  topts.max_outbox_bytes = 256;
  topts.metrics = &metrics;
  net::TraceStreamer streamer(topts);
  ASSERT_TRUE(streamer.start()) << streamer.error();

  trace::Tracer::instance().enable();
  constexpr int kRounds = 20;
  constexpr int kPerRound = 1024;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kPerRound; ++i) {
      trace::ScopedSpan span("stall.span", trace::Category::Core);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  trace::Tracer::instance().disable();
  streamer.stop();  // final pump drains whatever the rings still hold

  // Every recorded span is accounted for exactly once — exported (a
  // rare tiny batch can slip under the bound), shed with its batch, or
  // lost to ring wrap — never silently vanished.
  EXPECT_GT(streamer.spans_dropped(), 0u);
  EXPECT_GT(streamer.batches_dropped(), 0u);
  EXPECT_EQ(streamer.spans_exported() + streamer.spans_dropped(),
            static_cast<std::uint64_t>(kRounds * kPerRound));
  EXPECT_EQ(streamer.spans_sampled_out(), 0u);
  // The Prometheus mirror carries the same totals.
  EXPECT_EQ(metrics.trace_spans_dropped.value(), streamer.spans_dropped());
  EXPECT_EQ(metrics.trace_batches_dropped.value(),
            streamer.batches_dropped());
  ::close(listener);
  reset_tracer();
}

TEST(NetClient, DeadlineAlreadyExpiredShortCircuitsLocally) {
  service::EngineOptions options;
  options.worker_threads = 0;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  net::Client client(client_options(server.port()));
  const QueryResponse response = client.call(
      classify_spec_request(),
      service::Deadline::at_time(service::Clock::now() -
                                 std::chrono::seconds(1)));
  EXPECT_EQ(response.status.code, StatusCode::DeadlineExceeded);
  // Nothing was sent: the server saw no frames from this client.
  EXPECT_EQ(engine.metrics().net_frames_in.value(), 0u);
}

TEST(NetClient, SynchronousCallLeavesAPendingPrimitiveAnswerInPlace) {
  // An inline engine answers in arrival order, so the pending answer
  // reaches the socket before the synchronous one.
  service::EngineOptions options;
  options.worker_threads = 0;
  service::QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();
  service::QueryEngine reference(options);

  net::Client client(client_options(server.port()));
  std::string error;
  std::uint64_t id = 0;
  ASSERT_TRUE(client.send_request(recommend_request(),
                                  service::Deadline::never(), 0, id, error))
      << error;
  const QueryResponse sync = client.call(cost_request());
  ASSERT_TRUE(sync.ok()) << sync.status.to_string();
  expect_payload_parity(sync, reference.execute(cost_request()));

  QueryResponse pending;
  bool taken = false;
  const auto give_up = service::Clock::now() + std::chrono::seconds(5);
  while (!(taken = client.take_response(id, pending)) &&
         service::Clock::now() < give_up) {
    ASSERT_GE(client.pump(std::chrono::milliseconds(10), error), 0) << error;
  }
  ASSERT_TRUE(taken) << "the synchronous call swallowed the pending answer";
  ASSERT_TRUE(pending.ok()) << pending.status.to_string();
  expect_payload_parity(pending, reference.execute(recommend_request()));
}

}  // namespace
