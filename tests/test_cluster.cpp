/// Fleet tier (src/cluster) over loopback: consistent-hash routing is
/// deterministic and balanced, identical requests hit the same server's
/// cache, dead endpoints fail over with zero failed requests, hedged
/// retries win against a stalled backend and cancel the loser, Suspect
/// endpoints recover through pings, and the combining proxy's merged
/// sweep responses are bit-identical to a single server's.  The
/// multi-threaded cases run under TSan in CI.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "arch/registry.hpp"
#include "cluster/cluster.hpp"
#include "net/net.hpp"
#include "service/service.hpp"
#include "trace/trace.hpp"
#include "wire/wire.hpp"

namespace {

using namespace mpct;
using cluster::ClusterClient;
using cluster::ClusterOptions;
using cluster::CombiningProxy;
using cluster::Endpoint;
using cluster::HashRing;
using cluster::HealthState;
using cluster::HealthTracker;
using service::Request;
using service::QueryResponse;
using service::StatusCode;

Request classify_request(std::size_t i) {
  const auto& specs = arch::surveyed_architectures();
  return service::ClassifyRequest::of(specs[i % specs.size()]);
}

/// Unbounded family of distinct request fingerprints (ring keys), for
/// tests that need many keys spread across the fleet.
Request diverse_request(std::size_t i) {
  service::CostRequest req;
  req.target = arch::surveyed_architectures()
      [i % arch::surveyed_architectures().size()];
  req.options.n = static_cast<std::int64_t>(1 + i);
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
  req.spec.fault_rates = {0.0, 0.1, 0.25};
  req.spec.trials_per_rate = 6;
  req.spec.seed = 42;
  return req;
}

void expect_payload_parity(const QueryResponse& fleet,
                           const QueryResponse& inline_ref) {
  EXPECT_EQ(fleet.status, inline_ref.status);
  ASSERT_EQ(fleet.payload == nullptr, inline_ref.payload == nullptr);
  if (fleet.payload) {
    EXPECT_TRUE(*fleet.payload == *inline_ref.payload);
  }
}

/// A small backend fleet: N engine+server pairs on ephemeral ports.
class Fleet {
 public:
  explicit Fleet(std::size_t n, std::size_t worker_threads = 2) {
    for (std::size_t i = 0; i < n; ++i) {
      service::EngineOptions options;
      options.worker_threads = worker_threads;
      engines_.push_back(std::make_unique<service::QueryEngine>(options));
      servers_.push_back(std::make_unique<net::Server>(*engines_.back()));
      EXPECT_TRUE(servers_.back()->start()) << servers_.back()->error();
      endpoints_.push_back({"127.0.0.1", servers_.back()->port()});
    }
  }

  const std::vector<Endpoint>& endpoints() const { return endpoints_; }
  service::QueryEngine& engine(std::size_t i) { return *engines_[i]; }
  net::Server& server(std::size_t i) { return *servers_[i]; }
  void kill(std::size_t i) { servers_[i]->stop(); }

 private:
  std::vector<std::unique_ptr<service::QueryEngine>> engines_;
  std::vector<std::unique_ptr<net::Server>> servers_;
  std::vector<Endpoint> endpoints_;
};

ClusterOptions cluster_options(const std::vector<Endpoint>& endpoints,
                               service::MetricsRegistry* metrics = nullptr) {
  ClusterOptions options;
  options.endpoints = endpoints;
  options.metrics = metrics;
  options.connect_timeout = std::chrono::milliseconds(2000);
  options.io_timeout = std::chrono::milliseconds(10000);
  return options;
}

/// A backend that negotiates and answers pings but never answers a
/// request — a stalled-but-alive server, the case hedging exists for.
class MuteServer {
 public:
  MuteServer() {
    std::string error;
    listener_ = net::listen_tcp("127.0.0.1", 0, port_, error);
    EXPECT_TRUE(listener_.valid()) << error;
    thread_ = std::thread([this] { loop(); });
  }

  ~MuteServer() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  std::uint16_t port() const { return port_; }

 private:
  void loop() {
    std::vector<net::Socket> conns;
    std::vector<std::vector<std::uint8_t>> buffers;
    while (!stop_.load(std::memory_order_acquire)) {
      const int accepted = ::accept(listener_.fd(), nullptr, nullptr);
      if (accepted >= 0) {
        net::set_nonblocking(accepted);
        conns.emplace_back(accepted);
        buffers.emplace_back();
      }
      for (std::size_t c = 0; c < conns.size(); ++c) {
        std::uint8_t chunk[4096];
        const ssize_t n = ::recv(conns[c].fd(), chunk, sizeof(chunk), 0);
        if (n <= 0) continue;
        auto& in = buffers[c];
        in.insert(in.end(), chunk, chunk + n);
        std::size_t offset = 0;
        while (offset < in.size()) {
          const wire::FrameScan scan =
              wire::scan_frame(in.data() + offset, in.size() - offset);
          if (scan.state != wire::FrameScan::State::Ready) break;
          std::vector<std::uint8_t> reply;
          if (scan.header.kind == wire::FrameKind::Hello) {
            const auto hello =
                wire::decode_hello_frame(in.data() + offset, scan.frame_size);
            if (hello.ok()) {
              const auto agreed = wire::negotiate_version(
                  hello.value->min_version, hello.value->max_version);
              reply = wire::encode_hello_ack_frame(
                  scan.header.request_id, service::Status::okay(),
                  agreed.value_or(wire::kProtocolVersion));
            }
          } else if (scan.header.kind == wire::FrameKind::Ping) {
            reply = wire::encode_pong_frame(scan.header.request_id);
          }
          // Requests: swallowed.  That is the point.
          if (!reply.empty()) {
            std::size_t sent = 0;
            while (sent < reply.size()) {
              const ssize_t w = ::send(conns[c].fd(), reply.data() + sent,
                                       reply.size() - sent, MSG_NOSIGNAL);
              if (w > 0) {
                sent += static_cast<std::size_t>(w);
              } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
                break;
              }
            }
          }
          offset += scan.frame_size;
        }
        in.erase(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(offset));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  net::Socket listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

service::EngineOptions inline_engine_options() {
  service::EngineOptions options;
  options.worker_threads = 0;
  return options;
}

/// A handler-mode backend with a scripted misbehaviour: every request
/// is answered by an inline engine, after @p tamper (when set) rewrites
/// the response; while holding, requests are parked until release().
class ScriptedBackend {
 public:
  using Tamper = std::function<void(const Request&, QueryResponse&)>;

  explicit ScriptedBackend(Tamper tamper = nullptr, bool hold = false)
      : tamper_(std::move(tamper)),
        hold_(hold),
        server_(
            [this](Request request, service::Deadline,
                   const net::Server::RequestContext&,
                   service::QueryEngine::ResponseCallback callback) {
              {
                std::lock_guard<std::mutex> lock(mutex_);
                if (hold_) {
                  held_.emplace_back(std::move(request), std::move(callback));
                  return;
                }
              }
              answer(request, callback);
            },
            metrics_) {
    EXPECT_TRUE(server_.start()) << server_.error();
  }

  ~ScriptedBackend() {
    release();
    server_.stop();
  }

  std::uint16_t port() const { return server_.port(); }

  std::size_t held() {
    std::lock_guard<std::mutex> lock(mutex_);
    return held_.size();
  }

  /// Answer every parked request and stop holding.
  void release() {
    std::vector<std::pair<Request, service::QueryEngine::ResponseCallback>>
        parked;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      hold_ = false;
      parked.swap(held_);
    }
    for (auto& [request, callback] : parked) answer(request, callback);
  }

 private:
  void answer(const Request& request,
              const service::QueryEngine::ResponseCallback& callback) {
    QueryResponse response = engine_.execute(request);
    if (tamper_) tamper_(request, response);
    callback(std::move(response));
  }

  Tamper tamper_;
  std::mutex mutex_;
  bool hold_;
  std::vector<std::pair<Request, service::QueryEngine::ResponseCallback>>
      held_;
  service::QueryEngine engine_{inline_engine_options()};
  service::MetricsRegistry metrics_;
  net::Server server_;
};

// ---------------------------------------------------------------------------
// Ring

TEST(HashRingTest, PlacementIsDeterministicAndOrderedCoversEveryEndpoint) {
  std::vector<Endpoint> endpoints;
  for (std::uint16_t i = 0; i < 4; ++i) {
    endpoints.push_back({"10.0.0." + std::to_string(i + 1),
                         static_cast<std::uint16_t>(9000 + i)});
  }
  const HashRing ring(endpoints);
  const HashRing again(endpoints);
  ASSERT_EQ(ring.size(), 4u);

  std::vector<std::size_t> order;
  for (std::uint64_t key = 1; key <= 1000; ++key) {
    const service::Fingerprint fp = key * 0x9E3779B97F4A7C15ull;
    EXPECT_EQ(ring.owner(fp), again.owner(fp));  // deterministic
    ring.ordered(fp, order);
    ASSERT_EQ(order.size(), 4u);  // every endpoint, exactly once
    EXPECT_EQ(order.front(), ring.owner(fp));
    std::vector<char> seen(4, 0);
    for (std::size_t index : order) seen[index] = 1;
    for (char s : seen) EXPECT_EQ(s, 1);
  }
}

TEST(HashRingTest, VirtualNodesSpreadKeysAcrossTheFleet) {
  std::vector<Endpoint> endpoints;
  for (std::uint16_t i = 0; i < 4; ++i) {
    endpoints.push_back({"10.0.0." + std::to_string(i + 1), 9000});
  }
  const HashRing ring(endpoints);
  std::vector<std::size_t> hits(4, 0);
  const std::size_t keys = 20000;
  for (std::uint64_t key = 1; key <= keys; ++key) {
    ++hits[ring.owner(key * 0x9E3779B97F4A7C15ull)];
  }
  for (std::size_t endpoint = 0; endpoint < hits.size(); ++endpoint) {
    // With 64 vnodes each of 4 endpoints owns roughly a quarter of the
    // key space; 5% is a loose floor that catches gross imbalance (an
    // endpoint owning one vnode or none).
    EXPECT_GT(hits[endpoint], keys / 20)
        << "endpoint " << endpoint << " owns almost nothing";
  }
}

// ---------------------------------------------------------------------------
// Health

TEST(HealthTrackerTest, UpSuspectDownTransitionsAndRecovery) {
  cluster::HealthOptions options;
  options.suspect_after = 1;
  options.down_after = 3;
  HealthTracker tracker(2, options);
  EXPECT_EQ(tracker.state(0), HealthState::Up);

  tracker.record_failure(0);
  EXPECT_EQ(tracker.state(0), HealthState::Suspect);
  EXPECT_TRUE(tracker.usable(0));  // Suspect still takes traffic
  tracker.record_failure(0);
  EXPECT_EQ(tracker.state(0), HealthState::Suspect);
  tracker.record_failure(0);
  EXPECT_EQ(tracker.state(0), HealthState::Down);
  EXPECT_FALSE(tracker.usable(0));
  EXPECT_EQ(tracker.state(1), HealthState::Up);  // isolation

  tracker.record_success(0);  // any success resets the machine
  EXPECT_EQ(tracker.state(0), HealthState::Up);

  EXPECT_EQ(to_string(HealthState::Up), "up");
  EXPECT_EQ(to_string(HealthState::Suspect), "suspect");
  EXPECT_EQ(to_string(HealthState::Down), "down");
}

TEST(HealthPingerTest, DownEndpointRecoversThroughASuccessfulPing) {
  Fleet fleet(1, 1);
  HealthTracker tracker(1);
  cluster::PingerOptions options;
  options.timeout = std::chrono::milliseconds(2000);
  options.connect_timeout = std::chrono::milliseconds(2000);
  cluster::HealthPinger pinger(fleet.endpoints(), tracker, options);

  // Data-path failures marked the endpoint Down; only a ping can bring
  // it back, because data traffic no longer reaches it.
  for (int i = 0; i < 5; ++i) tracker.record_failure(0);
  ASSERT_EQ(tracker.state(0), HealthState::Down);
  pinger.check_now();
  EXPECT_EQ(tracker.state(0), HealthState::Up);
}

TEST(HealthPingerTest, DeadEndpointKeepsFailingPings) {
  service::EngineOptions eopts;
  eopts.worker_threads = 0;
  service::QueryEngine engine(eopts);
  std::uint16_t dead_port = 0;
  {
    net::Server probe(engine);
    ASSERT_TRUE(probe.start());
    dead_port = probe.port();
  }
  HealthTracker tracker(1, {.suspect_after = 1, .down_after = 2});
  cluster::PingerOptions options;
  options.timeout = std::chrono::milliseconds(100);
  options.connect_timeout = std::chrono::milliseconds(100);
  cluster::HealthPinger pinger({{"127.0.0.1", dead_port}}, tracker, options);
  pinger.check_now();
  EXPECT_EQ(tracker.state(0), HealthState::Suspect);
  pinger.check_now();
  EXPECT_EQ(tracker.state(0), HealthState::Down);
}

// ---------------------------------------------------------------------------
// ClusterClient

TEST(ClusterClientTest, IdenticalRequestsLandOnTheSameServerCache) {
  Fleet fleet(3);
  service::MetricsRegistry metrics;
  ClusterClient client(cluster_options(fleet.endpoints(), &metrics));

  service::EngineOptions ref_options;
  ref_options.worker_threads = 0;
  service::QueryEngine reference(ref_options);

  for (std::size_t i = 0; i < 6; ++i) {
    const Request request = classify_request(i);
    const QueryResponse first = client.call(request);
    ASSERT_TRUE(first.ok()) << first.status.to_string();
    expect_payload_parity(first, reference.execute(request));
    EXPECT_FALSE(first.cache_hit);
    // Same fingerprint, same ring owner, same server: the repeat must
    // be a cache hit over there.
    const QueryResponse second = client.call(request);
    ASSERT_TRUE(second.ok());
    EXPECT_TRUE(second.cache_hit);
    expect_payload_parity(second, first);
  }
  EXPECT_EQ(metrics.net_requests_sent.value(), 12u);
}

TEST(ClusterClientTest, DeadEndpointFailsOverWithZeroFailedRequests) {
  Fleet fleet(3);
  service::MetricsRegistry metrics;
  ClusterOptions options = cluster_options(fleet.endpoints(), &metrics);
  options.health.suspect_after = 1;
  options.health.down_after = 1;  // first transport error marks it Down
  options.connect_timeout = std::chrono::milliseconds(300);
  ClusterClient client(options);

  // Warm every connection, then kill one backend: every subsequent
  // request must still be answered (ring successors absorb the dead
  // endpoint's keys), with zero failures surfacing to the caller.
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(client.call(classify_request(i)).ok());
  }
  fleet.kill(1);
  std::size_t routed_to_dead = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    const Request request = diverse_request(i);
    if (client.owner_of(request) == 1) ++routed_to_dead;
    const QueryResponse response = client.call(request);
    EXPECT_TRUE(response.ok()) << i << ": " << response.status.to_string();
  }
  EXPECT_GT(routed_to_dead, 0u);  // the kill actually hit owned keys
  EXPECT_GE(metrics.net_failovers.value(), 1u);
  EXPECT_EQ(client.health().state(1), HealthState::Down);
  // Down endpoints are skipped up front: later calls do not pay a
  // connect timeout per request (this stays fast, which the 16-call
  // loop above implicitly asserts by finishing under the test timeout).
}

TEST(ClusterClientTest, CallManyCountsASendTimeFailoverPerMovedSlot) {
  // A backend that is dead before the first call is skipped at send time
  // (its connect is refused), not by a pump: every slot it owned moves to
  // its ring successor, and each move is one failover, as in call().
  Fleet fleet(2);
  fleet.kill(0);
  service::MetricsRegistry metrics;
  ClusterOptions options = cluster_options(fleet.endpoints(), &metrics);
  options.connect_timeout = std::chrono::milliseconds(300);
  // Keep the dead endpoint first in its keys' candidate lists, so every
  // slot it owns really moves.
  options.health.suspect_after = 1000;
  options.health.down_after = 1000;
  ClusterClient client(options);

  std::vector<Request> requests;
  std::uint64_t moved = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    requests.push_back(diverse_request(i));
    if (client.owner_of(requests.back()) == 0) ++moved;
  }
  ASSERT_GT(moved, 0u);
  const std::vector<QueryResponse> responses = client.call_many(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (const QueryResponse& response : responses) {
    EXPECT_TRUE(response.ok()) << response.status.to_string();
  }
  EXPECT_EQ(metrics.net_failovers.value(), moved);
}

TEST(ClusterClientTest, HedgeWinsAgainstAStalledServerAndCancelsTheLoser) {
  Fleet fleet(1);
  MuteServer mute;
  // Find a request the *mute* endpoint owns, so the primary stalls and
  // only the hedge can answer.
  std::vector<Endpoint> endpoints = fleet.endpoints();
  endpoints.push_back({"127.0.0.1", mute.port()});

  service::MetricsRegistry metrics;
  ClusterOptions options = cluster_options(endpoints, &metrics);
  options.hedge_min_samples = 1u << 30;  // force delay = hedge_max_delay
  options.hedge_max_delay = std::chrono::milliseconds(25);
  ClusterClient client(options);

  Request stalled = diverse_request(0);
  bool found = false;
  for (std::size_t i = 0; i < 256; ++i) {
    stalled = diverse_request(i);
    if (client.owner_of(stalled) == 1) {
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "no request hashed onto the mute endpoint";

  const auto start = service::Clock::now();
  const QueryResponse response =
      client.call(stalled, service::Deadline::in(std::chrono::seconds(20)));
  const auto elapsed = service::Clock::now() - start;
  ASSERT_TRUE(response.ok()) << response.status.to_string();
  EXPECT_EQ(metrics.net_hedges_sent.value(), 1u);
  EXPECT_EQ(metrics.net_hedges_won.value(), 1u);
  // The win came from the hedge, not from waiting out a 10 s timeout.
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(ClusterClientTest, HedgeDelayTracksTheLiveP99) {
  service::MetricsRegistry metrics;
  ClusterOptions options = cluster_options({{"127.0.0.1", 1}}, &metrics);
  options.hedge_min_samples = 32;
  options.hedge_min_delay = std::chrono::milliseconds(2);
  options.hedge_max_delay = std::chrono::milliseconds(500);
  ClusterClient client(options);

  // Cold histogram: fall back to the max delay.
  EXPECT_EQ(client.hedge_delay(service::RequestType::Classify),
            options.hedge_max_delay);
  // Feed a tight latency distribution: the delay clamps to ~p99.
  for (int i = 0; i < 1000; ++i) {
    metrics.latency(service::RequestType::Classify)
        .record(std::chrono::milliseconds(10));
  }
  const auto delay = client.hedge_delay(service::RequestType::Classify);
  EXPECT_GE(delay, options.hedge_min_delay);
  EXPECT_LE(delay, std::chrono::milliseconds(50));
}

/// Cluster options for the answer-pinning tests below: a cold hedge
/// delay long enough that no hedge fires, so every count is exact.
ClusterOptions unhedged_options(const std::vector<Endpoint>& endpoints,
                                service::MetricsRegistry* metrics) {
  ClusterOptions options = cluster_options(endpoints, metrics);
  options.hedge_min_samples = 1u << 30;
  options.hedge_max_delay = std::chrono::milliseconds(10000);
  return options;
}

/// The first @p count diverse requests whose ring owner is @p endpoint.
std::vector<Request> requests_owned_by(const ClusterClient& client,
                                       std::size_t endpoint,
                                       std::size_t count) {
  std::vector<Request> owned;
  for (std::size_t i = 0; i < 4096 && owned.size() < count; ++i) {
    if (client.owner_of(diverse_request(i)) == endpoint) {
      owned.push_back(diverse_request(i));
    }
  }
  EXPECT_EQ(owned.size(), count) << "too few keys on endpoint " << endpoint;
  return owned;
}

void answer_shutting_down(const Request&, QueryResponse& response) {
  response.status = service::Status::shutting_down();
  response.payload = nullptr;
}

TEST(ClusterClientTest, ShuttingDownAnswerReroutesToTheNextReplica) {
  ScriptedBackend leaving(answer_shutting_down);
  Fleet fleet(1);
  const std::vector<Endpoint> endpoints = {{"127.0.0.1", leaving.port()},
                                           fleet.endpoints()[0]};
  {
    service::MetricsRegistry metrics;
    ClusterClient client(unhedged_options(endpoints, &metrics));
    for (const Request& request : requests_owned_by(client, 0, 3)) {
      const QueryResponse response = client.call(request);
      EXPECT_TRUE(response.ok()) << response.status.to_string();
    }
    EXPECT_EQ(metrics.net_failovers.value(), 3u);
  }
  {
    service::MetricsRegistry metrics;
    ClusterClient client(unhedged_options(endpoints, &metrics));
    std::vector<Request> requests = requests_owned_by(client, 0, 3);
    for (const Request& request : requests_owned_by(client, 1, 2)) {
      requests.push_back(request);
    }
    for (const QueryResponse& response : client.call_many(requests)) {
      EXPECT_TRUE(response.ok()) << response.status.to_string();
    }
    EXPECT_EQ(metrics.net_failovers.value(), 3u);
  }
}

TEST(ClusterClientTest, ShuttingDownAnswerIsAHealthFailure) {
  // With down_after = 1, one ShuttingDown answer marks its endpoint
  // Down, so the next request that endpoint owns goes first to the live
  // replica and needs no failover.
  std::atomic<int> asked{0};
  ScriptedBackend leaving([&asked](const Request& request,
                                   QueryResponse& response) {
    ++asked;
    answer_shutting_down(request, response);
  });
  Fleet fleet(1);
  const std::vector<Endpoint> endpoints = {{"127.0.0.1", leaving.port()},
                                           fleet.endpoints()[0]};
  service::MetricsRegistry metrics;
  ClusterOptions options = unhedged_options(endpoints, &metrics);
  options.health.down_after = 1;
  ClusterClient client(options);
  const std::vector<Request> owned = requests_owned_by(client, 0, 2);
  ASSERT_EQ(owned.size(), 2u);

  EXPECT_TRUE(client.call(owned[0]).ok());
  EXPECT_EQ(metrics.net_failovers.value(), 1u);
  EXPECT_EQ(client.health().state(0), HealthState::Down);
  EXPECT_EQ(client.health().state(1), HealthState::Up);

  EXPECT_TRUE(client.call(owned[1]).ok());
  EXPECT_EQ(metrics.net_failovers.value(), 1u);
  EXPECT_EQ(asked.load(), 1);
}

TEST(ClusterClientTest, EveryReplicaShuttingDownReturnsThatAnswer) {
  ScriptedBackend first(answer_shutting_down);
  ScriptedBackend second(answer_shutting_down);
  const std::vector<Endpoint> endpoints = {{"127.0.0.1", first.port()},
                                           {"127.0.0.1", second.port()}};
  {
    service::MetricsRegistry metrics;
    ClusterClient client(unhedged_options(endpoints, &metrics));
    const QueryResponse response = client.call(diverse_request(0));
    EXPECT_EQ(response.status.code, StatusCode::ShuttingDown)
        << response.status.to_string();
    EXPECT_EQ(metrics.net_failovers.value(), 1u);
  }
  {
    service::MetricsRegistry metrics;
    ClusterClient client(unhedged_options(endpoints, &metrics));
    std::vector<Request> requests;
    for (std::size_t i = 0; i < 6; ++i) requests.push_back(diverse_request(i));
    for (const QueryResponse& response : client.call_many(requests)) {
      EXPECT_EQ(response.status.code, StatusCode::ShuttingDown)
          << response.status.to_string();
    }
    EXPECT_EQ(metrics.net_failovers.value(), requests.size());
  }
}

TEST(ClusterClientTest, ExpiredDeadlineAgainstAMuteServerCancelsOnTheWire) {
  MuteServer mute;
  const std::vector<Endpoint> endpoints = {{"127.0.0.1", mute.port()}};
  const auto deadline = [] {
    return service::Deadline::in(std::chrono::milliseconds(150));
  };
  {
    service::MetricsRegistry metrics;
    ClusterClient client(cluster_options(endpoints, &metrics));
    const QueryResponse response = client.call(diverse_request(0), deadline());
    EXPECT_EQ(response.status.code, StatusCode::DeadlineExceeded)
        << response.status.to_string();
    EXPECT_EQ(metrics.qos_cancels_sent.value(), 1u);
  }
  {
    service::MetricsRegistry metrics;
    ClusterClient client(cluster_options(endpoints, &metrics));
    std::vector<Request> requests;
    for (std::size_t i = 0; i < 4; ++i) requests.push_back(diverse_request(i));
    for (const QueryResponse& response :
         client.call_many(requests, deadline())) {
      EXPECT_EQ(response.status.code, StatusCode::DeadlineExceeded)
          << response.status.to_string();
    }
    EXPECT_EQ(metrics.qos_cancels_sent.value(), requests.size());
  }
}

TEST(ClusterClientTest, CallManyFailsOverFromASilentBackendAfterTheIoTimeout) {
  // The mute endpoint accepts every request and never answers.  With no
  // byte back for io_timeout its connection counts as dead, so its slots
  // fail over long before the deadline.
  MuteServer mute;
  Fleet fleet(1);
  const std::vector<Endpoint> endpoints = {{"127.0.0.1", mute.port()},
                                           fleet.endpoints()[0]};
  service::MetricsRegistry metrics;
  ClusterOptions options = cluster_options(endpoints, &metrics);
  options.io_timeout = std::chrono::milliseconds(200);
  ClusterClient client(options);
  const std::vector<Request> requests = requests_owned_by(client, 0, 4);

  const auto start = service::Clock::now();
  const std::vector<QueryResponse> responses = client.call_many(
      requests, service::Deadline::in(std::chrono::seconds(5)));
  const auto elapsed = service::Clock::now() - start;
  for (const QueryResponse& response : responses) {
    EXPECT_TRUE(response.ok()) << response.status.to_string();
  }
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  EXPECT_EQ(metrics.net_failovers.value(), requests.size());
}

TEST(ClusterClientTest, EveryCountedFailoverEmitsOneInstantNamingTheEndpoint) {
  trace::Tracer& tracer = trace::Tracer::instance();
  tracer.clear();
  tracer.enable();
  service::MetricsRegistry metrics;
  {
    // Send-time failover: the owner's connect is refused.
    Fleet fleet(2);
    fleet.kill(0);
    ClusterOptions options = unhedged_options(fleet.endpoints(), &metrics);
    options.connect_timeout = std::chrono::milliseconds(300);
    options.health.suspect_after = 1000;
    options.health.down_after = 1000;
    ClusterClient client(options);
    const std::vector<Request> owned = requests_owned_by(client, 0, 3);
    EXPECT_TRUE(client.call(owned[0]).ok());
    for (const QueryResponse& response : client.call_many(owned)) {
      EXPECT_TRUE(response.ok()) << response.status.to_string();
    }
  }
  {
    // Re-route of a ShuttingDown answer.
    ScriptedBackend leaving(answer_shutting_down);
    Fleet fleet(1);
    ClusterClient client(unhedged_options(
        {{"127.0.0.1", leaving.port()}, fleet.endpoints()[0]}, &metrics));
    const std::vector<Request> owned = requests_owned_by(client, 0, 3);
    EXPECT_TRUE(client.call(owned[0]).ok());
    for (const QueryResponse& response : client.call_many(owned)) {
      EXPECT_TRUE(response.ok()) << response.status.to_string();
    }
  }
  tracer.disable();

  std::uint64_t instants = 0;
  for (const trace::Span& span : tracer.snapshot().spans) {
    if (std::string_view(span.name) != "cluster.failover") continue;
    ++instants;
    EXPECT_TRUE(span.instant());
    ASSERT_NE(span.arg_name, nullptr);
    EXPECT_EQ(std::string_view(span.arg_name), "endpoint");
    EXPECT_EQ(span.arg, 0);  // endpoint 0 is the one left in both cases
  }
  tracer.clear();
  EXPECT_EQ(metrics.net_failovers.value(), 8u);
  EXPECT_EQ(instants, metrics.net_failovers.value());
}

// ---------------------------------------------------------------------------
// CombiningProxy

TEST(CombiningProxyTest, MergedSweepsAreBitIdenticalToASingleServer) {
  Fleet fleet(2);
  cluster::ProxyOptions poptions;
  poptions.cluster = cluster_options(fleet.endpoints());
  poptions.worker_threads = 2;
  poptions.enable_pinger = false;  // deterministic: no background probes
  CombiningProxy proxy(poptions);
  ASSERT_TRUE(proxy.start()) << proxy.error();

  service::EngineOptions ref_options;
  ref_options.worker_threads = 0;
  service::QueryEngine reference(ref_options);

  net::ClientOptions copts;
  copts.port = proxy.port();
  net::Client client(copts);

  // Scattered, merged sweep == single-engine sweep, bit for bit; and
  // point queries pass through the hash-routing path unchanged.
  for (const Request& request :
       {sweep_request(), fault_sweep_request(), classify_request(3)}) {
    const QueryResponse merged = client.call(request);
    ASSERT_TRUE(merged.ok()) << merged.status.to_string();
    expect_payload_parity(merged, reference.execute(request));
  }
  // The sweep really scattered: the proxy issued more backend requests
  // than the three frontend ones.
  EXPECT_GT(proxy.metrics().net_requests_sent.value(), 3u);
  proxy.stop();
  EXPECT_FALSE(proxy.running());
}

TEST(CombiningProxyTest, KilledBackendMidTrafficLosesNoRequests) {
  Fleet fleet(3);
  cluster::ProxyOptions poptions;
  poptions.cluster = cluster_options(fleet.endpoints());
  poptions.cluster.health.down_after = 1;
  poptions.cluster.connect_timeout = std::chrono::milliseconds(300);
  poptions.worker_threads = 2;
  poptions.enable_pinger = false;
  CombiningProxy proxy(poptions);
  ASSERT_TRUE(proxy.start()) << proxy.error();

  service::EngineOptions ref_options;
  ref_options.worker_threads = 0;
  service::QueryEngine reference(ref_options);
  const QueryResponse expected = reference.execute(sweep_request());

  net::ClientOptions copts;
  copts.port = proxy.port();
  net::Client client(copts);

  std::atomic<bool> killed{false};
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    fleet.kill(2);
    killed.store(true, std::memory_order_release);
  });

  // Sweeps keep flowing while one backend dies: chunks that land on the
  // dead endpoint fail over to ring successors, and every merged
  // response stays complete and bit-identical — zero failed requests.
  std::size_t completed = 0;
  for (int i = 0; i < 12; ++i) {
    const QueryResponse merged = client.call(sweep_request());
    ASSERT_TRUE(merged.ok()) << i << ": " << merged.status.to_string();
    expect_payload_parity(merged, expected);
    ++completed;
  }
  killer.join();
  EXPECT_TRUE(killed.load());
  EXPECT_EQ(completed, 12u);
}

TEST(CombiningProxyTest, ShortChunkAnswerIsAnInternalErrorNotAMerge) {
  // A backend that drops the last cell of the chunk starting at cell 0
  // (a bug or version skew behind the socket).  Merging it would shift
  // every later cell, and a curve's finalize() would read past the end
  // of the outcome vector; the proxy must refuse it instead.
  ScriptedBackend backend([](const Request& request, QueryResponse& response) {
    std::uint64_t begin = 1;
    if (const auto* chunk = std::get_if<service::SweepChunkRequest>(&request)) {
      begin = chunk->begin;
    }
    if (const auto* chunk = std::get_if<service::FaultChunkRequest>(&request)) {
      begin = chunk->begin;
    }
    if (!response.ok() || begin != 0) return;
    service::ResponsePayload payload = *response.payload;
    if (auto* chunk = std::get_if<service::SweepChunkResponse>(&payload)) {
      chunk->points.pop_back();
    }
    if (auto* chunk = std::get_if<service::FaultChunkResponse>(&payload)) {
      chunk->outcomes.pop_back();
    }
    response.payload =
        std::make_shared<const service::ResponsePayload>(std::move(payload));
  });
  cluster::ProxyOptions poptions;
  poptions.cluster = cluster_options({{"127.0.0.1", backend.port()}});
  poptions.worker_threads = 1;
  poptions.enable_pinger = false;
  CombiningProxy proxy(poptions);
  ASSERT_TRUE(proxy.start()) << proxy.error();

  net::ClientOptions copts;
  copts.port = proxy.port();
  net::Client client(copts);
  for (const Request& request : {sweep_request(), fault_sweep_request()}) {
    const QueryResponse merged = client.call(request);
    EXPECT_EQ(merged.status.code, StatusCode::InternalError)
        << merged.status.to_string();
    EXPECT_EQ(merged.payload, nullptr);
  }
  proxy.stop();
}

TEST(CombiningProxyTest, FullBatchQueueStillAcceptsInteractiveWork) {
  // One proxy worker, one task slot per class.  The worker blocks on a
  // backend that parks requests, so the proxy's queue state is exact.
  ScriptedBackend backend(nullptr, /*hold=*/true);
  cluster::ProxyOptions poptions;
  poptions.cluster = cluster_options({{"127.0.0.1", backend.port()}});
  poptions.worker_threads = 1;
  poptions.queue_capacity = 1;
  poptions.enable_pinger = false;
  CombiningProxy proxy(poptions);
  ASSERT_TRUE(proxy.start()) << proxy.error();

  net::ClientOptions copts;
  copts.port = proxy.port();
  net::Client client(copts);
  std::string error;
  const auto send = [&](std::size_t i, qos::PriorityClass priority) {
    std::uint64_t id = 0;
    EXPECT_TRUE(client.send_request(classify_request(i),
                                    service::Deadline::never(), 0, id, error,
                                    priority))
        << error;
    return id;
  };
  const auto await = [&](std::uint64_t id) {
    QueryResponse response;
    const auto give_up = service::Clock::now() + std::chrono::seconds(10);
    while (!client.take_response(id, response) &&
           service::Clock::now() < give_up) {
      EXPECT_GE(client.pump(std::chrono::milliseconds(10), error), 0) << error;
    }
    return response;
  };

  // Batch request 1 occupies the worker...
  const std::uint64_t busy = send(0, qos::PriorityClass::Batch);
  const auto give_up = service::Clock::now() + std::chrono::seconds(10);
  while (backend.held() == 0 && service::Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(backend.held(), 0u);
  // ...request 2 fills the Batch subqueue, and request 3 is refused.
  const std::uint64_t queued = send(1, qos::PriorityClass::Batch);
  const std::uint64_t refused = send(2, qos::PriorityClass::Batch);
  EXPECT_EQ(await(refused).status.code, StatusCode::QueueFull);
  // An Interactive classify waits in its own subqueue instead.
  const std::uint64_t interactive = send(3, qos::PriorityClass::Interactive);
  backend.release();
  for (const std::uint64_t id : {busy, queued, interactive}) {
    const QueryResponse response = await(id);
    EXPECT_TRUE(response.ok()) << id << ": " << response.status.to_string();
  }
  proxy.stop();
}

TEST(CombiningProxyTest, ShutdownAnswersInsteadOfHanging) {
  Fleet fleet(1);
  cluster::ProxyOptions poptions;
  poptions.cluster = cluster_options(fleet.endpoints());
  poptions.worker_threads = 1;
  poptions.enable_pinger = false;
  auto proxy = std::make_unique<CombiningProxy>(poptions);
  ASSERT_TRUE(proxy->start()) << proxy->error();
  const std::uint16_t port = proxy->port();

  net::ClientOptions copts;
  copts.port = port;
  copts.max_retries = 0;
  net::Client client(copts);
  ASSERT_TRUE(client.call(classify_request(0)).ok());
  proxy->stop();
  // After stop the proxy is gone; a fresh call fails typed, not hung.
  const QueryResponse after = client.call(classify_request(1));
  EXPECT_FALSE(after.ok());
  proxy.reset();
}


// A grid too big to answer must not end the process.  Each hostile shape
// (axes whose answer outgrows a frame, a trial count far past the curve
// cap, rates x trials past it, and axes whose answer size overflows 64
// bits) is refused as InvalidRequest, before anything is allocated for
// it, inline, through the worker pool, over TCP and through a proxy
// fleet; the same server then still answers a classify.
TEST(CombiningProxyTest, HostileGridShapesGetTypedErrorsOnEveryPath) {
  std::vector<std::pair<std::string, Request>> shapes;
  {
    service::SweepRequest huge_axes;  // 2^38 cells, an 8 MiB frame
    huge_axes.grid.n_values.assign(std::size_t{1} << 19, 8);
    huge_axes.grid.lut_budgets.assign(std::size_t{1} << 19, 64);
    shapes.emplace_back("huge axes", std::move(huge_axes));
  }
  {
    service::FaultSweepRequest huge_trials =
        std::get<service::FaultSweepRequest>(fault_sweep_request());
    huge_trials.spec.fault_rates = {0.1};
    huge_trials.spec.trials_per_rate = 2'000'000'000;
    shapes.emplace_back("huge trials", std::move(huge_trials));
  }
  {
    service::FaultSweepRequest many_rates =
        std::get<service::FaultSweepRequest>(fault_sweep_request());
    many_rates.spec.fault_rates.assign(std::size_t{1} << 11, 0.25);
    many_rates.spec.trials_per_rate = 1 << 10;
    shapes.emplace_back("rates x trials", std::move(many_rates));
  }
  {
    // 2^59 cells of at least 44 bytes each: past 2^64 bytes.
    service::SweepRequest overflow;
    overflow.grid.n_values.assign(std::size_t{1} << 18, 8);
    overflow.grid.lut_budgets.assign(std::size_t{1} << 18, 64);
    overflow.grid.objectives.assign(
        std::size_t{1} << 23, explore::Requirements::Objective::MinArea);
    shapes.emplace_back("64-bit overflow", std::move(overflow));
  }

  const auto expect_refused = [&](const std::string& path,
                                  const std::function<QueryResponse(
                                      const Request&)>& call) {
    for (const auto& [name, request] : shapes) {
      const QueryResponse response = call(request);
      EXPECT_EQ(response.status.code, StatusCode::InvalidRequest)
          << path << ", " << name << ": " << response.status.to_string();
    }
    const QueryResponse classify = call(classify_request(0));
    EXPECT_TRUE(classify.ok()) << path << ": " << classify.status.to_string();
  };

  service::EngineOptions inline_options;
  inline_options.worker_threads = 0;
  service::QueryEngine inline_engine(inline_options);
  expect_refused("inline", [&](const Request& request) {
    return inline_engine.execute(request);
  });
  service::EngineOptions pool_options;
  pool_options.worker_threads = 2;
  service::QueryEngine pool_engine(pool_options);
  expect_refused("worker pool", [&](const Request& request) {
    return pool_engine.submit(request).get();
  });

  Fleet fleet(2);
  net::ClientOptions direct;
  direct.port = fleet.endpoints()[0].port;
  direct.io_timeout = std::chrono::milliseconds(20000);
  net::Client server_client(direct);
  expect_refused("TCP", [&](const Request& request) {
    return server_client.call(request);
  });

  cluster::ProxyOptions poptions;
  poptions.cluster = cluster_options(fleet.endpoints());
  poptions.worker_threads = 2;
  poptions.enable_pinger = false;
  CombiningProxy proxy(poptions);
  ASSERT_TRUE(proxy.start()) << proxy.error();
  net::ClientOptions via_proxy = direct;
  via_proxy.port = proxy.port();
  net::Client proxy_client(via_proxy);
  expect_refused("proxy", [&](const Request& request) {
    return proxy_client.call(request);
  });
}

}  // namespace
