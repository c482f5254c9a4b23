#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/ring.hpp"
#include "net/client.hpp"

namespace mpct::cluster {

/// Per-endpoint liveness, as seen from one side of the fleet.
///
///   Up ──failure──▶ Suspect ──more failures──▶ Down
///    ▲                                           │
///    └────────────── any success ◀───────────────┘
///
/// Suspect endpoints still receive traffic (they may just be slow — a
/// hedge covers the latency), Down ones are skipped entirely until a
/// Ping succeeds.
enum class HealthState : std::uint8_t {
  Up = 0,
  Suspect = 1,
  Down = 2,
};

std::string_view to_string(HealthState state);

struct HealthOptions {
  /// Consecutive failures before Up degrades to Suspect.
  int suspect_after = 1;
  /// Consecutive failures before the endpoint is marked Down.
  int down_after = 3;
};

/// Lock-free per-endpoint health state machine, shared by every
/// ClusterClient of a fleet (and fed by the HealthPinger).  Transitions
/// are driven by two edges only — record_failure() from transport errors,
/// failed pings and ShuttingDown / Unavailable answers, record_success()
/// from any other answer or ping reply — so callers never reason about
/// states, just report outcomes.
class HealthTracker {
 public:
  explicit HealthTracker(std::size_t endpoints, HealthOptions options = {});

  std::size_t size() const { return count_; }

  void record_success(std::size_t endpoint);
  void record_failure(std::size_t endpoint);

  HealthState state(std::size_t endpoint) const;
  /// Up or Suspect — may be routed to.
  bool usable(std::size_t endpoint) const {
    return state(endpoint) != HealthState::Down;
  }

 private:
  // Atomics are neither movable nor copyable, so slots live in a
  // fixed-size heap array rather than a std::vector.
  struct Slot {
    std::atomic<int> failures{0};
    std::atomic<std::uint8_t> state{static_cast<std::uint8_t>(HealthState::Up)};
  };
  std::unique_ptr<Slot[]> slots_;
  std::size_t count_ = 0;
  HealthOptions options_;
};

struct PingerOptions {
  /// Pause between probe passes.
  std::chrono::milliseconds interval{500};
  /// Ping round-trip budget per endpoint; a miss is a failure.
  std::chrono::milliseconds timeout{250};
  std::chrono::milliseconds connect_timeout{250};
};

/// Background prober: one thread, one lightweight net::Client per
/// endpoint, a Ping/Pong round trip per endpoint per pass, results fed
/// into a shared HealthTracker.  This is what notices a Down endpoint
/// coming back (data traffic never reaches it, so only pings can).
///
/// check_now() runs a single synchronous pass and is safe alongside the
/// background thread — tests use it to force deterministic transitions.
class HealthPinger {
 public:
  HealthPinger(std::vector<Endpoint> endpoints, HealthTracker& tracker,
               PingerOptions options = {});
  ~HealthPinger();

  HealthPinger(const HealthPinger&) = delete;
  HealthPinger& operator=(const HealthPinger&) = delete;

  /// Launch the background probe thread (idempotent).
  void start();
  /// Stop and join it (idempotent; called by the destructor).
  void stop();

  /// One synchronous probe pass over every endpoint.
  void check_now();

 private:
  void loop();

  std::vector<Endpoint> endpoints_;
  HealthTracker& tracker_;
  PingerOptions options_;

  /// Guards clients_ (check_now may race the background thread).
  std::mutex probe_mutex_;
  std::vector<std::unique_ptr<net::Client>> clients_;

  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace mpct::cluster
