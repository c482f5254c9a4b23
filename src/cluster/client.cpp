#include "cluster/client.hpp"

#include <algorithm>
#include <utility>

#include "trace/trace.hpp"

namespace mpct::cluster {
namespace {

using Clock = service::Clock;

constexpr std::size_t kNoEndpoint = static_cast<std::size_t>(-1);

/// A server answer that means "this endpoint is going away" rather than
/// "this request is bad" — worth re-routing to a replica.
bool retryable_elsewhere(const service::Status& status) {
  return status.code == service::StatusCode::ShuttingDown ||
         status.code == service::StatusCode::Unavailable;
}

}  // namespace

ClusterClient::ClusterClient(ClusterOptions options)
    : options_(std::move(options)),
      ring_(options_.endpoints, options_.virtual_nodes),
      clients_(options_.endpoints.size()) {
  if (options_.shared_health != nullptr) {
    tracker_ = options_.shared_health;
  } else {
    own_tracker_ = std::make_unique<HealthTracker>(options_.endpoints.size(),
                                                   options_.health);
    tracker_ = own_tracker_.get();
  }
  if (options_.enable_pinger) {
    pinger_ = std::make_unique<HealthPinger>(options_.endpoints, *tracker_,
                                             options_.pinger);
    pinger_->start();
  }
}

ClusterClient::~ClusterClient() = default;

std::size_t ClusterClient::owner_of(const service::Request& request) const {
  return ring_.owner(service::fingerprint(request));
}

std::chrono::milliseconds ClusterClient::hedge_delay(
    service::RequestType type) const {
  if (options_.metrics == nullptr) return options_.hedge_max_delay;
  const auto& histogram = options_.metrics->latency(type);
  if (histogram.count() < options_.hedge_min_samples) {
    return options_.hedge_max_delay;
  }
  const double p99_us = histogram.quantile_us(options_.hedge_quantile);
  const auto delay = std::chrono::milliseconds(
      static_cast<std::int64_t>(p99_us / 1000.0) + 1);
  return std::clamp(delay, options_.hedge_min_delay, options_.hedge_max_delay);
}

void ClusterClient::candidates_for(service::Fingerprint key,
                                   std::vector<std::size_t>& out) const {
  ring_.ordered(key, out);
  // Usable endpoints first, ring order preserved within each class; Down
  // ones stay at the back as a last resort so a fleet that *looks* fully
  // down still gets connection attempts instead of an instant failure.
  std::stable_partition(out.begin(), out.end(), [this](std::size_t index) {
    return tracker_->usable(index);
  });
}

net::Client* ClusterClient::endpoint_client(std::size_t index,
                                            std::string& error) {
  auto& client = clients_[index];
  if (!client) {
    net::ClientOptions copts;
    copts.host = options_.endpoints[index].host;
    copts.port = options_.endpoints[index].port;
    copts.connect_timeout = options_.connect_timeout;
    copts.io_timeout = options_.io_timeout;
    copts.max_retries = 0;  // the cluster layer owns retry policy
    copts.protocol_version = options_.protocol_version;
    copts.metrics = options_.metrics;
    client = std::make_unique<net::Client>(copts);
  }
  if (client->connected()) return client.get();
  // Fresh connection: negotiate before any traffic so v2-only requests
  // (sweep/fault chunks) are never sent to a server stuck on v1.
  const service::Status status = client->negotiate();
  if (!status.ok()) {
    client->disconnect();
    error = status.to_string();
    return nullptr;
  }
  return client.get();
}

service::QueryResponse ClusterClient::call(
    const service::Request& request, service::Deadline deadline,
    std::uint64_t trace_id, std::optional<qos::PriorityClass> priority) {
  const service::Fingerprint key = service::fingerprint(request);
  if (trace_id == 0) trace_id = key;
  // Installed before the span so cluster.call and the hedge/failover
  // instants below are all stamped with this request's trace.
  trace::TraceContextScope context(trace_id);
  trace::ScopedSpan span("cluster.call", trace::Category::Cluster);
  span.annotate("trace_id", static_cast<std::int64_t>(trace_id));
  service::MetricsRegistry* metrics = options_.metrics;
  if (metrics) metrics->net_requests_sent.add();

  service::QueryResponse response;
  if (ring_.empty()) {
    response.status = service::Status::unavailable("cluster has no endpoints");
    return response;
  }

  const service::RequestType type = service::request_type(request);
  const Clock::time_point start = Clock::now();

  std::vector<std::size_t> candidates;
  candidates_for(key, candidates);

  struct InFlight {
    std::size_t endpoint = kNoEndpoint;
    std::uint64_t id = 0;
    net::Client* client = nullptr;
    bool is_hedge = false;
  };
  std::vector<InFlight> in_flight;
  std::size_t next_candidate = 0;
  std::string last_error = "no endpoint reachable";
  // Best non-transport answer seen from a dying endpoint; returned only
  // if every other avenue is exhausted.
  service::QueryResponse fallback;
  bool have_fallback = false;

  const auto launch_next = [&](bool as_hedge) {
    bool first_attempt = next_candidate == 0;
    while (next_candidate < candidates.size()) {
      const std::size_t index = candidates[next_candidate++];
      const bool already_in_flight =
          std::any_of(in_flight.begin(), in_flight.end(),
                      [&](const InFlight& f) { return f.endpoint == index; });
      if (already_in_flight) continue;
      std::string error;
      std::uint64_t id = 0;
      net::Client* client = endpoint_client(index, error);
      if (client == nullptr ||
          !client->send_request(request, deadline, trace_id, id, error,
                                priority)) {
        // Moving past an unreachable candidate is a failover too. The
        // first candidate of a request only counts when another one is
        // left to take the request.
        tracker_->record_failure(index);
        last_error = error;
        if ((!first_attempt || next_candidate < candidates.size()) &&
            metrics) {
          metrics->net_failovers.add();
        }
        first_attempt = false;
        continue;
      }
      in_flight.push_back({index, id, client, as_hedge});
      return true;
    }
    return false;
  };

  if (!launch_next(false)) {
    if (have_fallback) return fallback;
    response.status = service::Status::unavailable(last_error);
    return response;
  }

  const std::chrono::milliseconds hedge_after = hedge_delay(type);
  const Clock::time_point hedge_at = start + hedge_after;
  bool hedged = false;

  // Abandon an attempt: ask the server to reclaim whatever is still
  // queued (wire CancelRequest, fire-and-forget) and drop the local
  // tracking so a late answer is ignored.
  const auto abandon = [](const InFlight& f) {
    std::string cancel_error;
    f.client->send_cancel(f.id, cancel_error);
    f.client->cancel(f.id);
  };
  const auto cancel_all = [&] {
    for (const InFlight& f : in_flight) abandon(f);
    in_flight.clear();
  };

  for (;;) {
    const Clock::time_point now = Clock::now();
    if (deadline.expired(now)) {
      cancel_all();
      response.status = service::Status::deadline_exceeded();
      return response;
    }

    if (options_.enable_hedging && !hedged && in_flight.size() == 1 &&
        now >= hedge_at) {
      if (launch_next(true)) {
        hedged = true;
        if (metrics) metrics->net_hedges_sent.add();
        trace::emit_instant("cluster.hedge", trace::Category::Cluster,
                            "endpoint",
                            static_cast<std::int64_t>(in_flight.back().endpoint));
      } else {
        hedged = true;  // nowhere to hedge to; stop re-trying every loop
      }
    }

    // Pump slice: short while racing two attempts, longer when only one
    // is out — but never sleeping past the hedge fire time.
    std::chrono::milliseconds slice(in_flight.size() > 1 ? 1 : 10);
    if (options_.enable_hedging && !hedged && now < hedge_at) {
      const auto until_hedge =
          std::chrono::duration_cast<std::chrono::milliseconds>(hedge_at - now);
      slice = std::clamp(until_hedge, std::chrono::milliseconds(1), slice);
    }

    for (std::size_t i = 0; i < in_flight.size();) {
      InFlight& f = in_flight[i];
      std::string error;
      const int completed = f.client->pump(slice, error);
      if (completed < 0) {
        // Transport death: this attempt is lost; the endpoint is sick.
        tracker_->record_failure(f.endpoint);
        last_error = error;
        if (metrics) metrics->net_failovers.add();
        trace::emit_instant("cluster.failover", trace::Category::Cluster,
                            "endpoint", static_cast<std::int64_t>(f.endpoint));
        in_flight.erase(in_flight.begin() +
                        static_cast<std::ptrdiff_t>(i));
        continue;
      }
      ++i;
    }

    for (std::size_t i = 0; i < in_flight.size(); ++i) {
      InFlight& f = in_flight[i];
      service::QueryResponse answer;
      if (!f.client->take_response(f.id, answer)) continue;
      tracker_->record_success(f.endpoint);
      if (retryable_elsewhere(answer.status) &&
          next_candidate < candidates.size()) {
        // The endpoint answered "I'm going away": keep the answer as a
        // fallback but re-route to the next replica.
        fallback = std::move(answer);
        have_fallback = true;
        if (metrics) metrics->net_failovers.add();
        in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(i));
        launch_next(false);
        --i;
        continue;
      }
      // Winner: cancel the loser on both sides — locally (its late
      // answer is dropped by the primitive layer) and server-side (a
      // wire CancelRequest dequeues the duplicate if it is still
      // queued, or stops it at the next chunk boundary).
      const bool winner_is_hedge = f.is_hedge;
      const std::uint64_t winner_id = f.id;
      for (const InFlight& other : in_flight) {
        if (other.id != winner_id || other.client != f.client) {
          trace::emit_instant("cluster.cancel_loser", trace::Category::Qos,
                              "endpoint",
                              static_cast<std::int64_t>(other.endpoint));
          abandon(other);
        }
      }
      if (metrics) {
        metrics->latency(type).record(Clock::now() - start);
        if (winner_is_hedge) metrics->net_hedges_won.add();
      }
      return answer;
    }

    if (in_flight.empty() && !launch_next(false)) {
      if (have_fallback) return fallback;
      response.status = service::Status::unavailable(last_error);
      return response;
    }
  }
}

std::vector<service::QueryResponse> ClusterClient::call_many(
    const std::vector<service::Request>& requests, service::Deadline deadline,
    std::uint64_t trace_id, std::optional<qos::PriorityClass> priority) {
  // A zero trace_id keeps the ambient context (slots fall back to their
  // per-request keys on the wire, which can't be one thread-local id).
  trace::TraceContextScope context(
      trace_id != 0 ? trace_id : trace::current_trace_id());
  trace::ScopedSpan span("cluster.call_many", trace::Category::Cluster,
                         "requests",
                         static_cast<std::int64_t>(requests.size()));
  service::MetricsRegistry* metrics = options_.metrics;
  if (metrics) metrics->net_requests_sent.add(requests.size());

  std::vector<service::QueryResponse> responses(requests.size());
  if (ring_.empty()) {
    for (auto& r : responses) {
      r.status = service::Status::unavailable("cluster has no endpoints");
    }
    return responses;
  }

  struct Slot {
    service::Fingerprint key = 0;
    std::vector<std::size_t> candidates;
    std::size_t next_candidate = 0;
    std::size_t endpoint = kNoEndpoint;
    std::uint64_t id = 0;
    Clock::time_point sent_at{};
    bool done = false;
  };
  std::vector<Slot> slots(requests.size());
  std::size_t open = requests.size();

  // Routes request i to its next viable candidate; on exhaustion the
  // slot resolves Unavailable (or @p fallback when provided — a real
  // answer from a dying endpoint beats a synthetic error).
  const auto send_one = [&](std::size_t i,
                            const service::QueryResponse* fallback) {
    Slot& slot = slots[i];
    std::string last_error = "no endpoint reachable";
    bool first_attempt = slot.next_candidate == 0;
    while (slot.next_candidate < slot.candidates.size()) {
      const std::size_t index = slot.candidates[slot.next_candidate++];
      std::string error;
      std::uint64_t id = 0;
      net::Client* client = endpoint_client(index, error);
      if (client == nullptr ||
          !client->send_request(requests[i], deadline,
                                trace_id != 0 ? trace_id : slot.key, id,
                                error, priority)) {
        // Same rule as call(): moving past an unreachable candidate is a
        // failover, and a first candidate counts only when another one
        // is left to take the request.
        tracker_->record_failure(index);
        last_error = error;
        if ((!first_attempt ||
             slot.next_candidate < slot.candidates.size()) &&
            metrics) {
          metrics->net_failovers.add();
        }
        first_attempt = false;
        continue;
      }
      slot.endpoint = index;
      slot.id = id;
      slot.sent_at = Clock::now();
      return true;
    }
    if (fallback != nullptr) {
      responses[i] = *fallback;
    } else {
      responses[i].status = service::Status::unavailable(last_error);
    }
    slot.endpoint = kNoEndpoint;
    slot.done = true;
    --open;
    return false;
  };

  for (std::size_t i = 0; i < requests.size(); ++i) {
    slots[i].key = service::fingerprint(requests[i]);
    candidates_for(slots[i].key, slots[i].candidates);
    send_one(i, nullptr);
  }

  while (open > 0) {
    if (deadline.expired()) {
      for (std::size_t i = 0; i < slots.size(); ++i) {
        Slot& slot = slots[i];
        if (slot.done) continue;
        if (slot.endpoint != kNoEndpoint) {
          // Reclaim still-queued chunks server-side before giving up.
          std::string cancel_error;
          clients_[slot.endpoint]->send_cancel(slot.id, cancel_error);
          clients_[slot.endpoint]->cancel(slot.id);
        }
        responses[i].status = service::Status::deadline_exceeded();
        slot.done = true;
        --open;
      }
      break;
    }

    // Pump every endpoint that still carries an open slot.  A dead
    // connection loses every id it carried: re-route all of them.
    std::vector<char> pumped(clients_.size(), 0);
    for (const Slot& probe : slots) {
      if (probe.done || probe.endpoint == kNoEndpoint) continue;
      if (pumped[probe.endpoint]) continue;
      pumped[probe.endpoint] = 1;
      const std::size_t endpoint = probe.endpoint;
      std::string error;
      if (clients_[endpoint]->pump(std::chrono::milliseconds(2), error) < 0) {
        tracker_->record_failure(endpoint);
        for (std::size_t i = 0; i < slots.size(); ++i) {
          if (slots[i].done || slots[i].endpoint != endpoint) continue;
          if (metrics) metrics->net_failovers.add();
          trace::emit_instant("cluster.failover", trace::Category::Cluster,
                              "endpoint", static_cast<std::int64_t>(endpoint));
          send_one(i, nullptr);
        }
      }
    }

    for (std::size_t i = 0; i < slots.size(); ++i) {
      Slot& slot = slots[i];
      if (slot.done || slot.endpoint == kNoEndpoint) continue;
      service::QueryResponse answer;
      if (!clients_[slot.endpoint]->take_response(slot.id, answer)) continue;
      tracker_->record_success(slot.endpoint);
      if (retryable_elsewhere(answer.status) &&
          slot.next_candidate < slot.candidates.size()) {
        if (metrics) metrics->net_failovers.add();
        send_one(i, &answer);
        continue;
      }
      if (metrics) {
        metrics->latency(service::request_type(requests[i]))
            .record(Clock::now() - slot.sent_at);
      }
      responses[i] = std::move(answer);
      slot.done = true;
      --open;
    }
  }
  return responses;
}

}  // namespace mpct::cluster
