#include "cluster/client.hpp"

#include <poll.h>

#include <algorithm>
#include <utility>

#include "trace/trace.hpp"

namespace mpct::cluster {
namespace {

using Clock = service::Clock;

/// call() hedges after this quantile of the request type's latency.
constexpr double kHedgeQuantile = 0.99;

/// A server answer that means "this endpoint is going away" rather than
/// "this request is bad" — worth re-routing to a replica.
bool retryable_elsewhere(const service::Status& status) {
  return status.code == service::StatusCode::ShuttingDown ||
         status.code == service::StatusCode::Unavailable;
}

}  // namespace

ClusterClient::ClusterClient(ClusterOptions options)
    : options_(std::move(options)),
      ring_(options_.endpoints),
      clients_(options_.endpoints.size()) {
  if (options_.shared_health != nullptr) {
    tracker_ = options_.shared_health;
  } else {
    own_tracker_ = std::make_unique<HealthTracker>(options_.endpoints.size(),
                                                   options_.health);
    tracker_ = own_tracker_.get();
  }
}

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
  const double p99_us = histogram.quantile_us(kHedgeQuantile);
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
  if (trace_id == 0) trace_id = service::fingerprint(request);
  // Installed before the span so cluster.call and the hedge/failover
  // instants of the dispatch are all stamped with this request's trace.
  trace::TraceContextScope context(trace_id);
  trace::ScopedSpan span("cluster.call", trace::Category::Cluster);
  span.annotate("trace_id", static_cast<std::int64_t>(trace_id));
  return std::move(
      dispatch({&request, 1}, deadline, trace_id, priority, true).front());
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
  return dispatch(requests, deadline, trace_id, priority, false);
}

std::vector<service::QueryResponse> ClusterClient::dispatch(
    std::span<const service::Request> requests, service::Deadline deadline,
    std::uint64_t trace_id, std::optional<qos::PriorityClass> priority,
    bool hedge) {
  service::MetricsRegistry* metrics = options_.metrics;
  if (metrics) metrics->net_requests_sent.add(requests.size());
  std::vector<service::QueryResponse> responses(requests.size());
  if (ring_.empty()) {
    for (auto& response : responses) {
      response.status =
          service::Status::unavailable("cluster has no endpoints");
    }
    return responses;
  }
  const Clock::time_point start = Clock::now();

  struct Slot {
    std::vector<std::size_t> candidates;
    std::size_t next = 0;       ///< position of the next candidate to try
    std::size_t in_flight = 0;  ///< live attempts
    std::uint64_t trace_id = 0;
    /// When to hedge; max() once hedged, and always without hedging.
    Clock::time_point hedge_at = Clock::time_point::max();
    /// responses[i] holds an answer from a dying endpoint, returned if no
    /// replica does better.
    bool has_fallback = false;
    bool done = false;
    std::string last_error = "no endpoint reachable";
  };
  /// One copy of a request on the wire.
  struct Attempt {
    std::size_t slot;
    std::size_t endpoint;
    std::uint64_t id;
    bool hedge;
    bool dropped = false;
  };
  std::vector<Slot> slots(requests.size());
  std::vector<Attempt> attempts;
  std::size_t open = requests.size();

  const auto drop = [&](Attempt& attempt) {
    attempt.dropped = true;
    --slots[attempt.slot].in_flight;
  };
  // Cancel an attempt on both sides: a wire CancelRequest lets its
  // server dequeue or stop it, and its late answer is dropped here.
  const auto abandon = [&](Attempt& attempt) {
    std::string ignored;
    clients_[attempt.endpoint]->send_cancel(attempt.id, ignored);
    clients_[attempt.endpoint]->cancel(attempt.id);
    drop(attempt);
  };
  // Leaving an endpoint without its answer is a failover, unless it was
  // the request's only candidate.
  const auto fail_over = [&](std::size_t i, std::size_t endpoint) {
    if (slots[i].candidates.size() < 2) return;
    if (metrics) metrics->net_failovers.add();
    trace::emit_instant("cluster.failover", trace::Category::Cluster,
                        "endpoint", static_cast<std::int64_t>(endpoint));
  };
  // The candidate walker: send request i to its next reachable candidate.
  const auto launch = [&](std::size_t i, bool as_hedge) {
    Slot& slot = slots[i];
    while (slot.next < slot.candidates.size()) {
      const std::size_t endpoint = slot.candidates[slot.next++];
      std::string error;
      std::uint64_t id = 0;
      net::Client* client = endpoint_client(endpoint, error);
      if (client != nullptr &&
          client->send_request(requests[i], deadline, slot.trace_id, id,
                               error, priority)) {
        attempts.push_back({i, endpoint, id, as_hedge});
        ++slot.in_flight;
        return true;
      }
      tracker_->record_failure(endpoint);
      slot.last_error = error;
      fail_over(i, endpoint);
    }
    return false;
  };
  // Keep request i on the wire unless an attempt of it is still out.
  // With no candidate left it resolves to the fallback or Unavailable.
  const auto relaunch = [&](std::size_t i) {
    Slot& slot = slots[i];
    if (slot.in_flight > 0 || launch(i, false)) return;
    if (!slot.has_fallback) {
      responses[i].status = service::Status::unavailable(slot.last_error);
    }
    slot.done = true;
    --open;
  };

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const service::Fingerprint key = service::fingerprint(requests[i]);
    candidates_for(key, slots[i].candidates);
    slots[i].trace_id = trace_id != 0 ? trace_id : key;
    if (hedge) {
      slots[i].hedge_at =
          start + hedge_delay(service::request_type(requests[i]));
    }
    relaunch(i);
  }

  // Settle every answer at hand.  Any send may receive more answers, so
  // repeat until a pass takes none: the poll below only wakes on bytes.
  const auto settle = [&] {
    for (bool took = true; took;) {
      took = false;
      for (std::size_t a = 0; a < attempts.size(); ++a) {
        if (attempts[a].dropped) continue;
        const Attempt attempt = attempts[a];
        service::QueryResponse answer;
        if (!clients_[attempt.endpoint]->take_response(attempt.id, answer)) {
          continue;
        }
        took = true;
        drop(attempts[a]);
        // An endpoint that answers "going away" is failing, not healthy.
        const bool leaving = retryable_elsewhere(answer.status);
        if (leaving) {
          tracker_->record_failure(attempt.endpoint);
        } else {
          tracker_->record_success(attempt.endpoint);
        }
        Slot& slot = slots[attempt.slot];
        if (leaving && slot.next < slot.candidates.size()) {
          // "This endpoint is going away": keep the answer as a fallback
          // and re-route to the next replica.
          responses[attempt.slot] = std::move(answer);
          slot.has_fallback = true;
          fail_over(attempt.slot, attempt.endpoint);
          relaunch(attempt.slot);
          continue;
        }
        // The first answer wins; its losers are cancelled on both sides.
        for (Attempt& loser : attempts) {
          if (loser.dropped || loser.slot != attempt.slot) continue;
          trace::emit_instant("cluster.cancel_loser", trace::Category::Qos,
                              "endpoint",
                              static_cast<std::int64_t>(loser.endpoint));
          abandon(loser);
        }
        if (metrics) {
          metrics->latency(service::request_type(requests[attempt.slot]))
              .record(Clock::now() - start);
          if (attempt.hedge) metrics->net_hedges_won.add();
        }
        responses[attempt.slot] = std::move(answer);
        slot.done = true;
        --open;
      }
    }
    std::erase_if(attempts, [](const Attempt& a) { return a.dropped; });
  };

  std::vector<pollfd> fds;
  std::vector<std::size_t> polled;  // endpoint behind fds[k]
  for (;;) {
    settle();
    if (open == 0) break;
    const Clock::time_point now = Clock::now();
    if (deadline.expired(now)) {
      for (Attempt& attempt : attempts) abandon(attempt);
      for (std::size_t i = 0; i < slots.size(); ++i) {
        if (slots[i].done) continue;
        responses[i] = {};
        responses[i].status = service::Status::deadline_exceeded();
      }
      break;
    }

    // Hedges come after settling, so an answer already received is
    // never raced by a duplicate.
    bool hedged = false;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].done || now < slots[i].hedge_at) continue;
      slots[i].hedge_at = Clock::time_point::max();  // one hedge per request
      if (!launch(i, true)) continue;  // nowhere to hedge to
      hedged = true;
      if (metrics) metrics->net_hedges_sent.add();
      trace::emit_instant("cluster.hedge", trace::Category::Cluster,
                          "endpoint",
                          static_cast<std::int64_t>(attempts.back().endpoint));
    }
    if (hedged) continue;  // settle what the hedge's send received

    // One poll over every connection owing an answer, waking at the
    // earliest of a readable socket, a hedge, the deadline or a stall.
    Clock::time_point wake = deadline.at;
    fds.clear();
    polled.clear();
    for (const Attempt& attempt : attempts) {
      wake = std::min(wake, slots[attempt.slot].hedge_at);
      if (std::find(polled.begin(), polled.end(), attempt.endpoint) !=
          polled.end()) {
        continue;
      }
      const net::Client& client = *clients_[attempt.endpoint];
      polled.push_back(attempt.endpoint);
      fds.push_back({client.fd(), POLLIN, 0});
      // A connection lost under a send has no fd to poll: look at once.
      wake = std::min(wake, client.connected() ? client.stall_at() : now);
    }
    ::poll(fds.data(), fds.size(), net::poll_timeout_ms(wake));

    const Clock::time_point woke = Clock::now();
    for (std::size_t k = 0; k < polled.size(); ++k) {
      const std::size_t endpoint = polled[k];
      net::Client& client = *clients_[endpoint];
      if (fds[k].revents == 0 && client.connected() &&
          woke < client.stall_at()) {
        continue;
      }
      std::string error;
      if (client.receive(error) >= 0) continue;
      // Transport death, a stall included: the endpoint is sick and every
      // attempt it carried is lost.
      tracker_->record_failure(endpoint);
      for (std::size_t a = 0; a < attempts.size(); ++a) {
        if (attempts[a].dropped || attempts[a].endpoint != endpoint) continue;
        const std::size_t i = attempts[a].slot;
        drop(attempts[a]);
        slots[i].last_error = error;
        fail_over(i, endpoint);
        relaunch(i);
      }
    }
  }
  return responses;
}

}  // namespace mpct::cluster
