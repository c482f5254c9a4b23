#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <type_traits>

#include "qos/priority.hpp"
#include "service/metrics.hpp"

namespace mpct::qos {

/// Tuning for the adaptive admission controller.  Pressure is a
/// dimensionless load estimate in [0, ~): the maximum of queue fill
/// (fullest class subqueue / capacity) and the windowed Interactive p99
/// divided by its budget, so either a deep backlog *or* a blown latency
/// target pushes the service up the shed ladder (the thresholds are
/// constants in admission.cpp):
///
///   pressure < 0.70                        everything admitted verbatim
///   >= 0.70                                precision degrades first —
///                                          sweeps answer on a strided
///                                          subgrid
///   >= 0.85                                Background is rejected with
///                                          Overloaded + retry-after
///   >= 0.95                                Batch is rejected too
///
/// Interactive is never shed: by the time Interactive would be the
/// problem, everything cheaper has already been turned away and WFQ
/// gives it almost the whole machine.
struct AdmissionOptions {
  /// Interactive p99 the service tries to hold; windowed p99 at budget
  /// contributes pressure 1.0.
  std::chrono::microseconds interactive_p99_budget{5000};
  /// How often the windowed p99 is re-derived from the cumulative
  /// histogram (cumulative buckets never decay, so the controller diffs
  /// consecutive snapshots to see only recent traffic).
  std::chrono::milliseconds refresh_interval{50};
};

enum class AdmissionAction : std::uint8_t {
  Admit = 0,    ///< serve at full precision
  Degrade = 1,  ///< serve, but a grid may answer on a strided subgrid
  Shed = 2,     ///< reject with Overloaded + retry-after
};

struct Admission {
  AdmissionAction action = AdmissionAction::Admit;
  std::uint32_t retry_after_ms = 0;
  double pressure = 0.0;
};

/// Watches the live Interactive latency histogram (fed by the engine as
/// cumulative bucket snapshots) and the queue fill, and answers one
/// question on the submit path: admit, degrade, or shed this class
/// right now?  decide() is wait-free on the hot path — it reads two
/// atomics; the windowed-p99 refresh is claimed by one thread per
/// interval via CAS.
class AdmissionController {
 public:
  using Buckets = service::LatencyHistogram::Buckets;

  explicit AdmissionController(AdmissionOptions options);

  /// Feed the latest *cumulative* Interactive latency snapshot.  At
  /// most one caller per refresh_interval pays for the diff; everyone
  /// else returns immediately.
  void observe(const Buckets& cumulative,
               std::chrono::steady_clock::time_point now) {
    if (claim_refresh(now)) refresh(cumulative);
  }

  /// The same, with the snapshot built by @p snapshot() only when this
  /// caller claims the refresh — the engine's submit path, where a
  /// snapshot costs one atomic load per bucket of every histogram.
  template <typename Snapshot>
    requires std::is_invocable_r_v<Buckets, Snapshot&>
  void observe(Snapshot&& snapshot,
               std::chrono::steady_clock::time_point now) {
    if (claim_refresh(now)) refresh(snapshot());
  }

  Admission decide(PriorityClass cls, double queue_fill) const;

  double pressure(double queue_fill) const;
  double windowed_p99_us() const;
  const AdmissionOptions& options() const { return options_; }

  /// Interpolated quantile of the traffic between two cumulative
  /// snapshots (now - prev); 0 when the window saw no requests.
  /// Exposed for tests.
  static double quantile_of_window(const Buckets& now, const Buckets& prev,
                                   double q);

 private:
  /// True for the one caller that claims the refresh due at @p now.
  bool claim_refresh(std::chrono::steady_clock::time_point now);
  /// Re-derive the windowed p99 from @p cumulative and keep it as the
  /// next window's start.
  void refresh(const Buckets& cumulative);
  std::uint32_t retry_after(double pressure) const;

  const AdmissionOptions options_;

  std::atomic<std::int64_t> last_refresh_ns_{0};
  std::atomic<double> windowed_p99_us_{0.0};
  std::mutex prev_mutex_;
  Buckets prev_{};
  bool primed_ = false;  ///< prev_ holds a snapshot (under prev_mutex_)
};

}  // namespace mpct::qos
