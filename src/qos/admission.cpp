#include "qos/admission.hpp"

#include <algorithm>

namespace mpct::qos {
/// Pressure at which every class starts to degrade, then Background
/// requests are shed, then Batch too (the ladder in admission.hpp).
constexpr double kDegradePressure = 0.70;
constexpr double kShedBackgroundPressure = 0.85;
constexpr double kShedBatchPressure = 0.95;
/// Base retry-after hint; scaled up with overshoot past the shed
/// thresholds so deeper overload spreads retries further out.
constexpr std::uint32_t kRetryAfterBaseMs = 25;

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options) {}

double AdmissionController::quantile_of_window(const Buckets& now,
                                               const Buckets& prev,
                                               double q) {
  service::LatencyHistogram::Counts window;
  for (std::size_t i = 0; i < window.size(); ++i) {
    // Cumulative buckets only grow; a racing relaxed snapshot can still
    // read individual buckets out of order, so clamp at zero.
    window[i] = now.counts[i] >= prev.counts[i]
                    ? now.counts[i] - prev.counts[i]
                    : 0;
  }
  return service::LatencyHistogram::quantile_of(window, q).value_or(0.0);
}

bool AdmissionController::claim_refresh(
    std::chrono::steady_clock::time_point now) {
  const std::int64_t now_ns = now.time_since_epoch().count();
  const std::int64_t interval_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          options_.refresh_interval)
          .count();
  std::int64_t last = last_refresh_ns_.load(std::memory_order_relaxed);
  if (last != 0 && now_ns - last < interval_ns) return false;
  // Losing the CAS means another thread claimed this window.
  return last_refresh_ns_.compare_exchange_strong(last, now_ns,
                                                  std::memory_order_relaxed);
}

void AdmissionController::refresh(const Buckets& cumulative) {
  std::lock_guard<std::mutex> lock(prev_mutex_);
  if (primed_) {
    windowed_p99_us_.store(quantile_of_window(cumulative, prev_, 0.99),
                           std::memory_order_relaxed);
  }
  prev_ = cumulative;
  primed_ = true;
}

double AdmissionController::windowed_p99_us() const {
  return windowed_p99_us_.load(std::memory_order_relaxed);
}

double AdmissionController::pressure(double queue_fill) const {
  const double budget_us =
      static_cast<double>(options_.interactive_p99_budget.count());
  const double latency_pressure =
      budget_us <= 0.0 ? 0.0 : windowed_p99_us() / budget_us;
  return std::max(queue_fill, latency_pressure);
}

std::uint32_t AdmissionController::retry_after(double pressure) const {
  // One base unit at the first shed threshold, growing a unit per 5%
  // of overshoot, capped at 8x — deep overload spreads retries out
  // without quoting hints so long that clients give up.
  const double over = std::max(0.0, pressure - kShedBackgroundPressure);
  const std::uint32_t scale =
      1 + std::min<std::uint32_t>(7, static_cast<std::uint32_t>(over * 20.0));
  return kRetryAfterBaseMs * scale;
}

Admission AdmissionController::decide(PriorityClass cls,
                                      double queue_fill) const {
  Admission result;
  result.pressure = pressure(queue_fill);
  if (result.pressure < kDegradePressure) return result;
  const bool shed =
      (cls == PriorityClass::Background &&
       result.pressure >= kShedBackgroundPressure) ||
      (cls == PriorityClass::Batch &&
       result.pressure >= kShedBatchPressure);
  if (shed) {
    result.action = AdmissionAction::Shed;
    result.retry_after_ms = retry_after(result.pressure);
  } else {
    // Interactive is never shed — it degrades at worst.
    result.action = AdmissionAction::Degrade;
  }
  return result;
}

}  // namespace mpct::qos
