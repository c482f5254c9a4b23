#include "qos/admission.hpp"

#include <algorithm>

namespace mpct::qos {
/// Pressure at which Background requests are shed, then Batch too (the
/// ladder in admission.hpp).
constexpr double kShedBackgroundPressure = 0.85;
constexpr double kShedBatchPressure = 0.95;


AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options) {}

double AdmissionController::quantile_of_window(const Buckets& now,
                                               const Buckets& prev,
                                               double q) {
  q = std::clamp(q, 0.0, 1.0);
  constexpr std::size_t kBucketCount = service::LatencyHistogram::kBucketCount;
  std::array<std::uint64_t, kBucketCount> counts;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    // Cumulative buckets only grow; a racing relaxed snapshot can still
    // read individual buckets out of order, so clamp at zero.
    counts[i] = now.counts[i] >= prev.counts[i]
                    ? now.counts[i] - prev.counts[i]
                    : 0;
    total += counts[i];
  }
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    cumulative += counts[i];
    if (static_cast<double>(cumulative) >= rank) {
      const double lower = i == 0 ? 0.0 : static_cast<double>(1ULL << i);
      const double upper = static_cast<double>(1ULL << (i + 1));
      const double before = static_cast<double>(cumulative - counts[i]);
      const double fraction =
          counts[i] == 0 ? 0.0
                         : (rank - before) / static_cast<double>(counts[i]);
      return (lower + fraction * (upper - lower)) / 1000.0;
    }
  }
  return static_cast<double>(1ULL << kBucketCount) / 1000.0;
}

void AdmissionController::observe(const Buckets& cumulative,
                                  std::chrono::steady_clock::time_point now) {
  const std::int64_t now_ns = now.time_since_epoch().count();
  const std::int64_t interval_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          options_.refresh_interval)
          .count();
  std::int64_t last = last_refresh_ns_.load(std::memory_order_relaxed);
  if (last != 0 && now_ns - last < interval_ns) return;
  if (!last_refresh_ns_.compare_exchange_strong(last, now_ns,
                                                std::memory_order_relaxed)) {
    return;  // another thread claimed this window
  }
  std::lock_guard<std::mutex> lock(prev_mutex_);
  if (last != 0) {
    windowed_p99_us_.store(quantile_of_window(cumulative, prev_, 0.99),
                           std::memory_order_relaxed);
  }
  prev_ = cumulative;
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
  return options_.retry_after_base_ms * scale;
}

Admission AdmissionController::decide(PriorityClass cls,
                                      double queue_fill) const {
  Admission result;
  result.pressure = pressure(queue_fill);
  if (result.pressure < options_.degrade_pressure) return result;
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
