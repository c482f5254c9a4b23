/// Load generators (open and closed loop), outcome accounting and the
/// small statistics helpers the workloads share.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <thread>

#include "bench.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size());
  const std::size_t index =
      rank <= 1 ? 0 : static_cast<std::size_t>(std::ceil(rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double us_since(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double ns_per_call(std::size_t n, int reps,
                   const std::function<void(std::size_t)>& fn) {
  if (n == 0) return 0;
  std::vector<double> per_rep;
  for (int r = 0; r < reps; ++r) {
    std::size_t calls = 0;
    const Clock::time_point start = Clock::now();
    Clock::time_point now = start;
    do {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      calls += n;
      now = Clock::now();
    } while (now - start < std::chrono::milliseconds(2));
    per_rep.push_back(
        std::chrono::duration<double, std::nano>(now - start).count() /
        static_cast<double>(calls));
  }
  return median(per_rep);
}

Verdict judge(const svc::QueryResponse& response,
              const svc::ResponsePayload* reference) {
  switch (response.status.code) {
    case svc::StatusCode::Ok:
      break;
    case svc::StatusCode::QueueFull:
    case svc::StatusCode::Overloaded:
    case svc::StatusCode::ShuttingDown:
      return Verdict::Refused;
    default:
      return Verdict::Failed;
  }
  if (!response.payload) return Verdict::Mismatch;
  if (reference != nullptr && !(*response.payload == *reference)) {
    return Verdict::Mismatch;
  }
  return response.sampled ? Verdict::Degraded : Verdict::Ok;
}

void Tally::add(Verdict v) {
  ++attempted;
  switch (v) {
    case Verdict::Ok: ++ok; break;
    case Verdict::Degraded: ++degraded; break;
    case Verdict::Failed: ++failed; break;
    case Verdict::Refused: ++refused; break;
    case Verdict::Mismatch: ++mismatched; break;
  }
}

void append(LoopResult& into, const LoopResult& from) {
  into.tally.merge(from.tally);
  for (int c = 0; c < 2; ++c) {
    into.latency_us[c].insert(into.latency_us[c].end(), from.latency_us[c].begin(),
                              from.latency_us[c].end());
  }
  into.late_us.insert(into.late_us.end(), from.late_us.begin(), from.late_us.end());
}

void Tally::merge(const Tally& other) {
  attempted += other.attempted;
  ok += other.ok;
  degraded += other.degraded;
  failed += other.failed;
  refused += other.refused;
  mismatched += other.mismatched;
}

namespace {

/// Sleep until shortly before @p due, then spin: plain sleep_until
/// overshoots by tens of microseconds at the median on a busy host.
void pace_until(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(250);
  if (due - Clock::now() > kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
}

}  // namespace

IdleSpinners::IdleSpinners(unsigned count) {
  for (unsigned i = 0; i < count; ++i) {
    threads_.emplace_back([this] {
      // A spinner that cannot drop to SCHED_IDLE would compete with
      // the program for CPU: it ends instead.
      sched_param param{};
      if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) return;
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield");
#endif
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& thread : threads_) thread.join();
}

LoopResult open_loop(double rate_per_s, std::size_t count, unsigned threads,
                     const std::function<Outcome(unsigned, std::size_t)>& call) {
  std::vector<LoopResult> parts(threads);
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(5);
  const auto due_of = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(i) / rate_per_s));
  };
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      LoopResult& mine = parts[t];
      mine.late_us.reserve(count / threads + 1);
      for (std::size_t i = t; i < count; i += threads) {
        const Clock::time_point due = due_of(i);
        pace_until(due);
        const Clock::time_point sent = Clock::now();
        const Outcome outcome = call(t, i);
        mine.tally.merge(outcome.tally);
        mine.late_us.push_back(us_since(due, sent));
        if (outcome.tally.bad() == 0) {
          mine.latency_us[outcome.cls].push_back(us_since(due, outcome.done));
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  LoopResult out;
  for (const auto& part : parts) append(out, part);
  out.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

LoopResult closed_loop(unsigned threads, double seconds, double window_s,
                       const std::function<Outcome(unsigned, std::uint64_t)>& call) {
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds / window_s));
  std::vector<std::atomic<std::uint64_t>> window_ok(windows);
  std::vector<LoopResult> parts(threads);
  const Clock::time_point start = Clock::now();
  const auto window_len = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(window_s));
  const Clock::time_point end = start + window_len * windows;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      LoopResult& mine = parts[t];
      for (std::uint64_t k = 0;; ++k) {
        const Clock::time_point sent = Clock::now();
        if (sent >= end) break;
        const Outcome outcome = call(t, k);
        mine.tally.merge(outcome.tally);
        const auto w = static_cast<std::size_t>((outcome.done - start) / window_len);
        if (w < windows) window_ok[w].fetch_add(outcome.tally.ok, std::memory_order_relaxed);
        if (outcome.tally.bad() == 0) {
          mine.latency_us[outcome.cls].push_back(us_since(sent, outcome.done));
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  LoopResult out;
  for (const auto& part : parts) append(out, part);
  out.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  for (auto& w : window_ok) {
    out.window_ok_per_s.push_back(static_cast<double>(w.load()) / window_s);
  }
  return out;
}

}  // namespace perfbench
