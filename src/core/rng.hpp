#pragma once

#include <cmath>
#include <cstdint>

namespace mpct {

/// Small deterministic PRNG (xorshift64*, Vigna) shared by every seeded
/// sampler in the library: NoC traffic generation (interconnect/traffic),
/// fault sampling (fault/fault_model) and the randomised property tests.
/// One generator means one reproducibility contract: the same seed
/// produces the same stream bit-exactly on every platform — no dependence
/// on std::random distributions, whose outputs are implementation-defined.
///
/// Hoisted from interconnect/traffic so the fault engine does not have to
/// link the interconnect simulators to draw reproducible samples; the
/// algorithm and the zero-seed substitution constant are unchanged, so
/// pre-existing traffic streams are bit-identical for every seed
/// (tests/test_traffic.cpp pins the stream for the default seeds).
class Rng {
 public:
  explicit Rng(std::uint64_t seed)
      : state_(seed ? seed : 0x9e3779b97f4a7c15ULL) {}

  std::uint64_t next() {
    // xorshift64* (Vigna): passes BigCrush small-state tests, plenty for
    // workload generation and Monte-Carlo fault sampling.
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545F4914F6CDD1DULL;
  }

  /// Uniform integer in [0, bound).
  std::uint64_t next_below(std::uint64_t bound) {
    if (bound == 0) return 0;
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = ~0ULL - ~0ULL % bound;
    std::uint64_t value = next();
    while (value >= limit) value = next();
    return value % bound;
  }

  /// Uniform double in [0, 1).
  double next_double() { return unit_double(next()); }

  /// The double next_double() makes of the raw draw @p x: its 53 high
  /// bits scaled into [0, 1).
  static double unit_double(std::uint64_t x) {
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  }

  /// Integer form of the Bernoulli test `next_double() < rate`: the draw
  /// x hits exactly when `(x >> 11) < bernoulli_threshold(rate)`.  Both
  /// sides of `k * 2^-53 < rate` are exact doubles for every 53-bit k, so
  /// the test is `k < rate * 2^53`, i.e. `k < ceil(rate * 2^53)` (the
  /// power-of-two scaling and the ceil are exact too).  NaN and rates
  /// <= 0 never hit (threshold 0); rates >= 1 always do (2^53).
  static std::uint64_t bernoulli_threshold(double rate) {
    if (!(rate > 0)) return 0;
    if (rate >= 1) return std::uint64_t{1} << 53;
    return static_cast<std::uint64_t>(std::ceil(rate * 0x1.0p53));
  }

  /// Whether the raw draw @p x hits a bernoulli_threshold().
  static bool bernoulli_hit(std::uint64_t x, std::uint64_t threshold) {
    return (x >> 11) < threshold;
  }

  /// One Bernoulli draw: consumes one step of the stream, like
  /// `next_double() < rate` with threshold = bernoulli_threshold(rate).
  bool bernoulli(std::uint64_t threshold) {
    return bernoulli_hit(next(), threshold);
  }

  /// Seed for a statistically independent child stream: splitmix64
  /// finalisation over (base, stream).  Chunk-parallel Monte-Carlo sweeps
  /// seed every trial with derive_seed(base, trial_index), so the stream
  /// a trial consumes depends only on its index — never on which worker
  /// ran it or how the trial range was chunked (the thread-count
  /// invariance the fault curves are test-bound to).
  static std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream) {
    std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

}  // namespace mpct
