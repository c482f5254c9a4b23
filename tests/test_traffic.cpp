#include "interconnect/traffic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>

namespace mpct::interconnect {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, GoldenStreamIsStable) {
  // Golden values captured before the generator was hoisted into
  // core/rng.hpp: the shared Rng must keep every pre-existing traffic
  // stream bit-identical, so these constants must never change.
  Rng seed1(1);
  EXPECT_EQ(seed1.next(), 0x47e4ce4b896cdd1dULL);
  EXPECT_EQ(seed1.next(), 0xabcfa6a8e079651dULL);
  EXPECT_EQ(seed1.next(), 0xb9d10d8feb731f57ULL);
  EXPECT_EQ(seed1.next(), 0x4db418a0bb1b019dULL);
  Rng seed0(0);  // zero seed substitutes the golden-ratio constant
  EXPECT_EQ(seed0.next(), 0x0d83b3e29a21487aULL);
  EXPECT_EQ(seed0.next(), 0x54c44c79f1fe9d67ULL);
  Rng fuzz_seed(2012);
  EXPECT_EQ(fuzz_seed.next(), 0xfef2afe4bc77d1dfULL);
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, ZeroSeedIsUsable) {
  Rng rng(0);
  EXPECT_NE(rng.next(), 0u);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(13), 13u);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(99);
  std::map<std::uint64_t, int> histogram;
  const int samples = 80000;
  for (int i = 0; i < samples; ++i) {
    ++histogram[rng.next_below(8)];
  }
  for (const auto& [bucket, count] : histogram) {
    EXPECT_NEAR(count, samples / 8.0, samples * 0.01) << bucket;
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

// The integer Bernoulli threshold is the one definition of a fault draw
// (sample_faults and the curve kernel both use it); it must agree with
// `next_double() < rate` exactly, including at the threshold's edges.
TEST(Rng, BernoulliThresholdMatchesNextDouble) {
  constexpr std::uint64_t kOne = std::uint64_t{1} << 53;
  const double rates[] = {0.0,
                          -0.0,
                          1.0,
                          1.5,
                          -0.25,
                          5e-324,
                          0.25,
                          std::nextafter(0.25, 0.0),
                          std::nextafter(1.0, 0.0),
                          0.1,
                          0.3,
                          std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()};
  for (const double rate : rates) {
    const std::uint64_t threshold = Rng::bernoulli_threshold(rate);
    ASSERT_LE(threshold, kOne) << rate;
    for (const std::uint64_t k : {threshold - 1, threshold, threshold + 1}) {
      if (k >= kOne) continue;  // wrapped below 0, or past the 53-bit range
      const std::uint64_t x = (k << 11) | 0x5a5;  // low bits are discarded
      EXPECT_EQ(Rng::bernoulli_hit(x, threshold), Rng::unit_double(x) < rate)
          << "rate " << rate << ", k " << k;
    }
    for (const std::uint64_t seed : {1ULL, 2012ULL}) {
      Rng integer(seed), floating(seed);
      for (int i = 0; i < 2000; ++i) {
        ASSERT_EQ(integer.bernoulli(threshold), floating.next_double() < rate)
            << "rate " << rate << ", seed " << seed << ", draw " << i;
      }
    }
  }
  EXPECT_EQ(Rng::bernoulli_threshold(5e-324), 1u);
  EXPECT_EQ(Rng::bernoulli_threshold(0.25), kOne / 4);
  EXPECT_EQ(Rng::bernoulli_threshold(std::nextafter(0.25, 0.0)), kOne / 4);
  EXPECT_EQ(Rng::bernoulli_threshold(1.5), kOne);
  EXPECT_EQ(Rng::bernoulli_threshold(-0.25), 0u);
  EXPECT_EQ(Rng::bernoulli_threshold(
                std::numeric_limits<double>::quiet_NaN()),
            0u);
}

TEST(Traffic, UniformIsDeterministic) {
  MeshNoc mesh(4, 4);
  TrafficParams params;
  params.cycles = 100;
  params.rate = 0.1;
  params.seed = 3;
  const auto a = uniform_traffic(mesh, params);
  const auto b = uniform_traffic(mesh, params);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
    EXPECT_EQ(a[i].inject_cycle, b[i].inject_cycle);
  }
}

TEST(Traffic, RateControlsVolume) {
  MeshNoc mesh(4, 4);
  TrafficParams low{.cycles = 500, .rate = 0.02, .seed = 1};
  TrafficParams high{.cycles = 500, .rate = 0.2, .seed = 1};
  const auto few = uniform_traffic(mesh, low);
  const auto many = uniform_traffic(mesh, high);
  EXPECT_GT(many.size(), few.size() * 5);
  // Expected volume: nodes * cycles * rate, within 20%.
  const double expected = 16 * 500 * 0.2;
  EXPECT_NEAR(static_cast<double>(many.size()), expected, expected * 0.2);
}

TEST(Traffic, NoSelfAddressedPackets) {
  MeshNoc mesh(4, 4);
  TrafficParams params{.cycles = 200, .rate = 0.2, .seed = 11};
  for (const Packet& p : uniform_traffic(mesh, params)) {
    EXPECT_NE(p.src, p.dst);
  }
  for (const Packet& p : hotspot_traffic(mesh, params, 0, 0.5)) {
    EXPECT_NE(p.src, p.dst);
  }
}

TEST(Traffic, HotspotConcentratesOnHotNode) {
  MeshNoc mesh(4, 4);
  TrafficParams params{.cycles = 500, .rate = 0.2, .seed = 17};
  const int hot = 5;
  const auto packets = hotspot_traffic(mesh, params, hot, 0.7);
  int to_hot = 0;
  for (const Packet& p : packets) {
    if (p.dst == hot) ++to_hot;
  }
  EXPECT_GT(to_hot, static_cast<int>(packets.size()) / 2);
}

TEST(Traffic, NeighborTargetsSuccessor) {
  MeshNoc mesh(4, 2);
  TrafficParams params{.cycles = 50, .rate = 0.5, .seed = 23};
  for (const Packet& p : neighbor_traffic(mesh, params)) {
    EXPECT_EQ(p.dst, (p.src + 1) % mesh.node_count());
  }
}

TEST(Traffic, TransposeSwapsCoordinates) {
  MeshNoc mesh(4, 4);
  TrafficParams params{.cycles = 50, .rate = 0.5, .seed = 29};
  for (const Packet& p : transpose_traffic(mesh, params)) {
    EXPECT_EQ(mesh.x_of(p.dst), mesh.y_of(p.src));
    EXPECT_EQ(mesh.y_of(p.dst), mesh.x_of(p.src));
  }
}

TEST(Traffic, InjectionCyclesWithinWindow) {
  MeshNoc mesh(4, 4);
  TrafficParams params{.cycles = 100, .rate = 0.1, .seed = 31};
  for (const Packet& p : uniform_traffic(mesh, params)) {
    EXPECT_GE(p.inject_cycle, 0);
    EXPECT_LT(p.inject_cycle, 100);
  }
}

TEST(TrafficIntegration, UniformLoadDeliversOnLargeMesh) {
  // End-to-end smoke: moderate uniform load on an 8x8 mesh fully drains.
  MeshNoc mesh(8, 8);
  TrafficParams params{.cycles = 200, .rate = 0.05, .seed = 41};
  auto packets = uniform_traffic(mesh, params);
  ASSERT_FALSE(packets.empty());
  const auto stats = mesh.simulate(packets, 100000);
  EXPECT_EQ(stats.undelivered, 0);
  EXPECT_GE(stats.avg_latency, 1.0);
}

}  // namespace
}  // namespace mpct::interconnect
