#include "util/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

namespace serdes::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.01);
}

TEST(Rng, UniformRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, BelowIsBoundedAndCoversRange) {
  Rng rng(11);
  std::vector<int> histogram(10, 0);
  for (int i = 0; i < 20000; ++i) {
    const auto v = rng.below(10);
    ASSERT_LT(v, 10u);
    ++histogram[static_cast<std::size_t>(v)];
  }
  for (int count : histogram) {
    EXPECT_NEAR(count, 2000, 300);  // roughly uniform
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  const int n = 100000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, GaussianScaledMoments) {
  Rng rng(17);
  const int n = 50000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian(3.0, 2.0);
    sum += g;
    sum2 += (g - 3.0) * (g - 3.0);
  }
  EXPECT_NEAR(sum / n, 3.0, 0.05);
  EXPECT_NEAR(std::sqrt(sum2 / n), 2.0, 0.05);
}

TEST(Rng, GaussianTailMass) {
  // The ziggurat's wedge/tail rejection must reproduce the normal tails:
  // P(|x|>3) = 2.700e-3 and P(|x|>4) = 6.33e-5.  Binomial 5-sigma bands
  // for n = 2e6 are ±0.18e-3 and ±2.8e-5; the bounds below sit outside
  // them so a statistically correct generator passes for any seed.
  Rng rng(23);
  const int n = 2000000;
  int tail3 = 0;
  int tail4 = 0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    if (std::fabs(g) > 3.0) ++tail3;
    if (std::fabs(g) > 4.0) ++tail4;
  }
  EXPECT_NEAR(tail3 / static_cast<double>(n), 2.700e-3, 0.2e-3);
  EXPECT_NEAR(tail4 / static_cast<double>(n), 6.33e-5, 3.0e-5);
}

TEST(Rng, GaussianDeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 10000; ++i) EXPECT_EQ(a.gaussian(), b.gaussian());
}

/// FNV-1a over the bit patterns of `n` gaussian() draws, and how many of
/// them land beyond the ziggurat's base-layer edge kR.
struct GaussianCorpus {
  std::uint64_t digest = 0xcbf29ce484222325ull;
  std::size_t beyond_r = 0;
};

GaussianCorpus gaussian_corpus(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  GaussianCorpus c;
  for (std::size_t i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    std::uint64_t bits = 0;
    std::memcpy(&bits, &g, sizeof bits);
    for (int shift = 0; shift < 64; shift += 8) {
      c.digest ^= (bits >> shift) & 0xffu;
      c.digest *= 0x100000001b3ull;
    }
    if (std::fabs(g) > zig::kR) ++c.beyond_r;
  }
  return c;
}

TEST(Rng, GaussianStreamPinnedBitForBit) {
  // Every Monte Carlo report depends on the exact deviate stream, sign
  // bits included: 2^20 draws per seed, digested.  Only the slow tail path
  // produces |x| > kR, so a nonzero count shows the corpus covers it.
  struct Pin {
    std::uint64_t seed;
    std::uint64_t digest;
  };
  for (const Pin& pin : {Pin{1, 0x8f42f2068a3925b5ull},
                         Pin{42, 0xfad3bfe708ee774cull},
                         Pin{0x9e3779b97f4a7c15ull, 0xa8b6c22084f37006ull}}) {
    const GaussianCorpus c = gaussian_corpus(pin.seed, std::size_t{1} << 20);
    EXPECT_EQ(c.digest, pin.digest) << "seed " << pin.seed;
    EXPECT_GT(c.beyond_r, 0u) << "seed " << pin.seed;
  }
}

TEST(Rng, ChanceProbability) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 50000; ++i) {
    if (rng.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(hits / 50000.0, 0.25, 0.01);
  Rng rng2(21);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(rng2.chance(0.0));
}

}  // namespace
}  // namespace serdes::util
