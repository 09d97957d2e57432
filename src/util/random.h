// Deterministic, fast random number generation for simulations.
//
// All stochastic pieces of the simulator (noise injection, jitter, random
// payloads) draw from an explicitly seeded Rng so that every experiment is
// reproducible run-to-run.  The generator is xoshiro256**, which is far
// faster than std::mt19937_64 and has excellent statistical quality for
// Monte-Carlo style workloads.
//
// Everything on the hot path is defined inline here: the AWGN stage burns
// one gaussian per waveform sample and the sampler/jitter chain several
// per UI, so these must fold into their calling loops.  gaussian() is a
// 256-layer ziggurat — one u64 draw, a table compare and a multiply on
// ~98% of calls, with the wedge/tail rejection (the only transcendental
// math) out of line.  It replaces the seed repo's Box-Muller: the stream
// of deviates for a given seed differs, but it is exactly standard-normal
// and deterministic, and it costs ~6x less than log+sqrt+sincos per pair.
//
// No branch on random bits in the fast path: a data-dependent 50/50
// branch mispredicts on half the draws, so the sign is XORed into the
// deviate's sign bit instead.  The only branch left is the ~98%-taken
// layer compare.
#pragma once

#include <bit>
#include <cstdint>

#include "util/ziggurat_tables.h"

namespace serdes::util {

/// xoshiro256** by Blackman & Vigna (public domain reference algorithm).
class Rng {
 public:
  /// Seeds the full 256-bit state from a 64-bit seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Uniform 64-bit integer.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double uniform() {
    // 53 high bits → double in [0,1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t below(std::uint64_t n);

  /// Standard normal via the 256-layer ziggurat.  The fast path spends a
  /// single u64: bits 0-7 pick the layer, bit 8 the sign, bits 11-63 the
  /// position — disjoint, so they are independent.  Bit 8 shifted up 55
  /// lands on the IEEE sign bit; `x` is never negative or NaN, so the XOR
  /// is exactly the negation `-x` (+0 -> -0 included), without a branch.
  double gaussian() {
    for (;;) {
      const std::uint64_t u = next_u64();
      const std::size_t layer = static_cast<std::size_t>(u & 255u);
      const double x =
          static_cast<double>(u >> 11) * 0x1.0p-53 * zig::kX[layer];
      if (x < zig::kX[layer + 1]) {
        return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) ^
                                     ((u & 256u) << 55));
      }
      double out;
      if (gaussian_edge(layer, x, (u & 256u) != 0, &out)) return out;
    }
  }

  /// Normal with given mean and standard deviation.
  double gaussian(double mean, double sigma) {
    return mean + sigma * gaussian();
  }

  /// Bernoulli trial.
  bool chance(double probability) { return uniform() < probability; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  /// Ziggurat slow path: layer-0 tail beyond kR, or the wedge between a
  /// layer's edge and the density.  Returns false to redraw.
  bool gaussian_edge(std::size_t layer, double x, bool negative, double* out);

  std::uint64_t state_[4];
};

}  // namespace serdes::util
