// Iterative radix-2 FFT kernels for the block-convolution engine.
//
// The streaming datapath's long FIR channels (measured backplane taps,
// truncated lossy-line impulse responses) are convolved per block; above a
// measured tap-count/block-size crossover an overlap-save FFT convolution
// (see convolution.h) beats the direct kernel, and these plans supply the
// transforms it needs.  A size's bit-reversal swaps, per-stage twiddle
// tables and real-transform unpack table never change, so they are built
// once per process and shared read-only by every plan of that size (one
// mutex-guarded memo per table kind, never evicted; sizes are powers of
// two, so it stays small).  A plan object is a handle to those tables plus,
// for RealFft, its own scratch — per-block work is pure butterflies over
// contiguous arrays.
//
// The butterflies run on plain doubles with exactly the operations
// std::complex<double> multiplication performs for finite operands
// (re = a*c - b*d, im = a*d + b*c), in the same order, without its NaN
// recovery branch: outputs are bit-identical to the complex-typed kernels
// they replaced (pinned by FftPin.* in tests/dsp_fft_test.cc).
//
// `RealFft` packs a real signal of even length n into an n/2-point complex
// transform and untangles the half-spectrum, halving the butterfly work the
// convolver pays per block.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace serdes::dsp {

/// Returns the smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

/// In-place complex FFT plan for one power-of-two size.  Cheap to build:
/// the tables come from the process-wide per-size memo.
class Fft {
 public:
  /// `n` must be a power of two >= 1.
  explicit Fft(std::size_t n);

  /// In-place forward DFT: X[k] = sum_j x[j] e^{-2πi jk/n}.
  void forward(std::complex<double>* data) const;

  /// In-place inverse DFT including the 1/n normalization.
  void inverse(std::complex<double>* data) const;

  [[nodiscard]] std::size_t size() const { return n_; }

 private:
  /// A size's shared tables (defined in fft.cc).
  struct Plan;

  void transform(std::complex<double>* data, const double* twiddles) const;

  std::size_t n_;
  const Plan* plan_ = nullptr;  // shared per size, never freed
};

/// Real-signal FFT of even power-of-two length n, via an n/2-point complex
/// transform.  The spectrum is the non-redundant half: n/2 + 1 bins.
class RealFft {
 public:
  /// `n` must be a power of two >= 2.
  explicit RealFft(std::size_t n);

  /// Forward transform of `in[0..n)` into `spectrum[0..n/2]`.
  void forward(const double* in, std::complex<double>* spectrum) const;

  /// Inverse of `forward`: `spectrum[0..n/2]` back to `out[0..n)`,
  /// normalized (forward then inverse reproduces the input).
  void inverse(const std::complex<double>* spectrum, double* out) const;

  [[nodiscard]] std::size_t size() const { return n_; }
  /// Number of spectrum bins (n/2 + 1).
  [[nodiscard]] std::size_t bins() const { return n_ / 2 + 1; }

 private:
  std::size_t n_;
  Fft half_;
  /// e^{-2πi k/n} for k <= n/2, re/im interleaved; shared per size.
  const std::vector<double>* unpack_ = nullptr;
  mutable std::vector<std::complex<double>> work_;
};

}  // namespace serdes::dsp
