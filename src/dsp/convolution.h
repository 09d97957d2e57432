// Block convolution engine for the streaming datapath.
//
// Two kernels over the same stateful contract (last span-1 input samples
// carried across calls, so any block chunking is causal and seamless):
//
//   * direct — contiguous [history | block] workspace walked with the tap
//     loads hoisted; for UI-spaced (zero-stuffed) responses the taps are
//     kept in strided form so the zero lags cost nothing.  Bit-identical
//     to the classic per-sample delay-line FIR.
//   * overlap-save FFT — precomputed tap spectrum, one forward/inverse
//     real FFT per segment.  Engaged by BlockFir only above the measured
//     tap-count/block-size crossover (see BlockFir::use_fft), and accurate
//     to ~1e-15 relative (the engine's contract is <= 1e-12 RMS against
//     direct convolution).
//
// BlockFir picks between them per call; channels expose the choice through
// the `dsp` toggle on LinkConfig/LinkSpec (exact direct kernels stay the
// default).
#pragma once

#include <complex>
#include <cstddef>
#include <memory>
#include <vector>

#include "dsp/fft.h"

namespace serdes::dsp {

/// Overlap-save convolution with a precomputed tap spectrum.  Stateless
/// with respect to the stream: the caller owns the history (the trailing
/// taps-1 input samples) so it can share one history between this and the
/// direct kernel.  The transform tables are the process-wide ones of its
/// FFT size (dsp/fft.h), so a convolver owns only its tap spectrum and
/// scratch, and opening one per stream costs one tap transform.
class OverlapSaveConvolver {
 public:
  /// `taps` is the dense impulse response (length >= 1).
  explicit OverlapSaveConvolver(const std::vector<double>& taps);

  /// Convolves `n` samples.  `history` holds the taps-1 samples preceding
  /// `in` on entry and the taps-1 samples preceding the next call's input
  /// on exit.  `in` and `out` may alias.
  void process(double* history, const double* in, double* out,
               std::size_t n) const;

  [[nodiscard]] std::size_t fft_size() const { return rfft_.size(); }
  /// Samples convolved per FFT round.
  [[nodiscard]] std::size_t segment() const { return segment_; }
  [[nodiscard]] std::size_t tap_count() const { return taps_; }

 private:
  std::size_t taps_;
  std::size_t segment_;
  RealFft rfft_;
  std::vector<std::complex<double>> tap_spectrum_;
  mutable std::vector<std::complex<double>> spectrum_;
  mutable std::vector<double> work_;
};

/// Stateful block FIR: direct kernel below the FFT crossover, overlap-save
/// above it.  Taps may be given in strided (UI-spaced) form: tap k applies
/// at lag k*stride, which skips the zero-stuffed lags entirely in the
/// direct kernel.
class BlockFir {
 public:
  struct Options {
    /// Allow the overlap-save path above the crossover.  Off = the exact
    /// direct kernel always runs (bit-identical to per-sample stepping).
    bool allow_fft = false;
  };

  BlockFir(std::vector<double> taps, std::size_t stride);
  BlockFir(std::vector<double> taps, std::size_t stride, Options options);

  /// Convolves one block, carrying state; `in`/`out` may alias.
  void process(const double* in, double* out, std::size_t n);

  /// Lane-batched direct kernel over an interleaved SoA tile — value
  /// (i, l) at in[i * lanes + l] — with caller-owned interleaved history:
  /// on entry `history` holds the span-1 samples preceding `in` for every
  /// lane (value (k, l) at history[k * lanes + l]), on exit the span-1
  /// samples preceding the next call's input.  Always the exact direct
  /// kernel with the scalar path's ascending-tap MAC order, so lane l of
  /// a tile is bit-identical to a scalar BlockFir over lane l at any
  /// block chunking (no FFT crossover: the lane axis already saturates
  /// the vector units — explicit AVX2 non-FMA MACs for lanes == 8).
  /// `in` and `out` may alias.
  void process_lanes(double* history, const double* in, double* out,
                     std::size_t n, std::size_t lanes);

  /// Returns to the zero-history start-of-stream state.
  void reset();

  /// The crossover: true when the overlap-save path is expected to beat
  /// the direct kernel for `mac_taps` multiplies per sample over an
  /// `n`-sample block.  Constants measured by bench_perf_kernels
  /// (stage_channel_fir* kernels) on x86-64 -O2.
  static bool use_fft(std::size_t mac_taps, std::size_t n);

  [[nodiscard]] std::size_t span() const { return span_; }
  [[nodiscard]] const std::vector<double>& taps() const { return taps_; }
  [[nodiscard]] std::size_t stride() const { return stride_; }
  /// Dense (zero-stuffed) form of the strided taps.
  [[nodiscard]] std::vector<double> dense_taps() const;

 private:
  void process_direct(const double* in, double* out, std::size_t n);

  std::vector<double> taps_;
  std::size_t stride_;
  std::size_t span_;  // dense response length: (taps-1)*stride + 1
  Options options_;
  std::vector<double> history_;  // last span-1 inputs
  std::vector<double> scratch_;  // [history | block] workspace
  std::vector<double> lane_scratch_;  // [history | block] x lanes workspace
  std::unique_ptr<OverlapSaveConvolver> fft_;  // built on first FFT use
};

}  // namespace serdes::dsp
