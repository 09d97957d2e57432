#include "dsp/convolution.h"

#include <algorithm>
#include <stdexcept>

#include "util/simd.h"

#if SERDES_X86_DISPATCH
#include <immintrin.h>
#endif

namespace serdes::dsp {

namespace {

#if SERDES_X86_DISPATCH
/// Eight-lane MAC sweep: two __m256d accumulators per sample index, the
/// tap broadcast against each lane group.  Multiply then add (no FMA) in
/// ascending tap order, so every lane's sum rounds exactly like the
/// scalar direct kernel.  `x` points at sample 0 of the tile (history
/// behind it at negative sample indices); `lane_stride` is the tap lag in
/// samples.
__attribute__((target("avx2"))) void fir_lanes8_avx2(
    const double* taps, std::size_t ntaps, std::size_t stride,
    const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* xi = x + i * 8;
    __m256d acc_lo = _mm256_setzero_pd();
    __m256d acc_hi = _mm256_setzero_pd();
    for (std::size_t k = 0; k < ntaps; ++k) {
      const __m256d tap = _mm256_set1_pd(taps[k]);
      const double* lag =
          xi - static_cast<std::ptrdiff_t>(k * stride) * 8;
      acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(tap, _mm256_loadu_pd(lag)));
      acc_hi = _mm256_add_pd(acc_hi,
                             _mm256_mul_pd(tap, _mm256_loadu_pd(lag + 4)));
    }
    _mm256_storeu_pd(out + i * 8, acc_lo);
    _mm256_storeu_pd(out + i * 8 + 4, acc_hi);
  }
}
#endif

/// FFT size for a dense response of `m` taps: enough past 2m that the
/// butterflies amortize over a long valid segment, clamped so one segment
/// stays cache-resident — unless the response itself is longer than the
/// clamp, where the transform must simply be big enough to hold it plus a
/// useful segment.
std::size_t pick_fft_size(std::size_t m) {
  const std::size_t ideal =
      std::clamp<std::size_t>(next_pow2(8 * m), 256, 32768);
  // The segment (fft - m + 1 samples per transform pair) must amortize the
  // transforms: below 2m it degenerates — at the extreme to a couple of
  // samples per 32k-point FFT — so outgrow the clamp instead.
  return ideal >= 2 * m ? ideal : next_pow2(2 * m);
}

}  // namespace

OverlapSaveConvolver::OverlapSaveConvolver(const std::vector<double>& taps)
    : taps_(taps.size()),
      segment_(pick_fft_size(taps.size()) - taps.size() + 1),
      rfft_(pick_fft_size(taps.size())) {
  if (taps.empty()) {
    throw std::invalid_argument("OverlapSaveConvolver: no taps");
  }
  if (taps_ >= rfft_.size()) {
    throw std::invalid_argument("OverlapSaveConvolver: taps exceed FFT size");
  }
  work_.assign(rfft_.size(), 0.0);
  std::copy(taps.begin(), taps.end(), work_.begin());
  tap_spectrum_.resize(rfft_.bins());
  spectrum_.resize(rfft_.bins());
  rfft_.forward(work_.data(), tap_spectrum_.data());
}

void OverlapSaveConvolver::process(double* history, const double* in,
                                   double* out, std::size_t n) const {
  const std::size_t m = taps_;
  while (n > 0) {
    const std::size_t len = std::min(n, segment_);
    // work = [history (m-1) | input chunk (len) | zero pad]; the pad only
    // affects outputs beyond the len we take.
    std::copy(history, history + (m - 1), work_.begin());
    std::copy(in, in + len, work_.begin() + (m - 1));
    std::fill(work_.begin() + (m - 1) + len, work_.end(), 0.0);
    // Slide the history forward before writing out (in/out may alias).
    std::copy(work_.begin() + len, work_.begin() + len + (m - 1), history);
    rfft_.forward(work_.data(), spectrum_.data());
    // spectrum *= tap spectrum, spelled out on re/im pairs as the
    // std::complex<double> product computes it (see dsp/fft.h).
    double* s = reinterpret_cast<double*>(spectrum_.data());
    const double* h = reinterpret_cast<const double*>(tap_spectrum_.data());
    for (std::size_t k = 0; k < spectrum_.size(); ++k) {
      const double sr = s[2 * k];
      const double si = s[2 * k + 1];
      const double hr = h[2 * k];
      const double hi = h[2 * k + 1];
      s[2 * k] = sr * hr - si * hi;
      s[2 * k + 1] = sr * hi + si * hr;
    }
    rfft_.inverse(spectrum_.data(), work_.data());
    std::copy(work_.begin() + (m - 1), work_.begin() + (m - 1) + len, out);
    in += len;
    out += len;
    n -= len;
  }
}

BlockFir::BlockFir(std::vector<double> taps, std::size_t stride)
    : BlockFir(std::move(taps), stride, Options{}) {}

BlockFir::BlockFir(std::vector<double> taps, std::size_t stride,
                   Options options)
    : taps_(std::move(taps)),
      stride_(stride),
      span_((taps_.empty() ? 0 : (taps_.size() - 1) * stride) + 1),
      options_(options) {
  if (taps_.empty()) throw std::invalid_argument("BlockFir: no taps");
  if (stride_ < 1) throw std::invalid_argument("BlockFir: stride must be >= 1");
  history_.assign(span_ - 1, 0.0);
}

std::vector<double> BlockFir::dense_taps() const {
  std::vector<double> dense(span_, 0.0);
  for (std::size_t k = 0; k < taps_.size(); ++k) dense[k * stride_] = taps_[k];
  return dense;
}

bool BlockFir::use_fft(std::size_t mac_taps, std::size_t n) {
  // Direct costs ~1 multiply-add per (non-zero) tap per sample; overlap-
  // save costs 50-120 ns/sample nearly independent of tap count (log2(fft)
  // grows one butterfly row per 8x taps).  Measured on x86-64 -O2 (see
  // bench_perf_kernels stage_channel_fir kernels): break-even sits near
  // 100-128 MACs per sample when the block fills at least one segment;
  // short blocks waste whole transforms on mostly-empty segments, so they
  // stay direct.  Chosen conservatively: where the paths tie, the exact
  // direct kernel wins.  These costs were measured with std::complex
  // butterflies; the plain-double ones run overlap-save about 4x faster,
  // but the constants stay: moving the crossover changes which kernel
  // runs, and so the bits of every report whose blocks straddle it.
  constexpr std::size_t kMinMacTaps = 128;
  constexpr std::size_t kMinBlock = 2048;
  return mac_taps >= kMinMacTaps && n >= kMinBlock && n >= 2 * mac_taps;
}

void BlockFir::process(const double* in, double* out, std::size_t n) {
  if (n == 0) return;
  // Beyond ~16 zero lags per real tap the transform (sized by the dense
  // span) outgrows what it saves over the strided MACs, so very sparse
  // responses stay on the direct kernel.
  if (options_.allow_fft && use_fft(taps_.size(), n) &&
      span_ <= 16 * taps_.size()) {
    if (!fft_) fft_ = std::make_unique<OverlapSaveConvolver>(dense_taps());
    fft_->process(history_.data(), in, out, n);
    return;
  }
  process_direct(in, out, n);
}

void BlockFir::process_direct(const double* in, double* out, std::size_t n) {
  const std::size_t hist = span_ - 1;
  scratch_.resize(hist + n);
  std::copy(history_.begin(), history_.end(), scratch_.begin());
  std::copy(in, in + n, scratch_.begin() + hist);
  // Slide the history before writing out (in/out may alias).
  std::copy(scratch_.end() - hist, scratch_.end(), history_.begin());
  const double* x = scratch_.data() + hist;  // x[i] == in[i], x[-k] history
  const double* taps = taps_.data();
  const std::size_t ntaps = taps_.size();
  const std::size_t stride = stride_;
  if (stride == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      const double* xi = x + i;
      double acc = 0.0;
      // Ascending tap order: the exact summation order of the per-sample
      // delay-line FIR this kernel replaces.
      for (std::size_t k = 0; k < ntaps; ++k) acc += taps[k] * xi[-(long)k];
      out[i] = acc;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const double* xi = x + i;
      double acc = 0.0;
      for (std::size_t k = 0; k < ntaps; ++k) {
        acc += taps[k] * xi[-static_cast<long>(k * stride)];
      }
      out[i] = acc;
    }
  }
}

void BlockFir::process_lanes(double* history, const double* in, double* out,
                             std::size_t n, std::size_t lanes) {
  if (n == 0 || lanes == 0) return;
  const std::size_t hist = span_ - 1;
  // [history | block] per lane, interleaved: value (i, l) of the padded
  // stream at lane_scratch_[(i)*lanes + l] with history at i < hist.
  lane_scratch_.resize((hist + n) * lanes);
  std::copy(history, history + hist * lanes, lane_scratch_.begin());
  std::copy(in, in + n * lanes,
            lane_scratch_.begin() + static_cast<std::ptrdiff_t>(hist * lanes));
  // Slide the history before writing out (in/out may alias).
  std::copy(lane_scratch_.end() - static_cast<std::ptrdiff_t>(hist * lanes),
            lane_scratch_.end(), history);
  const double* x = lane_scratch_.data() + hist * lanes;
  const double* taps = taps_.data();
  const std::size_t ntaps = taps_.size();
  const std::size_t stride = stride_;
#if SERDES_X86_DISPATCH
  if (lanes == 8 && util::cpu_has_avx2()) {
    fir_lanes8_avx2(taps, ntaps, stride, x, out, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    const double* xi = x + i * lanes;
    double* yi = out + i * lanes;
    for (std::size_t l = 0; l < lanes; ++l) yi[l] = 0.0;
    // Ascending tap order per lane: the exact summation order of the
    // scalar direct kernel.
    for (std::size_t k = 0; k < ntaps; ++k) {
      const double tap = taps[k];
      const double* lag = xi - static_cast<std::ptrdiff_t>(k * stride * lanes);
      for (std::size_t l = 0; l < lanes; ++l) yi[l] += tap * lag[l];
    }
  }
}

void BlockFir::reset() {
  std::fill(history_.begin(), history_.end(), 0.0);
}

}  // namespace serdes::dsp
