#include "analog/filters.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "util/simd.h"

#if SERDES_X86_DISPATCH
#include <immintrin.h>
#endif

namespace serdes::analog {

Waveform& Filter::process(Waveform& w) {
  for (double& s : w.samples()) s = step(s);
  return w;
}

namespace {
/// Validates and, if necessary, pulls the cutoff just below Nyquist.  A pole
/// far above the simulation bandwidth is indistinguishable from "no pole",
/// so clamping (rather than throwing) lets one filter design serve every
/// bit rate the sweeps visit.
util::Hertz check_rates(util::Hertz cutoff, util::Second dt, const char* who) {
  if (cutoff.value() <= 0.0) {
    throw std::invalid_argument(std::string(who) + ": cutoff must be > 0");
  }
  if (dt.value() <= 0.0) {
    throw std::invalid_argument(std::string(who) +
                                ": sample period must be > 0");
  }
  const double nyquist = 0.5 / dt.value();
  if (cutoff.value() >= 0.98 * nyquist) {
    return util::hertz(0.98 * nyquist);
  }
  return cutoff;
}
}  // namespace

OnePoleLowPass::OnePoleLowPass(util::Hertz cutoff, util::Second sample_period)
    : cutoff_(check_rates(cutoff, sample_period, "OnePoleLowPass")) {
  // Bilinear: K = tan(pi*fc*T); y = (K(x+x1) + (1-K) y1) / (1+K)
  const double k =
      std::tan(std::numbers::pi * cutoff_.value() * sample_period.value());
  b_ = k / (1.0 + k);
  a_ = (1.0 - k) / (1.0 + k);
}

namespace {

#if SERDES_X86_DISPATCH
/// Eight-lane one-pole recurrence, two __m256d per sample index.  Multiply
/// and add only (no FMA): each lane sees exactly the add/mul/mul/add
/// sequence of the scalar recurrence, so the results are bit-identical to
/// the portable loop on every CPU.
__attribute__((target("avx2"))) void one_pole_lanes8_avx2(
    double b, double a, const double* in, double* out, std::size_t n,
    double* x1, double* y1) {
  const __m256d vb = _mm256_set1_pd(b);
  const __m256d va = _mm256_set1_pd(a);
  __m256d x1_lo = _mm256_loadu_pd(x1);
  __m256d x1_hi = _mm256_loadu_pd(x1 + 4);
  __m256d y1_lo = _mm256_loadu_pd(y1);
  __m256d y1_hi = _mm256_loadu_pd(y1 + 4);
  for (std::size_t i = 0; i < n; ++i) {
    const __m256d x_lo = _mm256_loadu_pd(in + i * 8);
    const __m256d x_hi = _mm256_loadu_pd(in + i * 8 + 4);
    const __m256d y_lo =
        _mm256_add_pd(_mm256_mul_pd(vb, _mm256_add_pd(x_lo, x1_lo)),
                      _mm256_mul_pd(va, y1_lo));
    const __m256d y_hi =
        _mm256_add_pd(_mm256_mul_pd(vb, _mm256_add_pd(x_hi, x1_hi)),
                      _mm256_mul_pd(va, y1_hi));
    x1_lo = x_lo;
    x1_hi = x_hi;
    y1_lo = y_lo;
    y1_hi = y_hi;
    _mm256_storeu_pd(out + i * 8, y_lo);
    _mm256_storeu_pd(out + i * 8 + 4, y_hi);
  }
  _mm256_storeu_pd(x1, x1_lo);
  _mm256_storeu_pd(x1 + 4, x1_hi);
  _mm256_storeu_pd(y1, y1_lo);
  _mm256_storeu_pd(y1 + 4, y1_hi);
}
#endif

}  // namespace

void OnePoleLowPass::process_lanes(const double* in, double* out,
                                   std::size_t n, std::size_t lanes,
                                   double* x1, double* y1) const {
#if SERDES_X86_DISPATCH
  if (lanes == 8 && util::cpu_has_avx2()) {
    one_pole_lanes8_avx2(b_, a_, in, out, n, x1, y1);
    return;
  }
#endif
  // A local copy keeps the coefficients in registers across the stores.
  const OnePoleLowPass filter = *this;
  for (std::size_t i = 0; i < n; ++i) {
    const double* xi = in + i * lanes;
    double* yi = out + i * lanes;
    for (std::size_t l = 0; l < lanes; ++l) {
      yi[l] = filter.step(xi[l], x1[l], y1[l]);
    }
  }
}

OnePoleHighPass::OnePoleHighPass(util::Hertz cutoff,
                                 util::Second sample_period) {
  const util::Hertz fc = check_rates(cutoff, sample_period, "OnePoleHighPass");
  const double k =
      std::tan(std::numbers::pi * fc.value() * sample_period.value());
  b_ = 1.0 / (1.0 + k);
  a_ = (1.0 - k) / (1.0 + k);
}

BiquadLowPass::BiquadLowPass(util::Hertz cutoff, double q,
                             util::Second sample_period) {
  const util::Hertz fc = check_rates(cutoff, sample_period, "BiquadLowPass");
  if (q <= 0.0) throw std::invalid_argument("BiquadLowPass: Q must be > 0");
  const double w0 =
      2.0 * std::numbers::pi * fc.value() * sample_period.value();
  const double cw = std::cos(w0);
  const double sw = std::sin(w0);
  const double alpha = sw / (2.0 * q);
  const double a0 = 1.0 + alpha;
  b0_ = (1.0 - cw) / 2.0 / a0;
  b1_ = (1.0 - cw) / a0;
  b2_ = b0_;
  a1_ = -2.0 * cw / a0;
  a2_ = (1.0 - alpha) / a0;
}

void BiquadLowPass::process_lanes(const double* in, double* out,
                                  std::size_t n, std::size_t lanes,
                                  double* x1, double* x2, double* y1,
                                  double* y2) const {
  const double b0 = b0_;
  const double b1 = b1_;
  const double b2 = b2_;
  const double a1 = a1_;
  const double a2 = a2_;
  for (std::size_t i = 0; i < n; ++i) {
    const double* xi = in + i * lanes;
    double* yi = out + i * lanes;
    for (std::size_t l = 0; l < lanes; ++l) {
      const double x = xi[l];
      const double y =
          b0 * x + b1 * x1[l] + b2 * x2[l] - a1 * y1[l] - a2 * y2[l];
      x2[l] = x1[l];
      x1[l] = x;
      y2[l] = y1[l];
      y1[l] = y;
      yi[l] = y;
    }
  }
}

FirFilter::FirFilter(std::vector<double> taps) : taps_(std::move(taps)) {
  if (taps_.empty()) throw std::invalid_argument("FirFilter: no taps");
  history_.assign(taps_.size(), 0.0);
}

double FirFilter::step(double x) {
  history_[pos_] = x;
  double acc = 0.0;
  std::size_t idx = pos_;
  for (double tap : taps_) {
    acc += tap * history_[idx];
    idx = (idx == 0) ? history_.size() - 1 : idx - 1;
  }
  pos_ = (pos_ + 1) % history_.size();
  return acc;
}

void FirFilter::reset() {
  history_.assign(taps_.size(), 0.0);
  pos_ = 0;
}

double measure_gain(Filter& filter, util::Hertz freq,
                    util::Second sample_period, int cycles) {
  filter.reset();
  const double w = 2.0 * std::numbers::pi * freq.value();
  const auto samples_per_cycle =
      static_cast<int>(1.0 / (freq.value() * sample_period.value()));
  if (samples_per_cycle < 4) return 0.0;
  const int n = samples_per_cycle * cycles;
  // Run to steady state, then correlate the last half against quadrature
  // references to extract the output amplitude.
  double i_acc = 0.0;
  double q_acc = 0.0;
  int counted = 0;
  for (int k = 0; k < n; ++k) {
    const double t = k * sample_period.value();
    const double y = filter.step(std::sin(w * t));
    if (k >= n / 2) {
      i_acc += y * std::sin(w * t);
      q_acc += y * std::cos(w * t);
      ++counted;
    }
  }
  const double i_avg = i_acc / counted;
  const double q_avg = q_acc / counted;
  return 2.0 * std::sqrt(i_avg * i_avg + q_avg * q_avg);
}

}  // namespace serdes::analog
