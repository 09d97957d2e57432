#include "dsp/fft.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <numbers>
#include <stdexcept>
#include <utility>

namespace serdes::dsp {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

namespace {

bool is_pow2(std::size_t n) { return n > 0 && (n & (n - 1)) == 0; }

/// e^{-2πi k/n}: the one twiddle expression every table is built from.
double twiddle_angle(std::size_t k, std::size_t n) {
  return -2.0 * std::numbers::pi * static_cast<double>(k) /
         static_cast<double>(n);
}

/// One `Table` per size for the life of the process.  The first request
/// for a size builds it under the lock; entries are never changed or
/// evicted, so the returned reference stays valid and is read without it.
template <class Table>
const Table& shared_table(std::size_t n) {
  static std::mutex mutex;
  static std::map<std::size_t, Table> memo;
  const std::lock_guard<std::mutex> lock(mutex);
  return memo.try_emplace(n, n).first->second;
}

/// RealFft's unpack table: e^{-2πi k/n} for k <= n/2, re/im interleaved.
struct UnpackTable {
  explicit UnpackTable(std::size_t n) : w(n + 2) {
    for (std::size_t k = 0; k <= n / 2; ++k) {
      const double a = twiddle_angle(k, n);
      w[2 * k] = std::cos(a);
      w[2 * k + 1] = std::sin(a);
    }
  }
  std::vector<double> w;
};

}  // namespace

struct Fft::Plan {
  explicit Plan(std::size_t n) {
    std::size_t bits = 0;
    while ((std::size_t{1} << bits) < n) ++bits;
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t r = 0;
      for (std::size_t b = 0; b < bits; ++b) {
        r |= ((i >> b) & 1) << (bits - 1 - b);
      }
      if (r > i) swaps.emplace_back(i, r);
    }
    // Stage `half` reads twiddle k * (n / 2half) for k < half; the stages'
    // reads are copied back to back (half = 1, 2, 4, ...: n - 1 values).
    std::vector<double> cos_k(n / 2);
    std::vector<double> sin_k(n / 2);
    for (std::size_t k = 0; k < n / 2; ++k) {
      const double a = twiddle_angle(k, n);
      cos_k[k] = std::cos(a);
      sin_k[k] = std::sin(a);
    }
    for (std::size_t half = 1; half < n; half <<= 1) {
      const std::size_t step = n / (2 * half);
      for (std::size_t k = 0; k < half; ++k) {
        fwd.push_back(cos_k[k * step]);
        fwd.push_back(sin_k[k * step]);
        inv.push_back(cos_k[k * step]);
        inv.push_back(-sin_k[k * step]);
      }
    }
  }

  /// Bit-reversal permutation as its (i, r) swaps with r > i, ascending i.
  std::vector<std::pair<std::size_t, std::size_t>> swaps;
  /// Per-stage twiddles, re/im interleaved: e^{-2πi k/n} and e^{+2πi k/n}.
  std::vector<double> fwd;
  std::vector<double> inv;
};

Fft::Fft(std::size_t n) : n_(n) {
  if (!is_pow2(n)) throw std::invalid_argument("Fft: size must be 2^k");
  plan_ = &shared_table<Plan>(n);
}

void Fft::transform(std::complex<double>* data, const double* twiddles) const {
  for (const auto& [i, r] : plan_->swaps) std::swap(data[i], data[r]);
  // Complex values as re/im pairs of doubles (the layout std::complex
  // guarantees).  Each butterfly is u +/- x*w with the product spelled
  // out as std::complex<double> multiplication computes it.
  double* d = reinterpret_cast<double*>(data);
  const std::size_t n = n_;
  const double* w = twiddles;
  for (std::size_t half = 1; half < n; half <<= 1) {
    for (std::size_t base = 0; base < n; base += 2 * half) {
      double* lo = d + 2 * base;
      double* hi = lo + 2 * half;
      for (std::size_t k = 0; k < half; ++k) {
        const double wr = w[2 * k];
        const double wi = w[2 * k + 1];
        const double xr = hi[2 * k];
        const double xi = hi[2 * k + 1];
        const double tr = xr * wr - xi * wi;
        const double ti = xr * wi + xi * wr;
        const double ur = lo[2 * k];
        const double ui = lo[2 * k + 1];
        lo[2 * k] = ur + tr;
        lo[2 * k + 1] = ui + ti;
        hi[2 * k] = ur - tr;
        hi[2 * k + 1] = ui - ti;
      }
    }
    w += 2 * half;
  }
}

void Fft::forward(std::complex<double>* data) const {
  transform(data, plan_->fwd.data());
}

void Fft::inverse(std::complex<double>* data) const {
  transform(data, plan_->inv.data());
  const double scale = 1.0 / static_cast<double>(n_);
  double* d = reinterpret_cast<double*>(data);
  for (std::size_t i = 0; i < 2 * n_; ++i) d[i] *= scale;
}

RealFft::RealFft(std::size_t n) : n_(n), half_(n / 2) {
  if (!is_pow2(n) || n < 2) {
    throw std::invalid_argument("RealFft: size must be 2^k >= 2");
  }
  unpack_ = &shared_table<UnpackTable>(n).w;
  work_.resize(n / 2);
}

void RealFft::forward(const double* in, std::complex<double>* spectrum) const {
  const std::size_t m = n_ / 2;
  double* z = reinterpret_cast<double*>(work_.data());
  std::copy(in, in + n_, z);
  half_.forward(work_.data());
  // Untangle the packed transform: with E/O the spectra of the even/odd
  // sample streams, Z[k] = E[k] + i O[k] and X[k] = E[k] + W^k O[k]:
  //   even = 0.5 * (Z[k] + conj(Z[m-k])),
  //   odd  = (0 - 0.5i) * (Z[k] - conj(Z[m-k])),
  // every product with its constant factor kept (0.0 * x rounds signed
  // zeros as the complex product did).
  const double* w = unpack_->data();
  double* x = reinterpret_cast<double*>(spectrum);
  for (std::size_t k = 0; k <= m; ++k) {
    const std::size_t a = k == m ? 0 : k;
    const std::size_t b = k == 0 ? 0 : m - k;
    const double zk_re = z[2 * a];
    const double zk_im = z[2 * a + 1];
    const double zr_re = z[2 * b];
    const double zr_im = -z[2 * b + 1];
    const double even_re = 0.5 * (zk_re + zr_re);
    const double even_im = 0.5 * (zk_im + zr_im);
    const double d_re = zk_re - zr_re;
    const double d_im = zk_im - zr_im;
    const double odd_re = 0.0 * d_re - -0.5 * d_im;
    const double odd_im = 0.0 * d_im + -0.5 * d_re;
    const double wr = w[2 * k];
    const double wi = w[2 * k + 1];
    x[2 * k] = even_re + (wr * odd_re - wi * odd_im);
    x[2 * k + 1] = even_im + (wr * odd_im + wi * odd_re);
  }
}

void RealFft::inverse(const std::complex<double>* spectrum,
                      double* out) const {
  const std::size_t m = n_ / 2;
  // Re-tangle: E[k] = (X[k] + conj(X[m-k]))/2, O[k] = conj(W^k)/2 *
  // (X[k] - conj(X[m-k])), then Z[k] = E[k] + i O[k] — again with every
  // constant factor's products kept.
  const double* w = unpack_->data();
  const double* x = reinterpret_cast<const double*>(spectrum);
  double* z = reinterpret_cast<double*>(work_.data());
  for (std::size_t k = 0; k < m; ++k) {
    const double xk_re = x[2 * k];
    const double xk_im = x[2 * k + 1];
    const double xr_re = x[2 * (m - k)];
    const double xr_im = -x[2 * (m - k) + 1];
    const double even_re = 0.5 * (xk_re + xr_re);
    const double even_im = 0.5 * (xk_im + xr_im);
    const double d_re = xk_re - xr_re;
    const double d_im = xk_im - xr_im;
    const double c_re = 0.5 * w[2 * k];
    const double c_im = 0.5 * -w[2 * k + 1];
    const double odd_re = c_re * d_re - c_im * d_im;
    const double odd_im = c_re * d_im + c_im * d_re;
    z[2 * k] = even_re + (0.0 * odd_re - 1.0 * odd_im);
    z[2 * k + 1] = even_im + (0.0 * odd_im + 1.0 * odd_re);
  }
  half_.inverse(work_.data());
  std::copy(z, z + n_, out);
}

}  // namespace serdes::dsp
