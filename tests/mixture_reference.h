// IsiMixture::build as plain loops, for the tests and the benches.
//
// The library's build visits only the grid bins that can hold mass, reads
// the interior without bounds checks and merges the exact sums instead of
// sorting them.  These loops do the same arithmetic the plain way: every
// 2^n sum pushed back and then sorted, or every grid bin of every cursor's
// pass read through a bounds check.  tests/stat_engine_test.cc pins the
// library to them bit for bit, and bench_perf_kernels times the grid loop
// (stat_mixture_grid_plain) against the library's build of the same
// mixture (stat_mixture_grid_build).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "stat/stat_engine.h"

namespace serdes::mixture_reference {

struct PlainMixture {
  std::vector<double> value, prob, cum;
  bool exact = true;
};

/// IsiMixture::build as a plain loop: every 2^n sum pushed back and then
/// sorted, or every grid bin read through a bounds check.
inline PlainMixture plain_mixture(const std::vector<double>& cursors,
                                  const stat::IsiMixture::Options& options) {
  std::vector<double> half;
  for (const double c : cursors) {
    if (c != 0.0) half.push_back(0.5 * std::fabs(c));
  }
  PlainMixture mix;
  const int n = static_cast<int>(half.size());
  if (n <= options.max_exact_bits) {
    mix.value.assign(1, 0.0);
    for (const double c : half) {
      std::vector<double> next;
      for (const double v : mix.value) {
        next.push_back(v - c);
        next.push_back(v + c);
      }
      mix.value = std::move(next);
    }
    std::sort(mix.value.begin(), mix.value.end());
    mix.prob.assign(mix.value.size(),
                    1.0 / static_cast<double>(mix.value.size()));
  } else {
    mix.exact = false;
    double reach = 0.0;
    for (const double c : half) reach += c;
    const int bins = std::max(options.grid_bins, 2 * n + 41) | 1;
    const double step =
        2.0 * reach / static_cast<double>(bins - 1 - 2 * (n + 2));
    const int center = bins / 2;
    std::vector<double> pdf(static_cast<std::size_t>(bins), 0.0);
    std::vector<double> scratch(pdf.size(), 0.0);
    pdf[static_cast<std::size_t>(center)] = 1.0;
    const auto at = [&](std::ptrdiff_t i) -> double {
      return (i >= 0 && i < static_cast<std::ptrdiff_t>(pdf.size()))
                 ? pdf.at(static_cast<std::size_t>(i))
                 : 0.0;
    };
    for (const double c : half) {
      const double s = c / step;
      const auto lo = static_cast<std::ptrdiff_t>(std::floor(s));
      const double frac = s - static_cast<double>(lo);
      for (std::ptrdiff_t i = 0; i < bins; ++i) {
        const double plus = (1.0 - frac) * at(i - lo) + frac * at(i - lo - 1);
        const double minus = (1.0 - frac) * at(i + lo) + frac * at(i + lo + 1);
        scratch.at(static_cast<std::size_t>(i)) = 0.5 * (plus + minus);
      }
      pdf.swap(scratch);
    }
    for (int i = 0; i < bins; ++i) {
      const double p = pdf[static_cast<std::size_t>(i)];
      if (p <= 0.0) continue;
      mix.value.push_back(static_cast<double>(i - center) * step);
      mix.prob.push_back(p);
    }
    if (mix.value.empty()) {
      mix.value.assign(1, 0.0);
      mix.prob.assign(1, 1.0);
    }
  }
  double total = 0.0;
  for (const double p : mix.prob) total += p;
  double run = 0.0;
  for (double& p : mix.prob) {
    p /= total;
    run += p;
    mix.cum.push_back(run);
  }
  return mix;
}

}  // namespace serdes::mixture_reference
