#include "core/eye.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace serdes::core {

EyeAnalyzer::EyeAnalyzer(util::Hertz bit_rate, int bins_per_ui)
    : ui_(util::period(bit_rate)), bins_(bins_per_ui) {
  if (bins_per_ui < 8) {
    throw std::invalid_argument("EyeAnalyzer: need >= 8 bins per UI");
  }
  offsets_.resize(static_cast<std::size_t>(bins_));
  for (int b = 0; b < bins_; ++b) {
    offsets_[static_cast<std::size_t>(b)] =
        (static_cast<double>(b) + 0.5) * ui_.value() / bins_;
  }
}

EyeAnalyzer::FoldedEye EyeAnalyzer::fold(const analog::Waveform& w,
                                         double threshold,
                                         int skip_uis) const {
  FoldedEye eye;
  eye.high_min.assign(static_cast<std::size_t>(bins_),
                      std::numeric_limits<double>::infinity());
  eye.low_max.assign(static_cast<std::size_t>(bins_),
                     -std::numeric_limits<double>::infinity());

  const double ui = ui_.value();
  const double t_start = w.start_time().value() + skip_uis * ui;
  const double t_end = w.end_time().value();
  const auto total_uis = static_cast<std::int64_t>((t_end - t_start) / ui) - 1;
  // Waveform::value_at per bin, split into passes: the bins' sample
  // indices (the same (t - t0) / dt) in one flat loop the divisions
  // vectorize in, then the interpolated reads, then the envelope update.
  const double w0 = w.start_time().value();
  const double dt = w.sample_period().value();
  const std::size_t bins = static_cast<std::size_t>(bins_);
  const double* offsets = offsets_.data();
  std::vector<double> at(bins);
  double* hm = eye.high_min.data();
  double* lm = eye.low_max.data();
  for (std::int64_t n = 0; n < total_uis; ++n) {
    const double t0 = t_start + static_cast<double>(n) * ui;
    // Classify the UI by its centre sample.
    const bool high = w.value_at(util::seconds(t0 + 0.5 * ui)) > threshold;
    for (std::size_t b = 0; b < bins; ++b) at[b] = (t0 + offsets[b] - w0) / dt;
    for (std::size_t b = 0; b < bins; ++b) at[b] = w.value_at_index(at[b]);
    if (high) {
      for (std::size_t b = 0; b < bins; ++b) hm[b] = std::min(hm[b], at[b]);
    } else {
      for (std::size_t b = 0; b < bins; ++b) lm[b] = std::max(lm[b], at[b]);
    }
  }
  // Bins never hit by one polarity (e.g. all-high pattern): collapse to the
  // threshold so they read as "no opening information".
  for (int b = 0; b < bins_; ++b) {
    auto& hm = eye.high_min[static_cast<std::size_t>(b)];
    auto& lm = eye.low_max[static_cast<std::size_t>(b)];
    if (!std::isfinite(hm)) hm = threshold;
    if (!std::isfinite(lm)) lm = threshold;
  }
  return eye;
}

EyeMetrics EyeAnalyzer::analyze(const analog::Waveform& w, double threshold,
                                int skip_uis) const {
  const FoldedEye eye = fold(w, threshold, skip_uis);
  EyeMetrics m;
  // Vertical opening: maximize (high_min - low_max) over phase.
  int best = bins_ / 2;
  double best_height = -std::numeric_limits<double>::infinity();
  for (int b = 0; b < bins_; ++b) {
    const double h = eye.high_min[static_cast<std::size_t>(b)] -
                     eye.low_max[static_cast<std::size_t>(b)];
    if (h > best_height) {
      best_height = h;
      best = b;
    }
  }
  m.eye_height = best_height;
  m.best_phase_ui = (static_cast<double>(best) + 0.5) / bins_;
  m.high_rail = eye.high_min[static_cast<std::size_t>(best)];
  m.low_rail = eye.low_max[static_cast<std::size_t>(best)];

  // Horizontal opening: contiguous bins around `best` where the eye stays
  // open across the threshold.
  auto open_at = [&](int b) {
    const int idx = ((b % bins_) + bins_) % bins_;
    return eye.high_min[static_cast<std::size_t>(idx)] > threshold &&
           eye.low_max[static_cast<std::size_t>(idx)] < threshold;
  };
  if (open_at(best)) {
    int left = 0;
    while (left < bins_ && open_at(best - left - 1)) ++left;
    int right = 0;
    while (right < bins_ && open_at(best + right + 1)) ++right;
    m.eye_width_ui =
        std::min(1.0, static_cast<double>(left + right + 1) / bins_);
  }
  return m;
}

}  // namespace serdes::core
