#include "digital/cdr.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace serdes::digital {

OversamplingCdr::OversamplingCdr(const CdrConfig& config) : config_(config) {
  if (config.oversampling < 2) {
    throw std::invalid_argument("OversamplingCdr: oversampling must be >= 2");
  }
  if (config.window_uis < 1) {
    throw std::invalid_argument("OversamplingCdr: window_uis must be >= 1");
  }
  // 2 * radius + 1 <= oversampling, written so it cannot overflow.
  if (config.glitch_filter_radius < 0 ||
      config.glitch_filter_radius > (config.oversampling - 1) / 2) {
    throw std::invalid_argument(
        "OversamplingCdr: glitch filter wider than one UI");
  }
  if (config.jitter_hysteresis < 1) {
    throw std::invalid_argument(
        "OversamplingCdr: jitter_hysteresis must be >= 1");
  }
  votes_.assign(static_cast<std::size_t>(config.oversampling), 0);
  // Ring holds enough history for the glitch majority around a decision
  // that happens G samples in the past.
  ring_.assign(static_cast<std::size_t>(4 * config.oversampling), 0);
  // Start sampling mid-UI: with no edges seen yet this is the neutral guess.
  pick_ = config.oversampling / 2;
  next_decision_ = static_cast<std::uint64_t>(pick_);
  window_countdown_ = static_cast<std::uint64_t>(config.oversampling) *
                      static_cast<std::uint64_t>(config.window_uis);
}

bool OversamplingCdr::majority_at(std::uint64_t center) const {
  const int g = config_.glitch_filter_radius;
  int ones = 0;
  const auto size = static_cast<std::uint64_t>(ring_.size());
  for (int off = -g; off <= g; ++off) {
    const std::uint64_t idx = center + static_cast<std::uint64_t>(off);
    ones += ring_[idx % size];
  }
  return ones * 2 > 2 * g + 1;
}

bool OversamplingCdr::aux_majority_at(std::uint64_t center) const {
  const int g = config_.glitch_filter_radius;
  int ones = 0;
  const auto size = static_cast<std::uint64_t>(aux_ring_.size());
  for (int off = -g; off <= g; ++off) {
    const std::uint64_t idx = center + static_cast<std::uint64_t>(off);
    ones += aux_ring_[idx % size];
  }
  return ones * 2 > 2 * g + 1;
}

void OversamplingCdr::evaluate_window() {
  ++windows_;
  const auto n = static_cast<std::size_t>(config_.oversampling);
  // Bit boundary from the circular mean of the edge-vote histogram.  A
  // plain argmax flips between adjacent bins when the (jittered, slewed)
  // edge straddles a bin boundary, and a flip across the UI wrap would
  // teleport the decision phase to the worst sampling point; the circular
  // mean degrades gracefully instead.
  double re = 0.0;
  double im = 0.0;
  std::uint32_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += votes_[i];
    const double angle =
        2.0 * 3.141592653589793 * static_cast<double>(i) /
        static_cast<double>(n);
    re += static_cast<double>(votes_[i]) * std::cos(angle);
    im += static_cast<double>(votes_[i]) * std::sin(angle);
  }
  // Decay rather than clear: keeps boundary memory across windows with few
  // transitions (long run lengths) while still tracking drift.
  for (auto& v : votes_) v /= 2;
  if (total == 0) return;  // no edges: hold the current phase

  double boundary_bin =
      std::atan2(im, re) / (2.0 * 3.141592653589793) * static_cast<double>(n);
  if (boundary_bin < 0.0) boundary_bin += static_cast<double>(n);
  const int proposal = static_cast<int>(std::lround(boundary_bin +
                                                    static_cast<double>(n) /
                                                        2.0)) %
                       static_cast<int>(n);
  if (proposal == pick_) {
    candidate_ = -1;
    candidate_streak_ = 0;
    return;
  }
  // Jitter-correction hysteresis: require J consecutive agreeing windows.
  if (proposal == candidate_) {
    ++candidate_streak_;
  } else {
    candidate_ = proposal;
    candidate_streak_ = 1;
  }
  if (candidate_streak_ >= config_.jitter_hysteresis) {
    // Shift the absolute decision pointer by the signed shortest phase
    // distance; crossing phase 0 is then an ordinary +/-1 step, not a
    // dropped or doubled bit.
    const int n_int = config_.oversampling;
    int delta = candidate_ - pick_;
    if (delta > n_int / 2) delta -= n_int;
    if (delta < -n_int / 2) delta += n_int;
    next_decision_ = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(next_decision_) + delta);
    pick_ = candidate_;
    candidate_ = -1;
    candidate_streak_ = 0;
    ++phase_updates_;
  }
}

std::vector<std::uint8_t> OversamplingCdr::recover(
    const std::vector<std::uint8_t>& samples) {
  for (std::uint8_t s : samples) push(s != 0);
  return recovered_;
}

}  // namespace serdes::digital
