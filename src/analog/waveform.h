// Uniformly sampled analog waveforms.
//
// The link simulation represents every analog node (driver output, channel
// output, RFI output, ...) as a Waveform: a start time, a fixed sample
// period, and a sample vector.  All channel/equalization/measurement
// operations are defined over this type.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/random.h"
#include "util/units.h"

namespace serdes::analog {

class Waveform {
 public:
  Waveform() = default;
  Waveform(util::Second t0, util::Second dt, std::vector<double> samples);

  /// Flat waveform of `n` samples at `level`.
  static Waveform constant(util::Second t0, util::Second dt, std::size_t n,
                           double level);

  /// NRZ pulse train: bit i occupies [i*ui, (i+1)*ui) with linear-ramp edges
  /// of duration `rise_time` centred on the transitions.  Levels are
  /// `low`/`high`; `samples_per_ui` sets the sampling density.
  static Waveform nrz(const std::vector<std::uint8_t>& bits,
                      util::Second unit_interval, int samples_per_ui,
                      double low, double high, util::Second rise_time);

  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] util::Second start_time() const { return t0_; }
  [[nodiscard]] util::Second sample_period() const { return dt_; }
  [[nodiscard]] util::Second end_time() const {
    return t0_ + dt_ * static_cast<double>(samples_.size());
  }
  [[nodiscard]] util::Second time_at(std::size_t i) const {
    return t0_ + dt_ * static_cast<double>(i);
  }

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }
  [[nodiscard]] std::vector<double>& samples() { return samples_; }
  [[nodiscard]] double operator[](std::size_t i) const { return samples_[i]; }
  double& operator[](std::size_t i) { return samples_[i]; }

  /// Linear-interpolated value at time t (end values held outside range).
  [[nodiscard]] double value_at(util::Second t) const {
    return value_at_index((t - t0_) / dt_);
  }
  /// value_at at the fractional sample index `idx` = (t - t0) / dt, for
  /// callers that compute many indices in one flat loop (the eye fold).
  [[nodiscard]] double value_at_index(double idx) const {
    if (samples_.empty()) return 0.0;
    if (idx <= 0.0) return samples_.front();
    const auto lo = static_cast<std::size_t>(idx);
    if (lo + 1 >= samples_.size()) return samples_.back();
    return interpolate(samples_[lo], samples_[lo + 1],
                       idx - static_cast<double>(lo));
  }
  /// The interpolation step: `frac` of the way from sample `a` to the
  /// next sample `b`.  Every fractional-time read of a sampled stream
  /// (value_at, the eye fold, the streaming sampler/CDR sink) uses it.
  [[nodiscard]] static double interpolate(double a, double b, double frac) {
    return a + frac * (b - a);
  }

  // ---- In-place transformations ----
  Waveform& scale(double gain);
  Waveform& offset(double delta);
  Waveform& clamp(double lo, double hi);
  /// Applies f to every sample.
  Waveform& map(const std::function<double(double)>& f);
  /// Adds gaussian noise of the given RMS value.
  Waveform& add_noise(util::Rng& rng, double sigma);
  /// Shifts the waveform in time (pure relabeling of t0).
  Waveform& delay(util::Second delta);

  // ---- Measurements ----
  [[nodiscard]] double min_value() const;
  [[nodiscard]] double max_value() const;
  [[nodiscard]] double peak_to_peak() const;
  [[nodiscard]] double mean_value() const;
  /// RMS of (sample - mean).
  [[nodiscard]] double ac_rms() const;

  /// Times of threshold crossings (rising and falling), linearly
  /// interpolated between samples.
  [[nodiscard]] std::vector<util::Second> crossings(double threshold) const;

  /// 20-80% rise time of the first rising edge after `after`; returns 0 if
  /// no such edge exists.
  [[nodiscard]] util::Second rise_time_20_80(util::Second after) const;

 private:
  util::Second t0_{0.0};
  util::Second dt_{1e-12};
  std::vector<double> samples_;
};

}  // namespace serdes::analog
