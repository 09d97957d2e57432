#include "digital/sampling.h"

#include <cmath>
#include <stdexcept>

namespace serdes::digital {

MultiphaseClockGenerator::MultiphaseClockGenerator(util::Hertz bit_rate,
                                                   int phases,
                                                   util::Second phase_offset,
                                                   double ppm_offset)
    : phases_(phases) {
  if (phases < 2) {
    throw std::invalid_argument("MultiphaseClockGenerator: phases >= 2");
  }
  // The receiver clock runs at (1 + ppm/1e6) times the nominal rate; its UI
  // is correspondingly stretched or shrunk.
  const double scale = 1.0 / (1.0 + ppm_offset * 1e-6);
  ui_ = util::seconds(util::period(bit_rate).value() * scale);
  if (!(ui_.value() > 0.0 && std::isfinite(ui_.value()))) {
    throw std::invalid_argument(
        "MultiphaseClockGenerator: ppm offset leaves no finite, positive UI");
  }
  step_ = ui_ / static_cast<double>(phases);
  offset_ = phase_offset;
}

std::vector<std::uint8_t> sample_waveform(
    const analog::Waveform& w, const MultiphaseClockGenerator& clocks,
    analog::DffSampler& sampler, channel::JitterModel* jitter) {
  std::vector<std::uint8_t> samples;
  const util::Second end = w.end_time();
  for (std::uint64_t ui = 0;; ++ui) {
    const util::Second ui_start = clocks.instant(ui, 0);
    if (ui_start >= end) break;
    for (int p = 0; p < clocks.phases(); ++p) {
      util::Second t = clocks.instant(ui, p);
      if (jitter != nullptr) t = jitter->perturb(t);
      samples.push_back(sampler.sample(w, t) ? 1 : 0);
    }
  }
  return samples;
}

}  // namespace serdes::digital
