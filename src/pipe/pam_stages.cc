#include "pipe/pam_stages.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace serdes::pipe {

// ---- XtalkInjectStage -------------------------------------------------------

XtalkInjectStage::XtalkInjectStage(const std::vector<double>& levels,
                                   const std::vector<Path>& paths,
                                   const channel::Channel& victim_channel,
                                   util::Second unit_interval,
                                   int samples_per_ui, util::Second rise_time,
                                   util::Second stream_t0) {
  for (const Path& p : paths) {
    const int delay = std::max(0, p.delay_ui);
    auto it = std::find_if(launches_.begin(), launches_.end(),
                           [&](const Launch& l) { return l.delay_ui == delay; });
    if (it == launches_.end()) {
      std::vector<double> delayed(static_cast<std::size_t>(delay), 0.0);
      delayed.insert(delayed.end(), levels.begin(), levels.end());
      launches_.push_back(Launch{
          delay,
          LevelPulseSource(std::move(delayed), unit_interval, samples_per_ui,
                           rise_time, stream_t0),
          nullptr, {}, {}});
      it = launches_.end() - 1;
    }
    if (p.through_channel && !it->channel_stream) {
      it->channel_stream = victim_channel.open_stream();
    }
    taps_.push_back(Tap{static_cast<std::size_t>(it - launches_.begin()),
                        p.gain, p.through_channel});
  }
}

void XtalkInjectStage::process(const BlockView& in, Block& out) {
  out.match(in);
  double* samples = out.data();
  for (Launch& l : launches_) {
    // A delayed launch spans at least the victim stream (delay zeros
    // prepended), so it yields a full block for every victim block.
    if (l.source.produce(l.raw, in.size) != in.size) {
      throw std::invalid_argument(
          "XtalkInjectStage: block beyond the victim's stream");
    }
    if (l.channel_stream) {
      l.filtered.resize(in.size);
      l.channel_stream->transmit_block(l.raw.data(), l.filtered.data(),
                                       in.size);
    }
  }
  const auto contribution = [&](const Tap& tap) {
    const Launch& l = launches_[tap.launch];
    return tap.through_channel ? l.filtered.data() : l.raw.samples().data();
  };
  // Each sample adds its paths' contributions in path order, two paths per
  // sweep over the block: half the loads and stores of the running sums.
  std::copy(in.data, in.data + in.size, samples);
  const std::size_t n_taps = taps_.size();
  std::size_t k = 0;
  for (; k + 1 < n_taps; k += 2) {
    const double* c0 = contribution(taps_[k]);
    const double* c1 = contribution(taps_[k + 1]);
    const double g0 = taps_[k].gain;
    const double g1 = taps_[k + 1].gain;
    for (std::size_t i = 0; i < in.size; ++i) {
      samples[i] = (samples[i] + g0 * c0[i]) + g1 * c1[i];
    }
  }
  if (k < n_taps) {
    const double* c = contribution(taps_[k]);
    const double g = taps_[k].gain;
    for (std::size_t i = 0; i < in.size; ++i) samples[i] += g * c[i];
  }
}

}  // namespace serdes::pipe
