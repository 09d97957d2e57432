#include "pipe/pam_stages.h"

#include <algorithm>
#include <utility>

namespace serdes::pipe {

// ---- XtalkInjectStage -------------------------------------------------------

XtalkInjectStage::XtalkInjectStage(std::vector<Path> paths,
                                   util::Second unit_interval,
                                   int samples_per_ui, util::Second rise_time,
                                   util::Second stream_t0) {
  lanes_.reserve(paths.size());
  for (Path& p : paths) {
    lanes_.push_back(Lane{
        LevelPulseSource(std::move(p.levels), unit_interval, samples_per_ui,
                         rise_time, stream_t0),
        p.gain, std::move(p.channel_stream)});
  }
}

void XtalkInjectStage::process(const BlockView& in, Block& out) {
  out.match(in);
  double* samples = out.data();
  std::copy(in.data, in.data + in.size, samples);
  for (Lane& lane : lanes_) {
    // The aggressor level vector spans at least the victim stream (delay
    // zeros prepended), so produce() always yields a full block here.
    const std::size_t n = lane.source.produce(scratch_, in.size);
    double* contrib = scratch_.data();
    if (lane.channel_stream) {
      lane.channel_stream->transmit_block(contrib, contrib, n);
    }
    const double gain = lane.gain;
    for (std::size_t i = 0; i < n; ++i) samples[i] += gain * contrib[i];
  }
}

}  // namespace serdes::pipe
