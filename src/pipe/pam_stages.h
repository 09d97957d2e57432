// Streaming stage for the multi-lane bus datapath.
//
//   XtalkInjectStage — adds gain-scaled, UI-delayed copies of the aggressor
//                      launch (optionally filtered through the victim's
//                      channel: FEXT) into the victim's post-channel
//                      stream, block by block.
//
// It follows the streaming contract of pipe/stages.h: identical arithmetic
// at any block size, state carried across blocks.  PAM4 needs no stage of
// its own: its 4-level launch is a LevelPulseSource over gray-mapped
// levels (core::ChainPlan), and its three slicers live in the one
// pipe::SamplerCdrSink.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "channel/channel.h"
#include "pipe/stage.h"
#include "pipe/stages.h"
#include "util/units.h"

namespace serdes::pipe {

/// Aggressor contributions into a victim stream.  Every lane of a bus
/// carries the same framed stream, so an aggressor launches the victim's
/// own levels delayed by its lane distance (idle levels first), and every
/// path at one delay carries the same waveform.  The stage synthesizes
/// each distinct delayed launch once per block with a private
/// LevelPulseSource and, when a FEXT path reads it, filters it once
/// through a private stream of the victim's channel.  Sharing is exact
/// because a channel stream's output depends only on its input (the
/// streaming contract of channel::Channel::Stream).  The paths then add
/// gain x contribution to every passing block one by one, in the order
/// given, so each sum keeps the bits of one source and one channel stream
/// per path.
class XtalkInjectStage final : public Stage {
 public:
  struct Path {
    /// UIs the aggressor's launch trails the victim's (negative: 0).
    int delay_ui = 0;
    double gain = 0.0;
    /// FEXT: filtered through the victim's channel before injection;
    /// NEXT (false): injected directly.
    bool through_channel = false;
  };

  /// `levels` is the victim's launch; `victim_channel` (which must outlive
  /// the stage) filters the FEXT launches.  Geometry must match the
  /// victim's TX source so aggressor samples line up positionally with
  /// victim samples.
  XtalkInjectStage(const std::vector<double>& levels,
                   const std::vector<Path>& paths,
                   const channel::Channel& victim_channel,
                   util::Second unit_interval, int samples_per_ui,
                   util::Second rise_time, util::Second stream_t0);

  /// `out` may be the block `in` views (the chain runs it in place).
  void process(const BlockView& in, Block& out) override;

 private:
  /// One distinct delayed launch and, when a FEXT path reads it, its
  /// channel-filtered copy.
  struct Launch {
    int delay_ui;
    LevelPulseSource source;
    std::unique_ptr<channel::Channel::Stream> channel_stream;
    Block raw;
    std::vector<double> filtered;
  };
  /// One path: the launch it reads, and which copy.
  struct Tap {
    std::size_t launch;
    double gain;
    bool through_channel;
  };
  std::vector<Launch> launches_;
  std::vector<Tap> taps_;
};

}  // namespace serdes::pipe
