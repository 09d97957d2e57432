// The streaming receive stages after the channel, over lane-major tiles.
//
// Every stage here runs an N-lane tile (pipe/lane_block.h): the sample
// loop is the outer loop, and the per-lane arithmetic runs in an inner
// lane loop with per-lane state held in arrays — one instruction stream,
// L lanes.  No cross-lane arithmetic ever mixes values and each lane draws
// from its own RNG stream, so lane l of a tile is bit-identical to a tile
// of lane l alone.  A link is a one-lane tile, and each stage runs that
// case as its own loop, with the filter state in locals (so in registers,
// through analog::OnePoleLowPass::step(x, x1, y1)) instead of the generic
// loops' per-lane state arrays.  Each stage reproduces its
// whole-waveform counterpart sample by sample while carrying its state
// across tiles, so a stream processed at any block size is bit-identical
// to the whole-waveform reference the tests compare against
// (tests/whole_waveform_reference.h).  core::ChainPlan chains them after
// the shared channel and crosstalk, and the tile ends in the one
// pipe::SamplerCdrSink (pipe/stages.h).
//
//   LaneAwgnStage      — fans the shared (lane-invariant) channel block, a
//                        one-lane tile, out into L lanes, adding per-lane
//                        AWGN streams (Waveform::add_noise, blockwise)
//   LaneCtleStage      — channel::RxCtle::equalize with per-lane pole state
//   LaneRfiStage       — analog::RfiStage::process given each lane's stream
//                        DC mean, with per-lane poles
//   LaneRestoreStage   — analog::RestoringInverter::process: VTC lookup +
//                        per-lane output pole
//   LaneWaveformTap    — per-lane probe: capture window and, in first
//                        passes, range/sum
//   LanePipeline       — the chain of stages and probes, over tiles
//
// The gaussian draw (ziggurat with a variable-draw edge path) stays scalar
// per lane by design: batching it across lanes would change each lane's
// draw order and break bit-identity.  The filter recurrences and MACs —
// where the cycles actually go — vectorize across the lane axis.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "analog/filters.h"
#include "analog/rfi.h"
#include "analog/sampler.h"
#include "analog/waveform.h"
#include "pipe/block.h"
#include "pipe/lane_block.h"
#include "pipe/stage.h"
#include "util/random.h"
#include "util/units.h"

namespace serdes::pipe {

/// Tile-to-tile stage.
class LaneStage {
 public:
  virtual ~LaneStage() = default;
  /// Transforms one tile; `out` is shaped by the stage.  The stages a
  /// resumed pass runs (CTLE, RFI, restore) read each sample before
  /// writing it, so `out` may also be the tile `in` views
  /// (BasicPipeline::process_in_place).
  virtual void process(const LaneView& in, LaneBlock& out) = 0;
};

using LaneProbe = BasicProbe<LaneView>;
using LanePipeline = BasicPipeline<LaneStage, LaneBlock, LaneView>;

/// Fan-out stage: replicates a shared one-lane tile (the lane-invariant
/// TX + channel output) across L lanes, adding each lane's own AWGN
/// stream — per lane, blockwise Waveform::add_noise with a carried RNG
/// that advances one gaussian per sample.
class LaneAwgnStage final : public LaneStage {
 public:
  LaneAwgnStage(double sigma, const std::vector<std::uint64_t>& seeds);

  void process(const LaneView& in, LaneBlock& out) override;

 private:
  double sigma_;
  std::vector<util::Rng> rngs_;
};

/// CTLE peaking across a tile: out = x + k*(x - LPF(x)) per lane, the
/// pole state carried per lane (analog::OnePoleLowPass::process_lanes).
class LaneCtleStage final : public LaneStage {
 public:
  LaneCtleStage(util::Decibel boost, util::Hertz pole, util::Second dt,
                std::size_t lanes);

  void process(const LaneView& in, LaneBlock& out) override;

 private:
  double k_;
  analog::OnePoleLowPass lpf_;  // coefficients; state lives in x1_/y1_
  std::vector<double> x1_;
  std::vector<double> y1_;
  std::vector<double> scratch_;  // low-passed tile (keeps in/out aliasable)
};

/// RFI front end across a tile: per-lane DC removal (each lane's stream
/// mean, supplied via set_mean once measured), per-lane output pole, then
/// the shared saturating VTC — blockwise analog::RfiStage per lane.
class LaneRfiStage final : public LaneStage {
 public:
  LaneRfiStage(const analog::RfiStage& rfi, util::Second dt,
               std::size_t lanes);

  /// Lane `lane`'s full-stream DC mean, which analog::RfiStage::process
  /// subtracts; must be set before the first tile (the link measures it in
  /// a first streaming pass over the cheap front half of the datapath).
  void set_mean(std::size_t lane, double mean) { deltas_[lane] = -mean; }

  void process(const LaneView& in, LaneBlock& out) override;

 private:
  const analog::RfiStage* rfi_;
  analog::OnePoleLowPass lpf_;
  std::vector<double> deltas_;
  std::vector<double> x1_;
  std::vector<double> y1_;
};

/// Rail-restoring inverter across a tile: shared VTC lookup per value,
/// then the per-lane output pole.
class LaneRestoreStage final : public LaneStage {
 public:
  LaneRestoreStage(const analog::RestoringInverter& inv, util::Second dt,
                   std::size_t lanes);

  void process(const LaneView& in, LaneBlock& out) override;

 private:
  const analog::RestoringInverter* inv_;
  analog::OnePoleLowPass pole_;
  std::vector<double> x1_;
  std::vector<double> y1_;
};

/// Per-lane probe: captures the first `capture` samples of each lane's
/// stream flowing past (the waveform-capture window; its storage is
/// reserved once, so callers pass at most the stream's length) and, with
/// `statistics`, keeps each lane's running minimum, maximum and
/// sample-order sum (what first passes measure), lane by lane in locals,
/// so one loop serves a one-lane tile too.  Links insert probes
/// only into first passes and while diagnostics capture is on (the first
/// chunk of a BER run), so bulk streaming never accumulates waveform
/// memory.
class LaneWaveformTap final : public LaneProbe {
 public:
  LaneWaveformTap(std::size_t lanes, std::size_t capture, bool statistics);

  void observe(const LaneView& in) override;

  /// Moves lane `lane`'s captured window out (stream t0 / dt stamped).
  [[nodiscard]] analog::Waveform take(std::size_t lane) {
    return analog::Waveform{t0_, dt_, std::move(captured_[lane])};
  }
  /// Statistics of lane `lane`'s whole stream (with `statistics` only).
  [[nodiscard]] double min(std::size_t lane) const { return min_[lane]; }
  [[nodiscard]] double max(std::size_t lane) const { return max_[lane]; }
  [[nodiscard]] double sum(std::size_t lane) const { return sum_[lane]; }

 private:
  std::size_t capture_;
  bool statistics_;
  std::vector<std::vector<double>> captured_;
  std::vector<double> min_;
  std::vector<double> max_;
  std::vector<double> sum_;
  util::Second t0_{0.0};
  util::Second dt_{1e-12};
  bool stamped_ = false;
};

}  // namespace serdes::pipe
