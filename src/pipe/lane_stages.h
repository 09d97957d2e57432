// Lane-batched (SoA) streaming stages for the multi-lane datapath.
//
// Each stage here is the L-lane counterpart of a scalar stage in
// pipe/stages.h, operating on lane-major tiles (pipe/lane_block.h): the
// sample loop is the outer loop exactly as in the scalar stage, and the
// per-lane arithmetic runs in an inner lane loop with per-lane state held
// in arrays — one instruction stream, L lanes.  No cross-lane arithmetic
// ever mixes values and each lane draws from its own RNG stream in the
// scalar order, so lane l of a tile is bit-identical to the scalar
// pipeline run over lane l alone.  core::ChainPlan chains them in the same
// order as the scalar stages, and the tile ends in the one
// pipe::SamplerCdrSink (pipe/stages.h), which reads N-lane tiles natively.
//
//   LaneAwgnStage      — fans a shared (lane-invariant) channel block, a
//                        one-lane tile, out into L lanes, adding per-lane
//                        AWGN streams
//   LaneCtleStage      — CTLE peaking with per-lane pole state
//   LaneRfiStage       — RFI front end with per-lane DC means and poles
//   LaneRestoreStage   — restoring inverter VTC + per-lane output pole
//   LaneWaveformTap    — per-lane probe: capture window and, in first
//                        passes, range/sum
//   LanePipeline       — pipe::Pipeline's chain of stages and probes,
//                        over tiles
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

/// Tile-to-tile stage: the lane counterpart of pipe::Stage.
class LaneStage {
 public:
  virtual ~LaneStage() = default;
  /// Transforms one tile; `out` is shaped by the stage.  As with
  /// Stage::process, the stages a resumed pass runs allow `out` to be the
  /// tile `in` views.
  virtual void process(const LaneView& in, LaneBlock& out) = 0;
};

using LaneProbe = BasicProbe<LaneView>;
using LanePipeline = BasicPipeline<LaneStage, LaneBlock, LaneView>;

/// Fan-out stage: replicates a shared one-lane tile (the lane-invariant
/// TX + channel output) across L lanes, adding each lane's own AWGN
/// stream — per lane, blockwise Waveform::add_noise with a carried RNG
/// that advances one gaussian per sample exactly like AwgnStage.
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
/// the shared saturating VTC — blockwise RfiFrontEndStage per lane.
class LaneRfiStage final : public LaneStage {
 public:
  LaneRfiStage(const analog::RfiStage& rfi, util::Second dt,
               std::size_t lanes);

  /// Lane `lane`'s full-stream DC mean; must be set before the first tile.
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

/// Per-lane probe (the lane WaveformTap): captures the first `capture`
/// samples of each lane's stream flowing past, storage reserved once at
/// construction, and, with `statistics`, keeps each lane's running
/// minimum, maximum and sample-order sum.
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
