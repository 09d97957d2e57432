// Stage interface and pipeline composer for the streaming link datapath.
//
// A Stage maps one input block to one output block, carrying whatever
// state it needs (IIR filter memories, RNG streams, tap delay lines)
// across calls so that processing a stream block-by-block is bit-identical
// to processing it as one waveform.  A Pipeline chains stages and
// ping-pongs between two scratch blocks, so the whole datapath holds at
// most two blocks of samples regardless of stream length.
#pragma once

#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "pipe/block.h"

namespace serdes::pipe {

class Stage {
 public:
  virtual ~Stage() = default;

  /// Transforms one block.  `out` must be sized/stamped via
  /// `out.match(in)`; `in` stays valid only for the duration of the call.
  virtual void process(const BlockView& in, Block& out) = 0;

  /// Returns the stage to its start-of-stream state.
  virtual void reset() = 0;

  /// Diagnostic label.
  [[nodiscard]] virtual std::string_view name() const = 0;
};

/// Runs blocks through an ordered chain of stages.  Owns the stages and
/// two scratch blocks (the only per-pipeline sample storage).  Scalar
/// stages chain as a Pipeline; the lane-tile stages of pipe/lane_stages.h
/// chain as a LanePipeline.
template <class StageT, class BlockT, class ViewT>
class BasicPipeline {
 public:
  /// Appends a stage; returns it for optional post-wiring.
  StageT& add(std::unique_ptr<StageT> stage) {
    stages_.push_back(std::move(stage));
    return *stages_.back();
  }

  /// Pushes one block through every stage; the returned view aliases one
  /// of the internal scratch blocks and is valid until the next call.
  [[nodiscard]] ViewT process(const ViewT& in) {
    ViewT view = in;
    bool use_ping = true;
    for (auto& stage : stages_) {
      BlockT& out = use_ping ? ping_ : pong_;
      stage->process(view, out);
      view = out.view();
      use_ping = !use_ping;
    }
    return view;
  }

  /// Resets every stage to its start-of-stream state.
  void reset() {
    for (auto& stage : stages_) stage->reset();
  }

  [[nodiscard]] std::size_t stage_count() const { return stages_.size(); }

 private:
  std::vector<std::unique_ptr<StageT>> stages_;
  BlockT ping_;
  BlockT pong_;
};

using Pipeline = BasicPipeline<Stage, Block, BlockView>;

}  // namespace serdes::pipe
