// Stage and probe interfaces and the pipeline composer for the streaming
// link datapath.
//
// A Stage maps one input block to one output block, carrying whatever
// state it needs (IIR filter memories, RNG streams, tap delay lines)
// across calls so that processing a stream block-by-block is bit-identical
// to processing it as one waveform.  A Probe only observes: it reads each
// block as it flows past (statistics, a capture window) and never writes
// it.  A Pipeline chains stages and probes; stages ping-pong between two
// scratch blocks, so the whole datapath holds at most two blocks of
// samples regardless of stream length, while a probe is handed the
// current view and the same view goes on to the next step — no copy and
// no swap.
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
  /// The stages a resumed pass runs (CTLE, RFI, restore and their lane
  /// forms) read each sample before writing it, so `out` may also be the
  /// block `in` views (BasicPipeline::process_in_place).
  virtual void process(const BlockView& in, Block& out) = 0;

  /// Diagnostic label.
  [[nodiscard]] virtual std::string_view name() const = 0;
};

/// Pass-through observer of a block stream: reads each block as it flows
/// past and leaves it untouched.  `ViewT` is the view type of the pipeline
/// it sits in (BlockView, or LaneView for lane tiles).
template <class ViewT>
class BasicProbe {
 public:
  virtual ~BasicProbe() = default;

  /// Observes one block; `in` stays valid only for the duration of the
  /// call.
  virtual void observe(const ViewT& in) = 0;
};

using Probe = BasicProbe<BlockView>;

/// Runs blocks through an ordered chain of stages and probes.  Owns them
/// and two scratch blocks (the only per-pipeline sample storage).  Scalar
/// stages chain as a Pipeline; the lane-tile stages of pipe/lane_stages.h
/// chain as a LanePipeline.
template <class StageT, class BlockT, class ViewT>
class BasicPipeline {
 public:
  /// Appends a stage; returns it for optional post-wiring.
  StageT& add(std::unique_ptr<StageT> stage) {
    StageT& added = *stage;
    steps_.push_back({std::move(stage), nullptr});
    return added;
  }

  /// Appends a probe; returns it so the caller can read it afterwards.
  template <class ProbeT>
  ProbeT& add_probe(std::unique_ptr<ProbeT> probe) {
    ProbeT& added = *probe;
    steps_.push_back({nullptr, std::move(probe)});
    return added;
  }

  /// Pushes one block through every step; the returned view aliases `in`
  /// or one of the internal scratch blocks and is valid until the next
  /// call.
  [[nodiscard]] ViewT process(const ViewT& in) {
    ViewT view = in;
    bool use_ping = true;
    last_ = Last::kInput;
    for (Step& step : steps_) {
      if (step.probe) {
        step.probe->observe(view);
        continue;
      }
      BlockT& out = use_ping ? ping_ : pong_;
      step.stage->process(view, out);
      view = out.view();
      last_ = use_ping ? Last::kPing : Last::kPong;
      use_ping = !use_ping;
    }
    return view;
  }

  /// Pushes `block` through every step in place: each stage writes its
  /// output over its input, so the pipeline's scratch blocks stay unused.
  /// Only for chains of stages that allow it (see Stage::process).
  void process_in_place(BlockT& block) {
    for (Step& step : steps_) {
      if (step.probe) {
        step.probe->observe(block.view());
      } else {
        step.stage->process(block.view(), block);
      }
    }
  }

  /// Moves out the scratch block the last process() call's output lives
  /// in, stream metadata included, so the caller can keep that output
  /// without a copy; the pipeline allocates a fresh block when it next
  /// writes that one.  Empty when no stage ran (the output was the input).
  [[nodiscard]] BlockT release_output() {
    BlockT out;
    if (last_ != Last::kInput) {
      std::swap(out, last_ == Last::kPing ? ping_ : pong_);
    }
    last_ = Last::kInput;
    return out;
  }

 private:
  /// One step of the chain: a stage or a probe (exactly one is set).
  struct Step {
    std::unique_ptr<StageT> stage;
    std::unique_ptr<BasicProbe<ViewT>> probe;
  };

  std::vector<Step> steps_;
  BlockT ping_;
  BlockT pong_;
  /// Where the last process() call's output lives.
  enum class Last { kInput, kPing, kPong } last_ = Last::kInput;
};

using Pipeline = BasicPipeline<Stage, Block, BlockView>;

}  // namespace serdes::pipe
