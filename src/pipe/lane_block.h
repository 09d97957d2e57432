// Lane-major SoA sample tiles for the multi-lane streaming datapath.
//
// A LaneBlock carries one block of samples for L independent lanes in an
// interleaved structure-of-arrays layout: sample index i of lane l lives at
// data[i * lanes + l], so the values every lane needs at one stream
// position are contiguous.  Lane-batched stage kernels walk the sample
// axis exactly like their scalar counterparts and run the per-lane
// arithmetic in the inner lane loop — one instruction stream, L lanes —
// which auto-vectorizes across lanes while preserving each lane's
// operation order bit-for-bit (no cross-lane arithmetic ever mixes
// values, so lane l of a tile reproduces the scalar pipeline for lane l
// exactly).
#pragma once

#include <cstdint>
#include <vector>

#include "pipe/block.h"
#include "util/units.h"

namespace serdes::pipe {

/// Non-owning view of one lane-major tile: `size` stream samples across
/// `lanes` lanes, value (i, l) at data[i * lanes + l].  Stream metadata
/// mirrors BlockView (the sample axis is the same logical stream).
struct LaneView {
  const double* data = nullptr;
  std::size_t size = 0;   // samples per lane
  std::size_t lanes = 1;  // lanes interleaved per sample index
  /// Absolute index of sample 0 within the logical stream.
  std::uint64_t start_index = 0;
  /// Time of stream sample 0 (not of this tile) — the batch waveform's t0.
  util::Second stream_t0{0.0};
  util::Second dt{1e-12};
  bool last = false;

  [[nodiscard]] bool empty() const { return size == 0; }
  /// Value of lane `l` at tile sample `i`.
  [[nodiscard]] double at(std::size_t i, std::size_t l) const {
    return data[i * lanes + l];
  }
};

/// A scalar block as a one-lane tile (same samples, same stream metadata).
[[nodiscard]] inline LaneView as_tile(const BlockView& in) {
  return LaneView{in.data, in.size, 1, in.start_index, in.stream_t0, in.dt,
                  in.last};
}

/// Owning lane-major tile buffer a lane stage writes its output into.
class LaneBlock {
 public:
  /// Adopts `in`'s metadata and resizes to in.size x in.lanes values.
  void match(const LaneView& in) {
    samples_.resize(in.size * in.lanes);
    size_ = in.size;
    lanes_ = in.lanes;
    start_index_ = in.start_index;
    stream_t0_ = in.stream_t0;
    dt_ = in.dt;
    last_ = in.last;
  }

  /// Shapes the tile for `size` samples of `lanes` lanes with explicit
  /// stream metadata (used by the lane fan-out stage, whose input is a
  /// scalar shared block rather than a tile).
  void shape(std::size_t size, std::size_t lanes, std::uint64_t start_index,
             util::Second stream_t0, util::Second dt, bool last) {
    samples_.resize(size * lanes);
    size_ = size;
    lanes_ = lanes;
    start_index_ = start_index;
    stream_t0_ = stream_t0;
    dt_ = dt;
    last_ = last;
  }

  [[nodiscard]] double* data() { return samples_.data(); }
  [[nodiscard]] const double* data() const { return samples_.data(); }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t lanes() const { return lanes_; }

  [[nodiscard]] LaneView view() const {
    return LaneView{samples_.data(), size_,      lanes_, start_index_,
                    stream_t0_,      dt_,        last_};
  }

 private:
  std::vector<double> samples_;
  std::size_t size_ = 0;
  std::size_t lanes_ = 1;
  std::uint64_t start_index_ = 0;
  util::Second stream_t0_{0.0};
  util::Second dt_{1e-12};
  bool last_ = false;
};

}  // namespace serdes::pipe
