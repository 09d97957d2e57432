// Lane-batched SerDes link: one shared instruction stream driving L
// independent lanes of the streaming datapath at once.
//
// The lanes of a tile share everything that is seed-independent — the PRBS
// payload, TX wire bits and launch levels, the pulse-shaping source and
// the channel stream — computed once per tile instead of once per lane.
// core::ChainPlan lays the tile out in the scalar chain's stage order: the
// datapath fans out at the receiver-input AWGN (the first seeded stage)
// into lane-major SoA tiles (pipe/lane_block.h) processed by the
// lane-batched stages in pipe/lane_stages.h, whose inner lane loops
// vectorize across the lane axis, and ends in the same
// pipe::SamplerCdrSink a scalar link uses — one sink, N lanes.  Tiles run
// NRZ only.
//
// Hard contract: lane l of a tile run with seed s_l is bit-identical to a
// scalar SerDesLink + measure_ber run whose config carries noise_seed s_l
// — same AWGN/jitter/sampler RNG streams drawn in the same order, same
// filter-state arithmetic, same BER accounting (enforced as a tier-1
// test, tests/lane_batch_test.cc).  Per-lane BER loops can diverge (a
// lane that misaligns keeps re-running chunks its neighbours already
// passed): measure() regroups lanes by PRBS progress each iteration so
// every lane still sees the exact scalar payload sequence.
//
// The one observable difference: the lane path does not materialize the
// RFI probe waveform (ReceiveResult::rfi_out stays empty — reports never
// serialize waveforms and the simulator never reads that tap).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "analog/waveform.h"
#include "channel/channel.h"
#include "core/ber.h"
#include "core/config.h"
#include "core/receiver.h"
#include "core/transmitter.h"
#include "util/prbs.h"

namespace serdes::core {

/// Per-lane outcome of a lane-tile BER measurement: the accumulated
/// measurement plus the first-chunk diagnostics the scalar path's
/// on_chunk observer lifts (api::Simulator fills RunReport from these).
struct LaneOutcome {
  BerMeasurement measurement;
  int cdr_decision_phase = 0;
  std::uint64_t cdr_phase_updates = 0;
  double rx_swing_pp = 0.0;
  /// First-chunk diagnostic waveforms (empty when capture is off;
  /// restored alone under LinkConfig::capture_slicer_input).  tx_out is
  /// lane-invariant (copied per lane); channel_out (post-AWGN, like the
  /// scalar path's capture point) and restored are per lane.
  analog::Waveform tx_out;
  analog::Waveform channel_out;
  analog::Waveform restored;
};

class LaneLink {
 public:
  /// One lane per entry of `lane_seeds`; lane l runs as if its scalar
  /// config had noise_seed == lane_seeds[l].  The config's own noise_seed
  /// is ignored.  Takes ownership of the channel model (opened once per
  /// pass per chunk, shared by every lane).
  LaneLink(const LinkConfig& config, std::unique_ptr<channel::Channel> ch,
           std::vector<std::uint64_t> lane_seeds);

  /// Runs every lane over `total_bits` of PRBS data in chunks of
  /// `chunk_bits` (core::measure_ber's loop, lane-batched): lanes at the
  /// same PRBS position share one payload and one datapath sweep.
  /// Waveform/diagnostic capture follows the config: each lane's first
  /// chunk captures what capture_waveforms / capture_slicer_input ask for
  /// (trimmed to capture_max_samples), exactly like api::Simulator's
  /// scalar observer.  Throws std::invalid_argument when chunk_bits is 0.
  [[nodiscard]] std::vector<LaneOutcome> measure(std::uint64_t total_bits,
                                                 std::uint64_t chunk_bits,
                                                 double confidence_level,
                                                 util::PrbsOrder order);

  [[nodiscard]] const Receiver& receiver() const { return rx_; }
  [[nodiscard]] const LinkConfig& config() const { return config_; }
  [[nodiscard]] std::size_t lanes() const { return lane_seeds_.size(); }

 private:
  /// One shared datapath sweep over `payload` for the given lane subset
  /// (indices into lane_seeds_), filling one LinkResult per entry; only
  /// the lanes' first chunk captures waveforms.
  void run_chunk(const std::vector<std::uint8_t>& payload,
                 const std::vector<std::size_t>& lanes, bool first_chunk,
                 std::vector<LinkResult>& results);

  LinkConfig config_;
  Transmitter tx_;
  Receiver rx_;
  std::unique_ptr<channel::Channel> channel_;
  std::vector<std::uint64_t> lane_seeds_;
  /// Chunks run so far per lane — the scalar SerDesLink::run_counter_,
  /// one per lane, so lane l's per-chunk AWGN seed sequence matches the
  /// scalar link's noise_seed + 100 + counter stream.
  std::vector<std::uint64_t> chunks_run_;
};

}  // namespace serdes::core
