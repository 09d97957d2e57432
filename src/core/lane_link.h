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
// test, tests/lane_batch_test.cc).  measure() is measure_ber's own chunk
// loop (core::measure_chunks) over every lane at once.  Footage counts
// bits sent, so every lane advances by the same chunk whether or not it
// aligned, and one payload sequence serves them all.
//
// The one observable difference: the lane path does not materialize the
// RFI probe waveform (ReceiveResult::rfi_out stays empty — reports never
// serialize waveforms and the simulator never reads that tap).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "channel/channel.h"
#include "core/ber.h"
#include "core/config.h"
#include "core/receiver.h"
#include "core/transmitter.h"
#include "util/prbs.h"

namespace serdes::core {

class LaneLink {
 public:
  /// One lane per entry of `lane_seeds`; lane l runs as if its scalar
  /// config had noise_seed == lane_seeds[l].  The config's own noise_seed
  /// is ignored.  Takes ownership of the channel model (opened once per
  /// pass per chunk, shared by every lane).
  LaneLink(const LinkConfig& config, std::unique_ptr<channel::Channel> ch,
           std::vector<std::uint64_t> lane_seeds);

  /// Runs every lane over `total_bits` of PRBS data in chunks of
  /// `chunk_bits`, chunk i as run number i: lane l's outcome is that of
  /// measure_ber on a new SerDesLink with noise seed lane_seeds[l], which
  /// the first chunk's diagnostics fill like api::Simulator's scalar
  /// observer.  Capture follows the config on the first chunk alone (what
  /// capture_waveforms / capture_slicer_input ask for, trimmed to
  /// capture_max_samples).  Throws std::invalid_argument when chunk_bits
  /// is 0.
  [[nodiscard]] std::vector<LaneOutcome> measure(std::uint64_t total_bits,
                                                 std::uint64_t chunk_bits,
                                                 double confidence_level,
                                                 util::PrbsOrder order);

  [[nodiscard]] const Receiver& receiver() const { return rx_; }
  [[nodiscard]] const LinkConfig& config() const { return config_; }
  [[nodiscard]] std::size_t lanes() const { return lane_seeds_.size(); }

 private:
  /// One shared datapath sweep over `payload` as run number `run_index`
  /// of every lane, one LinkResult per lane (SerDesLink::run's const form,
  /// N lanes).  tx_out is lane-invariant, copied per lane.
  [[nodiscard]] std::vector<LinkResult> run_chunk(
      const std::vector<std::uint8_t>& payload,
      std::uint64_t run_index) const;

  LinkConfig config_;
  Transmitter tx_;
  Receiver rx_;
  std::unique_ptr<channel::Channel> channel_;
  std::vector<std::uint64_t> lane_seeds_;
};

}  // namespace serdes::core
