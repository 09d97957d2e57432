// End-to-end SerDes link: transmitter -> channel -> receiver, plus BER
// accounting.  The top-level object every example and benchmark drives.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "channel/channel.h"
#include "core/config.h"
#include "core/receiver.h"
#include "core/transmitter.h"
#include "util/prbs.h"

namespace serdes::core {

/// Outcome of one link run.
struct LinkResult {
  bool aligned = false;
  std::uint64_t payload_bits_sent = 0;
  std::uint64_t payload_bits_compared = 0;
  std::uint64_t bit_errors = 0;
  double ber = 0.0;
  /// Peak-to-peak swing at the receiver input (always populated, even when
  /// waveform capture is off).
  double rx_swing_pp = 0.0;
  /// Decision threshold the sampler(s) ran at: the restoring-stage midpoint
  /// under NRZ, the calibrated middle slicer threshold under PAM4.
  double decision_threshold = 0.0;
  ReceiveResult rx;
  /// TX output and channel output waveforms (for plotting / eye analysis).
  /// Empty when `LinkConfig::capture_waveforms` is false.  `rx.restored`
  /// (the slicer input) and `rx.rfi_out` follow the same rule, except that
  /// `LinkConfig::capture_slicer_input` keeps `rx.restored` alone.
  analog::Waveform tx_out;
  analog::Waveform channel_out;

  [[nodiscard]] bool error_free() const {
    return aligned && bit_errors == 0 && payload_bits_compared > 0;
  }
};

class SerDesLink {
 public:
  /// Receiver bits missing at the end of an aligned run are tolerated up to
  /// this CDR pipeline allowance; anything beyond it counts as errors.
  static constexpr std::uint64_t kCdrTailAllowanceBits = 2;

  /// The link takes ownership of the channel model.
  SerDesLink(const LinkConfig& config, std::unique_ptr<channel::Channel> ch);

  /// Transmits `payload` through the streaming block pipeline
  /// core::ChainPlan lays out (O(block) waveform memory, NRZ and PAM4) and
  /// compares what the receiver recovered.  A first pass learns the RFI
  /// mean (NRZ) or the slicer range (PAM4); the second pass resumes from
  /// its kept output when the stream fits in two blocks and re-runs the
  /// front otherwise (ChainPlan::resumes), with the same bits either way.
  /// Each call is the link's next run: run(payload, i) with i taken from
  /// the run counter.
  [[nodiscard]] LinkResult run(const std::vector<std::uint8_t>& payload);

  /// `payload` as run number `run_index` of this link, whose receiver
  /// AWGN seed comes from that index.  It leaves the link as it is, so
  /// runs of distinct indices may proceed concurrently (core::measure_ber
  /// fans its chunks out this way); take their indices from reserve_runs.
  [[nodiscard]] LinkResult run(const std::vector<std::uint8_t>& payload,
                               std::uint64_t run_index) const;

  /// Advances the run counter past `count` runs and returns the first
  /// index they own: the indices `count` calls of run(payload) would use.
  std::uint64_t reserve_runs(std::uint64_t count) {
    const std::uint64_t first = run_counter_;
    run_counter_ += count;
    return first;
  }

  /// Convenience: PRBS payload of `nbits` using the config's pattern order.
  [[nodiscard]] LinkResult run_prbs(std::size_t nbits);
  [[nodiscard]] LinkResult run_prbs(std::size_t nbits, util::PrbsOrder order);

  [[nodiscard]] const Transmitter& transmitter() const { return tx_; }
  [[nodiscard]] Receiver& receiver() { return rx_; }
  [[nodiscard]] const channel::Channel& channel() const { return *channel_; }
  [[nodiscard]] const LinkConfig& config() const { return config_; }

  /// Toggles waveform capture after construction (see
  /// LinkConfig::capture_waveforms): on captures all four waveforms, off
  /// captures none (LinkConfig::capture_slicer_input included).
  /// api::Simulator keeps the first diagnostic chunk and drops waveforms
  /// for the bulk BER chunks.
  void set_capture_waveforms(bool capture) {
    config_.capture_waveforms = capture;
    if (!capture) config_.capture_slicer_input = false;
  }

  /// Shared tail of every run path (including the lane-batched LaneLink):
  /// the sent count and alignment, payload comparison, truncated-tail
  /// error accounting, BER, and dropping the waveforms `config` does not
  /// capture.
  static void finalize_result(const LinkConfig& config,
                              const std::vector<std::uint8_t>& payload,
                              LinkResult& result);

 private:
  LinkConfig config_;
  Transmitter tx_;
  Receiver rx_;
  std::unique_ptr<channel::Channel> channel_;
  std::uint64_t run_counter_ = 0;
};

}  // namespace serdes::core
