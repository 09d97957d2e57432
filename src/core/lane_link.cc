#include "core/lane_link.h"

#include <stdexcept>
#include <utility>

#include "core/chain_plan.h"
#include "core/link.h"

namespace serdes::core {

LaneLink::LaneLink(const LinkConfig& config,
                   std::unique_ptr<channel::Channel> ch,
                   std::vector<std::uint64_t> lane_seeds)
    : config_(config),
      tx_(config),
      rx_(config),
      channel_(std::move(ch)),
      lane_seeds_(std::move(lane_seeds)) {
  if (!channel_) throw std::invalid_argument("LaneLink: null channel");
  if (lane_seeds_.empty()) {
    throw std::invalid_argument("LaneLink: need at least one lane seed");
  }
}

std::vector<LinkResult> LaneLink::run_chunk(
    const std::vector<std::uint8_t>& payload, std::uint64_t run_index) const {
  const std::size_t nl = lane_seeds_.size();
  std::vector<std::uint64_t> awgn_seeds(nl);
  for (std::size_t l = 0; l < nl; ++l) {
    awgn_seeds[l] = ChainPlan::awgn_seed(lane_seeds_[l], run_index);
  }

  // The TX launch is lane-invariant: computed once per tile, and the
  // channel (and crosstalk) prefix of every pass runs once on it.
  const ChainPlan plan(config_, rx_);
  const Launch tx = plan.launch(tx_.wire_bits(payload));
  const ChainPlan::Probes probes = plan.capture_probes();
  const bool capture = probes == ChainPlan::Probes::kAll;
  ChainPlan::TileKept kept;
  const std::vector<FirstPass> first = plan.first_pass(
      *channel_, tx, awgn_seeds, probes, plan.capture_limit(), &kept);
  std::vector<double> means(nl);
  for (std::size_t l = 0; l < nl; ++l) means[l] = first[l].mean;

  ChainPlan::TilePass chain = plan.tile_pass(
      *channel_, tx, awgn_seeds, ChainPlan::Stop::kSlicer, means, probes,
      plan.capture_limit(), /*statistics=*/false, std::move(kept));
  pipe::LevelPulseSource source = plan.source(tx);
  // The slicer threshold is lane-invariant (the restoring-stage midpoint).
  pipe::SamplerCdrSink sink(plan.sink_config(first[0], source, lane_seeds_));
  const analog::Waveform tx_out = plan.stream(
      source, chain, [&](const pipe::LaneView& in) { sink.consume(in); },
      capture);
  sink.finish();

  std::vector<LinkResult> results(nl);
  for (std::size_t l = 0; l < nl; ++l) {
    LinkResult& result = results[l];
    result.rx_swing_pp = first[l].swing_pp;
    result.decision_threshold = plan.decision_threshold(first[l]);
    result.rx = plan.recovered(sink, l);
    if (capture) {
      result.tx_out = tx_out;
      result.channel_out = chain.noisy->take(l);
    }
    if (chain.out != nullptr) result.rx.restored = chain.out->take(l);
    SerDesLink::finalize_result(config_, payload, result);
  }
  return results;
}

std::vector<LaneOutcome> LaneLink::measure(std::uint64_t total_bits,
                                           std::uint64_t chunk_bits,
                                           double confidence_level,
                                           util::PrbsOrder order) {
  std::vector<LaneOutcome> out(lanes());
  // The first chunk captures what the config asks for, and the rest
  // capture nothing.
  const bool waveforms = config_.capture_waveforms;
  const bool slicer_input = config_.capture_slicer_input;
  const std::vector<BerMeasurement> m = measure_chunks(
      lanes(), total_bits, chunk_bits, confidence_level, order, 0,
      [this](const std::vector<std::uint8_t>& payload,
             std::uint64_t run_index) { return run_chunk(payload, run_index); },
      [&](std::vector<LinkResult>& first) {
        for (std::size_t l = 0; l < out.size(); ++l) {
          out[l].take_first_chunk(first[l]);
        }
        config_.capture_waveforms = false;
        config_.capture_slicer_input = false;
      });
  config_.capture_waveforms = waveforms;
  config_.capture_slicer_input = slicer_input;
  for (std::size_t l = 0; l < out.size(); ++l) out[l].measurement = m[l];
  return out;
}

}  // namespace serdes::core
