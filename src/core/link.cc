#include "core/link.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/chain_plan.h"

namespace serdes::core {

SerDesLink::SerDesLink(const LinkConfig& config,
                       std::unique_ptr<channel::Channel> ch)
    : config_(config), tx_(config), rx_(config), channel_(std::move(ch)) {
  if (!channel_) throw std::invalid_argument("SerDesLink: null channel");
}

LinkResult SerDesLink::run(const std::vector<std::uint8_t>& payload) {
  return run(payload, run_counter_++);
}

LinkResult SerDesLink::run(const std::vector<std::uint8_t>& payload,
                           std::uint64_t run_index) const {
  // Receiver-input AWGN: a fresh seed per run keeps repeated runs
  // statistically independent while the whole experiment stays
  // deterministic.
  const std::uint64_t noise_run_seed =
      ChainPlan::awgn_seed(config_.noise_seed, run_index);
  const ChainPlan plan(config_, rx_);
  const Launch tx = plan.launch(tx_.wire_bits(payload));
  // Capture probes sit at the TX output, the receiver input, the RFI output
  // and the slicer input, or at the slicer input alone.
  const ChainPlan::Probes probes = plan.capture_probes();
  const bool capture = probes == ChainPlan::Probes::kAll;

  // ---- Pass 1: what the second pass must know up front ---------------------
  // The RFI front end subtracts the whole-stream mean (the AC coupling in
  // steady state), and the PAM4 slicers sit on the clean stream's range;
  // streaming can only know either after a full pass over the cheap front
  // half of the datapath.  A short chunk's pass 1 keeps its output, and the
  // probes in front of it run there.
  ChainPlan::ScalarKept kept;
  const FirstPass first = plan.first_pass(
      *channel_, tx, noise_run_seed, probes, plan.capture_limit(), &kept);

  // ---- Pass 2: the chain into the sampler/CDR sink -------------------------
  // It resumes from pass 1's output when pass 1 kept it, and otherwise
  // re-runs the same deterministic front half; either way it carries on to
  // the slicers.
  ChainPlan::PassOptions options;
  options.awgn_seed = noise_run_seed;
  options.mean = first.mean;
  options.probes = probes;
  options.capture = plan.capture_limit();
  ChainPlan::Pass chain = plan.pass(*channel_, tx, options, std::move(kept));
  pipe::LevelPulseSource source = plan.source(tx);
  pipe::SamplerCdrSink sink(
      plan.sink_config(first, source, {config_.noise_seed}));

  LinkResult result;
  result.tx_out = plan.stream(
      source, chain, [&](const pipe::BlockView& in) { sink.consume(in); },
      capture);
  sink.finish();
  result.rx_swing_pp = first.swing_pp;
  result.rx = plan.recovered(sink, 0);
  if (capture) {
    result.channel_out = chain.noisy->take();
    if (chain.rfi != nullptr) result.rx.rfi_out = chain.rfi->take();
  }
  // PAM4 has no RFI: the slicers read the equalized stream, which fills
  // the report's "restored" slot (the receiver input itself when there is
  // no CTLE either, and one probe serves both).
  if (chain.out != nullptr) {
    result.rx.restored =
        chain.out == chain.noisy ? result.channel_out : chain.out->take();
  }
  result.decision_threshold = plan.decision_threshold(first);
  finalize_result(config_, payload, result);
  return result;
}

void SerDesLink::finalize_result(const LinkConfig& config,
                                 const std::vector<std::uint8_t>& payload,
                                 LinkResult& result) {
  result.payload_bits_sent = payload.size();
  result.aligned = result.rx.aligned;
  const auto& got = result.rx.payload;
  const std::size_t n = std::min(payload.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    if ((payload[i] != 0) != (got[i] != 0)) ++result.bit_errors;
  }
  result.payload_bits_compared = n;
  // Bits the receiver never produced (truncated tail) count as errors once
  // they exceed the CDR pipeline allowance of a couple of UIs.  Unaligned
  // runs are excluded: there the whole chunk is already charged as lost by
  // the BER accounting in measure_ber.
  if (result.aligned && payload.size() > got.size()) {
    const std::uint64_t missing = payload.size() - got.size();
    // The allowance is per recovered symbol: PAM4 loses 2 bits per UI the
    // CDR pipeline still holds at end of stream.
    const std::uint64_t allowance =
        kCdrTailAllowanceBits * static_cast<std::uint64_t>(config.bits_per_ui());
    if (missing > allowance) {
      const std::uint64_t lost = missing - allowance;
      result.bit_errors += lost;
      result.payload_bits_compared += lost;
    }
  }
  if (result.payload_bits_compared > 0) {
    result.ber = static_cast<double>(result.bit_errors) /
                 static_cast<double>(result.payload_bits_compared);
  }
  if (!config.capture_waveforms) {
    result.tx_out = {};
    result.channel_out = {};
    result.rx.rfi_out = {};
    if (!config.capture_slicer_input) result.rx.restored = {};
  }
}

LinkResult SerDesLink::run_prbs(std::size_t nbits) {
  return run_prbs(nbits, config_.prbs_order);
}

LinkResult SerDesLink::run_prbs(std::size_t nbits, util::PrbsOrder order) {
  util::PrbsGenerator prbs(order);
  return run(prbs.next_bits(nbits));
}

}  // namespace serdes::core
