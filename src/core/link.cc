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
  const ChainPlan plan(config_, rx_);
  std::vector<LinkResult> result =
      plan.run(*channel_, plan.launch(tx_.wire_bits(payload)),
               {config_.noise_seed}, run_index, plan.capture_probes());
  finalize_result(config_, payload, result[0]);
  return std::move(result[0]);
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
}

LinkResult SerDesLink::run_prbs(std::size_t nbits) {
  return run_prbs(nbits, config_.prbs_order);
}

LinkResult SerDesLink::run_prbs(std::size_t nbits, util::PrbsOrder order) {
  util::PrbsGenerator prbs(order);
  return run(prbs.next_bits(nbits));
}

}  // namespace serdes::core
