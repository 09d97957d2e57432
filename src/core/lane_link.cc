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

std::vector<LaneOutcome> LaneLink::measure(std::uint64_t total_bits,
                                           std::uint64_t chunk_bits,
                                           double confidence_level,
                                           util::PrbsOrder order) const {
  std::vector<LaneOutcome> out(lanes());
  const ChainPlan plan(config_, rx_);
  // The first chunk (run 0) captures what the config asks for, and the
  // rest capture nothing.
  const ChainPlan::Probes first_probes = plan.capture_probes();
  const std::vector<BerMeasurement> m = measure_chunks(
      lanes(), total_bits, chunk_bits, confidence_level, order, 0,
      [&](const std::vector<std::uint8_t>& payload, std::uint64_t run_index) {
        std::vector<LinkResult> r = plan.run(
            *channel_, plan.launch(tx_.wire_bits(payload)), lane_seeds_,
            run_index,
            run_index == 0 ? first_probes : ChainPlan::Probes::kNone);
        for (LinkResult& lane : r) {
          SerDesLink::finalize_result(config_, payload, lane);
        }
        return r;
      },
      [&](std::vector<LinkResult>& first) {
        for (std::size_t l = 0; l < out.size(); ++l) {
          out[l].take_first_chunk(first[l]);
        }
      });
  for (std::size_t l = 0; l < out.size(); ++l) out[l].measurement = m[l];
  return out;
}

}  // namespace serdes::core
