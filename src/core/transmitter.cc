#include "core/transmitter.h"

#include "digital/framing.h"

namespace serdes::core {

Transmitter::Transmitter(const LinkConfig& config)
    : config_(config), driver_(config.driver) {}

std::vector<std::uint8_t> Transmitter::wire_bits(
    const std::vector<std::uint8_t>& payload) const {
  return digital::frame_stream(payload, config_.framing);
}

}  // namespace serdes::core
