// Transmitter: framing + voltage-mode driver, per paper Section IV-A.
//
// Frames a payload bit stream (Serializer::serialize flattens parallel
// frames into one) with the link-layer preamble/sync; core::ChainPlan
// turns the framed bits into the launch the driver puts on the channel.
#pragma once

#include <cstdint>
#include <vector>

#include "analog/driver.h"
#include "core/config.h"

namespace serdes::core {

class Transmitter {
 public:
  explicit Transmitter(const LinkConfig& config);

  /// The on-wire bit stream for a payload (preamble + sync + payload) —
  /// exposed so tests can check the analog waveform bit-for-bit.
  [[nodiscard]] std::vector<std::uint8_t> wire_bits(
      const std::vector<std::uint8_t>& payload) const;

  [[nodiscard]] const analog::InverterChainDriver& driver() const {
    return driver_;
  }

 private:
  LinkConfig config_;
  analog::InverterChainDriver driver_;
};

}  // namespace serdes::core
