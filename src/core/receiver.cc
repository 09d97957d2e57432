#include "core/receiver.h"

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <mutex>

namespace serdes::core {

namespace {

/// The exact bit patterns of every input the front-end characterization
/// reads: the RFI design, the restoring inverter's widths and the sample
/// period the stage objects keep for their batch `process`.  Not a hash:
/// a collision would hand back another device.
using FrontEndKey = std::array<std::uint64_t, 9>;

static_assert(sizeof(analog::RfiDesign) == 6 * sizeof(double),
              "a new RfiDesign field must join FrontEndKey");

FrontEndKey front_end_key(const LinkConfig& config) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const analog::RfiDesign& rfi = config.rfi;
  return {bits(rfi.wn_um),
          bits(rfi.wp_um),
          bits(rfi.pseudo_res_w_um),
          bits(rfi.vdd.value()),
          bits(rfi.coupling_cap.value()),
          bits(rfi.load_cap.value()),
          bits(config.restoring_wn_um),
          bits(config.restoring_wp_um),
          bits(config.sample_period().value())};
}

}  // namespace

/// Solving the front end from the MOSFET model takes four switching-
/// threshold searches and the restoring inverter's 513-point VTC table
/// (~3.6 ms); every sweep cell, stat analysis and training candidate
/// builds a Receiver for the same few designs.
struct Receiver::FrontEnd {
  explicit FrontEnd(const LinkConfig& config)
      : rfi_circuit(config.rfi),
        rfi_stage(rfi_circuit, config.sample_period()),
        restoring(config.restoring_wn_um, config.restoring_wp_um,
                  config.rfi.vdd, config.sample_period()) {}

  /// The first call for a key characterizes under the lock; entries are
  /// never changed or evicted, so the reference stays valid.
  static const FrontEnd& of(const LinkConfig& config);

  analog::RfiCircuit rfi_circuit;
  analog::RfiStage rfi_stage;
  analog::RestoringInverter restoring;
};

const Receiver::FrontEnd& Receiver::FrontEnd::of(const LinkConfig& config) {
  static std::mutex mutex;
  static std::map<FrontEndKey, FrontEnd> memo;
  const FrontEndKey key = front_end_key(config);
  const std::lock_guard<std::mutex> lock(mutex);
  return memo.try_emplace(key, config).first->second;
}

Receiver::Receiver(const LinkConfig& config)
    : Receiver(FrontEnd::of(config)) {}

Receiver::Receiver(const FrontEnd& front_end)
    : rfi_circuit_(front_end.rfi_circuit),
      rfi_stage_(front_end.rfi_stage),
      restoring_(front_end.restoring) {
  // Decision level: the restoring inverter's metastable point — the output
  // voltage equals the input there, so it is the natural slicing level for
  // the rail-restored waveform.
  threshold_ = restoring_.threshold();
}

}  // namespace serdes::core
