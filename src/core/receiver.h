// Receiver (paper Fig 5): the characterized analog front end (AC-coupled
// RFI + restoring inverter) and what the receive chain recovers.
// core::ChainPlan lays out the chain around it: multi-phase sampling,
// oversampling CDR, frame alignment and deserializer.
#pragma once

#include <cstdint>
#include <vector>

#include "analog/rfi.h"
#include "analog/sampler.h"
#include "analog/waveform.h"
#include "core/config.h"
#include "digital/serializer.h"

namespace serdes::core {

/// Everything the receiver recovered from one waveform, with diagnostics.
struct ReceiveResult {
  /// Raw CDR-recovered bit stream (preamble + sync + payload as seen).
  std::vector<std::uint8_t> recovered_bits;
  /// Payload after sync-word alignment (empty if alignment failed).
  std::vector<std::uint8_t> payload;
  /// Deserialized frames of the payload.
  std::vector<digital::ParallelFrame> frames;
  bool aligned = false;
  int cdr_decision_phase = 0;
  std::uint64_t cdr_phase_updates = 0;
  std::uint64_t metastable_samples = 0;
  /// RFI output waveform (for eye analysis / Fig 8 plots).
  analog::Waveform rfi_out;
  /// Restored (rail-to-rail) waveform presented to the samplers.
  analog::Waveform restored;
};

class Receiver {
 public:
  explicit Receiver(const LinkConfig& config);

  /// The RFI model in use (bias/gain/bandwidth introspection).
  [[nodiscard]] const analog::RfiCircuit& rfi() const { return rfi_circuit_; }
  /// The calibrated behavioural RFI front end (the streaming pipeline
  /// builds its block-wise equivalent from this).
  [[nodiscard]] const analog::RfiStage& rfi_stage() const {
    return rfi_stage_;
  }
  [[nodiscard]] const analog::RestoringInverter& restoring() const {
    return restoring_;
  }
  /// Decision threshold used by the samplers (restoring-stage midpoint).
  [[nodiscard]] double decision_threshold() const { return threshold_; }

 private:
  /// The characterized analog front end, solved once per device design and
  /// sample period and memoized for the life of the process (receiver.cc).
  struct FrontEnd;
  explicit Receiver(const FrontEnd& front_end);

  analog::RfiCircuit rfi_circuit_;
  analog::RfiStage rfi_stage_;
  analog::RestoringInverter restoring_;
  double threshold_;
};

}  // namespace serdes::core
