// Bit-error-ratio measurement with statistical confidence.
//
// "Zero BER" in the paper means no errors observed over the simulation
// window; this module makes that statement quantitative via the standard
// confidence-level treatment (an error-free run of N bits bounds the true
// BER below -ln(1-CL)/N).
#pragma once

#include <cstdint>
#include <functional>

#include "core/link.h"

namespace serdes::core {

struct BerMeasurement {
  std::uint64_t bits = 0;
  std::uint64_t errors = 0;
  double ber = 0.0;
  /// Upper bound on the true BER at the given confidence level.
  double ber_upper_bound = 0.0;
  double confidence_level = 0.95;
  bool aligned = true;

  [[nodiscard]] bool error_free() const { return aligned && errors == 0; }
};

/// Runs the link over `total_bits` of PRBS data split into chunks of
/// `chunk_bits` (each chunk is an independent waveform with fresh noise:
/// one run of `link`), accumulating errors.  Throws std::invalid_argument
/// when chunk_bits is 0.
///
/// `on_chunk`, if set, sees the first chunk's LinkResult and no other.
/// The first chunk runs alone on the calling thread, and the observer may
/// reconfigure `link` before any other chunk starts: api::Simulator lifts
/// its diagnostics off that chunk and turns capture off for the rest.
///
/// The remaining chunks fan out over util::parallel_for at the hardware
/// concurrency (inline inside another call's task), in windows of at most
/// max(1, 2^18 / chunk_bits) chunks, so no more than 2^18 payload bits are
/// in flight at once and chunks of more than 2^17 bits run one at a time.
/// Chunk i runs as run number first + i of `link` (SerDesLink::run's const
/// form), which advances the link's run counter by the number of chunks.
/// The measurement, and every later run of `link`, is identical to
/// running the chunks serially.
BerMeasurement measure_ber(
    SerDesLink& link, std::uint64_t total_bits,
    std::uint64_t chunk_bits = 4096, double confidence_level = 0.95,
    util::PrbsOrder order = util::PrbsOrder::kPrbs31,
    const std::function<void(const LinkResult&)>& on_chunk = {});

/// Upper bound of true BER given an observation (Poisson/chi-square based;
/// exact for zero errors, a good approximation otherwise).
double ber_upper_bound(std::uint64_t bits, std::uint64_t errors,
                       double confidence_level);

}  // namespace serdes::core
