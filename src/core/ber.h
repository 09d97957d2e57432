// Bit-error-ratio measurement with statistical confidence.
//
// "Zero BER" in the paper means no errors observed over the simulation
// window; this module makes that statement quantitative via the standard
// confidence-level treatment (an error-free run of N bits bounds the true
// BER below -ln(1-CL)/N).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "analog/waveform.h"
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

/// One lane's outcome of a chunked run: its measurement plus the first
/// chunk's diagnostics, which api::Simulator builds a report from.
struct LaneOutcome {
  BerMeasurement measurement;
  int cdr_decision_phase = 0;
  std::uint64_t cdr_phase_updates = 0;
  double rx_swing_pp = 0.0;
  double decision_threshold = 0.0;
  /// The first chunk's waveforms, as its run captured them (see
  /// LinkResult; empty when capture is off).
  analog::Waveform tx_out;
  analog::Waveform channel_out;
  analog::Waveform restored;

  /// Takes the diagnostics and the waveforms of the first chunk's result.
  void take_first_chunk(LinkResult& first);
};

/// One chunk for every lane: `payload` as run number `run_index`, one
/// LinkResult per lane.  Runs of distinct indices may proceed concurrently.
using ChunkRun = std::function<std::vector<LinkResult>(
    const std::vector<std::uint8_t>& payload, std::uint64_t run_index)>;

/// The chunk loop behind measure_ber and LaneLink::measure: `lanes` (>= 1)
/// lanes share each chunk of `total_bits` of PRBS data, in chunks of
/// `chunk_bits`.  Chunk i runs as run number first_run + i.  Throws
/// std::invalid_argument when chunk_bits is 0.
///
/// Chunk 0 runs alone on the calling thread, and `on_first` sees its
/// results before any other chunk starts: it may reconfigure what `run`
/// reads (both callers turn capture off there) and take what it keeps.
/// The remaining chunks fan out over util::parallel_for at the hardware
/// concurrency (inline inside another call's task), in windows of at most
/// max(1, 2^18 / (chunk_bits * lanes)) chunks, so no more than 2^18
/// lane-bits are in flight at once.  One thread steps the PRBS generator,
/// and each lane's tally takes the chunks in order, so the result is the
/// serial loop's: an unaligned chunk counts every bit it sent as an error,
/// an aligned one its compared bits and errors.  Returns one measurement
/// per lane.
std::vector<BerMeasurement> measure_chunks(
    std::size_t lanes, std::uint64_t total_bits, std::uint64_t chunk_bits,
    double confidence_level, util::PrbsOrder order, std::uint64_t first_run,
    const ChunkRun& run,
    const std::function<void(std::vector<LinkResult>&)>& on_first);

/// Runs the link over `total_bits` of PRBS data split into chunks of
/// `chunk_bits` (each chunk is an independent waveform with fresh noise:
/// one run of `link`), accumulating errors.  Throws std::invalid_argument
/// when chunk_bits is 0.
///
/// `on_chunk`, if set, sees the first chunk's LinkResult and no other,
/// before any other chunk starts: it may reconfigure `link` and take the
/// result's waveforms.  api::Simulator keeps its diagnostics and turns
/// capture off for the rest.
///
/// This is measure_chunks over one lane.  Chunk i runs as run number
/// first + i of `link` (SerDesLink::run's const form, with `first` from
/// SerDesLink::reserve_runs), so the measurement, and every later run of
/// `link`, is identical to running the chunks serially.
BerMeasurement measure_ber(
    SerDesLink& link, std::uint64_t total_bits,
    std::uint64_t chunk_bits = 4096, double confidence_level = 0.95,
    util::PrbsOrder order = util::PrbsOrder::kPrbs31,
    const std::function<void(LinkResult&)>& on_chunk = {});

/// Upper bound of true BER given an observation (Poisson/chi-square based;
/// exact for zero errors, a good approximation otherwise).
double ber_upper_bound(std::uint64_t bits, std::uint64_t errors,
                       double confidence_level);

}  // namespace serdes::core
