#include "core/ber.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/parallel.h"

namespace serdes::core {

double ber_upper_bound(std::uint64_t bits, std::uint64_t errors,
                       double confidence_level) {
  if (bits == 0) return 1.0;
  // Poisson upper limit on the mean given `errors` observed:
  // for k=0, mu_up = -ln(1-CL); for k>0 use the Pearson-Hartley
  // approximation mu_up ≈ k + z*sqrt(k) + (z^2+2)/3 with z the normal
  // quantile of CL (accurate enough for link budgeting).
  double mu_up;
  if (errors == 0) {
    mu_up = -std::log(1.0 - confidence_level);
  } else {
    // Normal quantile via inverse error function relation.
    const double z = std::sqrt(2.0) *
                     [](double p) {
                       // Acklam-style rational approximation of erfinv
                       // through the quantile of the standard normal.
                       // For our CL range (0.8..0.999) a simple Newton on
                       // erf is robust.
                       double x = 0.0;
                       for (int i = 0; i < 60; ++i) {
                         const double err = std::erf(x) - p;
                         const double d =
                             2.0 / std::sqrt(3.141592653589793) *
                             std::exp(-x * x);
                         x -= err / d;
                       }
                       return x;
                     }(2.0 * confidence_level - 1.0);
    const double k = static_cast<double>(errors);
    mu_up = k + z * std::sqrt(k) + (z * z + 2.0) / 3.0;
  }
  return std::min(1.0, mu_up / static_cast<double>(bits));
}

void LaneOutcome::take_first_chunk(LinkResult& first) {
  cdr_decision_phase = first.rx.cdr_decision_phase;
  cdr_phase_updates = first.rx.cdr_phase_updates;
  rx_swing_pp = first.rx_swing_pp;
  decision_threshold = first.decision_threshold;
  tx_out = std::move(first.tx_out);
  channel_out = std::move(first.channel_out);
  restored = std::move(first.rx.restored);
}

namespace {

/// Lane-bits one window of fanned-out chunks may hold: no more than this
/// is in flight at once, so a run's memory stays bounded however deep it
/// is, and chunks of more than half of it run one at a time.
constexpr std::uint64_t kWindowBits = std::uint64_t{1} << 18;

/// What the tally keeps of one lane's chunk.
struct ChunkCount {
  bool aligned = false;
  std::uint64_t compared = 0;
  std::uint64_t errors = 0;
};

ChunkCount count_of(const LinkResult& r) {
  return {r.aligned, r.payload_bits_compared, r.bit_errors};
}

/// Adds a chunk of `sent` payload bits to `m`.  Footage is tracked by bits
/// *sent*, not bits compared: an aligned chunk may compare slightly fewer
/// bits than it carried (the CDR pipeline's tail allowance), and a
/// residual micro-chunk re-run for that deficit could never align — it
/// would poison the whole measurement.
void tally(BerMeasurement& m, std::uint64_t sent, const ChunkCount& c) {
  if (!c.aligned) {
    // Alignment failure: every payload bit in the chunk is lost.
    m.aligned = false;
    m.errors += sent;
    m.bits += sent;
    return;
  }
  // Bits the receiver truncated (pipeline tail) beyond the CDR allowance
  // are already charged as errors inside LinkResult
  // (SerDesLink::finalize_result); only the small allowance itself is
  // excluded from both counts.
  m.bits += c.compared;
  m.errors += c.errors;
}

/// The chunks a run of `total_bits` takes.
std::uint64_t chunk_count(std::uint64_t total_bits,
                          std::uint64_t chunk_bits) {
  if (chunk_bits == 0) {
    throw std::invalid_argument("chunked run: chunk_bits must be > 0");
  }
  return total_bits / chunk_bits + (total_bits % chunk_bits != 0 ? 1 : 0);
}

}  // namespace

std::vector<BerMeasurement> measure_chunks(
    std::size_t lanes, std::uint64_t total_bits, std::uint64_t chunk_bits,
    double confidence_level, util::PrbsOrder order, std::uint64_t first_run,
    const ChunkRun& run,
    const std::function<void(std::vector<LinkResult>&)>& on_first) {
  (void)chunk_count(total_bits, chunk_bits);  // rejects chunk_bits == 0
  std::vector<BerMeasurement> m(lanes);
  for (BerMeasurement& lane : m) lane.confidence_level = confidence_level;

  util::PrbsGenerator prbs(order);
  std::uint64_t sent = 0;
  std::uint64_t next_run = first_run;
  if (total_bits > 0) {
    // Chunk 0 runs alone on this thread, and its observer may reconfigure
    // the link before any other chunk starts.
    const std::uint64_t n = std::min(chunk_bits, total_bits);
    std::vector<LinkResult> r =
        run(prbs.next_bits(static_cast<std::size_t>(n)), next_run++);
    if (on_first) on_first(r);
    for (std::size_t l = 0; l < lanes; ++l) tally(m[l], n, count_of(r[l]));
    sent = n;
  }

  // The rest fan out a window at a time.  This thread steps the PRBS past
  // each chunk, keeping a copy of the generator at its start; the chunk's
  // task regenerates its payload from that copy and runs with its own run
  // index, so every chunk sees the payload and noise of the serial loop.
  const std::uint64_t window =
      std::max<std::uint64_t>(1, kWindowBits / chunk_bits / lanes);
  std::vector<util::PrbsGenerator> starts;
  std::vector<std::uint64_t> sizes;
  std::vector<ChunkCount> counts;
  while (sent < total_bits) {
    starts.clear();
    sizes.clear();
    while (sizes.size() < window && sent < total_bits) {
      const std::uint64_t n = std::min(chunk_bits, total_bits - sent);
      starts.push_back(prbs);
      for (std::uint64_t k = 0; k < n; ++k) (void)prbs.next();
      sizes.push_back(n);
      sent += n;
    }
    counts.assign(sizes.size() * lanes, ChunkCount{});
    util::parallel_for(sizes.size(), 0, [&](std::size_t i) {
      util::PrbsGenerator gen = starts[i];
      const std::vector<LinkResult> r = run(
          gen.next_bits(static_cast<std::size_t>(sizes[i])), next_run + i);
      for (std::size_t l = 0; l < lanes; ++l) {
        counts[i * lanes + l] = count_of(r[l]);
      }
    });
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      for (std::size_t l = 0; l < lanes; ++l) {
        tally(m[l], sizes[i], counts[i * lanes + l]);
      }
    }
    next_run += sizes.size();
  }

  for (BerMeasurement& lane : m) {
    if (lane.bits > 0) {
      lane.ber = static_cast<double>(lane.errors) /
                 static_cast<double>(lane.bits);
    }
    lane.ber_upper_bound =
        ber_upper_bound(lane.bits, lane.errors, confidence_level);
  }
  return m;
}

BerMeasurement measure_ber(SerDesLink& link, std::uint64_t total_bits,
                           std::uint64_t chunk_bits, double confidence_level,
                           util::PrbsOrder order,
                           const std::function<void(LinkResult&)>& on_chunk) {
  const std::uint64_t first =
      link.reserve_runs(chunk_count(total_bits, chunk_bits));
  const SerDesLink& shared = link;
  return measure_chunks(
      1, total_bits, chunk_bits, confidence_level, order, first,
      [&shared](const std::vector<std::uint8_t>& payload,
                std::uint64_t run_index) {
        std::vector<LinkResult> r;
        r.push_back(shared.run(payload, run_index));
        return r;
      },
      [&on_chunk](std::vector<LinkResult>& r) {
        if (on_chunk) on_chunk(r[0]);
      })[0];
}

}  // namespace serdes::core
