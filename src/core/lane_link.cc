#include "core/lane_link.h"

#include <algorithm>
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
      lane_seeds_(std::move(lane_seeds)),
      chunks_run_(lane_seeds_.size(), 0) {
  if (!channel_) throw std::invalid_argument("LaneLink: null channel");
  if (lane_seeds_.empty()) {
    throw std::invalid_argument("LaneLink: need at least one lane seed");
  }
}

void LaneLink::run_chunk(const std::vector<std::uint8_t>& payload,
                         const std::vector<std::size_t>& lanes,
                         bool first_chunk, std::vector<LinkResult>& results) {
  const std::size_t nl = lanes.size();
  std::vector<std::uint64_t> noise_seeds(nl);
  std::vector<std::uint64_t> awgn_seeds(nl);
  for (std::size_t i = 0; i < nl; ++i) {
    noise_seeds[i] = lane_seeds_[lanes[i]];
    // The scalar link derives one AWGN seed per run from its run counter;
    // each lane keeps its own counter so the sequence matches per lane.
    awgn_seeds[i] =
        ChainPlan::awgn_seed(noise_seeds[i], chunks_run_[lanes[i]]++);
  }

  // The TX launch is lane-invariant: computed once per tile, and the
  // channel (and crosstalk) prefix of every pass runs once on it.
  const ChainPlan plan(config_, rx_);
  const Launch tx = plan.launch(tx_.wire_bits(payload));
  const std::vector<FirstPass> first =
      plan.first_pass(*channel_, tx, awgn_seeds);
  std::vector<double> means(nl);
  for (std::size_t i = 0; i < nl; ++i) means[i] = first[i].mean;

  const ChainPlan::Probes probes =
      first_chunk ? plan.capture_probes() : ChainPlan::Probes::kNone;
  const bool capture = probes == ChainPlan::Probes::kAll;
  const std::size_t capture_cap = plan.capture_limit();
  ChainPlan::TilePass chain =
      plan.tile_pass(*channel_, tx, awgn_seeds, ChainPlan::Stop::kSlicer,
                     means, probes, capture_cap, /*statistics=*/false);
  pipe::LevelPulseSource source = plan.source(tx);
  // The slicer threshold is lane-invariant (the restoring-stage midpoint).
  pipe::SamplerCdrSink sink(plan.sink_config(first[0], source, noise_seeds));

  std::vector<double> tx_capture;
  if (capture) {
    tx_capture.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(capture_cap, source.total_samples())));
  }
  pipe::Block blk;
  while (source.produce(blk, plan.block()) > 0) {
    const pipe::BlockView tx_view = blk.view();
    if (capture && tx_capture.size() < capture_cap) {
      const std::size_t take =
          std::min(capture_cap - tx_capture.size(), tx_view.size);
      tx_capture.insert(tx_capture.end(), tx_view.data, tx_view.data + take);
    }
    sink.consume(chain.process(tx_view));
  }
  sink.finish();

  results.assign(nl, LinkResult{});
  for (std::size_t i = 0; i < nl; ++i) {
    LinkResult& result = results[i];
    result.payload_bits_sent = payload.size();
    result.rx_swing_pp = first[i].swing_pp;
    result.rx = plan.recovered(sink, i);
    if (capture) {
      result.tx_out =
          analog::Waveform{source.stream_t0(), source.dt(), tx_capture};
      result.channel_out = chain.noisy->take(i);
    }
    if (chain.out != nullptr) result.rx.restored = chain.out->take(i);
    result.aligned = result.rx.aligned;
    SerDesLink::finalize_result(config_, payload, result);
  }
}

std::vector<LaneOutcome> LaneLink::measure(std::uint64_t total_bits,
                                           std::uint64_t chunk_bits,
                                           double confidence_level,
                                           util::PrbsOrder order) {
  if (chunk_bits == 0) {
    throw std::invalid_argument("LaneLink::measure: chunk_bits must be > 0");
  }
  const std::size_t n_lanes = lane_seeds_.size();
  std::vector<LaneOutcome> out(n_lanes);
  for (LaneOutcome& o : out) o.measurement.confidence_level = confidence_level;
  std::vector<util::PrbsGenerator> prbs(n_lanes, util::PrbsGenerator(order));
  // Total PRBS bits drawn per lane.  Lanes at the same count have
  // identical generator state (every lane draws the same sequence), so
  // one payload serves all of them; lanes diverge only when alignment
  // failures make a lane re-run footage its neighbours already passed.
  std::vector<std::uint64_t> drawn(n_lanes, 0);
  for (;;) {
    struct Group {
      std::uint64_t drawn;
      std::uint64_t bits;
      std::vector<std::size_t> lanes;
    };
    std::vector<Group> groups;  // insertion-ordered: deterministic sweeps
    for (std::size_t l = 0; l < n_lanes; ++l) {
      // Footage by bits *sent* (drawn), matching measure_ber: an aligned
      // chunk may compare fewer bits than it carried (the CDR tail
      // allowance), and a residual micro-chunk could never align.
      if (drawn[l] >= total_bits) continue;
      const std::uint64_t nb = std::min(chunk_bits, total_bits - drawn[l]);
      Group* group = nullptr;
      for (Group& cand : groups) {
        if (cand.drawn == drawn[l] && cand.bits == nb) {
          group = &cand;
          break;
        }
      }
      if (group == nullptr) {
        groups.push_back(Group{drawn[l], nb, {}});
        group = &groups.back();
      }
      group->lanes.push_back(l);
    }
    if (groups.empty()) break;
    for (Group& group : groups) {
      // Generate the shared payload from the first lane's generator and
      // advance the others past the same footage.
      const auto payload = prbs[group.lanes[0]].next_bits(
          static_cast<std::size_t>(group.bits));
      for (std::size_t i = 1; i < group.lanes.size(); ++i) {
        (void)prbs[group.lanes[i]].next_bits(
            static_cast<std::size_t>(group.bits));
      }
      // drawn == 0 <=> the lane's first chunk, which carries diagnostics
      // (and waveform capture when the config asks for it), exactly like
      // the scalar path's first-chunk observer.
      const bool first_chunk = group.drawn == 0;
      std::vector<LinkResult> results;
      run_chunk(payload, group.lanes, first_chunk, results);
      for (std::size_t i = 0; i < group.lanes.size(); ++i) {
        const std::size_t lane = group.lanes[i];
        LinkResult& r = results[i];
        if (first_chunk) {
          LaneOutcome& o = out[lane];
          o.cdr_decision_phase = r.rx.cdr_decision_phase;
          o.cdr_phase_updates = r.rx.cdr_phase_updates;
          o.rx_swing_pp = r.rx_swing_pp;
          o.tx_out = std::move(r.tx_out);
          o.channel_out = std::move(r.channel_out);
          o.restored = std::move(r.rx.restored);
        }
        BerMeasurement& m = out[lane].measurement;
        if (!r.aligned) {
          // Alignment failure: every payload bit in the chunk is lost
          // (measure_ber's accounting).
          m.aligned = false;
          m.errors += group.bits;
          m.bits += group.bits;
        } else {
          m.bits += r.payload_bits_compared;
          m.errors += r.bit_errors;
        }
        drawn[lane] += group.bits;
      }
    }
  }
  for (LaneOutcome& o : out) {
    BerMeasurement& m = o.measurement;
    if (m.bits > 0) {
      m.ber = static_cast<double>(m.errors) / static_cast<double>(m.bits);
    }
    m.ber_upper_bound = ber_upper_bound(m.bits, m.errors, confidence_level);
  }
  return out;
}

}  // namespace serdes::core
