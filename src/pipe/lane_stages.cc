#include "pipe/lane_stages.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace serdes::pipe {

// ---- LaneAwgnStage ----------------------------------------------------------

LaneAwgnStage::LaneAwgnStage(double sigma,
                             const std::vector<std::uint64_t>& seeds)
    : sigma_(sigma) {
  if (seeds.empty()) {
    throw std::invalid_argument("LaneAwgnStage: need at least one lane seed");
  }
  rngs_.reserve(seeds.size());
  for (const std::uint64_t seed : seeds) rngs_.emplace_back(seed);
}

void LaneAwgnStage::process(const LaneView& in, LaneBlock& out) {
  if (in.lanes != 1) {
    throw std::invalid_argument("LaneAwgnStage: fans out one-lane tiles");
  }
  const std::size_t lanes = rngs_.size();
  out.shape(in.size, lanes, in.start_index, in.stream_t0, in.dt, in.last);
  double* samples = out.data();
  const double sigma = sigma_;
  if (sigma > 0.0 && lanes == 1) {
    util::Rng& rng = rngs_[0];
    for (std::size_t i = 0; i < in.size; ++i) {
      samples[i] = in.data[i] + rng.gaussian(0.0, sigma);
    }
  } else if (sigma > 0.0) {
    // The gaussian draw itself stays scalar (ziggurat edge path redraws a
    // data-dependent number of times); each lane advances its own stream
    // one draw per sample, exactly as it does alone.
    for (std::size_t i = 0; i < in.size; ++i) {
      const double base = in.data[i];
      double* dst = samples + i * lanes;
      for (std::size_t l = 0; l < lanes; ++l) {
        dst[l] = base + rngs_[l].gaussian(0.0, sigma);
      }
    }
  } else {
    for (std::size_t i = 0; i < in.size; ++i) {
      const double base = in.data[i];
      double* dst = samples + i * lanes;
      for (std::size_t l = 0; l < lanes; ++l) dst[l] = base;
    }
  }
}

// ---- LaneCtleStage ----------------------------------------------------------

LaneCtleStage::LaneCtleStage(util::Decibel boost, util::Hertz pole,
                             util::Second dt, std::size_t lanes)
    : k_(util::db_to_amplitude(boost) - 1.0),
      lpf_(pole, dt),
      x1_(lanes, 0.0),
      y1_(lanes, 0.0) {}

void LaneCtleStage::process(const LaneView& in, LaneBlock& out) {
  out.match(in);
  double* samples = out.data();
  const double k = k_;
  if (in.lanes == 1) {
    // The pole steps in locals (state in registers, see analog/filters.h)
    // in the same loop as the peaking combine.  Each iteration reads in[i]
    // before writing out[i], so `out` may alias `in`.
    const analog::OnePoleLowPass lpf = lpf_;
    double x1 = x1_[0];
    double y1 = y1_[0];
    for (std::size_t i = 0; i < in.size; ++i) {
      const double x = in.data[i];
      samples[i] = x + k * (x - lpf.step(x, x1, y1));
    }
    x1_[0] = x1;
    y1_[0] = y1;
    return;
  }
  const std::size_t values = in.size * in.lanes;
  scratch_.resize(values);
  lpf_.process_lanes(in.data, scratch_.data(), in.size, in.lanes, x1_.data(),
                     y1_.data());
  // The peaking combine is element-wise, so one flat pass over the tile
  // keeps every lane's operation order that of the one-lane loop.
  const double* low = scratch_.data();
  for (std::size_t i = 0; i < values; ++i) {
    const double x = in.data[i];
    samples[i] = x + k * (x - low[i]);
  }
}

// ---- LaneRfiStage -----------------------------------------------------------

LaneRfiStage::LaneRfiStage(const analog::RfiStage& rfi, util::Second dt,
                           std::size_t lanes)
    : rfi_(&rfi),
      lpf_(rfi.bandwidth(), dt),
      deltas_(lanes, 0.0),
      x1_(lanes, 0.0),
      y1_(lanes, 0.0) {}

void LaneRfiStage::process(const LaneView& in, LaneBlock& out) {
  out.match(in);
  double* samples = out.data();
  // The saturating VTC with its loop-invariant loads hoisted; the formula
  // itself has one home (saturate_value).  tanh dominates.
  const double bias = rfi_->bias();
  const double gain = rfi_->gain();
  const double half = rfi_->vdd() / 2.0;
  if (in.lanes == 1) {
    // DC removal, the output pole (state in locals) and the VTC in one
    // loop, so the pole's recurrence overlaps the tanh of earlier samples
    // instead of running as a pass of its own.
    const double delta = deltas_[0];
    const analog::OnePoleLowPass lpf = lpf_;
    double x1 = x1_[0];
    double y1 = y1_[0];
    for (std::size_t i = 0; i < in.size; ++i) {
      samples[i] = analog::RfiStage::saturate_value(
          lpf.step(in.data[i] + delta, x1, y1), bias, gain, half);
    }
    x1_[0] = x1;
    y1_[0] = y1;
    return;
  }
  const double* deltas = deltas_.data();
  for (std::size_t i = 0; i < in.size; ++i) {
    const double* src = in.data + i * in.lanes;
    double* dst = samples + i * in.lanes;
    for (std::size_t l = 0; l < in.lanes; ++l) dst[l] = src[l] + deltas[l];
  }
  lpf_.process_lanes(samples, samples, in.size, in.lanes, x1_.data(),
                     y1_.data());
  // Element-wise saturating VTC: one flat pass.
  const std::size_t values = in.size * in.lanes;
  for (std::size_t i = 0; i < values; ++i) {
    samples[i] = analog::RfiStage::saturate_value(samples[i], bias, gain,
                                                  half);
  }
}

// ---- LaneRestoreStage -------------------------------------------------------

LaneRestoreStage::LaneRestoreStage(const analog::RestoringInverter& inv,
                                   util::Second dt, std::size_t lanes)
    : inv_(&inv), pole_(inv.bandwidth(), dt), x1_(lanes, 0.0),
      y1_(lanes, 0.0) {}

void LaneRestoreStage::process(const LaneView& in, LaneBlock& out) {
  out.match(in);
  double* samples = out.data();
  const analog::RestoringInverter& inv = *inv_;
  if (in.lanes == 1) {
    const analog::OnePoleLowPass pole = pole_;
    double x1 = x1_[0];
    double y1 = y1_[0];
    for (std::size_t i = 0; i < in.size; ++i) {
      samples[i] = pole.step(inv.restore_level(in.data[i]), x1, y1);
    }
    x1_[0] = x1;
    y1_[0] = y1;
    return;
  }
  const std::size_t values = in.size * in.lanes;
  for (std::size_t i = 0; i < values; ++i) {
    samples[i] = inv.restore_level(in.data[i]);
  }
  pole_.process_lanes(samples, samples, in.size, in.lanes, x1_.data(),
                      y1_.data());
}

// ---- LaneWaveformTap --------------------------------------------------------

LaneWaveformTap::LaneWaveformTap(std::size_t lanes, std::size_t capture,
                                 bool statistics)
    : capture_(capture),
      statistics_(statistics),
      captured_(lanes),
      min_(lanes, std::numeric_limits<double>::infinity()),
      max_(lanes, -std::numeric_limits<double>::infinity()),
      sum_(lanes, 0.0) {
  for (std::vector<double>& lane : captured_) lane.reserve(capture_);
}

void LaneWaveformTap::observe(const LaneView& in) {
  if (!stamped_ && in.size > 0) {
    t0_ = in.stream_t0;
    dt_ = in.dt;
    stamped_ = true;
  }
  const std::size_t lanes = captured_.size();
  if (statistics_) {
    // Lane by lane, the running statistics in locals: a lane's sum is one
    // dependency chain either way, and this keeps it in a register instead
    // of a store and reload per sample, so a one-lane tile (a link) is a
    // plain pass over its block.
    for (std::size_t l = 0; l < lanes; ++l) {
      double lo = min_[l];
      double hi = max_[l];
      double sum = sum_[l];
      for (std::size_t i = 0; i < in.size; ++i) {
        const double v = in.data[i * lanes + l];
        lo = std::min(lo, v);
        hi = std::max(hi, v);
        sum += v;
      }
      min_[l] = lo;
      max_[l] = hi;
      sum_[l] = sum;
    }
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    std::vector<double>& lane = captured_[l];
    if (lane.size() >= capture_) continue;
    const std::size_t take = std::min(capture_ - lane.size(), in.size);
    const std::size_t at = lane.size();
    lane.resize(at + take);
    double* dst = lane.data() + at;
    for (std::size_t i = 0; i < take; ++i) dst[i] = in.data[i * lanes + l];
  }
}

}  // namespace serdes::pipe
