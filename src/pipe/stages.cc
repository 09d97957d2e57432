#include "pipe/stages.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "dsp/fft.h"

namespace serdes::pipe {

// ---- LevelPulseSource -------------------------------------------------------

LevelPulseSource::LevelPulseSource(std::vector<double> levels,
                                   util::Second unit_interval,
                                   int samples_per_ui, util::Second rise_time,
                                   util::Second stream_t0)
    : levels_(std::move(levels)),
      ui_(unit_interval),
      dt_(unit_interval / static_cast<double>(samples_per_ui)),
      t0_(stream_t0),
      tr_(rise_time.value()),
      spu_(static_cast<std::uint64_t>(std::max(samples_per_ui, 0))),
      total_(0) {
  if (samples_per_ui < 2) {
    throw std::invalid_argument("LevelPulseSource: need >= 2 samples per UI");
  }
  if (levels_.size() > (kMaxSamples - 1) / spu_) {
    throw std::invalid_argument(
        "LevelPulseSource: stream of 2^50 samples or more");
  }
  total_ = levels_.size() * spu_;
}

std::size_t LevelPulseSource::produce(Block& out, std::size_t max_samples) {
  const std::uint64_t remaining = total_ - pos_;
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(max_samples, remaining));
  if (n == 0) return 0;

  out.samples().resize(n);
  out.set_start_index(pos_);
  out.set_stream_t0(t0_);
  out.set_dt(dt_);

  // Identical per-sample arithmetic to Waveform::nrz / TxFfe::shape, indexed
  // by the absolute stream position so block boundaries are invisible.  The
  // reference finds sample p's bit as trunc(t / ui) with t = (p + 0.5) dt;
  // that quotient lies within about 3.3e-16 relative of (p + 0.5) / spu,
  // which is never closer than 0.5 / spu to an integer, so it truncates to
  // p / spu for every p below about 1.5e15 (the constructor caps streams
  // at 2^50 samples).  So the block is walked UI by UI with the bit known
  // and the per-UI parts hoisted.  Within a UI the offset t - bit * ui
  // never decreases (both roundings are monotone), so the samples on the
  // edge from the previous level are a prefix of the UI's run and those on
  // the edge to the next level a suffix of the rest: only those are
  // blended, one by one, and the samples between them are the level.
  const double ui = ui_.value();
  const double dt = dt_.value();
  const double tr = tr_;
  const double half_tr = tr / 2.0;
  const double late_edge = ui - half_tr;
  const double* levels = levels_.data();
  const std::uint64_t nbits = levels_.size();
  const std::uint64_t spu = spu_;
  // No edges unless tr > 0, as in the reference (a NaN rise time included).
  const bool edges = tr > 0.0;
  double* dst = out.data();
  std::uint64_t p = pos_;
  const std::uint64_t end = pos_ + n;
  for (std::uint64_t bit = p / spu; p < end; ++bit) {
    const std::uint64_t stop = std::min(end, (bit + 1) * spu);
    const double lvl = levels[bit];
    const double bit_start = static_cast<double>(bit) * ui;
    const auto t_in_bit = [&](std::uint64_t q) {
      return (static_cast<double>(q) + 0.5) * dt - bit_start;
    };
    if (edges && bit > 0) {
      const double prev = levels[bit - 1];
      for (; p < stop; ++p) {
        const double t = t_in_bit(p);
        if (!(t < half_tr)) break;
        const double x = (t + half_tr) / tr;  // 0..1 across the edge
        *dst++ = prev + (lvl - prev) * x;
      }
    }
    std::uint64_t fall = stop;
    if (edges && bit + 1 < nbits) {
      while (fall > p && t_in_bit(fall - 1) > late_edge) --fall;
    }
    dst = std::fill_n(dst, fall - p, lvl);
    if (fall < stop) {
      const double next = levels[bit + 1];
      for (p = fall; p < stop; ++p) {
        const double x = (t_in_bit(p) - late_edge) / tr;
        *dst++ = lvl + (next - lvl) * x;
      }
    }
    p = stop;
  }

  pos_ = end;
  out.set_last(pos_ == total_);
  return n;
}

// ---- AwgnStage --------------------------------------------------------------

void AwgnStage::process(const BlockView& in, Block& out) {
  out.match(in);
  double* samples = out.data();
  const double sigma = sigma_;
  if (sigma > 0.0) {
    util::Rng& rng = rng_;
    for (std::size_t i = 0; i < in.size; ++i) {
      samples[i] = in.data[i] + rng.gaussian(0.0, sigma);
    }
  } else {
    std::copy(in.data, in.data + in.size, samples);
  }
}

// ---- CtleStage --------------------------------------------------------------

void CtleStage::process(const BlockView& in, Block& out) {
  out.match(in);
  double* samples = out.data();
  // The pole steps in a local copy (state in registers, see
  // analog/filters.h) in the same loop as the peaking combine.  Each
  // iteration reads in[i] before writing out[i], so `out` may alias `in`.
  const double k = k_;
  analog::OnePoleLowPass lpf = lpf_;
  for (std::size_t i = 0; i < in.size; ++i) {
    const double x = in.data[i];
    samples[i] = x + k * (x - lpf.step(x));
  }
  lpf_ = lpf;
}

// ---- RfiFrontEndStage -------------------------------------------------------

void RfiFrontEndStage::process(const BlockView& in, Block& out) {
  out.match(in);
  double* samples = out.data();
  // DC removal, the output pole (a local copy, state in registers) and
  // RfiStage::saturate with the loop-invariant loads hoisted, in one loop;
  // the formula itself has one home (saturate_value).  tanh dominates.
  const double delta = delta_;
  const double bias = rfi_->bias();
  const double gain = rfi_->gain();
  const double half = rfi_->vdd() / 2.0;
  analog::OnePoleLowPass lpf = lpf_;
  for (std::size_t i = 0; i < in.size; ++i) {
    samples[i] = analog::RfiStage::saturate_value(lpf.step(in.data[i] + delta),
                                                  bias, gain, half);
  }
  lpf_ = lpf;
}

// ---- RestoringStage ---------------------------------------------------------

void RestoringStage::process(const BlockView& in, Block& out) {
  out.match(in);
  double* samples = out.data();
  const analog::RestoringInverter& inv = *inv_;
  analog::OnePoleLowPass pole = pole_;
  for (std::size_t i = 0; i < in.size; ++i) {
    samples[i] = pole.step(inv.restore_level(in.data[i]));
  }
  pole_ = pole;
}

// ---- WaveformTap ------------------------------------------------------------

WaveformTap::WaveformTap(std::size_t capture, bool statistics)
    : capture_(capture), statistics_(statistics) {
  captured_.reserve(capture_);
}

void WaveformTap::observe(const BlockView& in) {
  if (statistics_) {
    double lo = min_;
    double hi = max_;
    double sum = sum_;
    for (std::size_t i = 0; i < in.size; ++i) {
      const double v = in.data[i];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      sum += v;
    }
    min_ = lo;
    max_ = hi;
    sum_ = sum;
  }
  if (captured_.empty()) {
    t0_ = in.stream_t0;
    dt_ = in.dt;
  }
  if (captured_.size() < capture_) {
    const std::size_t take = std::min(capture_ - captured_.size(), in.size);
    captured_.insert(captured_.end(), in.data, in.data + take);
  }
}

// ---- SamplerCdrSink ---------------------------------------------------------

namespace {

/// The slicer template with one slicer's threshold and seed.
analog::DffSampler::Config slicer_config(const analog::DffSampler::Config& t,
                                         double threshold,
                                         std::uint64_t seed) {
  analog::DffSampler::Config c = t;
  c.threshold = threshold;
  c.seed = seed;
  return c;
}

}  // namespace

SamplerCdrSink::SamplerCdrSink(const Config& config)
    : clocks_(config.symbol_rate, config.oversampling, config.phase_offset,
              config.ppm_offset),
      pam4_(config.pam4),
      extra_thresholds_(config.pam4 && config.extra_thresholds),
      threshold_mid_(config.sampler.threshold),
      threshold_low_(config.threshold_low),
      threshold_high_(config.threshold_high),
      total_(config.total_samples),
      t0_(config.stream_t0),
      dt_(config.dt),
      end_(config.stream_t0 +
           config.dt * static_cast<double>(config.total_samples)),
      ap_half_(config.sampler.aperture * 0.5),
      dfe_taps_(config.dfe_taps) {
  if (config.jitter_seeds.size() != config.sampler_seeds.size()) {
    throw std::invalid_argument(
        "SamplerCdrSink: jitter/sampler seed vectors differ in length");
  }
  if (pam4_ && !dfe_taps_.empty() && !extra_thresholds_) {
    throw std::invalid_argument(
        "SamplerCdrSink: the PAM4 DFE needs the tri-threshold slicers");
  }
  n_lanes_ = config.jitter_seeds.empty() ? 1 : config.jitter_seeds.size();
  lanes_.reserve(n_lanes_);
  for (std::size_t l = 0; l < n_lanes_; ++l) {
    channel::JitterModel::Config jc = config.jitter;
    std::uint64_t seed = config.sampler.seed;
    if (!config.jitter_seeds.empty()) {
      jc.seed = config.jitter_seeds[l];
      seed = config.sampler_seeds[l];
    }
    std::vector<analog::DffSampler> slicers;
    slicers.emplace_back(slicer_config(config.sampler, threshold_mid_, seed));
    if (extra_thresholds_) {
      slicers.emplace_back(
          slicer_config(config.sampler, threshold_low_, seed + 1));
      slicers.emplace_back(
          slicer_config(config.sampler, threshold_high_, seed + 2));
    }
    lanes_.emplace_back(jc, std::move(slicers), config.cdr, dfe_taps_.size());
    lanes_.back().done = total_ == 0;
  }
  // The rolling window must span one appended block plus the worst-case
  // backward reach of a jittered aperture edge; anything older can be
  // discarded because instants are evaluated in order, as soon as their
  // forward neighbourhood arrives.
  const double back_span_s = config.sampler.aperture.value() +
                             24.0 * config.jitter.random_rms.value() +
                             2.0 * config.jitter.sinusoidal_amplitude.value() +
                             4.0 * util::period(config.symbol_rate).value();
  back_samples_ =
      static_cast<std::size_t>(back_span_s / config.dt.value()) + 64;
  const std::size_t entries = dsp::next_pow2(
      std::max<std::size_t>(config.block_samples, 1) + back_samples_);
  ring_.assign(entries * n_lanes_, 0.0);
  mask_ = entries - 1;
}

void SamplerCdrSink::consume(const LaneView& in) {
  const std::size_t n_lanes = n_lanes_;
  if (in.lanes != n_lanes) {
    throw std::invalid_argument("SamplerCdrSink: lane count mismatch");
  }
  if (in.size + back_samples_ > mask_ + 1) {
    // A tile larger than the sizing hint arrived: grow the window before
    // writing, re-placing each lane's live span under the new modulus, so
    // oversized tiles can never overwrite samples pending instants still
    // need.
    const std::size_t entries = dsp::next_pow2(in.size + back_samples_);
    std::vector<double> bigger(entries * n_lanes, 0.0);
    const std::size_t new_mask = entries - 1;
    const std::uint64_t live = std::min<std::uint64_t>(appended_, mask_ + 1);
    for (std::size_t l = 0; l < n_lanes; ++l) {
      const double* from = ring_.data() + l * (mask_ + 1);
      double* to = bigger.data() + l * entries;
      for (std::uint64_t k = appended_ - live; k < appended_; ++k) {
        to[k & new_mask] = from[k & mask_];
      }
    }
    ring_ = std::move(bigger);
    mask_ = new_mask;
  }
  // Each lane's window is contiguous: the tile is de-interleaved lane by
  // lane, in at most two runs per lane (the second after the wrap).
  const std::size_t capacity = mask_ + 1;
  const std::size_t at = static_cast<std::size_t>(in.start_index & mask_);
  const std::size_t head = std::min(in.size, capacity - at);
  for (std::size_t l = 0; l < n_lanes; ++l) {
    const double* src = in.data + l;
    double* row = ring_.data() + l * capacity;
    for (std::size_t i = 0; i < head; ++i) row[at + i] = src[i * n_lanes];
    for (std::size_t i = head; i < in.size; ++i) {
      row[i - head] = src[i * n_lanes];
    }
  }
  if (in.size > 0) {
    appended_ = in.start_index + in.size;
    for (std::size_t l = 0; l < n_lanes; ++l) {
      Lane& lane = lanes_[l];
      if (in.start_index == 0) {
        lane.first_sample = in.at(0, l);
        lane.has_first = true;
      }
      if (appended_ == total_) {
        lane.last_sample = in.at(in.size - 1, l);
        lane.has_last = true;
      }
    }
  }
  for (std::size_t l = 0; l < n_lanes; ++l) drain(l);
}

void SamplerCdrSink::finish() {
  for (std::size_t l = 0; l < n_lanes_; ++l) {
    Lane& lane = lanes_[l];
    if (!lane.has_last && total_ > 0 && appended_ == total_) {
      lane.last_sample = ring_[l * (mask_ + 1) + ((total_ - 1) & mask_)];
      lane.has_last = true;
    }
    drain(l);
  }
}

std::vector<std::uint8_t> SamplerCdrSink::recovered_bits(
    std::size_t lane) const {
  const digital::OversamplingCdr& cdr = lanes_[lane].cdr;
  if (!pam4_) return cdr.recovered();
  const std::vector<std::uint8_t>& msb = cdr.recovered();
  const std::vector<std::uint8_t>& lsb = cdr.aux_recovered();
  std::vector<std::uint8_t> bits;
  bits.reserve(msb.size() * 2);
  for (std::size_t i = 0; i < msb.size(); ++i) {
    bits.push_back(msb[i]);
    bits.push_back(i < lsb.size() ? lsb[i] : 0);
  }
  return bits;
}

std::uint64_t SamplerCdrSink::metastable_count(std::size_t lane) const {
  std::uint64_t count = 0;
  for (const analog::DffSampler& s : lanes_[lane].slicers) {
    count += s.metastable_count();
  }
  return count;
}

double SamplerCdrSink::feedback_symbol(double v) const {
  if (!pam4_) return v > threshold_mid_ ? 1.0 : -1.0;
  // Tri-threshold comparator: levels 0..3 weigh -1, -1/3, +1/3, +1.
  return v > threshold_high_  ? 1.0
         : v > threshold_mid_ ? 1.0 / 3.0
         : v > threshold_low_ ? -1.0 / 3.0
                              : -1.0;
}

void SamplerCdrSink::drain(std::size_t index) {
  Lane& lane = lanes_[index];
  const bool dfe_on = !dfe_taps_.empty();
  // Fused availability test + Waveform::value_at over the lane's logical
  // stream: one (t - t0)/dt per time point instead of one for the test and
  // one for the read.  The arithmetic (and therefore every interpolated
  // value) is identical to the unfused pair.  Writes the value and returns
  // true iff the point's neighbourhood has arrived (or end-of-stream
  // clamping applies).
  const double* row = ring_.data() + index * (mask_ + 1);
  const auto fetch = [&](util::Second t, double* v) {
    const double idx = (t - t0_) / dt_;
    if (idx <= 0.0) {
      *v = lane.first_sample;
      return lane.has_first;
    }
    const auto lo = static_cast<std::uint64_t>(idx);
    if (lo + 1 >= total_) {
      *v = lane.last_sample;
      return lane.has_last;
    }
    if (lo + 1 >= appended_) return false;
    const double frac = idx - static_cast<double>(lo);
    *v = analog::Waveform::interpolate(row[lo & mask_],
                                       row[(lo + 1) & mask_], frac);
    return true;
  };
  while (!lane.done) {
    if (!lane.pending) {
      if (lane.phase == 0) {
        const util::Second ui_start = clocks_.instant(lane.ui, 0);
        if (ui_start >= end_) {
          lane.done = true;
          break;
        }
        if (dfe_on) {
          // Latch this UI's feedback correction and decision phase before
          // its first instant is generated; both stay fixed across the
          // whole UI even when instants straddle block boundaries.
          double corr = 0.0;
          for (std::size_t k = 0; k < dfe_taps_.size(); ++k) {
            corr += dfe_taps_[k] * lane.dfe_hist[k];
          }
          lane.dfe_corr = corr;
          lane.dfe_fb_phase = lane.cdr.decision_phase();
          lane.dfe_fb_decided = false;
        }
      }
      // Perturb exactly once per instant; the jitter RNG stream therefore
      // advances in the same order as the batch sampling loop even when an
      // instant has to wait for the next block.
      lane.pending = lane.jitter.perturb(clocks_.instant(lane.ui, lane.phase));
    }
    const util::Second t = *lane.pending;
    double v;
    double v_before;
    double v_after;
    if (!fetch(t, &v) || !fetch(t - ap_half_, &v_before) ||
        !fetch(t + ap_half_, &v_after)) {
      break;  // wait for more samples (or the end of the stream)
    }
    if (dfe_on) {
      // The per-UI correction shifts the whole summing node, so all three
      // aperture fetches move together (a zero correction is bit-exact:
      // v - 0.0 == v) and the metastability crossing product is preserved.
      v -= lane.dfe_corr;
      v_before -= lane.dfe_corr;
      v_after -= lane.dfe_corr;
      if (!lane.dfe_fb_decided && lane.phase >= lane.dfe_fb_phase) {
        lane.dfe_fb_w = feedback_symbol(v);
        lane.dfe_fb_decided = true;
      }
    }
    const bool msb = lane.slicers[0].decide(v, v_before, v_after);
    if (!pam4_) {
      lane.cdr.push(msb);
    } else {
      // Gray decode: LSB = between the low and high thresholds (levels 1
      // and 2).  Without the outer slicers the LSB rail stays 0 and only
      // the middle slicer draws noise.
      bool lsb = false;
      if (extra_thresholds_) {
        const bool above_low = lane.slicers[1].decide(v, v_before, v_after);
        const bool above_high = lane.slicers[2].decide(v, v_before, v_after);
        lsb = above_low && !above_high;
      }
      lane.cdr.push2(msb, lsb);
    }
    lane.pending.reset();
    if (++lane.phase == clocks_.phases()) {
      lane.phase = 0;
      ++lane.ui;
      if (dfe_on) {
        for (std::size_t k = dfe_taps_.size() - 1; k > 0; --k) {
          lane.dfe_hist[k] = lane.dfe_hist[k - 1];
        }
        lane.dfe_hist[0] = lane.dfe_fb_decided ? lane.dfe_fb_w : 0.0;
      }
    }
  }
}

}  // namespace serdes::pipe
