// Concrete streaming stages for the TX -> channel -> noise -> EQ -> RX
// datapath, and the one sampler/CDR sink every streaming path ends in.
//
// Each stage reproduces the arithmetic of its whole-waveform counterpart
// exactly, sample by sample, while carrying state (filter memories, RNG
// streams, rolling sample windows) across blocks — so a stream processed
// at any block size is bit-identical to the whole-waveform reference the
// tests compare against (tests/whole_waveform_reference.h).
// core::ChainPlan decides which stages a link runs and in what order.
//
//   LevelPulseSource   — per-UI launch levels to the line waveform
//                        (Waveform::nrz and TxFfe::shape, blockwise)
//   ChannelStage       — wraps a channel::Channel::Stream
//   AwgnStage          — Waveform::add_noise with a carried RNG
//   CtleStage          — channel::RxCtle::equalize with a carried pole
//   RfiFrontEndStage   — analog::RfiStage::process given the stream DC mean
//   RestoringStage     — analog::RestoringInverter::process, blockwise
//   WaveformTap        — probe: capture window and, in first passes,
//                        range/sum
//   SamplerCdrSink     — jittered multiphase sampling, 1 (NRZ) or 3 (PAM4)
//                        DFF slicers, DFE feedback and the oversampling CDR
//                        over a rolling window of an N-lane tile (scalar
//                        blocks are 1-lane tiles)
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "analog/filters.h"
#include "analog/rfi.h"
#include "analog/sampler.h"
#include "analog/waveform.h"
#include "channel/channel.h"
#include "channel/noise.h"
#include "digital/cdr.h"
#include "digital/sampling.h"
#include "pipe/lane_block.h"
#include "pipe/stage.h"
#include "util/random.h"
#include "util/units.h"

namespace serdes::pipe {

/// Block source: interpolates per-bit launch levels into the line waveform
/// exactly like Waveform::nrz / TxFfe::shape (linear-ramp edges of
/// `rise_time` centred on bit boundaries).
class LevelPulseSource {
 public:
  /// Streams of this many samples or more are rejected: below it the
  /// reference's bit quotient trunc(t / ui) equals the sample's integer
  /// index p / samples_per_ui, which produce() uses (see stages.cc).
  static constexpr std::uint64_t kMaxSamples = std::uint64_t{1} << 50;

  LevelPulseSource(std::vector<double> levels, util::Second unit_interval,
                   int samples_per_ui, util::Second rise_time,
                   util::Second stream_t0);

  /// Fills `out` with the next up-to-`max_samples` samples; returns the
  /// count produced (0 once the stream is exhausted).  Marks the block
  /// `last` when it ends the stream.
  std::size_t produce(Block& out, std::size_t max_samples);

  void reset() { pos_ = 0; }

  [[nodiscard]] std::uint64_t total_samples() const { return total_; }
  [[nodiscard]] util::Second dt() const { return dt_; }
  [[nodiscard]] util::Second stream_t0() const { return t0_; }

 private:
  std::vector<double> levels_;
  util::Second ui_;
  util::Second dt_;
  util::Second t0_;
  double tr_;
  std::uint64_t spu_;
  std::uint64_t total_;
  std::uint64_t pos_ = 0;
};

/// Streams blocks through a channel model (carrying its filter state).
class ChannelStage final : public Stage {
 public:
  explicit ChannelStage(std::unique_ptr<channel::Channel::Stream> stream)
      : stream_(std::move(stream)) {}

  void process(const BlockView& in, Block& out) override {
    out.match(in);
    stream_->transmit_block(in.data, out.data(), in.size);
  }
  [[nodiscard]] std::string_view name() const override { return "channel"; }

 private:
  std::unique_ptr<channel::Channel::Stream> stream_;
};

/// Additive white gaussian noise with a carried deterministic RNG —
/// blockwise Waveform::add_noise.
class AwgnStage final : public Stage {
 public:
  AwgnStage(double sigma, std::uint64_t seed) : sigma_(sigma), rng_(seed) {}

  void process(const BlockView& in, Block& out) override;
  [[nodiscard]] std::string_view name() const override { return "awgn"; }

 private:
  double sigma_;
  util::Rng rng_;
};

/// CTLE peaking stage: out = x + k*(x - LPF(x)), pole state carried.
class CtleStage final : public Stage {
 public:
  CtleStage(util::Decibel boost, util::Hertz pole, util::Second dt)
      : k_(util::db_to_amplitude(boost) - 1.0), lpf_(pole, dt) {}

  void process(const BlockView& in, Block& out) override;
  [[nodiscard]] std::string_view name() const override { return "ctle"; }

 private:
  double k_;
  analog::OnePoleLowPass lpf_;
};

/// RFI front end: DC removal (the stream mean, supplied via set_mean once
/// known), output pole, saturating VTC — blockwise analog::RfiStage.
class RfiFrontEndStage final : public Stage {
 public:
  RfiFrontEndStage(const analog::RfiStage& rfi, util::Second dt)
      : rfi_(&rfi), lpf_(rfi.bandwidth(), dt) {}

  /// The full-stream DC mean analog::RfiStage::process subtracts (the
  /// whole-waveform reference in tests/whole_waveform_reference.h); must
  /// be set before the first block (the link driver measures it in a first
  /// streaming pass over the cheap front half of the datapath).
  void set_mean(double mean) { delta_ = -mean; }

  void process(const BlockView& in, Block& out) override;
  [[nodiscard]] std::string_view name() const override { return "rfi"; }

 private:
  const analog::RfiStage* rfi_;
  analog::OnePoleLowPass lpf_;
  double delta_ = 0.0;
};

/// Rail-restoring inverter: VTC lookup then output pole, state carried.
class RestoringStage final : public Stage {
 public:
  RestoringStage(const analog::RestoringInverter& inv, util::Second dt)
      : inv_(&inv), pole_(inv.bandwidth(), dt) {}

  void process(const BlockView& in, Block& out) override;
  [[nodiscard]] std::string_view name() const override { return "restore"; }

 private:
  const analog::RestoringInverter* inv_;
  analog::OnePoleLowPass pole_;
};

/// Probe: captures the first `capture` samples of the stream flowing past
/// (the waveform-capture window; its storage is reserved once, so callers
/// pass at most the stream's length) and, with `statistics`, keeps the
/// running minimum, maximum and sample-order sum (what first passes
/// measure).  Links insert probes only into first passes and while
/// diagnostics capture is on (the first chunk of a BER run), so bulk
/// streaming never accumulates waveform memory.
class WaveformTap final : public Probe {
 public:
  WaveformTap(std::size_t capture, bool statistics);

  void observe(const BlockView& in) override;

  /// Moves the captured window out as a Waveform (stream t0 / dt stamped).
  [[nodiscard]] analog::Waveform take() {
    return analog::Waveform{t0_, dt_, std::move(captured_)};
  }
  /// Statistics of the whole stream (with `statistics` only).
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t capture_;
  bool statistics_;
  std::vector<double> captured_;
  util::Second t0_{0.0};
  util::Second dt_{1e-12};
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  double sum_ = 0.0;
};

/// Terminal sink of every streaming path: multiphase sampling instants
/// (with jitter), DFF slicers and the oversampling CDR, evaluated
/// incrementally over a rolling window of a lane tile — a scalar block is
/// a tile with one lane.  NRZ runs one slicer per instant; PAM4 runs three
/// (low < middle < high) and gray-decodes them ((0,0) (0,1) (1,1) (1,0)
/// for levels 0..3: MSB = above middle, LSB = above low and not above
/// high) onto the CDR's dual rails, whose edge detection and phase picking
/// run on the MSB rail only.
///
/// Every lane keeps its own jitter, slicer and CDR state and its own
/// sampling cursor, and drains independently, so a lane whose jittered
/// instant still waits on the next tile never stalls the others' RNG draw
/// order.  Lane l reproduces digital::sample_waveform +
/// OversamplingCdr::recover over lane l's stream bit-for-bit (including
/// the end-of-waveform clamping of Waveform::value_at) while holding
/// O(block + aperture/jitter span) samples per lane, whatever the stream
/// length.
class SamplerCdrSink {
 public:
  struct Config {
    /// Rate of the sampling clocks: the bit rate under NRZ, the symbol
    /// rate under PAM4.
    util::Hertz symbol_rate;
    int oversampling = 5;
    util::Second phase_offset{0.0};
    double ppm_offset = 0.0;
    channel::JitterModel::Config jitter{};
    /// Slicer template (aperture, input noise).  Its threshold is the NRZ
    /// decision threshold, or the PAM4 middle one.
    analog::DffSampler::Config sampler{};
    /// PAM4: three slicers and gray decoding.  The low and high slicers
    /// sit at the thresholds below and draw from the lane's sampler seed
    /// + 1 and + 2.
    bool pam4 = false;
    double threshold_low = 0.0;
    double threshold_high = 0.0;
    /// PAM4 only: false keeps just the middle slicer, and LSBs decode as
    /// 0 (the NRZ-degenerate configuration).
    bool extra_thresholds = true;
    /// DFE post-cursor taps (volts in the sink's input domain), shared by
    /// every lane.  Tap k is weighted by the feedback decision from k+1
    /// UIs ago: +/-1 under NRZ, {-1, -1/3, +1/3, +1} for PAM4 levels 0..3
    /// (which needs the three slicers).  Empty disables the feedback path
    /// entirely; all-zero taps are bit-identical to it (the correction is
    /// exactly 0.0).
    std::vector<double> dfe_taps;
    digital::CdrConfig cdr{};
    /// Per-lane seeds replacing the jitter / sampler template seeds; the
    /// lane count is their common size.  Empty: one lane, template seeds.
    std::vector<std::uint64_t> jitter_seeds;
    std::vector<std::uint64_t> sampler_seeds;
    /// Stream geometry (known up front: framed bits x samples per UI).
    std::uint64_t total_samples = 0;
    util::Second stream_t0{0.0};
    util::Second dt{1e-12};
    /// Block size hint used to size the rolling window.
    std::size_t block_samples = 16384;
  };

  explicit SamplerCdrSink(const Config& config);

  /// Appends one tile and evaluates, per lane, every sampling instant
  /// whose needed neighbourhood is now available.
  void consume(const LaneView& in);
  void consume(const BlockView& in) { consume(as_tile(in)); }

  /// Evaluates the remaining instants with end-of-stream clamping.
  void finish();

  [[nodiscard]] const digital::OversamplingCdr& cdr(
      std::size_t lane = 0) const {
    return lanes_[lane].cdr;
  }
  /// Lane `lane`'s recovered bits: the CDR decisions under NRZ; under
  /// PAM4 the MSB/LSB rails interleaved per symbol (MSB first — the TX
  /// gray mapping's inverse).
  [[nodiscard]] std::vector<std::uint8_t> recovered_bits(
      std::size_t lane = 0) const;
  [[nodiscard]] std::uint64_t metastable_count(std::size_t lane = 0) const;

 private:
  /// One lane's RNG streams, CDR and sampling cursor.
  struct Lane {
    Lane(const channel::JitterModel::Config& jitter_config,
         std::vector<analog::DffSampler> lane_slicers,
         const digital::CdrConfig& cdr_config, std::size_t dfe_taps)
        : jitter(jitter_config),
          slicers(std::move(lane_slicers)),
          cdr(cdr_config),
          dfe_hist(dfe_taps, 0.0) {}

    channel::JitterModel jitter;
    /// The middle slicer first, then (PAM4) the low and high ones.
    std::vector<analog::DffSampler> slicers;
    digital::OversamplingCdr cdr;
    double first_sample = 0.0;
    double last_sample = 0.0;
    bool has_first = false;
    bool has_last = false;
    std::uint64_t ui = 0;
    int phase = 0;
    std::optional<util::Second> pending;
    bool done = false;
    // ---- Decision-feedback state --------------------------------------
    // The correction for UI n is latched once, when the UI's first instant
    // is generated: c_n = sum_k taps[k] * w_{n-1-k}, a per-UI step
    // subtracted from every fetched value of the UI (all three aperture
    // fetches of every phase), so the glitch-filter votes see one
    // consistent summing-node waveform.  The feedback symbol w_n comes
    // from a pure comparator (no RNG draw — the slicers' noise and
    // metastability streams stay untouched) at the CDR's current pick
    // phase, and enters the history at the UI wrap: strictly causal.
    std::vector<double> dfe_hist;  // w_{n-1}, w_{n-2}, ...; 0 pre-stream
    double dfe_corr = 0.0;
    int dfe_fb_phase = 0;
    bool dfe_fb_decided = false;
    double dfe_fb_w = 0.0;
  };

  void drain(std::size_t lane);
  /// The DFE feedback symbol of a corrected value (pure comparator).
  [[nodiscard]] double feedback_symbol(double v) const;

  digital::MultiphaseClockGenerator clocks_;  // config-only: shared
  std::vector<Lane> lanes_;
  std::size_t n_lanes_ = 1;
  bool pam4_;
  bool extra_thresholds_;
  double threshold_mid_;
  double threshold_low_;
  double threshold_high_;

  std::uint64_t total_;
  util::Second t0_;
  util::Second dt_;
  util::Second end_;
  util::Second ap_half_;

  /// Rolling window, one contiguous row per lane: stream sample i of lane l
  /// lives at ring_[l * (mask_ + 1) + (i & mask_)], so a lane's drain reads
  /// only its own row.  The capacity is a power of two of sample indices,
  /// so the absolute index wrap is a mask.
  std::vector<double> ring_;
  std::size_t mask_ = 0;  // sample-index capacity - 1
  std::size_t back_samples_ = 0;
  std::uint64_t appended_ = 0;

  std::vector<double> dfe_taps_;
};

}  // namespace serdes::pipe
