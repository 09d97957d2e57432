#include "channel/channel.h"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>

namespace serdes::channel {

// ---- Channel (batch wrapper over the streaming form) ------------------------

analog::Waveform Channel::transmit(const analog::Waveform& in) const {
  analog::Waveform out = in;
  if (!out.empty()) {
    const auto stream = open_stream();
    double* data = out.samples().data();
    stream->transmit_block(data, data, out.size());
  }
  return out;
}

// ---- FlatChannel ------------------------------------------------------------

namespace {

class FlatStream final : public Channel::Stream {
 public:
  explicit FlatStream(double gain) : gain_(gain) {}

  void transmit_block(const double* in, double* out,
                      std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) out[i] = in[i] * gain_;
  }

  void reset() override {}

 private:
  double gain_;
};

}  // namespace

FlatChannel::FlatChannel(util::Decibel loss)
    : loss_(loss), gain_(util::db_to_amplitude(util::decibels(-loss.value()))) {
  if (loss.value() < 0.0) {
    throw std::invalid_argument("FlatChannel: loss must be >= 0 dB");
  }
}

std::unique_ptr<Channel::Stream> FlatChannel::open_stream() const {
  return std::make_unique<FlatStream>(gain_);
}

double FlatChannel::attenuation_at(util::Hertz) const { return gain_; }

// ---- RcChannel --------------------------------------------------------------

namespace {

class RcStream final : public Channel::Stream {
 public:
  RcStream(double dc_gain, util::Hertz pole, util::Second dt)
      : dc_gain_(dc_gain), lpf_(pole, dt) {}

  void transmit_block(const double* in, double* out,
                      std::size_t n) override {
    // The pole stepped in a local copy keeps its state in registers (see
    // analog/filters.h); it is stored back once per block.
    const double g = dc_gain_;
    analog::OnePoleLowPass lpf = lpf_;
    for (std::size_t i = 0; i < n; ++i) out[i] = lpf.step(in[i] * g);
    lpf_ = lpf;
  }

  void reset() override { lpf_.reset(); }

 private:
  double dc_gain_;
  analog::OnePoleLowPass lpf_;
};

}  // namespace

RcChannel::RcChannel(util::Hertz pole, util::Second sample_period,
                     util::Decibel dc_loss)
    : pole_(pole),
      dt_(sample_period),
      dc_gain_(util::db_to_amplitude(util::decibels(-dc_loss.value()))) {}

std::unique_ptr<Channel::Stream> RcChannel::open_stream() const {
  return std::make_unique<RcStream>(dc_gain_, pole_, dt_);
}

double RcChannel::attenuation_at(util::Hertz f) const {
  const double ratio = f.value() / pole_.value();
  return dc_gain_ / std::sqrt(1.0 + ratio * ratio);
}

// ---- LossyLineChannel -------------------------------------------------------

namespace {
constexpr double kRefFreq = 1e9;  // f0 for the loss coefficients

class LossyLineStream final : public Channel::Stream {
 public:
  LossyLineStream(double flat_gain, util::Hertz pole1, util::Hertz pole2,
                  util::Second dt)
      : flat_gain_(flat_gain), p1_(pole1, dt), p2_(pole2, dt) {}

  void transmit_block(const double* in, double* out,
                      std::size_t n) override {
    // Gain and both poles in one loop over local copies (see
    // analog/filters.h): the two recurrences' latency chains overlap, and
    // each pole still steps through its own input sequence in order.
    const double g = flat_gain_;
    analog::OnePoleLowPass p1 = p1_;
    analog::OnePoleLowPass p2 = p2_;
    for (std::size_t i = 0; i < n; ++i) out[i] = p2.step(p1.step(in[i] * g));
    p1_ = p1;
    p2_ = p2;
  }

  void reset() override {
    p1_.reset();
    p2_.reset();
  }

 private:
  double flat_gain_;
  analog::OnePoleLowPass p1_;
  analog::OnePoleLowPass p2_;
};

/// Stream over the dsp block-convolution engine (shared by the FIR channel
/// and the dsp-mode lossy line).
class BlockFirStream final : public Channel::Stream {
 public:
  BlockFirStream(const std::vector<double>& taps, std::size_t stride,
                 bool allow_fft)
      : fir_(taps, stride, dsp::BlockFir::Options{allow_fft}) {}

  void transmit_block(const double* in, double* out,
                      std::size_t n) override {
    fir_.process(in, out, n);
  }

  void reset() override { fir_.reset(); }

 private:
  dsp::BlockFir fir_;
};

/// dsp-mode lossy line: commits to a kernel on the first block.  Blocks
/// big enough for the overlap-save crossover run the precomputed impulse
/// through the FFT engine; otherwise the stream falls back to the exact
/// 2-MAC IIR cascade (running the ~1000-tap impulse directly would be
/// orders of magnitude slower than the recurrence it replaces).  The
/// choice is locked for the stream's lifetime because the two kernels
/// carry incompatible state — and a stream's block size is fixed apart
/// from the final partial block, which either kernel handles.
class LossyLineDspStream final : public Channel::Stream {
 public:
  LossyLineDspStream(const std::vector<double>& impulse, double flat_gain,
                     util::Hertz pole1, util::Hertz pole2, util::Second dt)
      : fir_(impulse, 1, dsp::BlockFir::Options{/*allow_fft=*/true}),
        iir_(flat_gain, pole1, pole2, dt) {}

  void transmit_block(const double* in, double* out,
                      std::size_t n) override {
    if (n == 0) return;
    if (!decided_) {
      use_fir_ = dsp::BlockFir::use_fft(fir_.taps().size(), n);
      decided_ = true;
    }
    if (use_fir_) {
      fir_.process(in, out, n);
    } else {
      iir_.transmit_block(in, out, n);
    }
  }

  void reset() override {
    fir_.reset();
    iir_.reset();
    decided_ = false;
    use_fir_ = false;
  }

 private:
  dsp::BlockFir fir_;
  LossyLineStream iir_;
  bool decided_ = false;
  bool use_fir_ = false;
};

}  // namespace

LossyLineChannel::LossyLineChannel(const Params& params,
                                   util::Second sample_period, bool dsp)
    : params_(params), dt_(sample_period), dsp_(dsp) {
  flat_gain_ =
      util::db_to_amplitude(util::decibels(-params.dc_loss_db));
  // Fit two real poles so the cascade matches the analytic loss at f0 and
  // f0/2 (beyond the flat dc term).  |one-pole| dB at f: 10*log10(1+(f/p)^2).
  // We split the frequency-dependent loss evenly between the two poles at
  // f0 and solve each pole frequency.
  const double loss_f0 = params.skin_loss_db_at_1ghz +
                         params.dielectric_loss_db_at_1ghz;  // dB at 1 GHz
  const double per_pole = std::max(0.1, loss_f0 / 2.0);
  // 10*log10(1+(f0/p)^2) = per_pole  =>  p = f0 / sqrt(10^(per_pole/10)-1)
  const double x = std::sqrt(std::pow(10.0, per_pole / 10.0) - 1.0);
  pole1_ = util::hertz(kRefFreq / x);
  // Second pole slightly above the first to mimic the gentler sqrt(f) skin
  // region below f0.
  pole2_ = util::hertz(1.6 * kRefFreq / x);
  flat_gain_ *= util::db_to_amplitude(util::decibels(
      -(loss_f0 - 10.0 * std::log10(1.0 + x * x) -
        10.0 * std::log10(1.0 + (x / 1.6) * (x / 1.6)))));

  if (dsp_) {
    // Lower the gain + two-pole cascade into its impulse response once, at
    // construction (not per stream, not per transmit): run a unit impulse
    // through fresh filters until the tail stays below 1e-14 of the peak
    // for a full consecutive run.  The geometric pole decay makes the
    // truncated energy far below the engine's 1e-12 RMS contract.
    analog::OnePoleLowPass p1(pole1_, dt_);
    analog::OnePoleLowPass p2(pole2_, dt_);
    constexpr std::size_t kMaxTaps = std::size_t{1} << 16;
    constexpr std::size_t kQuietRun = 64;
    double peak = 0.0;
    std::size_t quiet = 0;
    for (std::size_t k = 0; k < kMaxTaps; ++k) {
      const double h = p2.step(p1.step(k == 0 ? flat_gain_ : 0.0));
      impulse_.push_back(h);
      peak = std::max(peak, std::abs(h));
      quiet = std::abs(h) < 1e-14 * peak ? quiet + 1 : 0;
      if (quiet >= kQuietRun) break;
    }
    if (quiet < kQuietRun) {
      // The response didn't decay within the tap budget (poles far below
      // the sample rate): truncating here would break the 1e-12 RMS
      // contract, so this channel stays on the exact IIR recurrence.
      impulse_.clear();
    } else {
      impulse_.resize(impulse_.size() - std::min(quiet, impulse_.size() - 1));
    }
  }
}

std::unique_ptr<Channel::Stream> LossyLineChannel::open_stream() const {
  if (dsp_ && !impulse_.empty()) {
    return std::make_unique<LossyLineDspStream>(impulse_, flat_gain_, pole1_,
                                                pole2_, dt_);
  }
  return std::make_unique<LossyLineStream>(flat_gain_, pole1_, pole2_, dt_);
}

double LossyLineChannel::attenuation_at(util::Hertz f) const {
  const double r1 = f.value() / pole1_.value();
  const double r2 = f.value() / pole2_.value();
  return flat_gain_ / std::sqrt((1.0 + r1 * r1) * (1.0 + r2 * r2));
}

LossyLineChannel::Params LossyLineChannel::fit(util::Decibel loss,
                                               util::Hertz f) {
  // Keep the default skin/dielectric proportions, scale all coefficients so
  // the analytic loss model hits `loss` at `f`.
  Params p;
  const double fr = f.value() / kRefFreq;
  const double base = p.dc_loss_db + p.skin_loss_db_at_1ghz * std::sqrt(fr) +
                      p.dielectric_loss_db_at_1ghz * fr;
  const double scale = loss.value() / base;
  p.dc_loss_db *= scale;
  p.skin_loss_db_at_1ghz *= scale;
  p.dielectric_loss_db_at_1ghz *= scale;
  return p;
}

// ---- FirChannel -------------------------------------------------------------

FirChannel::FirChannel(std::vector<double> taps, int samples_per_tap,
                       bool dsp)
    : taps_(std::move(taps)), samples_per_tap_(samples_per_tap), dsp_(dsp) {
  if (taps_.empty()) throw std::invalid_argument("FirChannel: no taps");
  if (samples_per_tap < 1) {
    throw std::invalid_argument("FirChannel: samples_per_tap must be >= 1");
  }
}

std::unique_ptr<Channel::Stream> FirChannel::open_stream() const {
  // The UI spacing stays implicit as the kernel stride — no zero-stuffed
  // expansion per stream (or per transmit, which opens a stream each call).
  return std::make_unique<BlockFirStream>(
      taps_, static_cast<std::size_t>(samples_per_tap_), dsp_);
}

double FirChannel::attenuation_at(util::Hertz f) const {
  // |H(e^{jw})| with taps spaced by one UI; the caller supplies f relative
  // to the tap rate via samples_per_tap during construction, so here we
  // interpret taps as spaced at 1 ns (1 GHz tap rate) for a standalone
  // estimate — channels built from measured taps should be queried in the
  // time domain instead.
  const double tap_period = 1e-9 * samples_per_tap_;
  double re = 0.0;
  double im = 0.0;
  for (std::size_t k = 0; k < taps_.size(); ++k) {
    const double w = 2.0 * std::numbers::pi * f.value() * tap_period *
                     static_cast<double>(k);
    re += taps_[k] * std::cos(w);
    im -= taps_[k] * std::sin(w);
  }
  return std::sqrt(re * re + im * im);
}

// ---- CompositeChannel -------------------------------------------------------

namespace {

class CompositeStream final : public Channel::Stream {
 public:
  explicit CompositeStream(std::vector<std::unique_ptr<Channel::Stream>> kids)
      : children_(std::move(kids)) {}

  void transmit_block(const double* in, double* out,
                      std::size_t n) override {
    if (children_.empty()) {
      if (out != in) {
        for (std::size_t i = 0; i < n; ++i) out[i] = in[i];
      }
      return;
    }
    children_.front()->transmit_block(in, out, n);
    for (std::size_t k = 1; k < children_.size(); ++k) {
      children_[k]->transmit_block(out, out, n);
    }
  }

  void reset() override {
    for (auto& c : children_) c->reset();
  }

 private:
  std::vector<std::unique_ptr<Channel::Stream>> children_;
};

}  // namespace

void CompositeChannel::add(std::unique_ptr<Channel> stage) {
  stages_.push_back(std::move(stage));
}

std::unique_ptr<Channel::Stream> CompositeChannel::open_stream() const {
  std::vector<std::unique_ptr<Stream>> kids;
  kids.reserve(stages_.size());
  for (const auto& s : stages_) kids.push_back(s->open_stream());
  return std::make_unique<CompositeStream>(std::move(kids));
}

double CompositeChannel::attenuation_at(util::Hertz f) const {
  double g = 1.0;
  for (const auto& s : stages_) g *= s->attenuation_at(f);
  return g;
}

}  // namespace serdes::channel
