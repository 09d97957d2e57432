// Serial-link channel models.
//
// The paper evaluates the link against a 34 dB-loss channel (Fig 8) and
// sweeps loss/frequency in Fig 9; the Discussion section motivates 1-5 dB
// short-reach chiplet channels (EMIB) and PCIe-class traces.  This module
// provides composable channel models covering that whole range:
//   * FlatChannel        — frequency-independent attenuation
//   * RcChannel          — single-pole board trace
//   * LossyLineChannel   — skin-effect (sqrt(f)) + dielectric (f) loss line
//   * FirChannel         — explicit tap response (measured-channel style)
//   * CompositeChannel   — cascade of any of the above
// plus AWGN and sinusoidal-interference noise injection.
//
// Every channel supports two execution forms over the same arithmetic:
//   * streaming — `open_stream()` returns a `Channel::Stream` whose
//     `transmit_block` processes fixed-size sample blocks while carrying
//     filter state (IIR memories, FIR delay lines, child streams) across
//     calls, so a waveform chunked at any block size produces bit-identical
//     output;
//   * batch — `transmit()` is a thin wrapper that opens a stream and pushes
//     the whole waveform through as a single block.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "analog/filters.h"
#include "analog/waveform.h"
#include "dsp/convolution.h"
#include "util/random.h"
#include "util/units.h"

namespace serdes::channel {

/// Interface: transforms the transmitted waveform into the received one.
class Channel {
 public:
  /// Stateful block-wise transmission through one channel instance.  A
  /// stream starts from quiescent (zero-state) filters; feeding it a
  /// waveform in blocks of any size yields exactly the samples `transmit`
  /// produces for the whole waveform.
  class Stream {
   public:
    virtual ~Stream() = default;

    /// Processes `n` samples, carrying state across calls.  `in` and `out`
    /// may alias (in-place operation is supported by every model).
    virtual void transmit_block(const double* in, double* out,
                                std::size_t n) = 0;

    /// Returns the stream to its start-of-stream (zero) state.
    virtual void reset() = 0;
  };

  virtual ~Channel() = default;

  /// Opens a fresh streaming transmission (state at zero).  Must be safe
  /// to call concurrently on one channel, with streams that share no
  /// mutable state: core::train_equalizer replays its candidates on several
  /// threads through one instance.  Every kind keeps to this, including
  /// the ones registered with api::ChannelFactory at run time.
  [[nodiscard]] virtual std::unique_ptr<Stream> open_stream() const = 0;

  /// Propagates `in` through the channel: a thin wrapper that pushes the
  /// whole waveform through `open_stream()` as one block.
  [[nodiscard]] analog::Waveform transmit(const analog::Waveform& in) const;

  /// Amplitude attenuation (|H|, linear <= 1) at the given frequency.
  [[nodiscard]] virtual double attenuation_at(util::Hertz f) const = 0;

  /// Loss in dB (positive number) at the given frequency.
  [[nodiscard]] util::Decibel loss_at(util::Hertz f) const {
    return util::Decibel{-util::amplitude_db(attenuation_at(f)).value()};
  }
};

/// Frequency-flat attenuator (the paper's "34 dB channel loss" abstraction).
class FlatChannel : public Channel {
 public:
  /// `loss` is a positive dB number (34 => output = input / 10^(34/20)).
  explicit FlatChannel(util::Decibel loss);

  [[nodiscard]] std::unique_ptr<Stream> open_stream() const override;
  [[nodiscard]] double attenuation_at(util::Hertz f) const override;

  [[nodiscard]] util::Decibel loss() const { return loss_; }

 private:
  util::Decibel loss_;
  double gain_;
};

/// Single-pole RC low-pass channel (short board trace / package route).
class RcChannel : public Channel {
 public:
  RcChannel(util::Hertz pole, util::Second sample_period,
            util::Decibel dc_loss = util::decibels(0.0));

  [[nodiscard]] std::unique_ptr<Stream> open_stream() const override;
  [[nodiscard]] double attenuation_at(util::Hertz f) const override;

 private:
  util::Hertz pole_;
  util::Second dt_;
  double dc_gain_;
};

/// Lossy transmission line: |H(f)| = 10^-(a0 + a_s*sqrt(f/f0) + a_d*(f/f0))/20
/// with f0 = 1 GHz.  a_s models skin effect, a_d dielectric loss.  The
/// time-domain response is approximated by a cascade of a flat attenuator
/// and two real poles fitted so the loss matches at dc, f0/2 and f0.
///
/// With `dsp` enabled the pole cascade is lowered once, at construction,
/// into its truncated impulse response (relative tail below 1e-14) and
/// streamed through the dsp block-convolution engine — overlap-save FFT
/// above the crossover.  Waveforms match the exact IIR path to <= 1e-12
/// RMS; the IIR recurrence stays the default.
class LossyLineChannel : public Channel {
 public:
  struct Params {
    double dc_loss_db = 2.0;          // a0
    double skin_loss_db_at_1ghz = 18.0;    // a_s
    double dielectric_loss_db_at_1ghz = 14.0;  // a_d
  };

  LossyLineChannel(const Params& params, util::Second sample_period,
                   bool dsp = false);

  [[nodiscard]] std::unique_ptr<Stream> open_stream() const override;
  [[nodiscard]] double attenuation_at(util::Hertz f) const override;

  /// Scales the loss coefficients so that total loss at `f` equals `loss`.
  static Params fit(util::Decibel loss, util::Hertz f);

  [[nodiscard]] const Params& params() const { return params_; }
  /// The fitted cascade: flat gain, then one-pole low-passes at pole1, pole2.
  [[nodiscard]] double flat_gain() const { return flat_gain_; }
  [[nodiscard]] util::Hertz pole1() const { return pole1_; }
  [[nodiscard]] util::Hertz pole2() const { return pole2_; }
  /// Taps of the dsp-mode impulse response.  Empty when dsp is off — or
  /// when the response refused to decay within the tap budget, in which
  /// case streams stay on the exact IIR recurrence rather than break the
  /// 1e-12 RMS contract by truncating.
  [[nodiscard]] const std::vector<double>& impulse_taps() const {
    return impulse_;
  }

 private:
  Params params_;
  util::Second dt_;
  double flat_gain_;
  util::Hertz pole1_;
  util::Hertz pole2_;
  bool dsp_ = false;
  std::vector<double> impulse_;  // precomputed once when dsp_ is on
};

/// Explicit impulse-response channel given as UI-spaced taps (pre-cursor,
/// main, post-cursors) — the standard way measured backplane channels are
/// abstracted in link analysis.
///
/// Taps are held in strided form (tap k at lag k*samples_per_tap), fixed
/// once at construction: streams index the zero-stuffed lags implicitly
/// instead of expanding — and re-expanding per transmit — a dense vector.
/// With `dsp` enabled the stream may take the overlap-save FFT path above
/// the crossover (<= 1e-12 RMS vs direct); the direct kernel, which is
/// bit-identical to per-sample stepping, stays the default.
class FirChannel : public Channel {
 public:
  FirChannel(std::vector<double> taps, int samples_per_tap,
             bool dsp = false);

  [[nodiscard]] std::unique_ptr<Stream> open_stream() const override;
  [[nodiscard]] double attenuation_at(util::Hertz f) const override;

  [[nodiscard]] const std::vector<double>& taps() const { return taps_; }

 private:
  std::vector<double> taps_;
  int samples_per_tap_;
  bool dsp_ = false;
};

/// Cascade of channels applied in order.
class CompositeChannel : public Channel {
 public:
  void add(std::unique_ptr<Channel> stage);

  [[nodiscard]] std::unique_ptr<Stream> open_stream() const override;
  [[nodiscard]] double attenuation_at(util::Hertz f) const override;

  [[nodiscard]] std::size_t stage_count() const { return stages_.size(); }

 private:
  std::vector<std::unique_ptr<Channel>> stages_;
};

}  // namespace serdes::channel
