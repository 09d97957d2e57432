// Discrete-time filters used for channel and front-end modelling.
//
// All filters expose a per-sample `step` and a whole-Waveform `process`.
// `step` bodies live in this header so a streaming stage can copy its
// filters into locals and step them all in one loop over the block, with
// any other per-sample work, then store them back: the filters' state
// stays in registers, and their independent multiply-add chains overlap
// instead of running one pass after another.  Each filter still sees the
// same operations in the same order, so the result is bit-identical to
// separate passes (on builds without FMA contraction, the library's
// baseline x86-64 target; an FMA-enabled build already moves goldens).
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "analog/waveform.h"
#include "util/units.h"

namespace serdes::analog {

/// Common interface so channels can compose arbitrary filter chains.
class Filter {
 public:
  virtual ~Filter() = default;
  /// Processes one input sample.
  virtual double step(double x) = 0;
  /// Resets internal state to zero.
  virtual void reset() = 0;

  /// Runs the filter across a waveform (in place), returning it.
  Waveform& process(Waveform& w);
};

/// One-pole low-pass: H(s) = 1 / (1 + s/wc), discretised by the bilinear
/// transform.  `configure` must be called (or the ctor used) before step.
class OnePoleLowPass : public Filter {
 public:
  OnePoleLowPass(util::Hertz cutoff, util::Second sample_period);

  double step(double x) override { return step(x, x1_, y1_); }

  /// The recurrence over caller-held state `x1` / `y1`, advanced in place:
  /// what step(x) runs on the filter's own state.  A stage that copies the
  /// filter and its state into locals for a block keeps both in registers.
  [[nodiscard]] double step(double x, double& x1, double& y1) const {
    const double y = b_ * (x + x1) + a_ * y1;
    x1 = x;
    y1 = y;
    return y;
  }

  /// Lane-batched span kernel over an interleaved SoA tile — value (i, l)
  /// at in[i * lanes + l] — with caller-owned per-lane state arrays
  /// x1[lanes] / y1[lanes].  The recurrence runs independently per lane in
  /// the same operation order as step, so lane l of a tile is
  /// bit-identical to a scalar filter over lane l alone; the inner lane
  /// loop carries no dependence and vectorizes (explicit AVX2 for
  /// lanes == 8, non-FMA so the rounding matches the scalar loop).
  /// `in` and `out` may alias.
  void process_lanes(const double* in, double* out, std::size_t n,
                     std::size_t lanes, double* x1, double* y1) const;

  void reset() override { x1_ = y1_ = 0.0; }
  [[nodiscard]] util::Hertz cutoff() const { return cutoff_; }

  /// A bound on |y| for every later `step` output, from the state alone,
  /// given |x| <= `input_bound` for every later input.  By induction on
  /// y = b (x + x1) + a y1 with |a| < 1, every later |y| is at most
  /// max(|y1|, 2 |b| max(U, |x1|) / (1 - |a|)).  The result is twice that
  /// plus 2^-1000, so it also bounds the rounded recurrence: the doubling
  /// covers relative rounding while 1 - |a| >= 2^-40, and the 2^-1000
  /// covers the absolute rounding of operands that underflow.  Closer to
  /// |a| = 1 it is +infinity.  A sum that stops on this bound is therefore
  /// the same double as one that runs the filter on.
  [[nodiscard]] double output_bound(double input_bound) const {
    const double abs_a = std::fabs(a_);
    if (!(abs_a <= 1.0 - 0x1p-40)) {
      return std::numeric_limits<double>::infinity();
    }
    const double m = std::max(input_bound, std::fabs(x1_));
    return 2.0 * std::max(std::fabs(y1_),
                          2.0 * std::fabs(b_) * m / (1.0 - abs_a)) +
           0x1p-1000;
  }

 private:
  util::Hertz cutoff_;
  double a_ = 0.0;  // output feedback coefficient
  double b_ = 1.0;  // input coefficient
  double y1_ = 0.0;
  double x1_ = 0.0;
};

/// One-pole high-pass (AC-coupling): H(s) = s/(s + wc), bilinear.
class OnePoleHighPass : public Filter {
 public:
  OnePoleHighPass(util::Hertz cutoff, util::Second sample_period);

  double step(double x) override {
    const double y = b_ * (x - x1_) + a_ * y1_;
    x1_ = x;
    y1_ = y;
    return y;
  }

  void reset() override { x1_ = y1_ = 0.0; }

 private:
  double a_ = 0.0;
  double b_ = 1.0;
  double y1_ = 0.0;
  double x1_ = 0.0;
};

/// Second-order low-pass biquad (RBJ cookbook, bilinear).  Nothing on the
/// scalar streaming datapath runs one; the lane-batched SoA kernel below
/// serves multi-lane filter chains.
class BiquadLowPass : public Filter {
 public:
  BiquadLowPass(util::Hertz cutoff, double q, util::Second sample_period);

  double step(double x) override {
    const double y = b0_ * x + b1_ * x1_ + b2_ * x2_ - a1_ * y1_ - a2_ * y2_;
    x2_ = x1_;
    x1_ = x;
    y2_ = y1_;
    y1_ = y;
    return y;
  }

  /// Lane-batched SoA kernel (see OnePoleLowPass::process_lanes): the
  /// biquad recurrence per lane with caller-owned state arrays
  /// x1/x2/y1/y2 of `lanes` entries each, bit-identical per lane to a
  /// scalar filter stepped over that lane.  `in`/`out` may alias.
  void process_lanes(const double* in, double* out, std::size_t n,
                     std::size_t lanes, double* x1, double* x2, double* y1,
                     double* y2) const;

  void reset() override { x1_ = x2_ = y1_ = y2_ = 0.0; }

 private:
  double b0_, b1_, b2_, a1_, a2_;
  double x1_ = 0, x2_ = 0, y1_ = 0, y2_ = 0;
};

/// Direct-form FIR (per-sample delay line).  Streaming channels use the
/// contiguous dsp::BlockFir kernel instead; this stays as the composable
/// per-sample form (equalizers, tests).
class FirFilter : public Filter {
 public:
  explicit FirFilter(std::vector<double> taps);
  double step(double x) override;
  void reset() override;
  [[nodiscard]] const std::vector<double>& taps() const { return taps_; }

 private:
  std::vector<double> taps_;
  std::vector<double> history_;
  std::size_t pos_ = 0;
};

/// Magnitude response |H(f)| of a filter measured empirically by running a
/// sinusoid through a fresh copy of the filter chain (useful for tests).
double measure_gain(Filter& filter, util::Hertz freq,
                    util::Second sample_period, int cycles = 60);

}  // namespace serdes::analog
