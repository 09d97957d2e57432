// Statistical (StatEye-style) link analysis engine.
//
// Monte Carlo BER measurement stops being practical around 1e-9 — the
// paper's link budget cares about 1e-12..1e-15, where a single error would
// need trillions of simulated bits.  This engine gets there analytically:
//
//   1. extract the channel's single-bit pulse response by pushing one
//      isolated bit through the *same* streaming TX / channel / CTLE /
//      RFI-pole stages the Monte Carlo datapath runs (superposition holds:
//      everything up to the saturating front end is linear);
//   2. slice the pulse into UI-spaced cursors at each sampling phase and
//      convolve the per-cursor two-point ISI PDFs — exactly (2^n
//      enumeration) when few cursors matter, else on a fixed voltage grid
//      in O(taps x grid);
//   3. fold the AWGN in analytically (Gaussian tail integrals against the
//      ISI distribution) and the sampling jitter as a phase-domain
//      convolution, yielding BER-vs-phase bathtub curves, eye contours at
//      a target BER, and timing/voltage margins — no bit stream anywhere.
//
// Because the result is deterministic and closed-form, it doubles as an
// oracle for regression-testing the Monte Carlo datapath: a `"both"` run
// checks that the measured MC BER falls inside the engine's predicted
// band (see `cross_check`), in the spirit of deterministic-replay
// validation of parallel simulators.
//
// Accuracy contract: the engine models the linearized decision point
// (channel + CTLE + RFI pole, slicer threshold mapped back through the
// static RFI/restoring transfer curves).  Saturation dynamics, sampler
// aperture/metastability and finite-stream AC-coupling transients are NOT
// modelled; they are bounded by the cross-check slack factor (default 4x
// either way) that `"both"` runs enforce.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "channel/channel.h"
#include "core/config.h"
#include "stat/stat_report.h"
#include "util/units.h"

namespace serdes::stat {

/// Distribution of the ISI sum over equiprobable +/-1 data: each cursor
/// `c` contributes +/- c/2.  Built exactly (2^n enumeration) when `n <=
/// max_exact_bits`, else by iterative two-point convolution on a voltage
/// grid (linear-splitting fractional shifts).  Values are sorted; `prob`
/// sums to 1.
class IsiMixture {
 public:
  struct Options {
    /// Enumerate exactly up to 2^max_exact_bits combinations.
    int max_exact_bits = 12;
    /// Grid resolution for the convolution fallback (forced odd).
    int grid_bins = 4097;
  };

  /// `cursors` are the full cursor amplitudes (the +/- c/2 halving happens
  /// here); zero-amplitude cursors are skipped.
  ///
  /// Both paths cost only their arithmetic and keep the bits of the plain
  /// forms.  The exact path merges the two shifted copies v - c and v + c
  /// of the sorted sums at each cursor instead of sorting the 2^n sums at
  /// the end: each sum is the same left-to-right fold either way, and with
  /// finite cursors the sums hold no NaN and no -0.0, so equal values have
  /// equal bits and any sorted order of them is the one std::sort gives.
  /// The grid path tracks the bins that can hold mass (each cursor widens
  /// them by its whole-bin shift plus one); every bin outside holds +0.0,
  /// the value the full pass computes there, and the bins whose reads all
  /// fall inside the grid skip the bounds checks with the same products
  /// and sums.
  static IsiMixture build(const std::vector<double>& cursors,
                          const Options& options);
  static IsiMixture build(const std::vector<double>& cursors) {
    return build(cursors, Options{});
  }

  /// P(V + N(0, sigma) > x).  sigma == 0 degenerates to the strict mass
  /// above x.
  [[nodiscard]] double upper_tail(double x, double sigma) const;
  /// P(V + N(0, sigma) < x).
  [[nodiscard]] double lower_tail(double x, double sigma) const;

  /// v such that P(V + N >= v) = p (decreasing in v; bisection).
  [[nodiscard]] double upper_quantile(double p, double sigma) const;
  /// v such that P(V + N <= v) = p.
  [[nodiscard]] double lower_quantile(double p, double sigma) const;

  [[nodiscard]] bool exact() const { return exact_; }
  [[nodiscard]] std::size_t size() const { return value_.size(); }
  /// The sorted support points, their probabilities and the inclusive
  /// prefix sums of those, read-only.
  [[nodiscard]] const std::vector<double>& values() const { return value_; }
  [[nodiscard]] const std::vector<double>& probabilities() const {
    return prob_;
  }
  [[nodiscard]] const std::vector<double>& cumulative() const { return cum_; }

 private:
  /// Index range [first, second) of the support points inside the
  /// Gaussian tail window around x; outside it a point's tail is exactly
  /// 0 or its full mass.
  [[nodiscard]] std::pair<std::size_t, std::size_t> window(
      double x, double sigma) const;
  /// lower_tail(x, sigma) <= p and upper_tail(x, sigma) >= p, decided
  /// from the leading window terms when their bounds settle it.
  [[nodiscard]] bool lower_tail_at_most(double x, double sigma,
                                        double p) const;
  [[nodiscard]] bool upper_tail_at_least(double x, double sigma,
                                         double p) const;

  std::vector<double> value_;  // sorted support points
  std::vector<double> prob_;   // matching probabilities (sum 1)
  std::vector<double> cum_;    // inclusive prefix sums of prob_
  double prob_max_ = 0.0;      // largest entry of prob_
  bool exact_ = true;
};

/// Error probability of a zero-threshold slicer deciding a symbol
///   y = +/- main/2 + offset + ISI + N(0, sigma)
/// with equiprobable polarities:
///   0.5 * P(y < 0 | +) + 0.5 * P(y > 0 | -).
/// Exact (to Gaussian-tail evaluation accuracy) when the mixture is exact
/// — the closed-form regression tests pin two-tap ISI and pure-AWGN cases
/// against hand formulas at <= 1e-12.
[[nodiscard]] double slicer_error_probability(double main_cursor,
                                              const IsiMixture& isi,
                                              double offset, double sigma);

/// Power gain of the noise path: the sum of the squared impulse-response
/// samples g of the CTLE (when `cfg` enables it) and, with `rx_poles`, the
/// RFI and restoring output poles, summed in blocks of 4096 samples until
/// a block adds less than 1e-18 of the total.  The sum stops early, with
/// the same double, once the filter states prove that nothing later can
/// change it.  From a bound on every later |g| (the input is 0 from there
/// on; analog::OnePoleLowPass::output_bound, cascaded through the chain)
/// it checks two things: every later g * g leaves the running block sum
/// unchanged, and every later block, a sum of 4096 of them, leaves the
/// total unchanged.  So the subnormal tail the poles decay into, where
/// each step costs about 100 ns, is never visited.
[[nodiscard]] double noise_power_gain(const core::LinkConfig& cfg,
                                      util::Hertz rfi_bandwidth,
                                      util::Hertz restore_bandwidth,
                                      bool rx_poles);

/// Two-sided Poisson acceptance band around mean `lambda`: the smallest
/// and largest observation counts consistent with the mean at ~3.5 sigma
/// (exact CDF scan for small lambda, normal approximation above 50).
[[nodiscard]] std::pair<std::uint64_t, std::uint64_t> poisson_band(
    double lambda);

class StatAnalyzer {
 public:
  struct Options {
    /// Sampling-phase resolution across one UI (EyeAnalyzer convention:
    /// bin b covers phase (b + 0.5) / n).
    int phase_bins_per_ui = 64;
    IsiMixture::Options mixture{};
    /// Cursors below `isi_epsilon * main_cursor` are dropped from the ISI
    /// distribution.
    double isi_epsilon = 1e-7;
    /// BER level for contours and margins.
    double target_ber = 1e-15;
    /// Post-cursor budget: the pulse response is extended (up to this many
    /// UIs) until its tail decays below isi_epsilon of the peak.
    int max_pulse_uis = 512;
    /// When true, `contour_high_v` / `contour_low_v` are filled at every
    /// phase.  When false, the two vectors stay empty and only the best
    /// phase's contour is bisected: that one contour is all
    /// `eye_height_v`, `voltage_margin_v` and the PAM4 sub-eye margins
    /// read, and they stay bit-identical.
    bool contours = true;
  };

  StatAnalyzer() = default;
  explicit StatAnalyzer(Options options) : options_(options) {}

  /// Analyzes one scenario: the channel is the factory-built model the MC
  /// path would run (`dsp` and composite structure included).  Throws
  /// std::invalid_argument on a config the engine cannot linearize.  The
  /// sampling phases are independent, so they fan out over
  /// util::parallel_for: a top-level call spreads them over every core,
  /// and a call from inside a parallel_for task (a SweepRunner, run_batch
  /// or run_bus worker) runs them inline on that task's thread.  The
  /// report is byte-identical either way.
  [[nodiscard]] StatReport analyze(const core::LinkConfig& config,
                                   const channel::Channel& channel) const;

  /// Fills the `"both"`-mode fields of `report`.  The predicted band is
  /// structural: its floor is the glitch-filter majority-vote BER with
  /// independent per-phase noise (the vote can only be beaten by noise
  /// correlation, which pushes toward the single-slicer bathtub that forms
  /// the ceiling), evaluated over the CDR's phase-pick window (half-width
  /// 0.5 / cdr_oversampling UI) and widened by `slack` both ways.  The
  /// verdict is a Poisson test of `errors` observed over `bits` against
  /// that band.
  static void cross_check(StatReport& report, std::uint64_t bits,
                          std::uint64_t errors, int cdr_oversampling,
                          int cdr_glitch_filter_radius, double slack);

  [[nodiscard]] const Options& options() const { return options_; }

 private:
  Options options_{};
};

}  // namespace serdes::stat
