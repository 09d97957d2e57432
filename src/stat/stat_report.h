// Plain-data result of one statistical (StatEye-style) link analysis.
//
// Everything in here is derived analytically from the channel's single-bit
// pulse response — no bit stream is simulated — so the numbers reach BER
// regimes (1e-12..1e-15 and beyond) that Monte Carlo cannot touch in CI
// time, and they are exactly reproducible: the same spec always yields the
// same report, byte for byte once serialized.
#pragma once

#include <cstdint>
#include <vector>

namespace serdes::stat {

/// Bathtub, eye contour and margin surfaces of one scenario, plus the
/// optional MC cross-check verdict for `"both"` runs.  Vectors share one
/// phase grid: entry `b` describes sampling phase `(b + 0.5) / n` UI where
/// `n = bathtub_ber.size()` (the EyeAnalyzer bin convention).
struct StatReport {
  /// BER level the timing/voltage margins and contours are quoted at.
  double target_ber = 1e-15;

  // ---- Model parameters (diagnostics) ----
  /// Effective Gaussian noise sigma at the linear decision point (volts):
  /// injected AWGN through the CTLE + RFI-pole chain, plus the sampler's
  /// input-referred noise divided by the static front-end gain.
  double sigma_v = 0.0;
  /// Linear-domain slicer threshold relative to the stream mean: the
  /// channel-referred voltage at which the RFI -> restoring chain output
  /// crosses the sampler's decision threshold.
  double threshold_v = 0.0;
  /// Strongest single-bit cursor (volts) at the best sampling phase.
  double main_cursor_v = 0.0;
  /// Significant non-main cursors folded into the ISI distribution at the
  /// best phase.
  int isi_cursors = 0;

  // ---- Phase surfaces ----
  /// BER vs sampling phase across one UI (random + sinusoidal jitter
  /// folded in).  Values below ~1e-300 flush to 0.
  std::vector<double> bathtub_ber;
  /// Eye contour at `target_ber`: per phase, the voltage (relative to the
  /// slicer threshold) below which a transmitted '1' dips with probability
  /// `target_ber`, and above which a transmitted '0' rises with the same
  /// probability.  `high > low` means the eye is open at that phase.
  /// Both are empty when the analyzer ran with `contours = false`; the
  /// margins below are the same either way.
  std::vector<double> contour_high_v;
  std::vector<double> contour_low_v;

  // ---- Margins ----
  double best_phase_ui = 0.5;
  /// Bathtub minimum (BER at the best phase).
  double min_ber = 1.0;
  /// Width of the contiguous phase region around the best phase where the
  /// bathtub stays at or below `target_ber` (fraction of UI; 0 = never).
  double timing_margin_ui = 0.0;
  /// Contour opening at the best phase (high - low; negative = closed at
  /// `target_ber`).
  double eye_height_v = 0.0;
  /// Symmetric voltage margin at the best phase: min(high, -low); negative
  /// when the eye is closed at `target_ber`.
  double voltage_margin_v = 0.0;

  // ---- PAM4 per-eye margins (empty under NRZ) ----
  /// For PAM4 scenarios, one entry per sub-eye (lower, middle, upper) at
  /// the best sampling phase: the contour opening, the symmetric voltage
  /// margin, and the sub-eye's own slicer error probability.  Serialized
  /// only when non-empty (schema version 2), so NRZ reports are unchanged.
  std::vector<double> pam4_eye_height_v;
  std::vector<double> pam4_voltage_margin_v;
  std::vector<double> pam4_eye_ber;

  // ---- DFE (non-empty when the config carries feedback taps) ----
  /// Linear-domain (channel-referred) feedback taps the analysis cancelled
  /// post-cursor ISI with: tap k halves into the +/- residual of cursor
  /// main+1+k.  NRZ taps are authored in the restored domain and map back
  /// through the front-end chain slope; PAM4 taps are already in the
  /// slicer (CTLE) domain.  Serialized only when non-empty (schema
  /// version 3), so DFE-free reports keep their earlier bytes.
  std::vector<double> dfe_taps_applied;
  /// Error-propagation multiplier folded into the bathtub at the best
  /// phase: 1 / (1 - q) with q the expected follow-on errors per error
  /// (a wrong feedback decision doubles the corresponding tap's ISI for
  /// the next symbols).  1.0 when no DFE.
  double dfe_burst_factor = 1.0;

  // ---- MC cross-check (filled for analysis = "both") ----
  bool cross_checked = false;
  /// The Monte Carlo BER this report was checked against.
  double mc_ber = 0.0;
  /// Predicted BER band the MC measurement must fall in: bathtub min/max
  /// over the CDR's phase-pick window, widened by the model-slack factor.
  double band_low = 0.0;
  double band_high = 0.0;
  /// True when the MC error count sits inside the Poisson-widened band.
  bool consistent = false;
};

}  // namespace serdes::stat
