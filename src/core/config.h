// Link-level configuration shared by the transmitter, receiver and the
// experiment harnesses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "analog/driver.h"
#include "analog/rfi.h"
#include "analog/sampler.h"
#include "digital/cdr.h"
#include "digital/framing.h"
#include "util/prbs.h"
#include "util/units.h"

namespace serdes::core {

/// One crosstalk aggressor path into a victim lane's receive stream: a
/// gain-scaled copy of the aggressor's TX levels, delayed by an integer
/// number of UIs, optionally filtered through the victim's own channel
/// (FEXT — the coupled energy travels the full line) or injected directly
/// (NEXT — near-end coupling bypasses the line).  The contribution lands
/// after the victim's channel and before the receiver-input AWGN, so the
/// receiver equalizes signal + crosstalk together, exactly as hardware
/// would see it.
struct XtalkPath {
  double gain = 0.0;
  bool through_channel = true;
  /// Launch delay of the aggressor stream relative to the victim, in UIs.
  int delay_ui = 0;
};

struct LinkConfig {
  // ---- Rate / sampling ----
  util::Hertz bit_rate = util::gigahertz(2.0);
  /// Analog waveform samples per unit interval (resolution of the link sim).
  int samples_per_ui = 16;

  // ---- Modulation ----
  /// Line code of the serial stream.  kNrz is the paper's datapath; kPam4
  /// carries 2 gray-mapped bits per UI through a 4-level TX source and a
  /// tri-threshold sampler (the nonlinear RFI/restoring stages are
  /// bypassed — PAM4 runs channel -> AWGN -> CTLE -> sampler).
  enum class Modulation { kNrz, kPam4 };
  Modulation modulation = Modulation::kNrz;

  /// Bits carried per unit interval (1 for NRZ, 2 for PAM4).
  [[nodiscard]] int bits_per_ui() const {
    return modulation == Modulation::kPam4 ? 2 : 1;
  }

  // ---- Transmitter ----
  analog::DriverDesign driver{};

  // ---- Receiver front end ----
  analog::RfiDesign rfi{};
  /// Restoring inverter widths (um).
  double restoring_wn_um = 8.0;
  double restoring_wp_um = 12.0;

  // ---- Sampler ----
  analog::DffSampler::Config sampler{};

  // ---- CDR ----
  digital::CdrConfig cdr{};
  /// Static phase offset of the RX sampling clocks relative to the data
  /// (fraction of one UI); exercises CDR lock.
  double rx_phase_offset_ui = 0.37;
  /// RX/TX frequency mismatch (ppm).
  double ppm_offset = 0.0;

  // ---- Impairments ----
  /// AWGN at the receiver input: RMS volts measured within
  /// `noise_reference_bandwidth`.  The injected per-sample sigma is scaled
  /// by sqrt(simulation_nyquist / reference_bandwidth) so the noise has a
  /// rate-independent spectral density and the post-front-end RMS does not
  /// depend on the waveform sample rate.
  double channel_noise_rms = 0.001;
  util::Hertz noise_reference_bandwidth = util::gigahertz(3.0);
  /// RMS random jitter on the sampling clocks.
  util::Second rx_random_jitter = util::picoseconds(2.0);
  /// Sinusoidal jitter amplitude on the sampling clocks.
  util::Second rx_sinusoidal_jitter = util::picoseconds(0.0);
  /// Sinusoidal jitter frequency as a fraction of the bit rate (fast,
  /// CDR-untrackable jitter sits at a few percent of the rate).
  double sj_freq_ratio = 0.04;

  // ---- Equalization (extension blocks; disabled by default) ----
  /// TX FFE 2-tap de-emphasis factor alpha (0 disables the FFE path).
  double tx_ffe_deemphasis = 0.0;
  /// RX CTLE high-frequency boost above `rx_ctle_pole` (0 dB disables).
  util::Decibel rx_ctle_boost = util::decibels(0.0);
  util::Hertz rx_ctle_pole = util::megahertz(700.0);
  /// Decision-feedback equalizer post-cursor taps, in volts at the
  /// sampler's summing node (restored domain for NRZ, CTLE output for
  /// PAM4).  Tap k feeds back the decision from k+1 UIs ago; empty
  /// disables the DFE.
  std::vector<double> dfe_taps;

  // ---- Framing / payload ----
  digital::FramingConfig framing{};
  /// Pattern used by SerDesLink::run_prbs when no order is given.
  util::PrbsOrder prbs_order = util::PrbsOrder::kPrbs31;

  std::uint64_t noise_seed = 1234;

  /// When true, a run captures all three waveforms of LinkResult: the TX
  /// output, the receiver input (`channel_out`, after the AWGN) and the
  /// slicer input (`rx.restored`).  When false it captures none, unless
  /// `capture_slicer_input` asks for the last one.
  bool capture_waveforms = true;
  /// Internal: with `capture_waveforms` off, still capture the slicer
  /// input, which is all an eye fold reads.  api::Simulator sets it for
  /// its diagnostic chunk when the spec asks for no waveforms, so a deep
  /// run does not hold two waveforms (eight lanes' worth in a tile)
  /// that no report reads.
  bool capture_slicer_input = false;
  /// When capturing, retain at most this many samples per waveform (the
  /// diagnostic window); 0 keeps everything.  Lets the streaming pipeline
  /// bound capture memory on deep chunks — api::Simulator sets it from its
  /// diagnostic window option.
  std::size_t capture_max_samples = 0;

  // ---- Execution strategy ----
  /// Samples per streaming block (the O(block) memory knob).  It also
  /// decides whether a run's second pass resumes from the first pass's
  /// kept output (a stream of at most two blocks) or re-runs the front
  /// (ChainPlan::resumes).  Results are invariant to this value by
  /// construction.
  std::size_t stream_block_samples = 16384;
  /// Lane-tile width for batched multi-lane execution (core::LaneLink):
  /// api::Simulator::run_batch groups compatible lanes into SoA tiles of
  /// up to this many lanes sharing one instruction stream.  1 = scalar
  /// per-lane execution.  Results are bit-identical either way; this is
  /// purely a throughput knob, and only streaming Monte Carlo runs tile.
  int lane_batch = 1;
  /// Opt into the dsp block-convolution engine for channels built from
  /// this config (ChannelFactory): long FIR and lossy-line responses take
  /// the overlap-save FFT path above the measured crossover.  Analog
  /// waveforms then match the exact kernels to <= 1e-12 RMS and bit
  /// decisions are unchanged, but samples are no longer bit-identical (and
  /// streaming results acquire a benign block-size dependence through the
  /// FFT segmentation), so the exact direct kernels stay the default.
  bool dsp = false;

  // ---- Crosstalk ----
  /// Aggressor paths folded into this lane's receive stream (bus victims
  /// only; empty for an isolated link).  Paths are applied in order, after
  /// the victim channel and before the AWGN, by the streaming datapath.
  std::vector<XtalkPath> xtalk;

  /// PAM4 only: when false the sampler keeps just the middle threshold
  /// (the LSB slicers are disabled and LSBs decode as 0) — the degenerate
  /// configuration that reduces PAM4 to NRZ over symbols {0, 3}.
  bool pam4_extra_thresholds = true;

  /// Unit interval (symbol period: bits_per_ui() bits long under PAM4).
  [[nodiscard]] util::Second unit_interval() const {
    return util::period(util::hertz(bit_rate.value() /
                                    static_cast<double>(bits_per_ui())));
  }
  /// Analog sample period.
  [[nodiscard]] util::Second sample_period() const {
    return unit_interval() / static_cast<double>(samples_per_ui);
  }

  /// Default configuration used throughout the paper reproduction:
  /// 2 Gbps, 1.8 V, 5x-oversampled CDR — with the RFI sized for the
  /// 2 GHz bandwidth the paper's front end needs.
  static LinkConfig paper_default();
};

/// Per-sample AWGN sigma for this config: `channel_noise_rms` scaled by
/// sqrt(simulation_nyquist / reference_bandwidth) so the injected noise has
/// a rate-independent spectral density (see `channel_noise_rms`).  Shared
/// by the Monte Carlo datapath and the statistical engine so both fold in
/// exactly the same noise power.
[[nodiscard]] double per_sample_noise_sigma(const LinkConfig& config);

}  // namespace serdes::core
