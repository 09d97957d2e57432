// Whole-waveform reference link for the streaming-equivalence tests.
//
// Runs one link chunk with every stage materializing the whole chunk's
// waveform through the library's whole-waveform primitives (TxFfe::shape,
// InverterChainDriver::drive, Channel::transmit, AwgnSource,
// RxCtle::equalize, RfiStage::process, RestoringInverter::process,
// sample_waveform, OversamplingCdr::recover, deframe_stream,
// Deserializer::deserialize), so it holds O(chunk) memory.
// core::SerDesLink::run must match it bit for bit: same seeds, same BER,
// same CDR diagnostics and the same captured waveforms.  NRZ only, without
// crosstalk or a DFE.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "analog/sampler.h"
#include "analog/waveform.h"
#include "channel/channel.h"
#include "channel/equalizer.h"
#include "channel/noise.h"
#include "core/chain_plan.h"
#include "core/config.h"
#include "core/link.h"
#include "core/receiver.h"
#include "core/transmitter.h"
#include "digital/cdr.h"
#include "digital/deserializer.h"
#include "digital/framing.h"
#include "digital/sampling.h"

namespace serdes::whole_waveform {

/// Full receive chain over the channel-output waveform, through `rx`'s
/// characterized front end.
inline core::ReceiveResult receive(const core::LinkConfig& config,
                                   const core::Receiver& rx,
                                   const analog::Waveform& channel_out) {
  core::ReceiveResult result;

  // Analog front end.
  result.restored =
      rx.restoring().process(rx.rfi_stage().process(channel_out));

  // Multi-phase sampling.
  digital::MultiphaseClockGenerator clocks(
      config.bit_rate, config.cdr.oversampling,
      util::seconds(config.rx_phase_offset_ui *
                    config.unit_interval().value()),
      config.ppm_offset);
  channel::JitterModel::Config jitter_cfg;
  jitter_cfg.random_rms = config.rx_random_jitter;
  jitter_cfg.sinusoidal_amplitude = config.rx_sinusoidal_jitter;
  jitter_cfg.sinusoidal_freq =
      util::hertz(config.sj_freq_ratio * config.bit_rate.value());
  jitter_cfg.seed = config.noise_seed + 1;
  channel::JitterModel jitter(jitter_cfg);

  analog::DffSampler::Config sampler_cfg = config.sampler;
  sampler_cfg.threshold = rx.decision_threshold();
  sampler_cfg.seed = config.noise_seed + 2;
  analog::DffSampler sampler(sampler_cfg);

  const auto samples =
      digital::sample_waveform(result.restored, clocks, sampler, &jitter);
  result.metastable_samples = sampler.metastable_count();

  // Clock and data recovery.
  digital::OversamplingCdr cdr(config.cdr);
  result.recovered_bits = cdr.recover(samples);
  result.cdr_decision_phase = cdr.decision_phase();
  result.cdr_phase_updates = cdr.phase_updates();

  // Frame alignment and deserialization.
  result.payload =
      digital::deframe_stream(result.recovered_bits, config.framing);
  result.aligned = !result.payload.empty();
  result.frames = digital::Deserializer::deserialize(result.payload);
  return result;
}

/// Transmits `payload` over `channel` as a SerDesLink built from `config`
/// does on its `run_index`-th run (the index picks the AWGN seed).
inline core::LinkResult run(const core::LinkConfig& config,
                            const channel::Channel& channel,
                            const std::vector<std::uint8_t>& payload,
                            std::uint64_t run_index) {
  if (config.modulation == core::LinkConfig::Modulation::kPam4) {
    throw std::invalid_argument("whole_waveform::run: NRZ only");
  }
  if (std::any_of(config.xtalk.begin(), config.xtalk.end(),
                  [](const core::XtalkPath& p) { return p.gain != 0.0; })) {
    throw std::invalid_argument("whole_waveform::run: no crosstalk");
  }
  if (!config.dfe_taps.empty()) {
    throw std::invalid_argument("whole_waveform::run: no DFE");
  }
  const core::Transmitter tx(config);
  const core::Receiver rx(config);
  core::LinkResult result;
  result.payload_bits_sent = payload.size();

  if (config.tx_ffe_deemphasis != 0.0) {
    // FFE path: pre-distorted multi-level launch instead of the plain
    // rail-to-rail driver waveform.
    const channel::TxFfe ffe = channel::TxFfe::de_emphasis(
        config.tx_ffe_deemphasis, config.driver.vdd);
    result.tx_out =
        ffe.shape(tx.wire_bits(payload), config.bit_rate,
                  config.samples_per_ui, tx.driver().output_rise_time());
  } else {
    result.tx_out = tx.driver().drive(tx.wire_bits(payload), config.bit_rate,
                                      config.samples_per_ui);
  }
  result.channel_out = channel.transmit(result.tx_out);

  channel::AwgnSource noise(
      core::per_sample_noise_sigma(config),
      core::ChainPlan::awgn_seed(config.noise_seed, run_index));
  noise.apply(result.channel_out);
  result.rx_swing_pp = result.channel_out.peak_to_peak();

  if (config.rx_ctle_boost.value() > 0.0) {
    const channel::RxCtle ctle(config.rx_ctle_boost, config.rx_ctle_pole,
                               config.sample_period());
    result.rx = receive(config, rx, ctle.equalize(result.channel_out));
  } else {
    result.rx = receive(config, rx, result.channel_out);
  }
  result.aligned = result.rx.aligned;
  result.decision_threshold = rx.decision_threshold();

  core::SerDesLink::finalize_result(config, payload, result);
  // Keep what the streaming probes capture: the waveforms under
  // capture_waveforms, the slicer input alone under capture_slicer_input,
  // each trimmed to the diagnostic window.
  if (!config.capture_waveforms) {
    result.tx_out = {};
    result.channel_out = {};
    if (!config.capture_slicer_input) result.rx.restored = {};
  }
  if (config.capture_max_samples > 0) {
    const std::size_t cap = config.capture_max_samples;
    for (analog::Waveform* w :
         {&result.tx_out, &result.channel_out, &result.rx.restored}) {
      if (w->size() > cap) w->samples().resize(cap);
    }
  }
  return result;
}

}  // namespace serdes::whole_waveform
