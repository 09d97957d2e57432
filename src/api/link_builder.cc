#include "api/link_builder.h"

#include <utility>

#include "api/channel_factory.h"

namespace serdes::api {

LinkBuilder& LinkBuilder::name(std::string n) {
  spec_.name = std::move(n);
  return *this;
}

LinkBuilder& LinkBuilder::bit_rate(util::Hertz rate) {
  spec_.bit_rate_hz = rate.value();
  return *this;
}

LinkBuilder& LinkBuilder::samples_per_ui(int samples) {
  spec_.samples_per_ui = samples;
  return *this;
}

LinkBuilder& LinkBuilder::modulation(std::string m) {
  spec_.modulation = std::move(m);
  return *this;
}

LinkBuilder& LinkBuilder::channel(ChannelSpec ch) {
  spec_.channel = std::move(ch);
  return *this;
}

LinkBuilder& LinkBuilder::flat_channel(util::Decibel loss) {
  spec_.channel = ChannelSpec::flat(loss.value());
  return *this;
}

LinkBuilder& LinkBuilder::noise_rms(double volts) {
  spec_.noise_rms_v = volts;
  return *this;
}

LinkBuilder& LinkBuilder::noise_reference_bandwidth(util::Hertz bw) {
  spec_.noise_reference_bandwidth_hz = bw.value();
  return *this;
}

LinkBuilder& LinkBuilder::random_jitter(util::Second rms) {
  spec_.random_jitter_s = rms.value();
  return *this;
}

LinkBuilder& LinkBuilder::sinusoidal_jitter(util::Second amplitude,
                                            double freq_ratio) {
  spec_.sinusoidal_jitter_s = amplitude.value();
  spec_.sj_freq_ratio = freq_ratio;
  return *this;
}

LinkBuilder& LinkBuilder::ppm_offset(double ppm) {
  spec_.ppm_offset = ppm;
  return *this;
}

LinkBuilder& LinkBuilder::rx_phase_offset_ui(double ui) {
  spec_.rx_phase_offset_ui = ui;
  return *this;
}

LinkBuilder& LinkBuilder::cdr_oversampling(int factor) {
  spec_.cdr_oversampling = factor;
  return *this;
}

LinkBuilder& LinkBuilder::cdr_window(int uis) {
  spec_.cdr_window_uis = uis;
  return *this;
}

LinkBuilder& LinkBuilder::cdr_glitch_filter(int radius) {
  spec_.cdr_glitch_filter_radius = radius;
  return *this;
}

LinkBuilder& LinkBuilder::cdr_jitter_hysteresis(int windows) {
  spec_.cdr_jitter_hysteresis = windows;
  return *this;
}

LinkBuilder& LinkBuilder::tx_ffe_deemphasis(double alpha) {
  spec_.tx_ffe_deemphasis = alpha;
  return *this;
}

LinkBuilder& LinkBuilder::rx_ctle(util::Decibel boost, util::Hertz pole) {
  spec_.rx_ctle_boost_db = boost.value();
  spec_.rx_ctle_pole_hz = pole.value();
  return *this;
}

LinkBuilder& LinkBuilder::dfe(std::vector<double> taps) {
  spec_.dfe_taps = std::move(taps);
  return *this;
}

LinkBuilder& LinkBuilder::eq(std::string mode) {
  spec_.eq = std::move(mode);
  return *this;
}

LinkBuilder& LinkBuilder::training_uis(int uis) {
  spec_.training_uis = uis;
  return *this;
}

LinkBuilder& LinkBuilder::preamble_bits(int bits) {
  spec_.preamble_bits = bits;
  return *this;
}

LinkBuilder& LinkBuilder::prbs(util::PrbsOrder order) {
  spec_.prbs_order = order;
  return *this;
}

LinkBuilder& LinkBuilder::payload_bits(std::uint64_t bits) {
  spec_.payload_bits = bits;
  return *this;
}

LinkBuilder& LinkBuilder::chunk_bits(std::uint64_t bits) {
  spec_.chunk_bits = bits;
  return *this;
}

LinkBuilder& LinkBuilder::seed(std::uint64_t seed) {
  spec_.seed = seed;
  return *this;
}

LinkBuilder& LinkBuilder::stream_block_samples(std::uint64_t samples) {
  spec_.stream_block_samples = samples;
  return *this;
}

LinkBuilder& LinkBuilder::lane_batch(int lanes) {
  spec_.lane_batch = lanes;
  return *this;
}

LinkBuilder& LinkBuilder::dsp(bool on) {
  spec_.dsp = on;
  return *this;
}

LinkBuilder& LinkBuilder::analysis(std::string mode) {
  spec_.analysis = std::move(mode);
  return *this;
}

LinkBuilder& LinkBuilder::stat_target_ber(double ber) {
  spec_.stat_target_ber = ber;
  return *this;
}

LinkBuilder& LinkBuilder::capture_waveforms(bool capture) {
  spec_.capture_waveforms = capture;
  capture_set_explicitly_ = true;
  return *this;
}

LinkSpec LinkBuilder::build_spec() const {
  spec_.validate_or_throw();
  return spec_;
}

core::LinkConfig LinkBuilder::build_config() const {
  return spec_.to_link_config();
}

core::SerDesLink LinkBuilder::build_link() const {
  core::LinkConfig cfg = build_config();
  // A link object is for inspecting results (waveforms, eye, front end),
  // so unless the caller chose otherwise, capture stays on here — matching
  // direct SerDesLink construction.  Lean, capture-free sweeps go through
  // api::Simulator, which manages capture per chunk.
  if (!capture_set_explicitly_) cfg.capture_waveforms = true;
  return core::SerDesLink(cfg,
                          ChannelFactory::instance().create(spec_.channel,
                                                            cfg));
}

}  // namespace serdes::api
