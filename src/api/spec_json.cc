#include "api/spec_json.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "api/channel_factory.h"
#include "util/fs.h"
#include "util/strings.h"

namespace serdes::api {

using util::Json;
using util::JsonError;

namespace {

using util::fail_at;
using util::get_bool;
using util::get_double;
using util::get_string;
using util::get_uint;

[[noreturn]] void fail(const std::string& path, const std::string& message) {
  fail_at(path, message);
}

/// util::get_int bounded to int (every integral LinkSpec knob is an int).
int get_int32(const Json& j, const std::string& path) {
  const std::int64_t v = util::get_int(j, path);
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    fail(path, "integer out of int range");
  }
  return static_cast<int>(v);
}

std::vector<double> get_double_array(const Json& j, const std::string& path) {
  if (!j.is_array()) fail(path, "expected array of numbers");
  std::vector<double> out;
  out.reserve(j.as_array().size());
  for (std::size_t i = 0; i < j.as_array().size(); ++i) {
    out.push_back(
        get_double(j.as_array()[i], path + "[" + std::to_string(i) + "]"));
  }
  return out;
}

// The did-you-mean candidate lists are derived from what to_json emits,
// so the hint vocabulary can never drift from the serialization schema
// (the apply_* chains are exercised against every emitted key by the
// round-trip fixed-point tests).

const std::vector<std::string>& channel_field_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    const auto add = [&](const ChannelSpec& ch) {
      const Json j = to_json(ch);  // keep alive through the iteration
      for (const auto& [key, value] : j.as_object()) {
        if (std::find(names.begin(), names.end(), key) == names.end()) {
          names.push_back(key);
        }
      }
    };
    add(ChannelSpec::flat(0.0));
    add(ChannelSpec::rc(1.0));
    add(ChannelSpec::lossy_line(0.0, 0.0, 0.0));
    add(ChannelSpec::fir({1.0}));
    add(ChannelSpec::cascade({ChannelSpec::flat(0.0)}));
    return names;
  }();
  return kNames;
}

const std::vector<std::string>& link_field_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    const Json j = to_json(LinkSpec{});  // keep alive through the iteration
    for (const auto& [key, value] : j.as_object()) {
      names.push_back(key);
    }
    return names;
  }();
  return kNames;
}

[[noreturn]] void fail_unknown_field(const std::string& path,
                                     std::string_view field,
                                     const std::string& owner,
                                     const std::vector<std::string>& known) {
  std::string message = "unknown " + owner + " field '" + std::string(field) +
                        "'";
  if (const std::string hint = util::closest_match(field, known);
      !hint.empty()) {
    message += " — did you mean '" + hint + "'?";
  }
  fail(path, message);
}

void apply_channel_field(ChannelSpec& ch, std::string_view field,
                         const Json& value, const std::string& path) {
  if (field == "kind") {
    ch.kind = get_string(value, path);
  } else if (field == "loss_db") {
    ch.loss_db = get_double(value, path);
  } else if (field == "pole_hz") {
    ch.pole_hz = get_double(value, path);
  } else if (field == "skin_loss_db_at_1ghz") {
    ch.skin_loss_db_at_1ghz = get_double(value, path);
  } else if (field == "dielectric_loss_db_at_1ghz") {
    ch.dielectric_loss_db_at_1ghz = get_double(value, path);
  } else if (field == "fir_taps") {
    ch.fir_taps = get_double_array(value, path);
  } else if (field == "fir_samples_per_tap") {
    ch.fir_samples_per_tap = get_int32(value, path);
  } else if (field == "stages") {
    if (!value.is_array()) fail(path, "expected array of channel specs");
    ch.stages.clear();
    for (std::size_t i = 0; i < value.as_array().size(); ++i) {
      ch.stages.push_back(channel_spec_from_json(
          value.as_array()[i], path + "[" + std::to_string(i) + "]"));
    }
  } else {
    fail_unknown_field(path, field, "ChannelSpec", channel_field_names());
  }
}

util::PrbsOrder prbs_order_from_int(int order, const std::string& path) {
  switch (order) {
    case 7: return util::PrbsOrder::kPrbs7;
    case 9: return util::PrbsOrder::kPrbs9;
    case 15: return util::PrbsOrder::kPrbs15;
    case 23: return util::PrbsOrder::kPrbs23;
    case 31: return util::PrbsOrder::kPrbs31;
    default:
      fail(path, "prbs_order must be one of 7, 9, 15, 23, 31");
  }
}

}  // namespace

ChannelSpec channel_spec_from_json(const Json& json, const std::string& path) {
  if (!json.is_object()) fail(path, "expected channel spec object");
  ChannelSpec ch;
  for (const auto& [key, value] : json.as_object()) {
    apply_channel_field(ch, key, value, path + "." + key);
  }
  return ch;
}

void apply_link_field(LinkSpec& spec, std::string_view field,
                      const Json& value, const std::string& path) {
  if (const auto dot = field.find('.'); dot != std::string_view::npos) {
    const std::string_view head = field.substr(0, dot);
    const std::string_view rest = field.substr(dot + 1);
    if (head != "channel" || rest.empty()) {
      fail_unknown_field(path, field, "LinkSpec", link_field_names());
    }
    if (rest.find('.') != std::string_view::npos) {
      fail(path, "nested channel field path '" + std::string(field) +
                     "' is not supported (set 'channel' to a full object "
                     "instead)");
    }
    apply_channel_field(spec.channel, rest, value, path);
    return;
  }
  if (field == "name") {
    spec.name = get_string(value, path);
  } else if (field == "bit_rate_hz") {
    spec.bit_rate_hz = get_double(value, path);
  } else if (field == "samples_per_ui") {
    spec.samples_per_ui = get_int32(value, path);
  } else if (field == "modulation") {
    spec.modulation = get_string(value, path);
  } else if (field == "channel") {
    spec.channel = channel_spec_from_json(value, path);
  } else if (field == "noise_rms_v") {
    spec.noise_rms_v = get_double(value, path);
  } else if (field == "noise_reference_bandwidth_hz") {
    spec.noise_reference_bandwidth_hz = get_double(value, path);
  } else if (field == "random_jitter_s") {
    spec.random_jitter_s = get_double(value, path);
  } else if (field == "sinusoidal_jitter_s") {
    spec.sinusoidal_jitter_s = get_double(value, path);
  } else if (field == "sj_freq_ratio") {
    spec.sj_freq_ratio = get_double(value, path);
  } else if (field == "ppm_offset") {
    spec.ppm_offset = get_double(value, path);
  } else if (field == "rx_phase_offset_ui") {
    spec.rx_phase_offset_ui = get_double(value, path);
  } else if (field == "cdr_oversampling") {
    spec.cdr_oversampling = get_int32(value, path);
  } else if (field == "cdr_window_uis") {
    spec.cdr_window_uis = get_int32(value, path);
  } else if (field == "cdr_glitch_filter_radius") {
    spec.cdr_glitch_filter_radius = get_int32(value, path);
  } else if (field == "cdr_jitter_hysteresis") {
    spec.cdr_jitter_hysteresis = get_int32(value, path);
  } else if (field == "tx_ffe_deemphasis") {
    spec.tx_ffe_deemphasis = get_double(value, path);
  } else if (field == "rx_ctle_boost_db") {
    spec.rx_ctle_boost_db = get_double(value, path);
  } else if (field == "rx_ctle_pole_hz") {
    spec.rx_ctle_pole_hz = get_double(value, path);
  } else if (field == "dfe_taps") {
    spec.dfe_taps = get_double_array(value, path);
  } else if (field == "eq") {
    spec.eq = get_string(value, path);
  } else if (field == "training_uis") {
    spec.training_uis = get_int32(value, path);
  } else if (field == "preamble_bits") {
    spec.preamble_bits = get_int32(value, path);
  } else if (field == "prbs_order") {
    spec.prbs_order = prbs_order_from_int(get_int32(value, path), path);
  } else if (field == "payload_bits") {
    spec.payload_bits = get_uint(value, path);
  } else if (field == "chunk_bits") {
    spec.chunk_bits = get_uint(value, path);
  } else if (field == "seed") {
    spec.seed = get_uint(value, path);
  } else if (field == "streaming") {
    // Retired field, kept readable so schema-v3 files still load.
    if (!get_bool(value, path)) {
      fail(path,
           "the batch execution path was removed; streaming is the only "
           "execution path");
    }
  } else if (field == "stream_block_samples") {
    spec.stream_block_samples = get_uint(value, path);
  } else if (field == "lane_batch") {
    spec.lane_batch = get_int32(value, path);
  } else if (field == "dsp") {
    spec.dsp = get_bool(value, path);
  } else if (field == "analysis") {
    spec.analysis = get_string(value, path);
  } else if (field == "stat_target_ber") {
    spec.stat_target_ber = get_double(value, path);
  } else if (field == "capture_waveforms") {
    spec.capture_waveforms = get_bool(value, path);
  } else {
    fail_unknown_field(path, field, "LinkSpec", link_field_names());
  }
}

LinkSpec link_spec_from_json(const Json& json, const std::string& path) {
  if (!json.is_object()) fail(path, "expected link spec object");
  LinkSpec spec;
  for (const auto& [key, value] : json.as_object()) {
    apply_link_field(spec, key, value, path + "." + key);
  }
  return spec;
}

Json to_json(const ChannelSpec& spec) {
  Json j = Json::object();
  j.set("kind", spec.kind);
  const bool builtin = spec.kind == "flat" || spec.kind == "rc" ||
                       spec.kind == "lossy_line" || spec.kind == "fir" ||
                       spec.kind == "composite";
  if (spec.kind == "flat" || spec.kind == "rc" || spec.kind == "lossy_line" ||
      !builtin) {
    j.set("loss_db", spec.loss_db);
  }
  if (spec.kind == "rc" || !builtin) j.set("pole_hz", spec.pole_hz);
  if (spec.kind == "lossy_line" || !builtin) {
    j.set("skin_loss_db_at_1ghz", spec.skin_loss_db_at_1ghz);
    j.set("dielectric_loss_db_at_1ghz", spec.dielectric_loss_db_at_1ghz);
  }
  if (spec.kind == "fir" || (!builtin && !spec.fir_taps.empty())) {
    Json taps = Json::array();
    for (const double t : spec.fir_taps) taps.push_back(t);
    j.set("fir_taps", std::move(taps));
    j.set("fir_samples_per_tap", spec.fir_samples_per_tap);
  }
  if (spec.kind == "composite" || (!builtin && !spec.stages.empty())) {
    Json stages = Json::array();
    for (const auto& stage : spec.stages) stages.push_back(to_json(stage));
    j.set("stages", std::move(stages));
  }
  return j;
}

Json to_json(const LinkSpec& spec) {
  Json j = Json::object();
  j.set("name", spec.name);
  j.set("bit_rate_hz", spec.bit_rate_hz);
  j.set("samples_per_ui", spec.samples_per_ui);
  j.set("modulation", spec.modulation);
  j.set("channel", to_json(spec.channel));
  j.set("noise_rms_v", spec.noise_rms_v);
  j.set("noise_reference_bandwidth_hz", spec.noise_reference_bandwidth_hz);
  j.set("random_jitter_s", spec.random_jitter_s);
  j.set("sinusoidal_jitter_s", spec.sinusoidal_jitter_s);
  j.set("sj_freq_ratio", spec.sj_freq_ratio);
  j.set("ppm_offset", spec.ppm_offset);
  j.set("rx_phase_offset_ui", spec.rx_phase_offset_ui);
  j.set("cdr_oversampling", spec.cdr_oversampling);
  j.set("cdr_window_uis", spec.cdr_window_uis);
  j.set("cdr_glitch_filter_radius", spec.cdr_glitch_filter_radius);
  j.set("cdr_jitter_hysteresis", spec.cdr_jitter_hysteresis);
  j.set("tx_ffe_deemphasis", spec.tx_ffe_deemphasis);
  j.set("rx_ctle_boost_db", spec.rx_ctle_boost_db);
  j.set("rx_ctle_pole_hz", spec.rx_ctle_pole_hz);
  Json dfe = Json::array();
  for (const double t : spec.dfe_taps) dfe.push_back(t);
  j.set("dfe_taps", std::move(dfe));
  j.set("eq", spec.eq);
  j.set("training_uis", spec.training_uis);
  j.set("preamble_bits", spec.preamble_bits);
  j.set("prbs_order", static_cast<int>(spec.prbs_order));
  j.set("payload_bits", spec.payload_bits);
  j.set("chunk_bits", spec.chunk_bits);
  j.set("seed", spec.seed);
  // Constant: schema v3 still carries the retired execution toggle.
  j.set("streaming", true);
  j.set("stream_block_samples", spec.stream_block_samples);
  j.set("lane_batch", spec.lane_batch);
  j.set("dsp", spec.dsp);
  j.set("analysis", spec.analysis);
  j.set("stat_target_ber", spec.stat_target_ber);
  j.set("capture_waveforms", spec.capture_waveforms);
  return j;
}

Json to_json(const stat::StatReport& report) {
  Json j = Json::object();
  j.set("target_ber", report.target_ber);
  j.set("sigma_v", report.sigma_v);
  j.set("threshold_v", report.threshold_v);
  j.set("main_cursor_v", report.main_cursor_v);
  j.set("isi_cursors", report.isi_cursors);
  Json bathtub = Json::array();
  for (const double v : report.bathtub_ber) bathtub.push_back(v);
  j.set("bathtub_ber", std::move(bathtub));
  Json high = Json::array();
  for (const double v : report.contour_high_v) high.push_back(v);
  j.set("contour_high_v", std::move(high));
  Json low = Json::array();
  for (const double v : report.contour_low_v) low.push_back(v);
  j.set("contour_low_v", std::move(low));
  j.set("best_phase_ui", report.best_phase_ui);
  j.set("min_ber", report.min_ber);
  j.set("timing_margin_ui", report.timing_margin_ui);
  j.set("eye_height_v", report.eye_height_v);
  j.set("voltage_margin_v", report.voltage_margin_v);
  // PAM4 per-eye margins (schema version 2): serialized only when
  // non-empty, so NRZ reports keep their version-1 bytes.
  if (!report.pam4_eye_height_v.empty()) {
    const auto number_array = [](const std::vector<double>& values) {
      Json arr = Json::array();
      for (const double v : values) arr.push_back(v);
      return arr;
    };
    j.set("pam4_eye_height_v", number_array(report.pam4_eye_height_v));
    j.set("pam4_voltage_margin_v",
          number_array(report.pam4_voltage_margin_v));
    j.set("pam4_eye_ber", number_array(report.pam4_eye_ber));
  }
  // DFE model parameters (schema version 3): serialized only when the
  // analysis cancelled post-cursors, so DFE-free reports keep their bytes.
  if (!report.dfe_taps_applied.empty()) {
    Json taps = Json::array();
    for (const double t : report.dfe_taps_applied) taps.push_back(t);
    j.set("dfe_taps_applied", std::move(taps));
    j.set("dfe_burst_factor", report.dfe_burst_factor);
  }
  j.set("cross_checked", report.cross_checked);
  j.set("mc_ber", report.mc_ber);
  j.set("band_low", report.band_low);
  j.set("band_high", report.band_high);
  j.set("consistent", report.consistent);
  return j;
}

stat::StatReport stat_report_from_json(const Json& json,
                                       const std::string& path) {
  if (!json.is_object()) fail(path, "expected stat report object");
  stat::StatReport report;
  for (const auto& [key, value] : json.as_object()) {
    const std::string p = path + "." + key;
    if (key == "target_ber") {
      report.target_ber = get_double(value, p);
    } else if (key == "sigma_v") {
      report.sigma_v = get_double(value, p);
    } else if (key == "threshold_v") {
      report.threshold_v = get_double(value, p);
    } else if (key == "main_cursor_v") {
      report.main_cursor_v = get_double(value, p);
    } else if (key == "isi_cursors") {
      report.isi_cursors = get_int32(value, p);
    } else if (key == "bathtub_ber") {
      report.bathtub_ber = get_double_array(value, p);
    } else if (key == "contour_high_v") {
      report.contour_high_v = get_double_array(value, p);
    } else if (key == "contour_low_v") {
      report.contour_low_v = get_double_array(value, p);
    } else if (key == "best_phase_ui") {
      report.best_phase_ui = get_double(value, p);
    } else if (key == "min_ber") {
      report.min_ber = get_double(value, p);
    } else if (key == "timing_margin_ui") {
      report.timing_margin_ui = get_double(value, p);
    } else if (key == "eye_height_v") {
      report.eye_height_v = get_double(value, p);
    } else if (key == "voltage_margin_v") {
      report.voltage_margin_v = get_double(value, p);
    } else if (key == "pam4_eye_height_v") {
      report.pam4_eye_height_v = get_double_array(value, p);
    } else if (key == "pam4_voltage_margin_v") {
      report.pam4_voltage_margin_v = get_double_array(value, p);
    } else if (key == "pam4_eye_ber") {
      report.pam4_eye_ber = get_double_array(value, p);
    } else if (key == "dfe_taps_applied") {
      report.dfe_taps_applied = get_double_array(value, p);
    } else if (key == "dfe_burst_factor") {
      report.dfe_burst_factor = get_double(value, p);
    } else if (key == "cross_checked") {
      report.cross_checked = get_bool(value, p);
    } else if (key == "mc_ber") {
      report.mc_ber = get_double(value, p);
    } else if (key == "band_low") {
      report.band_low = get_double(value, p);
    } else if (key == "band_high") {
      report.band_high = get_double(value, p);
    } else if (key == "consistent") {
      report.consistent = get_bool(value, p);
    } else {
      fail(p, "unknown StatReport field '" + key + "'");
    }
  }
  return report;
}

Json to_json(const RunReport& report) {
  Json j = Json::object();
  j.set("schema_version", report.schema_version);
  j.set("spec", to_json(report.spec));
  j.set("aligned", report.aligned);
  j.set("bits", report.bits);
  j.set("errors", report.errors);
  j.set("ber", report.ber);
  j.set("ber_upper_bound", report.ber_upper_bound);
  j.set("confidence_level", report.confidence_level);
  j.set("cdr_decision_phase", report.cdr_decision_phase);
  j.set("cdr_phase_updates", report.cdr_phase_updates);
  j.set("rx_swing_pp", report.rx_swing_pp);
  j.set("decision_threshold", report.decision_threshold);
  Json eye = Json::object();
  eye.set("eye_height", report.eye.eye_height);
  eye.set("eye_width_ui", report.eye.eye_width_ui);
  eye.set("low_rail", report.eye.low_rail);
  eye.set("high_rail", report.eye.high_rail);
  eye.set("best_phase_ui", report.eye.best_phase_ui);
  j.set("eye", std::move(eye));
  if (report.stat) j.set("stat", to_json(*report.stat));
  // Link-training outcome: serialized only for trained runs, so fixed-EQ
  // reports keep their pre-training bytes.
  if (report.training) {
    const core::TrainingResult& t = *report.training;
    Json tj = Json::object();
    Json taps = Json::array();
    for (const double tap : t.dfe_taps) taps.push_back(tap);
    tj.set("dfe_taps", std::move(taps));
    tj.set("tx_ffe_deemphasis", t.tx_ffe_deemphasis);
    tj.set("rx_ctle_boost_db", t.rx_ctle_boost_db);
    tj.set("amplitude", t.amplitude);
    tj.set("training_uis", t.training_uis);
    tj.set("passes", t.passes);
    j.set("training", std::move(tj));
  }
  return j;
}

RunReport run_report_from_json(const Json& json, const std::string& path) {
  if (!json.is_object()) fail(path, "expected run report object");
  RunReport report;
  report.schema_version = 1;  // absent means version 1
  for (const auto& [key, value] : json.as_object()) {
    const std::string p = path + "." + key;
    if (key == "schema_version") {
      report.schema_version = get_int32(value, p);
    } else if (key == "spec") {
      report.spec = link_spec_from_json(value, p);
    } else if (key == "aligned") {
      report.aligned = get_bool(value, p);
    } else if (key == "bits") {
      report.bits = get_uint(value, p);
    } else if (key == "errors") {
      report.errors = get_uint(value, p);
    } else if (key == "ber") {
      report.ber = get_double(value, p);
    } else if (key == "ber_upper_bound") {
      report.ber_upper_bound = get_double(value, p);
    } else if (key == "confidence_level") {
      report.confidence_level = get_double(value, p);
    } else if (key == "cdr_decision_phase") {
      report.cdr_decision_phase = get_int32(value, p);
    } else if (key == "cdr_phase_updates") {
      report.cdr_phase_updates = get_uint(value, p);
    } else if (key == "rx_swing_pp") {
      report.rx_swing_pp = get_double(value, p);
    } else if (key == "decision_threshold") {
      report.decision_threshold = get_double(value, p);
    } else if (key == "eye") {
      if (!value.is_object()) fail(p, "expected eye metrics object");
      for (const auto& [eye_key, eye_value] : value.as_object()) {
        const std::string ep = p + "." + eye_key;
        if (eye_key == "eye_height") {
          report.eye.eye_height = get_double(eye_value, ep);
        } else if (eye_key == "eye_width_ui") {
          report.eye.eye_width_ui = get_double(eye_value, ep);
        } else if (eye_key == "low_rail") {
          report.eye.low_rail = get_double(eye_value, ep);
        } else if (eye_key == "high_rail") {
          report.eye.high_rail = get_double(eye_value, ep);
        } else if (eye_key == "best_phase_ui") {
          report.eye.best_phase_ui = get_double(eye_value, ep);
        } else {
          fail(ep, "unknown eye metric field '" + eye_key + "'");
        }
      }
    } else if (key == "stat") {
      report.stat = stat_report_from_json(value, p);
    } else if (key == "training") {
      if (!value.is_object()) fail(p, "expected training object");
      core::TrainingResult t;
      for (const auto& [tkey, tvalue] : value.as_object()) {
        const std::string tp = p + "." + tkey;
        if (tkey == "dfe_taps") {
          t.dfe_taps = get_double_array(tvalue, tp);
        } else if (tkey == "tx_ffe_deemphasis") {
          t.tx_ffe_deemphasis = get_double(tvalue, tp);
        } else if (tkey == "rx_ctle_boost_db") {
          t.rx_ctle_boost_db = get_double(tvalue, tp);
        } else if (tkey == "amplitude") {
          t.amplitude = get_double(tvalue, tp);
        } else if (tkey == "training_uis") {
          t.training_uis = get_int32(tvalue, tp);
        } else if (tkey == "passes") {
          t.passes = get_int32(tvalue, tp);
        } else {
          fail(tp, "unknown training field '" + tkey + "'");
        }
      }
      report.training = std::move(t);
    } else {
      fail(p, "unknown RunReport field '" + key + "'");
    }
  }
  return report;
}

Json to_json(const opt::OptimizeReport& report) {
  Json j = Json::object();
  j.set("schema_version", report.schema_version);
  j.set("spec", to_json(report.spec));
  j.set("target_ber", report.target_ber);
  j.set("baseline_min_ber", report.baseline_min_ber);
  j.set("baseline_met", report.baseline_met);
  Json taps = Json::array();
  for (const double t : report.dfe_taps) taps.push_back(t);
  j.set("dfe_taps", std::move(taps));
  j.set("tx_ffe_deemphasis", report.tx_ffe_deemphasis);
  j.set("rx_ctle_boost_db", report.rx_ctle_boost_db);
  j.set("winner_min_ber", report.winner_min_ber);
  j.set("winner_voltage_margin_v", report.winner_voltage_margin_v);
  j.set("met", report.met);
  j.set("evaluations", report.evaluations);
  j.set("passes", report.passes);
  j.set("cross_checked", report.cross_checked);
  j.set("mc_bits", report.mc_bits);
  j.set("mc_errors", report.mc_errors);
  j.set("mc_ber", report.mc_ber);
  j.set("mc_consistent", report.mc_consistent);
  return j;
}

opt::OptimizeReport optimize_report_from_json(const Json& json,
                                              const std::string& path) {
  if (!json.is_object()) fail(path, "expected optimize report object");
  opt::OptimizeReport report;
  for (const auto& [key, value] : json.as_object()) {
    const std::string p = path + "." + key;
    if (key == "schema_version") {
      report.schema_version = get_int32(value, p);
    } else if (key == "spec") {
      report.spec = link_spec_from_json(value, p);
    } else if (key == "target_ber") {
      report.target_ber = get_double(value, p);
    } else if (key == "baseline_min_ber") {
      report.baseline_min_ber = get_double(value, p);
    } else if (key == "baseline_met") {
      report.baseline_met = get_bool(value, p);
    } else if (key == "dfe_taps") {
      report.dfe_taps = get_double_array(value, p);
    } else if (key == "tx_ffe_deemphasis") {
      report.tx_ffe_deemphasis = get_double(value, p);
    } else if (key == "rx_ctle_boost_db") {
      report.rx_ctle_boost_db = get_double(value, p);
    } else if (key == "winner_min_ber") {
      report.winner_min_ber = get_double(value, p);
    } else if (key == "winner_voltage_margin_v") {
      report.winner_voltage_margin_v = get_double(value, p);
    } else if (key == "met") {
      report.met = get_bool(value, p);
    } else if (key == "evaluations") {
      report.evaluations = get_int32(value, p);
    } else if (key == "passes") {
      report.passes = get_int32(value, p);
    } else if (key == "cross_checked") {
      report.cross_checked = get_bool(value, p);
    } else if (key == "mc_bits") {
      report.mc_bits = get_uint(value, p);
    } else if (key == "mc_errors") {
      report.mc_errors = get_uint(value, p);
    } else if (key == "mc_ber") {
      report.mc_ber = get_double(value, p);
    } else if (key == "mc_consistent") {
      report.mc_consistent = get_bool(value, p);
    } else {
      fail(p, "unknown OptimizeReport field '" + key + "'");
    }
  }
  return report;
}

std::string check_channel_kinds(const ChannelSpec& spec,
                                const std::string& path) {
  const ChannelFactory& factory = ChannelFactory::instance();
  if (!factory.knows(spec.kind)) {
    return path + ".kind: " + factory.unknown_kind_message(spec.kind);
  }
  if (spec.kind == "composite") {
    for (std::size_t i = 0; i < spec.stages.size(); ++i) {
      auto err = check_channel_kinds(
          spec.stages[i], path + ".stages[" + std::to_string(i) + "]");
      if (!err.empty()) return err;
    }
  }
  return {};
}

std::uint64_t spec_content_hash(const LinkSpec& spec) {
  // Seed is already a serialized field, but mix it in explicitly as well
  // so the hash survives any future decision to hoist seeds out of the
  // canonical serialization.
  std::uint64_t h = util::fnv1a64(to_json(spec).dump());
  h ^= spec.seed + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

std::string validate_spec_with_paths(const LinkSpec& spec,
                                     const std::string& path) {
  if (const LinkSpec::Issue issue = spec.first_issue(); !issue.ok()) {
    return path + "." + issue.field + ": " + issue.message;
  }
  return check_channel_kinds(spec.channel, path + ".channel");
}

}  // namespace serdes::api
