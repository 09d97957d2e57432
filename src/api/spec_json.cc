#include "api/spec_json.h"

#include <array>
#include <utility>

#include "api/channel_factory.h"
#include "util/fs.h"
#include "util/json_fields.h"

namespace serdes::api {

using util::field;
using util::Json;
using util::JsonField;

namespace {

// ---- ChannelSpec ------------------------------------------------------------

// A built-in kind writes only the keys it reads.  Any other kind (a runtime
// registration) writes all four scalars, plus the taps and stages when set.
bool custom_kind(const ChannelSpec& ch) {
  return ch.kind != "flat" && ch.kind != "rc" && ch.kind != "lossy_line" &&
         ch.kind != "fir" && ch.kind != "composite";
}
bool writes_loss(const ChannelSpec& ch) {
  return ch.kind == "flat" || ch.kind == "rc" || ch.kind == "lossy_line" ||
         custom_kind(ch);
}
bool writes_pole(const ChannelSpec& ch) {
  return ch.kind == "rc" || custom_kind(ch);
}
bool writes_line(const ChannelSpec& ch) {
  return ch.kind == "lossy_line" || custom_kind(ch);
}
bool writes_fir(const ChannelSpec& ch) {
  return ch.kind == "fir" || (custom_kind(ch) && !ch.fir_taps.empty());
}
bool writes_stages(const ChannelSpec& ch) {
  return ch.kind == "composite" || (custom_kind(ch) && !ch.stages.empty());
}

constexpr auto kChannelFields = std::to_array<JsonField<ChannelSpec>>({
    field<&ChannelSpec::kind>("kind"),
    field<&ChannelSpec::loss_db>("loss_db", writes_loss),
    field<&ChannelSpec::pole_hz>("pole_hz", writes_pole),
    field<&ChannelSpec::skin_loss_db_at_1ghz>("skin_loss_db_at_1ghz",
                                              writes_line),
    field<&ChannelSpec::dielectric_loss_db_at_1ghz>(
        "dielectric_loss_db_at_1ghz", writes_line),
    field<&ChannelSpec::fir_taps>("fir_taps", writes_fir),
    field<&ChannelSpec::fir_samples_per_tap>("fir_samples_per_tap",
                                             writes_fir),
    {"stages",
     [](const ChannelSpec& ch) {
       return util::write_array(
           ch.stages, [](const ChannelSpec& s) { return to_json(s); });
     },
     [](ChannelSpec& ch, const Json& j, const std::string& path) {
       ch.stages = util::read_array(j, path, [](const Json& s,
                                                const std::string& p) {
         return channel_spec_from_json(s, p);
       });
     },
     writes_stages},
});

// ---- LinkSpec ---------------------------------------------------------------

util::PrbsOrder prbs_order_from_int(int order, const std::string& path) {
  switch (order) {
    case 7: return util::PrbsOrder::kPrbs7;
    case 9: return util::PrbsOrder::kPrbs9;
    case 15: return util::PrbsOrder::kPrbs15;
    case 23: return util::PrbsOrder::kPrbs23;
    case 31: return util::PrbsOrder::kPrbs31;
    default:
      util::fail_at(path, "prbs_order must be one of 7, 9, 15, 23, 31");
  }
}

constexpr auto kLinkFields = std::to_array<JsonField<LinkSpec>>({
    field<&LinkSpec::name>("name"),
    field<&LinkSpec::bit_rate_hz>("bit_rate_hz"),
    field<&LinkSpec::samples_per_ui>("samples_per_ui"),
    field<&LinkSpec::modulation>("modulation"),
    {"channel", [](const LinkSpec& s) { return to_json(s.channel); },
     [](LinkSpec& s, const Json& j, const std::string& path) {
       s.channel = channel_spec_from_json(j, path);
     }},
    field<&LinkSpec::noise_rms_v>("noise_rms_v"),
    field<&LinkSpec::noise_reference_bandwidth_hz>(
        "noise_reference_bandwidth_hz"),
    field<&LinkSpec::random_jitter_s>("random_jitter_s"),
    field<&LinkSpec::sinusoidal_jitter_s>("sinusoidal_jitter_s"),
    field<&LinkSpec::sj_freq_ratio>("sj_freq_ratio"),
    field<&LinkSpec::ppm_offset>("ppm_offset"),
    field<&LinkSpec::rx_phase_offset_ui>("rx_phase_offset_ui"),
    field<&LinkSpec::cdr_oversampling>("cdr_oversampling"),
    field<&LinkSpec::cdr_window_uis>("cdr_window_uis"),
    field<&LinkSpec::cdr_glitch_filter_radius>("cdr_glitch_filter_radius"),
    field<&LinkSpec::cdr_jitter_hysteresis>("cdr_jitter_hysteresis"),
    field<&LinkSpec::tx_ffe_deemphasis>("tx_ffe_deemphasis"),
    field<&LinkSpec::rx_ctle_boost_db>("rx_ctle_boost_db"),
    field<&LinkSpec::rx_ctle_pole_hz>("rx_ctle_pole_hz"),
    field<&LinkSpec::dfe_taps>("dfe_taps"),
    field<&LinkSpec::eq>("eq"),
    field<&LinkSpec::training_uis>("training_uis"),
    field<&LinkSpec::preamble_bits>("preamble_bits"),
    {"prbs_order",
     [](const LinkSpec& s) { return Json(static_cast<int>(s.prbs_order)); },
     [](LinkSpec& s, const Json& j, const std::string& path) {
       s.prbs_order =
           prbs_order_from_int(util::JsonCodec<int>::read(j, path), path);
     }},
    field<&LinkSpec::payload_bits>("payload_bits"),
    field<&LinkSpec::chunk_bits>("chunk_bits"),
    field<&LinkSpec::seed>("seed"),
    // Retired execution toggle: schema v3 still writes it as a constant,
    // and reads it so v3 files still load.
    {"streaming", [](const LinkSpec&) { return Json(true); },
     [](LinkSpec&, const Json& j, const std::string& path) {
       if (!util::get_bool(j, path)) {
         util::fail_at(path,
                       "the batch execution path was removed; streaming is "
                       "the only execution path");
       }
     }},
    field<&LinkSpec::stream_block_samples>("stream_block_samples"),
    field<&LinkSpec::lane_batch>("lane_batch"),
    field<&LinkSpec::dsp>("dsp"),
    field<&LinkSpec::analysis>("analysis"),
    field<&LinkSpec::stat_target_ber>("stat_target_ber"),
    field<&LinkSpec::capture_waveforms>("capture_waveforms"),
});

// ---- Reports ----------------------------------------------------------------

// PAM4 per-eye margins (schema version 2) and the DFE model (version 3)
// are written only when present, so NRZ and DFE-free reports keep their
// earlier bytes.
bool has_pam4(const stat::StatReport& r) {
  return !r.pam4_eye_height_v.empty();
}
bool has_dfe(const stat::StatReport& r) { return !r.dfe_taps_applied.empty(); }

constexpr auto kStatFields = std::to_array<JsonField<stat::StatReport>>({
    field<&stat::StatReport::target_ber>("target_ber"),
    field<&stat::StatReport::sigma_v>("sigma_v"),
    field<&stat::StatReport::threshold_v>("threshold_v"),
    field<&stat::StatReport::main_cursor_v>("main_cursor_v"),
    field<&stat::StatReport::isi_cursors>("isi_cursors"),
    field<&stat::StatReport::bathtub_ber>("bathtub_ber"),
    field<&stat::StatReport::contour_high_v>("contour_high_v"),
    field<&stat::StatReport::contour_low_v>("contour_low_v"),
    field<&stat::StatReport::best_phase_ui>("best_phase_ui"),
    field<&stat::StatReport::min_ber>("min_ber"),
    field<&stat::StatReport::timing_margin_ui>("timing_margin_ui"),
    field<&stat::StatReport::eye_height_v>("eye_height_v"),
    field<&stat::StatReport::voltage_margin_v>("voltage_margin_v"),
    field<&stat::StatReport::pam4_eye_height_v>("pam4_eye_height_v",
                                                has_pam4),
    field<&stat::StatReport::pam4_voltage_margin_v>("pam4_voltage_margin_v",
                                                    has_pam4),
    field<&stat::StatReport::pam4_eye_ber>("pam4_eye_ber", has_pam4),
    field<&stat::StatReport::dfe_taps_applied>("dfe_taps_applied", has_dfe),
    field<&stat::StatReport::dfe_burst_factor>("dfe_burst_factor", has_dfe),
    field<&stat::StatReport::cross_checked>("cross_checked"),
    field<&stat::StatReport::mc_ber>("mc_ber"),
    field<&stat::StatReport::band_low>("band_low"),
    field<&stat::StatReport::band_high>("band_high"),
    field<&stat::StatReport::consistent>("consistent"),
});

constexpr auto kEyeFields = std::to_array<JsonField<core::EyeMetrics>>({
    field<&core::EyeMetrics::eye_height>("eye_height"),
    field<&core::EyeMetrics::eye_width_ui>("eye_width_ui"),
    field<&core::EyeMetrics::low_rail>("low_rail"),
    field<&core::EyeMetrics::high_rail>("high_rail"),
    field<&core::EyeMetrics::best_phase_ui>("best_phase_ui"),
});

constexpr auto kTrainingFields =
    std::to_array<JsonField<core::TrainingResult>>({
        field<&core::TrainingResult::dfe_taps>("dfe_taps"),
        field<&core::TrainingResult::tx_ffe_deemphasis>("tx_ffe_deemphasis"),
        field<&core::TrainingResult::rx_ctle_boost_db>("rx_ctle_boost_db"),
        field<&core::TrainingResult::amplitude>("amplitude"),
        field<&core::TrainingResult::training_uis>("training_uis"),
        field<&core::TrainingResult::passes>("passes"),
    });

constexpr auto kRunFields = std::to_array<JsonField<RunReport>>({
    field<&RunReport::schema_version>("schema_version"),
    {"spec", [](const RunReport& r) { return to_json(r.spec); },
     [](RunReport& r, const Json& j, const std::string& path) {
       r.spec = link_spec_from_json(j, path);
     }},
    field<&RunReport::aligned>("aligned"),
    field<&RunReport::bits>("bits"),
    field<&RunReport::errors>("errors"),
    field<&RunReport::ber>("ber"),
    field<&RunReport::ber_upper_bound>("ber_upper_bound"),
    field<&RunReport::confidence_level>("confidence_level"),
    field<&RunReport::cdr_decision_phase>("cdr_decision_phase"),
    field<&RunReport::cdr_phase_updates>("cdr_phase_updates"),
    field<&RunReport::rx_swing_pp>("rx_swing_pp"),
    field<&RunReport::decision_threshold>("decision_threshold"),
    {"eye",
     [](const RunReport& r) { return util::write_fields(r.eye, kEyeFields); },
     [](RunReport& r, const Json& j, const std::string& path) {
       util::read_fields(r.eye, kEyeFields, j, path, "EyeMetrics");
     }},
    {"stat",
     [](const RunReport& r) { return r.stat ? to_json(*r.stat) : Json(); },
     [](RunReport& r, const Json& j, const std::string& path) {
       r.stat = stat_report_from_json(j, path);
     },
     [](const RunReport& r) { return r.stat.has_value(); }},
    // Written only for trained runs, so fixed-EQ reports keep their
    // pre-training bytes.
    {"training",
     [](const RunReport& r) {
       return r.training ? util::write_fields(*r.training, kTrainingFields)
                         : Json();
     },
     [](RunReport& r, const Json& j, const std::string& path) {
       core::TrainingResult t;
       util::read_fields(t, kTrainingFields, j, path, "TrainingResult");
       r.training = std::move(t);
     },
     [](const RunReport& r) { return r.training.has_value(); }},
});

constexpr auto kOptimizeFields = std::to_array<JsonField<opt::OptimizeReport>>({
    field<&opt::OptimizeReport::schema_version>("schema_version"),
    {"spec", [](const opt::OptimizeReport& r) { return to_json(r.spec); },
     [](opt::OptimizeReport& r, const Json& j, const std::string& path) {
       r.spec = link_spec_from_json(j, path);
     }},
    field<&opt::OptimizeReport::target_ber>("target_ber"),
    field<&opt::OptimizeReport::baseline_min_ber>("baseline_min_ber"),
    field<&opt::OptimizeReport::baseline_met>("baseline_met"),
    field<&opt::OptimizeReport::dfe_taps>("dfe_taps"),
    field<&opt::OptimizeReport::tx_ffe_deemphasis>("tx_ffe_deemphasis"),
    field<&opt::OptimizeReport::rx_ctle_boost_db>("rx_ctle_boost_db"),
    field<&opt::OptimizeReport::winner_min_ber>("winner_min_ber"),
    field<&opt::OptimizeReport::winner_voltage_margin_v>(
        "winner_voltage_margin_v"),
    field<&opt::OptimizeReport::met>("met"),
    field<&opt::OptimizeReport::evaluations>("evaluations"),
    field<&opt::OptimizeReport::passes>("passes"),
    field<&opt::OptimizeReport::cross_checked>("cross_checked"),
    field<&opt::OptimizeReport::mc_bits>("mc_bits"),
    field<&opt::OptimizeReport::mc_errors>("mc_errors"),
    field<&opt::OptimizeReport::mc_ber>("mc_ber"),
    field<&opt::OptimizeReport::mc_consistent>("mc_consistent"),
});

}  // namespace

Json to_json(const ChannelSpec& spec) {
  return util::write_fields(spec, kChannelFields);
}

ChannelSpec channel_spec_from_json(const Json& json, const std::string& path) {
  ChannelSpec ch;
  util::read_fields(ch, kChannelFields, json, path, "ChannelSpec");
  return ch;
}

Json to_json(const LinkSpec& spec) {
  return util::write_fields(spec, kLinkFields);
}

LinkSpec link_spec_from_json(const Json& json, const std::string& path) {
  LinkSpec spec;
  util::read_fields(spec, kLinkFields, json, path, "LinkSpec");
  return spec;
}

void apply_link_field(LinkSpec& spec, std::string_view field,
                      const Json& value, const std::string& path) {
  if (const auto dot = field.find('.');
      dot != std::string_view::npos && dot + 1 < field.size() &&
      field.substr(0, dot) == "channel") {
    const std::string_view member = field.substr(dot + 1);
    if (member.find('.') != std::string_view::npos) {
      util::fail_at(path, "nested channel field path '" + std::string(field) +
                              "' is not supported (set 'channel' to a full "
                              "object instead)");
    }
    util::read_field(spec.channel, kChannelFields, member, value, path,
                     "ChannelSpec");
    return;
  }
  // Any other dotted path matches no row and fails with a LinkSpec hint.
  util::read_field(spec, kLinkFields, field, value, path, "LinkSpec");
}

Json to_json(const stat::StatReport& report) {
  return util::write_fields(report, kStatFields);
}

stat::StatReport stat_report_from_json(const Json& json,
                                       const std::string& path) {
  stat::StatReport report;
  util::read_fields(report, kStatFields, json, path, "StatReport");
  return report;
}

Json to_json(const RunReport& report) {
  return util::write_fields(report, kRunFields);
}

RunReport run_report_from_json(const Json& json, const std::string& path) {
  RunReport report;
  report.schema_version = 1;  // absent means version 1
  util::read_fields(report, kRunFields, json, path, "RunReport");
  return report;
}

Json to_json(const opt::OptimizeReport& report) {
  return util::write_fields(report, kOptimizeFields);
}

opt::OptimizeReport optimize_report_from_json(const Json& json,
                                              const std::string& path) {
  opt::OptimizeReport report;
  util::read_fields(report, kOptimizeFields, json, path, "OptimizeReport");
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
