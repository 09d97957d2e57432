#include "sweep/sweep_spec.h"

#include <array>
#include <stdexcept>
#include <utility>

#include "api/simulator.h"
#include "api/spec_json.h"
#include "util/json_fields.h"

namespace serdes::sweep {

using util::Json;
using util::JsonError;

std::uint64_t derive_scenario_seed(std::uint64_t base_seed,
                                   std::uint64_t index) {
  return api::Simulator::derive_lane_seed(base_seed,
                                          static_cast<std::size_t>(index));
}

std::uint64_t SweepSpec::scenario_count() const {
  std::uint64_t count = 1;
  for (const auto& axis : axes) {
    const std::uint64_t n = axis.values.size();
    if (n == 0) return 0;
    // Saturate instead of overflowing; validate() rejects huge grids.
    if (count > UINT64_MAX / n) return UINT64_MAX;
    count *= n;
  }
  return count;
}

namespace {

/// Compact scenario-name fragment for one axis value: scalars print
/// their JSON form, structured values print their index in the axis.
std::string value_label(const SweepAxis& axis, std::size_t value_index) {
  const Json& v = axis.values[value_index];
  if (v.is_array() || v.is_object()) {
    return axis.field + "#" + std::to_string(value_index);
  }
  std::string text = v.dump();
  // Strip string quotes for readability ("kind=rc", not "kind=\"rc\"").
  if (v.is_string()) text = v.as_string();
  return axis.field + "=" + text;
}

}  // namespace

std::size_t axis_value_index(const SweepSpec& sweep, std::size_t axis,
                             std::uint64_t index) {
  if (axis >= sweep.axes.size()) {
    throw std::out_of_range("sweep axis " + std::to_string(axis) +
                            " outside " + std::to_string(sweep.axes.size()) +
                            " axes");
  }
  const std::uint64_t total = sweep.scenario_count();
  if (index >= total) {
    throw std::out_of_range("sweep scenario index " + std::to_string(index) +
                            " outside grid of " + std::to_string(total));
  }
  // Row-major decode: the first axis varies slowest.
  std::uint64_t stride = total;
  for (std::size_t a = 0; a <= axis; ++a) {
    stride /= sweep.axes[a].values.size();
  }
  return static_cast<std::size_t>((index / stride) %
                                  sweep.axes[axis].values.size());
}

api::LinkSpec SweepSpec::scenario(std::uint64_t index) const {
  const std::uint64_t total = scenario_count();
  if (index >= total) {
    throw std::out_of_range("sweep scenario index " + std::to_string(index) +
                            " outside grid of " + std::to_string(total));
  }
  api::LinkSpec spec = base;
  std::string label = base.name;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    const std::size_t value_index = axis_value_index(*this, a, index);
    api::apply_link_field(spec, axes[a].field, axes[a].values[value_index],
                          "$.axes[" + std::to_string(a) + "].values[" +
                              std::to_string(value_index) + "]");
    // += in two steps: GCC 12's -Wrestrict misfires on char* plus a
    // temporary string at -O3 (PR105329).
    label += '/';
    label += value_label(axes[a], value_index);
  }
  spec.name = std::move(label);
  if (derive_seeds) spec.seed = derive_scenario_seed(spec.seed, index);
  return spec;
}

namespace {

/// Does a validation finding at `issue_field` concern the member an axis
/// over `axis_field` writes?  True when one path is the other or a
/// member beneath it ("channel" covers "channel.stages[0].fir_taps").
bool issue_concerns_axis(const std::string& issue_field,
                         const std::string& axis_field) {
  const auto prefixed = [](const std::string& outer,
                           const std::string& inner) {
    if (inner.size() <= outer.size() || inner.compare(0, outer.size(), outer)) {
      return false;
    }
    const char next = inner[outer.size()];
    return next == '.' || next == '[';
  };
  return issue_field == axis_field || prefixed(axis_field, issue_field) ||
         prefixed(issue_field, axis_field);
}

}  // namespace

std::string SweepSpec::validate() const {
  for (std::size_t a = 0; a < axes.size(); ++a) {
    const std::string axis_path = "$.axes[" + std::to_string(a) + "]";
    if (axes[a].field.empty()) return axis_path + ".field: must be non-empty";
    if (axes[a].values.empty()) {
      return axis_path + ".values: axis needs at least one value";
    }
    for (std::size_t b = 0; b < a; ++b) {
      if (axes[b].field == axes[a].field) {
        return axis_path + ".field: duplicate axis over '" + axes[a].field +
               "'";
      }
    }
    // Probe every value against the base spec so a bad entry is caught
    // (and blamed on its own path) before any scenario runs, without
    // expanding the whole grid.
    for (std::size_t v = 0; v < axes[a].values.size(); ++v) {
      const std::string value_path =
          axis_path + ".values[" + std::to_string(v) + "]";
      api::LinkSpec probe = base;
      try {
        api::apply_link_field(probe, axes[a].field, axes[a].values[v],
                              value_path);
      } catch (const JsonError& e) {
        return e.what();
      }
      // Blame the value only for findings about the member it wrote —
      // an unrelated base problem (or one another axis repairs) is not
      // this value's fault.
      if (const auto issue = probe.first_issue();
          !issue.ok() && issue_concerns_axis(issue.field, axes[a].field)) {
        return value_path + ": " + issue.field + ": " + issue.message;
      }
      if (issue_concerns_axis("channel", axes[a].field)) {
        if (auto err = api::check_channel_kinds(probe.channel, value_path);
            !err.empty()) {
          return err;
        }
      }
    }
  }
  const std::uint64_t total = scenario_count();
  if (total == 0) return "$.axes: sweep expands to an empty grid";
  if (total > 10'000'000) {
    return "$.axes: grid of " + std::to_string(total) +
           " scenarios exceeds the 10M limit";
  }
  // The base spec must be runnable once axis values land on it (bad axis
  // values were already blamed above, so a finding here is the base's).
  if (auto err = api::validate_spec_with_paths(scenario(0), "$.base");
      !err.empty()) {
    return err;
  }
  // Axis probes check values one at a time; cross-axis combinations can
  // still conflict.  Exhaustively validate modest grids so `validate`
  // green means the whole sweep runs; huge grids keep the spot checks.
  if (total <= 4096) {
    for (std::uint64_t i = 1; i < total; ++i) {
      const api::LinkSpec spec = scenario(i);
      if (auto err = api::validate_spec_with_paths(spec); !err.empty()) {
        return "scenario " + std::to_string(i) + " ('" + spec.name +
               "'): " + err;
      }
    }
  }
  return {};
}

namespace {

using util::field;
using util::JsonField;

constexpr auto kAxisFields = std::to_array<JsonField<SweepAxis>>({
    field<&SweepAxis::field>("field"),
    field<&SweepAxis::values>("values"),
});

constexpr auto kSweepFields = std::to_array<JsonField<SweepSpec>>({
    field<&SweepSpec::name>("name"),
    field<&SweepSpec::derive_seeds>("derive_seeds"),
    {"base", [](const SweepSpec& s) { return api::to_json(s.base); },
     [](SweepSpec& s, const Json& j, const std::string& path) {
       s.base = api::link_spec_from_json(j, path);
     }},
    {"axes",
     [](const SweepSpec& s) {
       return util::write_array(
           s.axes, [](const SweepAxis& axis) { return to_json(axis); });
     },
     [](SweepSpec& s, const Json& j, const std::string& path) {
       s.axes = util::read_array(j, path, [](const Json& a,
                                             const std::string& p) {
         SweepAxis axis;
         util::read_fields(axis, kAxisFields, a, p, "SweepAxis");
         return axis;
       });
     }},
});

}  // namespace

Json to_json(const SweepAxis& axis) {
  return util::write_fields(axis, kAxisFields);
}

Json SweepSpec::to_json() const {
  return util::write_fields(*this, kSweepFields);
}

SweepSpec SweepSpec::from_json(const Json& json, const std::string& path) {
  SweepSpec sweep;
  util::read_fields(sweep, kSweepFields, json, path, "SweepSpec");
  return sweep;
}

}  // namespace serdes::sweep
