#include "api/bus_spec.h"

#include <array>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/spec_json.h"
#include "util/json_fields.h"

namespace serdes::api {

using util::Json;

bool BusSpec::has_coupling() const {
  const auto any_nonzero = [this](const std::vector<std::vector<double>>& m) {
    for (std::size_t v = 0; v < m.size(); ++v) {
      for (std::size_t a = 0; a < m[v].size(); ++a) {
        if (v != a && m[v][a] != 0.0) return true;
      }
    }
    return false;
  };
  return any_nonzero(coupling) || any_nonzero(next_coupling);
}

namespace {

std::string check_matrix_shape(const std::vector<std::vector<double>>& m,
                               const std::string& key, int lanes) {
  if (m.empty()) return {};
  const auto n = static_cast<std::size_t>(lanes);
  if (m.size() != n) {
    return "$." + key + ": must be a " + std::to_string(lanes) + "x" +
           std::to_string(lanes) + " matrix (one row per lane)";
  }
  for (std::size_t v = 0; v < m.size(); ++v) {
    if (m[v].size() != n) {
      return "$." + key + "[" + std::to_string(v) + "]: must have " +
             std::to_string(lanes) + " entries (one per aggressor lane)";
    }
  }
  return {};
}

}  // namespace

std::string BusSpec::validate() const {
  if (lanes < 1 || lanes > 64) {
    return "$.lanes: must be between 1 and 64";
  }
  if (!overrides.empty() &&
      overrides.size() != static_cast<std::size_t>(lanes)) {
    return "$.overrides: must have exactly one entry per lane (" +
           std::to_string(lanes) + ")";
  }
  if (auto err = check_matrix_shape(coupling, "coupling", lanes);
      !err.empty()) {
    return err;
  }
  if (auto err = check_matrix_shape(next_coupling, "next_coupling", lanes);
      !err.empty()) {
    return err;
  }
  std::vector<LinkSpec> lane_specs;
  try {
    lane_specs = expand();
  } catch (const util::JsonError& e) {
    return e.what();
  }
  for (std::size_t i = 0; i < lane_specs.size(); ++i) {
    if (auto err = lane_specs[i].validate(); !err.empty()) {
      return "lane " + std::to_string(i) + ": " + err;
    }
  }
  return {};
}

void BusSpec::validate_or_throw() const {
  if (auto err = validate(); !err.empty()) {
    throw std::invalid_argument("BusSpec '" + name + "': " + err);
  }
}

std::vector<LinkSpec> BusSpec::expand() const {
  std::vector<LinkSpec> out;
  out.reserve(static_cast<std::size_t>(lanes));
  for (int i = 0; i < lanes; ++i) {
    LinkSpec lane = base;
    if (!overrides.empty()) {
      const Json& o = overrides[static_cast<std::size_t>(i)];
      const std::string path = "$.overrides[" + std::to_string(i) + "]";
      if (!o.is_object()) util::fail_at(path, "expected object");
      for (const auto& [key, value] : o.as_object()) {
        if (key == "name") {
          util::fail_at(path + ".name",
                        "lane names derive from the bus name and may not be "
                        "overridden");
        }
        apply_link_field(lane, key, value, path + "." + key);
      }
    }
    lane.name = name + "/lane" + std::to_string(i);
    out.push_back(std::move(lane));
  }
  return out;
}

// ---- JSON -------------------------------------------------------------------

namespace {

using util::field;
using util::JsonField;

/// Optional sections are written only when non-empty.
template <auto Member, class T>
bool non_empty(const T& obj) {
  return !(obj.*Member).empty();
}

constexpr auto kBusFields = std::to_array<JsonField<BusSpec>>({
    field<&BusSpec::name>("name"),
    {"lanes", [](const BusSpec& s) { return Json(s.lanes); },
     [](BusSpec& s, const Json& j, const std::string& path) {
       const std::int64_t v = util::get_int(j, path);
       if (v < 1 || v > 64) util::fail_at(path, "must be between 1 and 64");
       s.lanes = static_cast<int>(v);
     }},
    {"base", [](const BusSpec& s) { return to_json(s.base); },
     [](BusSpec& s, const Json& j, const std::string& path) {
       s.base = link_spec_from_json(j, path);
     }},
    field<&BusSpec::overrides>("overrides", non_empty<&BusSpec::overrides>),
    field<&BusSpec::coupling>("coupling", non_empty<&BusSpec::coupling>),
    field<&BusSpec::next_coupling>("next_coupling",
                                   non_empty<&BusSpec::next_coupling>),
});

constexpr auto kBusReportFields = std::to_array<JsonField<BusReport>>({
    field<&BusReport::schema_version>("schema_version"),
    field<&BusReport::name>("name"),
    {"lanes",
     [](const BusReport& r) {
       return util::write_array(r.lanes,
                                [](const RunReport& l) { return to_json(l); });
     },
     [](BusReport& r, const Json& j, const std::string& path) {
       r.lanes = util::read_array(j, path, run_report_from_json);
     }},
    field<&BusReport::coupling>("coupling", non_empty<&BusReport::coupling>),
    field<&BusReport::next_coupling>("next_coupling",
                                     non_empty<&BusReport::next_coupling>),
});

}  // namespace

Json to_json(const BusSpec& spec) {
  return util::write_fields(spec, kBusFields);
}

BusSpec bus_spec_from_json(const Json& json, const std::string& path) {
  BusSpec spec;
  util::read_fields(spec, kBusFields, json, path, "BusSpec");
  if (json.find("lanes") == nullptr) {
    util::fail_at(path, "missing required field 'lanes'");
  }
  return spec;
}

Json to_json(const BusReport& report) {
  return util::write_fields(report, kBusReportFields);
}

BusReport bus_report_from_json(const Json& json, const std::string& path) {
  BusReport report;
  report.schema_version = 1;  // absent means version 1
  util::read_fields(report, kBusReportFields, json, path, "BusReport");
  return report;
}

bool looks_like_bus_spec(const Json& json) {
  return json.is_object() &&
         (json.find("lanes") != nullptr || json.find("base") != nullptr);
}

}  // namespace serdes::api
