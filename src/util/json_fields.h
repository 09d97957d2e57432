// One field table per serialized type.
//
// Every JSON document the simulator reads or writes (specs, reports,
// store rows) is an object whose keys map onto the members of one struct.
// Each such struct gets one table with one row per key: the key, how to
// write it, how to read it and, for optional sections, when it is
// written.  The writer (`write_fields`), the strict reader
// (`read_fields`), single-key application (`read_field`: sweep axes and
// bus overrides) and the did-you-mean vocabulary all walk the same rows,
// so a key is spelled exactly once.
//
// `field<&T::member>("key")` builds the row of a plain member, and the
// member's type picks its codec (`JsonCodec`).  Nested objects, optional
// sections, enums and derived keys are rows with their own two functions.
// Tables are constexpr arrays (`std::to_array<JsonField<T>>({...})`), so
// they need no static initialization; api/spec_json.cc has examples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"
#include "util/strings.h"

namespace serdes::util {

/// One JSON key of `T`.  `write` renders the member, `read` parses it at
/// `path` (throwing JsonError), and `written`, when set, decides whether
/// the key is written at all.
template <class T>
struct JsonField {
  std::string_view name;
  Json (*write)(const T&);
  void (*read)(T&, const Json&, const std::string& path);
  bool (*written)(const T&) = nullptr;
};

/// Writes `items` as a JSON array, each element through `write`.
template <class V, class Write>
Json write_array(const std::vector<V>& items, Write write) {
  Json out = Json::array();
  for (const V& item : items) out.push_back(write(item));
  return out;
}

/// Reads the JSON array at `path`, each element through
/// `read(element, element_path)`.
template <class Read>
auto read_array(const Json& json, const std::string& path, Read read) {
  if (!json.is_array()) fail_at(path, "expected array");
  const Json::Array& items = json.as_array();
  std::vector<decltype(read(json, path))> out;
  out.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    out.push_back(read(items[i], path + "[" + std::to_string(i) + "]"));
  }
  return out;
}

/// How a member type crosses JSON.  Each writes through the `Json`
/// constructor of its own type (int as int64, uint64 as uint64, double as
/// a number), so the bytes match a hand-written `set` of the member.
template <class V>
struct JsonCodec;

template <>
struct JsonCodec<bool> {
  static Json write(bool v) { return Json(v); }
  static bool read(const Json& j, const std::string& path) {
    return get_bool(j, path);
  }
};

template <>
struct JsonCodec<int> {
  static Json write(int v) { return Json(v); }
  static int read(const Json& j, const std::string& path) {
    const std::int64_t v = get_int(j, path);
    if (v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max()) {
      fail_at(path, "integer out of int range");
    }
    return static_cast<int>(v);
  }
};

template <>
struct JsonCodec<std::uint64_t> {
  static Json write(std::uint64_t v) { return Json(v); }
  static std::uint64_t read(const Json& j, const std::string& path) {
    return get_uint(j, path);
  }
};

template <>
struct JsonCodec<double> {
  static Json write(double v) { return Json(v); }
  static double read(const Json& j, const std::string& path) {
    return get_double(j, path);
  }
};

template <>
struct JsonCodec<std::string> {
  static Json write(const std::string& v) { return Json(v); }
  static std::string read(const Json& j, const std::string& path) {
    return get_string(j, path);
  }
};

/// Raw JSON (bus overrides, sweep-axis values): kept as written.
template <>
struct JsonCodec<Json> {
  static Json write(const Json& v) { return v; }
  static Json read(const Json& j, const std::string&) { return j; }
};

template <class V>
struct JsonCodec<std::vector<V>> {
  static Json write(const std::vector<V>& items) {
    return write_array(items, JsonCodec<V>::write);
  }
  static std::vector<V> read(const Json& j, const std::string& path) {
    return read_array(j, path, JsonCodec<V>::read);
  }
};

namespace json_fields_detail {
template <class M>
struct MemberOf;
template <class T, class V>
struct MemberOf<V T::*> {
  using Owner = T;
  using Value = V;
};
}  // namespace json_fields_detail

/// The row of a plain member: `field<&T::member>("key")`, optionally
/// written only when `written(obj)` holds.
template <auto Member>
constexpr auto field(
    std::string_view name,
    bool (*written)(const typename json_fields_detail::MemberOf<
                    decltype(Member)>::Owner&) = nullptr) {
  using T = typename json_fields_detail::MemberOf<decltype(Member)>::Owner;
  using V = typename json_fields_detail::MemberOf<decltype(Member)>::Value;
  return JsonField<T>{
      name, [](const T& obj) { return JsonCodec<V>::write(obj.*Member); },
      [](T& obj, const Json& j, const std::string& path) {
        obj.*Member = JsonCodec<V>::read(j, path);
      },
      written};
}

/// The keys of `table`, in row order (the did-you-mean vocabulary).
template <class Table>
std::vector<std::string> field_names(const Table& table) {
  std::vector<std::string> names;
  names.reserve(table.size());
  for (const auto& row : table) names.emplace_back(row.name);
  return names;
}

/// Writes `obj` as an object, keys in table order, skipping rows whose
/// `written` is false.
template <class T, class Table>
Json write_fields(const T& obj, const Table& table) {
  Json out = Json::object();
  Json::Object& members = out.as_object();  // keys are unique: no `set` scan
  for (const JsonField<T>& row : table) {
    if (row.written == nullptr || row.written(obj)) {
      members.emplace_back(std::string(row.name), row.write(obj));
    }
  }
  return out;
}

/// Reads one key into `obj` through its row.  An unknown key fails at
/// `path` with "unknown <owner> field '<key>'" and a did-you-mean hint
/// drawn from the table's names.
template <class T, class Table>
void read_field(T& obj, const Table& table, std::string_view key,
                const Json& value, const std::string& path,
                std::string_view owner) {
  for (const JsonField<T>& row : table) {
    if (row.name == key) {
      row.read(obj, value, path);
      return;
    }
  }
  std::string message =
      "unknown " + std::string(owner) + " field '" + std::string(key) + "'";
  if (const std::string hint = closest_match(key, field_names(table));
      !hint.empty()) {
    message += " — did you mean '" + hint + "'?";
  }
  fail_at(path, message);
}

/// Strict read of the object `json` at `path` into `obj`: every key goes
/// through its row, and keys absent from `json` keep `obj`'s values.
template <class T, class Table>
void read_fields(T& obj, const Table& table, const Json& json,
                 const std::string& path, std::string_view owner) {
  if (!json.is_object()) {
    fail_at(path, "expected " + std::string(owner) + " object");
  }
  for (const auto& [key, value] : json.as_object()) {
    read_field(obj, table, key, value, path + "." + key, owner);
  }
}

}  // namespace serdes::util
