// JSON round-trip for the declarative API types.
//
// A `LinkSpec` is plain data, so a scenario is equally at home as a JSON
// file: `serdes_cli`, the sweep engine and CI all exchange specs and
// reports through these functions.  Parsing is strict — unknown fields
// and type mismatches are errors — and every diagnostic names the JSON
// path of the offending member ("$.channel.stages[1].kind: ...") with a
// "did you mean" hint for plausible typos, so a fat-fingered spec file
// fails with the fix in the message.
//
// Serialization is deterministic (field order fixed, shortest-round-trip
// numbers) and `parse(serialize(parse(x)))` is a fixed point.
//
// Each type's keys are one field table in spec_json.cc (see
// util/json_fields.h): the writer, the strict reader, `apply_link_field`
// and the did-you-mean vocabulary all walk the same rows, so every key is
// named exactly once.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "api/link_spec.h"
#include "api/simulator.h"
#include "opt/optimizer.h"
#include "stat/stat_report.h"
#include "util/json.h"

namespace serdes::api {

/// Serializes a channel spec, emitting only the fields its kind reads
/// (any other kind — a runtime registration — emits all four scalars,
/// plus the FIR taps and the stages when they are non-empty).
[[nodiscard]] util::Json to_json(const ChannelSpec& spec);

/// Serializes every LinkSpec field in declaration order.
[[nodiscard]] util::Json to_json(const LinkSpec& spec);

/// Serializes a statistical analysis result (bathtub, contours, margins,
/// cross-check verdict).
[[nodiscard]] util::Json to_json(const stat::StatReport& report);

/// Serializes the report summary: the spec plus BER, lock and eye
/// metrics, and — when the scenario ran the stat engine — the StatReport
/// under "stat".  Captured waveforms are intentionally omitted (reports
/// are for sweeps and CI artifacts, not bulk sample storage).
[[nodiscard]] util::Json to_json(const RunReport& report);

/// Serializes an optimizer outcome (baseline, winner knobs, search
/// accounting, MC cross-check verdict).  Deterministic like every other
/// report serialization — the optimize golden test pins the bytes.
[[nodiscard]] util::Json to_json(const opt::OptimizeReport& report);

/// Parsers: `path` is the JSON path of `json` within its document, used
/// to prefix error messages.  Throw util::JsonError.
[[nodiscard]] ChannelSpec channel_spec_from_json(
    const util::Json& json, const std::string& path = "$.channel");
[[nodiscard]] LinkSpec link_spec_from_json(const util::Json& json,
                                           const std::string& path = "$");
[[nodiscard]] RunReport run_report_from_json(const util::Json& json,
                                             const std::string& path = "$");
[[nodiscard]] stat::StatReport stat_report_from_json(
    const util::Json& json, const std::string& path = "$.stat");
[[nodiscard]] opt::OptimizeReport optimize_report_from_json(
    const util::Json& json, const std::string& path = "$");

/// Applies one field to a spec — the shared primitive behind whole-spec
/// parsing and sweep-axis application.  `field` may be a top-level
/// LinkSpec member, "channel" (value is a ChannelSpec object), or a
/// dotted channel member ("channel.loss_db", "channel.fir_taps", ...).
/// Throws util::JsonError with `path` context on unknown fields (with a
/// did-you-mean hint) or type mismatches.
void apply_link_field(LinkSpec& spec, std::string_view field,
                      const util::Json& value, const std::string& path);

/// Content hash of a fully-expanded scenario spec: FNV-1a64 over the
/// canonical compact JSON serialization, mixed with the seed.  Two specs
/// hash equal exactly when they would produce the same simulation, which
/// makes this the result store's cache key — a store row is reusable iff
/// its spec hash matches the cell being computed.
[[nodiscard]] std::uint64_t spec_content_hash(const LinkSpec& spec);

/// Empty when every kind in the channel tree is registered with
/// ChannelFactory; otherwise a message naming the JSON path of the
/// offending kind plus the factory's did-you-mean hint.
[[nodiscard]] std::string check_channel_kinds(
    const ChannelSpec& spec, const std::string& path = "$.channel");

/// Full file-context validation: LinkSpec::first_issue() plus channel
/// kind registration, with the finding prefixed by its JSON path
/// ("$.noise_rms_v: must be non-negative").  Empty when runnable.
[[nodiscard]] std::string validate_spec_with_paths(
    const LinkSpec& spec, const std::string& path = "$");

}  // namespace serdes::api
