// Bus subsystem contracts (tier1):
//
//  1. Zero-coupling byte-identity — a BusSpec with no (or all-zero)
//     coupling matrices must produce per-lane RunReports BYTE-identical
//     to N independently stamped LinkSpecs run through run_batch, for
//     every built-in channel kind, at lane counts {1, 3, 8} and thread
//     counts {1, 8}.  Identity is compared on to_json(report).dump(), so
//     every field participates.
//  2. Coupled buses are deterministic across thread counts and keep the
//     run_batch seed derivation (toggling coupling never reshuffles lane
//     noise), and a 4-lane PAM4 + FEXT bus in "both" mode keeps the
//     MC-vs-stat cross-check band per lane.
//  3. PAM4 with both extra thresholds disabled degrades to NRZ behavior:
//     only the middle slicer decides, so an outer-symbols-only stream is
//     sliced exactly like NRZ — error-free at a clean point, and at a
//     noisy point the per-decision error rate statistically matches the
//     NRZ link at the same operating point.
//  4. modulation / BusSpec JSON round-trips, validation diagnostics
//     (did-you-mean included), and the schema_version absent-means-1
//     contract for RunReport / BusReport / LintReport.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "channel/channel.h"

#include "api/bus_spec.h"
#include "api/channel_factory.h"
#include "api/link_builder.h"
#include "api/link_spec.h"
#include "api/simulator.h"
#include "api/spec_json.h"
#include "core/config.h"
#include "core/link.h"
#include "lint/lint.h"
#include "util/json.h"
#include "util/units.h"

namespace serdes::api {
namespace {

/// Compact but complete NRZ lane: two chunks, FFE + CTLE + both jitter
/// terms + ppm offset + lane_batch, so the zero-coupling identity pin
/// also covers the lane-tiled grouping inside run_bus.
LinkSpec bus_base(const ChannelSpec& channel) {
  return LinkBuilder()
      .name("ignored")  // run_bus derives lane names from the bus name
      .channel(channel)
      .payload_bits(512)
      .chunk_bits(256)
      .preamble_bits(128)
      .cdr_window(16)
      .tx_ffe_deemphasis(0.2)
      .rx_ctle(util::decibels(3.0))
      .sinusoidal_jitter(util::seconds(2e-12))
      .ppm_offset(50.0)
      .lane_batch(8)
      .build_spec();
}

std::vector<ChannelSpec> builtin_channels() {
  return {
      ChannelSpec::flat(34.0),
      ChannelSpec::rc(2.5e9, 6.0),
      ChannelSpec::lossy_line(6.0, 18.0, 14.0),
      ChannelSpec::fir({0.6, 0.25, 0.1}),
      ChannelSpec::cascade(
          {ChannelSpec::flat(20.0), ChannelSpec::fir({0.7, 0.2})}),
  };
}

/// Stamps the independent-lane reference by hand — NOT via expand() —
/// so the pin compares run_bus against the documented contract ("lane i
/// runs as <name>/lane<i> with the base spec") rather than against the
/// implementation's own helper.
std::vector<LinkSpec> manual_lanes(const BusSpec& bus) {
  std::vector<LinkSpec> specs;
  specs.reserve(static_cast<std::size_t>(bus.lanes));
  for (int i = 0; i < bus.lanes; ++i) {
    LinkSpec spec = bus.base;
    spec.name = bus.name + "/lane" + std::to_string(i);
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<std::vector<double>> zero_matrix(int n) {
  return std::vector<std::vector<double>>(
      static_cast<std::size_t>(n),
      std::vector<double>(static_cast<std::size_t>(n), 0.0));
}

TEST(Bus, ZeroCouplingByteIdenticalToIndependentLanes) {
  const Simulator sim;
  for (const ChannelSpec& channel : builtin_channels()) {
    for (const int lanes : {1, 3, 8}) {
      BusSpec bus;
      bus.name = "zbus";
      bus.lanes = lanes;
      bus.base = bus_base(channel);
      ASSERT_EQ(bus.validate(), "");
      ASSERT_FALSE(bus.has_coupling());

      std::vector<std::string> reference;
      for (const RunReport& report : sim.run_batch(manual_lanes(bus), 1)) {
        reference.push_back(to_json(report).dump());
      }

      for (const int threads : {1, 8}) {
        const BusReport report = sim.run_bus(bus, threads);
        EXPECT_EQ(report.name, "zbus");
        ASSERT_EQ(report.lanes.size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i) {
          EXPECT_EQ(to_json(report.lanes[i]).dump(), reference[i])
              << "channel " << channel.kind << ", " << lanes << " lanes, "
              << threads << " threads, lane " << i;
        }
      }
    }
  }
}

TEST(Bus, ExplicitZeroMatricesStayOnTheBatchedPath) {
  // All-zero matrices are the same contract as absent ones: the bus
  // routes through run_batch and the reports stay byte-identical.
  const Simulator sim;
  BusSpec bus;
  bus.name = "zbus";
  bus.lanes = 3;
  bus.base = bus_base(ChannelSpec::flat(34.0));

  const BusReport absent = sim.run_bus(bus, 1);

  bus.coupling = zero_matrix(3);
  bus.next_coupling = zero_matrix(3);
  ASSERT_EQ(bus.validate(), "");
  EXPECT_FALSE(bus.has_coupling());
  const BusReport zeroed = sim.run_bus(bus, 8);

  ASSERT_EQ(zeroed.lanes.size(), absent.lanes.size());
  for (std::size_t i = 0; i < absent.lanes.size(); ++i) {
    EXPECT_EQ(to_json(zeroed.lanes[i]).dump(), to_json(absent.lanes[i]).dump())
        << "lane " << i;
  }
}

/// 4-lane PAM4 bus with tri-diagonal FEXT at a clean operating point
/// (flat 4 dB, 5 mV noise) — verified aligned and cross-check-consistent.
BusSpec pam4_fext_bus(std::uint64_t payload_bits = 32768) {
  BusSpec bus;
  bus.name = "xbus";
  bus.lanes = 4;
  bus.base = LinkBuilder()
                 .name("ignored")
                 .channel(ChannelSpec::flat(4.0))
                 .modulation("pam4")
                 .payload_bits(payload_bits)
                 .chunk_bits(payload_bits)
                 .preamble_bits(256)
                 .noise_rms(0.005)
                 .analysis("both")
                 .build_spec();
  bus.coupling = zero_matrix(4);
  for (int v = 0; v < 4; ++v) {
    for (const int a : {v - 1, v + 1}) {
      if (a >= 0 && a < 4) {
        bus.coupling[static_cast<std::size_t>(v)][static_cast<std::size_t>(a)] =
            0.03;
      }
    }
  }
  return bus;
}

TEST(Bus, CoupledPam4BusDeterministicAcrossThreadCounts) {
  const Simulator sim;
  const BusSpec bus = pam4_fext_bus();
  ASSERT_EQ(bus.validate(), "");
  ASSERT_TRUE(bus.has_coupling());

  const BusReport one = sim.run_bus(bus, 1);
  const BusReport eight = sim.run_bus(bus, 8);
  EXPECT_EQ(to_json(one).dump(), to_json(eight).dump());

  ASSERT_EQ(one.lanes.size(), 4u);
  for (std::size_t i = 0; i < one.lanes.size(); ++i) {
    const RunReport& lane = one.lanes[i];
    EXPECT_EQ(lane.spec.name, "xbus/lane" + std::to_string(i));
    EXPECT_TRUE(lane.aligned) << "lane " << i;
    ASSERT_TRUE(lane.stat.has_value()) << "lane " << i;
    EXPECT_TRUE(lane.stat->cross_checked) << "lane " << i;
    EXPECT_TRUE(lane.stat->consistent)
        << "lane " << i << ": mc_ber " << lane.stat->mc_ber << " outside ["
        << lane.stat->band_low << ", " << lane.stat->band_high << "]";
  }
  // Two aggressors beat one: the middle lanes' analytical BER floor sits
  // above the edge lanes'.
  EXPECT_GT(one.lanes[1].stat->min_ber, one.lanes[0].stat->min_ber);
  EXPECT_GT(one.lanes[2].stat->min_ber, one.lanes[3].stat->min_ber);
}

TEST(Bus, CouplingToggleKeepsLaneSeedDerivation) {
  // Crosstalk changes what a victim sees, never which noise stream a
  // lane draws: the derived per-lane seeds must match the zero-coupling
  // run exactly.
  const Simulator sim;
  BusSpec coupled = pam4_fext_bus(4096);
  BusSpec uncoupled = coupled;
  uncoupled.coupling.clear();

  const BusReport with = sim.run_bus(coupled, 1);
  const BusReport without = sim.run_bus(uncoupled, 1);
  ASSERT_EQ(with.lanes.size(), without.lanes.size());
  for (std::size_t i = 0; i < with.lanes.size(); ++i) {
    EXPECT_EQ(with.lanes[i].spec.seed, without.lanes[i].spec.seed)
        << "lane " << i;
    EXPECT_EQ(with.lanes[i].spec.seed,
              Simulator::derive_lane_seed(coupled.base.seed, i));
  }
}

// ---- PAM4 degrade-to-NRZ ---------------------------------------------------

/// Payload whose odd bits are zero: gray pairs (b,0) map to symbols
/// {0, 3} only — the two outer rails, i.e. NRZ signaling on the MSB.
std::vector<std::uint8_t> outer_symbol_payload(std::size_t nbits) {
  std::vector<std::uint8_t> bits(nbits, 0);
  std::uint64_t x = 0x243f6a8885a308d3ull;  // deterministic xorshift
  for (std::size_t i = 0; i < nbits; i += 2) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    bits[i] = static_cast<std::uint8_t>(x & 1);
  }
  return bits;
}

core::LinkConfig degrade_config(double noise_rms) {
  core::LinkConfig cfg = core::LinkConfig::paper_default();
  // Sync word with zeros at odd bit positions (emitted LSB-first right
  // after the even-length preamble), so the whole wire stream keeps the
  // outer-symbols-only property.
  cfg.framing.sync_word = 0x44110505u;
  cfg.channel_noise_rms = noise_rms;
  // Pin the per-sample noise density scale to 1 for both modulations:
  // NRZ and PAM4 run at different sample rates, and the degrade claim is
  // about identical per-decision statistics.
  cfg.noise_reference_bandwidth = util::hertz(1e12);
  return cfg;
}

std::unique_ptr<channel::Channel> make_channel(const core::LinkConfig& cfg) {
  return ChannelFactory::instance().create(ChannelSpec::flat(4.0), cfg);
}

TEST(Pam4Degrade, ExtraThresholdsOffIsErrorFreeAtACleanPoint) {
  const std::vector<std::uint8_t> payload = outer_symbol_payload(4096);

  core::LinkConfig nrz = degrade_config(0.0);
  core::SerDesLink nrz_link(nrz, make_channel(nrz));
  const core::LinkResult nrz_result = nrz_link.run(payload);
  EXPECT_TRUE(nrz_result.error_free());

  core::LinkConfig pam4 = degrade_config(0.0);
  pam4.modulation = core::LinkConfig::Modulation::kPam4;
  pam4.pam4_extra_thresholds = false;
  core::SerDesLink pam4_link(pam4, make_channel(pam4));
  const core::LinkResult pam4_result = pam4_link.run(payload);
  EXPECT_TRUE(pam4_result.error_free())
      << "aligned " << pam4_result.aligned << ", errors "
      << pam4_result.bit_errors;
}

TEST(Pam4Degrade, ExtraThresholdsOffTracksTheFullNrzEye) {
  // "Degrades to NRZ BER behavior" means the slicer stops paying the
  // PAM4 sub-eye penalty: with both extra thresholds disabled only the
  // middle slicer decides, so an outer-symbols-only stream faces the
  // full-swing eye — three times the inner-threshold distance.  At a
  // noise level that closes the third-swing sub-eyes but leaves the
  // full-swing eye open, a full four-level PAM4 link shows heavy errors
  // while the degraded link and a true NRZ link at the same operating
  // point both stay orders of magnitude below.
  const std::size_t nbits = 40000;
  const double noise = 0.15;

  std::vector<std::uint8_t> full_payload(nbits, 0);
  std::uint64_t x = 0x13198a2e03707344ull;
  for (std::size_t i = 0; i < nbits; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    full_payload[i] = static_cast<std::uint8_t>(x & 1);
  }

  core::LinkConfig four_level = degrade_config(noise);
  four_level.modulation = core::LinkConfig::Modulation::kPam4;
  core::SerDesLink four_level_link(four_level, make_channel(four_level));
  const core::LinkResult four = four_level_link.run(full_payload);
  ASSERT_TRUE(four.aligned);
  const double rate_full = static_cast<double>(four.bit_errors) /
                           static_cast<double>(four.payload_bits_compared);

  const std::vector<std::uint8_t> outer_payload = outer_symbol_payload(nbits);
  core::LinkConfig degraded = degrade_config(noise);
  degraded.modulation = core::LinkConfig::Modulation::kPam4;
  degraded.pam4_extra_thresholds = false;
  core::SerDesLink degraded_link(degraded, make_channel(degraded));
  const core::LinkResult deg = degraded_link.run(outer_payload);
  ASSERT_TRUE(deg.aligned);
  const double rate_degraded =
      static_cast<double>(deg.bit_errors) /
      static_cast<double>(deg.payload_bits_compared);

  core::LinkConfig nrz = degrade_config(noise);
  core::SerDesLink nrz_link(nrz, make_channel(nrz));
  const core::LinkResult nrz_result = nrz_link.run(outer_payload);
  ASSERT_TRUE(nrz_result.aligned);
  const double rate_nrz =
      static_cast<double>(nrz_result.bit_errors) /
      static_cast<double>(nrz_result.payload_bits_compared);

  EXPECT_GT(rate_full, 1e-3) << "sub-eyes unexpectedly open";
  EXPECT_LT(rate_degraded, rate_full / 50.0)
      << "degraded " << rate_degraded << " vs full pam4 " << rate_full;
  EXPECT_LT(rate_nrz, rate_full / 50.0)
      << "nrz " << rate_nrz << " vs full pam4 " << rate_full;
  // NRZ-class absolute rate for the degraded link.
  EXPECT_LT(rate_degraded, 5e-4);
}

// ---- modulation field ------------------------------------------------------

TEST(ModulationField, DefaultsToNrzAndRoundTrips) {
  const LinkSpec nrz = LinkBuilder().name("m").build_spec();
  EXPECT_EQ(nrz.modulation, "nrz");
  const util::Json j = to_json(nrz);
  ASSERT_NE(j.find("modulation"), nullptr);
  EXPECT_EQ(j.find("modulation")->as_string(), "nrz");

  const LinkSpec pam4 =
      LinkBuilder().name("m").modulation("pam4").build_spec();
  EXPECT_EQ(pam4.first_issue().field, "");
  const LinkSpec reparsed = link_spec_from_json(to_json(pam4));
  EXPECT_EQ(reparsed.modulation, "pam4");
  EXPECT_EQ(to_json(reparsed).dump(), to_json(pam4).dump());
}

TEST(ModulationField, ValidationDiagnostics) {
  LinkSpec spec = LinkBuilder().name("m").build_spec();
  spec.modulation = "qam16";
  EXPECT_EQ(spec.first_issue().field, "modulation");
  EXPECT_NE(spec.first_issue().message.find("must be one of 'nrz', 'pam4'"),
            std::string::npos)
      << spec.first_issue().message;

  LinkSpec ffe = LinkBuilder().name("m").modulation("pam4").build_spec();
  ffe.tx_ffe_deemphasis = 0.2;
  EXPECT_EQ(ffe.first_issue().field, "tx_ffe_deemphasis");
  EXPECT_NE(ffe.first_issue().message.find("incompatible with pam4"),
            std::string::npos)
      << ffe.first_issue().message;

  LinkSpec odd = LinkBuilder().name("m").modulation("pam4").build_spec();
  odd.preamble_bits = 255;
  EXPECT_EQ(odd.first_issue().field, "preamble_bits");
}

TEST(ModulationField, MisspelledKeyGetsDidYouMean) {
  util::Json j = to_json(LinkBuilder().name("m").build_spec());
  j.set("modulaton", "pam4");
  try {
    (void)link_spec_from_json(j);
    FAIL() << "expected util::JsonError";
  } catch (const util::JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'modulation'"),
              std::string::npos)
        << e.what();
  }
}

// ---- BusSpec JSON ----------------------------------------------------------

TEST(BusSpecJson, RoundTripIsAFixedPoint) {
  BusSpec bus;
  bus.name = "rt";
  bus.lanes = 3;
  bus.base = bus_base(ChannelSpec::rc(2.5e9, 6.0));
  bus.overrides = {
      util::Json::object({{"seed", util::Json(std::uint64_t{11})}}),
      util::Json::object({{"noise_rms_v", util::Json(0.002)}}),
      util::Json::object({}),
  };
  bus.coupling = zero_matrix(3);
  bus.coupling[0][1] = 0.05;
  bus.coupling[1][0] = 0.05;
  bus.next_coupling = zero_matrix(3);
  bus.next_coupling[2][1] = 0.01;
  ASSERT_EQ(bus.validate(), "");

  const util::Json j = to_json(bus);
  EXPECT_TRUE(looks_like_bus_spec(j));
  EXPECT_FALSE(looks_like_bus_spec(to_json(bus.base)));
  const BusSpec reparsed = bus_spec_from_json(j);
  EXPECT_EQ(to_json(reparsed).dump(), j.dump());

  const std::vector<LinkSpec> lanes = reparsed.expand();
  ASSERT_EQ(lanes.size(), 3u);
  EXPECT_EQ(lanes[0].name, "rt/lane0");
  EXPECT_EQ(lanes[0].seed, 11u);
  EXPECT_EQ(lanes[1].noise_rms_v, 0.002);
  EXPECT_EQ(lanes[2].noise_rms_v, bus.base.noise_rms_v);
}

TEST(BusSpecJson, ValidationDiagnostics) {
  BusSpec bus;
  bus.base = bus_base(ChannelSpec::flat(10.0));

  bus.lanes = 0;
  EXPECT_EQ(bus.validate(), "$.lanes: must be between 1 and 64");
  bus.lanes = 65;
  EXPECT_EQ(bus.validate(), "$.lanes: must be between 1 and 64");

  bus.lanes = 3;
  bus.coupling = zero_matrix(2);
  EXPECT_NE(bus.validate().find("$.coupling"), std::string::npos)
      << bus.validate();
  EXPECT_NE(bus.validate().find("3x3"), std::string::npos) << bus.validate();
  bus.coupling.clear();

  bus.overrides = {util::Json::object({})};
  EXPECT_NE(bus.validate().find("$.overrides"), std::string::npos)
      << bus.validate();
  bus.overrides = {
      util::Json::object({}),
      util::Json::object({{"name", util::Json("hijack")}}),
      util::Json::object({}),
  };
  EXPECT_NE(bus.validate().find("may not be overridden"), std::string::npos)
      << bus.validate();
}

TEST(BusSpecJson, MisspelledKeyGetsDidYouMean) {
  BusSpec bus;
  bus.name = "rt";
  bus.lanes = 2;
  bus.base = bus_base(ChannelSpec::flat(10.0));
  util::Json j = to_json(bus);
  j.set("couplng", util::Json::array());
  try {
    (void)bus_spec_from_json(j);
    FAIL() << "expected util::JsonError";
  } catch (const util::JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'coupling'"),
              std::string::npos)
        << e.what();
  }
}

TEST(BusSpecJson, RetiredStreamingFieldIsRejectedWithItsPath) {
  // "streaming" selected the removed batch execution path: true still
  // loads, false names its path in the bus base and in a lane override.
  BusSpec bus;
  bus.name = "rt";
  bus.lanes = 2;
  bus.base = bus_base(ChannelSpec::flat(10.0));
  bus.coupling = zero_matrix(2);
  bus.coupling[0][1] = 0.05;
  const util::Json j = to_json(bus);
  ASSERT_NE(j.find("base")->find("streaming"), nullptr);
  EXPECT_EQ(to_json(bus_spec_from_json(j)).dump(), j.dump());

  util::Json base = *j.find("base");
  base.set("streaming", util::Json(false));
  util::Json bad_base = j;
  bad_base.set("base", std::move(base));
  try {
    (void)bus_spec_from_json(bad_base);
    FAIL() << "expected util::JsonError";
  } catch (const util::JsonError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("$.base.streaming:", 0), 0u)
        << e.what();
  }

  bus.overrides = {util::Json::object({{"streaming", util::Json(true)}}),
                   util::Json::object({{"streaming", util::Json(false)}})};
  const std::string err = bus.validate();
  EXPECT_EQ(err.rfind("$.overrides[1].streaming:", 0), 0u) << err;
  EXPECT_NE(err.find("streaming is the only execution path"),
            std::string::npos)
      << err;
  bus.overrides[1] = bus.overrides[0];
  EXPECT_EQ(bus.validate(), "");
}

// ---- schema_version --------------------------------------------------------

/// Reserializes `j` without its `key` member — the "report written by a
/// version-1 build" fixture.
util::Json without_key(const util::Json& j, const std::string& key) {
  util::Json out = util::Json::object();
  for (const auto& [k, v] : j.as_object()) {
    if (k != key) out.set(k, v);
  }
  return out;
}

TEST(SchemaVersion, AbsentMeansVersionOne) {
  const Simulator sim;
  LinkSpec spec = bus_base(ChannelSpec::flat(10.0));
  spec.name = "sv";
  spec.payload_bits = 256;
  spec.chunk_bits = 256;

  const RunReport run = sim.run(spec);
  // RunReport moved to version 3 (DFE / link-training surface); the
  // bus and lint envelopes themselves are still version 2.
  EXPECT_EQ(run.schema_version, 3);
  const util::Json run_json = to_json(run);
  ASSERT_NE(run_json.find("schema_version"), nullptr);
  EXPECT_EQ(run_json.find("schema_version")->as_int(), 3);
  EXPECT_EQ(run_report_from_json(run_json).schema_version, 3);
  EXPECT_EQ(run_report_from_json(without_key(run_json, "schema_version"))
                .schema_version,
            1);

  BusSpec bus;
  bus.name = "sv";
  bus.lanes = 1;
  bus.base = spec;
  const util::Json bus_json = to_json(sim.run_bus(bus, 1));
  EXPECT_EQ(bus_report_from_json(bus_json).schema_version, 2);
  EXPECT_EQ(bus_report_from_json(without_key(bus_json, "schema_version"))
                .schema_version,
            1);

  const util::Json lint_json = to_json(lint::Linter().lint(spec));
  EXPECT_EQ(lint::lint_report_from_json(lint_json).schema_version, 2);
  EXPECT_EQ(lint::lint_report_from_json(without_key(lint_json,
                                                    "schema_version"))
                .schema_version,
            1);
}

TEST(SchemaVersion, OutOfIntRangeIsRejectedWithItsPath) {
  // 2^32 + 2 must not wrap to version 2.
  util::Json j = to_json(BusReport{});
  j.set("schema_version", util::Json(std::int64_t{4294967298}));
  try {
    (void)bus_report_from_json(j);
    FAIL() << "expected util::JsonError";
  } catch (const util::JsonError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("$.schema_version:", 0), 0u)
        << e.what();
  }
}

}  // namespace
}  // namespace serdes::api
