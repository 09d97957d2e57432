#include "core/link.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analog/rfi.h"
#include "analog/sampler.h"
#include "api/channel_factory.h"
#include "api/link_builder.h"
#include "api/simulator.h"
#include "api/spec_json.h"
#include "channel/channel.h"
#include "core/ber.h"
#include "digital/serializer.h"
#include "util/parallel.h"
#include "util/prbs.h"

namespace serdes::core {
namespace {

std::unique_ptr<channel::Channel> flat(double db) {
  return api::ChannelFactory::instance().create(api::ChannelSpec::flat(db),
                                                LinkConfig::paper_default());
}

TEST(Link, PaperOperatingPointIsErrorFree) {
  // The headline claim: 2 Gbps, PRBS-31, 34 dB loss, zero errors.
  SerDesLink link(LinkConfig::paper_default(), flat(34.0));
  const auto r = link.run_prbs(4096);
  EXPECT_TRUE(r.aligned);
  EXPECT_EQ(r.bit_errors, 0u);
  EXPECT_GT(r.payload_bits_compared, 4000u);
  EXPECT_TRUE(r.error_free());
}

TEST(Link, ReceivedSwingMatchesLoss) {
  SerDesLink link(LinkConfig::paper_default(), flat(34.0));
  const auto r = link.run_prbs(512);
  // 1.8 V * 10^(-34/20) = 36 mV, plus ~mV noise.
  EXPECT_NEAR(r.channel_out.peak_to_peak(), 0.036, 0.025);
}

TEST(Link, FailsAtAbsurdLoss) {
  SerDesLink link(LinkConfig::paper_default(), flat(75.0));
  const auto r = link.run_prbs(2048);
  EXPECT_FALSE(r.error_free());
}

TEST(Link, ErrorsIncreaseWithLoss) {
  std::uint64_t errors_low = 0;
  std::uint64_t errors_high = 0;
  {
    SerDesLink link(LinkConfig::paper_default(), flat(30.0));
    errors_low = link.run_prbs(3000).bit_errors;
  }
  {
    SerDesLink link(LinkConfig::paper_default(), flat(58.0));
    const auto r = link.run_prbs(3000);
    errors_high = r.aligned ? r.bit_errors : 3000;
  }
  EXPECT_LE(errors_low, errors_high);
  EXPECT_GT(errors_high, 0u);
}

TEST(Link, WorksAcrossPhaseOffsets) {
  for (double phase : {0.0, 0.21, 0.52, 0.78, 0.93}) {
    LinkConfig cfg = LinkConfig::paper_default();
    cfg.rx_phase_offset_ui = phase;
    SerDesLink link(cfg, flat(30.0));
    const auto r = link.run_prbs(2048);
    EXPECT_TRUE(r.error_free()) << "phase offset " << phase;
  }
}

TEST(Link, TracksPpmOffsetModuloBitSlips) {
  // A plesiochronous offset makes the sampling grid drift through the data;
  // the oversampling CDR follows by stepping its decision phase, and a step
  // across the UI wrap legitimately emits 0 or 2 bits (rate adaptation).
  // The honest property: after any slip, the stream is recovered
  // contiguously again — the payload tail appears intact in the raw
  // recovered bits even if fixed-offset comparison breaks.
  LinkConfig cfg = LinkConfig::paper_default();
  cfg.ppm_offset = 40.0;
  SerDesLink link(cfg, flat(25.0));
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs31);
  const auto payload = prbs.next_bits(2048);
  const auto r = link.run(payload);
  EXPECT_TRUE(r.aligned);
  const std::vector<std::uint8_t> tail(payload.end() - 400, payload.end() - 8);
  const auto& hay = r.rx.recovered_bits;
  bool found = false;
  for (std::size_t st = 0; !found && st + tail.size() <= hay.size(); ++st) {
    bool m = true;
    for (std::size_t i = 0; i < tail.size() && m; ++i) {
      m = hay[st + i] == tail[i];
    }
    found = m;
  }
  EXPECT_TRUE(found);
}

TEST(Link, TruncatedTailCountsAsErrorsBeyondCdrAllowance) {
  // A negative ppm offset stretches the receiver UI, so the sampling grid
  // produces fewer recovered bits than were sent: the tail of the payload
  // is never delivered.  Those missing bits must count as errors (beyond
  // the small CDR pipeline allowance), or deep BER sweeps would silently
  // credit truncated chunks as error-free coverage.
  LinkConfig cfg = LinkConfig::paper_default();
  cfg.ppm_offset = -500.0;
  SerDesLink link(cfg, flat(10.0));
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs15);
  const auto payload = prbs.next_bits(2048);
  const auto r = link.run(payload);
  ASSERT_TRUE(r.aligned);
  ASSERT_LT(r.rx.payload.size(),
            payload.size() - SerDesLink::kCdrTailAllowanceBits);
  const std::uint64_t missing = payload.size() - r.rx.payload.size();
  // Every missing bit beyond the allowance is charged as a compared error.
  EXPECT_EQ(r.payload_bits_compared,
            payload.size() - SerDesLink::kCdrTailAllowanceBits);
  EXPECT_GE(r.bit_errors, missing - SerDesLink::kCdrTailAllowanceBits);
  EXPECT_GT(r.ber, 0.0);
}

TEST(Link, HealthyRunHasNoTailPenalty) {
  SerDesLink link(LinkConfig::paper_default(), flat(34.0));
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs31);
  const auto payload = prbs.next_bits(2048);
  const auto r = link.run(payload);
  ASSERT_TRUE(r.aligned);
  EXPECT_EQ(r.rx.payload.size(), payload.size());
  EXPECT_EQ(r.payload_bits_compared, payload.size());
  EXPECT_EQ(r.bit_errors, 0u);
}

TEST(Link, NullChannelThrows) {
  EXPECT_THROW(SerDesLink(LinkConfig::paper_default(), nullptr),
               std::invalid_argument);
}

TEST(Link, TransmitterWireBitsLayout) {
  const LinkConfig cfg = LinkConfig::paper_default();
  Transmitter tx(cfg);
  const std::vector<std::uint8_t> payload = {1, 1, 0, 1};
  const auto wire = tx.wire_bits(payload);
  EXPECT_EQ(wire.size(), static_cast<std::size_t>(cfg.framing.preamble_bits) +
                             32 + payload.size());
  EXPECT_EQ(wire.back(), 1);
}

TEST(Link, FramesRoundTripThroughAnalog) {
  digital::ParallelFrame frame;
  for (std::size_t i = 0; i < frame.lanes.size(); ++i) {
    frame.lanes[i] = 0xC0FFEE00u + static_cast<std::uint32_t>(i);
  }
  SerDesLink link(LinkConfig::paper_default(), flat(20.0));
  const auto result = link.run(digital::Serializer::serialize({frame}));
  ASSERT_TRUE(result.aligned);
  ASSERT_GE(result.rx.frames.size(), 1u);
  EXPECT_EQ(result.rx.frames[0], frame);
}

TEST(Link, DeterministicAcrossRuns) {
  SerDesLink a(LinkConfig::paper_default(), flat(34.0));
  SerDesLink b(LinkConfig::paper_default(), flat(34.0));
  const auto ra = a.run_prbs(1024);
  const auto rb = b.run_prbs(1024);
  EXPECT_EQ(ra.bit_errors, rb.bit_errors);
  EXPECT_EQ(ra.rx.recovered_bits, rb.rx.recovered_bits);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_samples(const analog::Waveform& got,
                         const analog::Waveform& want,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(bits(got.samples()[i]), bits(want.samples()[i]))
        << what << " sample " << i;
  }
}

/// A Receiver's front end against the analog models built directly, which
/// bypasses the characterization memo: every value must match bit for bit.
void expect_front_end_matches_direct(const LinkConfig& cfg,
                                     const std::string& label) {
  SCOPED_TRACE(label);
  const Receiver rx(cfg);
  const analog::RfiCircuit circuit(cfg.rfi);
  const analog::RfiStage stage(circuit, cfg.sample_period());
  const analog::RestoringInverter restoring(
      cfg.restoring_wn_um, cfg.restoring_wp_um, cfg.rfi.vdd,
      cfg.sample_period());

  const analog::RfiDesign& design = rx.rfi().design();
  EXPECT_EQ(bits(design.wn_um), bits(cfg.rfi.wn_um));
  EXPECT_EQ(bits(design.wp_um), bits(cfg.rfi.wp_um));
  EXPECT_EQ(bits(design.pseudo_res_w_um), bits(cfg.rfi.pseudo_res_w_um));
  EXPECT_EQ(bits(design.vdd.value()), bits(cfg.rfi.vdd.value()));
  EXPECT_EQ(bits(design.coupling_cap.value()),
            bits(cfg.rfi.coupling_cap.value()));
  EXPECT_EQ(bits(design.load_cap.value()), bits(cfg.rfi.load_cap.value()));

  EXPECT_EQ(bits(rx.rfi_stage().bias()), bits(stage.bias()));
  EXPECT_EQ(bits(rx.rfi_stage().gain()), bits(stage.gain()));
  EXPECT_EQ(bits(rx.rfi_stage().bandwidth().value()),
            bits(stage.bandwidth().value()));
  EXPECT_EQ(bits(rx.rfi_stage().vdd()), bits(stage.vdd()));
  EXPECT_EQ(bits(rx.restoring().threshold()), bits(restoring.threshold()));
  EXPECT_EQ(bits(rx.restoring().bandwidth().value()),
            bits(restoring.bandwidth().value()));
  EXPECT_EQ(bits(rx.decision_threshold()), bits(restoring.threshold()));
  const double vdd = cfg.rfi.vdd.value();
  for (int i = -4; i <= 132; ++i) {
    const double v = vdd * i / 128.0;
    ASSERT_EQ(bits(rx.restoring().restore_level(v)),
              bits(restoring.restore_level(v)))
        << "restore_level(" << v << ")";
  }

  // The batch stages also carry the sample period of their output poles.
  const auto in = analog::Waveform::nrz(
      {0, 1, 1, 0, 1, 0, 0, 1}, cfg.unit_interval(), cfg.samples_per_ui,
      -0.02, 0.02, util::picoseconds(60.0));
  const auto rfi_out = stage.process(in);
  expect_same_samples(rx.rfi_stage().process(in), rfi_out, "rfi process");
  expect_same_samples(rx.restoring().process(rfi_out),
                      restoring.process(rfi_out), "restoring process");
}

TEST(Receiver, MemoizedFrontEndMatchesDirectCharacterization) {
  expect_front_end_matches_direct(LinkConfig::paper_default(),
                                  "paper default");
  // One variant per input of the characterization.  The paper default is
  // built again before each, so a key that ignored the changed input would
  // hand back the default's front end and fail the comparison.
  struct Variant {
    const char* name;
    void (*change)(LinkConfig&);
  };
  const Variant variants[] = {
      {"rfi.wn_um", [](LinkConfig& c) { c.rfi.wn_um = 4.5; }},
      {"rfi.wp_um", [](LinkConfig& c) { c.rfi.wp_um = 6.5; }},
      {"rfi.pseudo_res_w_um",
       [](LinkConfig& c) { c.rfi.pseudo_res_w_um = 0.5; }},
      {"rfi.vdd", [](LinkConfig& c) { c.rfi.vdd = util::volts(1.6); }},
      {"rfi.coupling_cap",
       [](LinkConfig& c) { c.rfi.coupling_cap = util::picofarads(500.0); }},
      {"rfi.load_cap",
       [](LinkConfig& c) { c.rfi.load_cap = util::femtofarads(20.0); }},
      {"restoring_wn_um", [](LinkConfig& c) { c.restoring_wn_um = 10.0; }},
      {"restoring_wp_um", [](LinkConfig& c) { c.restoring_wp_um = 14.0; }},
      {"sample_period", [](LinkConfig& c) { c.samples_per_ui = 8; }},
  };
  for (const auto& [name, change] : variants) {
    expect_front_end_matches_direct(LinkConfig::paper_default(),
                                    std::string("paper default before ") +
                                        name);
    LinkConfig cfg = LinkConfig::paper_default();
    change(cfg);
    expect_front_end_matches_direct(cfg, name);
  }
}

TEST(Ber, UpperBoundZeroErrors) {
  // 0 errors over N bits at 95%: -ln(0.05)/N = 3.0/N.
  EXPECT_NEAR(ber_upper_bound(100000, 0, 0.95), 2.9957e-5, 1e-8);
  EXPECT_NEAR(ber_upper_bound(1000, 0, 0.99), 4.6052e-3, 1e-6);
  EXPECT_DOUBLE_EQ(ber_upper_bound(0, 0, 0.95), 1.0);
}

TEST(Ber, UpperBoundWithErrors) {
  const double bound = ber_upper_bound(1000000, 10, 0.95);
  EXPECT_GT(bound, 10e-6);   // above the point estimate
  EXPECT_LT(bound, 25e-6);   // but not wildly so
}

TEST(Ber, MeasurementAccumulatesChunks) {
  SerDesLink link(LinkConfig::paper_default(), flat(30.0));
  const auto m = measure_ber(link, 8192, 2048);
  EXPECT_TRUE(m.error_free());
  EXPECT_GE(m.bits, 8000u);
  EXPECT_GT(m.ber_upper_bound, 0.0);
  EXPECT_LT(m.ber_upper_bound, 1e-3);
}

TEST(Ber, DetectsBrokenLink) {
  SerDesLink link(LinkConfig::paper_default(), flat(70.0));
  const auto m = measure_ber(link, 4096, 2048);
  EXPECT_FALSE(m.error_free());
  EXPECT_GT(m.ber, 1e-3);
}

TEST(Ber, ZeroChunkBitsIsRejected) {
  // A zero-bit chunk never advances the footage, so the run could never
  // end; the spec bounds reject it for JSON, this check for C++ callers.
  SerDesLink link(LinkConfig::paper_default(), flat(30.0));
  EXPECT_THROW((void)measure_ber(link, 4096, 0), std::invalid_argument);
}

// ---- The chunk fan-out -------------------------------------------------------
//
// A top-level measure_ber runs its first chunk alone and fans the rest out
// over util::parallel_for; inside a one-worker parallel_for every chunk
// runs inline, in order, on the calling thread.  Both must give the same
// report, byte for byte.

/// to_json of Simulator::run at top level and inline.
void expect_fan_out_matches_inline(const api::LinkSpec& spec,
                                   const std::string& label) {
  SCOPED_TRACE(label);
  const api::Simulator simulator;
  std::string inline_report;
  util::parallel_for(1, 1, [&](std::size_t) {
    inline_report = api::to_json(simulator.run(spec)).dump();
  });
  EXPECT_EQ(api::to_json(simulator.run(spec)).dump(), inline_report);
}

TEST(BerFanOut, SimulatorRunMatchesInlineByteForByte) {
  // perfbench nrz_deep's physics: lossy line, CTLE and a 3-tap DFE, with a
  // short trailing chunk.
  const api::LinkSpec deep =
      api::LinkBuilder()
          .channel(api::ChannelSpec::lossy_line(8.0, 12.0, 4.0))
          .noise_rms(0.002)
          .rx_ctle(util::decibels(4.0))
          .dfe({0.04, 0.015, 0.005})
          .payload_bits(5 * 2048 + 700)
          .chunk_bits(2048)
          .seed(11)
          .build_spec();
  expect_fan_out_matches_inline(deep, "nrz_deep physics");

  const api::LinkSpec pam4 = api::LinkBuilder()
                                 .flat_channel(util::decibels(4.0))
                                 .modulation("pam4")
                                 .noise_rms(0.005)
                                 .payload_bits(4 * 2048)
                                 .chunk_bits(2048)
                                 .seed(12)
                                 .build_spec();
  expect_fan_out_matches_inline(pam4, "pam4");

  const api::LinkSpec both = api::LinkBuilder()
                                 .flat_channel(util::decibels(30.0))
                                 .noise_rms(0.004)
                                 .analysis("both")
                                 .payload_bits(4 * 2048)
                                 .chunk_bits(2048)
                                 .seed(13)
                                 .build_spec();
  expect_fan_out_matches_inline(both, "both");

  // Chunks that fail to align are charged whole: some of them here, so
  // both branches of the accounting run in the fanned-out chunks.
  const api::LinkSpec lossy = api::LinkBuilder()
                                  .flat_channel(util::decibels(58.0))
                                  .payload_bits(6 * 1024)
                                  .chunk_bits(1024)
                                  .seed(14)
                                  .build_spec();
  const api::RunReport lost = api::Simulator().run(lossy);
  EXPECT_FALSE(lost.aligned);
  EXPECT_LT(lost.errors, lost.bits);
  expect_fan_out_matches_inline(lossy, "unaligned chunks");

  api::LinkSpec captured = deep;
  captured.capture_waveforms = true;
  expect_fan_out_matches_inline(captured, "capture_waveforms");
}

/// The measurement of a link driven chunk by chunk, every chunk through
/// run(payload) on this thread.
BerMeasurement serial_measurement(SerDesLink& link, std::uint64_t total,
                                  std::uint64_t chunk) {
  BerMeasurement m;
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs31);
  for (std::uint64_t sent = 0; sent < total;) {
    const std::uint64_t n = std::min(chunk, total - sent);
    sent += n;
    const LinkResult r = link.run(prbs.next_bits(static_cast<std::size_t>(n)));
    if (!r.aligned) {
      m.aligned = false;
      m.errors += n;
      m.bits += n;
      continue;
    }
    m.bits += r.payload_bits_compared;
    m.errors += r.bit_errors;
  }
  return m;
}

TEST(BerFanOut, SeveralWindowsMatchTheSerialLoop) {
  // A window holds 2^18 payload bits: 2^15-bit chunks go 8 to a window,
  // so 2^18 + 2^15 + 500 bits are the first chunk, one full window and a
  // second window of one short chunk.  Four samples per UI keep it cheap,
  // and the noise makes every chunk's error count depend on its seed.
  constexpr std::uint64_t kTotal = (1u << 18) + (1u << 15) + 500;
  constexpr std::uint64_t kChunk = 1u << 15;
  const api::LinkSpec spec = api::LinkBuilder()
                                 .flat_channel(util::decibels(40.0))
                                 .noise_rms(0.004)
                                 .samples_per_ui(4)
                                 .payload_bits(kTotal)
                                 .chunk_bits(kChunk)
                                 .seed(15)
                                 .build_spec();
  expect_fan_out_matches_inline(spec, "several windows");

  const LinkConfig cfg = spec.to_link_config();
  const auto line = [&] {
    return api::ChannelFactory::instance().create(spec.channel, cfg);
  };
  SerDesLink fanned(cfg, line());
  SerDesLink serial(cfg, line());
  const BerMeasurement m = measure_ber(fanned, kTotal, kChunk);
  const BerMeasurement want = serial_measurement(serial, kTotal, kChunk);
  EXPECT_GT(want.errors, 0u);
  EXPECT_EQ(m.bits, want.bits);
  EXPECT_EQ(m.errors, want.errors);
  EXPECT_EQ(m.aligned, want.aligned);
}

TEST(BerFanOut, LinkContinuesWhereTheSerialLoopWould) {
  // measure_ber advances the run counter by its chunk count, so the next
  // run draws the noise a serially driven link would draw.
  LinkConfig cfg = LinkConfig::paper_default();
  cfg.channel_noise_rms = 0.004;
  SerDesLink fanned(cfg, flat(40.0));
  SerDesLink serial(cfg, flat(40.0));
  const BerMeasurement m = measure_ber(fanned, 5 * 1024 + 300, 1024);
  const BerMeasurement want = serial_measurement(serial, 5 * 1024 + 300, 1024);
  EXPECT_EQ(m.bits, want.bits);
  EXPECT_EQ(m.errors, want.errors);
  EXPECT_EQ(m.aligned, want.aligned);

  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs9);
  const std::vector<std::uint8_t> payload = prbs.next_bits(1500);
  const LinkResult next = fanned.run(payload);
  const LinkResult ref = serial.run(payload);
  EXPECT_EQ(next.rx.recovered_bits, ref.rx.recovered_bits);
  EXPECT_EQ(next.bit_errors, ref.bit_errors);
  EXPECT_EQ(bits(next.rx_swing_pp), bits(ref.rx_swing_pp));
  expect_same_samples(next.channel_out, ref.channel_out, "channel_out");
}

TEST(Link, SlicerOnlyCaptureMatchesFullCapture) {
  // The slicer input alone, bit-identical to a full capture's, and no
  // other waveform: NRZ (RFI + restore), PAM4 through a CTLE, and PAM4
  // without one, where one tap at the receiver input is the slicer input.
  struct Case {
    const char* name;
    LinkConfig cfg;
  };
  LinkConfig nrz = LinkConfig::paper_default();
  nrz.rx_ctle_boost = util::decibels(3.0);
  LinkConfig pam4 = LinkConfig::paper_default();
  pam4.modulation = LinkConfig::Modulation::kPam4;
  pam4.rx_ctle_boost = util::decibels(3.0);
  LinkConfig pam4_bare = pam4;
  pam4_bare.rx_ctle_boost = util::decibels(0.0);
  for (Case c : {Case{"nrz", nrz}, Case{"pam4", pam4},
                 Case{"pam4 without ctle", pam4_bare}}) {
    SCOPED_TRACE(c.name);
    c.cfg.capture_max_samples = 3001;
    c.cfg.capture_waveforms = true;
    SerDesLink full(c.cfg, flat(10.0));
    c.cfg.capture_waveforms = false;
    c.cfg.capture_slicer_input = true;
    SerDesLink slicer(c.cfg, flat(10.0));
    const LinkResult want = full.run_prbs(1024);
    const LinkResult got = slicer.run_prbs(1024);
    ASSERT_FALSE(want.rx.restored.empty());
    expect_same_samples(got.rx.restored, want.rx.restored, "restored");
    EXPECT_TRUE(got.tx_out.empty());
    EXPECT_TRUE(got.channel_out.empty());
    EXPECT_EQ(got.rx.recovered_bits, want.rx.recovered_bits);

    // Turning capture off turns the slicer input off too.
    slicer.set_capture_waveforms(false);
    EXPECT_TRUE(slicer.run_prbs(1024).rx.restored.empty());
  }
}

}  // namespace
}  // namespace serdes::core
