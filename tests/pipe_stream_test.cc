// Streaming-equivalence suite: the block pipeline must be bit-identical to
// the whole-waveform reference (whole_waveform_reference.h) — per channel
// kind, per block size, and end-to-end through SerDesLink — and
// api::Simulator reports must not depend on the block size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/api.h"
#include "api/bus_spec.h"
#include "api/spec_json.h"
#include "channel/channel.h"
#include "channel/equalizer.h"
#include "core/chain_plan.h"
#include "core/eye.h"
#include "core/link.h"
#include "core/receiver.h"
#include "pipe/pam_stages.h"
#include "pipe/stage.h"
#include "pipe/stages.h"
#include "util/prbs.h"
#include "level_pulse_reference.h"
#include "whole_waveform_reference.h"

namespace serdes {
namespace {

constexpr util::Second kDt = util::Second{31.25e-12};  // 2 Gbps, 16 s/UI

analog::Waveform test_wave(std::size_t nbits = 512) {
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs15);
  return analog::Waveform::nrz(prbs.next_bits(nbits), util::nanoseconds(0.5),
                               16, 0.0, 1.8, util::picoseconds(100.0));
}

/// Streams `in` through the channel in `chunk`-sample blocks.
analog::Waveform stream_chunked(const channel::Channel& ch,
                                const analog::Waveform& in,
                                std::size_t chunk) {
  analog::Waveform out = in;
  const auto stream = ch.open_stream();
  auto& samples = out.samples();
  for (std::size_t i = 0; i < samples.size(); i += chunk) {
    const std::size_t n = std::min(chunk, samples.size() - i);
    stream->transmit_block(samples.data() + i, samples.data() + i, n);
  }
  return out;
}

void expect_identical(const analog::Waveform& a, const analog::Waveform& b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(a.start_time().value(), b.start_time().value()) << what;
  EXPECT_EQ(a.sample_period().value(), b.sample_period().value()) << what;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u) << what << ": " << mismatches << " of "
                            << a.size() << " samples differ";
}

std::vector<api::ChannelSpec> all_channel_kinds() {
  return {
      api::ChannelSpec::flat(34.0),
      api::ChannelSpec::rc(2.5e9, 3.0),
      api::ChannelSpec::lossy_line(2.0, 10.0, 8.0),
      api::ChannelSpec::fir({0.1, 0.7, 0.25, -0.1}, 16),
      api::ChannelSpec::cascade({api::ChannelSpec::flat(6.0),
                                 api::ChannelSpec::rc(3e9),
                                 api::ChannelSpec::fir({0.8, 0.2}, 16)}),
  };
}

TEST(ChannelStreaming, BlockChunkingIsBitIdenticalForEveryKind) {
  const auto cfg = core::LinkConfig::paper_default();
  const analog::Waveform in = test_wave();
  for (const auto& spec : all_channel_kinds()) {
    const auto ch = api::ChannelFactory::instance().create(spec, cfg);
    const analog::Waveform batch = ch->transmit(in);
    for (std::size_t chunk : {std::size_t{1}, std::size_t{7},
                              std::size_t{4096}}) {
      const analog::Waveform streamed = stream_chunked(*ch, in, chunk);
      expect_identical(batch, streamed,
                       (spec.kind + " @" + std::to_string(chunk)).c_str());
    }
  }
}

TEST(ChannelStreaming, StreamResetRestartsFromZeroState) {
  const auto cfg = core::LinkConfig::paper_default();
  const auto ch = api::ChannelFactory::instance().create(
      api::ChannelSpec::lossy_line(2.0, 10.0, 8.0), cfg);
  const analog::Waveform in = test_wave(64);
  const analog::Waveform batch = ch->transmit(in);

  const auto stream = ch->open_stream();
  std::vector<double> first(in.samples());
  stream->transmit_block(first.data(), first.data(), first.size());
  stream->reset();
  std::vector<double> second(in.samples());
  stream->transmit_block(second.data(), second.data(), second.size());
  for (std::size_t i = 0; i < second.size(); ++i) {
    ASSERT_EQ(second[i], batch[i]) << "sample " << i;
  }
}

// ---- One loop per stage vs separate passes ----------------------------------
// The channel streams and the CTLE, RFI and restoring stages step their
// filters in one loop per block.  The references below are the separate
// passes those loops replaced, written with OnePoleLowPass::step on their
// own filter objects: fusing reorders independent operations but changes
// none, so the two agree bit for bit — across block boundaries (odd sizes
// carry state mid-stream) and when a block's output aliases its input.

/// Out-of-place blocks of odd sizes; the rest of the stream goes in place.
constexpr std::size_t kFusedBlocks[] = {1, 7, 333, 4097, 1001};

/// The 8192-sample PRBS wave, mapped to offset + scale * v.
std::vector<double> fused_input(double scale, double offset) {
  std::vector<double> v = test_wave().samples();
  for (double& x : v) x = offset + scale * x;
  return v;
}

/// Streams `in` through `stage`: kFusedBlocks out of place, then the
/// remaining samples in one in-place call (the output block is the input).
std::vector<double> run_fused(pipe::Stage& stage,
                              const std::vector<double>& in) {
  std::vector<double> out;
  pipe::Block blk;
  std::size_t pos = 0;
  for (const std::size_t n : kFusedBlocks) {
    stage.process(pipe::BlockView{in.data() + pos, n, pos, util::seconds(0.0),
                                  kDt, false},
                  blk);
    out.insert(out.end(), blk.samples().begin(), blk.samples().end());
    pos += n;
  }
  blk.samples().assign(in.begin() + static_cast<std::ptrdiff_t>(pos),
                       in.end());
  blk.set_start_index(pos);
  blk.set_last(true);
  stage.process(blk.view(), blk);
  out.insert(out.end(), blk.samples().begin(), blk.samples().end());
  return out;
}

/// Bitwise equality via memcpy to uint64_t (so -0.0 != 0.0 here).
void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::memcpy(&a, &got[i], sizeof a);
    std::memcpy(&b, &want[i], sizeof b);
    if (a != b) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u) << what << ": " << mismatches << " of "
                            << got.size() << " samples differ";
}

TEST(FusedStageLoops, ChannelStreamsMatchSeparatePasses) {
  const std::vector<double> in = fused_input(1.0, 0.0);

  channel::LossyLineChannel::Params params;
  params.dc_loss_db = 2.0;
  params.skin_loss_db_at_1ghz = 10.0;
  params.dielectric_loss_db_at_1ghz = 8.0;
  // dsp on: a first block of one sample is below the FFT crossover, so the
  // dsp stream commits to its IIR fallback, the same cascade.
  for (const bool dsp : {false, true}) {
    const channel::LossyLineChannel line(params, kDt, dsp);
    std::vector<double> want = in;
    analog::OnePoleLowPass p1(line.pole1(), kDt);
    analog::OnePoleLowPass p2(line.pole2(), kDt);
    for (double& x : want) x *= line.flat_gain();
    for (double& x : want) x = p1.step(x);
    for (double& x : want) x = p2.step(x);
    pipe::ChannelStage stage(line.open_stream());
    expect_same_bits(run_fused(stage, in), want,
                     dsp ? "lossy_line dsp fallback" : "lossy_line");
  }

  const channel::RcChannel rc(util::gigahertz(2.5), kDt, util::decibels(3.0));
  const double rc_gain = util::db_to_amplitude(util::decibels(-3.0));
  analog::OnePoleLowPass lpf(util::gigahertz(2.5), kDt);
  std::vector<double> want = in;
  for (double& x : want) x = lpf.step(x * rc_gain);
  pipe::ChannelStage stage(rc.open_stream());
  expect_same_bits(run_fused(stage, in), want, "rc");
}

TEST(FusedStageLoops, CtleMatchesSeparatePasses) {
  const std::vector<double> in = fused_input(1.0, 0.0);
  const util::Hertz pole = util::megahertz(700.0);
  pipe::CtleStage stage(util::decibels(6.0), pole, kDt);

  const double k = util::db_to_amplitude(util::decibels(6.0)) - 1.0;
  analog::OnePoleLowPass lpf(pole, kDt);
  std::vector<double> low = in;
  for (double& x : low) x = lpf.step(x);
  std::vector<double> want(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    want[i] = in[i] + k * (in[i] - low[i]);
  }
  expect_same_bits(run_fused(stage, in), want, "ctle");
}

TEST(FusedStageLoops, RfiAndRestoringMatchSeparatePasses) {
  const core::Receiver rx(core::LinkConfig::paper_default());

  // RFI: small channel-referred signal, DC removal, pole, saturating VTC.
  const analog::RfiStage& rfi = rx.rfi_stage();
  const double mean = 0.0004;
  const std::vector<double> small = fused_input(0.01, -0.009);
  pipe::RfiFrontEndStage rfi_stage(rfi, kDt);
  rfi_stage.set_mean(mean);
  analog::OnePoleLowPass rfi_pole(rfi.bandwidth(), kDt);
  std::vector<double> want = small;
  const double delta = -mean;  // the stage's DC removal
  for (double& x : want) x += delta;
  for (double& x : want) x = rfi_pole.step(x);
  for (double& x : want) x = rfi.saturate(x);
  expect_same_bits(run_fused(rfi_stage, small), want, "rfi");

  // Restoring: VTC lookup across the rails, then the output pole.
  const analog::RestoringInverter& inv = rx.restoring();
  const std::vector<double> rails = fused_input(0.5, 0.45);
  pipe::RestoringStage restore(inv, kDt);
  analog::OnePoleLowPass pole(inv.bandwidth(), kDt);
  want = rails;
  for (double& x : want) x = inv.restore_level(x);
  for (double& x : want) x = pole.step(x);
  expect_same_bits(run_fused(restore, rails), want, "restore");
}

// ---- TX source: the bit by integer index vs the quotient loop --------------
// LevelPulseSource finds sample p's bit as p / samples_per_ui; the quotient
// loop it replaced (level_pulse_reference.h) took trunc(t / ui).  The two
// agree for every stream the constructor accepts, so the waveforms agree
// bit for bit.

/// Streams all of `src` (`total` samples) in `block`-sample calls and
/// returns the samples; counts blocks whose metadata is off in `bad_meta`.
template <class Source>
std::vector<double> produce_all(Source& src, std::size_t block,
                                std::size_t total, double stream_t0,
                                double dt, std::size_t& bad_meta) {
  std::vector<double> out;
  pipe::Block blk;
  while (src.produce(blk, block) > 0) {
    const pipe::BlockView v = blk.view();
    if (v.start_index != out.size() || v.stream_t0.value() != stream_t0 ||
        v.dt.value() != dt || v.last != (out.size() + v.size == total)) {
      ++bad_meta;
    }
    out.insert(out.end(), v.data, v.data + v.size);
  }
  return out;
}

TEST(LevelPulseSource, MatchesTheQuotientLoopBitForBit) {
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs7);
  const std::vector<std::uint8_t> bits = prbs.next_bits(96);
  const double vdd = 1.8;
  std::vector<double> rails(bits.size());
  std::vector<double> pam4(bits.size() / 2);
  for (std::size_t i = 0; i < bits.size(); ++i) rails[i] = bits[i] ? vdd : 0.0;
  for (std::size_t s = 0; s < pam4.size(); ++s) {
    const int sym = core::ChainPlan::gray_symbol(bits[2 * s] != 0,
                                                 bits[2 * s + 1] != 0);
    pam4[s] = static_cast<double>(sym) * (vdd / 3.0);
  }
  // Taps summing past 1 overshoot the rails, so some levels are negative.
  const std::vector<double> ffe =
      channel::TxFfe({1.2, -0.4}, util::volts(vdd)).levels(bits);
  ASSERT_LT(*std::min_element(ffe.begin(), ffe.end()), 0.0);
  const std::vector<double> zeros = {0.0,  -0.0, -0.0, 0.0, 0.0, -0.0,
                                     1.0,  -0.0, 0.0,  -1.0, -0.0, -0.0};
  const std::pair<const char*, const std::vector<double>*> launches[] = {
      {"rails", &rails}, {"ffe", &ffe}, {"pam4", &pam4}, {"signed zeros", &zeros}};

  for (const double rate : {2e9, 2.7e9}) {
    const util::Second ui = util::period(util::hertz(rate));
    for (const int spu : {2, 16, 256}) {
      const double dt = ui.value() / spu;
      const double rises[] = {0.0, 0.3 * dt, 100e-12, 1.5 * ui.value()};
      for (const double rise : rises) {
        for (const auto& [what, levels] : launches) {
          const std::size_t total = levels->size() * spu;
          std::size_t bad_meta = 0;
          level_pulse_reference::QuotientSource ref(
              *levels, ui, spu, util::seconds(rise), util::seconds(1e-9));
          const std::vector<double> want =
              produce_all(ref, 16384, total, 1e-9, dt, bad_meta);
          ASSERT_EQ(want.size(), total);
          for (const std::size_t block : {1u, 7u, 16384u}) {
            pipe::LevelPulseSource src(*levels, ui, spu, util::seconds(rise),
                                       util::seconds(1e-9));
            const std::string where =
                std::string(what) + " rate " + std::to_string(rate) +
                " spu " + std::to_string(spu) + " rise " +
                std::to_string(rise) + " block " + std::to_string(block);
            expect_same_bits(
                produce_all(src, block, total, 1e-9, dt, bad_meta), want,
                where.c_str());
            EXPECT_EQ(bad_meta, 0u) << where;
          }
        }
      }
    }
  }
}

TEST(LevelPulseSource, IntegerBitIndexIsTheQuotientFarIntoTheStream) {
  // Streaming out to p ~ 2^40 is too slow for this tier, so this checks
  // the identity itself: trunc(fl(fl(fl(p + 0.5) dt) / ui)) == p / spu,
  // around 2^32, 2^40 and just below the 2^50-sample cap, at the UI
  // boundaries nearest each (where the quotient comes closest to an
  // integer) and across a run of samples.
  std::size_t mismatches = 0;
  std::size_t checked = 0;
  for (const double rate : {1e9, 2e9, 2.5e9, 2.7e9, 3.125e9, 5e9, 10e9,
                            16e9, 28e9}) {
    const double ui = util::period(util::hertz(rate)).value();
    for (const std::uint64_t spu : {2u, 5u, 16u, 64u, 256u}) {
      const double dt = (util::seconds(ui) / static_cast<double>(spu)).value();
      for (const std::uint64_t around :
           {std::uint64_t{1} << 32, std::uint64_t{1} << 40,
            pipe::LevelPulseSource::kMaxSamples - 4096}) {
        const std::uint64_t first = (around / spu) * spu - 2048;
        for (std::uint64_t p = first; p < first + 4096; ++p) {
          const double t = (static_cast<double>(p) + 0.5) * dt;
          const auto bit = static_cast<std::uint64_t>(t / ui);
          if (bit != p / spu) ++mismatches;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << checked;
}

TEST(LevelPulseSource, RejectsStreamsOfTwoToTheFiftySamples) {
  // 2^20 levels at 2^30 samples per UI is exactly 2^50 samples.
  const util::Second ui = util::nanoseconds(0.5);
  const int spu = 1 << 30;
  std::vector<double> levels((std::size_t{1} << 20) - 1, 1.0);
  const pipe::LevelPulseSource below(levels, ui, spu, util::seconds(0.0),
                                     util::seconds(0.0));
  EXPECT_EQ(below.total_samples(),
            pipe::LevelPulseSource::kMaxSamples - (std::uint64_t{1} << 30));
  levels.push_back(1.0);
  EXPECT_THROW(pipe::LevelPulseSource(levels, ui, spu, util::seconds(0.0),
                                      util::seconds(0.0)),
               std::invalid_argument);
  EXPECT_THROW(pipe::LevelPulseSource({1.0}, ui, 1, util::seconds(0.0),
                                      util::seconds(0.0)),
               std::invalid_argument);
}

TEST(SamplerCdrSink, GrowsWindowForBlocksBeyondTheSizingHint) {
  // A block far larger than Config::block_samples must not wrap the rolling
  // window over itself — the sink grows it and stays bit-identical to the
  // batch sampling chain.
  const analog::Waveform w = test_wave(128);
  pipe::SamplerCdrSink::Config c;
  c.symbol_rate = util::gigahertz(2.0);
  c.oversampling = 5;
  c.total_samples = w.size();
  c.stream_t0 = w.start_time();
  c.dt = w.sample_period();
  c.block_samples = 64;  // hint far below the block actually fed
  pipe::SamplerCdrSink sink(c);

  pipe::Block blk;
  blk.samples() = w.samples();
  blk.set_start_index(0);
  blk.set_stream_t0(w.start_time());
  blk.set_dt(w.sample_period());
  blk.set_last(true);
  sink.consume(blk.view());
  sink.finish();

  digital::MultiphaseClockGenerator clocks(c.symbol_rate, c.oversampling,
                                           c.phase_offset, c.ppm_offset);
  channel::JitterModel jitter(c.jitter);
  analog::DffSampler sampler(c.sampler);
  const auto samples = digital::sample_waveform(w, clocks, sampler, &jitter);
  digital::OversamplingCdr cdr(c.cdr);
  EXPECT_EQ(sink.cdr().recovered(), cdr.recover(samples));
}

TEST(SamplerCdrSink, GrowsAMultiLaneWindowWithLiveSamples) {
  // A 3-lane tile: the first block fits the sizing hint, the second is far
  // beyond it, so the sink grows its window while the instant at the end
  // of the first block still waits on the samples before the split.  Each
  // lane's live samples must be re-placed in its own row, so every lane
  // still matches the batch sampling chain over its own stream.  The
  // later lanes hold a run of ones around every split, where a lost live
  // sample reads low, and a split at each sample offset puts the waiting
  // instant on every sampling phase, the CDR's decision phase included.
  // (Re-placing the rows at the old row length fails 22 of these lane
  // splits.)
  constexpr std::size_t kLanes = 3;
  const util::PrbsOrder orders[kLanes] = {
      util::PrbsOrder::kPrbs7, util::PrbsOrder::kPrbs9,
      util::PrbsOrder::kPrbs15};
  std::vector<analog::Waveform> waves;
  for (std::size_t l = 0; l < kLanes; ++l) {
    util::PrbsGenerator prbs(orders[l]);
    std::vector<std::uint8_t> bits = prbs.next_bits(160);
    if (l > 0) std::fill(bits.begin() + 10, bits.begin() + 26, 1);
    waves.push_back(analog::Waveform::nrz(bits, util::nanoseconds(0.5), 16,
                                          0.0, 1.8,
                                          util::picoseconds(100.0)));
  }
  const std::size_t total = waves[0].size();
  std::vector<double> tile(total * kLanes);
  for (std::size_t i = 0; i < total; ++i) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      tile[i * kLanes + l] = waves[l].samples()[i];
    }
  }
  pipe::SamplerCdrSink::Config c;
  c.symbol_rate = util::gigahertz(2.0);
  c.oversampling = 5;
  c.jitter.random_rms = util::picoseconds(2.0);
  c.jitter_seeds = {21, 22, 23};
  c.sampler_seeds = {31, 32, 33};
  c.total_samples = total;
  c.stream_t0 = waves[0].start_time();
  c.dt = waves[0].sample_period();
  c.block_samples = 256;  // a 512-sample window: the splits below fit it
  // No glitch vote, so one wrong sample at the decision phase shows in the
  // recovered bits.
  c.cdr.glitch_filter_radius = 0;

  // The batch reference, lane by lane.
  digital::MultiphaseClockGenerator clocks(c.symbol_rate, c.oversampling,
                                           c.phase_offset, c.ppm_offset);
  std::vector<std::vector<std::uint8_t>> want;
  for (std::size_t l = 0; l < kLanes; ++l) {
    channel::JitterModel::Config jc = c.jitter;
    jc.seed = c.jitter_seeds[l];
    channel::JitterModel jitter(jc);
    analog::DffSampler::Config sc = c.sampler;
    sc.seed = c.sampler_seeds[l];
    analog::DffSampler sampler(sc);
    digital::OversamplingCdr cdr(c.cdr);
    want.push_back(cdr.recover(
        digital::sample_waveform(waves[l], clocks, sampler, &jitter)));
    ASSERT_GT(want.back().size(), 100u) << "lane " << l;
  }

  for (std::size_t first = 200; first <= 380; ++first) {
    pipe::SamplerCdrSink sink(c);
    sink.consume(pipe::LaneView{tile.data(), first, kLanes, 0, c.stream_t0,
                                c.dt, false});
    sink.consume(pipe::LaneView{tile.data() + first * kLanes, total - first,
                                kLanes, first, c.stream_t0, c.dt, true});
    sink.finish();
    for (std::size_t l = 0; l < kLanes; ++l) {
      EXPECT_EQ(sink.recovered_bits(l), want[l])
          << "split " << first << ", lane " << l;
    }
  }
}

// ---- Probes: observers that leave the stream untouched ---------------------

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Lane `lane` of an interleaved stream (every sample when lanes == 1).
std::vector<double> lane_of(const std::vector<double>& x, std::size_t lanes,
                            std::size_t lane) {
  std::vector<double> out;
  for (std::size_t i = lane; i < x.size(); i += lanes) out.push_back(x[i]);
  return out;
}

/// The first `n` samples of `x` (all of them when it is shorter).
std::vector<double> head(const std::vector<double>& x, std::size_t n) {
  return {x.begin(),
          x.begin() + static_cast<std::ptrdiff_t>(std::min(n, x.size()))};
}

/// What a statistics probe keeps, computed directly.
struct DirectStats {
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  double sum = 0.0;
};

DirectStats direct_stats(const std::vector<double>& x) {
  DirectStats s;
  for (const double v : x) {
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
    s.sum += v;
  }
  return s;
}

/// Streams `tx` through a scalar pass; returns the concatenated output.
std::vector<double> run_pass(const core::ChainPlan& plan,
                             core::ChainPlan::Pass& pass,
                             const core::Launch& tx) {
  pipe::LevelPulseSource src = plan.source(tx);
  pipe::Block blk;
  std::vector<double> out;
  while (src.produce(blk, plan.block()) > 0) {
    const pipe::BlockView v = pass.pipeline.process(blk.view());
    out.insert(out.end(), v.data, v.data + v.size);
  }
  return out;
}

/// Streams `tx` through a tile pass; returns the interleaved output.
std::vector<double> run_tile(const core::ChainPlan& plan,
                             core::ChainPlan::TilePass& pass,
                             const core::Launch& tx) {
  pipe::LevelPulseSource src = plan.source(tx);
  pipe::Block blk;
  std::vector<double> out;
  while (src.produce(blk, plan.block()) > 0) {
    const pipe::LaneView v = pass.process(blk.view());
    out.insert(out.end(), v.data, v.data + v.size * v.lanes);
  }
  return out;
}

/// A chain where every probe position differs: noise, a CTLE, and the
/// NRZ RFI and restoring stages after it.
core::LinkConfig probed_chain_config(std::size_t block) {
  core::LinkConfig cfg = core::LinkConfig::paper_default();
  cfg.channel_noise_rms = 0.004;
  cfg.rx_ctle_boost = util::decibels(4.0);
  cfg.stream_block_samples = block;
  return cfg;
}

std::vector<std::uint8_t> probe_bits() {
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs7);
  return prbs.next_bits(300);  // 4800 samples
}

TEST(ChainPlanProbes, ScalarProbesObserveWithoutChangingTheStream) {
  const channel::LossyLineChannel line(
      channel::LossyLineChannel::Params{2.0, 10.0, 8.0}, kDt);
  constexpr std::size_t kCapture = 3001;
  for (const std::size_t block : {1u, 7u, 4096u, 16384u}) {
    const core::LinkConfig cfg = probed_chain_config(block);
    const core::Receiver rx(cfg);
    const core::ChainPlan plan(cfg, rx);
    const core::Launch tx = plan.launch(probe_bits());
    core::ChainPlan::PassOptions bare;
    bare.awgn_seed = 77;
    bare.mean = 0.012;
    core::ChainPlan::PassOptions probed = bare;
    probed.probes = core::ChainPlan::Probes::kAll;
    probed.capture = kCapture;
    probed.statistics = true;

    core::ChainPlan::Pass plain = plan.pass(line, tx, bare);
    core::ChainPlan::Pass with = plan.pass(line, tx, probed);
    ASSERT_NE(with.noisy, nullptr);
    ASSERT_NE(with.rfi, nullptr);
    ASSERT_NE(with.out, nullptr);
    const std::vector<double> out = run_pass(plan, plain, tx);
    EXPECT_TRUE(same_bits(run_pass(plan, with, tx), out)) << "block " << block;

    // The streams at the other probe positions, computed without probes:
    // the receiver input, and the RFI front end over the equalized stream.
    core::ChainPlan::PassOptions to_noisy = bare;
    to_noisy.stop = core::ChainPlan::Stop::kNoisy;
    core::ChainPlan::Pass noisy_pass = plan.pass(line, tx, to_noisy);
    const std::vector<double> noisy = run_pass(plan, noisy_pass, tx);
    core::ChainPlan::PassOptions to_eq = bare;
    to_eq.stop = core::ChainPlan::Stop::kEqualized;
    core::ChainPlan::Pass eq_pass = plan.pass(line, tx, to_eq);
    const std::vector<double> equalized = run_pass(plan, eq_pass, tx);
    pipe::RfiFrontEndStage rfi_stage(rx.rfi_stage(), kDt);
    rfi_stage.set_mean(bare.mean);
    pipe::Block eq_block;
    eq_block.samples() = equalized;
    pipe::Block rfi_block;
    rfi_stage.process(eq_block.view(), rfi_block);
    const std::vector<double>& rfi = rfi_block.samples();

    const std::pair<pipe::WaveformTap*, const std::vector<double>*> probes[] =
        {{with.noisy, &noisy}, {with.rfi, &rfi}, {with.out, &out}};
    for (const auto& [tap, stream] : probes) {
      const DirectStats direct = direct_stats(*stream);
      EXPECT_EQ(tap->min(), direct.min) << "block " << block;
      EXPECT_EQ(tap->max(), direct.max) << "block " << block;
      EXPECT_EQ(tap->sum(), direct.sum) << "block " << block;
      const analog::Waveform captured = tap->take();
      EXPECT_TRUE(same_bits(captured.samples(), head(*stream, kCapture)))
          << "block " << block;
      EXPECT_EQ(captured.sample_period().value(), kDt.value());
    }
  }
}

TEST(ChainPlanProbes, LaneTileProbesObserveWithoutChangingTheStream) {
  const channel::LossyLineChannel line(
      channel::LossyLineChannel::Params{2.0, 10.0, 8.0}, kDt);
  const std::vector<std::uint64_t> seeds = {11, 12, 13, 14, 15, 16, 17, 18};
  const std::vector<double> means(seeds.size(), 0.012);
  constexpr std::size_t kCapture = 3001;
  for (const std::size_t block : {1u, 7u, 4096u, 16384u}) {
    const core::LinkConfig cfg = probed_chain_config(block);
    const core::Receiver rx(cfg);
    const core::ChainPlan plan(cfg, rx);
    const core::Launch tx = plan.launch(probe_bits());
    core::ChainPlan::TilePass plain =
        plan.tile_pass(line, tx, seeds, core::ChainPlan::Stop::kSlicer, means,
                       core::ChainPlan::Probes::kNone, 0, false);
    core::ChainPlan::TilePass with =
        plan.tile_pass(line, tx, seeds, core::ChainPlan::Stop::kSlicer, means,
                       core::ChainPlan::Probes::kAll, kCapture, true);
    core::ChainPlan::TilePass noisy_pass =
        plan.tile_pass(line, tx, seeds, core::ChainPlan::Stop::kNoisy, means,
                       core::ChainPlan::Probes::kNone, 0, false);
    const std::vector<double> out = run_tile(plan, plain, tx);
    EXPECT_TRUE(same_bits(run_tile(plan, with, tx), out)) << "block " << block;
    const std::vector<double> noisy = run_tile(plan, noisy_pass, tx);

    for (std::size_t l = 0; l < seeds.size(); ++l) {
      const std::pair<pipe::LaneWaveformTap*, const std::vector<double>*>
          probes[] = {{with.noisy, &noisy}, {with.out, &out}};
      for (const auto& [tap, tile] : probes) {
        const std::vector<double> stream = lane_of(*tile, seeds.size(), l);
        const DirectStats direct = direct_stats(stream);
        const std::string where =
            "block " + std::to_string(block) + " lane " + std::to_string(l);
        EXPECT_EQ(tap->min(l), direct.min) << where;
        EXPECT_EQ(tap->max(l), direct.max) << where;
        EXPECT_EQ(tap->sum(l), direct.sum) << where;
        EXPECT_TRUE(same_bits(tap->take(l).samples(), head(stream, kCapture)))
            << where;
      }
    }
  }
}

// ---- Crosstalk and the PAM4 first pass: shared work, same bits -----------

TEST(XtalkInjectStage, SharedLaunchesMatchOneSourceAndStreamPerPath) {
  const channel::LossyLineChannel line(
      channel::LossyLineChannel::Params{2.0, 10.0, 8.0}, kDt);
  const util::Second ui = util::nanoseconds(0.5);
  const int spu = 16;
  const util::Second rise = util::picoseconds(100.0);
  const util::Second t0 = util::picoseconds(40.0);
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs7);
  std::vector<double> levels;
  for (const std::uint8_t b : prbs.next_bits(200)) {
    levels.push_back(b ? 1.8 : 0.0);
  }
  // Three paths share the launch at delay 1 (two of them its FEXT stream),
  // and the path at delay 2 sits between them in the order.
  const std::vector<pipe::XtalkInjectStage::Path> paths = {
      {1, 0.03, true}, {1, 0.01, false}, {2, -0.02, true}, {1, 0.015, true}};

  // The victim's post-channel stream.
  pipe::LevelPulseSource victim(levels, ui, spu, rise, t0);
  pipe::Block in;
  victim.produce(in, victim.total_samples());
  line.open_stream()->transmit_block(in.data(), in.data(), in.size());

  // Reference: one source and, for FEXT, one channel stream per path, each
  // added in path order.
  std::vector<double> want = in.samples();
  for (const pipe::XtalkInjectStage::Path& path : paths) {
    std::vector<double> delayed(static_cast<std::size_t>(path.delay_ui), 0.0);
    delayed.insert(delayed.end(), levels.begin(), levels.end());
    pipe::LevelPulseSource src(delayed, ui, spu, rise, t0);
    pipe::Block contrib;
    ASSERT_EQ(src.produce(contrib, want.size()), want.size());
    if (path.through_channel) {
      line.open_stream()->transmit_block(contrib.data(), contrib.data(),
                                         contrib.size());
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      want[i] += path.gain * contrib.samples()[i];
    }
  }

  for (const std::size_t block : {1u, 7u, 4096u}) {
    pipe::XtalkInjectStage stage(levels, paths, line, ui, spu, rise, t0);
    std::vector<double> got;
    pipe::Block out;
    for (std::size_t pos = 0; pos < in.size(); pos += block) {
      const std::size_t n = std::min(block, in.size() - pos);
      stage.process(pipe::BlockView{in.data() + pos, n, pos, t0, kDt,
                                    pos + n == in.size()},
                    out);
      got.insert(got.end(), out.samples().begin(), out.samples().end());
    }
    expect_same_bits(got, want, ("block " + std::to_string(block)).c_str());
  }
}

TEST(ChainPlanFirstPass, Pam4SharedFrontMatchesTwoSeparatePipelines) {
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs7);
  const std::vector<std::uint8_t> bits = prbs.next_bits(600);
  const auto bits_of = [](double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  for (const bool ctle : {false, true}) {
    for (const bool xtalk : {false, true}) {
      core::LinkConfig cfg = core::LinkConfig::paper_default();
      cfg.modulation = core::LinkConfig::Modulation::kPam4;
      cfg.channel_noise_rms = 0.004;
      cfg.rx_ctle_boost = util::decibels(ctle ? 4.0 : 0.0);
      if (xtalk) {
        cfg.xtalk = {{0.05, true, 1}, {0.02, false, 1}, {0.03, true, 2}};
      }
      cfg.stream_block_samples = 1000;
      const channel::LossyLineChannel line(
          channel::LossyLineChannel::Params{2.0, 10.0, 8.0},
          cfg.sample_period());
      const core::Receiver rx(cfg);
      const core::ChainPlan plan(cfg, rx);
      const core::Launch tx = plan.launch(bits);
      const core::FirstPass got = plan.first_pass(line, tx, 77);

      // The noisy receiver input and the noise-free equalized stream, each
      // through its own channel and crosstalk.
      core::ChainPlan::PassOptions noisy_options;
      noisy_options.stop = core::ChainPlan::Stop::kNoisy;
      noisy_options.awgn_seed = 77;
      noisy_options.probes = core::ChainPlan::Probes::kAll;
      noisy_options.statistics = true;
      core::ChainPlan::PassOptions clean_options = noisy_options;
      clean_options.stop = core::ChainPlan::Stop::kEqualized;
      clean_options.awgn_seed.reset();
      core::ChainPlan::Pass noisy = plan.pass(line, tx, noisy_options);
      core::ChainPlan::Pass clean = plan.pass(line, tx, clean_options);
      (void)run_pass(plan, noisy, tx);
      (void)run_pass(plan, clean, tx);

      const std::string where = std::string(ctle ? "ctle" : "no ctle") +
                                (xtalk ? ", xtalk" : ", no xtalk");
      EXPECT_EQ(bits_of(got.swing_pp),
                bits_of(noisy.noisy->max() - noisy.noisy->min()))
          << where;
      EXPECT_EQ(bits_of(got.clean_min), bits_of(clean.out->min())) << where;
      EXPECT_EQ(bits_of(got.clean_max), bits_of(clean.out->max())) << where;
      EXPECT_LT(got.clean_min, got.clean_max) << where;
    }
  }
}

/// End-to-end: SerDesLink::run and the whole-waveform reference must
/// match exactly, including captured waveforms and CDR diagnostics.
void expect_identical_runs(core::LinkConfig cfg, const api::ChannelSpec& ch,
                           std::size_t payload_bits,
                           std::size_t block_samples) {
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs15);
  const auto payload = prbs.next_bits(payload_bits);

  cfg.capture_waveforms = true;
  cfg.stream_block_samples = block_samples;
  const core::LinkResult reference = whole_waveform::run(
      cfg, *api::ChannelFactory::instance().create(ch, cfg), payload, 0);
  core::SerDesLink stream_link(
      cfg, api::ChannelFactory::instance().create(ch, cfg));
  const core::LinkResult streamed = stream_link.run(payload);

  EXPECT_EQ(reference.aligned, streamed.aligned);
  EXPECT_EQ(reference.bit_errors, streamed.bit_errors);
  EXPECT_EQ(reference.payload_bits_compared, streamed.payload_bits_compared);
  EXPECT_EQ(reference.ber, streamed.ber);
  EXPECT_EQ(reference.rx_swing_pp, streamed.rx_swing_pp);
  EXPECT_EQ(reference.rx.recovered_bits, streamed.rx.recovered_bits);
  EXPECT_EQ(reference.rx.payload, streamed.rx.payload);
  EXPECT_EQ(reference.rx.frames, streamed.rx.frames);
  EXPECT_EQ(reference.rx.cdr_decision_phase, streamed.rx.cdr_decision_phase);
  EXPECT_EQ(reference.rx.cdr_phase_updates, streamed.rx.cdr_phase_updates);
  EXPECT_EQ(reference.rx.metastable_samples, streamed.rx.metastable_samples);
  EXPECT_EQ(reference.decision_threshold, streamed.decision_threshold);
  expect_identical(reference.tx_out, streamed.tx_out, "tx_out");
  expect_identical(reference.channel_out, streamed.channel_out, "channel_out");
  expect_identical(reference.rx.rfi_out, streamed.rx.rfi_out, "rfi_out");
  expect_identical(reference.rx.restored, streamed.rx.restored, "restored");
}

TEST(LinkStreaming, BitIdenticalToBatchForEveryChannelKind) {
  for (const auto& ch : all_channel_kinds()) {
    expect_identical_runs(core::LinkConfig::paper_default(), ch, 512, 16384);
  }
}

TEST(LinkStreaming, BitIdenticalAcrossBlockSizes) {
  const auto ch = api::ChannelSpec::flat(34.0);
  for (std::size_t block : {std::size_t{1}, std::size_t{7},
                            std::size_t{4096}, std::size_t{1} << 20}) {
    expect_identical_runs(core::LinkConfig::paper_default(), ch, 256, block);
  }
}

TEST(LinkStreaming, BitIdenticalWithEqualizationAndImpairments) {
  core::LinkConfig cfg = core::LinkConfig::paper_default();
  cfg.tx_ffe_deemphasis = 0.15;
  cfg.rx_ctle_boost = util::decibels(4.0);
  cfg.rx_sinusoidal_jitter = util::picoseconds(3.0);
  cfg.ppm_offset = 150.0;
  expect_identical_runs(cfg, api::ChannelSpec::lossy_line(2.0, 14.0, 10.0),
                        512, 2048);
}

TEST(SimulatorStreaming, ReportsInvariantToBlockSize) {
  // Whole serialized reports, captured waveforms included, must not depend
  // on the block size (the goldens pin the bytes at the default).  The
  // spec echo is the one field that differs.
  api::LinkSpec spec;
  spec.payload_bits = 8192;
  spec.chunk_bits = 2048;
  spec.channel = api::ChannelSpec::flat(34.0);
  spec.capture_waveforms = true;
  const api::Simulator sim;
  const std::string reference = api::to_json(sim.run(spec)).dump();
  for (std::uint64_t block : {std::uint64_t{1024}, std::uint64_t{7}}) {
    api::LinkSpec blocked = spec;
    blocked.stream_block_samples = block;
    api::RunReport report = sim.run(blocked);
    report.spec = spec;
    EXPECT_EQ(api::to_json(report).dump(), reference) << block;
  }
}

// ---- Resumed pass 2: pass 1's kept output against a re-run front ----------

/// Samples in one lane's stream of a `spec` chunk, and whether its pass 2
/// resumes from pass 1's output at the spec's block size.
std::pair<std::uint64_t, bool> chunk_stream(const api::LinkSpec& spec) {
  const core::LinkConfig cfg = spec.to_link_config();
  const core::Receiver rx(cfg);
  const core::ChainPlan plan(cfg, rx);
  util::PrbsGenerator prbs(spec.prbs_order);
  const core::Launch tx = plan.launch(core::Transmitter(cfg).wire_bits(
      prbs.next_bits(static_cast<std::size_t>(spec.chunk_bits))));
  return {plan.source(tx).total_samples(), plan.resumes(tx)};
}

/// Serialized reports of `run` over `spec` at the default block size and at
/// blocks 1024 and 7, with the spec echo reset to `spec`'s.
template <class Run>
std::vector<std::string> reports_per_block(const api::LinkSpec& spec,
                                           const Run& run) {
  std::vector<std::string> out;
  for (const std::uint64_t block :
       {spec.stream_block_samples, std::uint64_t{1024}, std::uint64_t{7}}) {
    api::LinkSpec blocked = spec;
    blocked.stream_block_samples = block;
    out.push_back(run(blocked));
  }
  return out;
}

/// One 1024-bit chunk with a CTLE, so a resumed NRZ pass 2 starts at the
/// RFI and a resumed PAM4 pass 2 at the CTLE.
api::LinkSpec short_chunk_spec() {
  api::LinkSpec spec;
  spec.payload_bits = 2048;
  spec.chunk_bits = 1024;
  spec.channel = api::ChannelSpec::flat(30.0);
  spec.noise_rms_v = 0.002;
  spec.rx_ctle_boost_db = 4.0;
  return spec;
}

TEST(SimulatorStreaming, ResumedReportsMatchReRunReports) {
  // The short-chunk twin of ReportsInvariantToBlockSize: a 1024-bit
  // chunk's stream (1312 wire bits x 16 = 20992 samples) fits in two
  // default blocks, so pass 2 resumes from pass 1's output there, while
  // blocks of 1024 and 7 re-run the front.  Whole reports must agree.
  const api::Simulator sim;
  const auto scalar = [&](const api::LinkSpec& s) {
    api::RunReport r = sim.run(s);
    r.spec.stream_block_samples = 0;
    return api::to_json(r).dump();
  };
  const auto check = [&](const api::LinkSpec& spec, const std::string& what,
                         const auto& run) {
    ASSERT_TRUE(chunk_stream(spec).second) << what;
    api::LinkSpec rerun = spec;
    rerun.stream_block_samples = 1024;
    ASSERT_FALSE(chunk_stream(rerun).second) << what;
    const std::vector<std::string> r = reports_per_block(spec, run);
    EXPECT_EQ(r[1], r[0]) << what << ", block 1024";
    EXPECT_EQ(r[2], r[0]) << what << ", block 7";
  };

  for (const bool capture : {false, true}) {
    api::LinkSpec spec = short_chunk_spec();
    spec.capture_waveforms = capture;
    check(spec, capture ? "NRZ, capture" : "NRZ", scalar);
    spec.dfe_taps = {0.04, 0.015, 0.005};
    check(spec, capture ? "DFE, capture" : "DFE", scalar);
  }

  // PAM4 lanes of a coupled bus (FEXT and NEXT), with and without a CTLE.
  for (const double boost : {0.0, 4.0}) {
    for (const bool capture : {false, true}) {
      api::LinkSpec base = short_chunk_spec();
      base.modulation = "pam4";
      base.channel = api::ChannelSpec::flat(4.0);
      base.noise_rms_v = 0.005;
      base.preamble_bits = 256;
      base.rx_ctle_boost_db = boost;
      base.capture_waveforms = capture;
      const auto bus = [&](const api::LinkSpec& s) {
        api::BusSpec b;
        b.lanes = 3;
        b.base = s;
        b.coupling = {{0, 0.03, 0}, {0.03, 0, 0.03}, {0, 0.03, 0}};
        b.next_coupling = {{0, 0.01, 0}, {0.01, 0, 0.01}, {0, 0.01, 0}};
        api::BusReport r = sim.run_bus(b, 1);
        for (api::RunReport& lane : r.lanes) {
          lane.spec.stream_block_samples = 0;
        }
        return api::to_json(r).dump();
      };
      check(base,
            "PAM4 bus, CTLE " + std::to_string(boost) +
                (capture ? ", capture" : ""),
            bus);
    }
  }

  // A 3-lane tile through run_batch.
  for (const bool capture : {false, true}) {
    api::LinkSpec spec = short_chunk_spec();
    spec.lane_batch = 3;
    spec.capture_waveforms = capture;
    ASSERT_TRUE(api::Simulator::tile_eligible(spec));
    const auto tile = [&](const api::LinkSpec& s) {
      std::string all;
      for (api::RunReport& r :
           sim.run_batch(std::vector<api::LinkSpec>(3, s), 1)) {
        r.spec.stream_block_samples = 0;
        all += api::to_json(r).dump();
      }
      return all;
    };
    check(spec, capture ? "3-lane tile, capture" : "3-lane tile", tile);
  }
}

TEST(SimulatorStreaming, ResumesUpToTwoBlocksOfStream) {
  // The rule's boundary: a stream of exactly two blocks resumes, one of
  // two blocks and a sample re-runs, and both report as a re-run does.
  const api::Simulator sim;
  api::LinkSpec even = short_chunk_spec();  // 20992 samples
  even.stream_block_samples = 10496;
  api::LinkSpec odd = short_chunk_spec();   // 1311 wire bits x 15 = 19665
  odd.payload_bits = 1023;
  odd.chunk_bits = 1023;
  odd.samples_per_ui = 15;
  odd.stream_block_samples = 9832;
  const std::pair<api::LinkSpec, bool> cases[] = {{even, true},
                                                  {odd, false}};
  for (const auto& [spec, resumes] : cases) {
    const auto [samples, resumed] = chunk_stream(spec);
    const std::string what = std::to_string(samples) + " samples, block " +
                             std::to_string(spec.stream_block_samples);
    EXPECT_EQ(samples, 2 * spec.stream_block_samples + (resumes ? 0 : 1))
        << what;
    EXPECT_EQ(resumed, resumes) << what;
    api::LinkSpec rerun = spec;
    rerun.stream_block_samples = 7;
    api::RunReport a = sim.run(spec);
    api::RunReport b = sim.run(rerun);
    a.spec = b.spec;
    EXPECT_EQ(api::to_json(a).dump(), api::to_json(b).dump()) << what;
  }
}

TEST(SimulatorStreaming, DiagnosticCaptureIsBoundedOnDeepChunks) {
  // Capture memory must not scale with chunk depth: the tap stages retain
  // only the diagnostic window however deep the (single) chunk is.
  api::LinkSpec spec;
  spec.payload_bits = 100000;
  spec.chunk_bits = 100000;
  spec.capture_waveforms = true;
  const api::Simulator sim;
  const api::RunReport r = sim.run(spec);
  const auto cap = static_cast<std::size_t>(
      sim.options().diagnostic_window_uis *
      static_cast<std::uint64_t>(spec.samples_per_ui));
  EXPECT_GT(r.restored.size(), 0u);
  EXPECT_LE(r.restored.size(), cap);
  EXPECT_LE(r.tx_out.size(), cap);
  EXPECT_LE(r.channel_out.size(), cap);
  EXPECT_TRUE(r.aligned);
}

// ---- SlowDeep tier: nightly-depth streaming equivalence -------------------

TEST(SlowDeep, StreamingMatchesBatchAtOneMillionBits) {
  // One 2^20-bit chunk through SerDesLink and the whole-waveform reference
  // — the O(block) vs O(chunk) memory regimes — must agree on every
  // observable, including the diagnostic window api::Simulator folds its
  // eye from.
  api::LinkSpec spec;
  spec.payload_bits = 1u << 20;
  spec.chunk_bits = 1u << 20;
  spec.channel = api::ChannelSpec::flat(34.0);
  spec.noise_rms_v = 0.004;  // measurable-BER point: errors must agree too
  const api::Simulator::Options options;
  core::LinkConfig cfg = spec.to_link_config();
  cfg.capture_waveforms = true;
  cfg.capture_max_samples = static_cast<std::size_t>(
      options.diagnostic_window_uis *
      static_cast<std::uint64_t>(cfg.samples_per_ui));
  util::PrbsGenerator prbs(spec.prbs_order);
  const auto payload = prbs.next_bits(spec.payload_bits);

  const core::LinkResult reference = whole_waveform::run(
      cfg, *api::ChannelFactory::instance().create(spec.channel, cfg),
      payload, 0);
  core::SerDesLink link(
      cfg, api::ChannelFactory::instance().create(spec.channel, cfg));
  const core::LinkResult streamed = link.run(payload);

  EXPECT_EQ(reference.aligned, streamed.aligned);
  EXPECT_EQ(reference.payload_bits_compared, streamed.payload_bits_compared);
  EXPECT_EQ(reference.bit_errors, streamed.bit_errors);
  EXPECT_EQ(reference.ber, streamed.ber);
  EXPECT_EQ(reference.rx.cdr_decision_phase, streamed.rx.cdr_decision_phase);
  EXPECT_EQ(reference.rx.cdr_phase_updates, streamed.rx.cdr_phase_updates);
  EXPECT_EQ(reference.rx_swing_pp, streamed.rx_swing_pp);
  expect_identical(reference.rx.restored, streamed.rx.restored, "restored");
  const core::EyeAnalyzer eye(cfg.bit_rate, options.eye_bins_per_ui);
  EXPECT_EQ(eye.analyze(reference.rx.restored, reference.decision_threshold)
                .eye_height,
            eye.analyze(streamed.rx.restored, streamed.decision_threshold)
                .eye_height);
  EXPECT_GT(reference.payload_bits_compared, (1u << 20) - 8u);
}

}  // namespace
}  // namespace serdes
