// Microbenchmarks of the simulation kernels: how fast the library itself
// runs (not a paper figure — engineering data for users).
//
// Self-contained timing harness (no external benchmark dependency, so this
// always builds) that prints a table and writes machine-readable
// BENCH_perf.json — {name, items_per_s, ns_per_item, ...} per kernel — so
// the performance trajectory is tracked across PRs.
//
// The headline entry is the deep BER kernel: one Simulator::run over a
// single 2^20-bit chunk, with the process peak-RSS sampled around it so
// the O(block) memory behaviour is visible in the JSON.  The stage_*
// entries time each streaming-datapath kernel in isolation
// (items = waveform samples) so a regression localizes to the stage that
// caused it, and the fir513 direct-vs-fft pair tracks the overlap-save
// crossover the dsp engine's BlockFir::use_fft constants encode.
//
// Usage: bench_perf_kernels [output.json] [--deep-bits=N]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "analog/rfi.h"
#include "api/api.h"
#include "channel/channel.h"
#include "core/eye.h"
#include "core/link.h"
#include "core/receiver.h"
#include "digital/cdr.h"
#include "dsp/convolution.h"
#include "dsp/fft.h"
#include "flow/place.h"
#include "flow/power.h"
#include "flow/rtlgen.h"
#include "flow/sta.h"
#include "api/bus_spec.h"
#include "opt/optimizer.h"
#include "pipe/lane_block.h"
#include "pipe/lane_stages.h"
#include "pipe/pam_stages.h"
#include "pipe/stages.h"
#include "stat/stat_engine.h"
#include "util/fs.h"
#include "util/parallel.h"
#include "util/prbs.h"
#include "util/random.h"

#include "../tests/level_pulse_reference.h"
#include "../tests/mixture_reference.h"

namespace {

using namespace serdes;

struct BenchResult {
  std::string name;
  std::uint64_t items = 0;     // per iteration
  std::uint64_t iterations = 0;
  double seconds = 0.0;
  double peak_rss_kb = 0.0;    // VmHWM after the run (0 if unavailable)

  [[nodiscard]] double items_per_s() const {
    return seconds > 0.0
               ? static_cast<double>(items * iterations) / seconds
               : 0.0;
  }
  [[nodiscard]] double ns_per_item() const {
    const double total = static_cast<double>(items * iterations);
    return total > 0.0 ? seconds * 1e9 / total : 0.0;
  }
};

double read_peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr);
    }
  }
  return 0.0;
}

/// Runs `fn` repeatedly until `min_seconds` of wall time accumulates
/// (at least once), then records throughput.
template <class F>
BenchResult run_bench(std::vector<BenchResult>& results, std::string name,
                      std::uint64_t items_per_iter, F&& fn,
                      double min_seconds = 0.25) {
  using clock = std::chrono::steady_clock;
  fn();  // warmup (excluded)
  BenchResult r;
  r.name = std::move(name);
  r.items = items_per_iter;
  const auto start = clock::now();
  do {
    fn();
    ++r.iterations;
    r.seconds =
        std::chrono::duration<double>(clock::now() - start).count();
  } while (r.seconds < min_seconds);
  r.peak_rss_kb = read_peak_rss_kb();
  std::printf("%-34s %12.0f items/s %12.1f ns/item  (%llu x %llu items)\n",
              r.name.c_str(), r.items_per_s(), r.ns_per_item(),
              static_cast<unsigned long long>(r.iterations),
              static_cast<unsigned long long>(r.items));
  std::fflush(stdout);
  results.push_back(r);
  return r;
}

void write_json(const std::vector<BenchResult>& results,
                const std::string& path) {
  // Atomic replace: the perf-floor gate parses this artifact, so a bench
  // killed mid-write must not leave truncated JSON behind.
  std::string text = "{\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"items_per_s\": %.1f, "
                  "\"ns_per_item\": %.3f, \"items\": %llu, "
                  "\"iterations\": %llu, \"seconds\": %.6f, "
                  "\"peak_rss_kb\": %.0f}%s\n",
                  r.name.c_str(), r.items_per_s(), r.ns_per_item(),
                  static_cast<unsigned long long>(r.items),
                  static_cast<unsigned long long>(r.iterations), r.seconds,
                  r.peak_rss_kb, i + 1 < results.size() ? "," : "");
    text += buf;
  }
  text += "  ]\n}\n";
  serdes::util::atomic_write_file(path, text);
  std::printf("wrote %s\n", path.c_str());
}

api::LinkSpec deep_ber_spec(std::uint64_t bits) {
  api::LinkSpec spec;
  spec.name = "deep_ber_streaming";
  spec.payload_bits = bits;
  spec.chunk_bits = bits;  // one chunk: the memory-behaviour stress case
  spec.prbs_order = util::PrbsOrder::kPrbs15;
  return spec;
}

// ---- Per-stage kernels ------------------------------------------------------
// One entry per streaming-datapath stage (items = waveform samples), so a
// regression in BENCH_perf.json localizes to the kernel that caused it.

void bench_stage_kernels(std::vector<BenchResult>& results) {
  const auto cfg = core::LinkConfig::paper_default();
  const std::size_t block = 16384;
  const std::size_t nblocks = 8;
  const std::size_t nsamp = block * nblocks;
  const int spu = cfg.samples_per_ui;

  {
    // The bare generator step: the baseline of rng_gaussian's ratio gate
    // in bench/check_perf_floors.py.
    util::Rng rng(42);
    run_bench(results, "rng_u64", 65536, [&] {
      std::uint64_t acc = 0;
      for (int i = 0; i < 65536; ++i) acc ^= rng.next_u64();
      volatile std::uint64_t sink = acc;
      (void)sink;
    });
  }
  {
    util::Rng rng(42);
    run_bench(results, "rng_gaussian", 65536, [&] {
      double acc = 0.0;
      for (int i = 0; i < 65536; ++i) acc += rng.gaussian();
      volatile double sink = acc;
      (void)sink;
    });
  }

  {
    util::PrbsGenerator prbs(util::PrbsOrder::kPrbs15);
    const auto bits = prbs.next_bits(nsamp / spu);
    std::vector<double> levels(bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
      levels[i] = bits[i] ? 1.8 : 0.0;
    }
    pipe::LevelPulseSource src(levels, cfg.unit_interval(), spu,
                               util::picoseconds(100.0), util::seconds(0.0));
    pipe::Block blk;
    run_bench(results, "stage_source_sample", nsamp, [&] {
      src.reset();
      while (src.produce(blk, block) > 0) {
      }
    });
    // The same launch through the quotient loop the source replaced
    // (tests/level_pulse_reference.h): a division per sample to find its
    // bit.  The baseline of stage_source_sample's ratio gate.
    level_pulse_reference::QuotientSource quotient(
        levels, cfg.unit_interval(), spu, util::picoseconds(100.0),
        util::seconds(0.0));
    run_bench(results, "stage_source_quotient_sample", nsamp, [&] {
      quotient.reset();
      while (quotient.produce(blk, block) > 0) {
      }
    });
    // A bus victim's crosstalk: four paths at one delay (two FEXT through
    // a flat channel, two NEXT) share one launch and one channel stream.
    // The stage holds no reset, so each pass builds a fresh one.
    const channel::FlatChannel flat(util::decibels(34.0));
    const std::vector<pipe::XtalkInjectStage::Path> paths = {
        {1, 0.02, true}, {1, 0.01, false}, {1, 0.02, true}, {1, 0.01, false}};
    pipe::Block victim;
    victim.samples().assign(block, 0.5);
    pipe::Block out;
    run_bench(results, "stage_xtalk4_sample", nsamp, [&] {
      pipe::XtalkInjectStage xtalk(levels, paths, flat, cfg.unit_interval(),
                                   spu, util::picoseconds(100.0),
                                   util::seconds(0.0));
      for (std::size_t i = 0; i < nsamp; i += block) {
        victim.set_start_index(i);
        xtalk.process(victim.view(), out);
      }
    });
  }

  const auto channel_bench = [&](const char* name,
                                 const channel::Channel& ch) {
    const auto stream = ch.open_stream();
    // Separate in/out buffers: transmitting in place would decay the
    // signal through denormals to zeros across iterations and time an
    // unrepresentative data regime.
    const std::vector<double> buf(nsamp, 0.5);
    std::vector<double> out(nsamp, 0.0);
    run_bench(results, name, nsamp, [&] {
      for (std::size_t i = 0; i < nsamp; i += block) {
        stream->transmit_block(buf.data() + i, out.data() + i, block);
      }
    });
  };
  channel_bench("stage_channel_flat_sample",
                channel::FlatChannel(util::decibels(34.0)));
  {
    // The paper-default FIR configuration: UI-spaced taps left strided
    // (samples_per_tap = samples_per_ui), so 4 MACs/sample instead of 64.
    std::vector<double> ui_taps = {0.1, 0.7, 0.25, -0.1};
    channel_bench("stage_channel_fir_ui4x16_sample",
                  channel::FirChannel(ui_taps, 16, /*dsp=*/false));
    std::vector<double> taps64(64, 0.01);
    channel_bench("stage_channel_fir64_direct_sample",
                  channel::FirChannel(taps64, 1, /*dsp=*/false));
    std::vector<double> taps513(513, 0.002);
    channel_bench("stage_channel_fir513_direct_sample",
                  channel::FirChannel(taps513, 1, /*dsp=*/false));
    channel_bench("stage_channel_fir513_fft_sample",
                  channel::FirChannel(taps513, 1, /*dsp=*/true));
  }
  {
    channel::LossyLineChannel::Params p;
    p.dc_loss_db = 2.0;
    p.skin_loss_db_at_1ghz = 10.0;
    p.dielectric_loss_db_at_1ghz = 8.0;
    channel_bench("stage_channel_lossy_sample",
                  channel::LossyLineChannel(p, cfg.sample_period()));
  }

  // The receive stages as a link runs them: the lane stages' one-lane
  // case.
  const auto stage_bench = [&](const char* name, pipe::LaneStage& stage,
                               double fill) {
    pipe::LaneBlock in;
    in.shape(block, 1, 0, util::seconds(0.0), cfg.sample_period(), false);
    std::fill_n(in.data(), block, fill);
    pipe::LaneBlock out;
    run_bench(results, name, nsamp, [&] {
      for (std::size_t i = 0; i < nsamp; i += block) {
        stage.process(in.view(), out);
      }
    });
  };
  {
    pipe::LaneAwgnStage awgn(0.001, {1234});
    stage_bench("stage_awgn_sample", awgn, 0.5);
  }
  {
    pipe::LaneCtleStage ctle(util::decibels(4.0), util::megahertz(700.0),
                             cfg.sample_period(), 1);
    stage_bench("stage_ctle_sample", ctle, 0.5);
  }
  core::Receiver rx(cfg);
  {
    pipe::LaneRfiStage rfi(rx.rfi_stage(), cfg.sample_period(), 1);
    rfi.set_mean(0, 0.0005);
    stage_bench("stage_rfi_sample", rfi, 0.0005);
  }
  {
    pipe::LaneRestoreStage restore(rx.restoring(), cfg.sample_period(), 1);
    stage_bench("stage_restore_sample", restore, 0.9);
  }

  {
    pipe::SamplerCdrSink::Config sc;
    sc.symbol_rate = cfg.bit_rate;
    sc.oversampling = cfg.cdr.oversampling;
    sc.jitter.random_rms = cfg.rx_random_jitter;
    sc.total_samples = nsamp;
    sc.dt = cfg.sample_period();
    sc.block_samples = block;
    run_bench(results, "stage_sampler_cdr_sample", nsamp, [&] {
      pipe::SamplerCdrSink sink(sc);
      pipe::Block in;
      in.samples().assign(block, 0.9);
      for (std::size_t i = 0; i < nsamp; i += block) {
        in.set_start_index(i);
        sink.consume(in.view());
      }
      sink.finish();
    });
  }

  {
    // The PAM4 terminal sink: three slicers + gray decode + dual-rail CDR
    // per sampling instant, against the symbol clock (bit_rate / 2).  The
    // constant input sits inside the upper sub-eye so all three slicers
    // run their comparison path.
    pipe::SamplerCdrSink::Config pc;
    pc.symbol_rate = util::hertz(cfg.bit_rate.value() / 2.0);
    pc.oversampling = cfg.cdr.oversampling;
    pc.jitter.random_rms = cfg.rx_random_jitter;
    pc.pam4 = true;
    pc.threshold_low = 0.6;
    pc.sampler.threshold = 0.9;
    pc.threshold_high = 1.2;
    pc.total_samples = nsamp;
    pc.dt = cfg.sample_period();
    pc.block_samples = block;
    run_bench(results, "stage_pam4_slicer_sample", nsamp, [&] {
      pipe::SamplerCdrSink sink(pc);
      pipe::Block in;
      in.samples().assign(block, 1.1);
      for (std::size_t i = 0; i < nsamp; i += block) {
        in.set_start_index(i);
        sink.consume(in.view());
      }
      sink.finish();
    });
  }

  // ---- Lane-batched (SoA) kernels: 8 lanes, items = lane-samples ----------
  // Each is the stage_* kernel above across an 8-lane tile; the floors pin
  // the vectorization win (per-lane throughput must beat 1/8 of a wide
  // margin over the scalar kernel, not merely match it).
  {
    constexpr std::size_t kLanes = 8;
    std::vector<std::uint64_t> lane_seeds;
    for (std::size_t l = 0; l < kLanes; ++l) lane_seeds.push_back(1000 + l);

    pipe::LaneBlock tile;
    tile.shape(block, kLanes, 0, util::seconds(0.0), cfg.sample_period(),
               false);
    const auto fill_tile = [&](double v) {
      double* d = tile.data();
      for (std::size_t i = 0; i < block * kLanes; ++i) d[i] = v;
    };
    pipe::LaneBlock out_tile;

    {
      pipe::Block shared;
      shared.samples().assign(block, 0.5);
      pipe::LaneAwgnStage awgn(0.001, lane_seeds);
      run_bench(results, "stage_awgn_lanes8_sample", nsamp * kLanes, [&] {
        for (std::size_t i = 0; i < nsamp; i += block) {
          awgn.process(pipe::as_tile(shared.view()), out_tile);
        }
      });
    }
    {
      pipe::LaneCtleStage ctle(util::decibels(4.0), util::megahertz(700.0),
                               cfg.sample_period(), kLanes);
      fill_tile(0.5);
      run_bench(results, "stage_ctle_lanes8_sample", nsamp * kLanes, [&] {
        for (std::size_t i = 0; i < nsamp; i += block) {
          ctle.process(tile.view(), out_tile);
        }
      });
    }
    {
      pipe::LaneRfiStage rfi(rx.rfi_stage(), cfg.sample_period(), kLanes);
      for (std::size_t l = 0; l < kLanes; ++l) rfi.set_mean(l, 0.0005);
      fill_tile(0.0005);
      run_bench(results, "stage_rfi_lanes8_sample", nsamp * kLanes, [&] {
        for (std::size_t i = 0; i < nsamp; i += block) {
          rfi.process(tile.view(), out_tile);
        }
      });
    }
    {
      pipe::LaneRestoreStage restore(rx.restoring(), cfg.sample_period(),
                                     kLanes);
      fill_tile(0.9);
      run_bench(results, "stage_restore_lanes8_sample", nsamp * kLanes, [&] {
        for (std::size_t i = 0; i < nsamp; i += block) {
          restore.process(tile.view(), out_tile);
        }
      });
    }
    {
      // Interleaved-history lane FIR: the lane counterpart of
      // stage_channel_fir64_direct_sample (64 dense MACs per lane-sample).
      std::vector<double> taps64(64, 0.01);
      dsp::BlockFir fir(taps64, 1);
      std::vector<double> history((taps64.size() - 1) * kLanes, 0.0);
      std::vector<double> out(block * kLanes, 0.0);
      fill_tile(0.5);
      run_bench(results, "stage_channel_fir64_lanes8_sample", nsamp * kLanes,
                [&] {
                  for (std::size_t i = 0; i < nsamp; i += block) {
                    fir.process_lanes(history.data(), tile.data(), out.data(),
                                      block, kLanes);
                  }
                });
    }
    {
      pipe::SamplerCdrSink::Config sc;
      sc.symbol_rate = cfg.bit_rate;
      sc.oversampling = cfg.cdr.oversampling;
      sc.jitter.random_rms = cfg.rx_random_jitter;
      sc.jitter_seeds = lane_seeds;
      sc.sampler_seeds = lane_seeds;
      sc.total_samples = nsamp;
      sc.dt = cfg.sample_period();
      sc.block_samples = block;
      fill_tile(0.9);
      run_bench(results, "stage_sampler_cdr_lanes8_sample", nsamp * kLanes,
                [&] {
                  pipe::SamplerCdrSink sink(sc);
                  for (std::size_t i = 0; i < nsamp; i += block) {
                    tile.shape(block, kLanes, i, util::seconds(0.0),
                               cfg.sample_period(), false);
                    sink.consume(tile.view());
                  }
                  sink.finish();
                });
    }
  }

  {
    dsp::RealFft fft(4096);
    std::vector<double> x(4096, 0.25);
    std::vector<std::complex<double>> spec(fft.bins());
    run_bench(results, "dsp_rfft4096_roundtrip_sample", 4096, [&] {
      fft.forward(x.data(), spec.data());
      fft.inverse(spec.data(), x.data());
    });
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_perf.json";
  std::uint64_t deep_bits = std::uint64_t{1} << 20;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--deep-bits=", 12) == 0) {
      deep_bits = std::strtoull(argv[i] + 12, nullptr, 10);
      // One chunk of at most 2^24 bits, the LinkSpec bound on chunk_bits.
      if (deep_bits == 0 || deep_bits > (std::uint64_t{1} << 24)) {
        std::fprintf(stderr, "invalid --deep-bits value: %s\n", argv[i]);
        return 2;
      }
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr,
                   "unknown option: %s\n"
                   "usage: bench_perf_kernels [output.json] [--deep-bits=N]\n",
                   argv[i]);
      return 2;
    } else {
      json_path = argv[i];
    }
  }

  std::vector<BenchResult> results;

  run_bench(results, "prbs_generation_bit", 65536, [] {
    static util::PrbsGenerator prbs(util::PrbsOrder::kPrbs31);
    for (int i = 0; i < 65536; ++i) {
      volatile bool b = prbs.next();
      (void)b;
    }
  });

  {
    util::PrbsGenerator prbs(util::PrbsOrder::kPrbs15);
    const auto bits = prbs.next_bits(4096);
    std::vector<std::uint8_t> samples;
    samples.reserve(bits.size() * 5);
    for (auto b : bits) {
      for (int p = 0; p < 5; ++p) samples.push_back(b);
    }
    run_bench(results, "cdr_recovery_bit", bits.size(), [&] {
      digital::OversamplingCdr cdr(digital::CdrConfig{});
      volatile std::size_t n = cdr.recover(samples).size();
      (void)n;
    });
  }

  {
    const analog::RfiCircuit rfi;
    const std::vector<std::uint8_t> bits = {0, 1, 1, 0, 1, 0, 0, 1};
    const auto input = analog::Waveform::nrz(
        bits, util::nanoseconds(0.5), 16, -0.016, 0.016,
        util::picoseconds(60.0));
    run_bench(results, "transient_rfi_8bit", bits.size(), [&] {
      volatile std::size_t n =
          rfi.transient(input, util::picoseconds(20.0)).output.size();
      (void)n;
    });
  }

  {
    const api::LinkBuilder builder;
    run_bench(results, "full_link_run_bit", 1024, [&] {
      core::SerDesLink link = builder.build_link();
      volatile std::uint64_t e = link.run_prbs(1024).bit_errors;
      (void)e;
    });
    // The same run at 4096-sample blocks: its 20992-sample stream is more
    // than two blocks, so pass 2 re-runs the front where the default block
    // resumes from pass 1's output.  The baseline of full_link_run_bit's
    // ratio gate.
    api::LinkBuilder blocked;
    blocked.stream_block_samples(4096);
    run_bench(results, "full_link_run_block4096_bit", 1024, [&] {
      core::SerDesLink link = blocked.build_link();
      volatile std::uint64_t e = link.run_prbs(1024).bit_errors;
      (void)e;
    });
  }

  // The eye fold every sweep cell and MC report runs: EyeAnalyzer::analyze
  // over a fixed 4096-UI restored capture of the paper link (64 bins, each
  // one linear interpolation per UI).  Items = UIs of capture.
  {
    api::LinkBuilder builder;
    builder.payload_bits(4096).chunk_bits(4096).capture_waveforms(true);
    core::SerDesLink link = builder.build_link();
    const core::LinkResult run = link.run_prbs(4096);
    constexpr std::size_t kUis = 4096;
    const auto spu = static_cast<std::size_t>(link.config().samples_per_ui);
    std::vector<double> samples = run.rx.restored.samples();
    samples.resize(kUis * spu);
    const analog::Waveform capture{run.rx.restored.start_time(),
                                   run.rx.restored.sample_period(),
                                   std::move(samples)};
    const core::EyeAnalyzer eye(link.config().bit_rate);
    const double threshold = link.receiver().decision_threshold();
    run_bench(results, "eye_fold_ui", kUis, [&] {
      volatile double h = eye.analyze(capture, threshold).eye_height;
      (void)h;
    });
  }

  // Receiver construction on a warm front-end characterization memo: each
  // build copies the paper design's stored entry instead of solving it
  // from the MOSFET model (~3.6 ms cold).  Items = receivers.  Reports are
  // byte-identical with or without the memo, so only this floor notices
  // if it is lost.
  {
    const core::LinkConfig cfg = core::LinkConfig::paper_default();
    run_bench(results, "receiver_build", 8, [&] {
      for (int i = 0; i < 8; ++i) {
        const core::Receiver rx(cfg);
        volatile double t = rx.decision_threshold();
        (void)t;
      }
    });
  }

  {
    const api::LinkSpec spec = api::LinkBuilder()
                                   .payload_bits(1024)
                                   .chunk_bits(1024)
                                   .build_spec();
    const api::Simulator sim;
    run_bench(results, "simulator_run_nocapture_bit", 1024, [&] {
      volatile std::uint64_t b = sim.run(spec).bits;
      (void)b;
    });
  }

  {
    std::vector<api::LinkSpec> specs(4, api::LinkBuilder()
                                            .payload_bits(1024)
                                            .chunk_bits(1024)
                                            .build_spec());
    const api::Simulator sim;
    run_bench(results, "simulator_run_batch4_bit",
              specs.size() * 1024, [&] {
                volatile std::size_t n = sim.run_batch(specs).size();
                (void)n;
              });
  }

  {
    // The SoA lane-tiling headline: 8 lanes sharing one instruction
    // stream (lane_batch = 8 groups them into a single LaneLink tile).
    std::vector<api::LinkSpec> specs(8, api::LinkBuilder()
                                            .payload_bits(1024)
                                            .chunk_bits(1024)
                                            .lane_batch(8)
                                            .build_spec());
    const api::Simulator sim;
    run_bench(results, "simulator_run_batch8_lanes_bit",
              specs.size() * 1024, [&] {
                volatile std::size_t n = sim.run_batch(specs).size();
                (void)n;
              });
  }

  // ---- Statistical engine ---------------------------------------------------
  // One full analytical scenario (pulse extraction + 64-phase bathtub +
  // contours at 1e-15) on the paper operating point; items = scenarios.
  // This is the kernel behind `serdes_cli stat` and the sweep engine's
  // "stat"/"both" scenarios, so it gets a CI floor like the MC kernels.
  // Both paper-default kernels run inside a one-worker parallel_for, so
  // the phases run inline on one thread (as in a sweep worker): their
  // floors and the margins/full ratio gate measure the engine's work, not
  // the runner's core count.
  {
    api::LinkSpec spec = api::LinkBuilder().analysis("stat").build_spec();
    const api::Simulator sim;
    util::parallel_for(1, 1, [&](std::size_t) {
      run_bench(results, "stat_engine_paper_default", 1, [&] {
        volatile double ber = sim.run(spec).stat->min_ber;
        (void)ber;
      });
    });
  }

  // The same scenario as the sweep rows and optimizer scores run it: the
  // engine bisects only the best phase's eye contour.  Items = scenarios.
  // The margins are bit-identical either way, so only the ratio gate
  // against stat_engine_paper_default notices if every phase is bisected
  // again.
  {
    api::LinkSpec spec = api::LinkBuilder().analysis("stat").build_spec();
    api::Simulator::Options options;
    options.stat_contours = false;
    const api::Simulator sim(options);
    util::parallel_for(1, 1, [&](std::size_t) {
      run_bench(results, "stat_engine_margins_paper_default", 1, [&] {
        volatile double margin = sim.run(spec).stat->voltage_margin_v;
        (void)margin;
      });
    });
  }

  // The eye-contour bisections alone: one lower_quantile + upper_quantile
  // pair at 1e-15 and sigma = 1 mV on a 20-cursor grid mixture (0.02 V x
  // 0.8^k, 4073 support points).  Items = quantile pairs.  Each bisection
  // step is decided from the leading tail terms; the quantiles are
  // bit-identical either way, so only this floor notices if that is lost.
  {
    std::vector<double> cursors;
    for (int k = 0; k < 20; ++k) cursors.push_back(0.02 * std::pow(0.8, k));
    const stat::IsiMixture mix = stat::IsiMixture::build(cursors);
    run_bench(results, "stat_contour_grid", 1, [&] {
      volatile double v =
          mix.lower_quantile(1e-15, 1e-3) + mix.upper_quantile(1e-15, 1e-3);
      (void)v;
    });
  }

  // The noise-path power gain every stat analysis sums once, on the paper
  // default's RFI and restoring poles (no CTLE).  Items = calls.  The sum
  // stops once the filter states prove that the rest cannot change it;
  // walking on through the subnormal tail the poles decay into gives the
  // same bits about 300x slower, so only this floor notices.
  {
    const core::LinkConfig cfg =
        api::LinkSpec::paper_default().to_link_config();
    const core::Receiver rx(cfg);
    run_bench(results, "stat_noise_gain_paper_default", 1, [&] {
      volatile double gain = stat::noise_power_gain(
          cfg, rx.rfi_stage().bandwidth(), rx.restoring().bandwidth(), true);
      (void)gain;
    });
  }

  // One grid build of a 40-cursor mixture on the default 4097 bins (0.02 V
  // x 0.85^k, every third cursor negative).  Items = builds.  Each
  // cursor's pass visits only the bins that can hold mass and reads the
  // interior without bounds checks.  stat_mixture_grid_plain builds the
  // same mixture, with the same bits, through the tests' plain loop
  // (tests/mixture_reference.h): every bin of every pass, bounds-checked.
  // A ratio gate in check_perf_floors.py keeps the two apart.
  {
    std::vector<double> cursors;
    for (int k = 0; k < 40; ++k) {
      cursors.push_back(0.02 * std::pow(0.85, k) * (k % 3 == 0 ? -1.0 : 1.0));
    }
    run_bench(results, "stat_mixture_grid_build", 1, [&] {
      volatile std::size_t n = stat::IsiMixture::build(cursors).size();
      (void)n;
    });
    run_bench(results, "stat_mixture_grid_plain", 1, [&] {
      volatile std::size_t n =
          mixture_reference::plain_mixture(cursors, {}).value.size();
      (void)n;
    });
  }

  // Same engine with a 3-tap DFE on an ISI channel: the residual
  // post-cursor cancellation and the error-propagation burst factor run
  // per phase bin on top of the plain bathtub.  Items = scenarios.
  // Backs the trained/DFE stat scenarios (examples/specs/trained_ci.json).
  // Inline on one thread, like the paper-default kernels.
  {
    api::LinkSpec spec = api::LinkBuilder()
                             .channel(api::ChannelSpec::fir({0.8, 0.15, 0.05}))
                             .noise_rms(0.002)
                             .dfe({0.01, 0.005, 0.002})
                             .analysis("stat")
                             .build_spec();
    const api::Simulator sim;
    util::parallel_for(1, 1, [&](std::size_t) {
      run_bench(results, "stat_engine_dfe_sample", 1, [&] {
        volatile double ber = sim.run(spec).stat->min_ber;
        (void)ber;
      });
    });
  }

  // The full `serdes_cli optimize` path on the paper operating point:
  // baseline stat evaluation (which already meets the 1e-15 target, so
  // the descent short-circuits) plus the winner's 2^16-bit Monte Carlo
  // cross-check.  Items = optimize calls.  Inline on one thread, so
  // neither the stat phases nor the cross-check's chunks fan out.
  {
    const api::LinkSpec spec = api::LinkSpec::paper_default();
    util::parallel_for(1, 1, [&](std::size_t) {
      run_bench(results, "optimize_paper_default", 1, [&] {
        volatile bool met = opt::optimize(spec).met;
        (void)met;
      });
    });
  }

  // Four PAM4 lanes with tri-diagonal FEXT/NEXT, stat analysis only:
  // per-lane composite-channel pulse extraction plus crosstalk folded in
  // as bounded interference PDFs, per-eye PAM4 margins and bathtubs.
  // Items = lane scenarios.  Backs the bus rows of the CI scenario
  // matrix ("analysis": "stat" / "both" bus specs).
  {
    api::BusSpec bus;
    bus.name = "bench_bus";
    bus.lanes = 4;
    bus.base = api::LinkBuilder()
                   .channel(api::ChannelSpec::flat(4.0))
                   .modulation("pam4")
                   .noise_rms(0.005)
                   .analysis("stat")
                   .build_spec();
    bus.coupling.assign(4, std::vector<double>(4, 0.0));
    bus.next_coupling.assign(4, std::vector<double>(4, 0.0));
    for (int v = 0; v < 4; ++v) {
      for (int a : {v - 1, v + 1}) {
        if (a < 0 || a >= 4) continue;
        bus.coupling[v][a] = 0.03;
        bus.next_coupling[v][a] = 0.01;
      }
    }
    const api::Simulator sim;
    run_bench(results, "stat_engine_bus4_pam4", 4, [&] {
      volatile double ber = sim.run_bus(bus, 1).lanes[0].stat->min_ber;
      (void)ber;
    });
  }

  // ---- Deep BER kernel ------------------------------------------------------
  // One Simulator::run over a single deep chunk.  The peak RSS sampled
  // around it (VmHWM, monotone over the process) shows the chain holding
  // O(block) waveform memory; the whole-waveform reference the tests
  // compare against (tests/whole_waveform_reference.h) holds O(chunk).
  {
    const api::Simulator sim;
    std::printf("deep BER kernel: %llu bits per run\n",
                static_cast<unsigned long long>(deep_bits));
    run_bench(
        results, "deep_ber_streaming_bit", deep_bits,
        [&] {
          volatile std::uint64_t b = sim.run(deep_ber_spec(deep_bits)).bits;
          (void)b;
        },
        0.0);
  }

  bench_stage_kernels(results);

  {
    flow::SerdesRtlConfig rtl;
    run_bench(results, "netlist_generation", 1, [&] {
      volatile std::size_t n = flow::generate_serializer(rtl).cells().size();
      (void)n;
    });
  }

  {
    flow::SerdesRtlConfig rtl;
    flow::Netlist n = flow::generate_serializer(rtl);
    flow::place(n);
    run_bench(results, "sta_analysis", 1, [&] {
      flow::StaEngine sta(n);
      volatile double t = sta.analyze(util::picoseconds(500.0))
                              .worst_slack.value();
      (void)t;
    });
  }

  {
    flow::SerdesRtlConfig rtl;
    flow::Netlist n = flow::generate_deserializer(rtl);
    flow::place(n);
    run_bench(results, "power_analysis", 1, [&] {
      volatile double p = flow::analyze_power(n, {}).total().value();
      (void)p;
    });
  }

  write_json(results, json_path);
  return 0;
}
