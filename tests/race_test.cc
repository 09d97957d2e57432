// Concurrency-hammer tier, built to run under ThreadSanitizer
// (-DSERDES_SANITIZE=thread): every multi-threaded execution path the
// engine ships — the SweepRunner work-stealing pool, offline shard
// merging fed by concurrently-running shards, the run_batch lane
// fan-out, the pool's inline nesting rule, the stat engine's phase
// fan-out, training's concurrent candidate replays, the Monte Carlo chunk
// fan-out of scalar runs and lane tiles, and the process-wide memos
// (receiver characterization, FFT plan tables) — exercised at several
// thread counts with byte-identical report assertions.  Without TSan
// this is an ordinary (fast) tier1 determinism test; under TSan any data
// race in the pool, the row buffers or the aggregation step is a hard
// failure with a stack pair.
//
// Repro: cmake -B build-tsan -S . -DSERDES_SANITIZE=thread
//        cmake --build build-tsan --target race_test && ./build-tsan/race_test
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analog/rfi.h"
#include "analog/sampler.h"
#include "api/link_builder.h"
#include "api/simulator.h"
#include "channel/channel.h"
#include "api/spec_json.h"
#include "core/receiver.h"
#include "sweep/sweep_runner.h"
#include "sweep/sweep_spec.h"
#include "util/json.h"
#include "util/parallel.h"

namespace serdes {
namespace {

/// Small-but-real scenario: every stage of the pipeline runs (CDR lock,
/// slicing, aggregation) while one scenario stays ~1 ms of work, so a
/// 16-scenario grid at 8 threads genuinely overlaps execution.
api::LinkSpec tiny_spec() {
  api::LinkSpec spec;
  spec.name = "race";
  spec.payload_bits = 512;
  spec.chunk_bits = 512;
  spec.preamble_bits = 128;
  spec.cdr_window_uis = 16;
  return spec;
}

sweep::SweepSpec tiny_grid() {
  sweep::SweepSpec sweep;
  sweep.name = "race_grid";
  sweep.base = tiny_spec();
  sweep.axes.push_back({"noise_rms_v",
                        {util::Json(0.001), util::Json(0.002),
                         util::Json(0.004), util::Json(0.008)}});
  sweep.axes.push_back({"rx_phase_offset_ui",
                        {util::Json(0.25), util::Json(0.37),
                         util::Json(0.5), util::Json(0.62)}});
  return sweep;
}

std::string render(const sweep::SweepReport& report) {
  return sweep::to_json(report).dump(2);
}

TEST(RaceHammer, WorkStealingPoolIsThreadCountInvariant) {
  const sweep::SweepSpec grid = tiny_grid();
  std::string baseline;
  for (const int threads : {1, 4, 8}) {
    sweep::SweepRunner::Options options;
    options.n_threads = threads;
    const std::string rendered =
        render(sweep::SweepRunner(options).run(grid));
    if (baseline.empty()) {
      baseline = rendered;
    } else {
      // Byte-identical, not just value-equal: the serialized report is
      // the CI artifact contract.
      EXPECT_EQ(rendered, baseline) << "thread count " << threads
                                    << " changed the report bytes";
    }
  }
}

TEST(RaceHammer, OnScenarioCallbackSeesEveryScenarioOnce) {
  const sweep::SweepSpec grid = tiny_grid();
  std::mutex mutex;
  std::set<std::uint64_t> seen;
  std::atomic<int> calls{0};
  sweep::SweepRunner::Options options;
  options.n_threads = 8;
  options.on_scenario = [&](const sweep::ScenarioResult& row) {
    calls.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(mutex);
    EXPECT_TRUE(seen.insert(row.index).second)
        << "scenario " << row.index << " completed twice";
  };
  const sweep::SweepReport report = sweep::SweepRunner(options).run(grid);
  EXPECT_EQ(report.scenarios.size(), 16u);
  EXPECT_EQ(calls.load(), 16);
  EXPECT_EQ(seen.size(), 16u);
}

TEST(RaceHammer, ConcurrentShardRunsMergeToUnshardedReport) {
  const sweep::SweepSpec grid = tiny_grid();
  const std::string unsharded = render(sweep::SweepRunner().run(grid));

  // Each shard runs in its own host thread with its own 2-thread pool,
  // so shard workers from different runners interleave freely.
  constexpr std::uint64_t kShards = 4;
  std::vector<sweep::SweepReport> shards(kShards);
  std::vector<std::thread> hosts;
  hosts.reserve(kShards);
  for (std::uint64_t s = 0; s < kShards; ++s) {
    hosts.emplace_back([&grid, &shards, s] {
      sweep::SweepRunner::Options options;
      options.n_threads = 2;
      options.shard = {s, kShards};
      shards[s] = sweep::SweepRunner(options).run(grid);
    });
  }
  for (auto& host : hosts) host.join();

  const sweep::SweepReport merged = sweep::merge_shard_rows(shards);
  EXPECT_EQ(render(merged), unsharded);
}

TEST(RaceHammer, LaneTileFanOutIsThreadCountInvariant) {
  // SoA lane tiling: 20 lanes requesting lane_batch = 8 group into
  // ragged tiles (8 + 8 + 4) that race against interleaved scalar lanes
  // across the pool.  Under TSan this hammers the tile grouping, the
  // shared-TX fan-out and the per-lane report scatter; everywhere it
  // must stay byte-identical to run() of each lane's derived spec.
  std::vector<api::LinkSpec> lanes;
  for (int i = 0; i < 20; ++i) {
    api::LinkSpec spec = tiny_spec();
    spec.name = "tile" + std::to_string(i);
    spec.lane_batch = 8;
    spec.noise_rms_v = 0.001 * (1 + i % 3);  // three tile groups
    lanes.push_back(spec);
  }
  const api::Simulator tiled;
  std::vector<api::RunReport> reference;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    api::LinkSpec spec = lanes[i];
    spec.seed = api::Simulator::derive_lane_seed(spec.seed, i);
    reference.push_back(tiled.run(spec));
  }
  for (const int threads : {1, 2, 8}) {
    const std::vector<api::RunReport> fanned = tiled.run_batch(lanes, threads);
    ASSERT_EQ(fanned.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(api::to_json(fanned[i]).dump(),
                api::to_json(reference[i]).dump())
          << "lane " << i << " at " << threads << " threads";
    }
  }
}

TEST(RaceHammer, TopLevelLaneTileFansItsChunksOut) {
  // A lane tile run at top level fans its chunks out like a scalar run,
  // each task sharing the tile's receiver and channel, in windows of
  // 2^18 lane-bits: 16 chunks of 2^12 bits over 4 lanes.  One run stays
  // inside one window after chunk 0, the other spans three; both must
  // equal run() of every lane.  Four samples per UI keep it cheap, and
  // the noise makes every chunk's error count depend on its seed.
  constexpr std::uint64_t kChunk = 1u << 12;
  for (const std::uint64_t total : {9 * kChunk + 100, 33 * kChunk + 500}) {
    std::vector<api::LinkSpec> lanes;
    for (std::size_t i = 0; i < 4; ++i) {
      lanes.push_back(api::LinkBuilder()
                          .name("lane" + std::to_string(i))
                          .flat_channel(util::decibels(40.0))
                          .noise_rms(0.004)
                          .samples_per_ui(4)
                          .payload_bits(total)
                          .chunk_bits(kChunk)
                          .lane_batch(4)
                          .seed(15 + 7 * i)
                          .build_spec());
    }
    const api::Simulator simulator;
    const std::vector<api::RunReport> tiled = simulator.run_lane_tile(lanes);
    ASSERT_EQ(tiled.size(), lanes.size());
    std::uint64_t errors = 0;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      EXPECT_EQ(api::to_json(tiled[i]).dump(),
                api::to_json(simulator.run(lanes[i])).dump())
          << total << " bits, lane " << i;
      errors += tiled[i].errors;
    }
    EXPECT_GT(errors, 0u) << total << " bits";
  }
}

TEST(RaceHammer, RunBatchLaneFanOutIsThreadCountInvariant) {
  std::vector<api::LinkSpec> lanes;
  for (int i = 0; i < 8; ++i) {
    api::LinkSpec spec = tiny_spec();
    spec.name = "lane" + std::to_string(i);
    spec.noise_rms_v = 0.001 * (1 + i % 4);
    lanes.push_back(spec);
  }
  const api::Simulator simulator;
  const std::vector<api::RunReport> serial = simulator.run_batch(lanes, 1);
  const std::vector<api::RunReport> fanned = simulator.run_batch(lanes, 8);
  ASSERT_EQ(serial.size(), fanned.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(api::to_json(fanned[i]).dump(), api::to_json(serial[i]).dump())
        << "lane " << i;
  }
}

TEST(RaceHammer, WorkerPoolRunsEveryItemOnceAndFailsFast) {
  // The shared pool behind all of the above: every item exactly once at
  // any width, and the first failure stops new items and is rethrown.
  for (const int threads : {1, 2, 8}) {
    std::vector<std::atomic<int>> hits(257);
    util::parallel_for(hits.size(), threads,
                       [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "item " << i << " @" << threads;
    }

    std::atomic<std::size_t> ran{0};
    EXPECT_THROW(util::parallel_for(10000, threads,
                                    [&](std::size_t i) {
                                      ran.fetch_add(1);
                                      if (i == 3) {
                                        throw std::runtime_error("item 3");
                                      }
                                    }),
                 std::runtime_error);
    EXPECT_LT(ran.load(), std::size_t{10000}) << "@" << threads;
  }
}

TEST(RaceHammer, NestedCallsRunInlineOnTheirTasksThread) {
  // A parallel_for called from inside a task spawns nothing: its items run
  // in index order on that task's thread, so an outer N-worker call and
  // everything nested in it use at most N threads.
  for (const int threads : {1, 2, 4}) {
    std::mutex mutex;
    std::set<std::thread::id> ids;
    std::atomic<int> off_thread{0};
    std::vector<std::vector<std::size_t>> order(8);
    util::parallel_for(order.size(), threads, [&](std::size_t outer) {
      const std::thread::id task_thread = std::this_thread::get_id();
      util::parallel_for(16, 0, [&](std::size_t inner) {
        if (std::this_thread::get_id() != task_thread) off_thread.fetch_add(1);
        order[outer].push_back(inner);
        const std::lock_guard<std::mutex> lock(mutex);
        ids.insert(std::this_thread::get_id());
      });
    });
    EXPECT_EQ(off_thread.load(), 0) << "@" << threads;
    EXPECT_LE(ids.size(), static_cast<std::size_t>(threads)) << "@" << threads;
    for (const std::vector<std::size_t>& items : order) {
      ASSERT_EQ(items.size(), 16u) << "@" << threads;
      for (std::size_t i = 0; i < items.size(); ++i) {
        EXPECT_EQ(items[i], i) << "@" << threads;
      }
    }

    // A nested item's exception surfaces from the outer call.
    EXPECT_THROW(util::parallel_for(4, threads,
                                    [](std::size_t outer) {
                                      util::parallel_for(
                                          4, 0, [outer](std::size_t inner) {
                                            if (outer == 2 && inner == 3) {
                                              throw std::runtime_error("2.3");
                                            }
                                          });
                                    }),
                 std::runtime_error)
        << "@" << threads;
  }

  // The one-worker path runs its tasks on the caller's thread, and items
  // nested in them stay there too, whatever width they ask for.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen;
  util::parallel_for(1, 1, [&](std::size_t) {
    util::parallel_for(4, 4, [&](std::size_t) {
      seen.push_back(std::this_thread::get_id());
    });
  });
  ASSERT_EQ(seen.size(), 4u);
  for (const std::thread::id id : seen) EXPECT_EQ(id, caller);

  // Once a call returns, the caller is top level again: a 4-worker call
  // runs every item on its spawned threads.
  std::atomic<int> on_caller{0};
  util::parallel_for(4, 4, [&](std::size_t) {
    if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
  });
  EXPECT_EQ(on_caller.load(), 0);
}

TEST(RaceHammer, ConcurrentFannedOutAnalysesAndTrainings) {
  // Two plain host threads are each top level, so every stat analysis
  // fans its sampling phases out and every training step replays its
  // candidates concurrently, while the other host does the same.  The
  // trained cell's replays also share one channel instance.  Each report
  // must be byte-identical to the serial reference, which runs inside a
  // one-worker parallel_for (every fan-out inline).
  api::LinkSpec grid = api::LinkBuilder()
                           .channel(api::ChannelSpec::lossy_line(8.0, 12.0,
                                                                 4.0))
                           .noise_rms(0.004)
                           .analysis("stat")
                           .build_spec();
  api::LinkSpec trained = grid;
  trained.eq = "trained";
  trained.training_uis = 1024;
  api::LinkSpec pam4 = api::LinkBuilder()
                           .channel(api::ChannelSpec::flat(4.0))
                           .modulation("pam4")
                           .noise_rms(0.005)
                           .analysis("stat")
                           .build_spec();
  const std::vector<api::LinkSpec> specs = {grid, trained, pam4};

  const api::Simulator simulator;
  std::vector<std::string> reference(specs.size());
  util::parallel_for(1, 1, [&](std::size_t) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      reference[i] = api::to_json(simulator.run(specs[i])).dump();
    }
  });

  constexpr int kHosts = 2;
  std::vector<std::vector<std::string>> fanned(kHosts);
  std::vector<std::thread> hosts;
  hosts.reserve(kHosts);
  for (int h = 0; h < kHosts; ++h) {
    hosts.emplace_back([&, h] {
      for (std::size_t k = 0; k < specs.size(); ++k) {
        const api::LinkSpec& spec = specs[(k + h) % specs.size()];
        fanned[h].push_back(api::to_json(simulator.run(spec)).dump());
      }
    });
  }
  for (auto& host : hosts) host.join();
  for (int h = 0; h < kHosts; ++h) {
    ASSERT_EQ(fanned[h].size(), specs.size());
    for (std::size_t k = 0; k < specs.size(); ++k) {
      EXPECT_EQ(fanned[h][k], reference[(k + h) % specs.size()])
          << "host " << h << " spec " << (k + h) % specs.size();
    }
  }
}

TEST(RaceHammer, ConcurrentChunkedRunsMatchSerial) {
  // Plain host threads are each top level, so every Monte Carlo run fans
  // its chunks out (measure_ber) while the other host does the same, each
  // chunk's task sharing its link, receiver and channel with the others.
  // Each report must be byte-identical to the serial reference, which
  // runs inside a one-worker parallel_for (every chunk inline, in order).
  const api::LinkSpec nrz = api::LinkBuilder()
                                .channel(api::ChannelSpec::lossy_line(
                                    8.0, 12.0, 4.0))
                                .noise_rms(0.002)
                                .rx_ctle(util::decibels(4.0))
                                .dfe({0.04, 0.015, 0.005})
                                .payload_bits(6 * 1024 + 300)
                                .chunk_bits(1024)
                                .build_spec();
  api::LinkSpec pam4 = api::LinkBuilder()
                           .flat_channel(util::decibels(4.0))
                           .modulation("pam4")
                           .noise_rms(0.005)
                           .payload_bits(6 * 1024)
                           .chunk_bits(1024)
                           .capture_waveforms()
                           .build_spec();
  const std::vector<api::LinkSpec> specs = {nrz, pam4};

  const api::Simulator simulator;
  std::vector<std::string> reference(specs.size());
  util::parallel_for(1, 1, [&](std::size_t) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      reference[i] = api::to_json(simulator.run(specs[i])).dump();
    }
  });

  constexpr int kHosts = 2;
  std::vector<std::vector<std::string>> fanned(kHosts);
  std::vector<std::thread> hosts;
  hosts.reserve(kHosts);
  for (int h = 0; h < kHosts; ++h) {
    hosts.emplace_back([&, h] {
      for (std::size_t k = 0; k < specs.size(); ++k) {
        const api::LinkSpec& spec = specs[(k + h) % specs.size()];
        fanned[h].push_back(api::to_json(simulator.run(spec)).dump());
      }
    });
  }
  for (auto& host : hosts) host.join();
  for (int h = 0; h < kHosts; ++h) {
    ASSERT_EQ(fanned[h].size(), specs.size());
    for (std::size_t k = 0; k < specs.size(); ++k) {
      EXPECT_EQ(fanned[h][k], reference[(k + h) % specs.size()])
          << "host " << h << " spec " << (k + h) % specs.size();
    }
  }
}

/// Every value a receiver takes from its characterized front end.
std::vector<double> front_end_values(const analog::RfiCircuit& circuit,
                                     const analog::RfiStage& stage,
                                     const analog::RestoringInverter& restoring,
                                     const core::LinkConfig& cfg) {
  const analog::RfiDesign& d = circuit.design();
  std::vector<double> values = {d.wn_um,
                                d.wp_um,
                                d.pseudo_res_w_um,
                                d.vdd.value(),
                                d.coupling_cap.value(),
                                d.load_cap.value(),
                                stage.bias(),
                                stage.gain(),
                                stage.bandwidth().value(),
                                stage.vdd(),
                                restoring.threshold(),
                                restoring.bandwidth().value()};
  for (int i = 0; i <= 64; ++i) {
    values.push_back(restoring.restore_level(d.vdd.value() * i / 64.0));
  }
  const auto in = analog::Waveform::nrz(
      {0, 1, 1, 0}, cfg.unit_interval(), cfg.samples_per_ui, -0.02, 0.02,
      util::picoseconds(60.0));
  const auto out = restoring.process(stage.process(in));
  values.insert(values.end(), out.samples().begin(), out.samples().end());
  return values;
}

TEST(RaceHammer, ReceiverFrontEndMemoFirstMissesRace) {
  // Three designs no other test in this binary builds, so the first
  // characterization of each happens inside the threaded section.  The
  // serial reference builds the analog models directly, past the memo.
  std::vector<core::LinkConfig> designs(3, core::LinkConfig::paper_default());
  designs[0].rfi.wn_um = 3.7;
  designs[1].restoring_wp_um = 13.0;
  designs[2].samples_per_ui = 12;
  std::vector<std::vector<double>> reference;
  for (const core::LinkConfig& cfg : designs) {
    const analog::RfiCircuit circuit(cfg.rfi);
    reference.push_back(front_end_values(
        circuit, analog::RfiStage(circuit, cfg.sample_period()),
        analog::RestoringInverter(cfg.restoring_wn_um, cfg.restoring_wp_um,
                                  cfg.rfi.vdd, cfg.sample_period()),
        cfg));
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 2;
  std::atomic<int> ready{0};
  std::vector<std::vector<std::vector<double>>> built(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int k = 0; k < kRounds * 3; ++k) {
        const core::LinkConfig& cfg = designs[(t + k) % 3];
        const core::Receiver rx(cfg);
        built[t].push_back(front_end_values(rx.rfi(), rx.rfi_stage(),
                                            rx.restoring(), cfg));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(built[t].size(), std::size_t{kRounds * 3});
    for (int k = 0; k < kRounds * 3; ++k) {
      EXPECT_EQ(built[t][k], reference[(t + k) % 3])
          << "thread " << t << " receiver " << k;
    }
  }
}

/// A dsp lossy line's output for a fixed pattern streamed in 4096-sample
/// blocks — above the FFT crossover, so the overlap-save kernel and its
/// transform size's shared tables carry every block.
std::vector<double> dsp_line_output(const channel::Channel& line) {
  constexpr std::size_t kBlock = 4096;
  std::vector<double> in(3 * kBlock);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = (i / 16) % 3 == 0 ? 1.0 : 0.0;
  }
  std::vector<double> out(in.size());
  const auto stream = line.open_stream();
  for (std::size_t i = 0; i < in.size(); i += kBlock) {
    stream->transmit_block(in.data() + i, out.data() + i, kBlock);
  }
  return out;
}

TEST(RaceHammer, FftPlanMemoFirstMissesRace) {
  // Three dsp lossy lines whose overlap-save transforms (4096, 8192 and
  // 2048 points) no other test in this binary builds, so each size's
  // first plan is built inside the threaded section.  The serial run
  // afterwards reads the populated memo; it must match every thread bit
  // for bit and the exact IIR recurrence within the dsp engine's 1e-12
  // RMS contract (garbage tables would not).
  using Params = channel::LossyLineChannel::Params;
  const channel::LossyLineChannel line_a(Params{0.5, 2.0, 1.0},
                                         util::picoseconds(10.0), true);
  const channel::LossyLineChannel line_b(Params{1.0, 4.0, 2.0},
                                         util::picoseconds(10.0), true);
  const channel::LossyLineChannel line_c(Params{2.0, 10.0, 8.0},
                                         util::picoseconds(62.5), true);
  const channel::LossyLineChannel* lines[] = {&line_a, &line_b, &line_c};

  constexpr int kThreads = 8;
  constexpr int kRounds = 2;
  std::atomic<int> ready{0};
  std::vector<std::vector<std::vector<double>>> built(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int k = 0; k < kRounds * 3; ++k) {
        built[t].push_back(dsp_line_output(*lines[(t + k) % 3]));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const util::Second periods[] = {util::picoseconds(10.0),
                                  util::picoseconds(10.0),
                                  util::picoseconds(62.5)};
  std::vector<std::vector<double>> serial;
  for (int d = 0; d < 3; ++d) {
    serial.push_back(dsp_line_output(*lines[d]));
    const std::vector<double> exact = dsp_line_output(
        channel::LossyLineChannel(lines[d]->params(), periods[d]));
    double err = 0.0;
    for (std::size_t i = 0; i < exact.size(); ++i) {
      err += (serial[d][i] - exact[i]) * (serial[d][i] - exact[i]);
    }
    EXPECT_LE(std::sqrt(err / static_cast<double>(exact.size())), 1e-12)
        << "line " << d;
  }
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(built[t].size(), std::size_t{kRounds * 3});
    for (int k = 0; k < kRounds * 3; ++k) {
      EXPECT_EQ(built[t][k], serial[(t + k) % 3])
          << "thread " << t << " stream " << k;
    }
  }
}

}  // namespace
}  // namespace serdes
