#include "core/chain_plan.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "analog/driver.h"
#include "channel/equalizer.h"
#include "digital/deserializer.h"
#include "digital/framing.h"

namespace serdes::core {

namespace {

/// What the end probe of a pass stopping at `stop` captures: the slicer
/// input, so nothing unless the pass reaches the slicers.
std::size_t end_capture(ChainPlan::Stop stop, std::size_t capture) {
  return stop == ChainPlan::Stop::kSlicer ? capture : 0;
}

}  // namespace

ChainPlan::ChainPlan(const LinkConfig& config, const Receiver& rx)
    : config_(config),
      rx_(&rx),
      pam4_(config.modulation == LinkConfig::Modulation::kPam4),
      has_xtalk_(std::any_of(config.xtalk.begin(), config.xtalk.end(),
                             [](const XtalkPath& p) { return p.gain != 0.0; })),
      use_ctle_(config.rx_ctle_boost.value() > 0.0),
      vdd_(config.driver.vdd.value()),
      sigma_(per_sample_noise_sigma(config)),
      spu_(config.samples_per_ui),
      ui_(config.unit_interval()),
      dt_(config.sample_period()),
      block_(std::max<std::size_t>(1, config.stream_block_samples)) {
  const analog::InverterChainDriver driver(config.driver);
  rise_ = driver.output_rise_time();
  delay_ = driver.total_delay();
}

// ---- TX level mapping -------------------------------------------------------

Launch ChainPlan::launch(const std::vector<std::uint8_t>& bits) const {
  if (!pam4_) return nrz_launch(bits);
  return pam4_launch(bits, static_cast<std::size_t>(
                               std::max(0, config_.framing.preamble_bits)));
}

Launch ChainPlan::nrz_launch(const std::vector<std::uint8_t>& bits) const {
  if (config_.tx_ffe_deemphasis != 0.0) {
    const channel::TxFfe ffe = channel::TxFfe::de_emphasis(
        config_.tx_ffe_deemphasis, config_.driver.vdd);
    return {ffe.levels(bits), util::seconds(0.0)};
  }
  return {rail_levels(bits), delay_};
}

Launch ChainPlan::pam4_launch(const std::vector<std::uint8_t>& bits,
                              std::size_t preamble_bits) const {
  const double step = vdd_ / 3.0;
  const std::size_t preamble_syms = std::min(preamble_bits, bits.size()) / 2;
  const std::size_t nsym = (bits.size() + 1) / 2;
  std::vector<double> levels(nsym);
  for (std::size_t s = 0; s < nsym; ++s) {
    if (s < preamble_syms) {
      levels[s] = (s % 2 == 0) ? vdd_ : 0.0;
      continue;
    }
    const bool msb = bits[2 * s] != 0;
    const bool lsb = 2 * s + 1 < bits.size() && bits[2 * s + 1] != 0;
    levels[s] = static_cast<double>(gray_symbol(msb, lsb)) * step;
  }
  return {std::move(levels), delay_};
}

std::vector<double> ChainPlan::rail_levels(
    const std::vector<std::uint8_t>& bits) const {
  std::vector<double> levels(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    levels[i] = bits[i] ? vdd_ : 0.0;
  }
  return levels;
}

pipe::LevelPulseSource ChainPlan::source(const Launch& tx) const {
  return pipe::LevelPulseSource(tx.levels, ui_, spu_, rise_, tx.t0);
}

// ---- Chain instantiation ----------------------------------------------------

std::vector<ChainPlan::Step> ChainPlan::steps(Stop stop, bool noise,
                                              Probes probes) const {
  const bool all = probes == Probes::kAll;
  std::vector<Step> s{Step::kChannel};
  if (has_xtalk_) s.push_back(Step::kXtalk);
  if (noise) s.push_back(Step::kAwgn);
  if (all) s.push_back(Step::kNoisyProbe);
  if (stop != Stop::kNoisy && use_ctle_) s.push_back(Step::kCtle);
  if (stop == Stop::kSlicer && !pam4_) {
    s.push_back(Step::kRfi);
    s.push_back(Step::kRestore);
  }
  // A pass that ends at the receiver input reads both probes off one tap.
  if (probes != Probes::kNone && s.back() != Step::kNoisyProbe) {
    s.push_back(Step::kOutProbe);
  }
  return s;
}

std::vector<ChainPlan::Step> ChainPlan::resumed(std::vector<Step> s,
                                                bool noise) const {
  const Step last = steps(first_stop(), noise, Probes::kNone).back();
  s.erase(s.begin(), std::find(s.begin(), s.end(), last) + 1);
  std::erase(s, Step::kNoisyProbe);
  return s;
}

bool ChainPlan::resumes(const Launch& tx) const {
  const std::uint64_t total =
      static_cast<std::uint64_t>(tx.levels.size()) *
      static_cast<std::uint64_t>(spu_);
  return (total + 1) / 2 <= block_;  // total <= 2 * block_, without overflow
}

std::unique_ptr<pipe::XtalkInjectStage> ChainPlan::xtalk_stage(
    const channel::Channel& ch, const Launch& tx) const {
  std::vector<pipe::XtalkInjectStage::Path> paths;
  for (const XtalkPath& x : config_.xtalk) {
    if (x.gain != 0.0) paths.push_back({x.delay_ui, x.gain, x.through_channel});
  }
  return std::make_unique<pipe::XtalkInjectStage>(tx.levels, paths, ch, ui_,
                                                  spu_, rise_, tx.t0);
}

std::size_t ChainPlan::capture_samples(const Launch& tx,
                                       std::size_t capture) const {
  return std::min(capture,
                  tx.levels.size() * static_cast<std::size_t>(spu_));
}

ChainPlan::Pass ChainPlan::pass(const channel::Channel& ch, const Launch& tx,
                                const PassOptions& options, Kept kept) const {
  if (!kept.resumes()) return build(ch, tx, steps(options), options);
  Pass p = build(ch, tx,
                 resumed(steps(options), !options.awgn_seeds.empty()),
                 options);
  if (kept.noisy) {
    p.noisy = kept.noisy.get();
    if (p.out == nullptr) p.out = p.noisy;
  }
  p.kept = std::move(kept);
  return p;
}

ChainPlan::Pass ChainPlan::build(const channel::Channel& ch, const Launch& tx,
                                 std::span<const Step> run,
                                 const PassOptions& options) const {
  const std::size_t n = std::max<std::size_t>(1, options.awgn_seeds.size());
  if (pam4_ && n > 1) {
    throw std::invalid_argument("ChainPlan: lane tiles run NRZ only");
  }
  Pass p;
  const auto probe = [&](std::size_t capture) {
    return &p.lanes.add_probe(std::make_unique<pipe::LaneWaveformTap>(
        n, capture_samples(tx, capture), options.statistics));
  };
  for (const Step step : run) {
    switch (step) {
      case Step::kChannel:
        p.shared.add(std::make_unique<pipe::ChannelStage>(ch.open_stream()));
        break;
      case Step::kXtalk:
        p.shared.add(xtalk_stage(ch, tx));
        break;
      case Step::kAwgn:
        p.lanes.add(std::make_unique<pipe::LaneAwgnStage>(
            sigma_, options.awgn_seeds));
        break;
      case Step::kCtle:
        p.lanes.add(std::make_unique<pipe::LaneCtleStage>(
            config_.rx_ctle_boost, config_.rx_ctle_pole, dt_, n));
        break;
      case Step::kRfi: {
        if (options.means.size() != n) {
          throw std::invalid_argument("ChainPlan: need one RFI mean per lane");
        }
        auto rfi =
            std::make_unique<pipe::LaneRfiStage>(rx_->rfi_stage(), dt_, n);
        for (std::size_t l = 0; l < n; ++l) rfi->set_mean(l, options.means[l]);
        p.lanes.add(std::move(rfi));
        break;
      }
      case Step::kRestore:
        p.lanes.add(
            std::make_unique<pipe::LaneRestoreStage>(rx_->restoring(), dt_, n));
        break;
      case Step::kNoisyProbe:
        p.noisy = probe(options.capture);
        break;
      case Step::kOutProbe:
        p.out = probe(end_capture(options.stop, options.capture));
        break;
    }
  }
  if (p.out == nullptr) p.out = p.noisy;
  return p;
}

// ---- Waveform capture -------------------------------------------------------

ChainPlan::Probes ChainPlan::capture_probes() const {
  if (config_.capture_waveforms) return Probes::kAll;
  return config_.capture_slicer_input ? Probes::kOut : Probes::kNone;
}

std::size_t ChainPlan::capture_limit() const {
  return config_.capture_max_samples > 0 ? config_.capture_max_samples
                                         : static_cast<std::size_t>(-1);
}

// ---- Streaming --------------------------------------------------------------

namespace {

/// Streams `source` block by block into `each`, capturing the first `cap`
/// samples as launched when `capture_tx` (the TX output) before `each`
/// may overwrite them.
analog::Waveform launch_blocks(pipe::LevelPulseSource& source,
                               std::size_t block, bool capture_tx,
                               std::size_t cap,
                               const std::function<void(pipe::Block&)>& each) {
  std::vector<double> tx;
  if (capture_tx) {
    tx.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(cap, source.total_samples())));
  }
  pipe::Block blk;
  while (source.produce(blk, block) > 0) {
    if (capture_tx && tx.size() < cap) {
      const std::size_t take = std::min(cap - tx.size(), blk.size());
      tx.insert(tx.end(), blk.data(), blk.data() + take);
    }
    each(blk);
  }
  if (!capture_tx) return {};
  return analog::Waveform{source.stream_t0(), source.dt(), std::move(tx)};
}

}  // namespace

analog::Waveform ChainPlan::stream(
    pipe::LevelPulseSource& source, Pass& pass,
    const std::function<void(const pipe::LaneView&)>& each,
    bool capture_tx) const {
  if (pass.kept.resumes()) {
    for (pipe::LaneBlock& tile : pass.kept.blocks) {
      pass.lanes.process_in_place(tile);
      each(tile.view());
    }
    return std::move(pass.kept.tx);
  }
  return launch_blocks(source, block_, capture_tx, capture_limit(),
                       [&](pipe::Block& blk) { each(pass.process(blk)); });
}

// ---- First pass -------------------------------------------------------------

std::vector<FirstPass> ChainPlan::first_pass(
    const channel::Channel& ch, const Launch& tx,
    const std::vector<std::uint64_t>& awgn_seeds, Probes probes,
    std::size_t capture, Kept* kept) const {
  const bool keep = kept != nullptr && resumes(tx);
  // A resumed pass 2 streams neither the launch nor the receiver input, so
  // their probes run here.
  const bool front_probes = keep && probes == Probes::kAll;
  PassOptions noisy_options;
  noisy_options.stop = first_stop();
  noisy_options.awgn_seeds = awgn_seeds;
  noisy_options.probes = Probes::kAll;
  noisy_options.capture = front_probes ? capture : 0;
  noisy_options.statistics = true;
  Pass noisy = pass(ch, tx, noisy_options);
  // PAM4 also measures a noise-free replay of the equalized stream, with
  // one probe at its end.  It runs only its lane steps, those after the
  // channel and the crosstalk, on the shared prefix's output, so that
  // prefix runs once per block for both.
  std::optional<Pass> clean;
  if (pam4_) {
    PassOptions clean_options;
    clean_options.stop = Stop::kEqualized;
    clean_options.probes = Probes::kOut;
    clean_options.statistics = true;
    const std::vector<Step> clean_steps = steps(clean_options);
    const auto lane_steps = std::find_if(
        clean_steps.begin(), clean_steps.end(),
        [](Step s) { return s != Step::kChannel && s != Step::kXtalk; });
    clean = build(ch, tx, {lane_steps, clean_steps.end()}, clean_options);
  }
  pipe::LevelPulseSource src = source(tx);
  std::vector<pipe::LaneBlock> blocks;
  analog::Waveform tx_out = launch_blocks(
      src, block_, front_probes, capture, [&](pipe::Block& blk) {
        (void)noisy.process(blk);
        // The noisy branch always runs the AWGN, so its output is a tile of
        // its own.
        if (keep) blocks.push_back(noisy.lanes.release_output());
        if (clean) (void)clean->lanes.process(pipe::as_tile(blk.view()));
      });
  std::vector<FirstPass> first(awgn_seeds.size());
  const std::uint64_t total = src.total_samples();
  if (total == 0) return first;
  for (std::size_t l = 0; l < first.size(); ++l) {
    first[l].swing_pp = noisy.noisy->max(l) - noisy.noisy->min(l);
    if (clean) {
      first[l].clean_min = clean->out->min(0);
      first[l].clean_max = clean->out->max(0);
    } else {
      first[l].mean = noisy.out->sum(l) / static_cast<double>(total);
    }
  }
  if (keep) {
    kept->blocks = std::move(blocks);
    kept->tx = std::move(tx_out);
    if (front_probes) {
      kept->noisy =
          std::make_unique<pipe::LaneWaveformTap>(std::move(*noisy.noisy));
    }
  }
  return first;
}

// ---- Runs -------------------------------------------------------------------

std::vector<LinkResult> ChainPlan::run(
    const channel::Channel& ch, const Launch& tx,
    const std::vector<std::uint64_t>& noise_seeds, std::uint64_t run_index,
    Probes probes) const {
  const std::size_t n = noise_seeds.size();
  if (n == 0) throw std::invalid_argument("ChainPlan: run needs a lane");
  // Receiver-input AWGN: a fresh seed per run keeps repeated runs
  // statistically independent while the whole experiment stays
  // deterministic.
  PassOptions options;
  for (const std::uint64_t seed : noise_seeds) {
    options.awgn_seeds.push_back(awgn_seed(seed, run_index));
  }
  options.probes = probes;
  options.capture = capture_limit();

  // ---- Pass 1: what the second pass must know up front ---------------------
  // The RFI front end subtracts the whole-stream mean (the AC coupling in
  // steady state), and the PAM4 slicers sit on the clean stream's range;
  // streaming can only know either after a full pass over the cheap front
  // half of the datapath.  A short chunk's pass 1 keeps its output, and the
  // probes in front of it run there.
  Kept kept;
  const std::vector<FirstPass> first = first_pass(
      ch, tx, options.awgn_seeds, probes, options.capture, &kept);

  // ---- Pass 2: the chain into the sampler/CDR sink -------------------------
  // It resumes from pass 1's output when pass 1 kept it, and otherwise
  // re-runs the same deterministic front half; either way it carries on to
  // the slicers.  The slicer threshold is lane-invariant (the
  // restoring-stage midpoint; PAM4 runs one lane).
  for (const FirstPass& f : first) options.means.push_back(f.mean);
  Pass chain = pass(ch, tx, options, std::move(kept));
  pipe::LevelPulseSource src = source(tx);
  pipe::SamplerCdrSink sink(sink_config(first[0], src, noise_seeds));
  const bool capture = probes == Probes::kAll;
  analog::Waveform tx_out = stream(
      src, chain, [&](const pipe::LaneView& in) { sink.consume(in); },
      capture);
  sink.finish();

  std::vector<LinkResult> results(n);
  for (std::size_t l = 0; l < n; ++l) {
    LinkResult& result = results[l];
    result.rx_swing_pp = first[l].swing_pp;
    result.decision_threshold = decision_threshold(first[l]);
    result.rx = recovered(sink, l);
    if (capture) {
      result.tx_out = l + 1 < n ? tx_out : std::move(tx_out);
      result.channel_out = chain.noisy->take(l);
    }
    // PAM4 has no RFI: the slicers read the equalized stream, which fills
    // the report's "restored" slot (the receiver input itself when there is
    // no CTLE either, and one probe serves both).
    if (chain.out != nullptr) {
      result.rx.restored =
          chain.out == chain.noisy ? result.channel_out : chain.out->take(l);
    }
  }
  return results;
}

std::vector<double> ChainPlan::slicer_input(const channel::Channel& ch,
                                            const Launch& tx,
                                            std::uint64_t awgn_seed) const {
  PassOptions options;
  options.awgn_seeds = {awgn_seed};
  Kept kept;
  if (!pam4_) {
    options.means = {
        first_pass(ch, tx, options.awgn_seeds, Probes::kNone, 0, &kept)[0]
            .mean};
  }
  Pass chain = pass(ch, tx, options, std::move(kept));
  pipe::LevelPulseSource src = source(tx);
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(src.total_samples()));
  (void)stream(
      src, chain,
      [&](const pipe::LaneView& v) {
        samples.insert(samples.end(), v.data, v.data + v.size);
      },
      /*capture_tx=*/false);
  return samples;
}

// ---- Sink -------------------------------------------------------------------

double ChainPlan::decision_threshold(const FirstPass& first) const {
  return pam4_ ? 0.5 * (first.clean_min + first.clean_max)
               : rx_->decision_threshold();
}

pipe::SamplerCdrSink::Config ChainPlan::sink_config(
    const FirstPass& first, const pipe::LevelPulseSource& source,
    const std::vector<std::uint64_t>& noise_seeds) const {
  pipe::SamplerCdrSink::Config c;
  c.symbol_rate = util::hertz(config_.bit_rate.value() /
                              static_cast<double>(config_.bits_per_ui()));
  c.oversampling = config_.cdr.oversampling;
  c.phase_offset = util::seconds(config_.rx_phase_offset_ui * ui_.value());
  c.ppm_offset = config_.ppm_offset;
  c.jitter.random_rms = config_.rx_random_jitter;
  c.jitter.sinusoidal_amplitude = config_.rx_sinusoidal_jitter;
  c.jitter.sinusoidal_freq =
      util::hertz(config_.sj_freq_ratio * config_.bit_rate.value());
  c.sampler = config_.sampler;
  c.sampler.threshold = decision_threshold(first);
  if (pam4_) {
    // The outer slicers sit a third of the clean range from the middle:
    // the boundaries between four equally spaced levels.
    const double third = (first.clean_max - first.clean_min) / 3.0;
    c.pam4 = true;
    c.threshold_low = c.sampler.threshold - third;
    c.threshold_high = c.sampler.threshold + third;
    c.extra_thresholds = config_.pam4_extra_thresholds;
  }
  c.dfe_taps = config_.dfe_taps;
  c.cdr = config_.cdr;
  for (const std::uint64_t seed : noise_seeds) {
    c.jitter_seeds.push_back(jitter_seed(seed));
    c.sampler_seeds.push_back(sampler_seed(seed));
  }
  c.total_samples = source.total_samples();
  c.stream_t0 = source.stream_t0();
  c.dt = source.dt();
  c.block_samples = block_;
  return c;
}

ReceiveResult ChainPlan::recovered(const pipe::SamplerCdrSink& sink,
                                   std::size_t lane) const {
  ReceiveResult rx;
  rx.recovered_bits = sink.recovered_bits(lane);
  rx.payload = digital::deframe_stream(rx.recovered_bits, config_.framing);
  rx.aligned = !rx.payload.empty();
  rx.frames = digital::Deserializer::deserialize(rx.payload);
  rx.cdr_decision_phase = sink.cdr(lane).decision_phase();
  rx.cdr_phase_updates = sink.cdr(lane).phase_updates();
  rx.metastable_samples = sink.metastable_count(lane);
  return rx;
}

}  // namespace serdes::core
