// Receive-chain plan: the one place that knows how a LinkConfig becomes
// the streaming datapath.
//
// The paper's receiver is one chain — the resistive-feedback inverter
// (RFI), the restoring inverter, the sampling flip-flops, then the digital
// oversampling CDR — behind the channel, optional crosstalk, the
// receiver-input AWGN and the optional CTLE.  A ChainPlan is lowered from
// a LinkConfig and a borrowed Receiver (whose device characterization it
// reuses and never repeats, so building one per training candidate is
// cheap), and it alone decides:
//
//   * the TX level mapping — rail levels at the driver delay, TX-FFE
//     levels at t0 = 0, and the PAM4 gray map with its 3,0 preamble;
//   * the stage order — channel -> crosstalk -> AWGN -> CTLE ->
//     RFI(mean) -> restore, where PAM4 slices the CTLE output.  One pass
//     type runs it: the lane-invariant channel and crosstalk once, in
//     place over the source block, then the AWGN fans the stream out into
//     a tile of one lane per noise seed and the lane stages run the rest.
//     A link is a one-lane tile; tiles of more than one lane run NRZ only;
//   * the first-pass statistic — NRZ: the equalized stream's DC mean,
//     which the RFI subtracts, and the receiver-input swing; PAM4: the
//     swing and the noise-free range that places the three slicers;
//   * whether pass 2 re-runs the front or resumes where pass 1 stopped
//     (resumes(): when a lane's stream fits in two blocks);
//   * the seed offsets from a lane's noise seed — +1 jitter, +2 sampler,
//     +100+n the AWGN of run n, +500 training;
//   * the pipe::SamplerCdrSink settings.
//
// run() drives one chunk through both passes into the sink for
// SerDesLink and LaneLink alike, slicer_input() replays the chain for
// train_equalizer, and the stat engine's pulse extraction runs a
// noise-free pass.  Only the tests' whole-waveform reference
// (tests/whole_waveform_reference.h) builds its own chain.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "analog/waveform.h"
#include "channel/channel.h"
#include "core/config.h"
#include "core/link.h"
#include "core/receiver.h"
#include "pipe/lane_stages.h"
#include "pipe/pam_stages.h"
#include "pipe/stages.h"
#include "util/units.h"

namespace serdes::core {

/// Per-UI launch levels and the stream time they launch at.
struct Launch {
  std::vector<double> levels;
  util::Second t0{0.0};
};

/// First-pass statistics of one lane's stream (ChainPlan::first_pass).
struct FirstPass {
  /// Peak-to-peak of the noisy receiver input (before the CTLE).
  double swing_pp = 0.0;
  /// NRZ: DC mean of the equalized stream — what the RFI subtracts.
  double mean = 0.0;
  /// PAM4: range of the noise-free equalized stream — where the slicers
  /// sit.
  double clean_min = 0.0;
  double clean_max = 0.0;
};

class ChainPlan {
 public:
  /// Where an instantiated pass stops.
  enum class Stop {
    kNoisy,      // the receiver input, after the AWGN
    kEqualized,  // after the CTLE
    kSlicer,     // what the slicers read: restored (NRZ), equalized (PAM4)
  };

  /// Where a pass carries probes (pipe::LaneWaveformTap).
  enum class Probes {
    kNone,
    kOut,  // at the end only (in a kSlicer pass, what the slicers read)
    kAll,  // after the AWGN and at the end
  };

  struct PassOptions {
    Stop stop = Stop::kSlicer;
    /// One AWGN stream seed per lane; empty replays the chain noise-free,
    /// as one lane.
    std::vector<std::uint64_t> awgn_seeds;
    /// NRZ: each lane's stream mean the RFI subtracts (FirstPass::mean),
    /// when the pass reaches the RFI.
    std::vector<double> means;
    /// The probes, each capturing up to `capture` samples per lane (its
    /// storage reserved once for at most the stream's length), except the
    /// end probe of a pass that stops before the slicers, which reads no
    /// slicer input and keeps only statistics.  One tap serves as both the
    /// first and the last when the pass ends at the receiver input.
    Probes probes = Probes::kNone;
    std::size_t capture = 0;
    /// The probes also keep the stream statistics (min, max, sample-order
    /// sum) — only first_pass reads them.
    bool statistics = false;
  };

  /// What pass 1 keeps for a pass 2 that resumes from it (see resumes()):
  /// the stream where pass 1 stopped, and the receiver-input probe, which
  /// ran in pass 1 because the resumed pass never streams that position.
  /// Empty when pass 2 re-runs the front.
  struct Kept {
    /// Pass 1's output tiles, taken from its pipeline without a copy, at
    /// the source's block boundaries and with their stream metadata.  NRZ:
    /// the equalized stream, which the RFI reads; PAM4: the noisy receiver
    /// input, which the CTLE reads.
    std::vector<pipe::LaneBlock> blocks;
    /// Pass 1's TX capture and receiver-input probe, under Probes::kAll.
    analog::Waveform tx;
    std::unique_ptr<pipe::LaneWaveformTap> noisy;

    [[nodiscard]] bool resumes() const { return !blocks.empty(); }
  };

  /// An instantiated pass and its probes (null when absent): the
  /// lane-invariant prefix (channel, crosstalk) runs once, in place over
  /// the source block, the AWGN fans it out into a tile, and the rest runs
  /// per lane.  A resumed pass starts from the kept tiles and has no
  /// shared prefix.
  struct Pass {
    pipe::Pipeline shared;
    pipe::LanePipeline lanes;
    pipe::LaneWaveformTap* noisy = nullptr;
    pipe::LaneWaveformTap* out = nullptr;
    /// A resumed pass 2's input, and the probe pass 1 ran for it.
    Kept kept;

    /// Runs one source block through the pass; `blk` is left holding the
    /// shared prefix's output.  The returned view is valid until the next
    /// call.
    [[nodiscard]] pipe::LaneView process(pipe::Block& blk) {
      shared.process_in_place(blk);
      return lanes.process(pipe::as_tile(blk.view()));
    }
  };

  /// Borrows `rx`, which must outlive the plan.
  ChainPlan(const LinkConfig& config, const Receiver& rx);

  // ---- Seeds: offsets from a lane's noise seed ------------------------------
  [[nodiscard]] static std::uint64_t awgn_seed(std::uint64_t noise_seed,
                                               std::uint64_t run) {
    return noise_seed + 100 + run;
  }
  [[nodiscard]] static std::uint64_t jitter_seed(std::uint64_t noise_seed) {
    return noise_seed + 1;
  }
  [[nodiscard]] static std::uint64_t sampler_seed(std::uint64_t noise_seed) {
    return noise_seed + 2;
  }
  [[nodiscard]] static std::uint64_t training_seed(std::uint64_t noise_seed) {
    return noise_seed + 500;
  }

  // ---- TX level mapping -----------------------------------------------------
  /// The launch of on-wire bits under this config's modulation (the PAM4
  /// preamble spans the framing preamble).
  [[nodiscard]] Launch launch(const std::vector<std::uint8_t>& bits) const;
  /// NRZ: TX-FFE levels at t0 = 0 when the FFE is on, rail levels at the
  /// driver delay otherwise.
  [[nodiscard]] Launch nrz_launch(const std::vector<std::uint8_t>& bits) const;
  /// PAM4: bit pairs (MSB first) gray-mapped onto 4 levels at the driver
  /// delay.  The first `preamble_bits` launch as alternating full-swing
  /// 3,0 symbols instead: the 1010 preamble would gray-map to a constant
  /// symbol 3, with no edges for the CDR to lock to (the deframer aligns
  /// on the sync word, so recovery is unaffected).
  [[nodiscard]] Launch pam4_launch(const std::vector<std::uint8_t>& bits,
                                   std::size_t preamble_bits) const;
  /// vdd for a 1, 0 V for a 0.
  [[nodiscard]] std::vector<double> rail_levels(
      const std::vector<std::uint8_t>& bits) const;
  /// Gray code (0,0) (0,1) (1,1) (1,0) -> levels 0..3 in ascending voltage,
  /// so every slicer error against an adjacent level costs exactly one bit.
  [[nodiscard]] static int gray_symbol(bool msb, bool lsb) {
    return msb ? (lsb ? 2 : 3) : (lsb ? 1 : 0);
  }
  [[nodiscard]] pipe::LevelPulseSource source(const Launch& tx) const;
  /// Samples per streaming block.
  [[nodiscard]] std::size_t block() const { return block_; }

  /// Whether pass 2 of `tx` resumes from pass 1's output instead of
  /// re-running the front: when a lane's stream is at most two blocks.
  /// Pass 1 then keeps its own output blocks, no more than the two
  /// ping-pong blocks its pipeline already owns, and a resumed pass 2
  /// draws no source block, so a chunk's peak memory stays within one
  /// block of a re-run's.  Longer streams re-run the front, so memory
  /// stays O(block).
  [[nodiscard]] bool resumes(const Launch& tx) const;

  // ---- Chain instantiation --------------------------------------------------
  /// The chain for `tx` over `ch` (which must outlive the pass).  With a
  /// `kept` stream, only the steps after the point where pass 1 stopped:
  /// NRZ from the RFI, PAM4 from the CTLE.  Throws std::invalid_argument
  /// for a PAM4 pass of more than one lane, or when a pass that reaches
  /// the RFI lacks a mean per lane.
  [[nodiscard]] Pass pass(const channel::Channel& ch, const Launch& tx,
                          const PassOptions& options, Kept kept = {}) const;

  // ---- Waveform capture -----------------------------------------------------
  /// The probes a run of this config captures into: every position under
  /// LinkConfig::capture_waveforms, the slicer input alone under
  /// capture_slicer_input, none otherwise.
  [[nodiscard]] Probes capture_probes() const;

  // ---- Streaming ------------------------------------------------------------
  /// Streams pass 2 of `source`'s launch through `pass` block by block,
  /// handing each output tile to `each`: from the tiles pass 1 kept when
  /// the pass resumes, and from `source` otherwise.  With `capture_tx`,
  /// returns the stream's first capture_limit() samples as launched (the
  /// TX output, captured in pass 1 when the pass resumes); an empty
  /// waveform otherwise.
  [[nodiscard]] analog::Waveform stream(
      pipe::LevelPulseSource& source, Pass& pass,
      const std::function<void(const pipe::LaneView&)>& each,
      bool capture_tx) const;

  // ---- First pass -----------------------------------------------------------
  /// Streams `tx` once through the front of the chain, one lane per AWGN
  /// seed, and measures what the second pass needs.  NRZ: each lane's
  /// swing at the receiver input and its equalized stream's mean,
  /// accumulated in sample order (the exact sum Waveform::mean_value()
  /// computes for analog::RfiStage::process in
  /// tests/whole_waveform_reference.h).  PAM4 (one lane): the swing and
  /// the range of a noise-free replay of the equalized stream — its
  /// midpoint, unlike the mean, is immune to the duty skew of the leading
  /// and trailing zero-level regions, and leaving the noise out keeps its
  /// tails from pushing the outer slicers off the sub-eye boundaries.  The
  /// replay reads the same run of the shared channel and crosstalk.
  ///
  /// With `kept`, when resumes(tx), also keeps the stream where this pass
  /// stops (NRZ: after the CTLE; PAM4: after the AWGN) for pass 2 to
  /// resume from: the same stages with the same seeds over the same block
  /// boundaries compute exactly the samples pass 2 would re-run.  A pass 2
  /// with `probes` kAll then streams neither the launch nor the receiver
  /// input, so this pass captures them, up to `capture` samples each.
  [[nodiscard]] std::vector<FirstPass> first_pass(
      const channel::Channel& ch, const Launch& tx,
      const std::vector<std::uint64_t>& awgn_seeds,
      Probes probes = Probes::kNone, std::size_t capture = 0,
      Kept* kept = nullptr) const;

  // ---- Runs -----------------------------------------------------------------
  /// One chunk over `ch`: `tx` as run number `run_index` of one lane per
  /// noise seed — pass 1, pass 2 (resumed or re-run, see resumes()), the
  /// sampler/CDR sink, and each lane's LinkResult short of
  /// SerDesLink::finalize_result, which compares it against the payload.
  /// `probes` capture into the result's waveforms, capture_limit()
  /// samples each; the TX output is lane-invariant and copied per lane.
  /// Throws std::invalid_argument without a noise seed.
  [[nodiscard]] std::vector<LinkResult> run(
      const channel::Channel& ch, const Launch& tx,
      const std::vector<std::uint64_t>& noise_seeds, std::uint64_t run_index,
      Probes probes) const;
  /// What the slicers read when `tx` streams over `ch` with the AWGN of
  /// `awgn_seed`: the NRZ chain takes a first pass for its RFI mean and
  /// resumes from it as a run does; the PAM4 chain ends at the CTLE and
  /// needs none.  The training replay.
  [[nodiscard]] std::vector<double> slicer_input(
      const channel::Channel& ch, const Launch& tx,
      std::uint64_t awgn_seed) const;

 private:
  /// One stage of the chain, or a probe position.
  enum class Step {
    kChannel,
    kXtalk,
    kAwgn,
    kNoisyProbe,
    kCtle,
    kRfi,
    kRestore,
    kOutProbe
  };
  /// The stage order, written once: the steps this config runs up to
  /// `stop` — crosstalk only when a path has gain, the AWGN unless `noise`
  /// is off, the CTLE only when boosted, the RFI and restore only under
  /// NRZ — with the positions of `probes`.
  [[nodiscard]] std::vector<Step> steps(Stop stop, bool noise,
                                        Probes probes) const;
  /// The steps of a pass with `options`.
  [[nodiscard]] std::vector<Step> steps(const PassOptions& options) const {
    return steps(options.stop, !options.awgn_seeds.empty(), options.probes);
  }
  /// Where a first pass stops: the receiver input under PAM4, whose
  /// slicers sit on a separate noise-free replay, the equalized stream
  /// under NRZ.
  [[nodiscard]] Stop first_stop() const {
    return pam4_ ? Stop::kNoisy : Stop::kEqualized;
  }
  /// The part of `s` a resumed pass runs: the steps after the first
  /// pass's last stage, less the receiver-input probe, which ran there.
  [[nodiscard]] std::vector<Step> resumed(std::vector<Step> s,
                                          bool noise) const;
  /// Instantiates `run`, a run of steps(options), as a pass.
  [[nodiscard]] Pass build(const channel::Channel& ch, const Launch& tx,
                           std::span<const Step> run,
                           const PassOptions& options) const;
  /// The crosstalk stage for one pass over `ch`: every lane of a bus
  /// carries the same framed stream, so an aggressor launches the
  /// victim's levels `tx` shifted by its UI delay, and paths at one delay
  /// share that launch.  Zero-gain paths are dropped so a zero-coupling
  /// bus lane stays byte-identical to a standalone link.
  [[nodiscard]] std::unique_ptr<pipe::XtalkInjectStage> xtalk_stage(
      const channel::Channel& ch, const Launch& tx) const;
  /// Samples each capture probe keeps: LinkConfig::capture_max_samples,
  /// where 0 keeps the whole stream.
  [[nodiscard]] std::size_t capture_limit() const;
  /// The sampler/CDR sink for `source`'s stream, one lane per noise seed.
  [[nodiscard]] pipe::SamplerCdrSink::Config sink_config(
      const FirstPass& first, const pipe::LevelPulseSource& source,
      const std::vector<std::uint64_t>& noise_seeds) const;
  /// The threshold the slicers run at: the restoring-stage midpoint under
  /// NRZ, the calibrated middle threshold under PAM4.
  [[nodiscard]] double decision_threshold(const FirstPass& first) const;
  /// Lane `lane`'s recovered stream, aligned and deserialized.
  [[nodiscard]] ReceiveResult recovered(const pipe::SamplerCdrSink& sink,
                                        std::size_t lane) const;
  /// Samples a probe captures for a `capture` cap: no more than the
  /// stream of `tx` holds.
  [[nodiscard]] std::size_t capture_samples(const Launch& tx,
                                            std::size_t capture) const;

  LinkConfig config_;
  const Receiver* rx_;
  bool pam4_;
  bool has_xtalk_;
  bool use_ctle_;
  double vdd_;
  double sigma_;
  int spu_;
  util::Second ui_;
  util::Second dt_;
  util::Second rise_;
  util::Second delay_;
  std::size_t block_;
};

}  // namespace serdes::core
