// Fully digital oversampling clock-and-data recovery (paper Section IV-C).
//
// The receiver samples the incoming data with N phase-shifted copies of an
// external reference clock (N samples per unit interval), stores them in a
// register bank, detects data transitions to locate the bit boundary, and
// picks the sampling phase farthest from the transitions as the decision
// point.  Two scan-configurable refinements from the paper:
//   * glitch correction — each recovered bit is a majority vote over a
//     (2G+1)-sample neighbourhood instead of a single sample;
//   * jitter correction — the decision phase only moves after the boundary
//     detector agrees on a new location for J consecutive vote windows
//     (hysteresis against jitter-induced edge scatter).
#pragma once

#include <cstdint>
#include <vector>

namespace serdes::digital {

struct CdrConfig {
  /// Samples per unit interval (the oversampling factor).
  int oversampling = 5;
  /// Bit-boundary vote window length, in unit intervals.
  int window_uis = 16;
  /// Glitch-correction scan: majority-vote half-width G (0 disables).
  int glitch_filter_radius = 1;
  /// Jitter-correction scan: consecutive windows J required to move the
  /// sampling phase (1 = move immediately).
  int jitter_hysteresis = 2;
};

class OversamplingCdr {
 public:
  explicit OversamplingCdr(const CdrConfig& config);

  /// Pushes one raw oversampled comparator output.  Recovered bits appear
  /// in recovered() with a small pipeline delay (the glitch filter is
  /// non-causal by G samples).
  void push(bool sample) { push_rails<false>(sample, false); }

  /// Dual-rail push for PAM4: `sample` is the middle-threshold (MSB)
  /// comparator output — it alone drives edge detection and phase picks,
  /// exactly like push() — while `aux` carries the decoded LSB rail, which
  /// rides along through its own ring and gets the same glitch-filter
  /// majority vote at each decision instant.  Recovered LSBs appear in
  /// aux_recovered(), index-aligned with recovered().  push() and push2()
  /// must not be mixed on one instance.
  void push2(bool sample, bool aux) { push_rails<true>(sample, aux); }

  /// Batch helper: pushes all samples and returns the recovered bits.
  [[nodiscard]] std::vector<std::uint8_t> recover(
      const std::vector<std::uint8_t>& samples);

  [[nodiscard]] const std::vector<std::uint8_t>& recovered() const {
    return recovered_;
  }

  /// LSB rail recovered by push2(), index-aligned with recovered().
  [[nodiscard]] const std::vector<std::uint8_t>& aux_recovered() const {
    return aux_recovered_;
  }

  /// Current decision phase (0 .. oversampling-1).
  [[nodiscard]] int decision_phase() const { return pick_; }
  /// Number of phase updates accepted by the jitter-correction logic.
  [[nodiscard]] std::uint64_t phase_updates() const { return phase_updates_; }
  /// Number of boundary-vote windows evaluated.
  [[nodiscard]] std::uint64_t windows_evaluated() const { return windows_; }
  /// Total data transitions observed.
  [[nodiscard]] std::uint64_t edges_seen() const { return edges_; }

  [[nodiscard]] const CdrConfig& config() const { return config_; }

 private:
  /// The body of push (kAux false) and push2 (kAux true).  Inline, with
  /// the ring/phase positions kept as wrapping cursors — this runs once per
  /// oversample, so the hot path must stay free of 64-bit divisions.
  template <bool kAux>
  void push_rails(bool sample, bool aux) {
    if (kAux && aux_ring_.empty()) aux_ring_.assign(ring_.size(), 0);
    ring_[ring_pos_] = sample ? 1 : 0;
    if (kAux) aux_ring_[ring_pos_] = aux ? 1 : 0;

    if (count_ > 0 && sample != last_sample_) {
      // Transition between samples count_-1 and count_: bin it at the
      // phase of the later sample.
      ++votes_[phase_pos_];
      ++edges_;
    }
    last_sample_ = sample;

    // Decide the bit whose centre sample is `count_ - G` once its trailing
    // glitch-filter context has arrived.
    const auto g = static_cast<std::uint64_t>(config_.glitch_filter_radius);
    if (count_ >= g) {
      const std::uint64_t center = count_ - g;
      if (center == next_decision_) {
        recovered_.push_back(majority_at(ring_, center) ? 1 : 0);
        if (kAux) {
          aux_recovered_.push_back(majority_at(aux_ring_, center) ? 1 : 0);
        }
        next_decision_ += static_cast<std::uint64_t>(config_.oversampling);
      }
    }

    ++count_;
    if (++ring_pos_ == ring_.size()) ring_pos_ = 0;
    if (++phase_pos_ == votes_.size()) phase_pos_ = 0;
    if (--window_countdown_ == 0) {
      window_countdown_ = static_cast<std::uint64_t>(config_.oversampling) *
                          static_cast<std::uint64_t>(config_.window_uis);
      evaluate_window();
    }
  }

  void evaluate_window();
  /// The glitch filter: the majority of `ring`'s (2G+1)-sample
  /// neighbourhood of absolute sample `center`.  Out of line: it runs once
  /// per decided bit, off the per-oversample path push_rails inlines.
  [[nodiscard]] bool majority_at(const std::vector<std::uint8_t>& ring,
                                 std::uint64_t center) const;

  CdrConfig config_;
  std::vector<std::uint32_t> votes_;     // edge votes per phase bin
  std::vector<std::uint8_t> ring_;       // recent raw samples
  std::vector<std::uint8_t> aux_ring_;   // LSB rail (push2 only; else empty)
  std::uint64_t count_ = 0;              // samples consumed
  std::size_t ring_pos_ = 0;             // == count_ % ring_.size()
  std::size_t phase_pos_ = 0;            // == count_ % oversampling
  std::uint64_t window_countdown_ = 0;   // samples until the next window
  bool last_sample_ = false;
  int pick_;                             // decision phase (reporting)
  /// Absolute sample index of the next decision.  Phase updates shift this
  /// by the signed phase delta, so a pick that wraps across phase 0 does
  /// not duplicate or drop a bit (slips only occur for genuine add/drop
  /// under frequency offset).
  std::uint64_t next_decision_;
  int candidate_ = -1;                   // pending new phase
  int candidate_streak_ = 0;
  std::uint64_t phase_updates_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t edges_ = 0;
  std::vector<std::uint8_t> recovered_;
  std::vector<std::uint8_t> aux_recovered_;
};

}  // namespace serdes::digital
