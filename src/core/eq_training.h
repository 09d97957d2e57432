// Sign-sign LMS link training (LinkSpec::eq == "trained").
//
// Before a trained run's payload traffic, the trainer replays a known PRBS
// preamble through the deterministic receive chain and adapts the
// equalizer settings the real datapath will then use:
//
//   * DFE taps      — data-aided sign-sign LMS against the known symbols:
//                     t_k += mu * sgn(e) * d_{n-1-k}, with the reference
//                     amplitude co-adapted by sign-LMS and a geometric
//                     step decay.  Converged taps are the average over the
//                     final quarter of the preamble.
//   * CTLE boost    — outer coordinate steps driven by the residual
//                     correlation beyond the DFE's reach (post-cursor ISI
//                     the feedback taps cannot cancel calls for more
//                     high-frequency peaking).
//   * TX FFE alpha  — engaged only when the first DFE tap saturates its
//                     clamp (the feedback path has run out of range and
//                     the de-emphasis must shoulder the remainder); NRZ
//                     only, since the PAM4 TX launches plain gray levels.
//
// Everything is deterministic given the config's noise seed: every
// candidate replays the crosstalk-free chain core::ChainPlan lays out
// against the training AWGN stream (ChainPlan::training_seed, noise_seed +
// 500), which is disjoint from the payload chunks (+100 + counter), the
// sampling-clock jitter (+1) and the sampler noise (+2), so training never
// perturbs the payload run's noise.
#pragma once

#include <cstddef>
#include <vector>

#include "channel/channel.h"
#include "core/config.h"

namespace serdes::core {

/// Converged equalizer settings from one training preamble.
struct TrainingResult {
  /// DFE post-cursor taps, in the symbol (+/-1) convention of the sink's
  /// feedback path — volts at the summing node per unit symbol weight.
  std::vector<double> dfe_taps;
  /// Trained TX de-emphasis factor (the authored value when the outer
  /// loop never engaged it).
  double tx_ffe_deemphasis = 0.0;
  /// Trained CTLE boost (dB).
  double rx_ctle_boost_db = 0.0;
  /// Converged reference amplitude A-hat (volts): the trained model's
  /// main-cursor swing per unit symbol at the summing node.
  double amplitude = 0.0;
  /// Preamble length actually used (UIs).
  int training_uis = 0;
  /// Outer adaptation passes run.
  int passes = 0;
};

/// Trains the equalizer for `config` over `training_uis` preamble UIs.
/// `n_taps` DFE taps are adapted (pass 0 to train CTLE/FFE only); the
/// config's authored dfe_taps / tx_ffe_deemphasis / rx_ctle_boost seed
/// the adaptation as starting values.  The channel is only read through
/// open_stream(), so the caller's instance can be reused for the payload
/// run afterwards.  Each coordinate step replays its new candidates
/// concurrently over util::parallel_for (inline when called from inside a
/// parallel_for task) and reuses the replay at the knob's current value,
/// then trains and accepts the candidates in order, so the result is
/// bit-identical to a serial search that replays every candidate.
[[nodiscard]] TrainingResult train_equalizer(const LinkConfig& config,
                                             const channel::Channel& channel,
                                             int training_uis,
                                             std::size_t n_taps);

}  // namespace serdes::core
