// pipe::LevelPulseSource as it was before it found each sample's bit by
// integer index, for the tests and the benches.
//
// This source computes every sample's instant t = (p + 0.5) dt and bit
// quotient t / ui in two flat passes over the block (so the multiply and
// the divide vectorize), takes the bit as trunc(t / ui), and fills samples
// past the last level with 0.  The library's source walks the block UI by
// UI with the bit p / samples_per_ui and the same per-sample expressions.
// tests/pipe_stream_test.cc pins the library to this loop bit for bit, and
// bench_perf_kernels times it (stage_source_quotient_sample) against the
// library's source on the same launch (stage_source_sample).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "pipe/block.h"
#include "util/units.h"

namespace serdes::level_pulse_reference {

/// LevelPulseSource::produce with a division per sample.
class QuotientSource {
 public:
  QuotientSource(std::vector<double> levels, util::Second unit_interval,
                 int samples_per_ui, util::Second rise_time,
                 util::Second stream_t0)
      : levels_(std::move(levels)),
        ui_(unit_interval),
        dt_(unit_interval / static_cast<double>(samples_per_ui)),
        t0_(stream_t0),
        tr_(rise_time.value()),
        total_(levels_.size() * static_cast<std::uint64_t>(samples_per_ui)) {
    if (samples_per_ui < 2) {
      throw std::invalid_argument("QuotientSource: need >= 2 samples per UI");
    }
  }

  std::size_t produce(pipe::Block& out, std::size_t max_samples) {
    const std::uint64_t remaining = total_ - pos_;
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(max_samples, remaining));
    if (n == 0) return 0;

    out.samples().resize(n);
    out.set_start_index(pos_);
    out.set_stream_t0(t0_);
    out.set_dt(dt_);
    double* samples = out.data();

    const double ui = ui_.value();
    const double dt = dt_.value();
    const double tr = tr_;
    const double half_tr = tr / 2.0;
    scratch_t_.resize(n);
    scratch_q_.resize(n);
    double* ts = scratch_t_.data();
    double* qs = scratch_q_.data();
    const std::uint64_t pos = pos_;
    for (std::size_t j = 0; j < n; ++j) {
      ts[j] = (static_cast<double>(pos + j) + 0.5) * dt;
    }
    for (std::size_t j = 0; j < n; ++j) qs[j] = ts[j] / ui;

    const double* levels = levels_.data();
    const std::size_t nbits = levels_.size();
    for (std::size_t j = 0; j < n; ++j) {
      const double t = ts[j];
      const auto bit = static_cast<std::size_t>(qs[j]);
      if (bit >= nbits) {
        samples[j] = 0.0;
        continue;
      }
      const double lvl = levels[bit];
      double v = lvl;
      if (tr > 0.0) {
        // Blend across the transition centred at the bit boundary.
        const double t_in_bit = t - static_cast<double>(bit) * ui;
        if (bit > 0 && t_in_bit < half_tr) {
          const double prev = levels[bit - 1];
          const double x = (t_in_bit + half_tr) / tr;  // 0..1 across the edge
          v = prev + (lvl - prev) * x;
        } else if (bit + 1 < nbits && t_in_bit > ui - half_tr) {
          const double next = levels[bit + 1];
          const double x = (t_in_bit - (ui - half_tr)) / tr;
          v = lvl + (next - lvl) * x;
        }
      }
      samples[j] = v;
    }

    pos_ += n;
    out.set_last(pos_ == total_);
    return n;
  }

  void reset() { pos_ = 0; }

 private:
  std::vector<double> levels_;
  util::Second ui_;
  util::Second dt_;
  util::Second t0_;
  double tr_;
  std::uint64_t total_;
  std::uint64_t pos_ = 0;
  std::vector<double> scratch_t_;
  std::vector<double> scratch_q_;
};

}  // namespace serdes::level_pulse_reference
