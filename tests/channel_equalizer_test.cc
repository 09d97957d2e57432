#include "channel/equalizer.h"

#include <gtest/gtest.h>

#include <memory>

#include "channel/channel.h"
#include "core/link.h"
#include "util/prbs.h"
#include "whole_waveform_reference.h"

namespace serdes::channel {
namespace {

constexpr util::Second kDt = util::Second{31.25e-12};

TEST(TxFfe, Validation) {
  EXPECT_THROW(TxFfe({}, util::volts(1.8)), std::invalid_argument);
  EXPECT_THROW(TxFfe::de_emphasis(0.7, util::volts(1.8)),
               std::invalid_argument);
}

TEST(TxFfe, PassthroughWithSingleTap) {
  const TxFfe ffe({1.0}, util::volts(1.8));
  const auto w = ffe.shape({0, 1, 0, 1}, util::gigahertz(2.0), 16,
                           util::picoseconds(0.0));
  EXPECT_NEAR(w.max_value(), 1.8, 1e-9);
  EXPECT_NEAR(w.min_value(), 0.0, 1e-9);
}

TEST(TxFfe, DeEmphasisCreatesFourLevels) {
  // 2-tap de-emphasis: transition bits get full swing, repeated bits are
  // de-emphasized toward mid-rail.
  const TxFfe ffe = TxFfe::de_emphasis(0.25, util::volts(1.8));
  // bits: 0 1 1 0 0 -> after the 1->1 repeat the level drops.
  const auto w = ffe.shape({0, 1, 1, 0, 0}, util::gigahertz(1.0), 16,
                           util::picoseconds(0.0));
  const double v_transition = w.value_at(util::nanoseconds(1.5));  // 0->1
  const double v_repeat = w.value_at(util::nanoseconds(2.5));      // 1->1
  EXPECT_GT(v_transition, v_repeat);
  EXPECT_GT(v_repeat, 0.9);  // still logic high
  // Mirror on the low side.
  const double v_low_transition = w.value_at(util::nanoseconds(3.5));
  const double v_low_repeat = w.value_at(util::nanoseconds(4.5));
  EXPECT_LT(v_low_transition, v_low_repeat);
}

TEST(TxFfe, BoostsHighFrequencyContent) {
  // Pre-emphasis flattens the combined TX+channel response: through a
  // low-pass channel, the equalized eye at the sampling instant improves.
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs15);
  const auto bits = prbs.next_bits(600);
  const TxFfe flat({1.0}, util::volts(1.8));
  const TxFfe eq = TxFfe::de_emphasis(0.3, util::volts(1.8));
  const auto raw = flat.shape(bits, util::gigahertz(2.0), 16,
                              util::picoseconds(50.0));
  const auto shaped = eq.shape(bits, util::gigahertz(2.0), 16,
                               util::picoseconds(50.0));
  RcChannel channel(util::megahertz(700.0), raw.sample_period());
  auto rx_raw = channel.transmit(raw);
  auto rx_eq = channel.transmit(shaped);
  // Worst-case inner eye: sample every bit centre, track min distance from
  // mid-rail among correct-polarity samples.
  auto inner_eye = [&](const analog::Waveform& w) {
    double worst = 1e9;
    for (std::size_t i = 20; i < bits.size() - 1; ++i) {
      const double v = w.value_at(util::seconds(
          (static_cast<double>(i) + 0.5) * 0.5e-9));
      const double centered = bits[i] ? v - 0.9 : 0.9 - v;
      worst = std::min(worst, centered);
    }
    return worst;
  };
  EXPECT_GT(inner_eye(rx_eq), inner_eye(rx_raw));
}

TEST(RxCtle, FlatAtDcBoostedAtHighFrequency) {
  const RxCtle ctle(util::decibels(6.0), util::megahertz(500.0), kDt);
  EXPECT_NEAR(ctle.gain_at(util::hertz(1.0)), 1.0, 1e-3);
  const double hf = ctle.gain_at(util::gigahertz(5.0));
  EXPECT_NEAR(hf, util::db_to_amplitude(util::decibels(6.0)), 0.05);
  EXPECT_THROW(RxCtle(util::decibels(-1.0), util::megahertz(500.0), kDt),
               std::invalid_argument);
}

TEST(RxCtle, EqualizesLossyLine) {
  // A CTLE with boost matched to the channel roll-off reopens the eye.
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs15);
  const auto bits = prbs.next_bits(500);
  auto tx = analog::Waveform::nrz(bits, util::nanoseconds(0.5), 16, 0.0, 1.0,
                                  util::picoseconds(50.0));
  RcChannel channel(util::megahertz(600.0), tx.sample_period());
  const auto rx = channel.transmit(tx);
  const RxCtle ctle(util::decibels(8.0), util::megahertz(600.0),
                    tx.sample_period());
  const auto eq = ctle.equalize(rx);
  auto worst_eye = [&](const analog::Waveform& w, double mid) {
    double worst = 1e9;
    for (std::size_t i = 20; i < bits.size() - 1; ++i) {
      const double v = w.value_at(util::seconds(
          (static_cast<double>(i) + 0.55) * 0.5e-9));
      worst = std::min(worst, bits[i] ? v - mid : mid - v);
    }
    return worst;
  };
  EXPECT_GT(worst_eye(eq, eq.mean_value()), worst_eye(rx, rx.mean_value()));
}

TEST(Equalization, FfeExtendsDispersiveReach) {
  // The system-level payoff: over a dispersive line at a loss where the
  // unequalized link errors, TX de-emphasis brings it back to error-free.
  using namespace serdes::core;
  LinkConfig cfg = LinkConfig::paper_default();
  LossyLineChannel::Params heavy;
  heavy.dc_loss_db = 6.0;
  heavy.skin_loss_db_at_1ghz = 14.0;
  heavy.dielectric_loss_db_at_1ghz = 9.0;

  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs15);
  const auto payload = prbs.next_bits(2500);
  Transmitter tx(cfg);
  const auto wire = tx.wire_bits(payload);

  auto run_with_tx = [&](const analog::Waveform& line_in) {
    LossyLineChannel line(heavy, cfg.sample_period());
    auto rx_wave = line.transmit(line_in);
    const Receiver rx(cfg);
    const auto res = whole_waveform::receive(cfg, rx, rx_wave);
    std::uint64_t errors = 0;
    const std::size_t ncmp = std::min(payload.size(), res.payload.size());
    if (!res.aligned || ncmp < payload.size() / 2) {
      return ~std::uint64_t{0};
    }
    for (std::size_t i = 0; i < ncmp; ++i) {
      if ((payload[i] != 0) != (res.payload[i] != 0)) ++errors;
    }
    return errors;
  };

  const TxFfe flat({1.0}, cfg.driver.vdd);
  const TxFfe eq = TxFfe::de_emphasis(0.33, cfg.driver.vdd);
  const auto raw_errors = run_with_tx(flat.shape(
      wire, cfg.bit_rate, cfg.samples_per_ui, util::picoseconds(100.0)));
  const auto eq_errors = run_with_tx(eq.shape(
      wire, cfg.bit_rate, cfg.samples_per_ui, util::picoseconds(100.0)));
  EXPECT_LT(eq_errors, raw_errors);
  EXPECT_GT(raw_errors, 0ull);
}

}  // namespace
}  // namespace serdes::channel
