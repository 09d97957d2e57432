// RTL-vs-model equivalence: the kernel-backed serializer/deserializer FSMs
// must agree bit-for-bit with the functional models — this repo's analogue
// of the RTL verification step in the paper's flow.
#include <gtest/gtest.h>

#include "digital/rtl_modules.h"
#include "digital/sampling.h"
#include "sim/clock.h"
#include "util/random.h"

namespace serdes::digital {
namespace {

TEST(RtlDff, CapturesOnRisingEdgeOnly) {
  sim::Kernel k;
  sim::Wire clk(k);
  sim::Wire d(k);
  sim::Wire q(k);
  RtlDff dff(k, clk, d, q);
  d.init(true);
  // No clock edge yet: q stays low.
  k.schedule(sim::sim_ns(1), [&] { d.write(true); });
  k.run_until(sim::sim_ns(2));
  EXPECT_FALSE(q.read());
  // Rising edge captures D.
  k.schedule(sim::sim_ns(1), [&] { clk.write(true); });
  k.run_until(sim::sim_ns(4));
  EXPECT_TRUE(q.read());
  // Falling edge does nothing.
  k.schedule(sim::sim_ns(1), [&] {
    d.write(false);
    clk.write(false);
  });
  k.run_until(sim::sim_ns(6));
  EXPECT_TRUE(q.read());
}

TEST(RtlDff, SynchronousReset) {
  sim::Kernel k;
  sim::Wire clk(k);
  sim::Wire d(k);
  sim::Wire q(k);
  sim::Wire rst(k);
  RtlDff dff(k, clk, d, q, &rst);
  d.init(true);
  rst.init(true);
  k.schedule(sim::sim_ns(1), [&] { clk.write(true); });
  k.run_until(sim::sim_ns(2));
  EXPECT_FALSE(q.read());  // reset wins
}

TEST(RtlSerializer, MatchesFunctionalModel) {
  sim::Kernel k;
  sim::Wire clk(k);
  sim::Wire serial(k);
  RtlSerializer ser(k, clk, serial);

  util::Rng rng(31);
  ParallelFrame frame;
  for (auto& lane : frame.lanes) {
    lane = static_cast<std::uint32_t>(rng.next_u64());
  }
  ser.queue_frame(frame);

  // Collect the serial output on the falling edge (mid-bit).
  std::vector<std::uint8_t> observed;
  sim::on_negedge(clk, [&] {
    observed.push_back(serial.read() ? 1 : 0);
  });

  sim::Clock::Config ccfg;
  ccfg.period = sim::sim_ps(500);
  sim::Clock clock(k, clk, ccfg);
  clock.start();
  k.run_until(sim::sim_ns(256 / 2 + 10));  // 256 bits at 0.5 ns

  const auto expected = Serializer::serialize(frame);
  ASSERT_GE(observed.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(observed[i], expected[i]) << "bit " << i;
  }
  EXPECT_EQ(ser.bits_sent(), 256u);
}

TEST(RtlSerializer, IdlesLowWithEmptyQueue) {
  sim::Kernel k;
  sim::Wire clk(k);
  sim::Wire serial(k);
  RtlSerializer ser(k, clk, serial);
  sim::Clock::Config ccfg;
  ccfg.period = sim::sim_ns(1);
  sim::Clock clock(k, clk, ccfg);
  clock.start();
  k.run_until(sim::sim_ns(20));
  EXPECT_FALSE(serial.read());
  EXPECT_FALSE(ser.busy());
  EXPECT_EQ(ser.bits_sent(), 0u);
}

TEST(RtlLoopback, SerializerToDeserializerRoundTrip) {
  // The integration check: RTL serializer drives RTL deserializer through a
  // wire, one clock domain, multiple frames.
  sim::Kernel k;
  sim::Wire clk(k);
  sim::Wire serial(k);
  RtlSerializer ser(k, clk, serial);

  // The deserializer samples on a half-period delayed clock so it sees each
  // bit mid-eye (the analog link's CDR does the same job).
  sim::Wire rx_clk(k);
  RtlDeserializer des(k, rx_clk, serial);

  util::Rng rng(33);
  std::vector<ParallelFrame> frames(3);
  for (auto& f : frames) {
    for (auto& lane : f.lanes) {
      lane = static_cast<std::uint32_t>(rng.next_u64());
    }
    ser.queue_frame(f);
  }

  sim::Clock::Config tx_cfg;
  tx_cfg.period = sim::sim_ps(500);
  sim::Clock tx_clock(k, clk, tx_cfg);
  sim::Clock::Config rx_cfg;
  rx_cfg.period = sim::sim_ps(500);
  rx_cfg.phase_offset = sim::sim_ps(250);
  sim::Clock rx_clock(k, rx_clk, rx_cfg);
  tx_clock.start();
  rx_clock.start();

  k.run_until(sim::sim_ns(3 * 256 / 2 + 20));
  ASSERT_GE(des.frames().size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(des.frames()[i], frames[i]) << "frame " << i;
  }
}

TEST(MultiphaseClocks, InstantsAreUniform) {
  MultiphaseClockGenerator gen(util::gigahertz(2.0), 5);
  const double step = 0.5e-9 / 5.0;
  for (int ui = 0; ui < 3; ++ui) {
    for (int p = 0; p < 5; ++p) {
      const double expected = 0.5e-9 * ui + step * p;
      EXPECT_NEAR(gen.instant(static_cast<std::uint64_t>(ui), p).value(),
                  expected, 1e-15);
    }
  }
}

TEST(MultiphaseClocks, PpmOffsetStretchesUi) {
  MultiphaseClockGenerator nominal(util::gigahertz(1.0), 4, util::seconds(0.0),
                                   0.0);
  MultiphaseClockGenerator slow(util::gigahertz(1.0), 4, util::seconds(0.0),
                                -100.0);  // RX slower -> longer UI
  EXPECT_GT(slow.instant(1000, 0).value(), nominal.instant(1000, 0).value());
}

TEST(MultiphaseClocks, Validation) {
  EXPECT_THROW(MultiphaseClockGenerator(util::gigahertz(1.0), 1),
               std::invalid_argument);
  // -1e6 ppm stops the receiver clock: an infinite UI.
  EXPECT_THROW(MultiphaseClockGenerator(util::gigahertz(1.0), 4,
                                        util::seconds(0.0), -1e6),
               std::invalid_argument);
}

}  // namespace
}  // namespace serdes::digital
