// Tests for the SocketCAN bridge.  Frame conversion is pure and always
// tested; the live-socket paths skip gracefully when the host has no CAN
// interface (typical CI container).

#include <gtest/gtest.h>

#include <chrono>

#include "can/bus.hpp"
#include "sim/engine.hpp"
#include "socketcan/frame_conv.hpp"
#include "socketcan/gateway.hpp"
#include "socketcan/realtime.hpp"

namespace canely::socketcan {
namespace {

TEST(FrameConv, DataFrameRoundTrip) {
  const std::uint8_t payload[] = {1, 2, 3};
  const can::Frame f = can::Frame::make_data(0x123, payload);
  const auto lin = to_linux(f);
  EXPECT_EQ(lin.can_id, 0x123u);
  EXPECT_EQ(lin.can_dlc, 3);
  const auto back = from_linux(lin);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, f);
}

TEST(FrameConv, ExtendedIdSetsEffFlag) {
  const can::Frame f =
      can::Frame::make_data(0x1ABCDEF, {}, can::IdFormat::kExtended);
  const auto lin = to_linux(f);
  EXPECT_TRUE(lin.can_id & CAN_EFF_FLAG);
  EXPECT_EQ(lin.can_id & CAN_EFF_MASK, 0x1ABCDEFu);
  const auto back = from_linux(lin);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->format, can::IdFormat::kExtended);
  EXPECT_EQ(back->id, 0x1ABCDEFu);
}

TEST(FrameConv, RemoteFrameSetsRtrFlag) {
  const can::Frame f = can::Frame::make_remote(0x77, 2);
  const auto lin = to_linux(f);
  EXPECT_TRUE(lin.can_id & CAN_RTR_FLAG);
  const auto back = from_linux(lin);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->remote);
  EXPECT_EQ(back->dlc, 2);
}

TEST(FrameConv, ErrorFramesRejected) {
  ::can_frame err{};
  err.can_id = CAN_ERR_FLAG | 0x1;
  EXPECT_FALSE(from_linux(err).has_value());
}

TEST(FrameConv, OversizedDlcRejected) {
  ::can_frame bad{};
  bad.can_id = 0x10;
  bad.can_dlc = 9;
  EXPECT_FALSE(from_linux(bad).has_value());
}

TEST(Gateway, ThrowsWithoutInterface) {
  sim::Engine engine;
  can::Bus bus{engine};
  // "nosuchcan0" certainly does not exist; PF_CAN itself may be missing
  // too.  Either way: a clean exception, no crash, controller detached.
  EXPECT_THROW(SocketCanGateway(bus, 63, "nosuchcan0"), std::runtime_error);
}

TEST(Gateway, LiveLoopbackIfAvailable) {
  sim::Engine engine;
  can::Bus bus{engine};
  std::unique_ptr<SocketCanGateway> gw;
  try {
    gw = std::make_unique<SocketCanGateway>(bus, 63, "vcan0");
  } catch (const std::runtime_error&) {
    GTEST_SKIP() << "no vcan0 interface on this host";
  }
  // With a live vcan0: a frame injected into the simulated bus must
  // appear on the socket of a second gateway-style observer, and poll()
  // must not inject our own echoes.
  can::Controller sender{1, bus};
  const std::uint8_t payload[] = {0xAB};
  sender.request_tx(can::Frame::make_data(0x100, payload));
  engine.run_until(sim::Time::ms(1));
  EXPECT_EQ(gw->frames_out(), 1u);
}

/// Virtual wall clock: time advances only when the runner sleeps, so a
/// run is a pure function of the poll interval — no host-scheduler
/// dependence, hence exact (not banded) assertions under any CI load.
class FakeWallClock final : public obs::WallClock {
 public:
  [[nodiscard]] std::chrono::nanoseconds now() override { return now_; }
  void sleep_for(std::chrono::microseconds d) override { now_ += d; }

 private:
  std::chrono::nanoseconds now_{0};
};

TEST(RealTime, RunnerTracksWallClockExactlyUnderVirtualTime) {
  sim::Engine engine;
  int ticks = 0;
  // A self-rescheduling 5 ms tick.
  std::function<void()> tick = [&] {
    ++ticks;
    engine.schedule_after(sim::Time::ms(5), tick);
  };
  engine.schedule_after(sim::Time::ms(5), tick);

  FakeWallClock clock;
  RealTimeRunner runner{engine, &clock};
  int polls = 0;
  runner.add_poller([&] { ++polls; });
  runner.set_poll_interval(std::chrono::microseconds{500});
  runner.run_for(std::chrono::milliseconds{50});

  // 50 ms / 500 us = exactly 100 poll iterations (t = 0, 0.5, ... 49.5),
  // and the final catch-up lands the engine on exactly 50 ms, firing the
  // 5, 10, ..., 50 ms ticks: exactly 10.
  EXPECT_EQ(polls, 100);
  EXPECT_EQ(ticks, 10);
  EXPECT_EQ(engine.now(), sim::Time::ms(50));
}

TEST(RealTime, RunnerAgainstTheRealClockStaysLive) {
  sim::Engine engine;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    engine.schedule_after(sim::Time::ms(2), tick);
  };
  engine.schedule_after(sim::Time::ms(2), tick);

  RealTimeRunner runner{engine};
  int polls = 0;
  runner.add_poller([&] { ++polls; });
  runner.set_poll_interval(std::chrono::microseconds{500});
  runner.run_for(std::chrono::milliseconds{20});

  // Only load-immune lower bounds here: the loop always runs at least
  // once, and the catch-up guarantees the full 20 ms of simulated time
  // (10 ticks) no matter how the host schedules us.
  EXPECT_GE(polls, 1);
  EXPECT_EQ(ticks, 10);
  EXPECT_EQ(engine.now(), sim::Time::ms(20));
}

}  // namespace
}  // namespace canely::socketcan
