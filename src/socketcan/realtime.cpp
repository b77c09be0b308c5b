#include "socketcan/realtime.hpp"

#include <thread>

namespace canely::socketcan {
namespace {

class SteadyWallClock final : public WallClock {
 public:
  [[nodiscard]] std::chrono::nanoseconds now() override {
    return std::chrono::steady_clock::now().time_since_epoch();
  }
  void sleep_for(std::chrono::microseconds d) override {
    std::this_thread::sleep_for(d);
  }
};

}  // namespace

RealTimeRunner::RealTimeRunner(sim::Engine& engine, WallClock* clock)
    : engine_{engine}, clock_{clock} {
  static SteadyWallClock steady;
  if (clock_ == nullptr) clock_ = &steady;
}

void RealTimeRunner::run_for(std::chrono::milliseconds wall) {
  WallClock& clock = *clock_;

  const auto start_wall = clock.now();
  const auto start_sim = engine_.now();
  const auto deadline = start_wall + wall;

  while (clock.now() < deadline) {
    for (auto& p : pollers_) p();
    // Advance the simulation up to "now" in wall terms.
    const auto elapsed = clock.now() - start_wall;
    engine_.run_until(start_sim + sim::Time::ns(elapsed.count()));
    clock.sleep_for(poll_interval_);
  }
  // Catch up the tail: wherever the loop left off (sleep overshoot, a
  // stalled host), the simulation ends exactly `wall` later than it
  // began.  run_until is a no-op if the loop already went past this.
  engine_.run_until(
      start_sim +
      sim::Time::ns(
          std::chrono::duration_cast<std::chrono::nanoseconds>(wall).count()));
}

}  // namespace canely::socketcan
