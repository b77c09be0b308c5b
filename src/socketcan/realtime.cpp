#include "socketcan/realtime.hpp"

namespace canely::socketcan {

void RealTimeRunner::run_for(std::chrono::milliseconds wall) {
  obs::WallClock& clock = *clock_;

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
