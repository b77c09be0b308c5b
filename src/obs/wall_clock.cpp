#include "obs/wall_clock.hpp"

#include <thread>

namespace canely::obs {
namespace {

class SteadyWallClock final : public WallClock {
 public:
  [[nodiscard]] std::chrono::nanoseconds now() override {
    // canely-lint: allow(no-wall-clock) — the one real clock behind the WallClock seam; wall time paces telemetry, checkpoints and the real-time runner, never a deterministic run
    return std::chrono::steady_clock::now().time_since_epoch();
  }
  void sleep_for(std::chrono::microseconds d) override {
    std::this_thread::sleep_for(d);
  }
};

}  // namespace

WallClock& default_wall_clock() {
  static SteadyWallClock clock;
  return clock;
}

}  // namespace canely::obs
