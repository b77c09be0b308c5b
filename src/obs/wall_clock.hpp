#pragma once
// Injectable wall time (DESIGN.md §11).
//
// Campaign telemetry, the explorer's time-based checkpoints and the
// SocketCAN real-time runner reach wall time only through WallClock.
// Production uses default_wall_clock(); tests substitute a fake whose
// now() advances exactly as scripted (e.g. poll_interval per
// sleep_for()), so wall-time logic is testable regardless of machine
// load (tests/test_socketcan.cpp, tests/test_telemetry.cpp).  src/obs is
// in the lint determinism zone, so the single real clock behind the seam
// lives in wall_clock.cpp under an annotated suppression.

#include <chrono>

namespace canely::obs {

class WallClock {
 public:
  virtual ~WallClock() = default;
  [[nodiscard]] virtual std::chrono::nanoseconds now() = 0;
  virtual void sleep_for(std::chrono::microseconds d) = 0;
};

/// The process-wide steady clock behind the seam:
/// std::chrono::steady_clock + std::this_thread::sleep_for.
[[nodiscard]] WallClock& default_wall_clock();

}  // namespace canely::obs
