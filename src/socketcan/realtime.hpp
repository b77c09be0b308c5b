#pragma once
// Real-time pacing for the discrete-event engine: dispatch events so that
// simulated time tracks wall-clock time, polling external sources (e.g. a
// SocketCanGateway) between steps.  This is how the otherwise fully
// simulated CANELy stack is driven against a live CAN interface.

#include <chrono>
#include <functional>
#include <vector>

#include "sim/engine.hpp"

namespace canely::socketcan {

/// The runner's view of wall time.  Production uses the steady clock and
/// really sleeps; tests substitute a fake whose now() advances exactly as
/// scripted (e.g. poll_interval per sleep_for()), so pacing is testable
/// regardless of machine load (tests/test_socketcan.cpp).  src/socketcan
/// is outside the lint determinism zone, so the real clock needs no
/// suppression.
class WallClock {
 public:
  virtual ~WallClock() = default;
  [[nodiscard]] virtual std::chrono::nanoseconds now() = 0;
  virtual void sleep_for(std::chrono::microseconds d) = 0;
};

class RealTimeRunner {
 public:
  /// `clock` is non-owning and may be null (std::chrono::steady_clock +
  /// std::this_thread::sleep_for).  Tests inject a fake so pacing is
  /// exact regardless of the host scheduler.
  explicit RealTimeRunner(sim::Engine& engine, WallClock* clock = nullptr);

  /// Register a poller invoked every `poll_interval` of wall time
  /// (non-blocking socket drains, UI, ...).
  void add_poller(std::function<void()> poller) {
    pollers_.push_back(std::move(poller));
  }

  void set_poll_interval(std::chrono::microseconds interval) {
    poll_interval_ = interval;
  }

  /// Run for `wall` of wall-clock time, keeping engine.now() aligned with
  /// elapsed real time (sleeping when the simulation is ahead).  On
  /// return the engine has advanced by exactly `wall` past its starting
  /// point, even if the host stalled mid-run: the tail is simulated in
  /// one final catch-up step.
  void run_for(std::chrono::milliseconds wall);

 private:
  sim::Engine& engine_;
  WallClock* clock_;  ///< never null after construction
  std::vector<std::function<void()>> pollers_;
  std::chrono::microseconds poll_interval_{std::chrono::microseconds{200}};
};

}  // namespace canely::socketcan
