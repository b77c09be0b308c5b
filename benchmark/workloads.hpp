#pragma once
// Benchmark workloads and layer kernels (README.md has the rationale).
//
// The harness only calls public entry points of each layer —
// check::explore / check::run_checked, canely::Node on can::Bus,
// sim::Engine, net::Medium, the baselines::*Cluster classes and
// campaign::Runner — and times those calls from outside.  Every workload
// is a closed loop: a *window* repeats identical work, so the exact work
// counts a window reports (its ledger) must be equal across windows.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "campaign/json.hpp"

namespace bench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// In-memory span recorder: name, start, end and parent of every layer
/// call the harness makes while enabled.  Spans are only ever opened from
/// the harness's main thread, so the parent is the innermost open span.
/// Disabled, a scope costs one branch and records nothing.
class Spans {
 public:
  explicit Spans(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }

  class Scope {
   public:
    Scope(Spans& spans, const char* name) : spans_{spans}, id_{spans.open(name)} {}
    ~Scope() { spans_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

   private:
    Spans& spans_;
    int id_;
  };

  /// Chrome trace_event JSON (loadable in Perfetto / chrome://tracing).
  [[nodiscard]] std::string chrome_trace() const;
  /// Per span name: count, total and self seconds (self = duration minus
  /// the part covered by child spans).
  [[nodiscard]] canely::campaign::Json self_times() const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };

  int open(const char* name);
  void close(int id);

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int current_{-1};
};

/// Exact work counts of one window, keyed by layer-qualified name.
using Ledger = std::map<std::string, std::uint64_t>;

/// What one window (one repetition of the workload's fixed work) did.
struct Window {
  std::uint64_t units{0};   ///< placements / lifecycles / cells
  std::uint64_t failed{0};  ///< units that failed their correctness check
  Ledger ledger;
  std::string digest;       ///< explore: aggregate hash (hex); else empty
  std::vector<double> detect_ms;     ///< simulated crash -> notification
  std::vector<double> formation_ms;  ///< simulated join -> full view
  std::vector<std::string> errors;   ///< first few check failures
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One fixed small instance of the workload (the set-up's warm-up).
  virtual void warm_up() = 0;
  /// The unit of work a window counts, plural ("placements").
  [[nodiscard]] virtual const char* unit() const = 0;
  /// One repetition of the workload's fixed work.
  virtual Window run_window(Spans& spans) = 0;
  /// Threads the workload's timed windows use.
  [[nodiscard]] virtual std::size_t threads() const { return 1; }
  /// Work rate of the workload's unit on `threads` threads (units/s) and
  /// the ledger of that run, for the parallel-efficiency probe.
  struct Rate {
    double per_s{0};
    Ledger ledger;
  };
  [[nodiscard]] virtual Rate rate_on(std::size_t threads) = 0;
};

/// Workload names, in reporting order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      bool quick);

/// The per-layer metrics of the traced run (README.md "Per-layer
/// metrics"): layer kernels plus numbers derived from `window`, the
/// workload's first window, whose host time was `window_s`.  Adds
/// campaign.parallel_eff_t{2,4} via Workload::rate_on and reports any
/// thread-count ledger mismatch in `errors`.
[[nodiscard]] canely::campaign::Json layer_metrics(
    const std::string& workload, Workload& wl, const Window& window,
    double window_s, bool quick, Spans& spans,
    std::vector<std::string>& errors);

}  // namespace bench
