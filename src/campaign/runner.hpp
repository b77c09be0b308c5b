#pragma once
// Thread-pooled, deterministic experiment-campaign runner.
//
// The Runner fans the runs of a Grid across a pool of worker threads.
// Each run builds its OWN simulation universe (sim::Engine, can::Bus,
// node stack) inside the run function, draws all randomness from
// RunSpec::seed, and writes its result into the slot `results[index]`
// reserved for it.  Workers claim run indices from a single atomic
// counter; which thread executes which run — and in which order runs
// finish — is scheduling noise that cannot leak into the output:
//
//   * per-run RNG streams are pure functions of the run index
//     (grid.hpp's fork_seed), never draws from a shared stream;
//   * results are placed by index, so the aggregated output ordering is
//     the grid's enumeration order, identical to a sequential run;
//   * run functions share nothing mutable (enforced by convention and by
//     the TSan configuration in tools/ci.sh).
//
// Consequence — the determinism contract, asserted by test_campaign.cpp:
// for any thread count, `run()` yields byte-identical aggregates to
// `threads = 1`.
//
// Cancellation: `cancel()` (thread-safe; callable from a run function or
// another thread) stops workers from *claiming* further runs; runs
// already in flight complete.  The Outcome records which slots finished.

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <vector>

#include "campaign/grid.hpp"

namespace canely::campaign {

/// Results of a campaign.  `results[i]` is meaningful iff `done[i]`.
template <class T>
struct Outcome {
  std::vector<T> results;
  std::vector<std::uint8_t> done;
  std::size_t completed{0};
  bool cancelled{false};

  /// The results of one cell, in repeat order (only completed runs).
  [[nodiscard]] std::vector<const T*> cell(const Grid& grid,
                                           std::size_t cell_index) const {
    std::vector<const T*> out;
    const std::size_t lo = cell_index * grid.repeat_count();
    for (std::size_t i = lo; i < lo + grid.repeat_count(); ++i) {
      if (i < results.size() && done[i]) out.push_back(&results[i]);
    }
    return out;
  }
};

class Runner {
 public:
  /// `threads` = 0 picks std::thread::hardware_concurrency().
  explicit Runner(std::size_t threads = 0);

  [[nodiscard]] std::size_t threads() const { return threads_; }

  /// Request cancellation: no further runs are claimed.  Sticky for the
  /// current `run()` call only; the next call starts afresh.
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Execute `fn` for every run of `grid`.  `fn` must be callable from
  /// multiple threads concurrently on distinct RunSpecs, must derive all
  /// randomness from the spec's seed, and must not touch shared mutable
  /// state.  T must be default-constructible (placeholder for skipped
  /// slots).  The first exception thrown by any run is rethrown here
  /// after the pool drains.
  template <class T, class Fn>
  Outcome<T> run(const Grid& grid, Fn&& fn) {
    Outcome<T> out;
    const std::size_t n = grid.size();
    out.results.resize(n);
    out.done.assign(n, 0);
    dispatch(n, [&](std::size_t index) {
      out.results[index] = fn(grid.run(index));
      out.done[index] = 1;  // each slot written by exactly one worker
    });
    for (std::uint8_t d : out.done) out.completed += d;
    out.cancelled = cancelled();
    return out;
  }

 private:
  /// The worker pool: executes body(i) for i in [0, count) until the
  /// indices run out or cancel() is observed.  Sequential when the pool
  /// would have a single worker.
  void dispatch(std::size_t count,
                const std::function<void(std::size_t)>& body);

  std::size_t threads_;
  std::atomic<bool> cancelled_{false};
};

}  // namespace canely::campaign
