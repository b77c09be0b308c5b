#include "campaign/runner.hpp"

#include <algorithm>
#include <thread>

#include "campaign/annotations.hpp"

namespace canely::campaign {

namespace {

/// First-exception-wins slot shared by the worker pool.  The annotations
/// let clang's thread-safety analysis prove every touch of `first_`
/// happens under `mu_`.
class ErrorSlot {
 public:
  /// Record the current in-flight exception unless one is already held.
  void capture() CANELY_EXCLUDES(mu_) {
    const MutexLock lock{mu_};
    if (!first_) first_ = std::current_exception();
  }

  /// Rethrow the captured exception, if any.  Called after the pool has
  /// been joined, so no lock contention — but the lock is taken anyway to
  /// keep the guarded-by contract unconditional.
  void rethrow_if_set() CANELY_EXCLUDES(mu_) {
    std::exception_ptr err;
    {
      const MutexLock lock{mu_};
      err = first_;
    }
    if (err) std::rethrow_exception(err);
  }

 private:
  Mutex mu_;
  std::exception_ptr first_ CANELY_GUARDED_BY(mu_);
};

}  // namespace

Runner::Runner(std::size_t threads) : threads_{threads} {
  if (threads_ == 0) {
    threads_ = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
}

void Runner::dispatch(std::size_t count,
                      const std::function<void(std::size_t)>& body) {
  cancelled_.store(false, std::memory_order_relaxed);
  const std::size_t workers = std::min(threads_, count);

  if (workers <= 1) {
    // Sequential reference path — the baseline the parallel path must be
    // byte-identical to.
    for (std::size_t i = 0; i < count; ++i) {
      if (cancelled()) break;
      body(i);
    }
    return;
  }

  std::atomic<std::size_t> next{0};
  ErrorSlot error;

  auto worker = [&] {
    for (;;) {
      if (cancelled()) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        error.capture();
        cancel();  // a failing run aborts the campaign
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  error.rethrow_if_set();
}

}  // namespace canely::campaign
