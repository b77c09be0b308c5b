// canely_bench — one benchmark workload in one process (README.md).
//
//   canely_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                [--quick] [--setup-only] [--out DIR]
//
// Set-up builds the workload and runs one fixed warm-up instance of it;
// `ready_at` is the steady clock when it ends.  With --setup-only the
// process stops there.  Otherwise whole windows of identical work run
// until about --seconds have been measured.  With --trace 1 every other
// window records spans (the rest give the untraced reference for
// trace_overhead_pct), the layer kernels run, and the spans and layer
// numbers are written to DIR/trace.NAME.json and DIR/layers.NAME.json.
// The last line of standard output is one JSON object with every raw
// measurement; benchmark/run.py turns it into metrics.

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "campaign/json.hpp"
#include "workloads.hpp"

namespace {

using canely::campaign::Json;

int usage() {
  std::cerr << "usage: canely_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--quick] [--setup-only] [--out DIR]\nworkloads:";
  for (const std::string& w : bench::workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

/// Peak resident set of this process image, MB.  VmHWM rather than
/// getrusage's ru_maxrss: Linux carries ru_maxrss across execve, so a
/// small workload would report the peak of the process that started it.
double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

Json ledger_json(const bench::Ledger& ledger) {
  Json j = Json::object();
  for (const auto& [k, v] : ledger) j.set(k, Json::integer(static_cast<std::int64_t>(v)));
  return j;
}

Json numbers(const std::vector<double>& v) {
  Json j = Json::array();
  for (double x : v) j.push(Json::number(x));
  return j;
}

/// Seconds on the steady clock.  On Linux that is CLOCK_MONOTONIC, the
/// clock run.py reads (time.monotonic) just before it starts this
/// process, so the difference is set-up time from process start.
double monotonic_s() {
  return std::chrono::duration<double>(bench::Clock::now().time_since_epoch()).count();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_dir = "benchmark/out";
  std::uint64_t seed = 42;
  double seconds = 25;
  bool trace = false;
  bool quick = false;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::string{argv[++i]} != "0";
    } else if (arg == "--out" && has_value) {
      out_dir = argv[++i];
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--setup-only") {
      setup_only = true;
    } else {
      return usage();
    }
  }
  auto wl = bench::make_workload(workload, seed, quick);
  if (!wl || !(seconds > 0)) return usage();

  try {
    wl->warm_up();
    const double ready_at = monotonic_s();
    if (setup_only) {
      Json root = Json::object();
      root.set("ready_at", Json::number(ready_at));
      std::cout << root.dump() << std::endl;
      return 0;
    }

    // Windows run until about `seconds` are measured: another one starts
    // only if it is expected to end within half a window of the target.
    // At least two, so the ledger and the trace overhead always compare.
    bench::Spans spans{trace};
    bench::Spans untraced{false};
    Json windows = Json::array();
    std::vector<std::string> errors;
    bench::Window first;
    double first_s = 0;
    double elapsed = 0;
    for (std::size_t i = 0;; ++i) {
      const bool traced = trace && i % 2 == 0;
      const auto t0 = bench::Clock::now();
      bench::Window w = wl->run_window(traced ? spans : untraced);
      const double secs = bench::seconds_since(t0);
      elapsed += secs;
      Json wj = Json::object();
      wj.set("secs", Json::number(secs));
      wj.set("units", Json::integer(static_cast<std::int64_t>(w.units)));
      wj.set("failed", Json::integer(static_cast<std::int64_t>(w.failed)));
      wj.set("traced", Json::boolean(traced));
      wj.set("digest", Json::string(w.digest));
      wj.set("ledger", ledger_json(w.ledger));
      windows.push(std::move(wj));
      for (std::string& e : w.errors) {
        if (errors.size() < 8) errors.push_back(std::move(e));
      }
      if (i == 0) {
        first = std::move(w);
        first_s = secs;
      }
      const double mean = elapsed / static_cast<double>(i + 1);
      if (i >= 1 && elapsed + mean / 2 > seconds) break;
    }

    Json root = Json::object();
    root.set("workload", Json::string(workload));
    root.set("seed", Json::integer(static_cast<std::int64_t>(seed)));
    root.set("quick", Json::boolean(quick));
    root.set("threads", Json::integer(static_cast<std::int64_t>(wl->threads())));
    root.set("unit", Json::string(wl->unit()));
    root.set("ready_at", Json::number(ready_at));
    root.set("windows", std::move(windows));
    root.set("detect_ms", numbers(first.detect_ms));
    root.set("formation_ms", numbers(first.formation_ms));
    if (trace) {
      Json layers = bench::layer_metrics(workload, *wl, first, first_s, quick,
                                         spans, errors);
      const std::string base = out_dir + "/";
      Json dump = Json::object();
      dump.set("workload", Json::string(workload));
      dump.set("metrics", layers);
      dump.set("self_time", spans.self_times());
      canely::campaign::write_file(base + "layers." + workload + ".json",
                                   dump.dump(2) + "\n");
      canely::campaign::write_file(base + "trace." + workload + ".json",
                                   spans.chrome_trace());
      root.set("layers", std::move(layers));
    }
    root.set("peak_rss_mb", Json::number(peak_rss_mb()));
    Json errs = Json::array();
    for (const std::string& e : errors) errs.push(Json::string(e));
    root.set("errors", std::move(errs));
    std::cout << root.dump() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "canely_bench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
