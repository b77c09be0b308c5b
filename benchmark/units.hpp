#pragma once
// The unit of work of each simulation workload, shared by the workloads
// and the layer kernels.

#include <cstdint>
#include <string>
#include <vector>

#include "can/types.hpp"
#include "canely/params.hpp"
#include "check/harness.hpp"
#include "obs/recorder.hpp"
#include "sim/time.hpp"
#include "workloads.hpp"

namespace bench {

/// One CANELy lifecycle on a bare Node stack: n nodes join, the full view
/// forms, 1 s of steady surveillance, `victim` crashes `crash_offset`
/// later, run until every survivor is notified (fda-can.nty).
struct LifecycleSpec {
  std::size_t n{8};
  canely::can::NodeId victim{0};
  canely::sim::Time crash_offset{};
};

struct LifecycleResult {
  std::string error;               ///< empty = formed, notified within bound
  double formation_ms{0};          ///< simulated instant the view was full
  std::vector<double> detect_ms;   ///< per survivor, simulated
  std::uint64_t events{0}, frames{0}, bits{0};
  double construct_s{0}, formation_s{0}, steady_s{0}, detect_s{0};  ///< host
};

/// Protocol parameters of a lifecycle at size n.
[[nodiscard]] canely::Params lifecycle_params(std::size_t n);
/// §6.3 detection bound Th + 2*Ttd + n*skew.
[[nodiscard]] canely::sim::Time detection_bound(const canely::Params& p);

[[nodiscard]] LifecycleResult run_lifecycle(
    const LifecycleSpec& spec, Spans& spans,
    canely::obs::Recorder* recorder = nullptr);

enum class Proto : std::uint8_t { kSwim, kRapid, kGossip };
[[nodiscard]] const char* proto_name(Proto p);

/// One shootout cell: a baseline cluster on the lossy medium (1 % loss,
/// 100 us..2 ms delay), node n/2 crashes at 8 s, run until the survivors'
/// views agree (at most 60 s).
struct CellSpec {
  Proto proto{Proto::kSwim};
  std::size_t n{0};
  std::uint64_t seed{0};
};

struct CellResult {
  std::string error;             ///< empty = converged by 60 s
  std::vector<double> detect_ms;  ///< per declaring survivor, simulated
  std::uint64_t events{0}, delivered{0}, dropped{0}, view_changes{0};
};

[[nodiscard]] CellResult run_cell(const CellSpec& spec, Spans& spans);

/// The checked-run scenario rebuilt as a bare Node stack (no fault
/// injector, monitors, observers or state hashing) — the reference a
/// checked run's harness cost is measured against.
struct BareRun {
  std::uint64_t events{0}, attempts{0}, bits{0};
};
[[nodiscard]] BareRun run_bare_scenario(
    const canely::check::ScenarioConfig& cfg);

/// min(want, hardware threads), at least 1.
[[nodiscard]] std::size_t capped_threads(std::size_t want);

}  // namespace bench
