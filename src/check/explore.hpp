#pragma once
// Systematic fault-space exploration.
//
// The explorer enumerates fault placements against a scenario and runs
// each through the checked harness, in parallel, with byte-identical
// aggregate output for any thread count (the campaign runner's
// determinism contract: placements are enumerated up front in a fixed
// order, each run is a pure function of its placement, and results are
// collected by index).
//
// Depth 1 (exhaustive): a probe run maps the fault-free attempt timeline;
// every placement is (attempt within the fault window) x (non-empty
// victim subset of that attempt's receivers) x (sender crashes before
// retransmission, or not).  With FDA enabled this space must be violation
// free — that is the checker's reproduction of the paper's §6.1/§6.2
// claim.
//
// Depth 2 (targeted, for ablations): second-order placements layer a
// fault on frames that only exist *because of* the first fault — chiefly
// the FDA failure-sign a first crash provokes.  Bases (single-fault
// placements with a singleton victim and a sender crash) are examined in
// deterministic order; for each, a probe run discovers the new FDA
// attempts and a batch enumerates victim subsets on them.  The search
// stops after the first base whose batch violates (lowest base, then
// lowest in-batch index — deterministic for any thread count).
//
// Record mode (exploration at scale): turning on `exhaustive`, `dedup`,
// sharding, or a frontier path switches the explorer to its scale engine.
// Every placement becomes a *unit* with shard-computable coordinates
// (u, j) — at depth 1, u is the global placement index and j is 0; at
// depth 2, u is the global base index and j the in-base placement index —
// and the exploration is driven unit-by-unit in coordinate order:
//
//  * Equivalence dedup: each unit is keyed by the canonical state hash at
//    the judge-time of the attempt its (last) fault targets, combined
//    with the fault itself.  Equal key means equal post-injection
//    evolution (the harness is deterministic and monitors render
//    verdicts only in finish()), so only the first unit of a class is
//    simulated; the rest inherit its verdict as dedup skips.
//  * One probe per base: all units of a base share the base's probe run
//    (tx log + judge-time samples), executed once when the base is
//    enumerated and held while its units are keyed — the dominant saving
//    over re-running the shared prefix for every placement.
//  * Sharding + frontier: shard i of N owns units with u % N == i; a
//    frontier file checkpoints verdict records every `checkpoint_every`
//    units (atomic rename), supports resume after a kill, and merges
//    with the other shards into a file byte-identical to an unsharded
//    run's (check/frontier.hpp).
//  * Depth-2 exhaustive: with `exhaustive`, bases are the *complete*
//    depth-1 placement enumeration and the seconds per base target every
//    post-base attempt in the window (budget-capped, drops reported) —
//    no early stop at the first violating base.
//
// Record mode replaces the legacy trace-hash aggregate with an
// order-sensitive fold over the verdict records, invariant across thread
// count, shard split, and dedup on/off.  Random walks are a legacy-mode
// feature and are not run in record mode.
//
// Seeded random walks complement enumeration with multi-fault scripts
// drawn from per-walk forked seeds (campaign::fork_seed), so walk w is
// reproducible in isolation.

#include <cstdint>
#include <string>
#include <vector>

#include "check/fault_script.hpp"
#include "check/harness.hpp"

namespace canely::check {

struct ExploreConfig {
  ScenarioConfig scenario{ScenarioConfig::membership()};
  std::size_t threads{0};       ///< 0 = hardware concurrency (repo-wide
                                ///< convention, same as campaign::Runner)
  std::uint64_t seed{42};       ///< master seed for random walks
  int depth{1};                 ///< 1 = exhaustive single fault, 2 = targeted
  std::size_t random_walks{0};  ///< extra multi-fault random scripts

  // Budget caps (0 = unlimited).  Capped explorations report what they
  // dropped via the dropped_* counters and mark the result partial.
  std::size_t max_frames{0};       ///< attempts targeted (depth 1)
  std::size_t max_victim_sets{0};  ///< victim subsets per attempt
  std::size_t max_bases{0};        ///< depth 2: cap bases examined (0 = all)
  std::size_t depth2_targets{6};   ///< depth 2: new attempts per base

  /// Only attempts starting before this are targeted, so consequences
  /// surface inside the run.  zero() = duration - expel_grace - settle.
  sim::Time fault_window{sim::Time::zero()};

  // -- exploration at scale (record mode; see header comment) --------------

  /// Depth 2: full base x second cross product, no early stop.
  bool exhaustive{false};
  /// Skip units whose equivalence class has already been simulated.
  bool dedup{false};
  /// This shard owns units with u % shard_count == shard_index.
  std::size_t shard_index{0};
  std::size_t shard_count{1};
  /// Persistent frontier file: checkpointed during the run, resumed from
  /// when it already exists, final on completion.  Empty = none.
  std::string frontier_path{};
  /// Units per processing chunk (= frontier checkpoint interval).
  std::size_t checkpoint_every{16};
  /// Test hook: stop (checkpoint, complete=false) once this many units
  /// are done.  0 = run to completion.
  std::size_t stop_after_units{0};
  /// Tripwire: re-execute every k-th dedup skip and compare its verdict
  /// against the class representative's (0 = off).  Mismatches count in
  /// ExploreResult::dedup_mismatches — any nonzero value means the state
  /// hash missed behavior-determining state.
  std::size_t dedup_verify_every{0};
};

struct FoundViolation {
  std::size_t run_index{};  ///< position in the deterministic run order
  FaultScript script;
  Violation violation;      ///< first violation of that run
};

struct ExploreResult {
  std::size_t placements{0};        ///< enumerated placements executed
  std::size_t runs{0};              ///< total checked runs (incl. probes)
  std::size_t frames_in_window{0};  ///< attempts eligible for targeting
  std::size_t frames_targeted{0};   ///< attempts actually targeted
  std::vector<FoundViolation> violations;  ///< in run order
  std::uint64_t aggregate_hash{0};  ///< digest of every run's outcome, in
                                    ///< enumeration order — the thread-
                                    ///< invariance anchor (record mode:
                                    ///< fold_records over the frontier)

  // -- record-mode accounting ----------------------------------------------
  std::size_t probe_runs{0};         ///< probe runs: the fault-free one
                                     ///< plus one per depth-2 base
  /// Always 0: each base is probed exactly once, so no probe is ever
  /// reused.  Kept only because benchmark/workloads.cpp reads it into the
  /// explore ledgers; it goes when the benchmark drops that counter.
  std::size_t prefix_cache_hits{0};
  std::size_t dedup_classes{0};      ///< distinct equivalence classes
  std::size_t dedup_skips{0};        ///< units resolved without simulation
  std::size_t dedup_verified{0};     ///< tripwire re-executions
  std::size_t dedup_mismatches{0};   ///< tripwire disagreements (expect 0)
  std::size_t dropped_frames{0};     ///< in-window attempts over max_frames
  std::size_t dropped_victim_sets{0};///< subsets over max_victim_sets
  std::size_t dropped_bases{0};      ///< depth-2 bases over max_bases
  std::size_t dropped_targets{0};    ///< depth-2 seconds over depth2_targets
  bool partial{false};   ///< any budget cap truncated the space
  bool resumed{false};   ///< continued from an existing frontier file
};

[[nodiscard]] ExploreResult explore(const ExploreConfig& cfg);

}  // namespace canely::check
