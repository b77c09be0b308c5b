#include "check/explore.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <span>
#include <utility>

#include "campaign/grid.hpp"
#include "campaign/runner.hpp"
#include "canely/mid.hpp"
#include "check/frontier.hpp"
#include "sim/rng.hpp"

namespace canely::check {
namespace {

/// Per-run outcome, reduced to what the aggregate needs.  Default-
/// constructible placeholder for the campaign runner's result slots.
struct Cell {
  std::uint64_t trace_hash{0};
  bool violated{false};
  Violation first;
};

Cell run_cell(const ScenarioConfig& scenario, const FaultScript& script) {
  RunResult r = run_checked(scenario, script);
  Cell c;
  c.trace_hash = r.trace_hash;
  if (!r.violations.empty()) {
    c.violated = true;
    c.first = r.violations.front();
  }
  return c;
}

std::uint64_t hash_cell(std::uint64_t h, const Cell& c) {
  h = fnv1a(h, c.trace_hash);
  h = fnv1a(h, c.violated ? 1 : 0);
  if (c.violated) {
    for (char ch : c.first.monitor) {
      h = fnv1a(h, static_cast<std::uint8_t>(ch));
    }
    h = fnv1a(h, static_cast<std::uint64_t>(c.first.when.to_ns()));
  }
  return h;
}

/// The ascending list of member ids of `set` (mask bit i of a victim-
/// subset index maps to the i-th receiver in id order).
std::vector<can::NodeId> members(can::NodeSet set) {
  std::vector<can::NodeId> out;
  for (can::NodeId id : set) out.push_back(id);
  return out;
}

can::NodeSet subset_from_mask(const std::vector<can::NodeId>& pool,
                              std::uint64_t mask) {
  can::NodeSet set;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if ((mask >> i) & 1) set.insert(pool[i]);
  }
  return set;
}

/// Enumerate depth-1 placements for one attempt: every non-empty victim
/// subset (capped; the overflow is counted into `dropped`), with and
/// without a sender crash.
void placements_for(const TxLogEntry& entry, std::size_t max_victim_sets,
                    std::vector<FaultScript>& out, std::size_t& dropped) {
  const std::vector<can::NodeId> pool = members(entry.receivers);
  if (pool.empty()) return;
  const std::uint64_t subsets = (1ULL << pool.size()) - 1;
  std::uint64_t used = 0;
  for (std::uint64_t mask = 1; mask <= subsets; ++mask) {
    if (max_victim_sets != 0 && used >= max_victim_sets) {
      dropped += static_cast<std::size_t>(subsets - mask + 1);
      break;
    }
    ++used;
    for (const bool crash : {false, true}) {
      FaultEvent ev;
      ev.tx = entry.tx_index;
      ev.op = FaultOp::kOmit;
      ev.victims = subset_from_mask(pool, mask);
      ev.crash_sender = crash;
      out.push_back(FaultScript{ev});
    }
  }
}

/// Execute `scripts` through the campaign runner (index-slotted results:
/// aggregate order is enumeration order for any thread count).
std::vector<Cell> run_batch(const ScenarioConfig& scenario,
                            const std::vector<FaultScript>& scripts,
                            std::size_t threads, std::uint64_t seed) {
  campaign::Grid grid;
  std::vector<double> axis(scripts.size());
  for (std::size_t i = 0; i < axis.size(); ++i) {
    axis[i] = static_cast<double>(i);
  }
  grid.axis("placement", std::move(axis)).repeats(1).master_seed(seed);
  campaign::Runner runner{threads == 0 ? 0 : threads};
  auto outcome = runner.run<Cell>(grid, [&](const campaign::RunSpec& spec) {
    return run_cell(scenario, scripts[spec.index]);
  });
  return std::move(outcome.results);
}

void fold_batch(const std::vector<FaultScript>& scripts,
                const std::vector<Cell>& cells, std::size_t index_base,
                ExploreResult& result) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    result.aggregate_hash = hash_cell(result.aggregate_hash, cells[i]);
    if (cells[i].violated) {
      result.violations.push_back(
          FoundViolation{index_base + i, scripts[i], cells[i].first});
    }
  }
  result.placements += cells.size();
  result.runs += cells.size();
}

FaultScript random_script(sim::Rng& rng,
                          const std::vector<TxLogEntry>& window) {
  FaultScript script;
  const std::size_t n_events = 1 + rng.below(3);
  for (std::size_t e = 0; e < n_events; ++e) {
    const TxLogEntry& entry = window[rng.below(window.size())];
    FaultEvent ev;
    ev.tx = entry.tx_index;
    ev.crash_sender = rng.below(2) == 1;
    if (rng.below(8) == 0) {
      ev.op = FaultOp::kError;
    } else {
      ev.op = FaultOp::kOmit;
      const std::vector<can::NodeId> pool = members(entry.receivers);
      if (pool.empty()) continue;
      can::NodeSet victims;
      for (can::NodeId id : pool) {
        if (rng.below(2) == 1) victims.insert(id);
      }
      if (victims.empty()) victims.insert(pool[rng.below(pool.size())]);
      ev.victims = victims;
    }
    script.push_back(ev);
  }
  return script;
}

sim::Time window_end_for(const ExploreConfig& cfg) {
  return cfg.fault_window > sim::Time::zero()
             ? cfg.fault_window
             : cfg.scenario.duration - cfg.scenario.expel_grace() -
                   cfg.scenario.settle;
}

// ----------------------------------------------------------- record mode

/// Judge-time state hash of the attempt `tx`, from a probe's samples
/// (sorted by tx order).  Targets are selected to start inside the
/// sampling window, so the sample exists; a sentinel keeps a missing one
/// deterministic anyway.
std::uint64_t sample_state(std::span<const StateSample> samples,
                           std::uint64_t tx) {
  const auto it = std::lower_bound(
      samples.begin(), samples.end(), tx,
      [](const StateSample& s, std::uint64_t t) { return s.tx_index < t; });
  if (it == samples.end() || it->tx_index != tx) return 0;
  return it->state_hash;
}

/// Equivalence-class key of a unit: the canonical universe state at the
/// judge-time of the attempt its last fault targets, combined with that
/// fault's action.  The target's tx index itself is deliberately absent:
/// the index only selects *when* the script fires, and once it has fired
/// (the script is exhausted) the index never influences the run again —
/// equal state plus equal action means equal continuation.
std::uint64_t unit_key(std::uint64_t state, const FaultEvent& last) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a(h, state);
  h = fnv1a(h, last.victims.bits());
  h = fnv1a(h, static_cast<std::uint64_t>(last.op));
  h = fnv1a(h, last.crash_sender ? 1 : 0);
  return h;
}

/// One enumerated unit: shard-computable coordinates, class key, and the
/// full fault script that executes it.
struct Unit {
  std::uint64_t u{};
  std::uint64_t j{};
  std::uint64_t key{};
  FaultScript script;
};

struct ClassOutcome {
  bool violated{false};
  Violation first;
};

/// The exploration-at-scale engine (see explore.hpp header comment).
/// Units stream through in (u, j) order; chunks of `checkpoint_every` are
/// keyed sequentially, executed in parallel (class representatives only
/// when dedup is on), materialized into frontier records, and
/// checkpointed.
class RecordExplorer {
 public:
  explicit RecordExplorer(const ExploreConfig& cfg)
      : cfg_{cfg},
        shard_count_{cfg.shard_count == 0 ? 1 : cfg.shard_count},
        window_end_{window_end_for(cfg)} {}

  ExploreResult run() {
    fingerprint_ = fingerprint();
    resume();

    // Fault-free probe: the attempt timeline every enumeration starts
    // from.  Held for the whole run: depth 1 keys every unit on its
    // samples.
    const RunResult base0 = probe(FaultScript{});
    std::vector<TxLogEntry> window;
    for (const TxLogEntry& e : base0.tx_log) {
      if (e.start < window_end_ && !e.receivers.empty()) {
        window.push_back(e);
      }
    }
    result_.frames_in_window = window.size();
    if (cfg_.max_frames != 0 && window.size() > cfg_.max_frames) {
      result_.dropped_frames = window.size() - cfg_.max_frames;
      window.resize(cfg_.max_frames);
      result_.partial = true;
    }
    result_.frames_targeted = window.size();

    // The depth-1 placement enumeration doubles as the depth-2 base list.
    std::vector<FaultScript> placements;
    for (const TxLogEntry& entry : window) {
      placements_for(entry, cfg_.max_victim_sets, placements,
                     result_.dropped_victim_sets);
    }

    if (cfg_.depth <= 1) {
      for (std::uint64_t u = 0; u < placements.size() && !stopped_; ++u) {
        if (u % shard_count_ != cfg_.shard_index) continue;
        const FaultEvent& ev = placements[u].front();
        Unit unit;
        unit.u = u;
        unit.j = 0;
        unit.key = unit_key(sample_state(base0.samples, ev.tx), ev);
        unit.script = placements[u];
        push_unit(std::move(unit));
      }
    } else {
      if (cfg_.max_bases != 0 && placements.size() > cfg_.max_bases) {
        result_.dropped_bases = placements.size() - cfg_.max_bases;
        placements.resize(cfg_.max_bases);
        result_.partial = true;
      }
      for (std::uint64_t u = 0; u < placements.size() && !stopped_; ++u) {
        if (u % shard_count_ != cfg_.shard_index) continue;
        process_base(u, placements[u]);
      }
    }
    if (result_.dropped_victim_sets != 0) result_.partial = true;

    flush();
    if (!cfg_.frontier_path.empty()) {
      write_frontier(cfg_.frontier_path, snapshot(/*complete=*/!stopped_));
    }

    result_.placements = records_.size();
    result_.aggregate_hash = fold_records(records_);
    result_.dedup_classes = classes_.size();
    return std::move(result_);
  }

 private:
  std::uint64_t fingerprint() const {
    const ScenarioConfig& s = cfg_.scenario;
    std::uint64_t h = kFnvOffset;
    h = fnv1a(h, s.n);
    h = fnv1a(h, s.clustering ? 1 : 0);
    h = fnv1a(h, s.params.fda_agreement ? 1 : 0);
    h = fnv1a(h, s.params.skip_idle_cycles ? 1 : 0);
    h = fnv1a(h, static_cast<std::uint64_t>(s.params.omission_degree_k));
    h = fnv1a(h, static_cast<std::uint64_t>(s.params.inconsistent_degree_j));
    for (const sim::Time t :
         {s.params.heartbeat_period, s.params.tx_delay_bound,
          s.params.membership_cycle, s.params.rha_timeout,
          s.params.join_wait, s.params.fd_skew_quantum, s.duration,
          s.settle, s.latency_margin, window_end_}) {
      h = fnv1a(h, static_cast<std::uint64_t>(t.to_ns()));
    }
    h = fnv1a(h, static_cast<std::uint64_t>(cfg_.depth));
    h = fnv1a(h, cfg_.exhaustive ? 1 : 0);
    h = fnv1a(h, cfg_.max_frames);
    h = fnv1a(h, cfg_.max_victim_sets);
    h = fnv1a(h, cfg_.max_bases);
    h = fnv1a(h, cfg_.depth2_targets);
    return h;
  }

  void resume() {
    if (cfg_.frontier_path.empty()) return;
    FrontierFile prior;
    try {
      prior = load_frontier(cfg_.frontier_path);
    } catch (const std::exception&) {
      return;  // no usable frontier: start fresh
    }
    if (prior.fingerprint != fingerprint_ ||
        prior.shard_index != cfg_.shard_index ||
        prior.shard_count != shard_count_) {
      return;  // different exploration: start fresh, overwrite on write
    }
    records_ = std::move(prior.records);
    resume_cursor_ = prior.cursor;
    result_.resumed = true;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const FrontierRecord& rec = records_[i];
      if (cfg_.dedup && classes_.find(rec.key) == classes_.end()) {
        classes_.emplace(rec.key, ClassOutcome{rec.violated, rec.violation});
      }
      if (rec.violated) {
        result_.violations.push_back(
            FoundViolation{i, rec.script, rec.violation});
      }
    }
  }

  /// Probe run for a prefix script: its tx log (the attempts to target)
  /// and judge-time state samples (the dedup keys).  Each prefix is
  /// probed once; the caller holds the result while it enumerates that
  /// prefix's units.
  RunResult probe(const FaultScript& prefix) {
    RunOptions opts;
    opts.want_tx_log = true;
    opts.want_samples = true;
    opts.sample_until = window_end_;
    ++result_.runs;
    ++result_.probe_runs;
    return run_checked(cfg_.scenario, prefix, opts);
  }

  /// Enumerate and push every second-fault unit of one base, in
  /// (target, victim mask, crash) order.
  void process_base(std::uint64_t u, const FaultScript& base) {
    const RunResult p = probe(base);
    const std::uint64_t base_tx = base.back().tx;
    std::vector<TxLogEntry> targets;
    for (const TxLogEntry& e : p.tx_log) {
      if (e.tx_index <= base_tx || e.start >= window_end_ ||
          e.receivers.empty()) {
        continue;
      }
      if (cfg_.depth2_targets != 0 &&
          targets.size() >= cfg_.depth2_targets) {
        ++result_.dropped_targets;
        result_.partial = true;
        continue;
      }
      targets.push_back(e);
    }
    std::uint64_t j = 0;
    for (const TxLogEntry& target : targets) {
      if (stopped_) return;
      const std::uint64_t state = sample_state(p.samples, target.tx_index);
      const std::vector<can::NodeId> pool = members(target.receivers);
      const std::uint64_t subsets = (1ULL << pool.size()) - 1;
      std::uint64_t used = 0;
      for (std::uint64_t mask = 1; mask <= subsets && !stopped_; ++mask) {
        if (cfg_.max_victim_sets != 0 && used >= cfg_.max_victim_sets) {
          result_.dropped_victim_sets +=
              static_cast<std::size_t>(subsets - mask + 1);
          result_.partial = true;
          break;
        }
        ++used;
        for (const bool crash : {false, true}) {
          FaultEvent second;
          second.tx = target.tx_index;
          second.op = FaultOp::kOmit;
          second.victims = subset_from_mask(pool, mask);
          second.crash_sender = crash;
          Unit unit;
          unit.u = u;
          unit.j = j++;
          unit.key = unit_key(state, second);
          unit.script = base;
          unit.script.push_back(second);
          push_unit(std::move(unit));
        }
      }
    }
  }

  void push_unit(Unit unit) {
    if (enumerated_ < resume_cursor_) {
      ++enumerated_;  // already in the resumed records
      return;
    }
    ++enumerated_;
    pending_.push_back(std::move(unit));
    if (pending_.size() >= chunk_size()) flush();
  }

  [[nodiscard]] std::size_t chunk_size() const {
    // The chunk is the checkpoint granularity, and each chunk pays one
    // campaign-runner spin-up.  When nothing consumes checkpoints (no
    // frontier file, no stop hook) nothing caps the chunk, so take big
    // batches for parallel efficiency — record content is chunk-size
    // invariant (keying is sequential in unit order either way).
    if (cfg_.frontier_path.empty() && cfg_.stop_after_units == 0) return 1024;
    return cfg_.checkpoint_every == 0 ? 16 : cfg_.checkpoint_every;
  }

  /// Resolve one chunk: sequential keying picks the units to simulate
  /// (all of them with dedup off; the first of each unseen class with
  /// dedup on), a parallel batch executes them, and the records
  /// materialize in unit order — dups inherit their representative's
  /// verdict, which the determinism of the harness makes *the* verdict.
  void flush() {
    if (pending_.empty()) return;
    std::vector<std::size_t> to_run;
    std::map<std::uint64_t, std::size_t> claimed;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      const Unit& unit = pending_[i];
      if (!cfg_.dedup) {
        to_run.push_back(i);
        continue;
      }
      if (classes_.find(unit.key) != classes_.end() ||
          claimed.find(unit.key) != claimed.end()) {
        continue;
      }
      claimed.emplace(unit.key, i);
      to_run.push_back(i);
    }

    std::vector<FaultScript> scripts;
    scripts.reserve(to_run.size());
    for (const std::size_t idx : to_run) {
      scripts.push_back(pending_[idx].script);
    }
    const std::vector<Cell> cells =
        run_batch(cfg_.scenario, scripts, cfg_.threads, cfg_.seed);
    result_.runs += cells.size();

    std::map<std::size_t, std::size_t> cell_of;
    for (std::size_t k = 0; k < to_run.size(); ++k) {
      cell_of.emplace(to_run[k], k);
      if (cfg_.dedup) {
        const Unit& unit = pending_[to_run[k]];
        classes_.emplace(unit.key,
                         ClassOutcome{cells[k].violated, cells[k].first});
      }
    }

    for (std::size_t i = 0; i < pending_.size(); ++i) {
      const Unit& unit = pending_[i];
      ClassOutcome outcome;
      const auto cit = cell_of.find(i);
      if (cit != cell_of.end()) {
        outcome.violated = cells[cit->second].violated;
        outcome.first = cells[cit->second].first;
      } else {
        outcome = classes_.at(unit.key);
        ++result_.dedup_skips;
        verify_skip(unit, outcome);
      }
      FrontierRecord rec;
      rec.u = unit.u;
      rec.j = unit.j;
      rec.key = unit.key;
      rec.violated = outcome.violated;
      if (outcome.violated) {
        rec.violation = outcome.first;
        rec.script = unit.script;
        result_.violations.push_back(
            FoundViolation{records_.size(), unit.script, outcome.first});
      }
      records_.push_back(std::move(rec));
    }
    pending_.clear();

    if (cfg_.stop_after_units != 0 &&
        records_.size() >= cfg_.stop_after_units) {
      stopped_ = true;
    }
    if (!cfg_.frontier_path.empty()) {
      write_frontier(cfg_.frontier_path, snapshot(/*complete=*/false));
    }
  }

  /// Dedup tripwire: re-simulate every k-th skipped unit and compare its
  /// own verdict to the inherited one.  Any mismatch means the canonical
  /// state hash missed behavior-determining state.
  void verify_skip(const Unit& unit, const ClassOutcome& inherited) {
    if (cfg_.dedup_verify_every == 0) return;
    if (++verify_tick_ % cfg_.dedup_verify_every != 0) return;
    const Cell own = run_cell(cfg_.scenario, unit.script);
    ++result_.runs;
    ++result_.dedup_verified;
    const bool agree =
        own.violated == inherited.violated &&
        (!own.violated || (own.first.monitor == inherited.first.monitor &&
                           own.first.when == inherited.first.when &&
                           own.first.detail == inherited.first.detail));
    if (!agree) ++result_.dedup_mismatches;
  }

  [[nodiscard]] FrontierFile snapshot(bool complete) const {
    FrontierFile f;
    f.fingerprint = fingerprint_;
    f.total = records_.size();
    f.shard_index = static_cast<std::uint32_t>(cfg_.shard_index);
    f.shard_count = static_cast<std::uint32_t>(shard_count_);
    f.cursor = records_.size();
    f.complete = complete;
    f.partial = result_.partial;
    f.records = records_;
    f.aggregate = fold_records(records_);
    return f;
  }

  const ExploreConfig& cfg_;
  std::size_t shard_count_;
  sim::Time window_end_;
  ExploreResult result_;
  std::uint64_t fingerprint_{};
  std::uint64_t resume_cursor_{0};
  std::uint64_t enumerated_{0};
  std::uint64_t verify_tick_{0};
  bool stopped_{false};
  std::vector<Unit> pending_;
  std::vector<FrontierRecord> records_;
  std::map<std::uint64_t, ClassOutcome> classes_;
};

}  // namespace

ExploreResult explore(const ExploreConfig& cfg) {
  // Record mode: the scale engine owns dedup, sharding, frontiers, and
  // depth-2 exhaustive.  Everything else stays on the legacy paths,
  // byte-exactly.
  if (cfg.exhaustive || cfg.dedup || cfg.shard_count > 1 ||
      !cfg.frontier_path.empty() || cfg.stop_after_units != 0) {
    return RecordExplorer{cfg}.run();
  }

  ExploreResult result;
  result.aggregate_hash = kFnvOffset;

  // Probe: map the fault-free attempt timeline.
  const RunResult probe = run_checked(cfg.scenario, {}, /*want_tx_log=*/true);
  ++result.runs;

  const sim::Time window_end = window_end_for(cfg);
  std::vector<TxLogEntry> window;
  for (const TxLogEntry& e : probe.tx_log) {
    if (e.start < window_end && !e.receivers.empty()) window.push_back(e);
  }
  result.frames_in_window = window.size();

  std::vector<TxLogEntry> targeted = window;
  if (cfg.max_frames != 0 && targeted.size() > cfg.max_frames) {
    result.dropped_frames = targeted.size() - cfg.max_frames;
    targeted.resize(cfg.max_frames);
    result.partial = true;
  }
  result.frames_targeted = targeted.size();

  if (cfg.depth <= 1) {
    std::vector<FaultScript> scripts;
    for (const TxLogEntry& entry : targeted) {
      placements_for(entry, cfg.max_victim_sets, scripts,
                     result.dropped_victim_sets);
    }
    const std::vector<Cell> cells =
        run_batch(cfg.scenario, scripts, cfg.threads, cfg.seed);
    fold_batch(scripts, cells, 0, result);
  } else {
    // Depth 2: bases in deterministic order — life-sign attempts first
    // (an omitted ELS skews the victim's surveillance timer a whole Th
    // early, the precondition of the inconsistent-message-omission
    // counterexample), then the rest; attempt ascending, victim
    // ascending within each group.  Each base is probed for the FDA
    // attempts it provokes; the search stops after the first base whose
    // batch violates.
    std::vector<FaultScript> bases;
    const auto add_bases = [&](bool els_pass) {
      for (const TxLogEntry& entry : targeted) {
        const bool is_els =
            entry.msg_type == static_cast<std::uint8_t>(MsgType::kEls);
        if (is_els != els_pass) continue;
        for (can::NodeId victim : entry.receivers) {
          FaultEvent ev;
          ev.tx = entry.tx_index;
          ev.op = FaultOp::kOmit;
          ev.victims = can::NodeSet{victim};
          ev.crash_sender = true;
          bases.push_back(FaultScript{ev});
        }
      }
    };
    add_bases(/*els_pass=*/true);
    add_bases(/*els_pass=*/false);
    if (cfg.max_bases != 0 && bases.size() > cfg.max_bases) {
      result.dropped_bases = bases.size() - cfg.max_bases;
      bases.resize(cfg.max_bases);
      result.partial = true;
    }
    std::size_t index_base = 0;
    for (const FaultScript& base : bases) {
      const RunResult probe2 =
          run_checked(cfg.scenario, base, /*want_tx_log=*/true);
      ++result.runs;
      // New attempts the base fault provoked: FDA failure-signs after it.
      std::vector<const TxLogEntry*> fda_targets;
      for (const TxLogEntry& e : probe2.tx_log) {
        if (e.tx_index > base.front().tx &&
            e.msg_type == static_cast<std::uint8_t>(MsgType::kFda) &&
            !e.receivers.empty()) {
          if (fda_targets.size() >= cfg.depth2_targets) {
            ++result.dropped_targets;
            result.partial = true;
            continue;
          }
          fda_targets.push_back(&e);
        }
      }
      std::vector<FaultScript> scripts;
      for (const TxLogEntry* target : fda_targets) {
        const std::vector<can::NodeId> pool = members(target->receivers);
        const std::uint64_t subsets = (1ULL << pool.size()) - 1;
        std::uint64_t used = 0;
        for (std::uint64_t mask = 1; mask <= subsets; ++mask) {
          if (cfg.max_victim_sets != 0 && used >= cfg.max_victim_sets) {
            result.dropped_victim_sets +=
                static_cast<std::size_t>(subsets - mask + 1);
            result.partial = true;
            break;
          }
          ++used;
          FaultEvent second;
          second.tx = target->tx_index;
          second.op = FaultOp::kOmit;
          second.victims = subset_from_mask(pool, mask);
          second.crash_sender = true;  // the inconsistent-message-omission arm
          FaultScript script = base;
          script.push_back(second);
          scripts.push_back(std::move(script));
        }
      }
      const std::vector<Cell> cells =
          run_batch(cfg.scenario, scripts, cfg.threads, cfg.seed);
      const std::size_t before = result.violations.size();
      fold_batch(scripts, cells, index_base, result);
      index_base += cells.size();
      if (result.violations.size() > before) break;
    }
  }

  // Seeded random walks, reproducible per walk index.
  if (cfg.random_walks > 0 && !window.empty()) {
    std::vector<FaultScript> scripts;
    scripts.reserve(cfg.random_walks);
    for (std::size_t w = 0; w < cfg.random_walks; ++w) {
      sim::Rng rng{campaign::fork_seed(cfg.seed, result.placements + w)};
      scripts.push_back(random_script(rng, window));
    }
    const std::size_t index_base = result.placements;
    const std::vector<Cell> cells =
        run_batch(cfg.scenario, scripts, cfg.threads, cfg.seed);
    fold_batch(scripts, cells, index_base, result);
  }

  return result;
}

}  // namespace canely::check
