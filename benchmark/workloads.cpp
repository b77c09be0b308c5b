#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <thread>

#include "baselines/gossip.hpp"
#include "baselines/rapid.hpp"
#include "baselines/swim.hpp"
#include "campaign/grid.hpp"
#include "campaign/runner.hpp"
#include "can/bus.hpp"
#include "canely/node.hpp"
#include "check/explore.hpp"
#include "net/medium.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "units.hpp"

namespace bench {

using namespace canely;
using sim::Time;

// -- spans ----------------------------------------------------------------

Spans::Spans(bool enabled) : enabled_{enabled}, origin_{Clock::now()} {
  if (enabled_) spans_.reserve(4096);
}

int Spans::open(const char* name) {
  if (!enabled_) return -1;
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - origin_)
                       .count();
  spans_.push_back(Span{name, now, now, current_});
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Spans::close(int id) {
  if (id < 0) return;
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - origin_)
                 .count();
  current_ = s.parent;
}

std::string Spans::chrome_trace() const {
  campaign::Json events = campaign::Json::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string name{s.name};
    campaign::Json args = campaign::Json::object();
    args.set("id", campaign::Json::integer(static_cast<std::int64_t>(i)));
    args.set("parent", campaign::Json::integer(s.parent));
    campaign::Json e = campaign::Json::object();
    e.set("name", campaign::Json::string(name));
    e.set("cat", campaign::Json::string(name.substr(0, name.find('.'))));
    e.set("ph", campaign::Json::string("X"));
    e.set("ts", campaign::Json::number(static_cast<double>(s.start_ns) / 1e3));
    e.set("dur", campaign::Json::number(
                     static_cast<double>(s.end_ns - s.start_ns) / 1e3));
    e.set("pid", campaign::Json::integer(1));
    e.set("tid", campaign::Json::integer(1));
    e.set("args", std::move(args));
    events.push(std::move(e));
  }
  campaign::Json root = campaign::Json::object();
  root.set("traceEvents", std::move(events));
  root.set("displayTimeUnit", campaign::Json::string("ms"));
  return root.dump();
}

campaign::Json Spans::self_times() const {
  struct Acc {
    std::int64_t count{0};
    std::int64_t total_ns{0};
    std::int64_t self_ns{0};
  };
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, Acc> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    Acc& a = by_name[spans_[i].name];
    ++a.count;
    a.total_ns += dur;
    a.self_ns += dur - child_ns[i];
  }
  campaign::Json out = campaign::Json::object();
  for (const auto& [name, a] : by_name) {
    campaign::Json j = campaign::Json::object();
    j.set("count", campaign::Json::integer(a.count));
    j.set("total_s", campaign::Json::number(static_cast<double>(a.total_ns) / 1e9));
    j.set("self_s", campaign::Json::number(static_cast<double>(a.self_ns) / 1e9));
    out.set(name, std::move(j));
  }
  return out;
}

// -- units ----------------------------------------------------------------

Params lifecycle_params(std::size_t n) {
  Params p;
  p.n = n;
  // Ttd must cover the n-deep explicit life-sign burst after a view
  // change (params.hpp); scaled as the membership shootout scales it.
  p.tx_delay_bound = std::max(Time::ms(2), Time::us(125) * static_cast<std::int64_t>(n));
  return p;
}

Time detection_bound(const Params& p) {
  return p.heartbeat_period + 2 * p.tx_delay_bound +
         p.fd_skew_quantum * static_cast<std::int64_t>(p.n);
}

LifecycleResult run_lifecycle(const LifecycleSpec& spec, Spans& spans,
                              obs::Recorder* recorder) {
  LifecycleResult out;
  const std::size_t n = spec.n;
  const Params params = lifecycle_params(n);
  sim::Engine engine;
  can::Bus bus{engine};
  bus.set_recorder(recorder);

  auto t = Clock::now();
  std::vector<std::unique_ptr<Node>> nodes;
  {
    Spans::Scope s{spans, "canely.construct"};
    nodes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<Node>(bus, static_cast<can::NodeId>(i),
                                             params, nullptr, recorder));
    }
  }
  out.construct_s = seconds_since(t);

  t = Clock::now();
  bool formed = false;
  {
    Spans::Scope s{spans, "canely.join+sim.run:formation"};
    for (auto& node : nodes) node->join();
    const Time give_up = Time::sec(10);
    while (engine.now() < give_up) {
      engine.run_for(Time::ms(1));
      const bool full = std::all_of(nodes.begin(), nodes.end(), [&](const auto& nd) {
        return nd->is_member() && nd->view().size() == n;
      });
      if (full) {
        formed = true;
        break;
      }
    }
  }
  out.formation_s = seconds_since(t);
  out.formation_ms = engine.now().to_ms_f();
  if (!formed) {
    out.error = "n=" + std::to_string(n) + ": full view did not form by 10 s";
    out.events = engine.dispatched();
    out.frames = bus.stats().attempts;
    out.bits = bus.stats().bits_total;
    return out;
  }

  t = Clock::now();
  {
    Spans::Scope s{spans, "sim.run:steady"};
    engine.run_for(Time::sec(1));
  }
  out.steady_s = seconds_since(t);

  // Survivor notifications (fda-can.nty, the §6.3 detection event).
  Time crashed_at = Time::max();
  std::vector<Time> notified(n, Time::max());
  std::size_t notified_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    nodes[i]->fda().set_nty_observer([&, i](can::NodeId failed) {
      if (failed != spec.victim || crashed_at == Time::max() ||
          notified[i] != Time::max()) {
        return;
      }
      notified[i] = engine.now();
      ++notified_count;
    });
  }
  engine.run_for(spec.crash_offset);
  t = Clock::now();
  {
    Spans::Scope s{spans, "canely.crash+sim.run:detect"};
    crashed_at = engine.now();
    nodes[spec.victim]->crash();
    while (notified_count < n - 1 && engine.now() < crashed_at + Time::sec(1)) {
      engine.run_for(Time::ms(1));
    }
  }
  out.detect_s = seconds_since(t);

  const Time bound = detection_bound(params);
  Time worst = Time::zero();
  for (std::size_t i = 0; i < n; ++i) {
    if (i == spec.victim || notified[i] == Time::max()) continue;
    const Time lat = notified[i] - crashed_at;
    worst = std::max(worst, lat);
    out.detect_ms.push_back(lat.to_ms_f());
  }
  if (notified_count != n - 1) {
    out.error = "n=" + std::to_string(n) + ": " + std::to_string(notified_count) +
                " of " + std::to_string(n - 1) + " survivors notified";
  } else if (worst > bound) {
    out.error = "n=" + std::to_string(n) + ": notification after " +
                std::to_string(worst.to_us_f()) + " us exceeds the bound " +
                std::to_string(bound.to_us_f()) + " us";
  }
  out.events = engine.dispatched();
  out.frames = bus.stats().attempts;
  out.bits = bus.stats().bits_total;
  return out;
}

const char* proto_name(Proto p) {
  switch (p) {
    case Proto::kSwim:
      return "swim";
    case Proto::kRapid:
      return "rapid";
    case Proto::kGossip:
    default:
      return "gossip";
  }
}

CellResult run_cell(const CellSpec& spec, Spans& spans) {
  constexpr Time kCrashAt = Time::sec(8);
  constexpr Time kConvergeBy = Time::sec(60);
  const std::size_t n = spec.n;
  sim::Engine engine;
  net::MediumConfig cfg;
  cfg.n = n;
  cfg.default_link.delay_min = Time::us(100);
  cfg.default_link.delay_max = Time::ms(2);
  cfg.default_link.drop_p = 0.01;
  net::Medium medium{engine, cfg, spec.seed};

  std::unique_ptr<baselines::MembershipBaseline> cluster;
  const std::uint64_t cluster_seed = spec.seed ^ 0xC1A5;
  switch (spec.proto) {
    case Proto::kSwim:
      cluster = std::make_unique<baselines::SwimCluster>(
          medium, n, baselines::SwimParams{}, cluster_seed);
      break;
    case Proto::kRapid:
      cluster = std::make_unique<baselines::RapidCluster>(
          medium, n, baselines::RapidParams{}, cluster_seed);
      break;
    case Proto::kGossip:
      cluster = std::make_unique<baselines::GossipCluster>(
          medium, n, baselines::GossipParams{}, cluster_seed);
      break;
  }

  const auto victim = static_cast<net::NodeId>(n / 2);
  bool crashed = false;
  bool converged = false;
  std::vector<bool> declared(n, false);
  CellResult out;
  cluster->set_failure_handler([&](net::NodeId observer, net::NodeId failed) {
    if (!crashed || failed != victim || declared[observer]) return;
    declared[observer] = true;
    out.detect_ms.push_back((engine.now() - kCrashAt).to_ms_f());
  });

  {
    Spans::Scope s{spans, "baselines.start+sim.run:steady"};
    cluster->start();
    engine.run_until(kCrashAt);
  }
  {
    Spans::Scope s{spans, "net.crash+sim.run:converge"};
    const std::uint64_t views0 = cluster->view_changes();
    medium.crash(victim);
    cluster->crash(victim);
    crashed = true;
    net::Members expect = net::Members::all(n);
    expect.erase(victim);
    for (Time t = kCrashAt + Time::ms(100); t <= kConvergeBy; t += Time::ms(100)) {
      engine.run_until(t);
      if (cluster->views_agree(expect)) {
        converged = true;
        break;
      }
    }
    out.view_changes = cluster->view_changes() - views0;
  }
  if (!converged) {
    out.error = std::string{proto_name(spec.proto)} + " n=" + std::to_string(n) +
                ": views did not converge by 60 s";
  }
  out.events = engine.dispatched();
  out.delivered = medium.stats().delivered;
  out.dropped = medium.stats().dropped;
  return out;
}

BareRun run_bare_scenario(const check::ScenarioConfig& cfg) {
  sim::Engine engine;
  can::BusConfig bus_cfg;
  bus_cfg.clustering = cfg.clustering;
  can::Bus bus{engine, bus_cfg};
  std::vector<std::unique_ptr<Node>> nodes;
  nodes.reserve(cfg.n);
  for (std::size_t i = 0; i < cfg.n; ++i) {
    nodes.push_back(
        std::make_unique<Node>(bus, static_cast<can::NodeId>(i), cfg.params));
  }
  for (auto& node : nodes) node->join();
  engine.run_until(cfg.duration);
  return BareRun{engine.dispatched(), bus.stats().attempts, bus.stats().bits_total};
}

std::size_t capped_threads(std::size_t want) {
  const std::size_t hw = std::max(1U, std::thread::hardware_concurrency());
  return std::min(want, static_cast<std::size_t>(hw));
}

namespace {

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void note_error(Window& w, std::string msg) {
  if (w.errors.size() < 8) w.errors.push_back(std::move(msg));
}

// -- explore_d2 / explore_d1 -----------------------------------------------

/// What one full pass must produce (the checker's thread-invariant
/// outputs); a mismatch means the benchmark measures another program.
struct ExploreGolden {
  std::size_t placements;
  std::size_t violations;
  std::uint64_t aggregate_hash;
};

Ledger explore_ledger(const check::ExploreResult& r) {
  return Ledger{
      {"check.placements", r.placements},
      {"check.runs", r.runs},
      {"check.probe_runs", r.probe_runs},
      {"check.prefix_cache_hits", r.prefix_cache_hits},
      {"check.dedup_classes", r.dedup_classes},
      {"check.dedup_skips", r.dedup_skips},
      {"check.dedup_mismatches", r.dedup_mismatches},
      {"check.violations", r.violations.size()},
      {"check.frames_in_window", r.frames_in_window},
      {"check.frames_targeted", r.frames_targeted},
  };
}

class ExploreWorkload final : public Workload {
 public:
  ExploreWorkload(check::ExploreConfig full, check::ExploreConfig warm,
                  check::ExploreConfig probe, ExploreGolden golden)
      : full_{std::move(full)},
        warm_{std::move(warm)},
        probe_{std::move(probe)},
        golden_{golden} {}

  void warm_up() override { (void)check::explore(warm_); }

  [[nodiscard]] const char* unit() const override { return "placements"; }

  Window run_window(Spans& spans) override {
    check::ExploreResult r;
    {
      Spans::Scope s{spans, "check.explore"};
      r = check::explore(full_);
    }
    Window w;
    w.units = r.placements;
    w.ledger = explore_ledger(r);
    w.digest = hex(r.aggregate_hash);
    if (r.placements != golden_.placements) {
      note_error(w, "placements " + std::to_string(r.placements) + " != golden " +
                        std::to_string(golden_.placements));
    }
    if (r.violations.size() != golden_.violations) {
      note_error(w, "violations " + std::to_string(r.violations.size()) +
                        " != golden " + std::to_string(golden_.violations));
    }
    if (r.aggregate_hash != golden_.aggregate_hash) {
      note_error(w, "aggregate hash " + hex(r.aggregate_hash) + " != golden " +
                        hex(golden_.aggregate_hash));
    }
    if (r.dedup_mismatches != 0) {
      note_error(w, "dedup_mismatches " + std::to_string(r.dedup_mismatches) +
                        " != 0");
    }
    if (!w.errors.empty()) w.failed = w.units;
    return w;
  }

  [[nodiscard]] std::size_t threads() const override { return full_.threads; }

  Rate rate_on(std::size_t threads) override {
    check::ExploreConfig cfg = probe_;
    cfg.threads = threads;
    const auto t0 = Clock::now();
    const check::ExploreResult r = check::explore(cfg);
    const double secs = seconds_since(t0);
    Ledger ledger = explore_ledger(r);
    ledger["check.aggregate_hash"] = r.aggregate_hash;
    return Rate{static_cast<double>(r.placements) / secs, std::move(ledger)};
  }

 private:
  check::ExploreConfig full_, warm_, probe_;
  ExploreGolden golden_;
};

std::unique_ptr<Workload> make_explore_d2(bool quick) {
  check::ExploreConfig cfg;
  cfg.scenario = check::ScenarioConfig::membership(8, /*fda_on=*/true);
  cfg.depth = 2;
  cfg.exhaustive = true;
  cfg.dedup = true;
  cfg.max_victim_sets = 6;
  cfg.max_bases = quick ? 24 : 0;
  cfg.depth2_targets = 0;
  cfg.threads = capped_threads(2);
  if (cfg.threads < 2) {
    std::cerr << "warning: explore_d2 wants 2 threads, host has "
              << cfg.threads << "; running on " << cfg.threads << "\n";
  }
  check::ExploreConfig warm = cfg;
  warm.max_bases = quick ? 4 : 24;
  check::ExploreConfig probe = cfg;
  probe.max_bases = quick ? 8 : 64;
  const ExploreGolden golden =
      quick ? ExploreGolden{11664, 72, 0x6ea567dbd86643c3ULL}
            : ExploreGolden{130104, 356, 0x638fc4957ab74a26ULL};
  return std::make_unique<ExploreWorkload>(cfg, warm, probe, golden);
}

std::unique_ptr<Workload> make_explore_d1(bool quick) {
  check::ExploreConfig cfg;
  cfg.scenario = check::ScenarioConfig::membership(8, /*fda_on=*/true);
  cfg.depth = 1;
  cfg.threads = 1;
  cfg.max_frames = quick ? 8 : 0;
  check::ExploreConfig warm = cfg;
  warm.max_frames = quick ? 4 : 16;
  check::ExploreConfig probe = cfg;
  probe.max_frames = quick ? 8 : 0;
  const ExploreGolden golden =
      quick ? ExploreGolden{2032, 0, 0x63abcf1af962ada8ULL} : ExploreGolden{10922, 0, 0xffb127771ac05df1ULL};
  return std::make_unique<ExploreWorkload>(cfg, warm, probe, golden);
}

// -- lifecycle ---------------------------------------------------------------

/// One round, largest stacks first so a thread pool claims them first.
/// Sizes are chosen so each n takes about a third of the round's host
/// time; the seed picks each lifecycle's victim and crash offset.
std::vector<LifecycleSpec> lifecycle_round(std::uint64_t seed, bool quick) {
  std::vector<std::size_t> sizes;
  const auto add = [&](std::size_t n, std::size_t count) {
    sizes.insert(sizes.end(), count, n);
  };
  if (quick) {
    add(32, 1);
    add(8, 16);
  } else {
    add(64, 3);
    add(32, 12);
    add(8, 192);
  }
  std::vector<LifecycleSpec> round;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    sim::Rng rng{campaign::fork_seed(seed, i)};
    const std::size_t n = sizes[i];
    const Params p = lifecycle_params(n);
    LifecycleSpec spec;
    spec.n = n;
    spec.victim = static_cast<can::NodeId>(rng.below(n));
    spec.crash_offset = Time::us(static_cast<std::int64_t>(
        rng.below(static_cast<std::uint64_t>(p.heartbeat_period.to_us()))));
    round.push_back(spec);
  }
  return round;
}

void add_lifecycle(Window& w, const LifecycleResult& r, std::size_t n) {
  ++w.units;
  w.ledger["sim.events"] += r.events;
  w.ledger["can.frames"] += r.frames;
  w.ledger["can.bits"] += r.bits;
  w.ledger["can.frames.n" + std::to_string(n)] += r.frames;
  w.ledger["canely.lifecycles.n" + std::to_string(n)] += 1;
  w.formation_ms.push_back(r.formation_ms);
  w.detect_ms.insert(w.detect_ms.end(), r.detect_ms.begin(), r.detect_ms.end());
  if (!r.error.empty()) {
    ++w.failed;
    note_error(w, r.error);
  }
}

class LifecycleWorkload final : public Workload {
 public:
  LifecycleWorkload(std::uint64_t seed, bool quick)
      : round_{lifecycle_round(seed, quick)} {}

  /// Every other lifecycle of the round.
  void warm_up() override {
    Spans off{false};
    for (std::size_t i = 0; i < round_.size(); i += 2) {
      (void)run_lifecycle(round_[i], off);
    }
  }

  [[nodiscard]] const char* unit() const override { return "lifecycles"; }

  Window run_window(Spans& spans) override {
    Window w;
    for (const LifecycleSpec& spec : round_) {
      Spans::Scope s{spans, spec.n == 8    ? "unit.lifecycle_n8"
                            : spec.n == 32 ? "unit.lifecycle_n32"
                                           : "unit.lifecycle_n64"};
      add_lifecycle(w, run_lifecycle(spec, spans), spec.n);
    }
    return w;
  }

  Rate rate_on(std::size_t threads) override {
    campaign::Grid grid;
    std::vector<double> index(round_.size());
    for (std::size_t i = 0; i < index.size(); ++i) index[i] = static_cast<double>(i);
    grid.axis("lifecycle", index);
    campaign::Runner runner{threads};
    const auto t0 = Clock::now();
    const auto outcome = runner.run<LifecycleResult>(grid, [&](const campaign::RunSpec& s) {
      Spans off{false};
      return run_lifecycle(round_[s.cell], off);
    });
    const double secs = seconds_since(t0);
    Window w;
    for (std::size_t i = 0; i < round_.size(); ++i) {
      add_lifecycle(w, outcome.results[i], round_[i].n);
    }
    return Rate{static_cast<double>(w.units) / secs, std::move(w.ledger)};
  }

 private:
  std::vector<LifecycleSpec> round_;
};

// -- shootout ----------------------------------------------------------------

std::vector<CellSpec> shootout_grid(std::uint64_t seed, bool quick) {
  const std::vector<std::pair<Proto, std::size_t>> cells =
      quick ? std::vector<std::pair<Proto, std::size_t>>{{Proto::kSwim, 128},
                                                        {Proto::kRapid, 128},
                                                        {Proto::kGossip, 64}}
            : std::vector<std::pair<Proto, std::size_t>>{{Proto::kSwim, 1024},
                                                        {Proto::kRapid, 1024},
                                                        {Proto::kGossip, 256}};
  std::vector<CellSpec> out;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out.push_back(CellSpec{cells[i].first, cells[i].second,
                           campaign::fork_seed(seed, i)});
  }
  return out;
}

void add_cell(Window& w, const CellResult& r) {
  ++w.units;
  w.ledger["sim.events"] += r.events;
  w.ledger["net.delivered"] += r.delivered;
  w.ledger["net.dropped"] += r.dropped;
  w.ledger["baselines.view_changes"] += r.view_changes;
  w.detect_ms.insert(w.detect_ms.end(), r.detect_ms.begin(), r.detect_ms.end());
  if (!r.error.empty()) {
    ++w.failed;
    note_error(w, r.error);
  }
}

class ShootoutWorkload final : public Workload {
 public:
  ShootoutWorkload(std::uint64_t seed, bool quick)
      : cells_{shootout_grid(seed, quick)} {}

  /// The grid at half the cluster sizes.
  void warm_up() override {
    Spans off{false};
    for (const CellSpec& spec : cells_) {
      (void)run_cell(CellSpec{spec.proto, spec.n / 2, spec.seed}, off);
    }
  }

  [[nodiscard]] const char* unit() const override { return "cells"; }

  Window run_window(Spans& spans) override {
    Window w;
    for (const CellSpec& spec : cells_) {
      Spans::Scope s{spans, spec.proto == Proto::kSwim    ? "unit.cell_swim"
                            : spec.proto == Proto::kRapid ? "unit.cell_rapid"
                                                          : "unit.cell_gossip"};
      add_cell(w, run_cell(spec, spans));
    }
    return w;
  }

  Rate rate_on(std::size_t threads) override {
    // Two copies of the grid so four workers have more than three cells
    // to share.
    campaign::Grid grid;
    std::vector<double> index(2 * cells_.size());
    for (std::size_t i = 0; i < index.size(); ++i) index[i] = static_cast<double>(i);
    grid.axis("cell", index);
    campaign::Runner runner{threads};
    const auto t0 = Clock::now();
    const auto outcome = runner.run<CellResult>(grid, [&](const campaign::RunSpec& s) {
      Spans off{false};
      return run_cell(cells_[s.cell % cells_.size()], off);
    });
    const double secs = seconds_since(t0);
    Window w;
    for (const CellResult& r : outcome.results) add_cell(w, r);
    return Rate{static_cast<double>(w.units) / secs, std::move(w.ledger)};
  }

 private:
  std::vector<CellSpec> cells_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"explore_d2", "explore_d1",
                                              "lifecycle", "shootout"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool quick) {
  // The explore workloads are exhaustive enumerations: they ignore the
  // seed by construction.
  if (name == "explore_d2") return make_explore_d2(quick);
  if (name == "explore_d1") return make_explore_d1(quick);
  if (name == "lifecycle") return std::make_unique<LifecycleWorkload>(seed, quick);
  if (name == "shootout") return std::make_unique<ShootoutWorkload>(seed, quick);
  return nullptr;
}

}  // namespace bench
