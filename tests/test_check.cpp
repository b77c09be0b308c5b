// Tests for the checker subsystem (src/check): checked-run determinism,
// invariant monitors on known-good and known-bad scripts, exploration
// thread-count invariance, counterexample shrinking, the replayable
// artifact round-trip, and the flight recording it embeds (Perfetto
// re-export, v1 artifacts without one).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "check/artifact.hpp"
#include "check/explore.hpp"
#include "check/harness.hpp"
#include "check/monitor.hpp"
#include "check/shrink.hpp"
#include "obs/perfetto.hpp"
#include "obs/recorder.hpp"

namespace canely::testing {
namespace {

using check::FaultEvent;
using check::FaultOp;
using check::FaultScript;
using check::RunResult;
using check::ScenarioConfig;
using check::Violation;

// The verified FDA-ablation counterexample (found by check_explorer's
// depth-2 search): omit n5's life-sign at n0 and crash n5 — n0 detects a
// whole heartbeat period early, just before a membership cycle boundary —
// then omit n0's resulting failure-sign at n7 and crash n0.  Survivors
// split over whether the intermediate view was installed.
FaultScript ablation_counterexample() {
  FaultEvent base;
  base.tx = 32;
  base.op = FaultOp::kOmit;
  base.victims = can::NodeSet{0};
  base.crash_sender = true;
  FaultEvent second;
  second.tx = 35;
  second.op = FaultOp::kOmit;
  second.victims = can::NodeSet{7};
  second.crash_sender = true;
  return FaultScript{base, second};
}

bool violates(const RunResult& run, std::string_view monitor) {
  for (const Violation& v : run.violations) {
    if (v.monitor == monitor) return true;
  }
  return false;
}

// --- checked-run determinism ------------------------------------------------

TEST(CheckHarness, FaultFreeMembershipRunIsClean) {
  const auto cfg = ScenarioConfig::membership(8);
  const RunResult run = check::run_checked(cfg, {});
  EXPECT_TRUE(run.violations.empty()) << run.violations.front().detail;
  EXPECT_GT(run.attempts, 0u);
}

TEST(CheckHarness, SameScriptSameSeedSameTraceHash) {
  const auto cfg = ScenarioConfig::membership(8, /*fda_on=*/false);
  const FaultScript script = ablation_counterexample();
  const RunResult a = check::run_checked(cfg, script);
  const RunResult b = check::run_checked(cfg, script);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.violations.size(), b.violations.size());
}

TEST(CheckHarness, DifferentScriptsDifferentTraceHash) {
  const auto cfg = ScenarioConfig::membership(8);
  FaultEvent ev;
  ev.tx = 12;
  ev.op = FaultOp::kOmit;
  ev.victims = can::NodeSet{3};
  ev.crash_sender = false;
  const RunResult clean = check::run_checked(cfg, {});
  const RunResult faulty = check::run_checked(cfg, {ev});
  EXPECT_NE(clean.trace_hash, faulty.trace_hash);
}

TEST(CheckHarness, ScenarioBoundsAreOrdered) {
  const auto cfg = ScenarioConfig::membership(8);
  EXPECT_LT(cfg.detection_bound(), cfg.expel_grace());
  EXPECT_LT(cfg.converge_by(), cfg.duration - cfg.expel_grace());
}

// --- monitors on known scripts ----------------------------------------------

TEST(CheckMonitors, AblatedFdaCounterexampleViolatesViewConsistency) {
  const auto cfg = ScenarioConfig::membership(8, /*fda_on=*/false);
  const RunResult run = check::run_checked(cfg, ablation_counterexample());
  EXPECT_TRUE(violates(run, "view-consistency"));
}

TEST(CheckMonitors, SameScriptWithFdaEnabledIsConsistent) {
  const auto cfg = ScenarioConfig::membership(8, /*fda_on=*/true);
  const RunResult run = check::run_checked(cfg, ablation_counterexample());
  EXPECT_FALSE(violates(run, "view-consistency"));
}

TEST(CheckMonitors, CrashedNodeIsExpelledFromSurvivorViews) {
  const auto cfg = ScenarioConfig::membership(8);
  FaultEvent ev;
  ev.tx = 11;  // n0's first life-sign
  ev.op = FaultOp::kOmit;
  ev.victims = can::NodeSet{1};
  ev.crash_sender = true;
  const RunResult run = check::run_checked(cfg, {ev}, /*want_tx_log=*/true);
  EXPECT_TRUE(run.violations.empty()) << run.violations.front().detail;
  // Survivors converged on the 7-node view; the installs are visible.
  bool saw_expulsion = false;
  for (std::size_t i = 1; i < 8; ++i) {
    for (const check::ViewInstall& vi : run.installs[i]) {
      if (!vi.view.contains(0)) saw_expulsion = true;
    }
  }
  EXPECT_TRUE(saw_expulsion);
}

TEST(CheckMonitors, IsInfixContract) {
  using Seq = std::vector<can::NodeSet>;
  const can::NodeSet a{1}, b{2}, c{3};
  EXPECT_TRUE(check::is_infix(Seq{}, Seq{a, b}));
  EXPECT_TRUE(check::is_infix(Seq{a, b}, Seq{a, b, c}));
  EXPECT_TRUE(check::is_infix(Seq{b, c}, Seq{a, b, c}));
  EXPECT_FALSE(check::is_infix(Seq{a, c}, Seq{a, b, c}));
}

// --- exploration ------------------------------------------------------------

TEST(CheckExplore, SmallBudgetExplorationIsCleanWithFdaOn) {
  check::ExploreConfig cfg;
  cfg.scenario = ScenarioConfig::membership(8);
  cfg.threads = 2;
  cfg.max_frames = 8;
  cfg.max_victim_sets = 8;
  const check::ExploreResult result = check::explore(cfg);
  EXPECT_GT(result.placements, 0u);
  EXPECT_TRUE(result.violations.empty());
}

TEST(CheckExplore, AggregateIsByteIdenticalForAnyThreadCount) {
  check::ExploreConfig cfg;
  cfg.scenario = ScenarioConfig::membership(8);
  cfg.max_frames = 10;
  cfg.max_victim_sets = 8;
  cfg.random_walks = 16;

  cfg.threads = 1;
  const check::ExploreResult seq = check::explore(cfg);
  cfg.threads = 4;
  const check::ExploreResult par = check::explore(cfg);

  EXPECT_EQ(seq.placements, par.placements);
  EXPECT_EQ(seq.runs, par.runs);
  EXPECT_EQ(seq.aggregate_hash, par.aggregate_hash);
  ASSERT_EQ(seq.violations.size(), par.violations.size());
  for (std::size_t i = 0; i < seq.violations.size(); ++i) {
    EXPECT_EQ(seq.violations[i].run_index, par.violations[i].run_index);
    EXPECT_EQ(seq.violations[i].script, par.violations[i].script);
  }
}

// --- shrinking --------------------------------------------------------------

TEST(CheckShrink, PaddedCounterexampleShrinksToMinimalCore) {
  const auto cfg = ScenarioConfig::membership(8, /*fda_on=*/false);
  // Pad the real counterexample with two inert events.  They must come
  // AFTER the core events in wire order: a fault on an earlier frame
  // inserts a retransmission attempt and shifts every later tx index,
  // which would derail the core script.  Late faults on steady-state
  // life-signs are absorbed (the retransmission restores consistency).
  FaultScript padded = ablation_counterexample();
  FaultEvent junk1;
  junk1.tx = 70;
  junk1.op = FaultOp::kOmit;
  junk1.victims = can::NodeSet{2};
  junk1.crash_sender = false;
  FaultEvent junk2;
  junk2.tx = 80;
  junk2.op = FaultOp::kError;
  junk2.victims = can::NodeSet{};
  junk2.crash_sender = false;
  padded.push_back(junk1);
  padded.push_back(junk2);
  ASSERT_TRUE(
      violates(check::run_checked(cfg, padded), "view-consistency"));

  const check::ShrinkResult shrunk =
      check::shrink(cfg, padded, "view-consistency");
  EXPECT_LE(shrunk.script.size(), 2u);
  EXPECT_TRUE(shrunk.locally_minimal);
  EXPECT_EQ(shrunk.violation.monitor, "view-consistency");

  // The shrunk script still violates, and removing any single event no
  // longer does — local minimality, checked from the outside.
  EXPECT_TRUE(
      violates(check::run_checked(cfg, shrunk.script), "view-consistency"));
  for (std::size_t drop = 0; drop < shrunk.script.size(); ++drop) {
    FaultScript smaller = shrunk.script;
    smaller.erase(smaller.begin() + static_cast<std::ptrdiff_t>(drop));
    EXPECT_FALSE(
        violates(check::run_checked(cfg, smaller), "view-consistency"));
  }
}

// --- artifact round-trip ----------------------------------------------------

TEST(CheckArtifact, JsonRoundTripPreservesEverything) {
  check::Artifact artifact;
  artifact.scenario = ScenarioConfig::membership(8, /*fda_on=*/false);
  artifact.script = ablation_counterexample();
  artifact.monitor = "view-consistency";
  artifact.trace_hash = 0x64b9f50534ae66b0ULL;
  artifact.violation =
      Violation{"view-consistency", sim::Time::ms(160), "detail text"};

  const std::string path =
      ::testing::TempDir() + "check_artifact_roundtrip.json";
  check::write_artifact(path, artifact);
  const check::Artifact loaded = check::load_artifact(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.monitor, artifact.monitor);
  EXPECT_EQ(loaded.trace_hash, artifact.trace_hash);
  EXPECT_EQ(loaded.script, artifact.script);
  EXPECT_EQ(loaded.scenario.n, artifact.scenario.n);
  EXPECT_EQ(loaded.scenario.params.fda_agreement,
            artifact.scenario.params.fda_agreement);
  EXPECT_EQ(loaded.scenario.duration, artifact.scenario.duration);
  EXPECT_EQ(loaded.scenario.settle, artifact.scenario.settle);
  EXPECT_EQ(loaded.violation.monitor, artifact.violation.monitor);
  EXPECT_EQ(loaded.violation.when, artifact.violation.when);

  // A replay of the loaded artifact reproduces the recorded run exactly.
  const RunResult replayed =
      check::run_checked(loaded.scenario, loaded.script);
  EXPECT_EQ(replayed.trace_hash, artifact.trace_hash);
  EXPECT_TRUE(violates(replayed, loaded.monitor));
}

// --- flight recorder ---------------------------------------------------------

TEST(FlightRecorder, ArtifactRoundTripReplaysAndReExportsIdentically) {
  const auto cfg = ScenarioConfig::membership(8, /*fda_on=*/false);
  const FaultScript script = ablation_counterexample();
  obs::Recorder rec;
  const RunResult run =
      check::run_checked(cfg, script, /*want_tx_log=*/false, &rec);
  ASSERT_FALSE(run.violations.empty());
  ASSERT_GT(rec.ring().size(), 0u);

  check::Artifact artifact;
  artifact.scenario = cfg;
  artifact.script = script;
  artifact.monitor = run.violations.front().monitor;
  artifact.trace_hash = run.trace_hash;
  artifact.violation = run.violations.front();
  artifact.flight.present = true;
  artifact.flight.ring_capacity = rec.ring().capacity();
  artifact.flight.dropped = rec.ring().dropped();
  for (std::size_t i = 0; i < rec.ring().size(); ++i) {
    artifact.flight.events.push_back(rec.ring().at(i));
  }
  artifact.flight.has_metrics = true;
  artifact.flight.metrics = rec.metrics().snapshot_json(true);

  const std::string path = ::testing::TempDir() + "flight_roundtrip.json";
  check::write_artifact(path, artifact);
  const check::Artifact loaded = check::load_artifact(path);
  std::remove(path.c_str());

  // Flight payload survives byte-faithfully.
  ASSERT_TRUE(loaded.flight.present);
  EXPECT_EQ(loaded.flight.ring_capacity, artifact.flight.ring_capacity);
  EXPECT_EQ(loaded.flight.dropped, artifact.flight.dropped);
  ASSERT_EQ(loaded.flight.events.size(), artifact.flight.events.size());
  for (std::size_t i = 0; i < loaded.flight.events.size(); ++i) {
    const obs::Event& a = artifact.flight.events[i];
    const obs::Event& b = loaded.flight.events[i];
    ASSERT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.when, b.when) << "event " << i;
    EXPECT_EQ(a.node, b.node) << "event " << i;
    if (a.kind == obs::EventKind::kFrameTx) {
      EXPECT_EQ(a.u.frame.id, b.u.frame.id);
      EXPECT_EQ(a.u.frame.bits, b.u.frame.bits);
      EXPECT_EQ(a.u.frame.outcome, b.u.frame.outcome);
    } else if (a.kind == obs::EventKind::kViewInstall) {
      EXPECT_EQ(a.u.view.members, b.u.view.members);
    }
  }
  ASSERT_TRUE(loaded.flight.has_metrics);

  // A replay of the loaded artifact still reproduces the recorded run.
  const RunResult replayed = check::run_checked(loaded.scenario, loaded.script);
  EXPECT_EQ(replayed.trace_hash, loaded.trace_hash);

  // The archived trace re-export is byte-identical to a live export of
  // the same run (the contract check_explorer --replay --trace-out
  // relies on).
  const auto live_events = obs::build_trace_events(rec.ring());
  const std::string live =
      obs::render_trace_json(live_events, &rec.metrics(), rec.ring());
  obs::EventRing ring{loaded.flight.ring_capacity};
  for (const obs::Event& e : loaded.flight.events) ring.push(e);
  const auto archived_events = obs::build_trace_events(ring);
  const obs::RingStats stats{loaded.flight.ring_capacity,
                             loaded.flight.events.size(),
                             loaded.flight.dropped};
  const std::string archived =
      obs::render_trace_json(archived_events, &loaded.flight.metrics, stats);
  EXPECT_EQ(live, archived);
}

TEST(FlightRecorder, V1ArtifactsStillLoadWithoutFlight) {
  const auto cfg = ScenarioConfig::membership(8, /*fda_on=*/false);
  check::Artifact artifact;
  artifact.scenario = cfg;
  artifact.script = ablation_counterexample();
  artifact.monitor = "view-consistency";
  artifact.trace_hash = 0x1234;
  artifact.violation =
      check::Violation{"view-consistency", sim::Time::ms(160), "detail"};

  // A v1 file is exactly a v2 file minus the flight key and schema bump.
  std::string v1 = check::artifact_json(artifact).dump(2);
  const std::string::size_type at = v1.find("canely-check-2");
  ASSERT_NE(at, std::string::npos);
  v1.replace(at, std::string{"canely-check-2"}.size(), "canely-check-1");
  const std::string path = ::testing::TempDir() + "flight_v1.json";
  {
    std::ofstream out{path, std::ios::binary};
    out << v1;
  }

  const check::Artifact loaded = check::load_artifact(path);
  std::remove(path.c_str());
  EXPECT_FALSE(loaded.flight.present);
  EXPECT_EQ(loaded.monitor, artifact.monitor);
  EXPECT_EQ(loaded.trace_hash, artifact.trace_hash);
  EXPECT_EQ(loaded.script, artifact.script);
}

}  // namespace
}  // namespace canely::testing
