// Tests for the explorer's scale engine (record mode): shard-union
// byte-identity, dedup-on vs dedup-off verdict equality, one probe run
// per base, frontier resume-after-kill, rejection of hostile frontier
// files, merge validation, and --shard argument parsing.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/cli.hpp"
#include "check/explore.hpp"
#include "check/frontier.hpp"
#include "check/harness.hpp"
#include "check/json_reader.hpp"

namespace canely::testing {
namespace {

using check::ExploreConfig;
using check::ExploreResult;
using check::FrontierFile;
using check::FrontierRecord;
using check::ScenarioConfig;

// The CI smoke budget: depth-2 exhaustive over a clipped space (8 frames
// x 4 victim sets -> 32 bases, capped to 8, x 2 targets x 4 sets x 2
// crash flags = 128 units) — violation-free with FDA on, sub-second.
ExploreConfig smoke_config() {
  ExploreConfig cfg;
  cfg.scenario = ScenarioConfig::membership(8);
  cfg.exhaustive = true;
  cfg.dedup = true;
  cfg.depth = 2;
  cfg.max_frames = 8;
  cfg.max_victim_sets = 4;
  cfg.max_bases = 8;
  cfg.depth2_targets = 2;
  cfg.threads = 2;
  return cfg;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- shard union == unsharded, across thread counts -------------------------

TEST(Frontier, ShardUnionIsByteIdenticalToUnshardedRun) {
  const std::string all = temp_path("frontier_all.json");
  const std::string s0 = temp_path("frontier_s0.json");
  const std::string s1 = temp_path("frontier_s1.json");
  std::remove(all.c_str());
  std::remove(s0.c_str());
  std::remove(s1.c_str());

  ExploreConfig cfg = smoke_config();
  cfg.frontier_path = all;
  const ExploreResult whole = check::explore(cfg);
  EXPECT_GT(whole.placements, 0u);

  // Shards deliberately run with different thread counts: the frontier
  // bytes must not care.
  cfg.shard_count = 2;
  cfg.shard_index = 0;
  cfg.threads = 1;
  cfg.frontier_path = s0;
  (void)check::explore(cfg);
  cfg.shard_index = 1;
  cfg.threads = 4;
  cfg.frontier_path = s1;
  (void)check::explore(cfg);

  const FrontierFile merged =
      check::merge_frontiers({check::load_frontier(s0),
                              check::load_frontier(s1)});
  const FrontierFile unsharded = check::load_frontier(all);
  EXPECT_EQ(check::frontier_json(merged).dump(2),
            check::frontier_json(unsharded).dump(2));
  EXPECT_EQ(merged.aggregate, whole.aggregate_hash);

  std::remove(all.c_str());
  std::remove(s0.c_str());
  std::remove(s1.c_str());
}

// --- dedup on == dedup off ---------------------------------------------------

TEST(Frontier, DedupOnAndOffProduceIdenticalVerdicts) {
  const std::string on = temp_path("frontier_dedup_on.json");
  const std::string off = temp_path("frontier_dedup_off.json");
  std::remove(on.c_str());
  std::remove(off.c_str());

  ExploreConfig cfg = smoke_config();
  cfg.dedup = true;
  cfg.dedup_verify_every = 1;  // tripwire every skip: must all agree
  cfg.frontier_path = on;
  const ExploreResult deduped = check::explore(cfg);

  cfg.dedup = false;
  cfg.dedup_verify_every = 0;
  cfg.frontier_path = off;
  const ExploreResult plain = check::explore(cfg);

  // The dedup run must actually have skipped something for this test to
  // mean anything, and every tripwire re-execution must have agreed.
  EXPECT_GT(deduped.dedup_skips, 0u);
  EXPECT_EQ(deduped.dedup_verified, deduped.dedup_skips);
  EXPECT_EQ(deduped.dedup_mismatches, 0u);
  // Discounting the tripwire re-executions, dedup saved real runs.
  EXPECT_LT(deduped.runs - deduped.dedup_verified, plain.runs);

  EXPECT_EQ(deduped.placements, plain.placements);
  EXPECT_EQ(deduped.aggregate_hash, plain.aggregate_hash);
  ASSERT_EQ(deduped.violations.size(), plain.violations.size());
  for (std::size_t i = 0; i < plain.violations.size(); ++i) {
    EXPECT_EQ(deduped.violations[i].run_index, plain.violations[i].run_index);
    EXPECT_EQ(deduped.violations[i].script, plain.violations[i].script);
  }
  EXPECT_EQ(slurp(on), slurp(off));

  std::remove(on.c_str());
  std::remove(off.c_str());
}

// --- one probe per base -----------------------------------------------------

TEST(Frontier, EachBaseIsProbedOnce) {
  // The fault-free probe plus one probe per base (8 in the smoke budget);
  // every other run simulates a class representative or re-executes a
  // skip for the tripwire.
  ExploreConfig cfg = smoke_config();
  cfg.dedup_verify_every = 4;
  const ExploreResult whole = check::explore(cfg);
  EXPECT_EQ(whole.probe_runs, 9u);
  EXPECT_EQ(whole.prefix_cache_hits, 0u);
  EXPECT_GT(whole.dedup_verified, 0u);
  EXPECT_EQ(whole.runs, whole.probe_runs +
                            (whole.placements - whole.dedup_skips) +
                            whole.dedup_verified);

  // Shard 0 of 2 owns bases 0, 2, 4 and 6, and still probes the
  // fault-free run for the attempt timeline.
  cfg.shard_count = 2;
  cfg.shard_index = 0;
  EXPECT_EQ(check::explore(cfg).probe_runs, 5u);
}

// --- resume after a kill -----------------------------------------------------

TEST(Frontier, ResumeAfterStopYieldsByteIdenticalFrontier) {
  const std::string resumable = temp_path("frontier_resume.json");
  const std::string straight = temp_path("frontier_straight.json");
  std::remove(resumable.c_str());
  std::remove(straight.c_str());

  ExploreConfig cfg = smoke_config();
  cfg.frontier_path = resumable;
  cfg.checkpoint_every = 8;
  cfg.stop_after_units = 40;  // "kill" mid-run, after a checkpoint
  (void)check::explore(cfg);
  const FrontierFile at_stop = check::load_frontier(resumable);
  EXPECT_FALSE(at_stop.complete);
  // `total` only counts units enumerated so far (depth-2 units surface
  // lazily, base by base), so cursor == total here; incomplete is what
  // distinguishes a stopped run from a finished one.
  EXPECT_GE(at_stop.cursor, 40u);

  cfg.stop_after_units = 0;
  const ExploreResult resumed = check::explore(cfg);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_TRUE(check::load_frontier(resumable).complete);

  cfg.frontier_path = straight;
  const ExploreResult whole = check::explore(cfg);
  EXPECT_FALSE(whole.resumed);
  EXPECT_EQ(resumed.aggregate_hash, whole.aggregate_hash);
  EXPECT_EQ(slurp(resumable), slurp(straight));

  std::remove(resumable.c_str());
  std::remove(straight.c_str());
}

// --- hostile frontier files --------------------------------------------------

TEST(Frontier, DeeplyNestedFileIsRejectedAndExploreStartsFresh) {
  // The reader caps nesting at 64: one level more is a clean error, not
  // a deeper recursion.
  const std::string ok = std::string(64, '[') + std::string(64, ']');
  EXPECT_NO_THROW((void)check::jsonin::parse(ok, "nested"));
  EXPECT_THROW((void)check::jsonin::parse("[" + ok + "]", "nested"),
               std::runtime_error);

  // 100,000 open brackets would overflow the stack of an uncapped
  // recursive parser; resume must instead discard the file.
  const std::string hostile = temp_path("frontier_nested.json");
  {
    std::ofstream out(hostile, std::ios::binary);
    out << std::string(100'000, '[');
  }
  EXPECT_THROW((void)check::load_frontier(hostile), std::runtime_error);

  ExploreConfig cfg = smoke_config();
  cfg.frontier_path = hostile;
  cfg.stop_after_units = 8;
  const ExploreResult r = check::explore(cfg);
  EXPECT_FALSE(r.resumed);
  EXPECT_FALSE(check::load_frontier(hostile).records.empty());

  std::remove(hostile.c_str());
}

// --- merge validation --------------------------------------------------------

FrontierFile shard_stub(std::uint32_t index, std::uint32_t count) {
  FrontierFile f;
  f.fingerprint = 0xF00D;
  f.shard_index = index;
  f.shard_count = count;
  f.total = 1;
  f.cursor = 1;
  f.complete = true;
  FrontierRecord r;
  r.u = index;
  f.records.push_back(r);
  f.aggregate = check::fold_records(f.records);
  return f;
}

TEST(Frontier, MergeRejectsInvalidShardSets) {
  const FrontierFile s0 = shard_stub(0, 2);
  const FrontierFile s1 = shard_stub(1, 2);
  EXPECT_NO_THROW((void)check::merge_frontiers({s0, s1}));

  // Missing shard 1.
  EXPECT_THROW((void)check::merge_frontiers({s0}), std::runtime_error);
  // Duplicate shard index.
  EXPECT_THROW((void)check::merge_frontiers({s0, s0}), std::runtime_error);
  // Mixed fingerprints.
  FrontierFile other = s1;
  other.fingerprint = 0xBEEF;
  EXPECT_THROW((void)check::merge_frontiers({s0, other}), std::runtime_error);
  // Incomplete shard.
  FrontierFile unfinished = s1;
  unfinished.complete = false;
  EXPECT_THROW((void)check::merge_frontiers({s0, unfinished}),
               std::runtime_error);
}

// --- --shard parsing ---------------------------------------------------------

TEST(Frontier, ParseShardAcceptsOnlyValidSlices) {
  std::size_t index = 99;
  std::size_t count = 99;
  EXPECT_TRUE(campaign::parse_shard("0/1", index, count));
  EXPECT_EQ(index, 0u);
  EXPECT_EQ(count, 1u);
  EXPECT_TRUE(campaign::parse_shard("3/12", index, count));
  EXPECT_EQ(index, 3u);
  EXPECT_EQ(count, 12u);

  index = count = 99;
  EXPECT_FALSE(campaign::parse_shard("2/2", index, count));   // i >= N
  EXPECT_FALSE(campaign::parse_shard("0/0", index, count));   // N == 0
  EXPECT_FALSE(campaign::parse_shard("1", index, count));     // no slash
  EXPECT_FALSE(campaign::parse_shard("a/4", index, count));   // junk index
  EXPECT_FALSE(campaign::parse_shard("1/4x", index, count));  // junk count
  EXPECT_FALSE(campaign::parse_shard("", index, count));
  EXPECT_EQ(index, 99u);  // failures leave the outputs untouched
  EXPECT_EQ(count, 99u);
}

}  // namespace
}  // namespace canely::testing
