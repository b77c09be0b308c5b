// canely-lint engine tests (DESIGN.md §10): every rule demonstrated
// firing on a bad fixture and staying silent on its good twin, plus
// suppression grammar, zone scoping, output formats — and a meta-test
// asserting the real tree lints clean.
//
// Fixtures live in tests/lint_fixtures/ and are linted by *content*
// under a pretend zone path; classify() hard-skips that directory in
// tree walks, so the deliberate violations never reach CI.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/index.hpp"
#include "lint/lint.hpp"

namespace canely::lint {
namespace {

std::string read_fixture(const std::string& name) {
  const std::string path =
      std::string(CANELY_SOURCE_DIR) + "/tests/lint_fixtures/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Lint a fixture's content under a pretend repo path (which is what
/// decides the zones).
FileResult lint_fixture(const std::string& name,
                        const std::string& pretend_path) {
  return lint_source(pretend_path, read_fixture(name));
}

template <typename Result>
std::vector<std::string> rules_of(const Result& r) {
  std::vector<std::string> out;
  out.reserve(r.findings.size());
  for (const Finding& f : r.findings) out.push_back(f.rule);
  return out;
}

template <typename Result>
std::string dump(const Result& r) {
  std::string out;
  for (const Finding& f : r.findings) {
    out += f.file + ":" + std::to_string(f.line) + ":" + f.rule + ": " +
           f.message + "\n";
  }
  return out;
}

// --- rule table ------------------------------------------------------------

TEST(LintRules, TableListsNineteenRules) {
  EXPECT_EQ(rule_table().size(), 19U);
  EXPECT_TRUE(known_rule("no-wall-clock"));
  EXPECT_TRUE(known_rule("wire-fixed-width"));
  EXPECT_TRUE(known_rule("bad-suppression"));
  // The whole-program rules are real rules: suppressible, listable.
  EXPECT_TRUE(known_rule("hot-path-transitive"));
  EXPECT_TRUE(known_rule("determinism-escape"));
  EXPECT_TRUE(known_rule("wire-layout"));
  EXPECT_TRUE(known_rule("unused-suppression"));
  EXPECT_FALSE(known_rule("no-teleportation"));
}

// --- zone classification ---------------------------------------------------

TEST(LintClassify, DeterminismDirsWireFilesAndSkips) {
  EXPECT_TRUE(classify("src/sim/engine.cpp").flags.determinism);
  EXPECT_TRUE(classify("./src/broadcast/edcan.hpp").flags.determinism);
  EXPECT_TRUE(classify("src/net/medium.cpp").flags.determinism);
  EXPECT_TRUE(classify("src/baselines/swim.cpp").flags.determinism);
  EXPECT_FALSE(classify("src/socketcan/gateway.cpp").flags.determinism);
  EXPECT_FALSE(classify("tools/canely_lint.cpp").flags.determinism);

  EXPECT_TRUE(classify("src/can/types.hpp").flags.wire);
  EXPECT_TRUE(classify("src/canely/mid.hpp").flags.wire);
  EXPECT_TRUE(classify("src/net/types.hpp").flags.wire);
  EXPECT_FALSE(classify("src/can/bus.hpp").flags.wire);

  // The zone tables the docs and this suite are written against.
  EXPECT_EQ(determinism_dirs().size(), 14U);
  EXPECT_EQ(wire_files().size(), 4U);

  EXPECT_TRUE(classify("src/lint/lint.hpp").flags.header);
  EXPECT_FALSE(classify("src/lint/lint.cpp").flags.header);

  EXPECT_TRUE(classify("tests/lint_fixtures/no_rand_bad.cpp").skip);
  EXPECT_FALSE(classify("tests/test_lint.cpp").skip);
}

// --- determinism zone ------------------------------------------------------

TEST(LintDeterminism, NetZoneRejectsEntropyAndWallClocks) {
  // src/net/ is determinism-zoned: a medium seeded from OS entropy and
  // stamping with host time must fire; the seeded-Rng/engine-time
  // counterpart must stay silent; the same bad content outside the zone
  // is not the determinism rules' business.
  const FileResult bad =
      lint_fixture("net_determinism_bad.cpp", "src/net/fixture.cpp");
  EXPECT_EQ(rules_of(bad),
            (std::vector<std::string>{"no-rand", "no-wall-clock"}))
      << dump(bad);

  const FileResult good =
      lint_fixture("net_determinism_good.cpp", "src/net/fixture.cpp");
  EXPECT_TRUE(good.findings.empty()) << dump(good);

  const FileResult outside =
      lint_fixture("net_determinism_bad.cpp", "tools/fixture.cpp");
  EXPECT_TRUE(outside.findings.empty()) << dump(outside);
}

TEST(LintDeterminism, WallClockFiresAndStaysSilent) {
  const FileResult bad = lint_fixture("no_wall_clock_bad.cpp",
                                      "src/sim/fixture.cpp");
  EXPECT_EQ(rules_of(bad),
            (std::vector<std::string>{"no-wall-clock", "no-wall-clock"}))
      << dump(bad);

  const FileResult good = lint_fixture("no_wall_clock_good.cpp",
                                       "src/sim/fixture.cpp");
  EXPECT_TRUE(good.findings.empty()) << dump(good);
}

TEST(LintDeterminism, RandFiresAndStaysSilent) {
  const FileResult bad =
      lint_fixture("no_rand_bad.cpp", "src/sim/fixture.cpp");
  EXPECT_EQ(rules_of(bad), (std::vector<std::string>{"no-rand", "no-rand"}))
      << dump(bad);

  const FileResult good =
      lint_fixture("no_rand_good.cpp", "src/sim/fixture.cpp");
  EXPECT_TRUE(good.findings.empty()) << dump(good);
}

TEST(LintDeterminism, GetenvFiresAndStaysSilent) {
  const FileResult bad =
      lint_fixture("no_getenv_bad.cpp", "src/campaign/fixture.cpp");
  EXPECT_EQ(rules_of(bad), (std::vector<std::string>{"no-getenv"}))
      << dump(bad);

  const FileResult good =
      lint_fixture("no_getenv_good.cpp", "src/campaign/fixture.cpp");
  EXPECT_TRUE(good.findings.empty()) << dump(good);
}

TEST(LintDeterminism, UnorderedIterFiresOnDeclAndIteration) {
  const FileResult bad =
      lint_fixture("no_unordered_iter_bad.cpp", "src/check/fixture.cpp");
  // Declaration, range-for, and .begin() each get a finding.
  EXPECT_EQ(rules_of(bad),
            (std::vector<std::string>{"no-unordered-iter", "no-unordered-iter",
                                      "no-unordered-iter"}))
      << dump(bad);

  const FileResult good =
      lint_fixture("no_unordered_iter_good.cpp", "src/check/fixture.cpp");
  EXPECT_TRUE(good.findings.empty()) << dump(good);
}

TEST(LintDeterminism, PtrKeyedMapFiresAndPointerValuesAllowed) {
  const FileResult bad =
      lint_fixture("no_ptr_keyed_map_bad.cpp", "src/check/fixture.cpp");
  EXPECT_EQ(rules_of(bad), (std::vector<std::string>{"no-ptr-keyed-map"}))
      << dump(bad);

  const FileResult good =
      lint_fixture("no_ptr_keyed_map_good.cpp", "src/check/fixture.cpp");
  EXPECT_TRUE(good.findings.empty()) << dump(good);
}

TEST(LintDeterminism, SocketcanIsExempt) {
  // The same ambient-randomness content is fine under src/socketcan/ —
  // the gateway is real-time by design.
  const FileResult r =
      lint_fixture("no_rand_bad.cpp", "src/socketcan/fixture.cpp");
  EXPECT_TRUE(r.findings.empty()) << dump(r);
}

// --- hot-path zone ---------------------------------------------------------

TEST(LintHotPath, AllocFiresInsideTaggedRegionOnly) {
  const FileResult bad =
      lint_fixture("no_hot_alloc_bad.cpp", "tools/fixture.cpp");
  // The make_unique in the tagged function fires; the `new` in the
  // untagged function above it does not.
  ASSERT_EQ(rules_of(bad), (std::vector<std::string>{"no-hot-alloc"}))
      << dump(bad);
  EXPECT_NE(bad.findings[0].message.find("make_unique"), std::string::npos);

  const FileResult good =
      lint_fixture("no_hot_alloc_good.cpp", "tools/fixture.cpp");
  EXPECT_TRUE(good.findings.empty()) << dump(good);
}

TEST(LintHotPath, StdFunctionFiresAndTemplateParamDoesNot) {
  const FileResult bad =
      lint_fixture("no_hot_function_bad.cpp", "tools/fixture.cpp");
  EXPECT_EQ(rules_of(bad), (std::vector<std::string>{"no-hot-function"}))
      << dump(bad);

  const FileResult good =
      lint_fixture("no_hot_function_good.cpp", "tools/fixture.cpp");
  EXPECT_TRUE(good.findings.empty()) << dump(good);
}

TEST(LintHotPath, UnreservedPushFiresAndReserveSilences) {
  const FileResult bad =
      lint_fixture("no_hot_unreserved_push_bad.cpp", "tools/fixture.cpp");
  EXPECT_EQ(rules_of(bad),
            (std::vector<std::string>{"no-hot-unreserved-push",
                                      "no-hot-unreserved-push"}))
      << dump(bad);

  const FileResult good =
      lint_fixture("no_hot_unreserved_push_good.cpp", "tools/fixture.cpp");
  EXPECT_TRUE(good.findings.empty()) << dump(good);
}

TEST(LintHotPath, EagerTraceFiresAndLazyLambdaDoesNot) {
  const FileResult bad =
      lint_fixture("no_hot_eager_trace_bad.cpp", "tools/fixture.cpp");
  // The eager cat_str in the tagged function fires; the identical call in
  // the untagged function above it does not.
  ASSERT_EQ(rules_of(bad), (std::vector<std::string>{"no-hot-eager-trace"}))
      << dump(bad);
  EXPECT_NE(bad.findings[0].message.find("cat_str"), std::string::npos);

  const FileResult good =
      lint_fixture("no_hot_eager_trace_good.cpp", "tools/fixture.cpp");
  EXPECT_TRUE(good.findings.empty()) << dump(good);
}

TEST(LintHotPath, TagBeforeFirstBraceCoversWholeFile) {
  const FileResult r = lint_source("tools/fixture.cpp",
                                   "// canely-lint: hot-path\n"
                                   "int* f() { return new int{0}; }\n"
                                   "int* g() { return new int{1}; }\n");
  EXPECT_EQ(rules_of(r),
            (std::vector<std::string>{"no-hot-alloc", "no-hot-alloc"}))
      << dump(r);
  EXPECT_EQ(r.findings[0].line, 2);
  EXPECT_EQ(r.findings[1].line, 3);
}

TEST(LintHotPath, RulesRunRegardlessOfPathZone) {
  // Hot-path scope comes from the tag, not the path — even outside every
  // determinism directory.
  const FileResult r = lint_source("examples/fixture.cpp",
                                   "void warm() {}\n"
                                   "// canely-lint: hot-path\n"
                                   "int* f() { return new int{0}; }\n");
  EXPECT_EQ(rules_of(r), (std::vector<std::string>{"no-hot-alloc"}))
      << dump(r);
}

// --- wire zone -------------------------------------------------------------

TEST(LintWire, NonFixedWidthMembersFire) {
  const FileResult bad =
      lint_fixture("wire_fixed_width_bad.hpp", "src/can/types.hpp");
  EXPECT_EQ(rules_of(bad), (std::vector<std::string>{"wire-fixed-width",
                                                     "wire-fixed-width"}))
      << dump(bad);

  const FileResult good =
      lint_fixture("wire_fixed_width_good.hpp", "src/can/types.hpp");
  EXPECT_TRUE(good.findings.empty()) << dump(good);
}

TEST(LintWire, RuleOnlyAppliesToWireFiles) {
  // The same struct in a non-wire header only has to satisfy the
  // repo-wide rules.
  const FileResult r =
      lint_fixture("wire_fixed_width_bad.hpp", "src/can/other.hpp");
  EXPECT_TRUE(r.findings.empty()) << dump(r);
}

// --- repo-wide rules -------------------------------------------------------

TEST(LintHeader, UsingNamespaceFiresInHeadersOnly) {
  const FileResult bad = lint_fixture("using_namespace_header_bad.hpp",
                                      "src/util/fixture.hpp");
  EXPECT_EQ(rules_of(bad),
            (std::vector<std::string>{"no-using-namespace-header"}))
      << dump(bad);

  const FileResult good = lint_fixture("using_namespace_header_good.hpp",
                                       "src/util/fixture.hpp");
  EXPECT_TRUE(good.findings.empty()) << dump(good);

  // The same content under a .cpp path is not a header: no finding.
  const FileResult cpp = lint_fixture("using_namespace_header_bad.hpp",
                                      "src/util/fixture.cpp");
  EXPECT_TRUE(cpp.findings.empty()) << dump(cpp);
}

TEST(LintHeader, IncludeGuardMissingFiresAndIfndefPairCounts) {
  const FileResult bad =
      lint_fixture("include_guard_bad.hpp", "src/util/fixture.hpp");
  ASSERT_EQ(rules_of(bad), (std::vector<std::string>{"include-guard"}))
      << dump(bad);
  EXPECT_EQ(bad.findings[0].line, 1);

  const FileResult good =
      lint_fixture("include_guard_good.hpp", "src/util/fixture.hpp");
  EXPECT_TRUE(good.findings.empty()) << dump(good);
}

TEST(LintTodo, TodoWithoutIssueFiresWithIssueDoesNot) {
  const FileResult bad =
      lint_fixture("todo_issue_bad.cpp", "tools/fixture.cpp");
  EXPECT_EQ(rules_of(bad),
            (std::vector<std::string>{"todo-issue", "todo-issue"}))
      << dump(bad);

  const FileResult good =
      lint_fixture("todo_issue_good.cpp", "tools/fixture.cpp");
  EXPECT_TRUE(good.findings.empty()) << dump(good);
}

// --- suppressions ----------------------------------------------------------

TEST(LintSuppress, AllowWithReasonSilencesNextLine) {
  const FileResult r =
      lint_fixture("suppression_ok.cpp", "src/sim/fixture.cpp");
  EXPECT_TRUE(r.findings.empty()) << dump(r);
  EXPECT_EQ(r.suppressed, 1U);
}

TEST(LintSuppress, AllowOnTheFindingLineWorksToo) {
  const FileResult r = lint_source(
      "src/sim/fixture.cpp",
      "int j() { return rand(); }  "
      "// canely-lint: allow(no-rand) - same-line suppression\n");
  EXPECT_TRUE(r.findings.empty()) << dump(r);
  EXPECT_EQ(r.suppressed, 1U);
}

TEST(LintSuppress, MissingReasonIsAFindingAndDoesNotSuppress) {
  const FileResult r =
      lint_fixture("suppression_missing_reason.cpp", "src/sim/fixture.cpp");
  EXPECT_EQ(rules_of(r),
            (std::vector<std::string>{"bad-suppression", "no-rand"}))
      << dump(r);
  EXPECT_EQ(r.suppressed, 0U);
}

TEST(LintSuppress, UnknownRuleInvalidatesTheWholeDirective) {
  const FileResult r =
      lint_fixture("suppression_unknown_rule.cpp", "src/sim/fixture.cpp");
  EXPECT_EQ(rules_of(r),
            (std::vector<std::string>{"unknown-rule", "no-rand"}))
      << dump(r);
  EXPECT_EQ(r.suppressed, 0U);
}

TEST(LintSuppress, ProseMentioningTheGrammarIsNotADirective) {
  const FileResult r = lint_source(
      "src/sim/fixture.cpp",
      "// See DESIGN.md for canely-lint: allow(no-rand) - grammar docs.\n"
      "int j() { return rand(); }\n");
  // No bad-suppression for the prose, and the rand() is NOT suppressed.
  EXPECT_EQ(rules_of(r), (std::vector<std::string>{"no-rand"})) << dump(r);
}

TEST(LintSuppress, SuppressionFindingsCannotBeSelfSilenced) {
  const FileResult r = lint_source(
      "src/sim/fixture.cpp",
      "// canely-lint: allow(bad-suppression) - pre-silence the next line\n"
      "// canely-lint: allow(no-rand)\n");
  EXPECT_EQ(rules_of(r), (std::vector<std::string>{"bad-suppression"}))
      << dump(r);
}

// --- output formats --------------------------------------------------------

TEST(LintOutput, TextFormatIsFileLineRuleMessage) {
  RunResult r;
  r.findings.push_back(
      Finding{"src/sim/a.cpp", 7, "no-rand", "ambient randomness", {}});
  r.files = 3;
  r.suppressed = 2;
  EXPECT_EQ(to_text(r),
            "src/sim/a.cpp:7:no-rand: ambient randomness\n"
            "canely_lint: 1 finding (2 suppressed) in 3 files\n");
}

TEST(LintOutput, JsonCarriesSchemaAndEscapes) {
  RunResult r;
  r.findings.push_back(
      Finding{"src/sim/a.cpp", 7, "no-rand", "say \"no\"", {}});
  r.files = 1;
  EXPECT_EQ(to_json(r),
            "{\"schema\":\"canely-lint-1\",\"files\":1,\"suppressed\":0,"
            "\"findings\":[{\"file\":\"src/sim/a.cpp\",\"line\":7,"
            "\"rule\":\"no-rand\",\"message\":\"say \\\"no\\\"\"}]}\n");
}

TEST(LintOutput, WholeProgramFormatsCarryChainAndGraphStats) {
  RunResult r;
  r.whole_program = true;
  r.findings.push_back(Finding{"src/sim/a.cpp", 7, "hot-path-transitive",
                               "reached from hot region",
                               {"a.cpp:f", "b.cpp:g"}});
  r.files = 2;
  r.functions = 5;
  r.edges = 4;
  r.baselined = 1;
  EXPECT_EQ(to_text(r),
            "src/sim/a.cpp:7:hot-path-transitive: reached from hot region\n"
            "    call chain: a.cpp:f → b.cpp:g\n"
            "canely_lint: 1 finding (0 suppressed, 1 baselined) in 2 files; "
            "call graph: 5 functions, 4 edges\n");
  const std::string j = to_json(r);
  EXPECT_NE(j.find("\"schema\":\"canely-lint-2\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"functions\":5"), std::string::npos) << j;
  EXPECT_NE(j.find("\"chain\":[\"a.cpp:f\",\"b.cpp:g\"]"), std::string::npos)
      << j;
}

// --- whole-program analyses ------------------------------------------------

Options wp_opts() {
  Options o;
  o.whole_program = true;
  return o;
}

std::vector<SourceFile> hot_pair(const std::string& callee_fixture) {
  return {{"src/fix/pump.cpp", read_fixture("wp_hot_caller.cpp")},
          {"src/fix/dispatch.cpp", read_fixture(callee_fixture)}};
}

std::vector<SourceFile> escape_pair(const std::string& caller_fixture) {
  return {{"src/sim/sample.cpp", read_fixture(caller_fixture)},
          {"tools/esc_util.cpp", read_fixture("wp_escape_util.cpp")}};
}

TEST(LintWholeProgram, HotPathPropagatesAcrossFiles) {
  const RunResult bad = lint_sources(hot_pair("wp_hot_callee_bad.cpp"),
                                     wp_opts());
  ASSERT_EQ(rules_of(bad), (std::vector<std::string>{"hot-path-transitive"}))
      << dump(bad);
  // The finding lands on the callee TU, with a caller → callee witness.
  EXPECT_EQ(bad.findings[0].file, "src/fix/dispatch.cpp");
  ASSERT_EQ(bad.findings[0].chain.size(), 2U);
  EXPECT_EQ(bad.findings[0].chain[0], "pump.cpp:wp::pump");
  EXPECT_EQ(bad.findings[0].chain[1], "dispatch.cpp:wp::dispatch");
  EXPECT_NE(bad.findings[0].message.find("push_back"), std::string::npos);

  const RunResult good = lint_sources(hot_pair("wp_hot_callee_good.cpp"),
                                      wp_opts());
  EXPECT_TRUE(good.findings.empty()) << dump(good);
  EXPECT_GE(good.functions, 2U);
  EXPECT_GE(good.edges, 1U);
}

TEST(LintWholeProgram, DeterminismEscapeConvictsAndAnnotationSilences) {
  const RunResult bad = lint_sources(escape_pair("wp_escape_caller_bad.cpp"),
                                     wp_opts());
  ASSERT_EQ(rules_of(bad), (std::vector<std::string>{"determinism-escape"}))
      << dump(bad);
  // The finding lands on the determinism-zone caller and names the sink.
  EXPECT_EQ(bad.findings[0].file, "src/sim/sample.cpp");
  EXPECT_NE(bad.findings[0].message.find("rand"), std::string::npos);
  ASSERT_EQ(bad.findings[0].chain.size(), 2U);
  EXPECT_EQ(bad.findings[0].chain[0], "sample.cpp:esc::sample");
  EXPECT_EQ(bad.findings[0].chain[1], "esc_util.cpp:esc::entropy_word");

  const RunResult good = lint_sources(
      escape_pair("wp_escape_caller_good.cpp"), wp_opts());
  EXPECT_TRUE(good.findings.empty()) << dump(good);
}

TEST(LintWholeProgram, ObsClockEscapeConvictsAndSeamAnnotationSilences) {
  // src/obs is a determinism zone, so a wall-clock use there is legal
  // only through a `nondeterministic-ok` seam.  The bad twin models an
  // unannotated sampler calling a clock helper in a non-zone TU.
  const auto pair = [](const std::string& caller_fixture) {
    return std::vector<SourceFile>{
        {"src/obs/sampler.cpp", read_fixture(caller_fixture)},
        {"tools/obs_clock_util.cpp", read_fixture("wp_obs_clock_util.cpp")}};
  };
  const RunResult bad = lint_sources(pair("wp_obs_clock_bad.cpp"), wp_opts());
  ASSERT_EQ(rules_of(bad), (std::vector<std::string>{"determinism-escape"}))
      << dump(bad);
  EXPECT_EQ(bad.findings[0].file, "src/obs/sampler.cpp");
  EXPECT_NE(bad.findings[0].message.find("steady_clock"), std::string::npos)
      << bad.findings[0].message;
  ASSERT_EQ(bad.findings[0].chain.size(), 2U);
  EXPECT_EQ(bad.findings[0].chain[0], "sampler.cpp:obsclock::sample_stamp");
  EXPECT_EQ(bad.findings[0].chain[1],
            "obs_clock_util.cpp:obsclock::wall_ns");

  const RunResult good =
      lint_sources(pair("wp_obs_clock_good.cpp"), wp_opts());
  EXPECT_TRUE(good.findings.empty()) << dump(good);
}

TEST(LintWholeProgram, WireLayoutResolvesAliasesAcrossFiles) {
  // SeqNo / kWords live in a different TU than the struct: only the
  // merged type tables can size Packet.
  const RunResult bad = lint_sources(
      {{"src/can/types.hpp", read_fixture("wp_wire_types.hpp")},
       {"src/canely/mid.hpp", read_fixture("wp_wire_layout_bad.hpp")}},
      wp_opts());
  ASSERT_EQ(rules_of(bad), (std::vector<std::string>{"wire-layout"}))
      << dump(bad);
  EXPECT_EQ(bad.findings[0].file, "src/canely/mid.hpp");
  EXPECT_NE(bad.findings[0].message.find("implicit padding"),
            std::string::npos);
  EXPECT_NE(bad.findings[0].message.find("would save"), std::string::npos);

  const RunResult good = lint_sources(
      {{"src/can/types.hpp", read_fixture("wp_wire_types.hpp")},
       {"src/canely/mid.hpp", read_fixture("wp_wire_layout_good.hpp")}},
      wp_opts());
  EXPECT_TRUE(good.findings.empty()) << dump(good);
}

TEST(LintWholeProgram, UnusedSuppressionFiresOnlyUnderWholeProgram) {
  const std::string content = read_fixture("wp_unused_suppression.cpp");
  const RunResult wp =
      lint_sources({{"src/fix/unused.cpp", content}}, wp_opts());
  ASSERT_EQ(rules_of(wp), (std::vector<std::string>{"unused-suppression"}))
      << dump(wp);

  // The per-file pass tolerates the same stale allow().
  const FileResult pf = lint_source("src/fix/unused.cpp", content);
  EXPECT_TRUE(pf.findings.empty()) << dump(pf);
}

// --- --diff baseline mode --------------------------------------------------

TEST(LintDiff, BaselineHidesOldFindingsAndReportsNewOnes) {
  const std::vector<SourceFile> base =
      escape_pair("wp_escape_caller_bad.cpp");
  const RunResult first = lint_sources(base, wp_opts());
  ASSERT_EQ(rules_of(first),
            (std::vector<std::string>{"determinism-escape"}))
      << dump(first);

  const std::string baseline_path =
      (std::filesystem::temp_directory_path() /
       "canely_lint_test_baseline.json")
          .string();
  {
    std::ofstream out(baseline_path, std::ios::binary);
    out << to_json(first);
  }

  Options diff = wp_opts();
  diff.diff_baseline = baseline_path;
  // Same tree against its own baseline: nothing new.
  const RunResult same = lint_sources(base, diff);
  EXPECT_TRUE(same.findings.empty()) << dump(same);
  EXPECT_EQ(same.baselined, 1U);

  // A freshly introduced violation is the only thing reported.
  std::vector<SourceFile> grown = base;
  for (SourceFile& sf : hot_pair("wp_hot_callee_bad.cpp")) {
    grown.push_back(std::move(sf));
  }
  const RunResult next = lint_sources(grown, diff);
  EXPECT_EQ(rules_of(next),
            (std::vector<std::string>{"hot-path-transitive"}))
      << dump(next);
  EXPECT_EQ(next.baselined, 1U);
  std::filesystem::remove(baseline_path);
}

TEST(LintDiff, MissingBaselineSurfacesAsError) {
  Options diff = wp_opts();
  diff.diff_baseline = "no/such/baseline.json";
  const RunResult r =
      lint_sources(escape_pair("wp_escape_caller_bad.cpp"), diff);
  ASSERT_FALSE(r.findings.empty());
  EXPECT_EQ(r.findings[0].rule, "bad-suppression");
}

// --- index artifact --------------------------------------------------------

TEST(LintIndex, JsonRoundTripIsByteStable) {
  const FileIndex fi =
      build_index("src/fix/pump.cpp", read_fixture("wp_hot_caller.cpp"));
  // pump is defined (dispatch is only declared) and sits in the tagged
  // hot region with one recorded call site.
  ASSERT_EQ(fi.functions.size(), 1U);
  EXPECT_EQ(fi.functions[0].name, "wp::pump");
  EXPECT_TRUE(fi.functions[0].hot);
  ASSERT_EQ(fi.functions[0].calls.size(), 1U);
  EXPECT_EQ(fi.functions[0].calls[0].name, "dispatch");

  const std::string j1 = index_to_json(fi);
  EXPECT_NE(j1.find("canely-lint-index-1"), std::string::npos);
  FileIndex back;
  std::string err;
  ASSERT_TRUE(index_from_json(j1, back, err)) << err;
  EXPECT_EQ(index_to_json(back), j1);
}

// --- tree walking ----------------------------------------------------------

TEST(LintPaths, MissingPathIsAnError) {
  RunResult r;
  std::string err;
  EXPECT_FALSE(lint_paths(CANELY_SOURCE_DIR, {"no/such/dir"}, r, err));
  EXPECT_NE(err.find("no such file"), std::string::npos) << err;
}

// Meta-test: the real tree must lint clean — every rule silent or
// explicitly suppressed with a reason.  This is the same invocation
// `tools/ci.sh lint` makes.
TEST(LintMeta, RepositoryLintsClean) {
  RunResult r;
  std::string err;
  const bool ok = lint_paths(CANELY_SOURCE_DIR,
                             {"src", "tests", "bench", "examples"}, r, err);
  ASSERT_TRUE(ok) << err;
  EXPECT_GT(r.files, 100U);  // sanity: the walk actually found the tree
  EXPECT_TRUE(r.findings.empty()) << to_text(r);
}

// And under the whole-program pass: every transitive conviction either
// fixed or suppressed/annotated with a reason, no stale suppressions.
TEST(LintMeta, RepositoryLintsCleanWholeProgram) {
  RunResult r;
  std::string err;
  const bool ok =
      lint_paths(CANELY_SOURCE_DIR, {"src", "tests", "bench", "examples"},
                 wp_opts(), r, err);
  ASSERT_TRUE(ok) << err;
  EXPECT_GT(r.files, 100U);
  // The graph must actually cover the tree: every function definition is
  // a node (the determinism zone alone defines several hundred).
  EXPECT_GT(r.functions, 500U);
  EXPECT_GT(r.edges, 1000U);
  EXPECT_TRUE(r.findings.empty()) << to_text(r);
}

// Byte-stability contract: the report is identical run-to-run and at any
// --threads count (sorted file order fixes node ids and finding order).
TEST(LintMeta, WholeProgramReportByteStableAcrossThreads) {
  Options one = wp_opts();
  Options four = wp_opts();
  four.threads = 4;
  RunResult r1;
  RunResult r4;
  std::string e1;
  std::string e4;
  ASSERT_TRUE(lint_paths(CANELY_SOURCE_DIR, {"src"}, one, r1, e1)) << e1;
  ASSERT_TRUE(lint_paths(CANELY_SOURCE_DIR, {"src"}, four, r4, e4)) << e4;
  EXPECT_EQ(to_json(r1), to_json(r4));
  EXPECT_EQ(to_text(r1), to_text(r4));
}

}  // namespace
}  // namespace canely::lint
