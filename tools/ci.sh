#!/usr/bin/env bash
# CI driver: the checks a change must pass before merging.
#
#   tools/ci.sh            run every stage
#   tools/ci.sh tier1      strict build (CANELY_WERROR=ON) + full ctest
#   tools/ci.sh asan       AddressSanitizer + UBSan build, full ctest
#   tools/ci.sh ubsan      UBSan-only build (catches UB that ASan's
#                          shadow memory hides or alters), full ctest
#   tools/ci.sh tsan       ThreadSanitizer build, campaign-runner and
#                          record-mode explorer tests (the only code that
#                          spawns threads) + benches and the depth-2
#                          explorer smoke at --threads 4
#   tools/ci.sh bench      the repository benchmark (benchmark/run.py
#                          --quick, its own Release build): every golden
#                          output and per-window work count must match
#   tools/ci.sh check      Release build of the checker (src/check);
#                          check_explorer --quick must come back clean and
#                          byte-identical across thread counts
#   tools/ci.sh shootout   Release build of bench/membership_shootout;
#                          the --quick grid (4 protocols x n=8,32) must
#                          converge on every cell, emit a structurally
#                          valid trajectory, and be byte-identical across
#                          thread counts
#   tools/ci.sh lint       build canely_lint and run it over src/, tests/,
#                          bench/ and examples/ (zero unsuppressed findings
#                          required; see DESIGN.md §10), then run-clang-tidy
#                          against the exported compile database when
#                          clang-tidy is installed
#
# Each stage uses its own build tree under build-ci/ (bench: run.py's own
# benchmark/out/build) so the stages never poison each other's CMake
# caches or object files.

set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$PWD"
JOBS="$(nproc 2>/dev/null || echo 4)"

configure_build_test() {
  local dir="$1" ctest_args="$2"
  shift 2
  cmake -S "$ROOT" -B "$dir" -DCANELY_WERROR=ON "$@" >/dev/null
  cmake --build "$dir" -j "$JOBS"
  (cd "$dir" && eval ctest --output-on-failure -j "$JOBS" "$ctest_args")
}

stage_tier1() {
  echo "=== tier1: -Werror build + full test suite ==="
  configure_build_test build-ci/tier1 ""
}

stage_asan() {
  echo "=== asan: AddressSanitizer + UBSan, full test suite ==="
  configure_build_test build-ci/asan "" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
}

stage_tsan() {
  echo "=== tsan: ThreadSanitizer over the campaign thread pool ==="
  local dir=build-ci/tsan
  cmake -S "$ROOT" -B "$dir" -DCANELY_WERROR=ON \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread" >/dev/null
  # Only the campaign runner spawns threads; build and exercise exactly
  # the targets that drive its pool, rather than the whole (serial) suite.
  # The record-mode explorer (frontier tests, depth-2 smoke) is the
  # engine behind the benchmark's 2-thread explore_d2 workload.
  cmake --build "$dir" -j "$JOBS" --target \
    test_campaign test_frontier fault_campaign fig10_bandwidth \
    ablation_heartbeat ablation_cycle_skip ablation_fda check_explorer
  "$dir/tests/test_campaign"
  "$dir/tests/test_frontier"
  for bench in fault_campaign fig10_bandwidth ablation_heartbeat \
               ablation_cycle_skip ablation_fda; do
    echo "--- tsan: $bench --threads 4 ---"
    "$dir/bench/$bench" --threads 4 --no-json >/dev/null
  done
  echo "--- tsan: check_explorer depth-2 smoke --threads 4 ---"
  "$dir/bench/check_explorer" --exhaustive --max-frames 8 \
    --max-victim-sets 4 --max-bases 8 --targets 2 --no-shrink \
    --threads 4 >/dev/null
}

stage_ubsan() {
  echo "=== ubsan: UndefinedBehaviorSanitizer alone, full test suite ==="
  configure_build_test build-ci/ubsan "" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=undefined -fno-sanitize-recover=all"
}

stage_bench() {
  echo "=== bench: benchmark/run.py --quick, goldens + work counts ==="
  python3 "$ROOT/benchmark/run.py" --quick
}

stage_check() {
  echo "=== check: explorer smoke + thread-count byte-identity ==="
  local dir=build-ci/check
  cmake -S "$ROOT" -B "$dir" -DCANELY_WERROR=ON \
    -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$dir" -j "$JOBS" --target check_explorer
  local out1 out4
  out1="$("$dir/bench/check_explorer" --quick --threads 1)"
  out4="$("$dir/bench/check_explorer" --quick --threads 4)"
  echo "$out4"
  local h1 h4
  h1="$(echo "$out1" | grep 'aggregate hash')"
  h4="$(echo "$out4" | grep 'aggregate hash')"
  if [ "$h1" != "$h4" ]; then
    echo "check: aggregate hash differs between thread counts:" >&2
    echo "  threads 1: $h1" >&2
    echo "  threads 4: $h4" >&2
    exit 1
  fi
  echo "check: --quick clean, aggregate byte-identical for 1 and 4 threads"

  # Depth-2 exhaustive smoke: a tightly budgeted cross product must
  # complete, and two shards merged must be byte-identical to the
  # unsharded frontier — the scale engine's sharding contract.
  local fdir=build-ci/check/frontiers
  rm -rf "$fdir" && mkdir -p "$fdir"
  local caps="--exhaustive --max-frames 8 --max-victim-sets 4 \
              --max-bases 8 --targets 2 --no-shrink"
  # shellcheck disable=SC2086
  "$dir/bench/check_explorer" $caps --frontier "$fdir/all.json" \
    --threads 4 >/dev/null
  # shellcheck disable=SC2086
  "$dir/bench/check_explorer" $caps --shard 0/2 \
    --frontier "$fdir/s0.json" --threads 1 >/dev/null
  # shellcheck disable=SC2086
  "$dir/bench/check_explorer" $caps --shard 1/2 \
    --frontier "$fdir/s1.json" --threads 4 >/dev/null
  "$dir/bench/check_explorer" --merge "$fdir/merged.json" \
    "$fdir/s0.json" "$fdir/s1.json" >/dev/null
  if ! cmp -s "$fdir/all.json" "$fdir/merged.json"; then
    echo "check: merged shard frontier differs from the unsharded run" >&2
    exit 1
  fi
  echo "check: depth-2 exhaustive smoke ok, shard union byte-identical"
}

stage_shootout() {
  echo "=== shootout: membership baselines smoke + thread byte-identity ==="
  local dir=build-ci/shootout
  cmake -S "$ROOT" -B "$dir" -DCANELY_WERROR=ON \
    -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$dir" -j "$JOBS" --target membership_shootout
  local j1=build-ci/shootout/shootout_t1.json
  local j4=build-ci/shootout/shootout_t4.json
  # The bench exits nonzero itself if any cell fails to re-converge.
  "$dir/bench/membership_shootout" --quick --threads 1 --json "$j1" >/dev/null
  "$dir/bench/membership_shootout" --quick --threads 4 --json "$j4"
  if ! cmp -s "$j1" "$j4"; then
    echo "shootout: trajectory differs between thread counts" >&2
    exit 1
  fi
  # Structural validation: every protocol x n cell present, converged,
  # with plausible curve points (positive bandwidth, nonnegative
  # detection latency, no false positives at these loss rates).
  python3 - "$j4" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "membership_shootout", doc.get("bench")

cells = {(int(c["params"]["protocol"]), int(c["params"]["nodes"])): c["metrics"]
         for c in doc["cells"]}
protos = {0: "canely", 1: "swim", 2: "gossip", 3: "rapid"}
expected = [(p, n) for p in protos for n in (8, 32)]
missing = [k for k in expected if k not in cells]
assert not missing, f"missing cells: {missing}"
for (p, n), m in sorted(cells.items()):
    name = f"{protos[p]}:{n}"
    assert m["converged"] == 1, f"{name}: survivors never re-agreed"
    assert m["measured"] == 1, f"{name}: quick cells must all be measured"
    assert m["detection_first_ms"] > 0, f"{name}: no detection recorded"
    assert m["detection_last_ms"] >= m["detection_first_ms"], name
    assert m["bytes_per_node_s"] > 0, f"{name}: zero protocol traffic"
    assert m["false_positives"] == 0, f"{name}: false positives"
    assert m["view_changes"] >= n - 1, f"{name}: too few view changes"
print(f"shootout: {len(cells)} cells converged, curves well-formed, "
      "byte-identical across thread counts")
EOF
}

stage_obs() {
  echo "=== obs: scenario trace export, structural + loss validation ==="
  local dir=build-ci/obs
  cmake -S "$ROOT" -B "$dir" -DCANELY_WERROR=ON \
    -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$dir" -j "$JOBS" --target canely_scenario_tool
  local trace=build-ci/obs/trace_crash_detection.json
  "$dir/tools/canely_scenario" --trace-out="$trace" \
    "$ROOT/scenarios/crash_detection.scn"
  # The exported timeline must parse as Chrome trace_event JSON, keep
  # every B/E duration pair balanced per track, carry the §6.3 metrics
  # with nonzero values, and record zero drops at the default ring size.
  python3 - "$trace" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

events = doc["traceEvents"]
assert events, "empty traceEvents"

stacks = {}
async_open = {}
last_ts = {}
for ev in events:
    ph = ev["ph"]
    if ph == "M":
        continue
    track = (ev["pid"], ev["tid"])
    ts = ev["ts"]
    assert last_ts.get(track, -1e18) <= ts, f"ts not monotone on {track}"
    last_ts[track] = ts
    if ph == "B":
        stacks.setdefault(track, []).append(ev["name"])
    elif ph == "E":
        stack = stacks.get(track)
        assert stack, f"E without B on {track}"
        stack.pop()
    elif ph == "b":
        async_open[(ev["cat"], ev["id"])] = ev["name"]
    elif ph == "e":
        assert (ev["cat"], ev["id"]) in async_open, "e without b"
        del async_open[(ev["cat"], ev["id"])]
leftover = {t: s for t, s in stacks.items() if s}
assert not leftover, f"unbalanced duration events: {leftover}"

other = doc["otherData"]
assert other["dropped_events"] == 0, \
    f"{other['dropped_events']} events dropped at default ring size"

counters = doc["metrics"]["counters"]
for name in ("els.frames_sent", "heartbeat.implicit"):
    total = counters[name]["total"] if isinstance(counters[name], dict) \
        else counters[name]
    assert total > 0, f"{name} is zero"
detect = doc["metrics"]["histograms"]["fd.detection_latency_us"]
assert detect["count"] > 0, "no detection-latency samples"
print(f"obs: {len(events)} trace events, spans balanced, 0 dropped, "
      f"detection latency max {detect['max']} us over "
      f"{detect['count']} samples")
EOF
}

stage_lint() {
  echo "=== lint: canely_lint whole-program + clang-tidy (when available) ==="
  local dir=build-ci/lint
  cmake -S "$ROOT" -B "$dir" -DCANELY_WERROR=ON \
    -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$dir" -j "$JOBS" --target canely_lint_tool
  # Whole-program pass with a per-file index cache (keyed on content
  # hash).  Two runs — the second entirely cache-served — must produce
  # byte-identical reports; exit codes are checked by the diff gate
  # below, not here.
  local cache="$dir/lint-index-cache"
  mkdir -p "$cache"
  local r1="$dir/lint_run1.json" r2="$dir/lint_run2.json"
  "$dir/tools/canely_lint" --root "$ROOT" --whole-program \
    --threads "$JOBS" --index-cache "$cache" --json \
    src tests bench examples tools >"$r1" || true
  "$dir/tools/canely_lint" --root "$ROOT" --whole-program \
    --threads "$JOBS" --index-cache "$cache" --json \
    src tests bench examples tools >"$r2" || true
  if ! cmp -s "$r1" "$r2"; then
    echo "lint: report not byte-stable across cached re-run" >&2
    exit 1
  fi
  # Diff gate: only findings NOT in the committed baseline fail the
  # stage.  The baseline is regenerated with
  #   canely_lint --whole-program --json src tests bench examples tools \
  #     > tools/lint_baseline.json
  # and reviewed like any other diff.
  "$dir/tools/canely_lint" --root "$ROOT" --whole-program \
    --threads "$JOBS" --index-cache "$cache" \
    --diff "$ROOT/tools/lint_baseline.json" \
    src tests bench examples tools
  # clang-tidy runs the generic AST-level checks (.clang-tidy at the repo
  # root) against the compile database the configure step exported.  The
  # default toolchain here is GCC-only, so absence is a skip, not a failure.
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -quiet -p "$dir" "$ROOT/src/.*\.cpp"
  elif command -v clang-tidy >/dev/null 2>&1; then
    find "$ROOT/src" -name '*.cpp' -print0 |
      xargs -0 clang-tidy -quiet -p "$dir"
  else
    echo "lint: clang-tidy not installed; skipping the AST-level pass"
  fi
}

main() {
  local stages=("$@")
  if [ ${#stages[@]} -eq 0 ]; then
    stages=(lint tier1 asan ubsan tsan bench check shootout obs)
  fi
  for s in "${stages[@]}"; do
    case "$s" in
      tier1) stage_tier1 ;;
      asan) stage_asan ;;
      ubsan) stage_ubsan ;;
      tsan) stage_tsan ;;
      bench) stage_bench ;;
      check) stage_check ;;
      shootout) stage_shootout ;;
      obs) stage_obs ;;
      lint) stage_lint ;;
      *)
        echo "unknown stage: $s (expected lint, tier1, asan, ubsan, tsan," \
             "bench, check, shootout, or obs)" >&2
        exit 2
        ;;
    esac
  done
  echo "=== ci: all stages passed ==="
}

main "$@"
