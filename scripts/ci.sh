#!/usr/bin/env bash
# ci.sh — run the four ROADMAP verification presets end to end and
# print a pass/fail table. Exit status is non-zero if any preset fails.
#
#   tier-1      full ctest suite, default toolchain flags
#   tsan        ThreadSanitizer build; the parallel/service/sections
#               harnesses plus the smoke benches
#   asan-ubsan  combined ASan+UBSan build, UBSan fatal; checker, dataflow,
#               engine and JSON/service tests
#   perfbench   perfbench/selftest.py: builds the benchmark program from
#               this tree into .bench_build/ and runs every workload at
#               tiny sizes, so an API change that breaks it fails here
#
# Usage: scripts/ci.sh [preset ...]     (default: all four)
# Environment: FERRUM_CI_JOBS overrides the build/test parallelism.
set -u

cd "$(dirname "$0")/.."
JOBS="${FERRUM_CI_JOBS:-$(nproc 2>/dev/null || echo 2)}"

# Preset table: name | build dir | extra cmake args | ctest args.
# The regexes mirror ROADMAP.md verbatim — update both together.
TSAN_TESTS='bench_smoke|check_smoke|prune_smoke|test_parallel|test_sections|service_smoke'
ASAN_TESTS='test_check|test_engine|test_prune|test_vm|test_vm_flags|test_timing|test_goldens|test_flow|test_sections|test_telemetry|test_service'

preset_cmake_args() {
  case "$1" in
    # tier-1 exports compile_commands.json for the clang-tidy stage.
    tier-1) echo "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON" ;;
    tsan) echo "-DFERRUM_SANITIZE=thread" ;;
    asan-ubsan) echo "-DFERRUM_SANITIZE=address" ;;
  esac
}

preset_build_dir() {
  case "$1" in
    tier-1) echo "build" ;;
    tsan) echo "build-tsan" ;;
    asan-ubsan) echo "build-asan" ;;
    perfbench) echo ".bench_build" ;;
  esac
}

preset_ctest_args() {
  case "$1" in
    tier-1) echo "" ;;
    tsan) echo "-R $TSAN_TESTS" ;;
    asan-ubsan) echo "-R $ASAN_TESTS" ;;
  esac
}

run_preset() {
  local name="$1"
  local dir log args
  dir="$(preset_build_dir "$name")"
  args="$(preset_cmake_args "$name")"
  log="$dir/ci-$name.log"
  echo "==> preset $name (build dir: $dir)"
  # The log lives in the build dir, which a fresh checkout lacks.
  mkdir -p "$dir"
  if [ "$name" = perfbench ]; then
    if ! python3 perfbench/selftest.py >"$log" 2>&1; then
      echo "    selftest FAILED (see $log)"
      return 1
    fi
    return 0
  fi
  # shellcheck disable=SC2086 — args is a deliberate word list
  if ! cmake -B "$dir" -S . $args >"$log" 2>&1; then
    echo "    configure FAILED (see $log)"
    return 1
  fi
  if ! cmake --build "$dir" -j "$JOBS" >>"$log" 2>&1; then
    echo "    build FAILED (see $log)"
    return 1
  fi
  # shellcheck disable=SC2086
  if ! ctest --test-dir "$dir" $(preset_ctest_args "$name") \
       --output-on-failure -j "$JOBS" >>"$log" 2>&1; then
    echo "    tests FAILED (see $log)"
    return 1
  fi
  return 0
}

PRESETS=("$@")
[ ${#PRESETS[@]} -eq 0 ] && PRESETS=(tier-1 tsan asan-ubsan perfbench)

declare -A STATUS SECONDS_BY
overall=0
for preset in "${PRESETS[@]}"; do
  if [ -z "$(preset_build_dir "$preset")" ]; then
    echo "unknown preset '$preset'" \
      "(want: tier-1 tsan asan-ubsan perfbench)" >&2
    exit 2
  fi
  start=$(date +%s)
  if run_preset "$preset"; then
    STATUS[$preset]=PASS
  else
    STATUS[$preset]=FAIL
    overall=1
  fi
  SECONDS_BY[$preset]=$(( $(date +%s) - start ))
done

# Warn-only clang-tidy stage: bugprone-* / performance-* /
# concurrency-* over the sources, driven by the compile_commands.json
# the tier-1 configure exports and the committed .clang-tidy profile
# (check list and suppressions live there). Informational like the
# bench tripwire below — findings print but never affect the exit
# status, and the stage is skipped when clang-tidy is not installed.
for preset in "${PRESETS[@]}"; do
  if [ "$preset" = tier-1 ] && [ "${STATUS[$preset]}" = PASS ]; then
    if command -v clang-tidy >/dev/null 2>&1 \
       && [ -f "$(preset_build_dir tier-1)/compile_commands.json" ]; then
      echo
      echo "==> clang-tidy (warn-only; profile: .clang-tidy)"
      find src bench tests examples -name '*.cpp' -print0 \
        | xargs -0 -P "$JOBS" -n 8 clang-tidy \
            -p "$(preset_build_dir tier-1)" --quiet 2>/dev/null || true
    else
      echo
      echo "==> clang-tidy not installed; skipping the warn-only lint stage"
    fi
  fi
done

# Warn-only throughput tripwire: diff the bench artifacts the tier-1
# bench_smoke run left in the build tree against the committed
# baselines. Never affects the exit status — wallclock numbers are
# machine-dependent by design (see scripts/bench_diff.py).
for preset in "${PRESETS[@]}"; do
  if [ "$preset" = tier-1 ] && [ "${STATUS[$preset]}" = PASS ] \
     && command -v python3 >/dev/null 2>&1; then
    echo
    python3 scripts/bench_diff.py \
      --bench-dir "$(preset_build_dir tier-1)/bench/bench_smoke_out" || true
  fi
done

echo
printf '%-12s %-6s %8s\n' preset result seconds
printf '%-12s %-6s %8s\n' ------------ ------ --------
for preset in "${PRESETS[@]}"; do
  printf '%-12s %-6s %8s\n' "$preset" "${STATUS[$preset]}" \
    "${SECONDS_BY[$preset]}"
done
exit "$overall"
