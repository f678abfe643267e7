#!/bin/sh
# Build, test, and regenerate every experiment (see EXPERIMENTS.md).
set -e
cd "$(dirname "$0")/.."
# The tree builds warning-free; keep it that way by failing on any new
# warning in the main build.
cmake -B build -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build build -j "$(nproc)"
# The whole suite once per host execution tier (VVAX_EXEC_TIER,
# docs/ARCHITECTURE.md §5c): the lockstep digests must hold whether
# code retires through the reference interpreter, the fast path alone
# or superblocks and the threaded driver.  The reference pass also
# proves that a test pinning a tier with Cpu::setExecTier gets that
# tier whatever the environment picked.
for tier in ref fast threaded; do
    echo "=== ctest: VVAX_EXEC_TIER=$tier"
    env VVAX_EXEC_TIER="$tier" \
        ctest --test-dir build >"test_output_$tier.txt" 2>&1 ||
        { cat "test_output_$tier.txt"; exit 1; }
    tail -n 3 "test_output_$tier.txt"
done
cp "test_output_threaded.txt" test_output.txt

# The whole suite again under ASan+UBSan: fast-path, superblock, and
# trace-link machinery dereferences raw host page pointers and cached
# Block*/Tlb::Entry* records, so memory bugs must abort loudly here
# instead of corrupting the lockstep digests.  halt_on_error turns
# any UBSan diagnostic into a test failure (matching
# -fno-sanitize-recover) and the stack traces make one-shot CI logs
# actionable.
SAN_ENV="ASAN_OPTIONS=detect_stack_use_after_return=1 \
UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1"
cmake -B build-asan -DVVAX_SANITIZE=ON
cmake --build build-asan -j "$(nproc)"
env $SAN_ENV ctest --test-dir build-asan >test_asan_output.txt 2>&1 ||
    { cat test_asan_output.txt; exit 1; }
tail -n 3 test_asan_output.txt

# The threaded subsystems (hypervisor fleet worker pool, cross-thread
# console mailbox) again under ThreadSanitizer:
# the determinism contract rests on the documented ownership rules
# (docs/ARCHITECTURE.md §7), so data races must be proven absent, not
# assumed.  Only the threaded suites run here - TSan on the full
# single-threaded suite costs minutes and can find nothing the ASan
# tree didn't.
cmake -B build-tsan -DVVAX_SANITIZE=thread
cmake --build build-tsan -j "$(nproc)" --target test_fleet \
    test_golden_image
env TSAN_OPTIONS=halt_on_error=1 \
    build-tsan/tests/test_fleet >test_tsan_output.txt 2>&1 ||
    { cat test_tsan_output.txt; exit 1; }
tail -n 2 test_tsan_output.txt
# The golden-image suite seals images and runs their forks on the
# fleet pool (forked fleets, shared read-only CoW backings), so it gets
# the same proof-of-absence treatment as test_fleet.
env TSAN_OPTIONS=halt_on_error=1 \
    build-tsan/tests/test_golden_image >>test_tsan_output.txt 2>&1 ||
    { cat test_tsan_output.txt; exit 1; }
tail -n 2 test_tsan_output.txt

# Deterministic fault sweep (ARCHITECTURE.md §6): drive the lockstep,
# containment and supervised-fleet tests under an aggressive VVAX_FAULT_PLAN
# for eight seeds, on both the regular and sanitizer trees.  The plan
# covers the fleet-era mailbox-delay class too (delayed cross-thread
# mailbox delivery).  Any seed that breaks
# fast/reference agreement, crashes the host, or trips a sanitizer
# fails the run.
SWEEP_PLAN_FOR_SEED() {
  echo "seed=$1;disk-transient:every=3;torn:every=2;ecc:every=16;spurious:every=9;mailbox-delay:every=2"
}
{
  for tree in build build-asan; do
    for s in 3 7 11 23 42 97 1234 99991; do
      echo "=== fault sweep: tree=$tree seed=$s"
      # Pin the threaded tier explicitly (it is also the default):
      # faults must land identically when the victim retires code
      # through the block executor's handler chains.
      env $SAN_ENV VVAX_EXEC_TIER=threaded \
          VVAX_FAULT_PLAN="$(SWEEP_PLAN_FOR_SEED "$s")" \
          "$tree/tests/test_fault_injection" \
          --gtest_filter='FaultSweep.*'
      # The same plan under the worker pool: N-worker lockstep and
      # healthy-member containment must survive every seed.
      env $SAN_ENV VVAX_EXEC_TIER=threaded \
          VVAX_FAULT_PLAN="$(SWEEP_PLAN_FOR_SEED "$s")" \
          "$tree/tests/test_fleet" \
          --gtest_filter='FleetSweep.*'
    done
  done
  # The same seeds on the ThreadSanitizer tree: the fleet worker pool
  # and the mailbox absorb every injected class while TSan
  # watches the cross-thread traffic.  (The plan-free supervision and
  # microreboot suites - which assert exact injection counts and so
  # cannot run with an environment plan armed - already ran above in
  # the full TSan test_fleet pass.)
  for s in 3 7 11 23 42 97 1234 99991; do
    echo "=== fault sweep: tree=build-tsan seed=$s"
    env TSAN_OPTIONS=halt_on_error=1 VVAX_EXEC_TIER=threaded \
        VVAX_FAULT_PLAN="$(SWEEP_PLAN_FOR_SEED "$s")" \
        build-tsan/tests/test_fleet \
        --gtest_filter='FleetSweep.*'
  done
} >fault_sweep_output.txt 2>&1 ||
    { cat fault_sweep_output.txt; exit 1; }
grep -c '^=== fault sweep' fault_sweep_output.txt |
    xargs -I{} echo "fault sweep: {} runs passed"

# The repository benchmark (BENCHMARK.json, vbench/README.md): its
# determinism self-test, then a short untraced run of each workload.
# Every op checks its own result; a run whose result line (the last
# line of stdout) is not "correct": true fails the script.
python3 vbench/run.py --self-test
for w in paper-mix compute-fleet fork-churn; do
    echo "=== vbench: $w"
    python3 vbench/run.py --workload "$w" --seconds 5 --trace 0 \
        >"vbench_$w.txt" || { cat "vbench_$w.txt"; exit 1; }
    tail -n 1 "vbench_$w.txt" | grep -q '"correct": true' ||
        { cat "vbench_$w.txt"; echo "vbench: $w had a failed op"; exit 1; }
    tail -n 1 "vbench_$w.txt"
done

# The paper experiments (EXPERIMENTS.md): each bench must exit 0, so a
# crash or a failed self-check fails the run.
(
  for b in build/bench/bench_*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    name=$(basename "$b")
    case "$name" in
      bench_host_ratios) continue ;; # gated below
    esac
    echo "================================================================"
    echo "### $name"
    "$b" || { echo "### $name exited with status $?"; exit 1; }
    echo
  done
) >bench_output.txt 2>&1 || { cat bench_output.txt; exit 1; }
cat bench_output.txt

# Host-time A/B ratios (bench/bench_host_ratios.cc): a ratio under its
# floor fails the run.  Set VVAX_BENCH_WARN_ONLY=1 to demote it to a
# warning (e.g. on noisy shared hosts where wall-clock numbers are
# unreliable).
if [ "${VVAX_BENCH_WARN_ONLY:-0}" = "1" ]; then
    build/bench/bench_host_ratios ||
        echo "WARNING: a host-time ratio missed its floor"
else
    build/bench/bench_host_ratios
fi
