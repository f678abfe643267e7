#!/bin/sh
# Guard simulator throughput: run bench_sim_throughput in an
# optimized tree and compare items_per_second per benchmark against
# the checked-in baseline (BENCH_sim_throughput.json).  Exits 1 if
# any benchmark regressed by more than the threshold (default 15%).
#
# The virtual-I/O benchmarks are additionally gated on their exit
# counters (emulation_traps / vm_entries): these are deterministic,
# so growing one beyond the threshold means the batching layer lost
# exits, however the wall clock moved.  The batched run must also
# keep at least a 2x emulation-trap cut over the unbatched run.
#
# Usage: check_bench_regression.sh [fresh.json]
#   With an argument, compares that JSON instead of running the
#   benchmarks (useful for inspecting a completed run).
set -e
cd "$(dirname "$0")/.."

BASELINE=BENCH_sim_throughput.json
THRESHOLD_PCT="${BENCH_REGRESSION_THRESHOLD:-15}"

if [ ! -f "$BASELINE" ]; then
    echo "check_bench_regression: no baseline $BASELINE; nothing to compare" >&2
    exit 0
fi

if [ $# -ge 1 ]; then
    FRESH="$1"
else
    FRESH=$(mktemp /tmp/bench_fresh.XXXXXX.json)
    trap 'rm -f "$FRESH"' EXIT
    cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build build-rel -j "$(nproc)" --target bench_sim_throughput >/dev/null
    # Benchmarks must run fault-free: an armed VVAX_FAULT_PLAN would
    # perturb every counter and wall-clock number (the gate below
    # double-checks via the faults_injected counter).
    env -u VVAX_FAULT_PLAN \
    build-rel/bench/bench_sim_throughput \
        --benchmark_min_time=0.5 \
        --benchmark_format=json \
        --benchmark_out="$FRESH" \
        --benchmark_out_format=json >/dev/null
fi

python3 - "$BASELINE" "$FRESH" "$THRESHOLD_PCT" <<'EOF'
import json
import sys

baseline_path, fresh_path, threshold_pct = sys.argv[1:4]
threshold = float(threshold_pct) / 100.0


def rates(path):
    with open(path) as f:
        doc = json.load(f)
    return {
        b["name"]: b["items_per_second"]
        for b in doc.get("benchmarks", [])
        if "items_per_second" in b
    }


base = rates(baseline_path)
fresh = rates(fresh_path)

failed = False
for name, old in sorted(base.items()):
    new = fresh.get(name)
    if new is None:
        print(f"MISSING  {name}: in baseline but not in fresh run")
        failed = True
        continue
    delta = (new - old) / old
    marker = "ok      "
    if delta < -threshold:
        marker = "REGRESSED"
        failed = True
    print(f"{marker} {name}: {old / 1e6:8.2f} -> {new / 1e6:8.2f} "
          f"M items/s ({delta * 100:+.1f}%)")

for name in sorted(set(fresh) - set(base)):
    print(f"new      {name}: {fresh[name] / 1e6:8.2f} M items/s "
          f"(no baseline)")


def counters(path, names):
    with open(path) as f:
        doc = json.load(f)
    return {
        b["name"]: {n: b[n] for n in names if n in b}
        for b in doc.get("benchmarks", [])
    }


# Exit-class gate: deterministic per-iteration counters on the
# I/O benchmarks must not grow past the threshold either.
EXIT_COUNTERS = ("emulation_traps", "vm_entries")
IO_BENCHES = ("BM_VirtualizedIoDenseBatched",
              "BM_VirtualizedIoDenseUnbatched")
base_ctr = counters(baseline_path, EXIT_COUNTERS)
fresh_ctr = counters(fresh_path, EXIT_COUNTERS)
for name in IO_BENCHES:
    for ctr, old in sorted(base_ctr.get(name, {}).items()):
        new = fresh_ctr.get(name, {}).get(ctr)
        if new is None:
            print(f"MISSING  {name}/{ctr}: in baseline but not in "
                  f"fresh run")
            failed = True
            continue
        delta = (new - old) / old if old else 0.0
        marker = "ok      "
        if delta > threshold:
            marker = "REGRESSED"
            failed = True
        print(f"{marker} {name}/{ctr}: {old:10.0f} -> {new:10.0f} "
              f"per iter ({delta * 100:+.1f}%)")

batched = fresh_ctr.get(IO_BENCHES[0], {}).get("emulation_traps")
unbatched = fresh_ctr.get(IO_BENCHES[1], {}).get("emulation_traps")
if batched is not None and unbatched is not None:
    if batched * 2 > unbatched:
        print(f"REGRESSED batching exit cut: batched "
              f"{batched:.0f} traps vs unbatched {unbatched:.0f} "
              f"(need >= 2x)")
        failed = True
    else:
        print(f"ok       batching exit cut: {unbatched / batched:.1f}x "
              f"fewer emulation traps")

# Trace-tier gate: with links on, the branch-dense loop must retire
# at least as many guest instructions per second as with links off —
# link crossings replace full dispatches, so a linked run slower than
# the wall-clock noise floor means the trace tier is pure overhead
# and something is broken.  The same threshold as the baseline
# comparison absorbs shared-host jitter; the printed ratio records
# the measured win.
def items_rate(path, name):
    with open(path) as f:
        for b in json.load(f).get("benchmarks", []):
            if b["name"] == name:
                return b.get("items_per_second")
    return None


linked = items_rate(fresh_path, "BM_BareLinked")
unlinked = items_rate(fresh_path, "BM_BareUnlinked")
if linked is not None and unlinked is not None:
    if linked < unlinked * (1.0 - threshold):
        print(f"REGRESSED trace tier: BM_BareLinked "
              f"{linked / 1e6:.2f} M instr/s < BM_BareUnlinked "
              f"{unlinked / 1e6:.2f} M instr/s")
        failed = True
    else:
        print(f"ok       trace tier: linked {linked / 1e6:.2f} vs "
              f"unlinked {unlinked / 1e6:.2f} M instr/s "
              f"({linked / unlinked:.2f}x)")

# Threaded-tier gate: superblocks retired by the threaded driver
# exist to beat per-instruction dispatch on branch-dense code, so the
# A/B pair (identical guest, only the execution tier differs) must
# show the win, not just parity.  The 1.2x floor sits well under the
# measured ratio so shared-host jitter doesn't flake the gate, while
# still failing loudly if a change quietly routes blocks back through
# the per-instruction path or bloats the driver past its advantage.
THREADED_FLOOR = 1.2
threaded = items_rate(fresh_path, "BM_BareThreaded")
fast = items_rate(fresh_path, "BM_BareFast")
if threaded is not None and fast is not None and fast > 0:
    ratio = threaded / fast
    if ratio < THREADED_FLOOR:
        print(f"REGRESSED threaded tier: BM_BareThreaded "
              f"{threaded / 1e6:.2f} M instr/s is only {ratio:.2f}x "
              f"of BM_BareFast {fast / 1e6:.2f} "
              f"(need >= {THREADED_FLOOR}x)")
        failed = True
    else:
        print(f"ok       threaded tier: {ratio:.2f}x over the "
              f"fast tier (need >= {THREADED_FLOOR}x)")

# Fleet-scaling gate: on a host with enough cores, a 4-VM fleet on 4
# workers must clear at least 2x the throughput of the same fleet on
# 1 worker - the tentpole's measured win.  On a smaller host (CI
# containers are often 1-2 cores) real parallel speedup is physically
# unmeasurable, so the gate degrades to a pool-overhead check: the
# 4-worker run must not fall below 0.70x of the 1-worker run, and the
# measured ratio is printed for the record.  The 0.70 floor is
# deliberately loose: with 4 threads oversubscribing one core the
# real_time ratio jitters (isolated runs measure ~0.9-1.0x, but at
# the tail of a full suite run end-of-suite throttling on shared CI
# hosts drags samples down to ~0.72-0.82x), while a genuine pool
# regression -- e.g. a busy-wait creeping into the dispatch barrier --
# craters the ratio to 0.5x or below and still trips the gate.
import os

POOL_OVERHEAD_FLOOR = 0.70

fleet1 = items_rate(fresh_path, "BM_HypervisorFleet/4/1/real_time")
fleet4 = items_rate(fresh_path, "BM_HypervisorFleet/4/4/real_time")
single1 = items_rate(fresh_path, "BM_HypervisorFleet/1/1/real_time")
if fleet1 is not None and fleet4 is not None:
    ratio = fleet4 / fleet1 if fleet1 else 0.0
    cores = os.cpu_count() or 1
    if cores >= 4:
        if ratio < 2.0:
            print(f"REGRESSED fleet scaling: 4 VMs / 4 workers only "
                  f"{ratio:.2f}x over 1 worker on {cores} cores "
                  f"(need >= 2x)")
            failed = True
        else:
            print(f"ok       fleet scaling: {ratio:.2f}x on "
                  f"{cores} cores")
    else:
        if ratio < POOL_OVERHEAD_FLOOR:
            print(f"REGRESSED fleet pool overhead: 4 workers at "
                  f"{ratio:.2f}x of 1 worker on a {cores}-core host")
            failed = True
        else:
            print(f"ok       fleet scaling: {ratio:.2f}x on "
                  f"{cores} cores (scaling gate needs >= 4 cores; "
                  f"pool overhead within bounds)")
if single1 is not None:
    print(f"ok       single-VM fleet baseline: {single1 / 1e6:.2f} "
          f"M instr/s (gated by the per-benchmark comparison above)")


# Golden-image forking gates (vmm/golden_image.h).  Both only bind
# when the host provides kernel CoW (memfd + MAP_PRIVATE); on the
# eager-copy fallback every fork pays a full RAM copy and physical
# sharing is impossible, so the benchmarks publish kernel_cow=0 and
# the gates degrade to informational lines.
def counter(path, name, ctr):
    with open(path) as f:
        for b in json.load(f).get("benchmarks", []):
            if b["name"] == name:
                return b.get(ctr)
    return None


FORK_SPEEDUP_FLOOR = 10.0
fork256 = items_rate(fresh_path, "BM_ForkStorm/256")
boot = items_rate(fresh_path, "BM_GoldenBootBaseline")
fork_kernel_cow = counter(fresh_path, "BM_ForkStorm/256", "kernel_cow")
if fork256 is not None and boot is not None and boot > 0:
    ratio = fork256 / boot
    if fork_kernel_cow == 0:
        print(f"ok       fork storm: {ratio:.1f}x over cold boot "
              f"(eager-copy fallback; {FORK_SPEEDUP_FLOOR:.0f}x gate "
              f"needs kernel CoW)")
    elif ratio < FORK_SPEEDUP_FLOOR:
        print(f"REGRESSED fork storm: 256-fork rate {fork256:.0f}/s "
              f"is only {ratio:.1f}x the cold-boot rate {boot:.0f}/s "
              f"(need >= {FORK_SPEEDUP_FLOOR:.0f}x)")
        failed = True
    else:
        print(f"ok       fork storm: {ratio:.1f}x over cold boot "
              f"(need >= {FORK_SPEEDUP_FLOOR:.0f}x)")

SHARED_FRACTION_FLOOR = 0.5
resident = "BM_ResidentPerIdleVm"
shared_frac = counter(fresh_path, resident, "shared_fraction")
priv_per_vm = counter(fresh_path, resident, "private_bytes_per_vm")
ram_bytes = counter(fresh_path, resident, "ram_bytes")
res_kernel_cow = counter(fresh_path, resident, "kernel_cow")
if shared_frac is not None and priv_per_vm is not None and ram_bytes:
    if res_kernel_cow == 0:
        print(f"ok       idle-fork density: shared fraction "
              f"{shared_frac:.3f} (eager-copy fallback; density gate "
              f"needs kernel CoW)")
    else:
        if shared_frac <= SHARED_FRACTION_FLOOR:
            print(f"REGRESSED idle-fork density: shared fraction "
                  f"{shared_frac:.3f} (need > "
                  f"{SHARED_FRACTION_FLOOR})")
            failed = True
        elif priv_per_vm >= 0.5 * ram_bytes:
            print(f"REGRESSED idle-fork density: "
                  f"{priv_per_vm:.0f} B private per idle VM >= half "
                  f"of {ram_bytes:.0f} B RAM")
            failed = True
        else:
            print(f"ok       idle-fork density: shared fraction "
                  f"{shared_frac:.3f}, {priv_per_vm / 1024:.0f} KiB "
                  f"private per idle VM of "
                  f"{ram_bytes / 1048576:.0f} MiB RAM")

# Crash-only supervision gates (vmm/fleet.h, docs/ARCHITECTURE.md
# §6d).  Supervision counters are deterministic, so they gate exactly:
# the clean supervised fleet performs zero microreboots and zero
# quarantines, and the storm benchmark's restart-budget arithmetic
# must hold to the reboot (microreboots == expected_microreboots).
for bench in ("BM_SupervisedFleet/real_time",
              "BM_MicrorebootStorm/real_time"):
    reboots = counter(fresh_path, bench, "microreboots")
    expected = counter(fresh_path, bench, "expected_microreboots")
    if reboots is None or expected is None:
        continue
    if reboots != expected:
        print(f"REGRESSED {bench}: {reboots:.0f} microreboots "
              f"(expected exactly {expected:.0f})")
        failed = True
    else:
        print(f"ok       {bench}: {reboots:.0f} microreboots "
              f"(= expected)")

clean_quar = counter(fresh_path, "BM_SupervisedFleet/real_time",
                     "quarantines")
if clean_quar is not None:
    if clean_quar != 0:
        print(f"REGRESSED BM_SupervisedFleet: {clean_quar:.0f} "
              f"quarantines in a clean run (must be 0)")
        failed = True
    else:
        print("ok       BM_SupervisedFleet: 0 quarantines")

# The recovery-cost gate (pages recopied per microreboot < half a full
# restore) is deterministic, so it lives in ctest instead:
# FleetSupervision.CrashingForksAreMicrorebootedThenQuarantined.

# Zero-fault gate: the fault-injection machinery (fault/fault_plan.h)
# must be provably inert when no plan is armed — a nonzero count here
# means either a plan leaked into the benchmark environment or an
# injection site fires unconditionally, and every number above is
# suspect.
with open(fresh_path) as f:
    for b in json.load(f).get("benchmarks", []):
        if b.get("faults_injected", 0) != 0:
            print(f"REGRESSED {b['name']}/faults_injected: "
                  f"{b['faults_injected']:.0f} (must be 0)")
            failed = True

if failed:
    print(f"FAIL: throughput regressed beyond {threshold_pct}% "
          f"of {baseline_path}")
    sys.exit(1)
print(f"PASS: all benchmarks within {threshold_pct}% of baseline")
EOF
