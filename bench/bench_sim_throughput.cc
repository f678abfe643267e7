/**
 * @file
 * Host-side simulator throughput, measured with google-benchmark:
 * guest instructions per second of real time for bare execution,
 * virtualized execution, and the MiniVMS boot.  These numbers gauge
 * the harness itself (how long the paper's experiments take to run),
 * not the simulated machine.
 */

#include <array>
#include <cstdio>
#include <sstream>
#include <string>

#include <benchmark/benchmark.h>

#include "bench/common.h"
#include "guest/microguests.h"
#include "vasm/code_builder.h"
#include "vmm/fleet.h"
#include "vmm/golden_image.h"

using namespace vvax;
using namespace vvax::bench;

namespace {

/**
 * Accumulates exit-reason / TLB observability counters across
 * benchmark iterations and publishes per-iteration averages into the
 * benchmark's JSON output.
 */
struct VmmCounters
{
    std::uint64_t emulationTraps = 0;
    std::uint64_t vmEntries = 0;
    std::uint64_t ldpctx = 0;
    std::uint64_t mtprIpl = 0;
    std::uint64_t tlbFlushAll = 0;
    std::uint64_t tlbContextSwitches = 0;
    std::uint64_t tlbHits = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t blockBuilds = 0;
    std::uint64_t blockExecutions = 0;
    std::uint64_t blockInstructions = 0;
    std::uint64_t blockInvalidations = 0;
    std::uint64_t traceLinksFormed = 0;
    std::uint64_t traceLinksTaken = 0;
    std::uint64_t traceLinksSevered = 0;
    std::uint64_t kcallIos = 0;
    std::uint64_t mmioExits = 0;
    std::uint64_t diskKcallBatches = 0;
    std::uint64_t batchedDiskBlocks = 0;
    std::uint64_t consoleChars = 0;
    std::uint64_t coalescedConsoleChars = 0;
    std::uint64_t faultsInjected = 0;
    std::array<std::uint64_t, 256> trapOpcodes{};

    void
    accumulate(RealMachine &m, const VirtualMachine &vm)
    {
        emulationTraps += vm.stats.emulationTraps;
        vmEntries += vm.stats.vmEntries;
        ldpctx += vm.stats.ldpctxEmulations;
        mtprIpl += vm.stats.mtprIplEmulations;
        tlbFlushAll += m.stats().tlbFlushAll;
        tlbContextSwitches += m.stats().tlbContextSwitches;
        tlbHits += m.stats().tlbHits;
        tlbMisses += m.stats().tlbMisses;
        blockBuilds += m.stats().blockBuilds;
        blockExecutions += m.stats().blockExecutions;
        blockInstructions += m.stats().blockInstructions;
        blockInvalidations += m.stats().blockInvalidations;
        traceLinksFormed += m.stats().traceLinksFormed;
        traceLinksTaken += m.stats().traceLinksTaken;
        traceLinksSevered += m.stats().traceLinksSevered;
        kcallIos += vm.stats.kcallIos;
        mmioExits += vm.stats.mmioExits;
        diskKcallBatches += vm.stats.diskKcallBatches;
        batchedDiskBlocks += vm.stats.batchedDiskBlocks;
        consoleChars += vm.stats.consoleChars;
        coalescedConsoleChars += vm.stats.coalescedConsoleChars;
        for (const std::uint64_t n : m.stats().faultsInjected)
            faultsInjected += n;
        for (int i = 0; i < 256; ++i)
            trapOpcodes[static_cast<std::size_t>(i)] +=
                m.stats().vmTrapOpcodes[static_cast<std::size_t>(i)];
    }

    void
    publish(benchmark::State &state) const
    {
        const auto avg = benchmark::Counter::kAvgIterations;
        state.counters["emulation_traps"] =
            benchmark::Counter(static_cast<double>(emulationTraps), avg);
        state.counters["vm_entries"] =
            benchmark::Counter(static_cast<double>(vmEntries), avg);
        state.counters["ldpctx_emulations"] =
            benchmark::Counter(static_cast<double>(ldpctx), avg);
        state.counters["mtpr_ipl_emulations"] =
            benchmark::Counter(static_cast<double>(mtprIpl), avg);
        state.counters["tlb_tbia"] =
            benchmark::Counter(static_cast<double>(tlbFlushAll), avg);
        state.counters["tlb_context_switches"] = benchmark::Counter(
            static_cast<double>(tlbContextSwitches), avg);
        state.counters["tlb_hits"] =
            benchmark::Counter(static_cast<double>(tlbHits), avg);
        state.counters["tlb_misses"] =
            benchmark::Counter(static_cast<double>(tlbMisses), avg);
        state.counters["block_builds"] =
            benchmark::Counter(static_cast<double>(blockBuilds), avg);
        state.counters["block_executions"] = benchmark::Counter(
            static_cast<double>(blockExecutions), avg);
        state.counters["block_instructions"] = benchmark::Counter(
            static_cast<double>(blockInstructions), avg);
        state.counters["block_invalidations"] = benchmark::Counter(
            static_cast<double>(blockInvalidations), avg);
        state.counters["trace_links_formed"] = benchmark::Counter(
            static_cast<double>(traceLinksFormed), avg);
        state.counters["trace_links_taken"] = benchmark::Counter(
            static_cast<double>(traceLinksTaken), avg);
        state.counters["trace_links_severed"] = benchmark::Counter(
            static_cast<double>(traceLinksSevered), avg);
        state.counters["kcall_ios"] =
            benchmark::Counter(static_cast<double>(kcallIos), avg);
        state.counters["mmio_exits"] =
            benchmark::Counter(static_cast<double>(mmioExits), avg);
        state.counters["disk_kcall_batches"] = benchmark::Counter(
            static_cast<double>(diskKcallBatches), avg);
        state.counters["batched_disk_blocks"] = benchmark::Counter(
            static_cast<double>(batchedDiskBlocks), avg);
        state.counters["console_chars"] =
            benchmark::Counter(static_cast<double>(consoleChars), avg);
        state.counters["coalesced_console_chars"] = benchmark::Counter(
            static_cast<double>(coalescedConsoleChars), avg);
        // Total across fault classes.  Benchmark comparisons are
        // only meaningful at zero injected faults;
        // check_bench_regression.sh fails if this is ever nonzero.
        state.counters["faults_injected"] =
            benchmark::Counter(static_cast<double>(faultsInjected), avg);
        // Per-opcode exit breakdown (the paper's Table 3 rows): one
        // counter per opcode that actually trapped.
        for (int i = 0; i < 256; ++i) {
            const std::uint64_t n =
                trapOpcodes[static_cast<std::size_t>(i)];
            if (n == 0)
                continue;
            char name[24];
            std::snprintf(name, sizeof name, "vm_trap_op_0x%02X", i);
            state.counters[name] =
                benchmark::Counter(static_cast<double>(n), avg);
        }
    }
};

CodeBuilder
spinLoop(Longword iterations)
{
    CodeBuilder b(0x200);
    Label loop = b.newLabel();
    b.movl(Op::imm(iterations), Op::reg(R6));
    b.bind(loop);
    b.addl2(Op::lit(1), Op::reg(R0));
    b.xorl2(Op::reg(R0), Op::reg(R1));
    b.movl(Op::reg(R1), Op::abs(0x1000));
    b.sobgtr(Op::reg(R6), loop);
    b.halt();
    return b;
}

void
BM_BareExecution(benchmark::State &state)
{
    const Longword iters = 20000;
    // One machine for the whole benchmark: the timed region measures
    // the simulator's steady-state execution rate.  Rebuilding the
    // machine per sample spends more time zeroing 16 MB of guest RAM
    // than executing the loop, so the number tracked the host
    // allocator instead of the interpreter.  The spin loop reloads
    // its own counter, so re-running it only needs PC/SP restored.
    RealMachine m;
    CodeBuilder b = spinLoop(iters);
    auto image = b.finish();
    m.loadImage(b.origin(), image);
    m.cpu().psl().setIpl(31);
    for (auto _ : state) {
        m.cpu().clearHalt();
        m.cpu().setPc(b.origin());
        m.cpu().setReg(SP, 0x1800);
        const std::uint64_t before = m.stats().instructions;
        // Finite budget: run()'s limit is instructions + max, which
        // must not wrap now that the counter accumulates across
        // benchmark iterations.
        m.run(1000000000);
        benchmark::DoNotOptimize(m.cpu().reg(R1));
        state.SetItemsProcessed(
            state.items_processed() +
            static_cast<std::int64_t>(m.stats().instructions -
                                      before));
    }
}
BENCHMARK(BM_BareExecution)->Unit(benchmark::kMillisecond);

/**
 * Branch-dense loop for the trace-tier A/B pair: every couple of
 * instructions ends a superblock with a direct branch, so dispatch
 * overhead - the thing trace links remove - dominates the run.  Three
 * hot blocks chain loop -> b1 -> b2 -> loop.
 */
CodeBuilder
branchLoop(Longword iterations)
{
    CodeBuilder b(0x200);
    Label loop = b.newLabel(), b1 = b.newLabel(), b2 = b.newLabel();
    b.movl(Op::imm(iterations), Op::reg(R6));
    b.bind(loop);
    b.addl2(Op::lit(1), Op::reg(R0));
    b.brb(b1);
    b.bind(b1);
    b.xorl2(Op::reg(R0), Op::reg(R1));
    b.brb(b2);
    b.bind(b2);
    b.sobgtr(Op::reg(R6), loop);
    b.halt();
    return b;
}

/**
 * A/B pair for the trace tier: the same branch-dense loop with
 * superblock trace links on (the default) and forced off, so the
 * checked-in JSON records the win from chaining hot blocks across
 * branches.  check_bench_regression.sh asserts the linked run
 * retires at least as many guest instructions per second as the
 * unlinked one.
 */
void
runBareTraceBenchmark(benchmark::State &state, bool linked,
                      ExecTier tier = ExecTier::Threaded)
{
    const Longword iters = 20000;
    // Machine reuse as in BM_BareExecution: the pair measures the
    // steady-state dispatch rate with the block cache and links warm,
    // which is exactly the regime the trace tier targets.
    RealMachine m;
    m.cpu().setTraceLinksEnabled(linked);
    m.cpu().setExecTier(tier);
    CodeBuilder b = branchLoop(iters);
    auto image = b.finish();
    m.loadImage(b.origin(), image);
    m.cpu().psl().setIpl(31);
    for (auto _ : state) {
        m.cpu().clearHalt();
        m.cpu().setPc(b.origin());
        m.cpu().setReg(SP, 0x1800);
        const std::uint64_t before = m.stats().instructions;
        // Finite budget: run()'s limit is instructions + max, which
        // must not wrap now that the counter accumulates across
        // benchmark iterations.
        m.run(1000000000);
        benchmark::DoNotOptimize(m.cpu().reg(R1));
        state.SetItemsProcessed(
            state.items_processed() +
            static_cast<std::int64_t>(m.stats().instructions -
                                      before));
    }
    const auto avg = benchmark::Counter::kAvgIterations;
    state.counters["trace_links_formed"] = benchmark::Counter(
        static_cast<double>(m.stats().traceLinksFormed), avg);
    state.counters["trace_links_taken"] = benchmark::Counter(
        static_cast<double>(m.stats().traceLinksTaken), avg);
    state.counters["block_executions"] = benchmark::Counter(
        static_cast<double>(m.stats().blockExecutions), avg);
    state.counters["guest_instructions"] = benchmark::Counter(
        static_cast<double>(m.stats().instructions), avg);
    state.counters["threaded_instructions"] = benchmark::Counter(
        static_cast<double>(m.stats().threadedInstructions), avg);
}

void
BM_BareLinked(benchmark::State &state)
{
    runBareTraceBenchmark(state, true);
}
BENCHMARK(BM_BareLinked)->Unit(benchmark::kMillisecond);

void
BM_BareUnlinked(benchmark::State &state)
{
    runBareTraceBenchmark(state, false);
}
BENCHMARK(BM_BareUnlinked)->Unit(benchmark::kMillisecond);

/**
 * A/B pair for the block executor (docs/ARCHITECTURE.md §5c): the
 * same branch-dense loop retired through superblocks and the threaded
 * driver versus the Fast tier's per-instruction dispatch through the
 * predecoded-instruction cache.  check_bench_regression.sh asserts
 * the threaded run clears a fixed multiple of the fast run's
 * instruction rate.
 */
void
BM_BareThreaded(benchmark::State &state)
{
    runBareTraceBenchmark(state, true, ExecTier::Threaded);
}
BENCHMARK(BM_BareThreaded)->Unit(benchmark::kMillisecond);

void
BM_BareFast(benchmark::State &state)
{
    runBareTraceBenchmark(state, true, ExecTier::Fast);
}
BENCHMARK(BM_BareFast)->Unit(benchmark::kMillisecond);

void
BM_VirtualizedExecution(benchmark::State &state)
{
    const Longword iters = 20000;
    VmmCounters counters;
    for (auto _ : state) {
        MachineConfig mc;
        mc.ramBytes = 16 * 1024 * 1024;
        mc.level = MicrocodeLevel::Modified;
        RealMachine m(mc);
        Hypervisor hv(m);
        VirtualMachine &vm = hv.createVm(VmConfig{});
        CodeBuilder b = spinLoop(iters);
        auto image = b.finish();
        hv.loadVmImage(vm, b.origin(), image);
        hv.startVm(vm, b.origin());
        hv.run(UINT64_MAX);
        benchmark::DoNotOptimize(vm.stats.vmEntries);
        counters.accumulate(m, vm);
        state.SetItemsProcessed(state.items_processed() +
                                static_cast<std::int64_t>(
                                    m.stats().instructions));
    }
    counters.publish(state);
}
BENCHMARK(BM_VirtualizedExecution)->Unit(benchmark::kMillisecond);

/**
 * Run a microguest in a fresh VM, counting guest instructions and the
 * VMM exit-reason / TLB profile (the paper's Table 3 view of where
 * virtualization overhead comes from).
 */
void
runMicroGuestBenchmark(benchmark::State &state,
                       const MicroGuestImage &img,
                       const HypervisorConfig &hc = {})
{
    VmmCounters counters;
    for (auto _ : state) {
        MachineConfig mc;
        mc.ramBytes = 16 * 1024 * 1024;
        mc.level = MicrocodeLevel::Modified;
        RealMachine m(mc);
        Hypervisor hv(m, hc);
        VirtualMachine &vm = hv.createVm(VmConfig{});
        hv.loadVmImage(vm, img.loadBase, img.image);
        hv.startVm(vm, img.entry);
        hv.run(UINT64_MAX);
        if (vm.haltReason != VmHaltReason::HaltInstruction) {
            state.SkipWithError("guest failed");
            return;
        }
        counters.accumulate(m, vm);
        state.SetItemsProcessed(state.items_processed() +
                                static_cast<std::int64_t>(
                                    m.stats().instructions));
    }
    counters.publish(state);
}

/** Trap-dense guest: four emulation traps per loop iteration. */
void
BM_VirtualizedTrapDense(benchmark::State &state)
{
    const MicroGuestImage img = buildTrapDenseLoop(4000);
    runMicroGuestBenchmark(state, img);
}
BENCHMARK(BM_VirtualizedTrapDense)->Unit(benchmark::kMillisecond);

/** Switch-dense guest: SVPCTX/LDPCTX/REI ping-pong between PCBs. */
void
BM_VirtualizedSwitchDense(benchmark::State &state)
{
    const MicroGuestImage img = buildContextSwitchLoop(1500);
    runMicroGuestBenchmark(state, img);
}
BENCHMARK(BM_VirtualizedSwitchDense)->Unit(benchmark::kMillisecond);

/**
 * I/O-dense guest, virtual-I/O fast path on: the guest posts all 16
 * disk transfers per iteration through one kDiskBatch descriptor-ring
 * exit, and TXDB output coalesces into the per-VM buffer.
 */
void
BM_VirtualizedIoDenseBatched(benchmark::State &state)
{
    const MicroGuestImage img = buildIoDenseLoop(400, true);
    runMicroGuestBenchmark(state, img);
}
BENCHMARK(BM_VirtualizedIoDenseBatched)->Unit(benchmark::kMillisecond);

/**
 * Same guest image on a VMM with the fast path toggled off: the
 * feature probe comes back empty, so the driver falls back to one
 * kDiskRead/kDiskWrite KCALL per block and every TXDB write goes
 * straight to the device.  The gap to the batched run is the
 * tentpole's measured win.
 */
void
BM_VirtualizedIoDenseUnbatched(benchmark::State &state)
{
    const MicroGuestImage img = buildIoDenseLoop(400, true);
    HypervisorConfig hc;
    hc.diskBatchKcall = false;
    hc.consoleCoalescing = false;
    runMicroGuestBenchmark(state, img, hc);
}
BENCHMARK(BM_VirtualizedIoDenseUnbatched)->Unit(benchmark::kMillisecond);

void
BM_MiniVmsBootToCompletion(benchmark::State &state)
{
    MiniVmsConfig cfg;
    cfg.numProcesses = 3;
    cfg.workloads = {Workload::Edit, Workload::Transaction,
                     Workload::Compute};
    cfg.iterations = 8;
    cfg.dataPagesPerProcess = 8;
    for (auto _ : state) {
        const VmOutcome out = runVirtual(cfg, MachineModel::Vax8800);
        if (out.magic != MiniVmsImage::kResultMagic)
            state.SkipWithError("guest failed");
        state.SetItemsProcessed(
            state.items_processed() +
            static_cast<std::int64_t>(out.machineStats.instructions));
    }
}
BENCHMARK(BM_MiniVmsBootToCompletion)->Unit(benchmark::kMillisecond);

/**
 * Fleet scaling: N spin-loop VMs, each on its own (machine,
 * hypervisor) member, dispatched onto a worker pool (vmm/fleet.h).
 * Args are {vms, workers}; items are total guest instructions, so
 * items_per_second across worker counts at a fixed VM count is the
 * parallel-speedup curve (on a multi-core host; a 1-core container
 * can only show pool overhead, which check_bench_regression.sh
 * accounts for).
 */
void
BM_HypervisorFleet(benchmark::State &state)
{
    const int n_vms = static_cast<int>(state.range(0));
    const int workers = static_cast<int>(state.range(1));
    // One fleet for the whole run: members host endless compute loops
    // and every benchmark iteration grants each member a fresh
    // instruction budget, so the loop measures steady-state dispatch,
    // not fleet construction.
    FleetConfig fc;
    fc.workers = workers;
    fc.machine.ramBytes = 16 * 1024 * 1024;
    fc.machine.level = MicrocodeLevel::Modified;
    HypervisorFleet fleet(fc);
    for (int i = 0; i < n_vms; ++i) {
        const int idx = fleet.addVm(VmConfig{});
        CodeBuilder b(0x200);
        b.clrl(Op::reg(R2));
        Label loop = b.bindHere();
        b.incl(Op::reg(R2));
        b.addl2(Op::reg(R2), Op::reg(R3));
        b.brb(loop);
        auto image = b.finish();
        fleet.loadVmImage(idx, b.origin(), image);
        fleet.startVm(idx, b.origin());
    }
    const std::uint64_t budget = 200000; // instructions per VM per pass
    for (auto _ : state) {
        const std::uint64_t before =
            fleet.totalMachineStats().instructions;
        fleet.run(budget);
        state.SetItemsProcessed(
            state.items_processed() +
            static_cast<std::int64_t>(
                fleet.totalMachineStats().instructions - before));
    }
    state.counters["vms"] = benchmark::Counter(n_vms);
    state.counters["workers"] = benchmark::Counter(workers);
}
BENCHMARK(BM_HypervisorFleet)
    ->Unit(benchmark::kMillisecond)
    // Wall clock, not main-thread CPU: the work happens on the pool's
    // threads, which per-thread CPU timing cannot see.
    ->UseRealTime()
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({2, 2})
    ->Args({4, 1})
    ->Args({4, 2})
    ->Args({4, 4});

// ---------------------------------------------------------------------------
// Golden-image forking (vmm/golden_image.h)
// ---------------------------------------------------------------------------

/** Boot budget for the golden MiniVMS mix: mid-flight, after the
 *  guest kernel is up but with work (including disk I/O) remaining. */
constexpr std::uint64_t kGoldenBootBudget = 2000;

MiniVmsConfig
goldenMixConfig()
{
    MiniVmsConfig cfg;
    cfg.numProcesses = 2;
    cfg.workloads = {Workload::Transaction, Workload::Edit};
    cfg.iterations = 6;
    cfg.dataPagesPerProcess = 8;
    return cfg;
}

MachineConfig
goldenMachineConfig()
{
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    return mc;
}

HypervisorConfig
goldenHvConfig()
{
    HypervisorConfig hc;
    hc.tickCycles = 2000;
    hc.ticksPerQuantum = 2;
    hc.asyncDiskIo = true;
    return hc;
}

/** The cold path BM_GoldenBootBaseline times and BM_ForkStorm skips:
 *  build the machine stack and boot the mix to the seal point. */
struct BootedGolden
{
    std::unique_ptr<RealMachine> machine;
    std::unique_ptr<Hypervisor> hv;
    VirtualMachine *vm = nullptr;
};

BootedGolden
coldBootToSealPoint()
{
    BootedGolden b;
    b.machine = std::make_unique<RealMachine>(goldenMachineConfig());
    b.machine->setFaultPlan(nullptr);
    b.hv = std::make_unique<Hypervisor>(*b.machine, goldenHvConfig());
    MiniVmsConfig cfg = goldenMixConfig();
    VmConfig vc;
    vc.memBytes = cfg.memBytes;
    b.vm = &b.hv->createVm(vc);
    MiniVmsImage img = buildMiniVms(cfg);
    b.hv->loadVmImage(*b.vm, 0, img.image);
    b.hv->startVm(*b.vm, img.entry);
    b.hv->run(kGoldenBootBudget);
    return b;
}

GoldenImage
makeGoldenImage()
{
    BootedGolden b = coldBootToSealPoint();
    return GoldenImage::seal(*b.hv, *b.vm);
}

/**
 * Time-to-Nth-VM via golden-image forking: each iteration stands up N
 * ready-to-run VMs as CoW forks of one sealed image.  items/sec is
 * VMs per second; check_bench_regression.sh asserts the 256-fork rate
 * clears 10x the cold-boot rate (BM_GoldenBootBaseline) whenever the
 * host provides kernel CoW.
 */
void
BM_ForkStorm(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    const GoldenImage gold = makeGoldenImage();
    for (auto _ : state) {
        std::vector<GoldenFork> fleet;
        fleet.reserve(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i)
            fleet.push_back(gold.fork(i));
        benchmark::DoNotOptimize(fleet.back().vm);
        // Teardown is not the measured product; keep it out of the
        // timed region.
        state.PauseTiming();
        fleet.clear();
        state.ResumeTiming();
        state.SetItemsProcessed(state.items_processed() + n);
    }
    state.counters["kernel_cow"] =
        benchmark::Counter(gold.kernelBacked() ? 1.0 : 0.0);
    state.counters["ram_bytes"] =
        benchmark::Counter(static_cast<double>(gold.ramBytes()));
}
BENCHMARK(BM_ForkStorm)
    ->Unit(benchmark::kMillisecond)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256);

/**
 * The re-boot path a fork replaces: construct the machine stack
 * (16 MB RAM zeroed), load the guest and run it to the seal point.
 * items/sec is boots per second - the denominator of the fork-storm
 * speedup gate.
 */
void
BM_GoldenBootBaseline(benchmark::State &state)
{
    for (auto _ : state) {
        BootedGolden b = coldBootToSealPoint();
        benchmark::DoNotOptimize(b.vm->haltReason);
        state.PauseTiming();
        b.hv.reset();
        b.machine.reset();
        state.ResumeTiming();
        state.SetItemsProcessed(state.items_processed() + 1);
    }
}
BENCHMARK(BM_GoldenBootBaseline)->Unit(benchmark::kMillisecond);

/**
 * Memory density: fork 16 VMs, give each a short idle slice, then
 * account private vs shared bytes.  shared_fraction is the fraction
 * of the machine image an idle fork still shares with its siblings;
 * check_bench_regression.sh asserts it stays above 0.5 under kernel
 * CoW (eager-copy hosts report kernel_cow=0 and are exempt).
 */
void
BM_ResidentPerIdleVm(benchmark::State &state)
{
    constexpr int kForks = 16;
    constexpr std::uint64_t kIdleSlice = 500;
    const GoldenImage gold = makeGoldenImage();
    double private_bytes = 0;
    double shared_bytes = 0;
    double pages_touched = 0;
    for (auto _ : state) {
        std::vector<GoldenFork> fleet;
        fleet.reserve(kForks);
        for (int i = 0; i < kForks; ++i) {
            fleet.push_back(gold.fork(i));
            GoldenFork &f = fleet.back();
            f.machine->setFaultPlan(nullptr);
            f.hv->run(kIdleSlice);
        }
        private_bytes = shared_bytes = pages_touched = 0;
        for (GoldenFork &f : fleet) {
            const CowStats cs = f.machine->memory().cowStats();
            private_bytes += static_cast<double>(cs.privateBytes);
            shared_bytes += static_cast<double>(cs.sharedBytes);
            pages_touched += static_cast<double>(cs.pagesTouched);
        }
        benchmark::DoNotOptimize(private_bytes);
        state.SetItemsProcessed(state.items_processed() + kForks);
    }
    state.counters["private_bytes_per_vm"] =
        benchmark::Counter(private_bytes / kForks);
    state.counters["pages_touched_per_vm"] =
        benchmark::Counter(pages_touched / kForks);
    state.counters["shared_fraction"] = benchmark::Counter(
        private_bytes + shared_bytes == 0
            ? 0.0
            : shared_bytes / (private_bytes + shared_bytes));
    state.counters["ram_bytes"] =
        benchmark::Counter(static_cast<double>(gold.ramBytes()));
    state.counters["kernel_cow"] =
        benchmark::Counter(gold.kernelBacked() ? 1.0 : 0.0);
}
BENCHMARK(BM_ResidentPerIdleVm)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Crash-only supervision (FleetConfig::fleetSupervision)
// ---------------------------------------------------------------------------

/**
 * Supervision overhead on the clean path: four healthy forks run to
 * completion under the health state machine.  A correct run performs
 * zero microreboots and zero quarantines - check_bench_regression.sh
 * gates both counters at exactly their expected_* values.
 */
void
BM_SupervisedFleet(benchmark::State &state)
{
    const GoldenImage gold = makeGoldenImage();
    double microreboots = 0;
    double quarantines = 0;
    for (auto _ : state) {
        FleetConfig fc;
        fc.workers = 2;
        fc.sliceInstructions = 50000;
        fc.machine = gold.machineConfig();
        fc.fleetSupervision.enabled = true;
        HypervisorFleet fleet(fc);
        fleet.addForkedMember(gold, 4);
        fleet.run(400000000);
        microreboots = static_cast<double>(fleet.microreboots());
        quarantines = static_cast<double>(fleet.quarantines());
        state.SetItemsProcessed(
            state.items_processed() +
            static_cast<std::int64_t>(
                fleet.totalMachineStats().instructions));
    }
    state.counters["microreboots"] = benchmark::Counter(microreboots);
    state.counters["expected_microreboots"] = benchmark::Counter(0);
    state.counters["quarantines"] = benchmark::Counter(quarantines);
}
BENCHMARK(BM_SupervisedFleet)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/** Seal a crash-looping guest (reads past MEMSIZE), started but not
 *  yet run: every fork of it crashes within a few instructions. */
GoldenImage
makeCrashImage()
{
    RealMachine m(goldenMachineConfig());
    m.setFaultPlan(nullptr);
    Hypervisor hv(m, goldenHvConfig());
    VmConfig vc;
    vc.memBytes = 256 * 1024;
    VirtualMachine &vm = hv.createVm(vc);
    CodeBuilder crash(0x200);
    crash.incl(Op::abs(0x3000));
    crash.movl(Op::abs(0x00F00000), Op::reg(R0));
    crash.halt();
    auto image = crash.finish();
    hv.loadVmImage(vm, 0x200, image);
    hv.startVm(vm, 0x200);
    return GoldenImage::seal(hv, vm);
}

/**
 * Microreboot storm: two permanently crashing forks burn their whole
 * restart budget every iteration, so items/sec is microreboots per
 * second.  mean_pages_recopied is the measured recovery cost (the
 * fresh fork's CoW floor); full_restore_pages is what the PR-5
 * snapshot-restore path would copy instead - the regression gate
 * asserts the microreboot stays well under it, and that the budget
 * arithmetic holds exactly (microreboots == expected_microreboots).
 */
void
BM_MicrorebootStorm(benchmark::State &state)
{
    constexpr int kCrashForks = 2;
    constexpr int kRestartBudget = 3;
    const GoldenImage gold = makeCrashImage();
    double microreboots = 0;
    double quarantines = 0;
    double pages_recopied = 0;
    for (auto _ : state) {
        FleetConfig fc;
        fc.workers = 2;
        fc.sliceInstructions = 5000;
        fc.machine = gold.machineConfig();
        fc.fleetSupervision.enabled = true;
        fc.fleetSupervision.restartBudget = kRestartBudget;
        fc.fleetSupervision.backoffSlices = 1;
        HypervisorFleet fleet(fc);
        fleet.addForkedMember(gold, kCrashForks);
        fleet.run(4000000);
        microreboots = static_cast<double>(fleet.microreboots());
        quarantines = static_cast<double>(fleet.quarantines());
        pages_recopied = static_cast<double>(fleet.pagesRecopied());
        state.SetItemsProcessed(state.items_processed() +
                                static_cast<std::int64_t>(
                                    fleet.microreboots()));
    }
    state.counters["microreboots"] = benchmark::Counter(microreboots);
    state.counters["expected_microreboots"] =
        benchmark::Counter(kCrashForks * kRestartBudget);
    state.counters["quarantines"] = benchmark::Counter(quarantines);
    state.counters["mean_pages_recopied"] = benchmark::Counter(
        microreboots == 0 ? 0.0 : pages_recopied / microreboots);
    state.counters["full_restore_pages"] = benchmark::Counter(
        static_cast<double>(gold.ramBytes() / kPageSize));
    state.counters["kernel_cow"] =
        benchmark::Counter(gold.kernelBacked() ? 1.0 : 0.0);
}
BENCHMARK(BM_MicrorebootStorm)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * JSONReporter whose context block reports the *harness* build type.
 * The stock reporter stamps `library_build_type` with how the system
 * benchmark library was compiled, but the measured loops are
 * header-inlined into this binary, so its own NDEBUG setting is what
 * the checked-in JSON must record.
 */
class HarnessJsonReporter : public benchmark::JSONReporter
{
  public:
    bool
    ReportContext(const Context &context) override
    {
        std::ostream *real = &GetOutputStream();
        std::ostringstream buf;
        SetOutputStream(&buf);
        const bool ok = benchmark::JSONReporter::ReportContext(context);
        SetOutputStream(real);
        std::string text = buf.str();
#ifdef NDEBUG
        const char *harness = "\"library_build_type\": \"release\"";
#else
        const char *harness = "\"library_build_type\": \"debug\"";
#endif
        const std::string key = "\"library_build_type\": \"";
        const auto pos = text.find(key);
        if (pos != std::string::npos) {
            const auto end = text.find('"', pos + key.size());
            if (end != std::string::npos)
                text.replace(pos, end + 1 - pos, harness);
        }
        *real << text;
        return ok;
    }
};

} // namespace

int
main(int argc, char **argv)
{
#ifndef NDEBUG
    (void)argc;
    (void)argv;
    std::fprintf(stderr,
                 "bench_sim_throughput: this binary was built without "
                 "NDEBUG (assertions enabled); its throughput numbers "
                 "are meaningless.  Rebuild with "
                 "-DCMAKE_BUILD_TYPE=Release.\n");
    return 1;
#else
    // The library rejects a file reporter unless --benchmark_out was
    // given, so only substitute ours when a JSON file is requested.
    bool wants_file = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0)
            wants_file = true;
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::ConsoleReporter display;
    HarnessJsonReporter file;
    benchmark::RunSpecifiedBenchmarks(&display,
                                      wants_file ? &file : nullptr);
    benchmark::Shutdown();
    return 0;
#endif
}
