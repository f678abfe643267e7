/**
 * @file
 * Golden-image tests: seal a booted VM (vmm/golden_image.h) and fork
 * it in O(pages-touched).
 *
 * The contract under test: a fork is bit-identical to restoring the
 * equivalent snapshot onto a fresh machine (memory, disk, console,
 * VmStats and architectural machine Stats); two forks of one image
 * run bit-identically; the eager-copy fallback is architecturally
 * indistinguishable from kernel CoW; CoW accounting reports the
 * touched fraction, not the image size; self-modifying code in one
 * fork never perturbs its siblings; and the fleet's microreboot
 * budget bounds golden-image crash recovery.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "guest/minivms.h"
#include "memory/cow_backing.h"
#include "tests/harness.h"
#include "vmm/fleet.h"
#include "vmm/golden_image.h"
#include "vmm/hypervisor.h"
#include "vmm/snapshot.h"

namespace vvax {
namespace {

std::uint64_t
fnv1a(std::span<const Byte> bytes)
{
    std::uint64_t h = 14695981039346656037ull;
    for (Byte b : bytes) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

/** FNV-1a over the VM's memory slice with the uptime mailbox longword
 *  zeroed (VMM wall-clock, not guest state). */
std::uint64_t
vmMemoryDigest(RealMachine &m, const VirtualMachine &vm)
{
    const std::span<const Byte> ram = m.memory().ram();
    const std::size_t base = static_cast<std::size_t>(vm.basePfn)
                             << kPageShift;
    const std::size_t size =
        static_cast<std::size_t>(vm.memPages) * kPageSize;
    std::vector<Byte> copy(ram.begin() + base, ram.begin() + base + size);
    if (vm.uptimeMailbox != 0 && vm.uptimeMailbox + 4 <= size) {
        for (int i = 0; i < 4; ++i)
            copy[vm.uptimeMailbox + i] = 0;
    }
    return fnv1a(copy);
}

/** Everything guest-visible (plus stats) about a machine+VM pair. */
struct ForkOutcome
{
    std::uint64_t vmMemory = 0;
    std::uint64_t vmDisk = 0;
    std::string console;
    VmStats vmStats;
    Stats stats;

    bool operator==(const ForkOutcome &other) const = default;
};

ForkOutcome
outcomeOf(RealMachine &m, const VirtualMachine &vm)
{
    ForkOutcome out;
    out.vmMemory = vmMemoryDigest(m, vm);
    out.vmDisk = fnv1a(vm.disk);
    out.console = vm.console.output();
    out.vmStats = vm.stats;
    out.stats = m.stats();
    return out;
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
    return hc;
}

MiniVmsConfig
goldenVmsConfig()
{
    MiniVmsConfig cfg;
    cfg.numProcesses = 2;
    cfg.workloads = {Workload::Transaction, Workload::Edit};
    cfg.iterations = 6;
    cfg.dataPagesPerProcess = 8;
    return cfg;
}

/** A booted (but unfinished) MiniVMS machine, ready to seal or
 *  snapshot.  The boot runs fault-free: the golden image must be
 *  reproducible regardless of any VVAX_FAULT_PLAN the environment
 *  installed (each *fork* still picks the environment plan up fresh,
 *  like any new machine). */
struct GoldenSource
{
    std::unique_ptr<RealMachine> machine;
    std::unique_ptr<Hypervisor> hv;
    VirtualMachine *vm = nullptr;
    PhysAddr resultBase = 0;
};

GoldenSource
bootMiniVms(std::uint64_t boot_budget)
{
    GoldenSource src;
    src.machine = std::make_unique<RealMachine>(goldenMachineConfig());
    src.machine->setFaultPlan(nullptr);
    src.hv = std::make_unique<Hypervisor>(*src.machine, goldenHvConfig());
    MiniVmsConfig cfg = goldenVmsConfig();
    VmConfig vc;
    vc.memBytes = cfg.memBytes;
    src.vm = &src.hv->createVm(vc);
    MiniVmsImage img = buildMiniVms(cfg);
    src.hv->loadVmImage(*src.vm, 0, img.image);
    src.hv->startVm(*src.vm, img.entry);
    src.resultBase = img.resultBase;
    if (boot_budget > 0) {
        src.hv->run(boot_budget);
        // The interesting image is a mid-flight one: sealing a halted
        // VM would make every equivalence check below vacuous.
        EXPECT_EQ(src.vm->haltReason, VmHaltReason::None);
    }
    return src;
}

ForkOutcome
runForkOut(GoldenFork &f, PhysAddr result_base)
{
    f.machine->setFaultPlan(nullptr);
    f.hv->run(400000000);
    EXPECT_EQ(f.machine->memory().read32(
                  f.vm->vmPhysToReal(result_base)),
              MiniVmsImage::kResultMagic);
    return outcomeOf(*f.machine, *f.vm);
}

// ---------------------------------------------------------------------------
// Seal/fork equivalence
// ---------------------------------------------------------------------------

TEST(GoldenImage, ForkResumesAtTheSealedState)
{
    // Counter guest sealed mid-loop: the fork must start exactly at
    // the sealed instant and run the remainder to completion.
    MachineConfig mc = goldenMachineConfig();
    RealMachine m(mc);
    m.setFaultPlan(nullptr);
    Hypervisor hv(m, goldenHvConfig());
    VmConfig vc;
    vc.memBytes = 256 * 1024;
    VirtualMachine &vm = hv.createVm(vc);

    CodeBuilder b(0x200);
    Label loop = b.newLabel();
    b.movl(Op::imm(50000), Op::reg(R6));
    b.bind(loop);
    b.incl(Op::abs(0x1000));
    b.sobgtr(Op::reg(R6), loop);
    b.halt();
    auto image = b.finish();
    hv.loadVmImage(vm, 0x200, image);
    hv.startVm(vm, 0x200);
    hv.run(20000);

    const Longword mid = m.memory().read32(vm.vmPhysToReal(0x1000));
    ASSERT_GT(mid, 0u);
    ASSERT_LT(mid, 50000u);

    const GoldenImage gold = GoldenImage::seal(hv, vm);
    ASSERT_TRUE(gold.sealed());

    GoldenFork f = gold.fork();
    // At rest the fork's VM region is byte-identical to the sealed
    // source: construction never writes into the VM's memory slice.
    EXPECT_EQ(vmMemoryDigest(*f.machine, *f.vm), vmMemoryDigest(m, vm));
    EXPECT_EQ(f.machine->memory().read32(f.vm->vmPhysToReal(0x1000)),
              mid);

    f.machine->setFaultPlan(nullptr);
    f.hv->run(10000000);
    EXPECT_EQ(f.vm->haltReason, VmHaltReason::HaltInstruction);
    EXPECT_EQ(f.machine->memory().read32(f.vm->vmPhysToReal(0x1000)),
              50000u);
    EXPECT_GT(f.vm->stats.shadowFills, 0u)
        << "the fork re-faults its shadow tables in on demand";
}

TEST(GoldenImage, TwoForksRunBitIdentical)
{
    GoldenSource src = bootMiniVms(400);
    const GoldenImage gold = GoldenImage::seal(*src.hv, *src.vm);
    // The image owns copies of everything; the source can go away.
    src.hv.reset();
    src.machine.reset();

    GoldenFork a = gold.fork();
    GoldenFork b = gold.fork();
    const ForkOutcome out_a = runForkOut(a, src.resultBase);
    const ForkOutcome out_b = runForkOut(b, src.resultBase);
    EXPECT_TRUE(out_a == out_b)
        << "forks of one image share nothing mutable";
}

TEST(GoldenImage, ForkMatchesRestoreOntoAFreshMachineBitForBit)
{
    GoldenSource src = bootMiniVms(400);
    // Snapshot and seal at the same suspend point: both captures see
    // the identical VM state (snapshotVm is idempotent on a suspended
    // VM with no I/O in flight).
    const VmSnapshot snap = snapshotVm(*src.hv, *src.vm);
    const GoldenImage gold = GoldenImage::seal(*src.hv, *src.vm);

    // Restore path: O(memory) full copy onto a fresh machine.
    RealMachine rm(goldenMachineConfig());
    rm.setFaultPlan(nullptr);
    Hypervisor rhv(rm, goldenHvConfig());
    VirtualMachine &rvm = restoreVm(rhv, snap);
    rhv.run(400000000);
    ASSERT_EQ(rm.memory().read32(rvm.vmPhysToReal(src.resultBase)),
              MiniVmsImage::kResultMagic);
    const ForkOutcome restored = outcomeOf(rm, rvm);

    // Fork path: O(pages-touched) CoW view of the same state.
    GoldenFork f = gold.fork();
    const ForkOutcome forked = runForkOut(f, src.resultBase);

    EXPECT_TRUE(forked == restored)
        << "the backing policy must be architecturally invisible";
}

TEST(GoldenImage, EagerCopyForkMatchesKernelCowBitForBit)
{
    GoldenSource src = bootMiniVms(400);
    const GoldenImage gold = GoldenImage::seal(*src.hv, *src.vm);
    src.hv.reset();
    src.machine.reset();

    GoldenFork eager = gold.fork(-1, CowBacking::EagerCopy);
    EXPECT_FALSE(eager.machine->memory().kernelCowActive());
    GoldenFork dflt = gold.fork();
    const ForkOutcome out_eager = runForkOut(eager, src.resultBase);
    const ForkOutcome out_dflt = runForkOut(dflt, src.resultBase);
    EXPECT_TRUE(out_eager == out_dflt);
    // Eager accounting is honest: nothing is shared.
    const CowStats cs = eager.machine->memory().cowStats();
    EXPECT_TRUE(cs.forked);
    EXPECT_FALSE(cs.kernelCow);
    EXPECT_EQ(cs.sharedBytes, 0u);
    EXPECT_EQ(cs.privateBytes, eager.machine->memory().ram().size());
}

// ---------------------------------------------------------------------------
// CoW accounting
// ---------------------------------------------------------------------------

TEST(GoldenImage, CowAccountingTracksTouchedPagesNotImageSize)
{
    GoldenSource src = bootMiniVms(400);
    const GoldenImage gold = GoldenImage::seal(*src.hv, *src.vm);

    GoldenFork f = gold.fork();
    const std::size_t ram_bytes = f.machine->memory().ram().size();
    {
        // Fork construction touches only VMM metadata pages (SCB,
        // idle page, shadow SPT, slot tables) - a small fraction of
        // the machine.
        const CowStats cs = f.machine->memory().cowStats();
        EXPECT_TRUE(cs.forked);
        EXPECT_EQ(cs.kernelCow, f.machine->memory().kernelCowActive());
        EXPECT_GT(cs.pagesTouched, 0u);
        EXPECT_LT(cs.pagesTouched,
                  (ram_bytes / kPageSize) / 2)
            << "an idle fork must not have touched most of the image";
        EXPECT_EQ(cs.privateBytes + cs.sharedBytes, ram_bytes);
        if (cs.kernelCow) {
            EXPECT_LT(cs.privateBytes, ram_bytes / 2)
                << "an idle fork's resident share must stay under half "
                   "the machine";
        }
        EXPECT_TRUE(f.vm->disk.forked());
        EXPECT_EQ(f.vm->disk.blocksTouched(), 0u)
            << "the fork has not written its disk yet";
    }

    const CowStats before = f.machine->memory().cowStats();
    runForkOut(f, src.resultBase);
    const CowStats after = f.machine->memory().cowStats();
    EXPECT_GT(after.pagesTouched, before.pagesTouched)
        << "running the guest dirties pages and the accounting follows";
    EXPECT_GT(f.vm->disk.blocksTouched(), 0u)
        << "the MiniVMS mix writes its disk";
    EXPECT_EQ(f.vm->disk.privateBytes() + f.vm->disk.sharedBytes(),
              f.vm->disk.size());

    // The same gauges surface through Stats for fleet aggregation.
    Stats s;
    f.machine->memory().publishCowStats(s);
    EXPECT_EQ(s.cowForkedRam, 1u);
    EXPECT_EQ(s.cowPagesTouched, after.pagesTouched);
    EXPECT_EQ(s.cowPrivateBytes, after.privateBytes);
    EXPECT_EQ(s.cowSharedBytes, after.sharedBytes);

    // Density: sixteen forks, each given a 500-instruction idle slice,
    // still share most of the image between them.
    constexpr int kIdleForks = 16;
    std::vector<GoldenFork> idle;
    for (int i = 0; i < kIdleForks; ++i) {
        idle.push_back(gold.fork(i));
        idle.back().machine->setFaultPlan(nullptr);
        idle.back().hv->run(500);
    }
    std::size_t idle_private = 0;
    std::size_t idle_shared = 0;
    for (GoldenFork &g : idle) {
        const CowStats cs = g.machine->memory().cowStats();
        idle_private += cs.privateBytes;
        idle_shared += cs.sharedBytes;
        for (int c = 0; c < kNumFaultClasses; ++c)
            EXPECT_EQ(g.machine->stats().faultsInjected[c], 0u);
    }
    if (gold.kernelBacked()) {
        EXPECT_GT(static_cast<double>(idle_shared) /
                      static_cast<double>(idle_private + idle_shared),
                  0.5)
            << "idle forks must share most of the image";
        EXPECT_LT(idle_private / kIdleForks, ram_bytes / 2)
            << "an idle fork's private bytes must stay under half the "
               "machine";
    }
}

// ---------------------------------------------------------------------------
// SMC containment across forks
// ---------------------------------------------------------------------------

TEST(GoldenImage, SelfModifyingForkDoesNotPerturbSiblings)
{
    // Guest that patches the immediate of a later movl on its own code
    // page: straight-line code the block/threaded tiers translate
    // ahead, so executing the patch requires the fork's own SMC
    // invalidation - against a CoW-shared host page.
    MachineConfig mc = goldenMachineConfig();
    RealMachine m(mc);
    m.setFaultPlan(nullptr);
    Hypervisor hv(m, goldenHvConfig());
    VmConfig vc;
    vc.memBytes = 256 * 1024;
    VirtualMachine &vm = hv.createVm(vc);

    // The patch store's destination is the address of the *immediate*
    // inside the movl at `tgt` (opcode D0, spec 8F, then 4 immediate
    // bytes - so labelAddress(tgt) + 2).  Emit it with a placeholder
    // destination first - the encoding length doesn't depend on the
    // value - then fix the placeholder up in the emitted bytes once
    // the label has resolved.
    CodeBuilder b(0x200);
    Label tgt = b.newLabel();
    b.movl(Op::imm(0x1111), Op::abs(0x1000));
    b.movl(Op::imm(0x2222), Op::abs(0xDEAD));
    b.bind(tgt);
    b.movl(Op::imm(0x9999), Op::abs(0x1004));
    b.halt();
    auto image = b.finish();
    const Longword imm_addr = b.labelAddress(tgt) + 2;
    bool placed = false;
    for (std::size_t i = 0; i + 4 <= image.size(); ++i) {
        Longword v;
        std::memcpy(&v, image.data() + i, 4);
        if (v == 0xDEAD) {
            std::memcpy(image.data() + i, &imm_addr, 4);
            placed = true;
            break;
        }
    }
    ASSERT_TRUE(placed);

    hv.loadVmImage(vm, 0x200, image);
    hv.startVm(vm, 0x200);
    const GoldenImage gold = GoldenImage::seal(hv, vm);

    GoldenFork a = gold.fork();
    GoldenFork sibling = gold.fork();
    a.machine->setFaultPlan(nullptr);
    a.hv->run(1000000);
    EXPECT_EQ(a.vm->haltReason, VmHaltReason::HaltInstruction);
    EXPECT_EQ(a.machine->memory().read32(a.vm->vmPhysToReal(0x1000)),
              0x1111u);
    EXPECT_EQ(a.machine->memory().read32(a.vm->vmPhysToReal(0x1004)),
              0x2222u)
        << "the patched immediate must take effect in the fork that "
           "patched it";

    // The sibling never ran: its view of the shared page is pristine,
    // and running it now reproduces the same (self-contained) result.
    GoldenFork fresh = gold.fork();
    EXPECT_EQ(vmMemoryDigest(*sibling.machine, *sibling.vm),
              vmMemoryDigest(*fresh.machine, *fresh.vm))
        << "fork A's SMC must be invisible to siblings at rest";
    sibling.machine->setFaultPlan(nullptr);
    sibling.hv->run(1000000);
    EXPECT_EQ(sibling.vm->haltReason, VmHaltReason::HaltInstruction);
    EXPECT_EQ(sibling.machine->memory().read32(
                  sibling.vm->vmPhysToReal(0x1004)),
              0x2222u);
    EXPECT_TRUE(outcomeOf(*sibling.machine, *sibling.vm) ==
                outcomeOf(*a.machine, *a.vm))
        << "run order across forks must not matter";
}

// ---------------------------------------------------------------------------
// API guard rails
// ---------------------------------------------------------------------------

TEST(GoldenImage, SealRejectsAHypervisorWithSiblingVms)
{
    RealMachine m(goldenMachineConfig());
    Hypervisor hv(m, goldenHvConfig());
    VmConfig vc;
    vc.memBytes = 256 * 1024;
    VirtualMachine &vm = hv.createVm(vc);
    hv.createVm(vc);
    EXPECT_THROW(GoldenImage::seal(hv, vm), std::invalid_argument)
        << "whole-machine RAM is part of the image; a sibling would "
           "leak into every fork";
}

TEST(GoldenImage, ForkBeforeSealThrows)
{
    GoldenImage empty;
    EXPECT_FALSE(empty.sealed());
    EXPECT_THROW(empty.fork(), std::logic_error);
}

// ---------------------------------------------------------------------------
// Fleet integration: the microreboot budget
// ---------------------------------------------------------------------------

/** Seal a crash-looping guest (reads past MEMSIZE after bumping a
 *  counter), started but not yet run. */
GoldenImage
sealCrashGuest()
{
    MachineConfig mc = goldenMachineConfig();
    RealMachine m(mc);
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

TEST(GoldenFleet, ReforkBudgetBoundsCrashRecovery)
{
    const GoldenImage gold = sealCrashGuest();

    FleetConfig fc;
    fc.workers = 2;
    fc.sliceInstructions = 5000;
    fc.machine = gold.machineConfig();
    fc.fleetSupervision.enabled = true;
    fc.fleetSupervision.restartBudget = 3;
    HypervisorFleet fleet(fc);
    const int bad = fleet.addForkedMember(gold);
    fleet.setFaultPlan(bad, nullptr);

    fleet.run(2000000);

    EXPECT_EQ(fleet.microreboots(), 3u)
        << "the budget bounds golden-image re-forks";
    EXPECT_EQ(fleet.health(bad), MemberHealth::Quarantined);
    EXPECT_EQ(fleet.vm(bad).haltReason, VmHaltReason::NonExistentMemory);
    EXPECT_EQ(fleet.machine(bad).memory().read32(
                  fleet.vm(bad).vmPhysToReal(0x3000)),
              1u)
        << "each re-fork starts over from the image, not from the "
           "crashed incarnation";
    // Retired incarnations' counters survive into the aggregates:
    // 3 microreboots + the final incarnation each bumped the counter
    // once.
    const Stats total = fleet.totalMachineStats();
    EXPECT_GT(total.instructions,
              fleet.machine(bad).stats().instructions)
        << "totals must include the retired incarnations";
    EXPECT_EQ(total.cowForkedRam, 1u)
        << "cow gauges describe live members, not retired ones";
}

// ---------------------------------------------------------------------------
// Host-resource fault paths: sealing/forking without memfd or mmap
// (FaultClass::HostAlloc, docs/ARCHITECTURE.md §6)
// ---------------------------------------------------------------------------

TEST(GoldenHostFaults, HostAllocPlanAtSealForcesBitIdenticalHeapFallback)
{
    // Reference image sealed on the happy path.
    GoldenSource a = bootMiniVms(400);
    const GoldenImage healthy = GoldenImage::seal(*a.hv, *a.vm);

    // Identical boot, but a host-alloc rule fires at the seal
    // (ordinal 0): memfd/seal fails, the image degrades to heap
    // backing - counted, and architecturally invisible to forks.
    GoldenSource b = bootMiniVms(400);
    FaultPlan plan(3);
    std::string error;
    ASSERT_TRUE(FaultPlan::parse("seed=3;host-alloc:at=0", &plan, &error))
        << error;
    b.machine->setFaultPlan(&plan);
    const GoldenImage degraded = GoldenImage::seal(*b.hv, *b.vm);
    b.machine->setFaultPlan(nullptr);

    EXPECT_FALSE(degraded.kernelBacked())
        << "the simulated memfd failure must take the heap path";
    EXPECT_EQ(b.machine->stats().faultsInjected[static_cast<int>(
                  FaultClass::HostAlloc)],
              1u)
        << "one decision per seal";
    EXPECT_EQ(simulatedHostAllocFailuresRemaining(), 0)
        << "the failure window must not leak past the seal";

    GoldenFork fk = healthy.fork();
    GoldenFork fh = degraded.fork();
    const ForkOutcome kernel_out = runForkOut(fk, a.resultBase);
    const ForkOutcome heap_out = runForkOut(fh, b.resultBase);
    EXPECT_TRUE(kernel_out == heap_out)
        << "heap-backed forks are bit-identical to kernel-CoW forks";
}

TEST(GoldenHostFaults, ForkTimeMapFailureDegradesToEagerCopy)
{
    // The microreboot path arms the same window around image.fork():
    // an mmap failure during reconstruction must fall back to an
    // eager copy with identical guest-visible behaviour.
    GoldenSource src = bootMiniVms(400);
    const GoldenImage gold = GoldenImage::seal(*src.hv, *src.vm);

    GoldenFork normal = gold.fork();
    const ForkOutcome want = runForkOut(normal, src.resultBase);

    setSimulatedHostAllocFailures(2);
    GoldenFork degraded = gold.fork();
    setSimulatedHostAllocFailures(0);
    const ForkOutcome got = runForkOut(degraded, src.resultBase);
    EXPECT_TRUE(want == got)
        << "CowBacking::Auto degrades, never diverges";
}

TEST(GoldenHostFaults, ExplicitEagerBackingMatchesAuto)
{
    // CowBacking::EagerCopy is the one selector of the full-copy
    // fallback; its forks must run exactly like kernel-CoW forks.
    GoldenSource src = bootMiniVms(400);
    const GoldenImage gold = GoldenImage::seal(*src.hv, *src.vm);

    GoldenFork cow = gold.fork(-1, CowBacking::Auto);
    GoldenFork eager = gold.fork(-1, CowBacking::EagerCopy);
    const ForkOutcome cow_out = runForkOut(cow, src.resultBase);
    const ForkOutcome eager_out = runForkOut(eager, src.resultBase);
    EXPECT_TRUE(cow_out == eager_out);
}

TEST(GoldenFleet, KilledForkStaysDownDespiteReforkBudget)
{
    const GoldenImage gold = sealCrashGuest();

    FleetConfig fc;
    fc.workers = 1;
    fc.sliceInstructions = 5000;
    fc.machine = gold.machineConfig();
    fc.fleetSupervision.enabled = true;
    fc.fleetSupervision.restartBudget = 100;
    HypervisorFleet fleet(fc);
    const int i = fleet.addForkedMember(gold);
    fleet.setFaultPlan(i, nullptr);
    fleet.killMember(i);

    fleet.run(2000000);

    EXPECT_EQ(fleet.microreboots(), 0u)
        << "a decommissioned member is never re-forked";
    EXPECT_EQ(fleet.vm(i).haltReason, VmHaltReason::VmmPolicy);
    EXPECT_EQ(fleet.machine(i).memory().read32(
                  fleet.vm(i).vmPhysToReal(0x3000)),
              0u)
        << "the killed member never executed";
}

} // namespace
} // namespace vvax
