/**
 * @file
 * Parallel hypervisor tests: the HypervisorFleet worker pool
 * (vmm/fleet.h, docs/ARCHITECTURE.md §7).
 *
 * The headline property is the fleet's determinism contract: an
 * N-worker fleet run retires exactly the same per-VM instruction
 * stream as a 1-worker run, so per-VM memory, disk and console
 * digests - and per-VM stats - are bit-identical across worker
 * counts, including under deterministic fault injection.
 *
 * The FleetSweep.* tests additionally honour VVAX_FAULT_PLAN, which
 * scripts/run_all.sh sets to sweep seeds (including a TSan tree).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fault/fault_plan.h"
#include "guest/miniultrix.h"
#include "guest/minivms.h"
#include "tests/harness.h"
#include "vmm/fleet.h"
#include "vmm/hypervisor.h"

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

/** FNV-1a over a VM's memory slice with the uptime mailbox longword
 *  zeroed (it holds VMM wall-clock time; in a fleet each member owns
 *  its clock, but zeroing it keeps the digest comparable to
 *  single-hypervisor runs too). */
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

// ---------------------------------------------------------------------------
// Stats merging: the X-macro keeps aggregation complete by
// construction - a new VmStats field is summed (and counted by the
// static_assert in vm_state.h) without touching any merge site.
// ---------------------------------------------------------------------------

TEST(StatsMerge, VmStatsOperatorSumsEveryField)
{
    VmStats a, b;
    std::uint64_t v = 1;
#define VVAX_TEST_FILL(name)                                                 \
    a.name = v;                                                              \
    b.name = 1000 + v;                                                       \
    v++;
    VVAX_VM_STATS_FIELDS(VVAX_TEST_FILL)
#undef VVAX_TEST_FILL
    a += b;
    v = 1;
#define VVAX_TEST_CHECK(name)                                                \
    EXPECT_EQ(a.name, 1000 + 2 * v) << #name;                                \
    v++;
    VVAX_VM_STATS_FIELDS(VVAX_TEST_CHECK)
#undef VVAX_TEST_CHECK
}

/** A Stats field as a flat run of counters: a scalar is one element,
 *  an array is all of its elements. */
std::span<std::uint64_t>
elements(std::uint64_t &field)
{
    return {&field, 1};
}

template <std::size_t N>
std::span<std::uint64_t>
elements(std::array<std::uint64_t, N> &field)
{
    return field;
}

TEST(StatsMerge, MachineStatsOperatorSumsCounters)
{
    // Every field and every array element, driven by the X-macro, so
    // a counter added later is covered without touching this test.
    Stats a, b;
    std::uint64_t v = 1;
#define VVAX_TEST_FILL(tag, type, name)                                      \
    for (std::uint64_t & e : elements(a.name))                               \
        e = v++;                                                             \
    for (std::uint64_t & e : elements(b.name))                               \
        e = 100000 + v++;
    VVAX_STATS_FIELDS(VVAX_TEST_FILL)
#undef VVAX_TEST_FILL

    // operator+= sums each element.
    Stats sum = a;
    sum += b;
#define VVAX_TEST_SUM(tag, type, name)                                       \
    for (std::size_t i = 0; i < elements(a.name).size(); ++i)                \
        EXPECT_EQ(elements(sum.name)[i],                                     \
                  elements(a.name)[i] + elements(b.name)[i])                 \
            << #name << "[" << i << "]";
    VVAX_STATS_FIELDS(VVAX_TEST_SUM)
#undef VVAX_TEST_SUM

    // operator== sees a change in exactly the Arch fields - the 20 the
    // lockstep contract compares.
    int arch_fields = 0;
#define VVAX_TEST_EQ(tag, type, name)                                        \
    arch_fields += StatsTag::tag == StatsTag::Arch;                          \
    for (std::size_t i = 0; i < elements(a.name).size(); ++i) {              \
        Stats changed = a;                                                   \
        elements(changed.name)[i]++;                                         \
        EXPECT_EQ(changed == a, StatsTag::tag != StatsTag::Arch)             \
            << #name << "[" << i << "]";                                     \
    }
    VVAX_STATS_FIELDS(VVAX_TEST_EQ)
#undef VVAX_TEST_EQ
    EXPECT_EQ(arch_fields, 20);

    // Retirement zeroes exactly the Gauge fields.
    Stats retired = a;
    retired.retireGauges();
#define VVAX_TEST_RETIRE(tag, type, name)                                    \
    for (std::size_t i = 0; i < elements(a.name).size(); ++i)                \
        EXPECT_EQ(elements(retired.name)[i],                                 \
                  StatsTag::tag == StatsTag::Gauge ? 0                       \
                                                   : elements(a.name)[i])    \
            << #name << "[" << i << "]";
    VVAX_STATS_FIELDS(VVAX_TEST_RETIRE)
#undef VVAX_TEST_RETIRE
}

/** The disk-heavy MiniVMS mix most fleets here are built from. */
MiniVmsConfig
diskHeavyVms()
{
    MiniVmsConfig cfg;
    cfg.numProcesses = 2;
    cfg.workloads = {Workload::Transaction, Workload::Edit};
    cfg.iterations = 6;
    cfg.dataPagesPerProcess = 8;
    return cfg;
}

FaultPlan
aggressivePlan()
{
    FaultPlan plan(97);
    std::string error;
    EXPECT_TRUE(FaultPlan::parse(
        "seed=97;disk-transient:every=3;torn:every=2;ecc:every=16;"
        "spurious:every=9",
        &plan, &error))
        << error;
    return plan;
}

// ---------------------------------------------------------------------------
// Fleet determinism across worker counts
// ---------------------------------------------------------------------------

/** Per-member outcome of a fleet run, for cross-worker-count
 *  comparison. */
struct MemberOutcome
{
    std::uint64_t vmMemory = 0;
    std::uint64_t vmDisk = 0;
    std::string console;
    Longword magic = 0;
    VmStats vmStats;
    Stats stats;

    bool operator==(const MemberOutcome &other) const = default;
};

struct FleetOutcome
{
    std::vector<MemberOutcome> members;
    VmStats totalVm;

    bool operator==(const FleetOutcome &other) const = default;
};

/** Build the 4-VM mixed fleet: two MiniVMS mixes, one MiniUltrix,
 *  one disk-heavy MiniVMS. */
FleetOutcome
runMixedFleet(int workers,
              const std::vector<const FaultPlan *> *plans = nullptr,
              const std::vector<ExecTier> *tiers = nullptr)
{
    FleetConfig fc;
    fc.workers = workers;
    fc.sliceInstructions = 50000;
    fc.machine.ramBytes = 16 * 1024 * 1024;
    fc.machine.level = MicrocodeLevel::Modified;
    fc.hypervisor.tickCycles = 2000;
    fc.hypervisor.ticksPerQuantum = 2;
    HypervisorFleet fleet(fc);

    std::vector<PhysAddr> resultBase(4, 0);
    std::vector<Longword> magicWant(4, 0);

    MiniVmsConfig vms_a = diskHeavyVms();
    MiniVmsConfig vms_b;
    vms_b.numProcesses = 3;
    vms_b.workloads = {Workload::Transaction, Workload::PageStress,
                       Workload::Edit};
    vms_b.iterations = 8;
    vms_b.dataPagesPerProcess = 16;
    MiniUltrixConfig ux;
    ux.diskReadsPerProcess = 4;
    ux.iterations = 8;
    MiniVmsConfig vms_c = diskHeavyVms();
    vms_c.iterations = 4;

    auto addVms = [&](const MiniVmsConfig &cfg) {
        VmConfig vc;
        vc.memBytes = cfg.memBytes;
        const int i = fleet.addVm(vc);
        MiniVmsImage img = buildMiniVms(cfg);
        fleet.loadVmImage(i, 0, img.image);
        fleet.startVm(i, img.entry);
        resultBase[i] = img.resultBase;
        magicWant[i] = MiniVmsImage::kResultMagic;
        return i;
    };
    addVms(vms_a);
    addVms(vms_b);
    {
        VmConfig vc;
        vc.memBytes = ux.memBytes;
        const int i = fleet.addVm(vc);
        MiniUltrixImage img = buildMiniUltrix(ux);
        fleet.loadVmImage(i, 0, img.image);
        fleet.startVm(i, img.entry);
        resultBase[i] = img.resultBase;
        magicWant[i] = MiniUltrixImage::kResultMagic;
    }
    addVms(vms_c);

    if (plans != nullptr) {
        for (int i = 0; i < fleet.size(); ++i)
            fleet.setFaultPlan(i, (*plans)[i]);
    }
    if (tiers != nullptr) {
        for (int i = 0; i < fleet.size(); ++i)
            fleet.machine(i).cpu().setExecTier((*tiers)[i]);
    }

    fleet.run(400000000);

    FleetOutcome out;
    for (int i = 0; i < fleet.size(); ++i) {
        MemberOutcome mo;
        RealMachine &m = fleet.machine(i);
        VirtualMachine &vm = fleet.vm(i);
        mo.vmMemory = vmMemoryDigest(m, vm);
        mo.vmDisk = fnv1a(vm.disk);
        mo.console = vm.console.output();
        mo.magic = m.memory().read32(vm.vmPhysToReal(resultBase[i]));
        if (m.faultPlan() == nullptr) {
            EXPECT_EQ(mo.magic, magicWant[i]) << "member " << i;
        } else {
            // Under a plan the member either rode it out or halted on
            // something the VMM contained (FaultSweep contract).
            EXPECT_TRUE(mo.magic == magicWant[i] ||
                        vm.haltReason != VmHaltReason::None)
                << "member " << i;
        }
        mo.vmStats = vm.stats;
        mo.stats = m.stats();
        out.members.push_back(std::move(mo));
    }
    out.totalVm = fleet.totalVmStats();
    return out;
}

TEST(FleetDeterminism, FourVmMixIsBitIdenticalAcrossWorkerCounts)
{
    const FleetOutcome one = runMixedFleet(1);
    const FleetOutcome two = runMixedFleet(2);
    const FleetOutcome four = runMixedFleet(4);
    ASSERT_EQ(one.members.size(), 4u);
    EXPECT_GT(one.members[0].vmStats.diskKcallBatches, 0u)
        << "the mix must exercise kDiskBatch rings";
    for (std::size_t i = 0; i < one.members.size(); ++i) {
        EXPECT_TRUE(one.members[i] == four.members[i])
            << "member " << i
            << ": a 4-worker run must retire the same per-VM stream "
               "as a 1-worker run";
        EXPECT_TRUE(one.members[i] == two.members[i]) << "member " << i;
    }
    EXPECT_TRUE(one == four);
}

TEST(FleetDeterminism, MixedExecTiersAreLockstepAndWorkerCountInvariant)
{
    // Each member retires hot code through a different host execution
    // tier (docs/ARCHITECTURE.md §5c).  The tier is a host strategy,
    // never an architectural input: every per-member digest, console
    // stream, VmStats field, and architectural Stats counter must
    // match the uniform-threaded fleet, and the mixed fleet must stay
    // bit-identical across worker counts.
    const std::vector<ExecTier> tiers = {
        ExecTier::Threaded, ExecTier::Fast, ExecTier::Reference,
        ExecTier::Threaded};
    const FleetOutcome uniform = runMixedFleet(2);
    const FleetOutcome mixed2 = runMixedFleet(2, nullptr, &tiers);
    const FleetOutcome mixed4 = runMixedFleet(4, nullptr, &tiers);
    ASSERT_EQ(uniform.members.size(), mixed2.members.size());
    for (std::size_t i = 0; i < uniform.members.size(); ++i) {
        EXPECT_TRUE(uniform.members[i] == mixed2.members[i])
            << "member " << i
            << ": the exec tier must be architecturally invisible";
    }
    EXPECT_TRUE(mixed2 == mixed4)
        << "a mixed-tier fleet must stay worker-count invariant";
}

TEST(FleetDeterminism, TotalsEqualTheSumOfMembers)
{
    const FleetOutcome out = runMixedFleet(2);
    VmStats vmSum;
    for (const MemberOutcome &mo : out.members)
        vmSum += mo.vmStats;
    EXPECT_TRUE(vmSum == out.totalVm);
}

// ---------------------------------------------------------------------------
// Fault injection under the pool: lockstep and containment
// ---------------------------------------------------------------------------

TEST(FleetFaults, VictimPlanIsContainedAndWorkerCountInvariant)
{
    const FaultPlan victim = aggressivePlan();
    // Member 0 takes the aggressive plan; 1..3 run fault-free
    // (explicit nullptr also clears any VVAX_FAULT_PLAN the
    // environment installed, making this test self-contained).
    const std::vector<const FaultPlan *> plans = {&victim, nullptr,
                                                  nullptr, nullptr};
    const std::vector<const FaultPlan *> clean = {nullptr, nullptr,
                                                  nullptr, nullptr};

    const FleetOutcome faulted1 = runMixedFleet(1, &plans);
    const FleetOutcome faulted4 = runMixedFleet(4, &plans);
    const FleetOutcome healthy = runMixedFleet(4, &clean);

    EXPECT_TRUE(faulted1 == faulted4)
        << "fault decisions key on per-VM ordinals, not host timing";
    EXPECT_GT(faulted4.members[0].stats.faultsInjected[static_cast<int>(
                  FaultClass::DiskTransient)],
              0u)
        << "the victim's plan must actually fire";
    for (std::size_t i = 1; i < 4; ++i) {
        EXPECT_TRUE(faulted4.members[i] == healthy.members[i])
            << "member " << i
            << ": faults against member 0 must not perturb siblings";
        for (int c = 0; c < kNumFaultClasses; ++c)
            EXPECT_EQ(faulted4.members[i].stats.faultsInjected[c], 0u);
    }
}

// ---------------------------------------------------------------------------
// Cross-thread console input
// ---------------------------------------------------------------------------

/** Echo guest: enables RX interrupts and spins until @p chars have
 *  been received, echoing each; then halts. */
std::vector<Byte>
buildEchoGuest(int chars, Longword *entry, Longword *scb_slot,
               Longword *handler)
{
    CodeBuilder b(0x200);
    Label isr = b.newLabel();
    Label spin = b.newLabel();
    b.mtpr(Op::imm(0xE00), Ipr::SCBB);
    b.mtpr(Op::imm(0x8000), Ipr::KSP);
    b.mtpr(Op::imm(0x8800), Ipr::ISP);
    b.clrl(Op::reg(R5));
    b.mtpr(Op::imm(consolecsr::kInterruptEnable), Ipr::RXCS);
    b.mtpr(Op::lit(0), Ipr::IPL);
    b.bind(spin);
    b.cmpl(Op::reg(R5), Op::imm(chars));
    b.blss(spin);
    b.halt();
    b.align(4);
    b.bind(isr);
    b.mfpr(Ipr::RXDB, Op::reg(R6));
    b.mtpr(Op::reg(R6), Ipr::TXDB); // echo
    b.incl(Op::reg(R5));
    b.rei();

    *entry = 0x200;
    *scb_slot = 0xE00 + static_cast<Word>(ScbVector::ConsoleReceive);
    *handler = b.labelAddress(isr) | 1; // interrupt stack
    return b.finish();
}

FleetOutcome
runEchoFleet(int workers, Longword at_tick)
{
    FleetConfig fc;
    fc.workers = workers;
    fc.machine.ramBytes = 16 * 1024 * 1024;
    fc.machine.level = MicrocodeLevel::Modified;
    fc.hypervisor.tickCycles = 2000;
    HypervisorFleet fleet(fc);

    for (int i = 0; i < 2; ++i) {
        Longword entry, scb_slot, handler;
        auto image = buildEchoGuest(2, &entry, &scb_slot, &handler);
        const int idx = fleet.addVm(VmConfig{});
        fleet.loadVmImage(idx, 0x200, image);
        Byte e[4];
        std::memcpy(e, &handler, 4);
        fleet.loadVmImage(idx, scb_slot, std::span<const Byte>(e, 4));
        fleet.startVm(idx, entry);
        // Mid-quantum input: one char immediately, one at a virtual
        // tick the members reach while running.  Delivery is keyed on
        // the member's own tick count, so every worker count delivers
        // at the same guest instruction boundary.
        fleet.postConsoleInput(i, std::string(1, char('A' + i)));
        fleet.postConsoleInput(i, std::string(1, char('a' + i)),
                               at_tick);
    }
    fleet.run(50000000);

    FleetOutcome out;
    for (int i = 0; i < fleet.size(); ++i) {
        MemberOutcome mo;
        RealMachine &m = fleet.machine(i);
        VirtualMachine &vm = fleet.vm(i);
        EXPECT_EQ(vm.haltReason, VmHaltReason::HaltInstruction)
            << "member " << i << " must receive both characters";
        mo.vmMemory = vmMemoryDigest(m, vm);
        mo.console = vm.console.output();
        mo.vmStats = vm.stats;
        mo.stats = m.stats();
        out.members.push_back(std::move(mo));
    }
    return out;
}

TEST(FleetConsole, MidQuantumInputIsDeliveredInLockstep)
{
    const FleetOutcome one = runEchoFleet(1, 5);
    const FleetOutcome two = runEchoFleet(2, 5);
    ASSERT_EQ(one.members.size(), 2u);
    EXPECT_EQ(one.members[0].console, "Aa");
    EXPECT_EQ(one.members[1].console, "Bb");
    for (std::size_t i = 0; i < one.members.size(); ++i) {
        EXPECT_TRUE(one.members[i] == two.members[i])
            << "member " << i
            << ": tick-keyed mailbox delivery must not depend on the "
               "worker count";
    }
}

TEST(FleetConsole, ConcurrentPostsFromAnotherThreadAreSafe)
{
    FleetConfig fc;
    fc.workers = 2;
    fc.machine.ramBytes = 16 * 1024 * 1024;
    fc.machine.level = MicrocodeLevel::Modified;
    fc.hypervisor.tickCycles = 2000;
    HypervisorFleet fleet(fc);

    constexpr int kChars = 4;
    for (int i = 0; i < 2; ++i) {
        Longword entry, scb_slot, handler;
        auto image = buildEchoGuest(kChars, &entry, &scb_slot, &handler);
        const int idx = fleet.addVm(VmConfig{});
        fleet.loadVmImage(idx, 0x200, image);
        Byte e[4];
        std::memcpy(e, &handler, 4);
        fleet.loadVmImage(idx, scb_slot, std::span<const Byte>(e, 4));
        fleet.startVm(idx, entry);
    }

    // The poster races the running workers: this is exactly the
    // cross-thread entry point the mailbox exists for (and what the
    // TSan tree checks).
    std::thread poster([&] {
        for (int c = 0; c < kChars; ++c) {
            for (int i = 0; i < 2; ++i)
                fleet.postConsoleInput(i, std::string(1, char('0' + c)));
        }
    });
    fleet.run(400000000);
    poster.join();

    for (int i = 0; i < 2; ++i) {
        VirtualMachine &vm = fleet.vm(i);
        EXPECT_EQ(vm.haltReason, VmHaltReason::HaltInstruction)
            << "member " << i;
        EXPECT_EQ(vm.console.output(), "0123")
            << "one poster, one member: arrival order is preserved";
    }
}

// ---------------------------------------------------------------------------
// Supervised fleet members
// ---------------------------------------------------------------------------

TEST(FleetSupervisor, RestartsACrashingMemberAndLeavesSiblingsAlone)
{
    // Booted (addVm) members recover on the same path as forks: each
    // seals its own golden image at startVm and microreboots from it.
    FleetConfig fc;
    fc.workers = 2;
    fc.sliceInstructions = 5000;
    fc.machine.ramBytes = 16 * 1024 * 1024;
    fc.machine.level = MicrocodeLevel::Modified;
    fc.fleetSupervision.enabled = true;
    fc.fleetSupervision.restartBudget = 3;
    HypervisorFleet fleet(fc);

    // Member 0 crashes deterministically (reads past MEMSIZE after a
    // little progress); member 1 halts cleanly.
    CodeBuilder crash(0x200);
    crash.incl(Op::abs(0x3000));
    crash.movl(Op::abs(0x00F00000), Op::reg(R0));
    crash.halt();

    CodeBuilder clean(0x200);
    clean.movl(Op::imm(0x600D), Op::abs(0x3000));
    clean.halt();

    VmConfig vc;
    vc.memBytes = 256 * 1024;
    const int bad = fleet.addVm(vc);
    auto crash_img = crash.finish();
    fleet.loadVmImage(bad, 0x200, crash_img);
    fleet.startVm(bad, 0x200);

    const int good = fleet.addVm(vc);
    auto clean_img = clean.finish();
    fleet.loadVmImage(good, 0x200, clean_img);
    fleet.startVm(good, 0x200);

    fleet.run(2000000);

    EXPECT_EQ(fleet.microreboots(), 3u) << "the budget bounds the restarts";
    EXPECT_EQ(fleet.health(bad), MemberHealth::Quarantined);
    EXPECT_EQ(fleet.quarantines(), 1u);
    EXPECT_EQ(fleet.vm(bad).haltReason, VmHaltReason::NonExistentMemory);
    EXPECT_EQ(fleet.machine(bad).memory().read32(
                  fleet.vm(bad).vmPhysToReal(0x3000)),
              1u)
        << "each microreboot rolled the counter back to the image "
           "sealed at startVm";
    EXPECT_EQ(fleet.health(good), MemberHealth::Healthy);
    EXPECT_EQ(fleet.vm(good).haltReason, VmHaltReason::HaltInstruction);
    EXPECT_EQ(fleet.machine(good).memory().read32(
                  fleet.vm(good).vmPhysToReal(0x3000)),
              0x600Du);
}

// ---------------------------------------------------------------------------
// Golden-image forked members (vmm/golden_image.h)
// ---------------------------------------------------------------------------

/** Boot the disk-heavy MiniVMS mix partway (fault-free) and seal it.
 *  The source machine is discarded; the image owns everything. */
GoldenImage
sealedMiniVmsImage(std::uint64_t boot_budget)
{
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    m.setFaultPlan(nullptr); // golden boots are reproducible
    HypervisorConfig hc;
    hc.tickCycles = 2000;
    hc.ticksPerQuantum = 2;
    Hypervisor hv(m, hc);
    MiniVmsConfig cfg = diskHeavyVms();
    VmConfig vc;
    vc.memBytes = cfg.memBytes;
    VirtualMachine &vm = hv.createVm(vc);
    MiniVmsImage img = buildMiniVms(cfg);
    hv.loadVmImage(vm, 0, img.image);
    hv.startVm(vm, img.entry);
    hv.run(boot_budget);
    return GoldenImage::seal(hv, vm);
}

/** Four forks of @p image on @p workers threads, with optional
 *  per-member plans and exec tiers (mirrors runMixedFleet). */
FleetOutcome
runForkedFleet(int workers, const GoldenImage &image,
               const std::vector<const FaultPlan *> *plans = nullptr,
               const std::vector<ExecTier> *tiers = nullptr)
{
    FleetConfig fc;
    fc.workers = workers;
    fc.sliceInstructions = 50000;
    fc.machine = image.machineConfig();
    HypervisorFleet fleet(fc);
    fleet.addForkedMember(image, 4);

    if (plans != nullptr) {
        for (int i = 0; i < fleet.size(); ++i)
            fleet.setFaultPlan(i, (*plans)[i]);
    }
    if (tiers != nullptr) {
        for (int i = 0; i < fleet.size(); ++i)
            fleet.machine(i).cpu().setExecTier((*tiers)[i]);
    }

    fleet.run(400000000);

    const PhysAddr result_base = buildMiniVms(diskHeavyVms()).resultBase;
    FleetOutcome out;
    for (int i = 0; i < fleet.size(); ++i) {
        MemberOutcome mo;
        RealMachine &m = fleet.machine(i);
        VirtualMachine &vm = fleet.vm(i);
        mo.vmMemory = vmMemoryDigest(m, vm);
        mo.vmDisk = fnv1a(vm.disk);
        mo.console = vm.console.output();
        mo.magic = m.memory().read32(vm.vmPhysToReal(result_base));
        if (m.faultPlan() == nullptr) {
            EXPECT_EQ(mo.magic, MiniVmsImage::kResultMagic)
                << "fork " << i;
        } else {
            EXPECT_TRUE(mo.magic == MiniVmsImage::kResultMagic ||
                        vm.haltReason != VmHaltReason::None)
                << "fork " << i;
        }
        mo.vmStats = vm.stats;
        mo.stats = m.stats();
        out.members.push_back(std::move(mo));
    }
    out.totalVm = fleet.totalVmStats();
    return out;
}

TEST(FleetFork, ForkedFleetIsBitIdenticalAcrossWorkerCounts)
{
    const GoldenImage gold = sealedMiniVmsImage(400);
    const FleetOutcome one = runForkedFleet(1, gold);
    const FleetOutcome two = runForkedFleet(2, gold);
    const FleetOutcome four = runForkedFleet(4, gold);
    ASSERT_EQ(one.members.size(), 4u);
    for (std::size_t i = 0; i < one.members.size(); ++i) {
        EXPECT_TRUE(one.members[i] == four.members[i])
            << "fork " << i
            << ": forked members obey the same lockstep contract as "
               "booted ones";
        EXPECT_TRUE(one.members[i] == two.members[i]) << "fork " << i;
    }
    EXPECT_TRUE(one == four);
}

TEST(FleetFork, MixedExecTiersOverForksAreLockstep)
{
    // The exec tier is a host strategy over CoW-shared pages exactly
    // as over owned pages: per-fork digests must not depend on it,
    // nor on the worker count.
    const GoldenImage gold = sealedMiniVmsImage(400);
    const std::vector<ExecTier> tiers = {
        ExecTier::Threaded, ExecTier::Fast, ExecTier::Reference,
        ExecTier::Threaded};
    const FleetOutcome uniform = runForkedFleet(2, gold);
    const FleetOutcome mixed2 = runForkedFleet(2, gold, nullptr, &tiers);
    const FleetOutcome mixed4 = runForkedFleet(4, gold, nullptr, &tiers);
    for (std::size_t i = 0; i < uniform.members.size(); ++i) {
        EXPECT_TRUE(uniform.members[i].vmMemory ==
                        mixed2.members[i].vmMemory &&
                    uniform.members[i].vmDisk ==
                        mixed2.members[i].vmDisk &&
                    uniform.members[i].console ==
                        mixed2.members[i].console &&
                    uniform.members[i].magic == mixed2.members[i].magic &&
                    uniform.members[i].vmStats == mixed2.members[i].vmStats)
            << "fork " << i
            << ": the tier must stay architecturally invisible over "
               "CoW backing";
    }
    EXPECT_TRUE(mixed2 == mixed4);
}

TEST(FleetFork, FaultedForkIsContainedAndSiblingsMatchUnfaulted)
{
    const GoldenImage gold = sealedMiniVmsImage(400);
    const FaultPlan victim = aggressivePlan();
    const std::vector<const FaultPlan *> plans = {&victim, nullptr,
                                                  nullptr, nullptr};
    const std::vector<const FaultPlan *> clean = {nullptr, nullptr,
                                                  nullptr, nullptr};

    const FleetOutcome faulted1 = runForkedFleet(1, gold, &plans);
    const FleetOutcome faulted4 = runForkedFleet(4, gold, &plans);
    const FleetOutcome healthy = runForkedFleet(4, gold, &clean);

    EXPECT_TRUE(faulted1 == faulted4)
        << "fault ordinals are per-VM; fork order and workers are "
           "irrelevant";
    EXPECT_GT(faulted4.members[0].stats.faultsInjected[static_cast<int>(
                  FaultClass::DiskTransient)],
              0u)
        << "the victim fork's plan must actually fire";
    for (std::size_t i = 1; i < 4; ++i) {
        EXPECT_TRUE(faulted4.members[i] == healthy.members[i])
            << "fork " << i
            << ": faults against fork 0 must not leak through the "
               "shared image";
        for (int c = 0; c < kNumFaultClasses; ++c)
            EXPECT_EQ(faulted4.members[i].stats.faultsInjected[c], 0u);
    }
    // Identical clean forks of one image are pairwise bit-identical:
    // nothing about the shared backing is order- or index-dependent.
    for (std::size_t i = 1; i < 4; ++i)
        EXPECT_TRUE(healthy.members[i] == healthy.members[0])
            << "fork " << i;
}

// ---------------------------------------------------------------------------
// VVAX_FAULT_PLAN sweep hooks (scripts/run_all.sh)
// ---------------------------------------------------------------------------

TEST(FleetSweep, WorkerCountLockstepHoldsUnderTheEnvironmentPlan)
{
    // Each member's RealMachine installs VVAX_FAULT_PLAN automatically
    // (fault identities are the member indices); with the variable
    // unset this is a plain (still valuable) lockstep check.
    const FleetOutcome one = runMixedFleet(1);
    const FleetOutcome four = runMixedFleet(4);
    EXPECT_TRUE(one == four);
}

TEST(FleetSweep, HealthyMembersAreContainedUnderTheEnvironmentPlan)
{
    // Environment plan (if any) stays armed on member 0 only; the
    // siblings must match a fully fault-free fleet bit for bit.
    FaultPlan env_copy;
    const bool have_env = [&] {
        MachineConfig mc;
        RealMachine probe(mc);
        if (probe.faultPlan() == nullptr)
            return false;
        env_copy = *probe.faultPlan();
        return true;
    }();

    const FaultPlan victim = have_env ? env_copy : aggressivePlan();
    const std::vector<const FaultPlan *> plans = {&victim, nullptr,
                                                  nullptr, nullptr};
    const std::vector<const FaultPlan *> clean = {nullptr, nullptr,
                                                  nullptr, nullptr};
    const FleetOutcome faulted = runMixedFleet(4, &plans);
    const FleetOutcome healthy = runMixedFleet(4, &clean);
    for (std::size_t i = 1; i < 4; ++i) {
        EXPECT_TRUE(faulted.members[i] == healthy.members[i])
            << "member " << i;
    }
}

// ---------------------------------------------------------------------------
// Crash-only supervision: health machine + golden-image microreboot
// (FleetConfig::fleetSupervision, docs/ARCHITECTURE.md §6d)
// ---------------------------------------------------------------------------

/** Seal a crash-looping guest (bumps a counter, then reads past
 *  MEMSIZE), started but not yet run: every fork of it crashes with
 *  NonExistentMemory on its third instruction. */
GoldenImage
sealedCrashImage()
{
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    m.setFaultPlan(nullptr);
    HypervisorConfig hc;
    hc.tickCycles = 2000;
    hc.ticksPerQuantum = 2;
    Hypervisor hv(m, hc);
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

/** FleetOutcome plus the supervision-layer observables. */
struct SupervisedOutcome
{
    FleetOutcome base;
    std::vector<MemberHealth> health;
    std::vector<VmHaltReason> haltReasons;
    std::uint64_t healthTransitions = 0;
    std::uint64_t microreboots = 0;
    std::uint64_t quarantines = 0;
    std::uint64_t pagesRecopied = 0;

    bool operator==(const SupervisedOutcome &other) const = default;
};

/** Four supervised forks of @p image (mirrors runForkedFleet with
 *  FleetConfig::fleetSupervision enabled). */
SupervisedOutcome
runSupervisedForkedFleet(int workers, const GoldenImage &image,
                         const std::vector<const FaultPlan *> *plans =
                             nullptr)
{
    FleetConfig fc;
    fc.workers = workers;
    fc.sliceInstructions = 50000;
    fc.machine = image.machineConfig();
    fc.fleetSupervision.enabled = true;
    HypervisorFleet fleet(fc);
    fleet.addForkedMember(image, 4);

    if (plans != nullptr) {
        for (int i = 0; i < fleet.size(); ++i)
            fleet.setFaultPlan(i, (*plans)[i]);
    }

    fleet.run(400000000);

    const PhysAddr result_base = buildMiniVms(diskHeavyVms()).resultBase;
    SupervisedOutcome out;
    for (int i = 0; i < fleet.size(); ++i) {
        MemberOutcome mo;
        RealMachine &m = fleet.machine(i);
        VirtualMachine &vm = fleet.vm(i);
        mo.vmMemory = vmMemoryDigest(m, vm);
        mo.vmDisk = fnv1a(vm.disk);
        mo.console = vm.console.output();
        mo.magic = m.memory().read32(vm.vmPhysToReal(result_base));
        if (m.faultPlan() == nullptr) {
            EXPECT_EQ(mo.magic, MiniVmsImage::kResultMagic)
                << "fork " << i;
        } else {
            EXPECT_TRUE(mo.magic == MiniVmsImage::kResultMagic ||
                        vm.haltReason != VmHaltReason::None)
                << "fork " << i;
        }
        mo.vmStats = vm.stats;
        mo.stats = m.stats();
        out.base.members.push_back(std::move(mo));
        out.health.push_back(fleet.health(i));
        out.haltReasons.push_back(vm.haltReason);
    }
    out.base.totalVm = fleet.totalVmStats();
    out.healthTransitions = fleet.barrierStats().supHealthTransitions;
    out.microreboots = fleet.microreboots();
    out.quarantines = fleet.quarantines();
    out.pagesRecopied = fleet.pagesRecopied();
    return out;
}

TEST(FleetSupervision, CrashingForksAreMicrorebootedThenQuarantined)
{
    const GoldenImage gold = sealedCrashImage();

    auto runCrashFleet = [&](int workers) {
        FleetConfig fc;
        fc.workers = workers;
        fc.sliceInstructions = 5000;
        fc.machine = gold.machineConfig();
        fc.fleetSupervision.enabled = true;
        fc.fleetSupervision.restartBudget = 2;
        fc.fleetSupervision.backoffSlices = 1;
        HypervisorFleet fleet(fc);
        const int first = fleet.addForkedMember(gold, 2);

        // A healthy booted sibling shares the fleet: backoff is
        // counted in the crashed member's own slices while it is
        // halted but not done, so no sibling waits it out.
        CodeBuilder clean(0x200);
        clean.movl(Op::imm(0x600D), Op::abs(0x3000));
        clean.halt();
        VmConfig vc;
        vc.memBytes = 256 * 1024;
        const int good = fleet.addVm(vc);
        auto clean_img = clean.finish();
        fleet.loadVmImage(good, 0x200, clean_img);
        fleet.startVm(good, 0x200);

        fleet.run(4000000);

        EXPECT_EQ(fleet.microreboots(), 4u)
            << "2 crashing forks x restartBudget 2";
        EXPECT_EQ(fleet.quarantines(), 2u);
        EXPECT_GT(fleet.pagesRecopied(), 0u)
            << "each microreboot recopies the fresh fork's CoW floor";
        // Recovery cost: a microreboot recopies less than half of what
        // a full snapshot restore of the machine's RAM would copy.
        EXPECT_LT(static_cast<double>(fleet.pagesRecopied()) /
                      static_cast<double>(fleet.microreboots()),
                  0.5 * static_cast<double>(gold.ramBytes() / kPageSize));
        SupervisedOutcome out;
        for (int i = first; i < first + 2; ++i) {
            EXPECT_EQ(fleet.health(i), MemberHealth::Quarantined)
                << "fork " << i;
            EXPECT_EQ(fleet.vm(i).haltReason,
                      VmHaltReason::NonExistentMemory);
            EXPECT_EQ(fleet.machine(i).memory().read32(
                          fleet.vm(i).vmPhysToReal(0x3000)),
                      1u)
                << "each microreboot starts over from the image, not "
                   "from the crashed incarnation";
            MemberOutcome mo;
            mo.vmMemory =
                vmMemoryDigest(fleet.machine(i), fleet.vm(i));
            mo.vmStats = fleet.vm(i).stats;
            mo.stats = fleet.machine(i).stats();
            out.base.members.push_back(std::move(mo));
            out.health.push_back(fleet.health(i));
        }
        EXPECT_EQ(fleet.health(good), MemberHealth::Healthy);
        EXPECT_EQ(fleet.vm(good).haltReason,
                  VmHaltReason::HaltInstruction);
        EXPECT_EQ(fleet.machine(good).memory().read32(
                      fleet.vm(good).vmPhysToReal(0x3000)),
                  0x600Du)
            << "the healthy sibling ran to completion";

        // The gauges surface through the live members' Stats.
        const Stats total = fleet.totalMachineStats();
        EXPECT_EQ(total.supMicroreboots, 4u);
        EXPECT_EQ(total.supQuarantines, 2u);
        EXPECT_GT(total.supPagesRecopied, 0u);
        // Each fork: ->Restarting, ->Healthy (x2 reboots), then
        // ->Quarantined: five transitions.
        EXPECT_EQ(total.supHealthTransitions, 10u);

        out.microreboots = fleet.microreboots();
        out.quarantines = fleet.quarantines();
        out.pagesRecopied = fleet.pagesRecopied();
        return out;
    };

    const SupervisedOutcome one = runCrashFleet(1);
    const SupervisedOutcome two = runCrashFleet(2);
    const SupervisedOutcome rerun = runCrashFleet(2);
    EXPECT_TRUE(one == two)
        << "microreboot scheduling is keyed on rounds, not threads";
    EXPECT_TRUE(two == rerun)
        << "crash recovery replays bit for bit";
}

TEST(FleetSupervision, BarrierCowGaugesStayFreshAcrossRunSteps)
{
    // barrierStats() is the merge taken at the end of each run(), so
    // every run must publish fresh CoW gauges, not just the first:
    // after each run() step they equal the current incarnations' own
    // residency, crash-looping member included.
    const GoldenImage gold = sealedMiniVmsImage(400);
    const GoldenImage crash = sealedCrashImage();

    using Gauges = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
    auto runSteps = [&](int workers) {
        FleetConfig fc;
        fc.workers = workers;
        fc.sliceInstructions = 250;
        fc.machine = gold.machineConfig();
        fc.fleetSupervision.enabled = true;
        fc.fleetSupervision.restartBudget = 2;
        fc.fleetSupervision.backoffSlices = 1;
        HypervisorFleet fleet(fc);
        fleet.addForkedMember(gold, 3);
        fleet.addForkedMember(crash, 1);

        // Four steps of 600 instructions stay inside the forks' boot,
        // where every step touches new pages (the members settle
        // onto a fixed working set about 2.5k instructions in), so a
        // stale gauge would show.
        Gauges steps;
        for (int step = 0; step < 4; ++step) {
            fleet.run(600);
            std::uint64_t touched = 0;
            std::uint64_t private_bytes = 0;
            for (int i = 0; i < fleet.size(); ++i) {
                const CowStats cs = fleet.machine(i).memory().cowStats();
                touched += cs.pagesTouched;
                private_bytes += cs.privateBytes;
            }
            const Stats barrier = fleet.barrierStats();
            EXPECT_EQ(barrier.cowPagesTouched, touched) << "step " << step;
            EXPECT_EQ(barrier.cowPrivateBytes, private_bytes)
                << "step " << step;
            if (!steps.empty()) {
                EXPECT_GT(touched, steps.back().first)
                    << "the forks keep touching pages at step " << step;
            }
            steps.emplace_back(touched, private_bytes);
        }
        EXPECT_EQ(fleet.microreboots(), 2u);
        EXPECT_EQ(fleet.quarantines(), 1u);
        return steps;
    };

    const Gauges one = runSteps(1);
    EXPECT_EQ(one, runSteps(2));
    EXPECT_EQ(one, runSteps(4));
    // Worker counts outside [1, members] are clamped: 0 runs as one
    // worker, 4 + 3 as one worker per member.
    EXPECT_EQ(one, runSteps(0));
    EXPECT_EQ(one, runSteps(4 + 3));
}

TEST(FleetSupervision, HostAllocMicrorebootsStayMemberLocal)
{
    // A host-alloc rule fails every microreboot's kernel-CoW mapping
    // for the crash-looping forks, which recover on eager copies.
    // Several of them reboot at the same time on different workers
    // next to healthy forks, so the decision must reach only the
    // member whose plan drew it: every member's backing is the same
    // on every worker count, each injected fault is one microreboot,
    // and no process-global failure window is left armed.
    const GoldenImage gold = sealedMiniVmsImage(400);
    const GoldenImage crash = sealedCrashImage();
    FaultPlan plan(9);
    std::string error;
    ASSERT_TRUE(FaultPlan::parse("seed=9;host-alloc:at=0", &plan, &error))
        << error;
    constexpr int kCrashing = 3;

    auto runFleet = [&](int workers) {
        FleetConfig fc;
        fc.workers = workers;
        fc.sliceInstructions = 5000;
        fc.machine = gold.machineConfig();
        fc.fleetSupervision.enabled = true;
        fc.fleetSupervision.restartBudget = 2;
        fc.fleetSupervision.backoffSlices = 1;
        HypervisorFleet fleet(fc);
        fleet.addForkedMember(crash, kCrashing);
        for (int i = 0; i < kCrashing; ++i)
            fleet.setFaultPlan(i, &plan);
        fleet.addForkedMember(gold, 2);
        fleet.run(200000);

        EXPECT_EQ(fleet.microreboots(), 2u * kCrashing);
        EXPECT_EQ(fleet.totalMachineStats().faultsInjected[static_cast<int>(
                      FaultClass::HostAlloc)],
                  fleet.microreboots())
            << "one host-alloc fault per microreboot";
        EXPECT_EQ(simulatedHostAllocFailuresRemaining(), 0);
        std::vector<bool> kernel_cow;
        for (int i = 0; i < fleet.size(); ++i) {
            kernel_cow.push_back(
                fleet.machine(i).memory().kernelCowActive());
            if (i < kCrashing) {
                EXPECT_FALSE(kernel_cow.back())
                    << "member " << i << " recovered on an eager copy";
            } else {
                EXPECT_EQ(kernel_cow.back(), gold.kernelBacked())
                    << "member " << i << " keeps the image's backing";
            }
        }
        return kernel_cow;
    };

    const std::vector<bool> one = runFleet(1);
    EXPECT_EQ(one, runFleet(2));
    EXPECT_EQ(one, runFleet(4));
}

TEST(FleetSupervision, ForkLineageKeepsFaultIdentityStable)
{
    // Satellite: fault identity follows the image's fork lineage, not
    // the member index, so a `vm=` selector pins the same fork no
    // matter how the fleet is composed (and so a microrebooted member
    // replays its own schedule, not a neighbour's).
    GoldenImage gold = sealedMiniVmsImage(400);
    gold.setLineage(10);
    FaultPlan plan(5);
    std::string error;
    ASSERT_TRUE(FaultPlan::parse("seed=5;disk-transient:vm=11,every=3",
                                 &plan, &error))
        << error;

    auto runForks = [&](bool with_leading_member) {
        FleetConfig fc;
        fc.workers = 2;
        fc.sliceInstructions = 50000;
        fc.machine = gold.machineConfig();
        HypervisorFleet fleet(fc);
        if (with_leading_member) {
            // An unrelated booted member shifts the fork indices by
            // one; the lineage identities must not move with them.
            MiniVmsConfig cfg = diskHeavyVms();
            VmConfig vc;
            vc.memBytes = cfg.memBytes;
            const int lead = fleet.addVm(vc);
            MiniVmsImage img = buildMiniVms(cfg);
            fleet.loadVmImage(lead, 0, img.image);
            fleet.startVm(lead, img.entry);
        }
        const int first = fleet.addForkedMember(gold, 2);
        FaultPlan p0 = plan; // fresh copies: rules carry firing budgets
        FaultPlan p1 = plan;
        fleet.setFaultPlan(first, &p0);
        fleet.setFaultPlan(first + 1, &p1);
        fleet.run(400000000);

        std::vector<MemberOutcome> forks;
        for (int i = first; i < first + 2; ++i) {
            MemberOutcome mo;
            RealMachine &m = fleet.machine(i);
            VirtualMachine &vm = fleet.vm(i);
            mo.vmMemory = vmMemoryDigest(m, vm);
            mo.vmDisk = fnv1a(vm.disk);
            mo.console = vm.console.output();
            mo.vmStats = vm.stats;
            mo.stats = m.stats();
            forks.push_back(std::move(mo));
        }
        return forks;
    };

    const std::vector<MemberOutcome> alone = runForks(false);
    const std::vector<MemberOutcome> shifted = runForks(true);

    const int dt = static_cast<int>(FaultClass::DiskTransient);
    EXPECT_EQ(alone[0].stats.faultsInjected[dt], 0u)
        << "fork 0 has lineage identity 10; the vm=11 rule must miss";
    EXPECT_GT(alone[1].stats.faultsInjected[dt], 0u)
        << "fork 1 has lineage identity 11; the rule must fire";
    for (std::size_t i = 0; i < 2; ++i)
        EXPECT_TRUE(alone[i] == shifted[i])
            << "fork " << i
            << ": identity and schedule are independent of the "
               "member index";
}

TEST(FleetSupervision, DiskFaultClassesAreContainedAndWorkerInvariant)
{
    // The acceptance fleet: four supervised forks, the victim under
    // torn batches and transient disk errors, digests bit-identical
    // across worker counts and the siblings untouched.
    const GoldenImage gold = sealedMiniVmsImage(400);
    FaultPlan victim(41);
    std::string error;
    ASSERT_TRUE(FaultPlan::parse(
        "seed=41;torn:every=2;disk-transient:every=7", &victim, &error))
        << error;
    const std::vector<const FaultPlan *> plans = {&victim, nullptr,
                                                  nullptr, nullptr};
    const std::vector<const FaultPlan *> clean = {nullptr, nullptr,
                                                  nullptr, nullptr};

    const SupervisedOutcome f1 = runSupervisedForkedFleet(1, gold, &plans);
    const SupervisedOutcome f2 = runSupervisedForkedFleet(2, gold, &plans);
    const SupervisedOutcome f4 = runSupervisedForkedFleet(4, gold, &plans);
    const SupervisedOutcome healthy =
        runSupervisedForkedFleet(4, gold, &clean);

    EXPECT_TRUE(f1 == f4 && f1 == f2)
        << "disk fault ordinals are per-VM architectural counters; "
           "the worker count must be invisible";
    EXPECT_GT(f4.base.members[0].stats.faultsInjected[static_cast<int>(
                  FaultClass::TornBatch)],
              0u)
        << "the victim's torn-batch rule must actually fire";
    EXPECT_GT(f4.base.members[0].stats.faultsInjected[static_cast<int>(
                  FaultClass::DiskTransient)],
              0u)
        << "the victim's transient-error rule must actually fire";
    for (std::size_t i = 1; i < 4; ++i) {
        EXPECT_TRUE(f4.base.members[i] == healthy.base.members[i])
            << "fork " << i
            << ": disk faults against fork 0 must not leak through "
               "the shared image";
        for (int c = 0; c < kNumFaultClasses; ++c)
            EXPECT_EQ(f4.base.members[i].stats.faultsInjected[c], 0u);
        EXPECT_EQ(f4.health[i], MemberHealth::Healthy) << "fork " << i;
    }
    EXPECT_EQ(healthy.microreboots, 0u);
    EXPECT_EQ(healthy.quarantines, 0u);
    EXPECT_EQ(healthy.pagesRecopied, 0u);
}

TEST(FleetSupervision, HealthyForksRunToCompletionWithoutMicroreboots)
{
    // The clean path: four forks of the mix sealed after 2000
    // instructions run to completion on two workers under the health
    // state machine, and supervision never steps in.  A clean HALT is
    // final: no member ever enters Restarting.
    const GoldenImage gold = sealedMiniVmsImage(2000);
    const std::vector<const FaultPlan *> clean = {nullptr, nullptr,
                                                  nullptr, nullptr};
    const SupervisedOutcome out = runSupervisedForkedFleet(2, gold, &clean);
    EXPECT_EQ(out.microreboots, 0u);
    EXPECT_EQ(out.quarantines, 0u);
    EXPECT_EQ(out.healthTransitions, 0u)
        << "a clean HALT never enters Restarting";
    for (std::size_t i = 0; i < out.base.members.size(); ++i) {
        EXPECT_EQ(out.health[i], MemberHealth::Healthy) << "fork " << i;
        EXPECT_EQ(out.haltReasons[i], VmHaltReason::HaltInstruction)
            << "fork " << i;
        for (int c = 0; c < kNumFaultClasses; ++c)
            EXPECT_EQ(out.base.members[i].stats.faultsInjected[c], 0u)
                << "fork " << i;
    }
}

TEST(FleetSupervision, MachineCheckStormIsNotACrash)
{
    // Three ECC machine checks land in distinct slices (the rule is
    // tick-keyed and the 256-instruction slice spans about one tick).
    // The guest survives them, so supervision never steps in: only a
    // crash reboots.
    const GoldenImage gold = sealedMiniVmsImage(400);
    FaultPlan plan(13);
    std::string error;
    ASSERT_TRUE(
        FaultPlan::parse("seed=13;ecc:every=4,count=3", &plan, &error))
        << error;

    FleetConfig fc;
    fc.workers = 2;
    fc.sliceInstructions = 256;
    fc.machine = gold.machineConfig();
    fc.fleetSupervision.enabled = true;
    HypervisorFleet fleet(fc);
    fleet.addForkedMember(gold, 2);
    fleet.setFaultPlan(0, &plan);
    fleet.run(400000000);

    EXPECT_GT(fleet.vm(0).stats.machineChecks, 0u)
        << "the storm must actually be delivered";
    EXPECT_EQ(fleet.health(0), MemberHealth::Healthy);
    EXPECT_EQ(fleet.health(1), MemberHealth::Healthy);
    EXPECT_EQ(fleet.microreboots(), 0u) << "only a crash reboots";
    EXPECT_EQ(fleet.quarantines(), 0u);
}

TEST(FleetSupervision, MailboxDelayFaultsDelayButNeverDrop)
{
    // mailbox-delay holds a due cross-thread console entry for a
    // bounded, hash-picked number of extra ticks, keyed on the VM's
    // own delivery ordinal: the transcript survives and the worker
    // count stays invisible.
    auto runFaultedEchoFleet = [](int workers) {
        FleetConfig fc;
        fc.workers = workers;
        fc.machine.ramBytes = 16 * 1024 * 1024;
        fc.machine.level = MicrocodeLevel::Modified;
        fc.hypervisor.tickCycles = 2000;
        HypervisorFleet fleet(fc);

        FaultPlan plan(19);
        std::string error;
        EXPECT_TRUE(FaultPlan::parse("seed=19;mailbox-delay:every=1",
                                     &plan, &error))
            << error;

        for (int i = 0; i < 2; ++i) {
            Longword entry, scb_slot, handler;
            auto image = buildEchoGuest(2, &entry, &scb_slot, &handler);
            const int idx = fleet.addVm(VmConfig{});
            fleet.loadVmImage(idx, 0x200, image);
            Byte e[4];
            std::memcpy(e, &handler, 4);
            fleet.loadVmImage(idx, scb_slot,
                              std::span<const Byte>(e, 4));
            fleet.startVm(idx, entry);
            fleet.postConsoleInput(i, std::string(1, char('A' + i)));
            fleet.postConsoleInput(i, std::string(1, char('a' + i)),
                                   /*at_tick=*/8);
        }
        // Member 0 is the victim; member 1 keeps a clean mailbox.
        fleet.setFaultPlan(0, &plan);
        fleet.run(50000000);

        FleetOutcome out;
        for (int i = 0; i < fleet.size(); ++i) {
            MemberOutcome mo;
            RealMachine &m = fleet.machine(i);
            VirtualMachine &vm = fleet.vm(i);
            EXPECT_EQ(vm.haltReason, VmHaltReason::HaltInstruction)
                << "member " << i
                << ": a delayed entry must still be delivered";
            mo.vmMemory = vmMemoryDigest(m, vm);
            mo.console = vm.console.output();
            mo.vmStats = vm.stats;
            mo.stats = m.stats();
            out.members.push_back(std::move(mo));
        }
        return out;
    };

    const FleetOutcome one = runFaultedEchoFleet(1);
    const FleetOutcome two = runFaultedEchoFleet(2);
    ASSERT_EQ(one.members.size(), 2u);
    EXPECT_EQ(one.members[0].console, "Aa")
        << "delay within the tick bound must not reorder delivery";
    EXPECT_EQ(one.members[1].console, "Bb");
    const int md = static_cast<int>(FaultClass::MailboxDelay);
    EXPECT_EQ(one.members[0].stats.faultsInjected[md], 2u)
        << "every=1 delays each of the victim's two deliveries once";
    EXPECT_EQ(one.members[1].stats.faultsInjected[md], 0u);
    EXPECT_EQ(one.members[0].vmStats.mailboxDeliveries, 2u);
    for (std::size_t i = 0; i < one.members.size(); ++i)
        EXPECT_TRUE(one.members[i] == two.members[i])
            << "member " << i
            << ": the delay is virtual-tick-keyed, so worker counts "
               "agree bit for bit";
}

TEST(FleetSweep, SupervisedFleetSurvivesTheEnvironmentPlan)
{
    // The fleet's one recovery path under VVAX_FAULT_PLAN (run_all.sh
    // sweeps seeds): every member's machine installs the environment
    // plan - the MiniVMS forks and the booted member alike - and a
    // crash microreboots the member onto a plan-free incarnation of
    // its image.  The booted member crash-loops, so every seed drives
    // its startVm seal, its microreboots and its quarantine.  With the
    // variable unset this is a plain supervised lockstep check.
    const GoldenImage gold = sealedMiniVmsImage(400);
    CodeBuilder crash(0x200);
    crash.incl(Op::abs(0x3000));
    crash.movl(Op::abs(0x00F00000), Op::reg(R0));
    crash.halt();
    const std::vector<Byte> crash_img = crash.finish();
    const PhysAddr result_base = buildMiniVms(diskHeavyVms()).resultBase;

    auto runFleet = [&](int workers) {
        FleetConfig fc;
        fc.workers = workers;
        fc.sliceInstructions = 50000;
        fc.machine = gold.machineConfig();
        fc.hypervisor.tickCycles = 2000;
        fc.hypervisor.ticksPerQuantum = 2;
        fc.fleetSupervision.enabled = true;
        HypervisorFleet fleet(fc);
        fleet.addForkedMember(gold, 3);
        // The booted member seals its own image at startVm.
        VmConfig vc;
        vc.memBytes = 256 * 1024;
        const int booted = fleet.addVm(vc);
        fleet.loadVmImage(booted, 0x200, crash_img);
        fleet.startVm(booted, 0x200);

        EXPECT_NO_THROW(fleet.run(400000000));
        EXPECT_EQ(fleet.health(booted), MemberHealth::Quarantined);
        EXPECT_GE(fleet.microreboots(), 3u)
            << "the booted member spends its whole restart budget";

        SupervisedOutcome out;
        for (int i = 0; i < fleet.size(); ++i) {
            RealMachine &m = fleet.machine(i);
            VirtualMachine &vm = fleet.vm(i);
            EXPECT_TRUE(vm.haltReason == VmHaltReason::HaltInstruction ||
                        fleet.health(i) == MemberHealth::Quarantined)
                << "member " << i << ": halt reason "
                << static_cast<int>(vm.haltReason) << ", health "
                << memberHealthName(fleet.health(i));
            MemberOutcome mo;
            mo.vmMemory = vmMemoryDigest(m, vm);
            mo.vmDisk = fnv1a(vm.disk);
            mo.console = vm.console.output();
            if (i != booted)
                mo.magic =
                    m.memory().read32(vm.vmPhysToReal(result_base));
            mo.vmStats = vm.stats;
            mo.stats = m.stats();
            out.base.members.push_back(std::move(mo));
            out.health.push_back(fleet.health(i));
        }
        out.base.totalVm = fleet.totalVmStats();
        out.microreboots = fleet.microreboots();
        out.quarantines = fleet.quarantines();
        out.pagesRecopied = fleet.pagesRecopied();
        return out;
    };

    const SupervisedOutcome one = runFleet(1);
    const SupervisedOutcome four = runFleet(4);
    EXPECT_TRUE(one == four)
        << "recovery is keyed on rounds and per-member state, not "
           "threads";
}

} // namespace
} // namespace vvax
