/**
 * @file
 * Deterministic fault injection (fault/fault_plan.h): the plan
 * grammar and decision semantics, the bare-disk and VMM injection
 * sites, guest-side graceful degradation (retry with backoff, batch
 * fallback, machine-check survival), the no-forward-progress
 * watchdog, the restartable halt reasons, and the two headline
 * robustness properties of the paper's security-kernel argument:
 *
 *  - determinism: the same plan produces bit-identical outcomes on
 *    the host fast path and the reference interpreter, and across
 *    repeated runs;
 *  - containment: aggressive faults against one VM leave its
 *    siblings' memory, disk and console transcripts bit-identical
 *    to a fault-free run.
 *
 * The FaultSweep.* tests additionally honour VVAX_FAULT_PLAN, which
 * scripts/run_all.sh sets to sweep seeds under ASan.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "guest/miniultrix.h"
#include "guest/minivms.h"
#include "tests/harness.h"
#include "vmm/hypervisor.h"
#include "vmm/kcall.h"

namespace vvax {
namespace {

// ---------------------------------------------------------------------------
// Plan grammar and decision semantics
// ---------------------------------------------------------------------------

TEST(FaultPlanSpec, ParsesTheDocumentedGrammar)
{
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(FaultPlan::parse(
        "seed=7;disk-transient:vm=0,every=3;ecc:every=16;"
        "torn:vm=0,every=2;spurious:prob=64;"
        "disk-hard:vm=1,block=96,nblocks=4,count=2",
        &plan, &error))
        << error;
    EXPECT_EQ(plan.seed(), 7u);
    ASSERT_EQ(plan.rules().size(), 5u);
    EXPECT_EQ(plan.rules()[0].cls, FaultClass::DiskTransient);
    EXPECT_EQ(plan.rules()[0].vmId, 0);
    EXPECT_EQ(plan.rules()[0].every, 3u);
    EXPECT_EQ(plan.rules()[1].cls, FaultClass::Ecc);
    EXPECT_EQ(plan.rules()[1].vmId, -1);
    EXPECT_EQ(plan.rules()[2].cls, FaultClass::TornBatch);
    EXPECT_EQ(plan.rules()[3].cls, FaultClass::SpuriousInterrupt);
    EXPECT_EQ(plan.rules()[3].prob, 64u);
    EXPECT_EQ(plan.rules()[4].cls, FaultClass::DiskHard);
    EXPECT_EQ(plan.rules()[4].block, 96u);
    EXPECT_EQ(plan.rules()[4].nBlocks, 4u);
    EXPECT_EQ(plan.rules()[4].count, 2u);
}

TEST(FaultPlanSpec, RejectsMalformedSpecs)
{
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(FaultPlan::parse("gamma-ray:every=2", &plan, &error));
    EXPECT_NE(error.find("unknown class"), std::string::npos) << error;
    // Retired classes fail loudly: a sweep still naming one must not
    // pass with the rule silently dropped.
    for (const char *retired : {"async-late:every=2", "async-corrupt:at=0"}) {
        EXPECT_FALSE(FaultPlan::parse(retired, &plan, &error)) << retired;
        EXPECT_NE(error.find("unknown class"), std::string::npos) << error;
    }
    EXPECT_FALSE(FaultPlan::parse("ecc:flux=3", &plan, &error));
    EXPECT_NE(error.find("unknown key"), std::string::npos) << error;
    EXPECT_FALSE(FaultPlan::parse("ecc:every=banana", &plan, &error));
    EXPECT_FALSE(FaultPlan::parse("speed=7", &plan, &error));
    EXPECT_NE(error.find("bad clause"), std::string::npos) << error;
    // Empty clauses are harmless separators, not errors.
    EXPECT_TRUE(FaultPlan::parse(";;ecc:every=4;;", &plan, &error));
}

TEST(FaultPlanSpec, ParsesTheHostSideClasses)
{
    // The classes added with crash-only supervision
    // (docs/ARCHITECTURE.md §6): delayed cross-thread mailbox delivery
    // and host allocation failure during golden-image sealing/forking.
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(FaultPlan::parse(
        "seed=3;mailbox-delay:vm=1,prob=128;host-alloc:at=0", &plan,
        &error))
        << error;
    ASSERT_EQ(plan.rules().size(), 2u);
    EXPECT_EQ(plan.rules()[0].cls, FaultClass::MailboxDelay);
    EXPECT_EQ(plan.rules()[0].vmId, 1);
    EXPECT_EQ(plan.rules()[0].prob, 128u);
    EXPECT_EQ(plan.rules()[1].cls, FaultClass::HostAlloc);
    EXPECT_EQ(plan.rules()[1].at, 0u);
}

TEST(FaultPlanRules, DelayTicksAreBoundedAndSeedDeterministic)
{
    // delayTicks picks how far a held mailbox entry slips: always in
    // [1, max], a pure function of (seed, class, vm, ordinal), and
    // decorrelated from the fire/no-fire decision on the same ordinal.
    FaultPlan a(42), b(42), c(43);
    bool varied = false;
    for (std::uint64_t ord = 0; ord < 256; ++ord) {
        const std::uint64_t d = a.delayTicks(FaultClass::MailboxDelay, 0,
                                             ord, kMaxMailboxDelayTicks);
        EXPECT_GE(d, 1u);
        EXPECT_LE(d, kMaxMailboxDelayTicks);
        EXPECT_EQ(d, b.delayTicks(FaultClass::MailboxDelay, 0, ord,
                                  kMaxMailboxDelayTicks))
            << "same seed, same slip";
        if (d != c.delayTicks(FaultClass::MailboxDelay, 0, ord,
                              kMaxMailboxDelayTicks))
            varied = true;
    }
    EXPECT_TRUE(varied) << "the seed must matter";
    EXPECT_EQ(a.delayTicks(FaultClass::MailboxDelay, 0, 0, 0), 0u)
        << "a zero bound disables the slip";
}

TEST(FaultPlanRules, EveryAtAndCountSemantics)
{
    FaultPlan plan(1);
    FaultRule every;
    every.cls = FaultClass::DiskTransient;
    every.every = 3;
    plan.addRule(every);
    std::vector<std::uint64_t> fired;
    for (std::uint64_t op = 0; op < 10; ++op) {
        if (plan.shouldInject(FaultClass::DiskTransient, 0, op))
            fired.push_back(op);
    }
    EXPECT_EQ(fired, (std::vector<std::uint64_t>{2, 5, 8}));

    FaultPlan once(1);
    FaultRule at;
    at.cls = FaultClass::Ecc;
    at.at = 5;
    once.addRule(at);
    for (std::uint64_t op = 0; op < 10; ++op) {
        EXPECT_EQ(once.shouldInject(FaultClass::Ecc, 0, op), op == 5)
            << "ordinal " << op;
    }

    FaultPlan budget(1);
    FaultRule capped;
    capped.cls = FaultClass::TornBatch;
    capped.every = 1;
    capped.count = 2;
    budget.addRule(capped);
    int total = 0;
    for (std::uint64_t op = 0; op < 10; ++op) {
        if (budget.shouldInject(FaultClass::TornBatch, 0, op))
            total++;
    }
    EXPECT_EQ(total, 2) << "count= must cap the rule's firings";
}

TEST(FaultPlanRules, ProbDecisionsAreDeterministicInTheSeed)
{
    auto decisions = [](std::uint64_t seed) {
        FaultPlan plan(seed);
        FaultRule rule;
        rule.cls = FaultClass::SpuriousInterrupt;
        rule.prob = 512;
        plan.addRule(rule);
        std::vector<bool> out;
        for (std::uint64_t op = 0; op < 2048; ++op)
            out.push_back(plan.shouldInject(
                FaultClass::SpuriousInterrupt, 0, op));
        return out;
    };
    const auto a = decisions(42);
    EXPECT_EQ(a, decisions(42)) << "same seed, same decisions";
    EXPECT_NE(a, decisions(43)) << "the seed must matter";
    const auto hits = static_cast<int>(
        std::count(a.begin(), a.end(), true));
    // prob=512 is a nominal 50% rate; the hash should land well
    // inside [30%, 70%] over 2048 trials.
    EXPECT_GT(hits, 2048 * 3 / 10);
    EXPECT_LT(hits, 2048 * 7 / 10);
}

TEST(FaultPlanRules, DiskHardRangeAndVmFilter)
{
    FaultPlan plan(3);
    FaultRule bad;
    bad.cls = FaultClass::DiskHard;
    bad.vmId = 1;
    bad.block = 96;
    bad.nBlocks = 4;
    plan.addRule(bad);
    EXPECT_TRUE(plan.diskRangeBad(1, 96, 1));
    EXPECT_TRUE(plan.diskRangeBad(1, 90, 7)) << "overlap from below";
    EXPECT_TRUE(plan.diskRangeBad(1, 99, 8)) << "overlap from above";
    EXPECT_FALSE(plan.diskRangeBad(1, 100, 4)) << "adjacent, no overlap";
    EXPECT_FALSE(plan.diskRangeBad(1, 90, 6)) << "ends at the range";
    EXPECT_FALSE(plan.diskRangeBad(0, 96, 1)) << "vm filter";
    EXPECT_FALSE(plan.diskRangeBad(-1, 96, 1)) << "bare disk filtered too";
}

TEST(FaultPlanRules, EccAddressStaysInRangeAndAligned)
{
    FaultPlan plan(9);
    for (std::uint64_t ord = 0; ord < 64; ++ord) {
        const Longword addr = plan.eccAddress(0, ord, 256 * 1024);
        EXPECT_LT(addr, 256u * 1024u);
        EXPECT_EQ(addr & 3u, 0u);
        EXPECT_EQ(addr, plan.eccAddress(0, ord, 256 * 1024))
            << "deterministic in (vm, ordinal)";
    }
}

// ---------------------------------------------------------------------------
// Injection sites: bare disk, VMM single transfer, VMM batch ring
// ---------------------------------------------------------------------------

TEST(FaultInjection, BareDiskFaultLatchesCsrErrorAndCountsTheRetry)
{
    RealMachine m;
    FaultPlan plan(5);
    FaultRule rule;
    rule.cls = FaultClass::DiskTransient;
    rule.at = 0; // only the first transfer fails
    plan.addRule(rule);
    m.setFaultPlan(&plan);

    DiskDevice &disk = m.disk();
    disk.data()[0] = 0xA5;
    disk.mmioWrite(DiskDevice::kBlock, 0, 4);
    disk.mmioWrite(DiskDevice::kCount, 1, 4);
    disk.mmioWrite(DiskDevice::kAddr, 0x2000, 4);
    disk.mmioWrite(DiskDevice::kCsr, DiskDevice::kCsrGo, 4);
    EXPECT_NE(disk.mmioRead(DiskDevice::kCsr, 4) & DiskDevice::kCsrError,
              0u)
        << "the injected failure must latch CSR<ERROR>";
    EXPECT_EQ(disk.transfersFaulted(), 1u);
    EXPECT_EQ(m.stats().faultsInjected[static_cast<int>(
                  FaultClass::DiskTransient)],
              1u);
    EXPECT_EQ(m.memory().read8(0x2000), 0u) << "no data moved";

    // The driver's retry: a GO after a failed GO.
    disk.mmioWrite(DiskDevice::kCsr, DiskDevice::kCsrGo, 4);
    EXPECT_EQ(disk.mmioRead(DiskDevice::kCsr, 4) & DiskDevice::kCsrError,
              0u);
    EXPECT_EQ(m.stats().diskRetries, 1u);
    EXPECT_EQ(m.memory().read8(0x2000), 0xA5u);
}

TEST(FaultInjection, VmDiskTransientFaultFailsOneKcallOnly)
{
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    Hypervisor hv(m);
    VirtualMachine &vm = hv.createVm(VmConfig{});

    std::vector<Byte> block(512, 0x5A);
    hv.loadVmDisk(vm, 0, block);

    FaultPlan plan(6);
    FaultRule rule;
    rule.cls = FaultClass::DiskTransient;
    rule.at = 0;
    plan.addRule(rule);
    m.setFaultPlan(&plan);

    EXPECT_FALSE(hv.vmDiskTransfer(vm, false, 0, 1, 0x8000));
    EXPECT_EQ(vm.stats.diskOps, 1u);
    EXPECT_EQ(vm.stats.faultedDiskOps, 1u);
    EXPECT_EQ(m.stats().faultsInjected[static_cast<int>(
                  FaultClass::DiskTransient)],
              1u);
    EXPECT_EQ(m.memory().read8(vm.vmPhysToReal(0x8000)), 0u);

    EXPECT_TRUE(hv.vmDiskTransfer(vm, false, 0, 1, 0x8000))
        << "ordinal 1 is not selected by the plan";
    EXPECT_EQ(m.memory().read8(vm.vmPhysToReal(0x8000)), 0x5Au);
}

TEST(FaultInjection, TornBatchReportsPerDescriptorStatus)
{
    using namespace kcallabi;
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    Hypervisor hv(m);
    VirtualMachine &vm = hv.createVm(VmConfig{});

    for (Longword i = 0; i < 8; ++i) {
        std::vector<Byte> block(512, static_cast<Byte>(0x10 + i));
        hv.loadVmDisk(vm, i * 2, block);
    }

    // 8 read descriptors; guest-owned flag bits 15:0 carry a marker
    // the VMM must preserve under the status field.
    constexpr PhysAddr kRing = 0x4000;
    constexpr PhysAddr kBuf = 0x8000;
    constexpr Longword kGuestBits = 0x0AB0;
    for (Longword i = 0; i < 8; ++i) {
        const PhysAddr d = vm.vmPhysToReal(kRing + i * kBatchDescriptorBytes);
        m.memory().write32(d + kBatchDescBlock, i * 2);
        m.memory().write32(d + kBatchDescCount, 1);
        m.memory().write32(d + kBatchDescVmPa, kBuf + i * 512);
        m.memory().write32(d + kBatchDescFlags, kGuestBits);
    }

    FaultPlan plan(8);
    FaultRule torn;
    torn.cls = FaultClass::TornBatch;
    torn.at = 0;
    plan.addRule(torn);
    m.setFaultPlan(&plan);

    EXPECT_FALSE(hv.vmDiskTransferBatch(vm, kRing, 8));
    EXPECT_EQ(m.stats().faultsInjected[static_cast<int>(
                  FaultClass::TornBatch)],
              1u);
    for (Longword i = 0; i < 8; ++i) {
        const Longword flags = m.memory().read32(vm.vmPhysToReal(
            kRing + i * kBatchDescriptorBytes + kBatchDescFlags));
        const Longword status = flags >> kBatchStatusShift;
        EXPECT_EQ(flags & ~kBatchStatusMask, kGuestBits)
            << "guest bits preserved, descriptor " << i;
        if (i < 4) {
            EXPECT_EQ(status, kBatchStatusOk) << "descriptor " << i;
            EXPECT_EQ(m.memory().read8(vm.vmPhysToReal(kBuf + i * 512)),
                      0x10 + i);
        } else {
            EXPECT_EQ(status, kBatchStatusNone)
                << "torn tail must stay unserviced, descriptor " << i;
            EXPECT_EQ(m.memory().read8(vm.vmPhysToReal(kBuf + i * 512)),
                      0u);
        }
    }
}

TEST(FaultInjection, HardFaultedDescriptorReportsErrorStatus)
{
    using namespace kcallabi;
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    Hypervisor hv(m);
    VirtualMachine &vm = hv.createVm(VmConfig{});

    constexpr PhysAddr kRing = 0x4000;
    const Longword blocks[3] = {0, 6, 4};
    for (Longword i = 0; i < 3; ++i) {
        const PhysAddr d = vm.vmPhysToReal(kRing + i * kBatchDescriptorBytes);
        m.memory().write32(d + kBatchDescBlock, blocks[i]);
        m.memory().write32(d + kBatchDescCount, 1);
        m.memory().write32(d + kBatchDescVmPa, 0x8000 + i * 512);
        m.memory().write32(d + kBatchDescFlags, 0);
    }

    FaultPlan plan(4);
    FaultRule bad;
    bad.cls = FaultClass::DiskHard;
    bad.block = 6;
    bad.nBlocks = 2;
    plan.addRule(bad);
    m.setFaultPlan(&plan);

    EXPECT_FALSE(hv.vmDiskTransferBatch(vm, kRing, 3));
    const auto status = [&](Longword i) {
        return m.memory().read32(vm.vmPhysToReal(
                   kRing + i * kBatchDescriptorBytes + kBatchDescFlags)) >>
               kBatchStatusShift;
    };
    EXPECT_EQ(status(0), kBatchStatusOk);
    EXPECT_EQ(status(1), kBatchStatusError)
        << "the descriptor on the bad block range fails";
    EXPECT_EQ(status(2), kBatchStatusOk)
        << "a failed descriptor must not stop later ones";
    EXPECT_EQ(m.stats().faultsInjected[static_cast<int>(
                  FaultClass::DiskHard)],
              1u);
}

// ---------------------------------------------------------------------------
// Guest-side graceful degradation
// ---------------------------------------------------------------------------

MiniVmsConfig
smallDiskHeavyVms()
{
    MiniVmsConfig cfg;
    cfg.numProcesses = 2;
    cfg.workloads = {Workload::Transaction, Workload::Edit};
    cfg.iterations = 6;
    cfg.dataPagesPerProcess = 8;
    return cfg;
}

/** A longer mix for the tick-keyed fault classes (ECC, spurious):
 *  enough timer ticks must land while the VM is resident for an
 *  every=N tick rule to fire well past guest bring-up. */
MiniVmsConfig
mediumMixVms()
{
    MiniVmsConfig cfg;
    cfg.numProcesses = 3;
    cfg.workloads = {Workload::Transaction, Workload::PageStress,
                     Workload::Edit};
    cfg.iterations = 12;
    cfg.dataPagesPerProcess = 16;
    return cfg;
}

TEST(GuestDegradation, MiniVmsRetriesTransientDiskFaults)
{
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    FaultPlan plan(21);
    FaultRule rule;
    rule.cls = FaultClass::DiskTransient;
    rule.every = 3;
    plan.addRule(rule);
    m.setFaultPlan(&plan);

    Hypervisor hv(m);
    MiniVmsConfig cfg = smallDiskHeavyVms();
    VmConfig vc;
    vc.memBytes = cfg.memBytes;
    VirtualMachine &vm = hv.createVm(vc);
    MiniVmsImage img = buildMiniVms(cfg);
    hv.loadVmImage(vm, 0, img.image);
    hv.startVm(vm, img.entry);
    hv.run(400000000);

    EXPECT_EQ(m.memory().read32(vm.vmPhysToReal(img.resultBase)),
              MiniVmsImage::kResultMagic)
        << "every third disk op failing must not stop the guest";
    EXPECT_GT(m.stats().faultsInjected[static_cast<int>(
                  FaultClass::DiskTransient)],
              0u);
    EXPECT_GT(m.memory().read32(vm.vmPhysToReal(img.resultBase + 16)), 0u)
        << "the guest driver's own retry counter";
    EXPECT_GT(m.stats().diskRetries, 0u)
        << "the VMM saw the re-issued KCALLs";
    EXPECT_GT(vm.stats.faultedDiskOps, 0u);
}

TEST(GuestDegradation, MiniVmsFallsBackFromTornBatches)
{
    // MiniVMS posts its transfers through one-descriptor kDiskBatch
    // rings; a torn ring leaves its descriptor kBatchStatusNone and
    // the driver re-issues it through the single-transfer KCALL.
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    FaultPlan plan(31);
    std::string error;
    ASSERT_TRUE(FaultPlan::parse("seed=31;torn:every=2", &plan, &error))
        << error;
    m.setFaultPlan(&plan);

    HypervisorConfig hc;
    hc.tickCycles = 2000;
    hc.ticksPerQuantum = 2;
    Hypervisor hv(m, hc);
    MiniVmsConfig cfg = smallDiskHeavyVms();
    VmConfig vc;
    vc.memBytes = cfg.memBytes;
    VirtualMachine &vm = hv.createVm(vc);
    MiniVmsImage img = buildMiniVms(cfg);
    hv.loadVmImage(vm, 0, img.image);
    hv.startVm(vm, img.entry);
    hv.run(400000000);

    EXPECT_EQ(m.memory().read32(vm.vmPhysToReal(img.resultBase)),
              MiniVmsImage::kResultMagic)
        << "a torn batch must degrade, not wedge the driver";
    EXPECT_GT(m.memory().read32(vm.vmPhysToReal(img.resultBase + 16)), 0u)
        << "the driver re-issued torn descriptors individually";
    EXPECT_GT(m.stats().faultsInjected[static_cast<int>(
                  FaultClass::TornBatch)],
              0u);
    EXPECT_GT(vm.stats.diskKcallBatches, 0u);
}

TEST(GuestDegradation, MiniUltrixRetriesTransientDiskFaults)
{
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    FaultPlan plan(22);
    FaultRule rule;
    rule.cls = FaultClass::DiskTransient;
    rule.every = 2;
    plan.addRule(rule);
    m.setFaultPlan(&plan);

    Hypervisor hv(m);
    MiniUltrixConfig cfg;
    cfg.diskReadsPerProcess = 6;
    VmConfig vc;
    vc.memBytes = cfg.memBytes;
    VirtualMachine &vm = hv.createVm(vc);
    MiniUltrixImage img = buildMiniUltrix(cfg);
    hv.loadVmImage(vm, 0, img.image);
    hv.startVm(vm, img.entry);
    hv.run(400000000);

    EXPECT_EQ(m.memory().read32(vm.vmPhysToReal(img.resultBase)),
              MiniUltrixImage::kResultMagic);
    EXPECT_GT(m.memory().read32(vm.vmPhysToReal(img.resultBase + 12)), 0u)
        << "MiniUltrix counts its driver retries at +12";
    EXPECT_GT(m.stats().faultsInjected[static_cast<int>(
                  FaultClass::DiskTransient)],
              0u);
}

TEST(GuestDegradation, MiniVmsSurvivesReflectedMachineChecks)
{
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    FaultPlan plan(23);
    FaultRule ecc;
    ecc.cls = FaultClass::Ecc;
    ecc.every = 8; // first fire at tick 7, well past SCB bring-up
    plan.addRule(ecc);
    m.setFaultPlan(&plan);

    HypervisorConfig hc;
    hc.tickCycles = 2000; // the mini guests are small; tick often
    hc.ticksPerQuantum = 2;
    Hypervisor hv(m, hc);
    MiniVmsConfig cfg = mediumMixVms();
    VmConfig vc;
    vc.memBytes = cfg.memBytes;
    VirtualMachine &vm = hv.createVm(vc);
    MiniVmsImage img = buildMiniVms(cfg);
    hv.loadVmImage(vm, 0, img.image);
    hv.startVm(vm, img.entry);
    hv.run(400000000);

    EXPECT_EQ(m.memory().read32(vm.vmPhysToReal(img.resultBase)),
              MiniVmsImage::kResultMagic)
        << "machine checks are survivable events, not VM kills";
    EXPECT_GT(m.stats().machineChecksDelivered, 0u);
    EXPECT_EQ(m.stats().machineChecksDelivered, vm.stats.machineChecks);
    EXPECT_EQ(m.memory().read32(vm.vmPhysToReal(img.resultBase + 20)),
              static_cast<Longword>(vm.stats.machineChecks))
        << "the guest's handler counted every reflected check";
}

// ---------------------------------------------------------------------------
// No-forward-progress watchdog
// ---------------------------------------------------------------------------

TEST(Watchdog, HaltsAGuestSpinningAtHighIpl)
{
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    HypervisorConfig hc;
    hc.tickCycles = 2000;
    hc.ticksPerQuantum = 2;
    hc.watchdog = true;
    hc.watchdogQuanta = 2;
    Hypervisor hv(m, hc);

    CodeBuilder b(0x200);
    b.mtpr(Op::lit(31), Ipr::IPL);
    Label spin = b.newLabel();
    b.bind(spin);
    b.brb(spin);

    VmConfig vc;
    vc.memBytes = 256 * 1024;
    VirtualMachine &vm = hv.createVm(vc);
    auto image = b.finish();
    hv.loadVmImage(vm, 0x200, image);
    hv.startVm(vm, 0x200);
    hv.run(1000000);

    EXPECT_EQ(vm.haltReason, VmHaltReason::VmmPolicy);
    EXPECT_EQ(vm.stats.watchdogHalts, 1u);
}

TEST(Watchdog, DoesNotFireOnAHealthyGuest)
{
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    HypervisorConfig hc;
    hc.watchdog = true;
    Hypervisor hv(m, hc);

    MiniVmsConfig cfg = smallDiskHeavyVms();
    VmConfig vc;
    vc.memBytes = cfg.memBytes;
    VirtualMachine &vm = hv.createVm(vc);
    MiniVmsImage img = buildMiniVms(cfg);
    hv.loadVmImage(vm, 0, img.image);
    hv.startVm(vm, img.entry);
    hv.run(400000000);

    EXPECT_EQ(m.memory().read32(vm.vmPhysToReal(img.resultBase)),
              MiniVmsImage::kResultMagic);
    EXPECT_EQ(vm.stats.watchdogHalts, 0u);
    EXPECT_EQ(vm.haltReason, VmHaltReason::HaltInstruction);
}

// ---------------------------------------------------------------------------
// Restartable halt reasons (the fleet's microreboot rule)
// ---------------------------------------------------------------------------

TEST(Supervisor, ClassifiesRestartableHaltReasons)
{
    EXPECT_FALSE(restartable(VmHaltReason::None));
    EXPECT_FALSE(restartable(VmHaltReason::HaltInstruction))
        << "an orderly guest shutdown is final";
    EXPECT_TRUE(restartable(VmHaltReason::NonExistentMemory));
    EXPECT_TRUE(restartable(VmHaltReason::KernelStackNotValid));
    EXPECT_TRUE(restartable(VmHaltReason::BadPageTable));
    EXPECT_TRUE(restartable(VmHaltReason::VmmPolicy));
    EXPECT_TRUE(restartable(VmHaltReason::VmmInternal));
}

// ---------------------------------------------------------------------------
// Determinism: repeated runs and fast/reference lockstep
// ---------------------------------------------------------------------------

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
 *  zeroed: the mailbox holds VMM wall-clock time (global tick count),
 *  the one guest-visible cell that legitimately depends on what the
 *  *other* VMs did with the processor. */
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

/** Everything a faulted virtualized run can legitimately be compared
 *  on across execution paths and repeated runs. */
struct FaultedRunOutcome
{
    Stats stats;
    std::uint64_t vmMemory = 0;
    std::uint64_t vmDisk = 0;
    std::string console;
    Longword magic = 0;
    Longword guestRetries = 0;
    Longword guestMchecks = 0;

    bool operator==(const FaultedRunOutcome &other) const = default;
};

FaultedRunOutcome
runFaultedMiniVms(bool reference, const FaultPlan *spec_plan)
{
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    m.cpu().setExecTier(reference ? ExecTier::Reference : ExecTier::Threaded);
    // A fresh plan per run: rules carry firing budgets.
    FaultPlan plan;
    if (spec_plan != nullptr) {
        plan = *spec_plan;
        m.setFaultPlan(&plan);
    }

    HypervisorConfig hc;
    hc.tickCycles = 2000; // frequent ticks: tick-keyed rules must fire
    hc.ticksPerQuantum = 2;
    Hypervisor hv(m, hc);
    MiniVmsConfig cfg = mediumMixVms();
    VmConfig vc;
    vc.memBytes = cfg.memBytes;
    VirtualMachine &vm = hv.createVm(vc);
    MiniVmsImage img = buildMiniVms(cfg);
    hv.loadVmImage(vm, 0, img.image);
    hv.startVm(vm, img.entry);
    hv.run(400000000);

    FaultedRunOutcome out;
    out.stats = m.stats();
    out.vmMemory = vmMemoryDigest(m, vm);
    out.vmDisk = fnv1a(vm.disk);
    out.console = vm.console.output();
    out.magic = m.memory().read32(vm.vmPhysToReal(img.resultBase));
    out.guestRetries =
        m.memory().read32(vm.vmPhysToReal(img.resultBase + 16));
    out.guestMchecks =
        m.memory().read32(vm.vmPhysToReal(img.resultBase + 20));
    return out;
}

FaultPlan
aggressiveSingleVmPlan()
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

TEST(FaultDeterminism, SameSeedReproducesTheRunBitForBit)
{
    const FaultPlan plan = aggressiveSingleVmPlan();
    const FaultedRunOutcome a = runFaultedMiniVms(false, &plan);
    const FaultedRunOutcome b = runFaultedMiniVms(false, &plan);
    EXPECT_EQ(a.magic, MiniVmsImage::kResultMagic);
    EXPECT_GT(a.guestRetries, 0u);
    EXPECT_GT(a.guestMchecks, 0u);
    EXPECT_TRUE(a.stats == b.stats) << "Stats digest must be identical";
    EXPECT_TRUE(a == b) << "memory, disk and console too";
}

TEST(FaultDeterminism, FastAndReferencePathsAgreeUnderFaults)
{
    const FaultPlan plan = aggressiveSingleVmPlan();
    const FaultedRunOutcome fast = runFaultedMiniVms(false, &plan);
    const FaultedRunOutcome ref = runFaultedMiniVms(true, &plan);
    EXPECT_EQ(fast.magic, MiniVmsImage::kResultMagic);
    EXPECT_EQ(fast.console, ref.console);
    EXPECT_EQ(fast.vmMemory, ref.vmMemory);
    EXPECT_EQ(fast.vmDisk, ref.vmDisk);
    EXPECT_TRUE(fast.stats == ref.stats)
        << "injected faults must stay inside the lockstep envelope";
    EXPECT_TRUE(fast == ref);
}

// ---------------------------------------------------------------------------
// Containment: faults against one VM leave its siblings bit-identical
// ---------------------------------------------------------------------------

struct SiblingOutcome
{
    std::uint64_t memory = 0;
    std::uint64_t disk = 0;
    std::string console;
    Longword magic = 0;

    bool operator==(const SiblingOutcome &other) const = default;
};

struct ContainmentOutcome
{
    SiblingOutcome healthy[2];
    Longword victimMagic = 0;
    Longword victimRetries = 0;
    Stats stats;
};

ContainmentOutcome
runThreeVms(const FaultPlan *spec_plan)
{
    MachineConfig mc;
    mc.ramBytes = 48 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    FaultPlan plan;
    if (spec_plan != nullptr) {
        plan = *spec_plan;
        m.setFaultPlan(&plan);
    }

    HypervisorConfig hc;
    hc.tickCycles = 5000;
    hc.ticksPerQuantum = 2;
    // Console coalescing charges flush costs at quantum boundaries, so
    // the victim's fault-dependent output volume would shift when the
    // *next* VM's first tick lands.  With coalescing off, every
    // VMM cost a fault adds is charged inside the victim's own
    // quantum, and quantum hand-offs stay tick-aligned - the
    // isolation property this test is about.
    hc.consoleCoalescing = false;
    Hypervisor hv(m, hc);

    // VM 0 is the victim: disk-heavy and long-running, so the healthy
    // VMs complete while it is still being shot at.
    MiniVmsConfig victim_cfg;
    victim_cfg.numProcesses = 2;
    victim_cfg.workloads = {Workload::Transaction, Workload::Transaction};
    victim_cfg.iterations = 14;
    victim_cfg.dataPagesPerProcess = 8;

    MiniVmsConfig edit_cfg;
    edit_cfg.numProcesses = 2;
    edit_cfg.workloads = {Workload::Edit, Workload::Compute};
    edit_cfg.iterations = 4;
    edit_cfg.dataPagesPerProcess = 8;

    MiniUltrixConfig ux_cfg;
    ux_cfg.iterations = 8;

    VmConfig vc;
    vc.memBytes = victim_cfg.memBytes;
    vc.name = "victim";
    VirtualMachine &victim = hv.createVm(vc);
    vc.memBytes = edit_cfg.memBytes;
    vc.name = "healthy-vms";
    VirtualMachine &healthy_a = hv.createVm(vc);
    vc.memBytes = ux_cfg.memBytes;
    vc.name = "healthy-ux";
    VirtualMachine &healthy_b = hv.createVm(vc);

    MiniVmsImage victim_img = buildMiniVms(victim_cfg);
    MiniVmsImage edit_img = buildMiniVms(edit_cfg);
    MiniUltrixImage ux_img = buildMiniUltrix(ux_cfg);
    hv.loadVmImage(victim, 0, victim_img.image);
    hv.loadVmImage(healthy_a, 0, edit_img.image);
    hv.loadVmImage(healthy_b, 0, ux_img.image);
    hv.startVm(victim, victim_img.entry);
    hv.startVm(healthy_a, edit_img.entry);
    hv.startVm(healthy_b, ux_img.entry);
    hv.run(400000000);

    ContainmentOutcome out;
    out.healthy[0] = {vmMemoryDigest(m, healthy_a), fnv1a(healthy_a.disk),
                      healthy_a.console.output(),
                      m.memory().read32(
                          healthy_a.vmPhysToReal(edit_img.resultBase))};
    out.healthy[1] = {vmMemoryDigest(m, healthy_b), fnv1a(healthy_b.disk),
                      healthy_b.console.output(),
                      m.memory().read32(
                          healthy_b.vmPhysToReal(ux_img.resultBase))};
    out.victimMagic =
        m.memory().read32(victim.vmPhysToReal(victim_img.resultBase));
    out.victimRetries =
        m.memory().read32(victim.vmPhysToReal(victim_img.resultBase + 16));
    out.stats = m.stats();
    return out;
}

TEST(FaultContainment, FaultsAgainstOneVmLeaveSiblingsBitIdentical)
{
    FaultPlan plan(11);
    std::string error;
    ASSERT_TRUE(FaultPlan::parse(
        "seed=11;disk-transient:vm=0,every=3;torn:vm=0,every=2;"
        "ecc:vm=0,every=16;spurious:vm=0,every=13",
        &plan, &error))
        << error;

    const ContainmentOutcome clean = runThreeVms(nullptr);
    ContainmentOutcome faulted;
    ASSERT_NO_THROW(faulted = runThreeVms(&plan))
        << "no guest program may surface a host C++ exception";

    // The aggressive plan really fired...
    EXPECT_GT(faulted.stats.faultsInjected[static_cast<int>(
                  FaultClass::DiskTransient)],
              0u);
    EXPECT_GT(faulted.stats.faultsInjected[static_cast<int>(
                  FaultClass::TornBatch)],
              0u);
    EXPECT_GT(faulted.stats.machineChecksDelivered, 0u);
    EXPECT_GT(faulted.stats.diskRetries, 0u);
    // ...the victim survived on its own retries and fallbacks...
    EXPECT_EQ(faulted.victimMagic, MiniVmsImage::kResultMagic);
    EXPECT_GT(faulted.victimRetries, 0u);
    // ...and the healthy VMs cannot tell the two worlds apart.
    EXPECT_EQ(clean.healthy[0].magic, MiniVmsImage::kResultMagic);
    EXPECT_EQ(clean.healthy[1].magic, MiniUltrixImage::kResultMagic);
    EXPECT_TRUE(faulted.healthy[0] == clean.healthy[0])
        << "sibling A: memory, disk and console must be bit-identical";
    EXPECT_TRUE(faulted.healthy[1] == clean.healthy[1])
        << "sibling B: memory, disk and console must be bit-identical";
}

// ---------------------------------------------------------------------------
// VVAX_FAULT_PLAN sweep hooks (scripts/run_all.sh)
// ---------------------------------------------------------------------------

TEST(FaultSweep, LockstepHoldsUnderTheEnvironmentPlan)
{
    // RealMachine installs VVAX_FAULT_PLAN automatically; with the
    // variable unset this is a plain (still valuable) lockstep check.
    const FaultedRunOutcome fast = runFaultedMiniVms(false, nullptr);
    const FaultedRunOutcome ref = runFaultedMiniVms(true, nullptr);
    EXPECT_EQ(fast.console, ref.console);
    EXPECT_EQ(fast.vmMemory, ref.vmMemory);
    EXPECT_EQ(fast.vmDisk, ref.vmDisk);
    EXPECT_TRUE(fast.stats == ref.stats);
}

TEST(FaultSweep, GuestIsContainedUnderTheEnvironmentPlan)
{
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    Hypervisor hv(m);
    MiniVmsConfig cfg = smallDiskHeavyVms();
    VmConfig vc;
    vc.memBytes = cfg.memBytes;
    VirtualMachine &vm = hv.createVm(vc);
    MiniVmsImage img = buildMiniVms(cfg);
    hv.loadVmImage(vm, 0, img.image);
    hv.startVm(vm, img.entry);

    ASSERT_NO_THROW(hv.run(400000000));

    // The host machine wound down in an orderly fashion whatever the
    // plan did to the guest.
    EXPECT_EQ(m.cpu().haltReason(), HaltReason::ExternalRequest);
    const Longword magic =
        m.memory().read32(vm.vmPhysToReal(img.resultBase));
    if (m.faultPlan() == nullptr) {
        EXPECT_EQ(magic, MiniVmsImage::kResultMagic);
        for (int c = 0; c < kNumFaultClasses; ++c)
            EXPECT_EQ(m.stats().faultsInjected[c], 0u)
                << "no plan, no injected faults (class " << c << ")";
    } else {
        // Under a plan the guest either rode it out or halted with a
        // reason the VMM contains - never anything else.
        EXPECT_TRUE(magic == MiniVmsImage::kResultMagic ||
                    vm.haltReason == VmHaltReason::HaltInstruction ||
                    restartable(vm.haltReason));
    }
}

} // namespace
} // namespace vvax
