/**
 * @file
 * VMM service tests: virtual console input and interrupts, WAIT
 * timeout and wake-on-event, the uptime mailbox (Section 5's "the
 * VMM maintains system up time and stores it into the VMOS's
 * memory"), the virtual interval clock, virtual SID, the 730's
 * microcode IPL assist, multi-model runs of the full guest, and the
 * KCALL feature mask.
 */

#include <cstring>

#include <gtest/gtest.h>

#include "guest/minivms.h"
#include "tests/harness.h"
#include "vmm/hypervisor.h"
#include "vmm/kcall.h"

namespace vvax {
namespace {

struct VmRig
{
    MachineConfig mc;
    RealMachine m;
    Hypervisor hv;

    explicit VmRig(MachineModel model = MachineModel::Vax8800,
                   HypervisorConfig hc = {})
        : mc{.ramBytes = 16 * 1024 * 1024,
             .model = model,
             .level = MicrocodeLevel::Modified},
          m(mc), hv(m, hc)
    {
    }
};

TEST(VmmServices, VirtualConsoleInputWithInterrupt)
{
    VmRig rig;
    // Guest: enable RX interrupts, spin until the ISR stores the
    // received character, echo it, halt.
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
    b.tstl(Op::reg(R5));
    b.beql(spin);
    b.mtpr(Op::reg(R5), Ipr::TXDB); // echo
    b.halt();
    b.align(4);
    b.bind(isr);
    b.mfpr(Ipr::RXDB, Op::reg(R5));
    b.rei();

    VirtualMachine &vm = rig.hv.createVm(VmConfig{});
    const Longword handler = b.labelAddress(isr) | 1; // interrupt stack
    auto image = b.finish();
    rig.hv.loadVmImage(vm, 0x200, image);
    Byte e[4];
    std::memcpy(e, &handler, 4);
    rig.hv.loadVmImage(
        vm, 0xE00 + static_cast<Word>(ScbVector::ConsoleReceive),
        std::span<const Byte>(e, 4));
    rig.hv.startVm(vm, 0x200);
    rig.hv.injectConsoleInput(vm, "Z");
    rig.hv.run(1000000);

    EXPECT_EQ(vm.haltReason, VmHaltReason::HaltInstruction);
    EXPECT_EQ(rig.m.cpu().reg(R5), 'Z');
    EXPECT_EQ(vm.console.output(), "Z");
    EXPECT_GE(vm.stats.virtualInterrupts, 1u);
}

TEST(VmmServices, WaitTimesOutAndResumes)
{
    VmRig rig;
    CodeBuilder b(0x200);
    b.movl(Op::imm(0x1111), Op::reg(R6));
    b.wait(); // nothing pending: resumes only via timeout
    b.movl(Op::imm(0x2222), Op::reg(R7));
    b.halt();

    VmConfig vc;
    vc.waitTimeoutQuanta = 3;
    VirtualMachine &vm = rig.hv.createVm(vc);
    auto image = b.finish();
    rig.hv.loadVmImage(vm, 0x200, image);
    rig.hv.startVm(vm, 0x200);
    rig.hv.run(10000000);

    EXPECT_EQ(vm.haltReason, VmHaltReason::HaltInstruction);
    EXPECT_EQ(rig.m.cpu().reg(R7), 0x2222u)
        << "WAIT must time out (paper: \"WAIT times out after some "
           "seconds\")";
    EXPECT_EQ(vm.stats.waits, 1u);
    // The machine idled while the VM waited.
    EXPECT_GT(rig.m.stats().cycles[static_cast<int>(
                  CycleCategory::Idle)],
              0u);
}

TEST(VmmServices, UptimeMailboxAdvances)
{
    VmRig rig;
    CodeBuilder b(0x200);
    // Register a mailbox at VM-phys 0xF00, WAIT a while, read it.
    b.movl(Op::imm(0xF00), Op::reg(R1));
    b.mtpr(Op::imm(kcallabi::kSetUptimeMailbox), Ipr::KCALL);
    b.movl(Op::abs(0xF00), Op::reg(R6)); // early reading
    b.wait();
    b.wait();
    b.movl(Op::abs(0xF00), Op::reg(R7)); // later reading
    b.halt();

    VmConfig vc;
    vc.waitTimeoutQuanta = 2;
    VirtualMachine &vm = rig.hv.createVm(vc);
    auto image = b.finish();
    rig.hv.loadVmImage(vm, 0x200, image);
    rig.hv.startVm(vm, 0x200);
    rig.hv.run(10000000);

    EXPECT_EQ(vm.haltReason, VmHaltReason::HaltInstruction);
    EXPECT_GT(rig.m.cpu().reg(R7), rig.m.cpu().reg(R6))
        << "the VMM must keep storing uptime into guest memory";
}

TEST(VmmServices, VirtualClockDeliversTicksOnlyWhileRunning)
{
    VmRig rig;
    // Guest: program its interval clock and count 3 ticks.
    CodeBuilder b(0x200);
    Label isr = b.newLabel();
    Label spin = b.newLabel();
    b.mtpr(Op::imm(0xE00), Ipr::SCBB);
    b.mtpr(Op::imm(0x8000), Ipr::KSP);
    b.mtpr(Op::imm(0x8800), Ipr::ISP);
    b.clrl(Op::reg(R6));
    b.mtpr(Op::imm(static_cast<Longword>(-30000)), Ipr::NICR);
    b.mtpr(Op::imm(iccs::kTransfer | iccs::kRun |
                   iccs::kInterruptEnable),
           Ipr::ICCS);
    b.mtpr(Op::lit(0), Ipr::IPL);
    b.bind(spin);
    b.cmpl(Op::reg(R6), Op::lit(3));
    Label done = b.newLabel();
    b.bgeq(done);
    b.brb(spin);
    b.bind(done);
    b.halt();
    b.align(4);
    b.bind(isr);
    b.mtpr(Op::imm(iccs::kInterrupt | iccs::kRun |
                   iccs::kInterruptEnable),
           Ipr::ICCS);
    b.incl(Op::reg(R6));
    b.rei();

    VirtualMachine &vm = rig.hv.createVm(VmConfig{});
    const Longword handler = b.labelAddress(isr) | 1;
    auto image = b.finish();
    rig.hv.loadVmImage(vm, 0x200, image);
    Byte e[4];
    std::memcpy(e, &handler, 4);
    rig.hv.loadVmImage(
        vm, 0xE00 + static_cast<Word>(ScbVector::IntervalTimer),
        std::span<const Byte>(e, 4));
    rig.hv.startVm(vm, 0x200);
    rig.hv.run(10000000);

    EXPECT_EQ(vm.haltReason, VmHaltReason::HaltInstruction);
    EXPECT_EQ(rig.m.cpu().reg(R6), 3u);
}

TEST(VmmServices, VirtualSidNamesAVirtualProcessor)
{
    // Section 8: "defining the virtual machine as a unique or
    // specific member of a family of processors."
    VmRig rig;
    CodeBuilder b(0x200);
    b.mfpr(Ipr::SID, Op::reg(R6));
    b.halt();
    VirtualMachine &vm = rig.hv.createVm(VmConfig{});
    auto image = b.finish();
    rig.hv.loadVmImage(vm, 0x200, image);
    rig.hv.startVm(vm, 0x200);
    rig.hv.run(100000);
    EXPECT_EQ(rig.m.cpu().reg(R6) >> 16, 0x5656u)
        << "virtual VAX SID family code";
}

TEST(VmmServices, Vax730IplAssistAvoidsTraps)
{
    // Section 7.3: the 730 prototype's microcode maintained the VM's
    // IPL; MTPR-to-IPL should not reach the VMM when no virtual
    // interrupt could become deliverable.
    VmRig rig(MachineModel::Vax730);
    CodeBuilder b(0x200);
    for (int i = 0; i < 8; ++i) {
        b.mtpr(Op::lit(8), Ipr::IPL);
        b.mtpr(Op::lit(0), Ipr::IPL);
    }
    b.halt();
    VirtualMachine &vm = rig.hv.createVm(VmConfig{});
    auto image = b.finish();
    rig.hv.loadVmImage(vm, 0x200, image);
    rig.hv.startVm(vm, 0x200);
    rig.hv.run(100000);
    EXPECT_EQ(vm.haltReason, VmHaltReason::HaltInstruction);
    EXPECT_EQ(vm.stats.mtprIplEmulations, 0u)
        << "microcode handled all sixteen IPL changes";
    // The VM's IPL was still tracked correctly (HALT trapped with
    // VMPSL intact; after the pairs it is 0).
    EXPECT_EQ(Psl(vm.vmpsl).ipl(), 0);
}

TEST(VmmServices, FullGuestRunsOnEveryMachineModel)
{
    MiniVmsConfig cfg;
    cfg.numProcesses = 2;
    cfg.workloads = {Workload::Edit, Workload::Compute};
    cfg.iterations = 6;
    cfg.dataPagesPerProcess = 8;

    for (MachineModel model :
         {MachineModel::Vax730, MachineModel::Vax785,
          MachineModel::Vax8800}) {
        VmRig rig(model);
        VmConfig vc;
        vc.memBytes = cfg.memBytes;
        VirtualMachine &vm = rig.hv.createVm(vc);
        MiniVmsImage img = buildMiniVms(cfg);
        rig.hv.loadVmImage(vm, 0, img.image);
        rig.hv.startVm(vm, img.entry);
        rig.hv.run(200000000);
        EXPECT_EQ(rig.m.memory().read32(
                      vm.vmPhysToReal(img.resultBase)),
                  MiniVmsImage::kResultMagic)
            << machineModelName(model);
    }
}

TEST(VmmServices, TimerTicksAccrueOnlyWhileTheVmRuns)
{
    // Table 4's timer row: "interrupts only when VM is running."  A
    // tick-counting VM sharing the machine with a compute hog must
    // see roughly half the ticks a solo run would.
    auto buildCounter = [] {
        CodeBuilder b(0x200);
        Label isr = b.newLabel();
        Label spin = b.newLabel();
        b.mtpr(Op::imm(0xE00), Ipr::SCBB);
        b.mtpr(Op::imm(0x8000), Ipr::KSP);
        b.mtpr(Op::imm(0x8800), Ipr::ISP);
        b.clrl(Op::reg(R6));
        b.mtpr(Op::imm(static_cast<Longword>(-20000)), Ipr::NICR);
        b.mtpr(Op::imm(iccs::kTransfer | iccs::kRun |
                       iccs::kInterruptEnable),
               Ipr::ICCS);
        b.mtpr(Op::lit(0), Ipr::IPL);
        b.bind(spin);
        b.cmpl(Op::reg(R6), Op::imm(40));
        Label done = b.newLabel();
        b.bgeq(done);
        b.brb(spin);
        b.bind(done);
        b.halt();
        b.align(4);
        b.bind(isr);
        b.mtpr(Op::imm(iccs::kInterrupt | iccs::kRun |
                       iccs::kInterruptEnable),
               Ipr::ICCS);
        b.incl(Op::reg(R6));
        b.rei();
        return std::pair<CodeBuilder, Label>(std::move(b), isr);
    };

    auto runCounter = [&](bool with_hog) -> std::uint64_t {
        VmRig rig;
        auto [b, isr] = buildCounter();
        VirtualMachine &vm = rig.hv.createVm(VmConfig{});
        const Longword handler = b.labelAddress(isr) | 1;
        auto image = b.finish();
        rig.hv.loadVmImage(vm, 0x200, image);
        Byte e[4];
        std::memcpy(e, &handler, 4);
        rig.hv.loadVmImage(
            vm, 0xE00 + static_cast<Word>(ScbVector::IntervalTimer),
            std::span<const Byte>(e, 4));
        rig.hv.startVm(vm, 0x200);
        if (with_hog) {
            CodeBuilder hog(0x200);
            Label loop = hog.bindHere();
            hog.incl(Op::reg(R0));
            hog.brb(loop);
            VirtualMachine &h = rig.hv.createVm(VmConfig{});
            auto himg = hog.finish();
            rig.hv.loadVmImage(h, 0x200, himg);
            rig.hv.startVm(h, 0x200);
        }
        rig.hv.run(4000000);
        // Busy cycles elapsed while the counter VM reached its 40
        // virtual ticks: with a hog, roughly double.
        return rig.m.stats().busyCycles();
    };

    const std::uint64_t solo = runCounter(false);
    const std::uint64_t shared = runCounter(true);
    EXPECT_GT(shared, solo + solo / 2)
        << "with a competing VM, the same number of virtual ticks "
           "takes much more real time: virtual time only advances "
           "while the VM runs";
}

TEST(VmmServices, IoResetClearsPendingInterrupts)
{
    VmRig rig;
    CodeBuilder b(0x200);
    // Raise IPL so the disk completion interrupt stays pending, then
    // IORESET and lower IPL: nothing must be delivered.
    b.movl(Op::lit(0), Op::reg(R1));
    b.movl(Op::lit(1), Op::reg(R2));
    b.movl(Op::imm(0x1000), Op::reg(R3));
    b.mtpr(Op::imm(kcallabi::kDiskRead), Ipr::KCALL);
    b.mtpr(Op::lit(0), Ipr::IORESET);
    b.mtpr(Op::lit(0), Ipr::IPL);
    b.nop();
    b.halt();

    VirtualMachine &vm = rig.hv.createVm(VmConfig{});
    auto image = b.finish();
    rig.hv.loadVmImage(vm, 0x200, image);
    rig.hv.startVm(vm, 0x200);
    rig.hv.run(100000);
    EXPECT_EQ(vm.haltReason, VmHaltReason::HaltInstruction);
    EXPECT_EQ(vm.stats.virtualInterrupts, 0u);
    EXPECT_TRUE(vm.pendingInts.empty());
}

TEST(VmmServices, QueryFeaturesNeverSetsTheReservedBit)
{
    // kQueryFeatures advertises kDiskBatch and nothing else: bit 2 is
    // reserved (kcall.h), with the batch KCALL on or off.
    using namespace kcallabi;
    for (const bool batch : {false, true}) {
        HypervisorConfig hc;
        hc.diskBatchKcall = batch;
        VmRig rig(MachineModel::Vax8800, hc);
        CodeBuilder b(0x200);
        b.mtpr(Op::lit(kQueryFeatures), Ipr::KCALL);
        b.movl(Op::reg(R0), Op::reg(R6));
        b.halt();

        VirtualMachine &vm = rig.hv.createVm(VmConfig{});
        auto image = b.finish();
        rig.hv.loadVmImage(vm, 0x200, image);
        rig.hv.startVm(vm, 0x200);
        rig.hv.run(1000000);

        ASSERT_EQ(vm.haltReason, VmHaltReason::HaltInstruction);
        const Longword features = rig.m.cpu().reg(R6);
        EXPECT_EQ(features, batch ? Longword{kFeatureDiskBatch} : 0u);
        EXPECT_EQ(features & 4u, 0u) << "bit 2 is reserved";
    }
}

} // namespace
} // namespace vvax
