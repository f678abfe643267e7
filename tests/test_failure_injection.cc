/**
 * @file
 * Failure injection: kernel-stack-not-valid on frame pushes, bad
 * guest SCBs, a VM whose kernel stack is unmapped, invalid REI
 * images, double-fault behaviour, and the VMM's resource limits
 * (Section 5's "virtual memory limits" enforcement).
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "fault/fault_plan.h"
#include "tests/harness.h"
#include "vmm/hypervisor.h"

namespace vvax {
namespace {

TEST(FailureInjection, BareKernelStackNotValidHaltsTheMachine)
{
    // Kernel stack pointing at non-existent memory: the first
    // exception's frame push cannot complete.
    RealMachine m;
    CodeBuilder b(0x200);
    b.movl(Op::imm(0x30000000), Op::reg(SP)); // beyond RAM
    b.chmk(Op::imm(1)); // push must fault
    b.halt();
    auto image = b.finish();
    m.loadImage(b.origin(), image);
    m.cpu().setScbb(0x1200);
    m.memory().write32(0x1200 + 0x40, 0x400);
    m.cpu().setPc(b.origin());
    m.cpu().psl().setIpl(0);
    m.run(100);
    EXPECT_EQ(m.cpu().haltReason(), HaltReason::KernelStackNotValid);
}

TEST(FailureInjection, VmKernelStackNotValidHaltsOnlyTheVm)
{
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    Hypervisor hv(m);

    CodeBuilder b(0x200);
    b.mtpr(Op::imm(0xE00), Ipr::SCBB);
    b.mtpr(Op::imm(0x00F00000), Ipr::KSP); // beyond VM memory
    b.chmk(Op::imm(1)); // the VMM's frame push into the VM fails
    b.halt();

    VmConfig vc;
    vc.memBytes = 256 * 1024;
    VirtualMachine &vm = hv.createVm(vc);
    auto image = b.finish();
    hv.loadVmImage(vm, 0x200, image);
    hv.startVm(vm, 0x200);
    hv.run(100000);
    // The push lands in non-existent VM-physical memory, which the
    // paper's policy treats as a potential attack: halt the VM
    // (Section 5).
    EXPECT_EQ(vm.haltReason, VmHaltReason::NonExistentMemory);
    // The real machine is intact: it halted in an orderly fashion
    // because no other VM was runnable, not because it crashed.
    EXPECT_EQ(m.cpu().haltReason(), HaltReason::ExternalRequest);
}

TEST(FailureInjection, VmScbOutsideMemoryIsBadPageTable)
{
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    Hypervisor hv(m);

    CodeBuilder b(0x200);
    b.mtpr(Op::imm(0x00F00000), Ipr::SCBB); // beyond VM memory
    b.chmk(Op::imm(1));
    b.halt();

    VmConfig vc;
    vc.memBytes = 256 * 1024;
    VirtualMachine &vm = hv.createVm(vc);
    auto image = b.finish();
    hv.loadVmImage(vm, 0x200, image);
    hv.startVm(vm, 0x200);
    hv.run(100000);
    EXPECT_EQ(vm.haltReason, VmHaltReason::BadPageTable);
}

TEST(FailureInjection, VmExceedingSlrLimitIsHalted)
{
    // Section 5: the VMM is allowed to set a smaller limit on region
    // sizes; MiniVMS-style guests must fit, and one that declares an
    // enormous SPT is stopped.
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    HypervisorConfig hc;
    hc.vmSMaxPages = 64;
    Hypervisor hv(m, hc);

    CodeBuilder b(0x200);
    b.mtpr(Op::imm(0x8000), Ipr::SBR);
    b.mtpr(Op::imm(100000), Ipr::SLR); // over the installation limit
    b.halt();

    VirtualMachine &vm = hv.createVm(VmConfig{});
    auto image = b.finish();
    hv.loadVmImage(vm, 0x200, image);
    hv.startVm(vm, 0x200);
    hv.run(100000);
    EXPECT_EQ(vm.haltReason, VmHaltReason::BadPageTable);
}

TEST(FailureInjection, ReiWithGarbageImageFaults)
{
    RealMachine m;
    CodeBuilder b(0x200);
    Label resop = b.newLabel();
    b.pushl(Op::imm(0xFFFFFFFF)); // PSL image full of MBZ bits
    b.pushl(Op::imm(0x300));
    b.rei();
    b.halt();
    b.align(4);
    b.bind(resop);
    b.movl(Op::imm(0xE0E0), Op::reg(R9));
    b.halt();
    auto image = b.finish();
    m.loadImage(b.origin(), image);
    m.cpu().setScbb(0x1200);
    m.memory().write32(0x1200 + 0x18, b.labelAddress(resop));
    m.cpu().setPc(b.origin());
    m.cpu().psl().setIpl(0);
    m.cpu().setReg(SP, 0x1000);
    m.run(100);
    EXPECT_EQ(m.cpu().reg(R9), 0xE0E0u);
}

TEST(FailureInjection, ReiCannotForgeTheVmBit)
{
    // Loading a PSL image with PSL<VM> set is reserved except from
    // real kernel mode on the modified VAX - a non-kernel forger is
    // refused (the tamper-resistance requirement of Section 4).
    RealMachine m;
    CodeBuilder b(0x200);
    Label user_code = b.newLabel();
    Label resop = b.newLabel();
    Psl user_psl;
    user_psl.setCurrentMode(AccessMode::User);
    user_psl.setPreviousMode(AccessMode::User);
    b.pushl(Op::imm(user_psl.raw()));
    b.pushal(Op::ref(user_code));
    b.rei();
    b.align(4);
    b.bind(user_code);
    Psl forged = user_psl;
    forged.setVm(true);
    b.pushl(Op::imm(forged.raw()));
    b.pushal(Op::ref(user_code));
    b.rei(); // must take a reserved operand fault
    b.halt();
    b.align(4);
    b.bind(resop);
    b.movl(Op::imm(0xF0F0), Op::reg(R9));
    b.halt();
    auto image = b.finish();
    m.loadImage(b.origin(), image);
    m.cpu().setScbb(0x1200);
    m.memory().write32(0x1200 + 0x18, b.labelAddress(resop));
    m.cpu().setPc(b.origin());
    m.cpu().psl().setIpl(0);
    m.cpu().setReg(SP, 0x1000);
    m.cpu().setStackPointer(AccessMode::User, 0x1800);
    m.run(100);
    EXPECT_EQ(m.cpu().reg(R9), 0xF0F0u);
}

TEST(FailureInjection, NoGuestProgramRaisesHostException)
{
    // Every VMM invariant violation a guest can provoke must end in a
    // contained VM halt (VmHaltReason), never a host C++ exception:
    // std::invalid_argument and friends are reserved for host-API
    // misuse (bad VmConfig, malformed VVAX_FAULT_PLAN).  The probes
    // below aim at the historically dangerous spots: wild KCALL
    // arguments whose 32-bit sums wrap (addr + len, block * 512),
    // descriptor rings at the top of the address space, and garbage
    // control state - all while a fault plan is also firing.
    FaultPlan plan(13);
    std::string error;
    ASSERT_TRUE(FaultPlan::parse(
        "seed=13;disk-transient:every=2;torn:every=1;ecc:every=3;"
        "spurious:every=2",
        &plan, &error))
        << error;

    std::vector<CodeBuilder> hostiles;

    {
        // Wild single-transfer KCALL: R3 near 2^32 so addr + bytes
        // wraps in 32 bits.
        CodeBuilder b(0x200);
        b.movl(Op::imm(0x10), Op::reg(R1));
        b.movl(Op::imm(0xFFFFFFFF), Op::reg(R2));
        b.movl(Op::imm(0xFFFFFE00), Op::reg(R3));
        b.mtpr(Op::lit(1), Ipr::KCALL); // kDiskRead
        b.movl(Op::imm(0x7FFFFFFF), Op::reg(R1));
        b.movl(Op::imm(0x7FFFFFFF), Op::reg(R2));
        b.clrl(Op::reg(R3));
        b.mtpr(Op::lit(2), Ipr::KCALL); // kDiskWrite, block*512 wraps
        b.halt();
        hostiles.push_back(std::move(b));
    }
    {
        // Batch ring at the top of the address space, console write
        // whose buffer wraps, uptime mailbox on the last byte.
        CodeBuilder b(0x200);
        b.movl(Op::imm(0xFFFFFFF0), Op::reg(R1));
        b.movl(Op::imm(32), Op::reg(R2));
        b.mtpr(Op::lit(6), Ipr::KCALL); // kDiskBatch
        b.movl(Op::imm(0xFFFFFFFE), Op::reg(R1));
        b.movl(Op::imm(0xFFFFFFFF), Op::reg(R2));
        b.mtpr(Op::lit(3), Ipr::KCALL); // kConsoleWrite
        b.movl(Op::imm(0xFFFFFFFF), Op::reg(R1));
        b.mtpr(Op::lit(4), Ipr::KCALL); // kSetUptimeMailbox
        b.halt();
        hostiles.push_back(std::move(b));
    }
    {
        // Garbage SCB base and a CHMK through it.
        CodeBuilder b(0x200);
        b.mtpr(Op::imm(0xFFFFFC00), Ipr::SCBB);
        b.chmk(Op::imm(1));
        b.halt();
        hostiles.push_back(std::move(b));
    }
    {
        // A ring whose descriptors point everywhere: in-range ring,
        // hostile buffer addresses and counts.
        CodeBuilder b(0x200);
        for (Longword i = 0; i < 4; ++i) {
            const Longword d = 0x4000 + i * 16;
            b.movl(Op::imm(0xFFFFFFF0), Op::abs(d + 0)); // block
            b.movl(Op::imm(0xFFFFFFF0), Op::abs(d + 4)); // count
            b.movl(Op::imm(0xFFFFFF00), Op::abs(d + 8)); // vm_pa
            b.movl(Op::imm(1), Op::abs(d + 12));         // write
        }
        b.movl(Op::imm(0x4000), Op::reg(R1));
        b.movl(Op::imm(4), Op::reg(R2));
        b.mtpr(Op::lit(6), Ipr::KCALL);
        b.halt();
        hostiles.push_back(std::move(b));
    }
    {
        // EDIV of INT64_MIN by -1: the one quotient a host int64
        // division traps on (SIGFPE), raised by an unprivileged
        // instruction.
        CodeBuilder b(0x200);
        b.clrl(Op::reg(R2));
        b.movl(Op::imm(0x80000000), Op::reg(R3));
        b.emit(Opcode::EDIV, {Op::imm(0xFFFFFFFF), Op::reg(R2),
                              Op::reg(R6), Op::reg(R7)});
        b.halt();
        hostiles.push_back(std::move(b));
    }

    for (std::size_t i = 0; i < hostiles.size(); ++i) {
        MachineConfig mc;
        mc.ramBytes = 16 * 1024 * 1024;
        mc.level = MicrocodeLevel::Modified;
        RealMachine m(mc);
        FaultPlan run_plan = plan; // fresh firing budgets per guest
        m.setFaultPlan(&run_plan);
        Hypervisor hv(m);
        VmConfig vc;
        vc.memBytes = 256 * 1024;
        VirtualMachine &vm = hv.createVm(vc);
        auto image = hostiles[i].finish();
        hv.loadVmImage(vm, 0x200, image);
        hv.startVm(vm, 0x200);
        ASSERT_NO_THROW(hv.run(200000)) << "hostile guest " << i;
        // Contained: the VM ended somehow, the host shut down cleanly.
        EXPECT_TRUE(vm.halted()) << "hostile guest " << i;
        EXPECT_EQ(m.cpu().haltReason(), HaltReason::ExternalRequest)
            << "hostile guest " << i;
    }
}

TEST(FailureInjection, OversizedVmIsRejectedAtCreation)
{
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    Hypervisor hv(m);
    VmConfig vc;
    vc.memBytes = 64 * 1024 * 1024; // cannot fit the P0 table limit
    EXPECT_THROW(hv.createVm(vc), std::invalid_argument);
}

TEST(FailureInjection, HypervisorRequiresModifiedMicrocode)
{
    MachineConfig mc;
    mc.level = MicrocodeLevel::Standard;
    RealMachine m(mc);
    EXPECT_THROW(Hypervisor hv(m), std::invalid_argument);
}

} // namespace
} // namespace vvax
