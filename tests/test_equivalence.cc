/**
 * @file
 * Popek-Goldberg equivalence property tests (paper Section 2): a
 * program running in a virtual machine performs as if it were running
 * on the underlying hardware.
 *
 * Randomized programs (seeded, deterministic) run three ways - on a
 * bare standard VAX, on a bare modified VAX, and inside a virtual
 * machine - and their full architectural outcome (registers,
 * condition codes, memory) must be bit-identical.
 */

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <random>
#include <sstream>

#include <gtest/gtest.h>

#include "tests/harness.h"
#include "guest/microguests.h"
#include "guest/minivms.h"
#include "guest/miniultrix.h"
#include "vmm/hypervisor.h"

namespace vvax {
namespace {

constexpr VirtAddr kDataBase = 0x4000; // scratch page for stores
constexpr Longword kDataBytes = 1024;

/** Trips of randomProgram's loop: enough for its blocks to be built,
 *  bound to handlers and linked, so the body retires through the
 *  threaded driver as well as the interpreter. */
constexpr int kRandomTrips = 10;

/**
 * Generate a random integer program: registers seeded with known
 * values, then a straight-line body of @p length random operations
 * run kRandomTrips times.  R10 is the body's (R10)+ pointer into the
 * data page, reset at the top of every trip and whenever the next
 * access could leave the page; the body's last instruction captures
 * the condition codes in R10 with MOVPSL.  R11 counts the trips.
 */
CodeBuilder
randomProgram(std::uint32_t seed, int length)
{
    std::mt19937 rng(seed);
    CodeBuilder b(0x200);
    auto reg = [&] {
        return Op::reg(static_cast<Byte>(rng() % 10)); // r0..r9
    };
    auto src = [&]() -> Op {
        switch (rng() % 3) {
          case 0: return Op::lit(static_cast<Byte>(rng() % 64));
          case 1: return Op::imm(rng());
          default: return reg();
        }
    };
    // ASHL counts at and around every edge of the shift semantics.
    static constexpr std::int32_t kShiftEdges[] = {-33, -32, -31, -1, 0,
                                                   1,   31,  32,  33};
    Longword ptr_off = 0;
    auto resetPointer = [&] {
        b.movl(Op::imm(kDataBase), Op::reg(R10));
        ptr_off = 0;
    };
    // (R10)+ operand for an access of @p bytes.
    auto autoInc = [&](Longword bytes) {
        if (ptr_off + bytes > kDataBytes)
            resetPointer();
        ptr_off += bytes;
        return Op::autoInc(R10);
    };

    // Seed registers with known values.
    for (int r = 0; r < 10; ++r)
        b.movl(Op::imm(rng()), Op::reg(static_cast<Byte>(r)));

    b.movl(Op::imm(kRandomTrips), Op::reg(R11));
    Label trip = b.newLabel();
    b.bind(trip);
    resetPointer();
    for (int i = 0; i < length; ++i) {
        switch (rng() % 16) {
          case 0: b.addl2(src(), reg()); break;
          case 1: b.subl2(src(), reg()); break;
          case 2: b.mull2(src(), reg()); break;
          case 3: {
            // Guarded divide: force a non-zero divisor register.
            const Op d = reg();
            b.bisl2(Op::lit(1), d);
            b.divl2(d, reg());
            break;
          }
          case 4: b.xorl2(src(), reg()); break;
          case 5: b.bisl2(src(), reg()); break;
          case 6: b.bicl2(src(), reg()); break;
          case 7: b.movl(src(), reg()); break;
          case 8: b.mcoml(reg(), reg()); break;
          case 9: {
            const Longword offset = (rng() % (kDataBytes / 4)) * 4;
            b.movl(reg(), Op::abs(kDataBase + offset));
            break;
          }
          case 10: {
            const Longword offset = (rng() % (kDataBytes / 4)) * 4;
            b.movl(Op::abs(kDataBase + offset), reg());
            break;
          }
          case 11: {
            const auto count =
                static_cast<Byte>((rng() % 31) - 15 + 16); // 1..31
            b.ashl(Op::lit(count % 31), reg(), reg());
            break;
          }
          case 12: {
            const auto edge = kShiftEdges[rng() % std::size(kShiftEdges)];
            b.ashl(Op::imm(static_cast<Longword>(edge)), reg(), reg());
            break;
          }
          case 13: b.bicl3(src(), reg(), reg()); break;
          case 14: b.cmpb(autoInc(1), src()); break;
          default: {
            // One store in four writes the pointer through itself.
            const Op val = rng() % 4 == 0 ? Op::reg(R10) : reg();
            b.movl(val, autoInc(4));
            break;
          }
        }
    }
    b.movpsl(Op::reg(R10)); // capture the final condition codes
    // The body outgrows SOBGTR's byte displacement.
    Label done = b.newLabel();
    b.decl_(Op::reg(R11));
    b.beql(done);
    b.brw(trip);
    b.bind(done);
    b.halt();
    return b;
}

struct Outcome
{
    std::array<Longword, 11> regs{};
    std::vector<Byte> data;
    Longword psw = 0;

    bool
    operator==(const Outcome &other) const
    {
        return regs == other.regs && data == other.data &&
               psw == other.psw;
    }
};

Outcome
captureOutcome(Cpu &cpu, PhysicalMemory &mem, PhysAddr data_pa)
{
    Outcome o;
    for (int r = 0; r <= 10; ++r)
        o.regs[r] = cpu.reg(r);
    o.data.resize(kDataBytes);
    mem.readBlock(data_pa, o.data);
    o.psw = o.regs[10] & Psl::kCcMask; // from the MOVPSL capture
    return o;
}

Outcome
runBare(std::uint32_t seed, int length, MicrocodeLevel level)
{
    CodeBuilder b = randomProgram(seed, length);
    MachineConfig mc;
    mc.level = level;
    RealMachine m(mc);
    auto image = b.finish();
    m.loadImage(b.origin(), image);
    m.cpu().setPc(b.origin());
    m.cpu().psl().setIpl(31); // no timer interference
    m.cpu().setReg(SP, 0x3000);
    m.run(100000);
    EXPECT_EQ(m.cpu().haltReason(), HaltReason::HaltInstruction);
    return captureOutcome(m.cpu(), m.memory(), kDataBase);
}

Outcome
runVirtual(std::uint32_t seed, int length)
{
    CodeBuilder b = randomProgram(seed, length);
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    Hypervisor hv(m);
    VirtualMachine &vm = hv.createVm(VmConfig{});
    auto image = b.finish();
    hv.loadVmImage(vm, b.origin(), image);
    hv.startVm(vm, b.origin());
    hv.run(10000000);
    EXPECT_EQ(vm.haltReason, VmHaltReason::HaltInstruction);
    return captureOutcome(m.cpu(), m.memory(),
                          vm.vmPhysToReal(kDataBase));
}

class Equivalence : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(Equivalence, BareStandardVsBareModified)
{
    const Outcome std_o =
        runBare(GetParam(), 200, MicrocodeLevel::Standard);
    const Outcome mod_o =
        runBare(GetParam(), 200, MicrocodeLevel::Modified);
    EXPECT_TRUE(std_o == mod_o)
        << "the modified VAX must behave as a standard VAX";
}

TEST_P(Equivalence, BareVsVirtual)
{
    const Outcome bare =
        runBare(GetParam(), 200, MicrocodeLevel::Modified);
    const Outcome virt = runVirtual(GetParam(), 200);
    EXPECT_EQ(bare.psw, virt.psw) << "condition codes must match";
    for (int r = 0; r <= 10; ++r)
        EXPECT_EQ(bare.regs[r], virt.regs[r]) << "r" << r;
    EXPECT_EQ(bare.data, virt.data) << "memory must match";
}

INSTANTIATE_TEST_SUITE_P(Seeds, Equivalence,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u, 55u, 89u, 144u, 233u));

TEST(EquivalenceTimer, VirtualizationSurvivesPreemption)
{
    // Run a long program in a VM with an aggressively short scheduler
    // tick, so it is preempted many times mid-stream; the result must
    // still match the bare run.
    const std::uint32_t seed = 4242;
    const Outcome bare =
        runBare(seed, 400, MicrocodeLevel::Modified);

    CodeBuilder b = randomProgram(seed, 400);
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    HypervisorConfig hc;
    hc.tickCycles = 200; // preempt constantly
    hc.ticksPerQuantum = 1;
    Hypervisor hv(m, hc);
    VirtualMachine &vm = hv.createVm(VmConfig{});
    auto image = b.finish();
    hv.loadVmImage(vm, b.origin(), image);
    hv.startVm(vm, b.origin());
    hv.run(10000000);
    ASSERT_EQ(vm.haltReason, VmHaltReason::HaltInstruction);
    EXPECT_GT(vm.stats.vmEntries, 10u) << "must have been preempted";

    const Outcome virt = captureOutcome(m.cpu(), m.memory(),
                                        vm.vmPhysToReal(kDataBase));
    for (int r = 0; r <= 10; ++r)
        EXPECT_EQ(bare.regs[r], virt.regs[r]) << "r" << r;
    EXPECT_EQ(bare.data, virt.data);
    EXPECT_EQ(bare.psw, virt.psw);
}

// ----- Host fast path vs reference path --------------------------------
//
// The interpreter's host fast path (pointer-carrying TLB entries, the
// decoder's zero-copy instruction window, the predecoded-instruction
// cache) must be invisible: running the same workload with the fast
// path disabled (ExecTier::Reference, which turns on the MMU's
// reference path) must yield bit-identical architectural state AND
// bit-identical Stats counters (docs/ARCHITECTURE.md, "Host fast path
// vs simulated cost model").

/** Full architectural outcome of a machine, counters included. */
struct MachineDigest
{
    std::array<Longword, kNumRegs> regs{};
    Longword psl = 0;
    std::uint64_t ram = 0; //!< FNV-1a over all of physical memory
    Stats stats;
    Longword icr = 0;  //!< the real interval timer (MFPR ICR)
    Longword todr = 0; //!< and time of day (MFPR TODR)
    /** FNV-1a over (PC, instructions) at every run() return of a
     *  sliced run; 0 when the program ran in one call. */
    std::uint64_t trail = 0;

    bool operator==(const MachineDigest &other) const = default;
};

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

MachineDigest
digestOf(RealMachine &m)
{
    MachineDigest d;
    for (int r = 0; r < kNumRegs; ++r)
        d.regs[static_cast<std::size_t>(r)] = m.cpu().reg(r);
    d.psl = m.cpu().psl().raw();
    d.ram = fnv1a(m.memory().ram());
    d.stats = m.stats();
    m.cpu().readIprInternal(Ipr::ICR, d.icr);
    m.cpu().readIprInternal(Ipr::TODR, d.todr);
    return d;
}

void
expectDigestsEqual(const MachineDigest &fast, const MachineDigest &ref)
{
    for (int r = 0; r < kNumRegs; ++r)
        EXPECT_EQ(fast.regs[static_cast<std::size_t>(r)],
                  ref.regs[static_cast<std::size_t>(r)])
            << "r" << r;
    EXPECT_EQ(fast.psl, ref.psl) << "PSL";
    EXPECT_EQ(fast.ram, ref.ram) << "memory digest";
    EXPECT_EQ(fast.stats.instructions, ref.stats.instructions);
    EXPECT_EQ(fast.stats.tlbHits, ref.stats.tlbHits);
    EXPECT_EQ(fast.stats.tlbMisses, ref.stats.tlbMisses);
    EXPECT_EQ(fast.stats.hardwareModifySets,
              ref.stats.hardwareModifySets);
    EXPECT_EQ(fast.stats.modifyFaults, ref.stats.modifyFaults);
    EXPECT_EQ(fast.stats.translationFaults, ref.stats.translationFaults);
    EXPECT_EQ(fast.stats.accessViolations, ref.stats.accessViolations);
    EXPECT_EQ(fast.icr, ref.icr) << "ICR";
    EXPECT_EQ(fast.todr, ref.todr) << "TODR";
    EXPECT_EQ(fast.trail, ref.trail) << "run() budget boundaries";
    EXPECT_TRUE(fast.stats == ref.stats)
        << "every Stats field must be bit-identical";
    EXPECT_TRUE(fast == ref);
}

/** On the threaded tier, randomProgram's loop must retire mostly
 *  through the driver's fused handlers. */
void
expectLoopReachedDriver(RealMachine &m)
{
    if (m.cpu().execTier() != ExecTier::Threaded)
        return;
    EXPECT_GT(m.stats().threadedInstructions, m.stats().instructions / 2);
}

/** Run a random program on a bare modified VAX. */
MachineDigest
lockstepBareProgram(std::uint32_t seed, bool reference)
{
    CodeBuilder b = randomProgram(seed, 200);
    MachineConfig mc;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    m.cpu().setExecTier(reference ? ExecTier::Reference : ExecTier::Threaded);
    auto image = b.finish();
    m.loadImage(b.origin(), image);
    m.cpu().setPc(b.origin());
    m.cpu().psl().setIpl(31);
    m.cpu().setReg(SP, 0x3000);
    m.run(100000);
    EXPECT_EQ(m.cpu().haltReason(), HaltReason::HaltInstruction);
    expectLoopReachedDriver(m);
    return digestOf(m);
}

/** Execute random bytes (faults and all) on a bare machine. */
MachineDigest
lockstepFuzzBytes(std::uint32_t seed, bool reference)
{
    std::mt19937 rng(seed);
    std::vector<Byte> bytes(4096);
    for (Byte &b : bytes)
        b = static_cast<Byte>(rng());

    RealMachine m;
    m.cpu().setExecTier(reference ? ExecTier::Reference : ExecTier::Threaded);
    m.loadImage(0x200, bytes);
    m.cpu().setPc(0x200);
    m.cpu().psl().setIpl(31);
    m.cpu().setReg(SP, 0x8000);
    m.run(20000);
    return digestOf(m);
}

/** Run a random program inside a VM (mapped fetches, shadow PTs). */
MachineDigest
lockstepVirtualProgram(std::uint32_t seed, bool reference)
{
    CodeBuilder b = randomProgram(seed, 200);
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    m.cpu().setExecTier(reference ? ExecTier::Reference : ExecTier::Threaded);
    Hypervisor hv(m);
    VirtualMachine &vm = hv.createVm(VmConfig{});
    auto image = b.finish();
    hv.loadVmImage(vm, b.origin(), image);
    hv.startVm(vm, b.origin());
    hv.run(10000000);
    EXPECT_EQ(vm.haltReason, VmHaltReason::HaltInstruction);
    expectLoopReachedDriver(m);
    return digestOf(m);
}

/** Boot MiniVMS (kernel, MMU on, several processes) bare. */
MachineDigest
lockstepMiniVmsBare(bool reference)
{
    MiniVmsConfig cfg;
    cfg.numProcesses = 3;
    cfg.workloads = {Workload::Compute, Workload::Edit,
                     Workload::Transaction};
    cfg.iterations = 8;
    cfg.dataPagesPerProcess = 8;

    MachineConfig mc;
    mc.ramBytes = cfg.memBytes;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    m.cpu().setExecTier(reference ? ExecTier::Reference : ExecTier::Threaded);
    cfg.diskCsrPfn = mc.diskCsrBase >> kPageShift;
    MiniVmsImage img = buildMiniVms(cfg);
    m.loadImage(0, img.image);
    m.cpu().setPc(img.entry);
    m.cpu().psl().setIpl(31);
    m.run(30000000);
    EXPECT_EQ(m.cpu().haltReason(), HaltReason::HaltInstruction);
    EXPECT_EQ(m.memory().read32(img.resultBase),
              MiniVmsImage::kResultMagic);
    return digestOf(m);
}

/** Boot MiniVMS inside a virtual machine. */
MachineDigest
lockstepMiniVmsVirtual(bool reference)
{
    MiniVmsConfig cfg;
    cfg.numProcesses = 3;
    cfg.workloads = {Workload::Compute, Workload::Edit,
                     Workload::Transaction};
    cfg.iterations = 8;
    cfg.dataPagesPerProcess = 8;

    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    m.cpu().setExecTier(reference ? ExecTier::Reference : ExecTier::Threaded);
    Hypervisor hv(m);
    VmConfig vc;
    vc.memBytes = cfg.memBytes;
    vc.diskBlocks = 256;
    VirtualMachine &vm = hv.createVm(vc);
    MiniVmsImage img = buildMiniVms(cfg);
    hv.loadVmImage(vm, 0, img.image);
    hv.startVm(vm, img.entry);
    hv.run(30000000);
    EXPECT_EQ(vm.haltReason, VmHaltReason::HaltInstruction);
    return digestOf(m);
}

/**
 * Context-switch-heavy guest: a tight SVPCTX/LDPCTX/MTPR ping-pong
 * between two processes, stressing the shadow slot cache and the
 * tagged-TLB world-switch path in both execution paths.
 */
MachineDigest
lockstepContextSwitchVirtual(bool reference)
{
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    m.cpu().setExecTier(reference ? ExecTier::Reference : ExecTier::Threaded);
    Hypervisor hv(m);
    VirtualMachine &vm = hv.createVm(VmConfig{});
    MicroGuestImage img = buildContextSwitchLoop(400);
    hv.loadVmImage(vm, img.loadBase, img.image);
    hv.startVm(vm, img.entry);
    hv.run(10000000);
    EXPECT_EQ(vm.haltReason, VmHaltReason::HaltInstruction);
    // Two switches per loop pass; the final pass exits instead.
    EXPECT_EQ(vm.stats.ldpctxEmulations, 798u);
    return digestOf(m);
}

/** Trap-dense guest: MTPR IPL / MFPR / PROBER every iteration. */
MachineDigest
lockstepTrapDenseVirtual(bool reference)
{
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    m.cpu().setExecTier(reference ? ExecTier::Reference : ExecTier::Threaded);
    Hypervisor hv(m);
    VirtualMachine &vm = hv.createVm(VmConfig{});
    MicroGuestImage img = buildTrapDenseLoop(500);
    hv.loadVmImage(vm, img.loadBase, img.image);
    hv.startVm(vm, img.entry);
    hv.run(10000000);
    EXPECT_EQ(vm.haltReason, VmHaltReason::HaltInstruction);
    EXPECT_GE(vm.stats.mtprIplEmulations, 1000u);
    return digestOf(m);
}

/**
 * Self-modifying code: the guest rewrites the literal byte of an
 * ADDL2 inside a run of code that already executed (and so already
 * has live icache entries and superblocks on the fast path), and now
 * and then the opcode of the stopper capping a block that has run.  The
 * reference interpreter re-fetches every byte, so lockstep agreement
 * proves the fast path never serves stale code or diverges in the
 * TLB/cycle accounting while invalidating.
 */
MachineDigest
lockstepSmcBare(bool cross_page, bool reference)
{
    MachineConfig mc;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    m.cpu().setExecTier(reference ? ExecTier::Reference : ExecTier::Threaded);
    MicroGuestImage img = buildSmcPatchLoop(600, cross_page);
    m.loadImage(img.loadBase, img.image);
    m.cpu().setPc(img.entry);
    m.cpu().psl().setIpl(31);
    m.run(100000);
    EXPECT_EQ(m.cpu().haltReason(), HaltReason::HaltInstruction);
    // The patched addend alternates 2,1,2,1,... over 600 passes.
    EXPECT_EQ(m.cpu().reg(0), 900u);
    EXPECT_EQ(m.cpu().reg(R3), 600u);
    // The stopper flips an odd number of times, so the last pass
    // runs MOVL #18, R7 instead of MFPR #IPL, R7.
    static_assert(600 / kSmcStopperPeriod % 2 == 1);
    EXPECT_EQ(m.cpu().reg(R7), 18u);
    return digestOf(m);
}

/** The same self-modifying guest inside a virtual machine. */
MachineDigest
lockstepSmcVirtual(bool cross_page, bool reference)
{
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    m.cpu().setExecTier(reference ? ExecTier::Reference : ExecTier::Threaded);
    Hypervisor hv(m);
    VirtualMachine &vm = hv.createVm(VmConfig{});
    MicroGuestImage img = buildSmcPatchLoop(600, cross_page);
    hv.loadVmImage(vm, img.loadBase, img.image);
    hv.startVm(vm, img.entry);
    hv.run(10000000);
    EXPECT_EQ(vm.haltReason, VmHaltReason::HaltInstruction);
    return digestOf(m);
}

/**
 * Code patched from *outside* the CPU between run() calls: the first
 * run leaves live superblocks for the loop body, then the test pokes
 * the ADDL2 literal through PhysicalMemory::writeBlock and resumes.
 * The stale block must be dropped at its next entry validation.
 */
MachineDigest
lockstepExternalPatch(bool reference)
{
    CodeBuilder b(0x200);
    b.movl(Op::imm(100), Op::reg(R6));
    b.clrl(Op::reg(R0));
    Label loop = b.newLabel();
    b.bind(loop);
    b.addl2(Op::lit(1), Op::reg(R0));
    b.sobgtr(Op::reg(R6), loop);
    b.halt();

    MachineConfig mc;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    m.cpu().setExecTier(reference ? ExecTier::Reference : ExecTier::Threaded);
    auto image = b.finish();
    m.loadImage(b.origin(), image);
    const VirtAddr lit_addr = b.labelAddress(loop) + 1;
    m.cpu().setPc(b.origin());
    m.cpu().psl().setIpl(31);

    // 2 setup instructions + 50 iterations of 2 instructions each.
    m.run(102);
    EXPECT_EQ(m.cpu().reg(0), 50u);

    const Byte patched = 5; // short literal: now adds 5 per pass
    m.memory().writeBlock(lit_addr, std::span<const Byte>(&patched, 1));
    m.run(100000);
    EXPECT_EQ(m.cpu().haltReason(), HaltReason::HaltInstruction);
    EXPECT_EQ(m.cpu().reg(0), 300u);
    if (!reference) {
        EXPECT_GE(m.stats().blockInvalidations, 1u)
            << "the external write must drop the stale block";
    }
    return digestOf(m);
}

/**
 * Self-modifying *branch*: the guest rewrites the displacement byte
 * of a BRB inside a trace that has linked up on the fast path
 * (docs/ARCHITECTURE.md §5b), flipping it between the two arms every
 * pass.  Every link crossing into the patched block must notice the
 * page-generation bump, fall back to the slow path, and sever the
 * stale edge before the rewritten branch runs.
 */
MachineDigest
lockstepBranchPatchBare(bool cross_page, bool reference,
                        bool links = true)
{
    MachineConfig mc;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    m.cpu().setExecTier(reference ? ExecTier::Reference : ExecTier::Threaded);
    m.cpu().setTraceLinksEnabled(links);
    MicroGuestImage img = buildBranchPatchLoop(600, cross_page);
    m.loadImage(img.loadBase, img.image);
    m.cpu().setPc(img.entry);
    m.cpu().psl().setIpl(31);
    m.run(100000);
    EXPECT_EQ(m.cpu().haltReason(), HaltReason::HaltInstruction);
    // Both arms bump r0 by 4 total; r1 takes +2 or +5 depending on
    // which arm each 16-pass segment lands in.
    EXPECT_EQ(m.cpu().reg(0), 2400u);
    EXPECT_EQ(m.cpu().reg(1), branchPatchExpectedR1(600));
    if (!reference && links) {
        EXPECT_GT(m.stats().traceLinksFormed, 0u);
        EXPECT_GT(m.stats().traceLinksTaken, 0u);
        EXPECT_GE(m.stats().traceLinksSevered, 1u)
            << "patching a linked trace must sever the inbound edges";
    }
    return digestOf(m);
}

/** The branch-patching guest inside a virtual machine. */
MachineDigest
lockstepBranchPatchVirtual(bool cross_page, bool reference)
{
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    m.cpu().setExecTier(reference ? ExecTier::Reference : ExecTier::Threaded);
    Hypervisor hv(m);
    VirtualMachine &vm = hv.createVm(VmConfig{});
    MicroGuestImage img = buildBranchPatchLoop(600, cross_page);
    hv.loadVmImage(vm, img.loadBase, img.image);
    hv.startVm(vm, img.entry);
    hv.run(10000000);
    EXPECT_EQ(vm.haltReason, VmHaltReason::HaltInstruction);
    EXPECT_EQ(m.cpu().reg(0), 2400u);
    EXPECT_EQ(m.cpu().reg(1), branchPatchExpectedR1(600));
    if (!reference) {
        EXPECT_GE(m.stats().traceLinksSevered, 1u);
    }
    return digestOf(m);
}

/**
 * A trace link severed by an *external* writeBlock poke between run()
 * calls: the first run gets the two-block loop hot and linked, then
 * the test patches the literal of the ADDL2 in the link-target block
 * through PhysicalMemory::writeBlock and resumes.  The next crossing
 * must reject the dirtied generation, and the slow path must drop the
 * stale block and sever every inbound edge.
 */
MachineDigest
lockstepExternalLinkSever(bool reference)
{
    CodeBuilder b(0x200);
    b.movl(Op::imm(400), Op::reg(R6));
    b.clrl(Op::reg(R0));
    Label loop = b.newLabel();
    Label next = b.newLabel();
    b.bind(loop);
    b.addl2(Op::lit(1), Op::reg(R0));
    b.brb(next); // split the loop body into two linkable blocks
    b.bind(next);
    b.addl2(Op::lit(2), Op::reg(R0));
    b.sobgtr(Op::reg(R6), loop);
    b.halt();

    MachineConfig mc;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    m.cpu().setExecTier(reference ? ExecTier::Reference : ExecTier::Threaded);
    auto image = b.finish();
    m.loadImage(b.origin(), image);
    const VirtAddr lit_addr = b.labelAddress(next) + 1;
    m.cpu().setPc(b.origin());
    m.cpu().psl().setIpl(31);

    // 2 setup instructions + 50 iterations of 4 instructions each:
    // far past the link threshold, so the loop edges are formed and
    // being followed when the poke lands.
    m.run(202);
    EXPECT_EQ(m.cpu().reg(0), 150u);
    if (!reference) {
        EXPECT_GT(m.stats().traceLinksTaken, 0u)
            << "the loop must be running on linked traces by now";
    }

    const Byte patched = 5; // short literal: now adds 1+5 per pass
    m.memory().writeBlock(lit_addr, std::span<const Byte>(&patched, 1));
    m.run(100000);
    EXPECT_EQ(m.cpu().haltReason(), HaltReason::HaltInstruction);
    EXPECT_EQ(m.cpu().reg(0), 150u + 350u * 6u);
    if (!reference) {
        EXPECT_GE(m.stats().blockInvalidations, 1u);
        EXPECT_GE(m.stats().traceLinksSevered, 1u)
            << "the external write must sever the inbound link";
    }
    return digestOf(m);
}

/** The external link-severing poke against a guest inside a VM. */
MachineDigest
lockstepExternalLinkSeverVirtual(bool reference)
{
    CodeBuilder b(0x200);
    b.movl(Op::imm(20000), Op::reg(R6));
    b.clrl(Op::reg(R0));
    Label loop = b.newLabel();
    Label next = b.newLabel();
    b.bind(loop);
    b.addl2(Op::lit(1), Op::reg(R0));
    b.brb(next);
    b.bind(next);
    b.addl2(Op::lit(2), Op::reg(R0));
    b.sobgtr(Op::reg(R6), loop);
    b.halt();

    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    m.cpu().setExecTier(reference ? ExecTier::Reference : ExecTier::Threaded);
    Hypervisor hv(m);
    VirtualMachine &vm = hv.createVm(VmConfig{});
    auto image = b.finish();
    hv.loadVmImage(vm, b.origin(), image);
    hv.startVm(vm, b.origin());

    // Pause mid-loop (both paths execute the identical instruction
    // stream, so the same budget pauses at the same guest state),
    // poke the link-target block through the VM physical mapping,
    // and resume to completion.
    hv.run(40000);
    EXPECT_EQ(vm.haltReason, VmHaltReason::None)
        << "the poke must land while the loop is still running";
    EXPECT_GT(m.cpu().reg(0), 0u)
        << "the loop must have started before the poke";
    const Byte patched = 5;
    m.memory().writeBlock(vm.vmPhysToReal(b.labelAddress(next) + 1),
                          std::span<const Byte>(&patched, 1));
    hv.run(10000000);
    EXPECT_EQ(vm.haltReason, VmHaltReason::HaltInstruction);
    if (!reference) {
        EXPECT_GT(m.stats().traceLinksTaken, 0u);
        EXPECT_GE(m.stats().traceLinksSevered, 1u);
    }
    return digestOf(m);
}

/** Boot MiniUltrix inside a virtual machine. */
MachineDigest
lockstepMiniUltrixVirtual(bool reference)
{
    MiniUltrixConfig cfg;

    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    m.cpu().setExecTier(reference ? ExecTier::Reference : ExecTier::Threaded);
    Hypervisor hv(m);
    VmConfig vc;
    vc.memBytes = cfg.memBytes;
    VirtualMachine &vm = hv.createVm(vc);
    MiniUltrixImage img = buildMiniUltrix(cfg);
    hv.loadVmImage(vm, 0, img.image);
    hv.startVm(vm, img.entry);
    hv.run(20000000);
    EXPECT_EQ(vm.haltReason, VmHaltReason::HaltInstruction);
    EXPECT_EQ(m.memory().read32(vm.vmPhysToReal(img.resultBase)),
              MiniUltrixImage::kResultMagic);
    return digestOf(m);
}

/** The I/O-dense guest's console+ALU shape on a bare machine. */
MachineDigest
lockstepIoDenseBare(bool reference)
{
    MachineConfig mc;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    m.cpu().setExecTier(reference ? ExecTier::Reference : ExecTier::Threaded);
    MicroGuestImage img = buildIoDenseLoop(200, false);
    m.loadImage(img.loadBase, img.image);
    m.cpu().setPc(img.entry);
    m.cpu().psl().setIpl(31);
    m.run(1000000);
    EXPECT_EQ(m.cpu().haltReason(), HaltReason::HaltInstruction);
    return digestOf(m);
}

/**
 * The I/O-dense guest in a VM, posting all of its disk transfers
 * through the kDiskBatch descriptor ring with console coalescing on:
 * the heaviest user of the batched virtual-I/O layer runs bit-identical
 * on the fast and reference host paths.
 */
MachineDigest
lockstepIoDenseVirtual(bool reference)
{
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    m.cpu().setExecTier(reference ? ExecTier::Reference : ExecTier::Threaded);
    Hypervisor hv(m);
    VirtualMachine &vm = hv.createVm(VmConfig{});
    MicroGuestImage img = buildIoDenseLoop(60, true);
    hv.loadVmImage(vm, img.loadBase, img.image);
    hv.startVm(vm, img.entry);
    hv.run(10000000);
    EXPECT_EQ(vm.haltReason, VmHaltReason::HaltInstruction);
    EXPECT_EQ(vm.stats.diskKcallBatches, 60u);
    EXPECT_EQ(vm.stats.batchedDiskBlocks,
              60u * static_cast<std::uint64_t>(kIoDenseDescriptors));
    return digestOf(m);
}

class FastPathLockstep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(FastPathLockstep, RandomProgramOnBareMachine)
{
    expectDigestsEqual(lockstepBareProgram(GetParam(), false),
                       lockstepBareProgram(GetParam(), true));
}

TEST_P(FastPathLockstep, RandomBytesWithFaults)
{
    expectDigestsEqual(lockstepFuzzBytes(GetParam(), false),
                       lockstepFuzzBytes(GetParam(), true));
}

TEST_P(FastPathLockstep, RandomProgramInsideVm)
{
    expectDigestsEqual(lockstepVirtualProgram(GetParam(), false),
                       lockstepVirtualProgram(GetParam(), true));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastPathLockstep,
                         ::testing::Values(7u, 1009u, 40961u, 65537u,
                                           99991u, 123456789u));

TEST(FastPathLockstep, MiniVmsBootBare)
{
    expectDigestsEqual(lockstepMiniVmsBare(false),
                       lockstepMiniVmsBare(true));
}

TEST(FastPathLockstep, MiniVmsBootVirtualized)
{
    expectDigestsEqual(lockstepMiniVmsVirtual(false),
                       lockstepMiniVmsVirtual(true));
}

TEST(FastPathLockstep, ContextSwitchStormVirtualized)
{
    expectDigestsEqual(lockstepContextSwitchVirtual(false),
                       lockstepContextSwitchVirtual(true));
}

TEST(FastPathLockstep, TrapDenseLoopVirtualized)
{
    expectDigestsEqual(lockstepTrapDenseVirtual(false),
                       lockstepTrapDenseVirtual(true));
}

TEST(FastPathLockstep, SmcPatchSamePageBare)
{
    expectDigestsEqual(lockstepSmcBare(false, false),
                       lockstepSmcBare(false, true));
}

TEST(FastPathLockstep, SmcPatchCrossPageBare)
{
    expectDigestsEqual(lockstepSmcBare(true, false),
                       lockstepSmcBare(true, true));
}

TEST(FastPathLockstep, SmcPatchSamePageVirtualized)
{
    expectDigestsEqual(lockstepSmcVirtual(false, false),
                       lockstepSmcVirtual(false, true));
}

TEST(FastPathLockstep, SmcPatchCrossPageVirtualized)
{
    expectDigestsEqual(lockstepSmcVirtual(true, false),
                       lockstepSmcVirtual(true, true));
}

TEST(FastPathLockstep, ExternalWriteInvalidatesBlocks)
{
    expectDigestsEqual(lockstepExternalPatch(false),
                       lockstepExternalPatch(true));
}

TEST(FastPathLockstep, BranchPatchSamePageBare)
{
    expectDigestsEqual(lockstepBranchPatchBare(false, false),
                       lockstepBranchPatchBare(false, true));
}

TEST(FastPathLockstep, BranchPatchCrossPageBare)
{
    expectDigestsEqual(lockstepBranchPatchBare(true, false),
                       lockstepBranchPatchBare(true, true));
}

TEST(FastPathLockstep, BranchPatchSamePageVirtualized)
{
    expectDigestsEqual(lockstepBranchPatchVirtual(false, false),
                       lockstepBranchPatchVirtual(false, true));
}

TEST(FastPathLockstep, BranchPatchCrossPageVirtualized)
{
    expectDigestsEqual(lockstepBranchPatchVirtual(true, false),
                       lockstepBranchPatchVirtual(true, true));
}

TEST(FastPathLockstep, ExternalWriteSeversTraceLink)
{
    expectDigestsEqual(lockstepExternalLinkSever(false),
                       lockstepExternalLinkSever(true));
}

TEST(FastPathLockstep, ExternalWriteSeversTraceLinkVirtualized)
{
    expectDigestsEqual(lockstepExternalLinkSeverVirtual(false),
                       lockstepExternalLinkSeverVirtual(true));
}

TEST(FastPathLockstep, TraceLinksDisabledMatchesEnabled)
{
    // Both runs use the fast path; only the trace tier differs.  The
    // architectural digest (and every counter Stats::operator==
    // compares) must be bit-identical either way.
    expectDigestsEqual(
        lockstepBranchPatchBare(false, false, /*links=*/true),
        lockstepBranchPatchBare(false, false, /*links=*/false));
}

// ---------------------------------------------------------------------------
// Block executor (docs/ARCHITECTURE.md §5c): every runnable superblock
// retires through the threaded driver, so the adversarial guests above
// - self-modifying code, branches patched inside linked traces,
// external pokes landing between run() calls - already pin it against
// the reference interpreter.  The tests below guard that the driver
// really is the only block executor, cold blocks and faults included.
// ---------------------------------------------------------------------------

TEST(ThreadedTierLockstep, BranchPatchMatchesReferenceBare)
{
    expectDigestsEqual(lockstepBranchPatchBare(true, false),
                       lockstepBranchPatchBare(true, true));
}

TEST(ThreadedTierLockstep, HotBlocksRetireThroughCompiledPrograms)
{
    // Guard against a silent fallback: the driver must actually bind
    // handlers and retire instructions, not quietly route everything
    // through the per-instruction path.
    MachineConfig mc;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    m.cpu().setExecTier(ExecTier::Threaded);
    CodeBuilder b(0x200);
    b.movl(Op::imm(2000), Op::reg(R6));
    b.clrl(Op::reg(R0));
    Label loop = b.newLabel();
    b.bind(loop);
    b.addl2(Op::lit(1), Op::reg(R0));
    b.sobgtr(Op::reg(R6), loop);
    b.halt();
    auto image = b.finish();
    m.loadImage(b.origin(), image);
    m.cpu().setPc(b.origin());
    m.cpu().psl().setIpl(31);
    m.run(100000);
    EXPECT_EQ(m.cpu().haltReason(), HaltReason::HaltInstruction);
    EXPECT_EQ(m.cpu().reg(0), 2000u);
    EXPECT_GT(m.stats().threadedCompiles, 0u);
    EXPECT_GT(m.stats().threadedInstructions, 0u);
    EXPECT_EQ(m.stats().threadedInstructions, m.stats().blockInstructions);
}

/**
 * A loop whose blocks each run fewer than Block::kLinkThreshold times,
 * with an integer-overflow trap raised in the middle of the loop body
 * on the third pass.  The handler counts the trap in R9 and REIs back
 * to the instruction after the overflowing ADDL2.  The body mixes
 * fused ops, a Generic template replay (ADDL3) and a store.
 */
MachineDigest
lockstepColdBlocksWithFault(bool reference, std::uint64_t *links_formed)
{
    constexpr PhysAddr kScb = 0x1200;
    CodeBuilder b(0x200);
    Label loop = b.newLabel();
    Label handler = b.newLabel();
    b.movl(Op::imm(6), Op::reg(R6));
    b.movl(Op::imm(0x7FFFFFFD), Op::reg(R3));
    b.movl(Op::imm(0x3000), Op::reg(R5));
    b.clrl(Op::reg(R0));
    b.bind(loop);
    b.addl2(Op::lit(1), Op::reg(R0));
    b.addl3(Op::reg(R0), Op::reg(R0), Op::reg(R2));
    b.movl(Op::reg(R2), Op::deferred(R5));
    b.addl2(Op::lit(1), Op::reg(R3)); // overflows on the third pass
    b.incl(Op::reg(R4));
    b.sobgtr(Op::reg(R6), loop);
    b.halt();
    b.align(4);
    b.bind(handler);
    b.addl2(Op::lit(4), Op::reg(SP)); // pop the trap code
    b.incl(Op::reg(R9));
    b.rei();

    MachineConfig mc;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    m.cpu().setExecTier(reference ? ExecTier::Reference : ExecTier::Threaded);
    auto image = b.finish();
    m.loadImage(b.origin(), image);
    m.cpu().setScbb(kScb);
    m.memory().write32(kScb + static_cast<PhysAddr>(ScbVector::Arithmetic),
                       b.labelAddress(handler));
    m.cpu().setPc(b.origin());
    m.cpu().psl().setIpl(0);
    m.cpu().psl().setFlag(Psl::kIv, true);
    m.cpu().setReg(SP, 0x1000);
    m.run(100000);
    EXPECT_EQ(m.cpu().haltReason(), HaltReason::HaltInstruction);
    EXPECT_EQ(m.cpu().reg(R9), 1u) << "exactly one overflow trap";
    EXPECT_EQ(m.cpu().reg(R0), 6u);
    EXPECT_EQ(m.cpu().reg(R4), 6u);
    EXPECT_EQ(m.memory().read32(0x3000), 12u);
    *links_formed = m.stats().traceLinksFormed;
    return digestOf(m);
}

TEST(ThreadedTierLockstep, ColdBlocksRetireThroughTheDriver)
{
    std::uint64_t fast_links = 0;
    std::uint64_t ref_links = 0;
    const MachineDigest fast = lockstepColdBlocksWithFault(false, &fast_links);
    const MachineDigest ref = lockstepColdBlocksWithFault(true, &ref_links);
    EXPECT_EQ(fast_links, 0u) << "every block must stay below the "
                                 "link threshold";
    EXPECT_GT(fast.stats.blockInstructions, 0u);
    EXPECT_EQ(fast.stats.threadedInstructions,
              fast.stats.blockInstructions)
        << "cold blocks must retire through the threaded driver";
    // Interrupts stay masked, mapping is off and the budget is ample,
    // so the one bail is the overflow trap leaving a block mid-run.
    EXPECT_EQ(fast.stats.threadedBails, 1u);
    expectDigestsEqual(fast, ref);
}

/**
 * Run @p b's program from its origin on @p tier, bare (kernel mode,
 * IPL 31, mapping off) or as the whole program of a VM, until it
 * halts.  When @p data is non-empty it receives the guest-physical
 * bytes from @p data_pa on.  A nonzero @p slice runs the program
 * @p slice instructions per run() call and records where every call
 * stopped in the digest's trail.  A VM does its disk I/O the @p io
 * way.
 */
MachineDigest
lockstepProgram(CodeBuilder &b, bool virtualized, ExecTier tier,
                std::span<Byte> data = {}, PhysAddr data_pa = 0,
                std::uint64_t slice = 0, VmIoMode io = VmIoMode::Kcall)
{
    constexpr std::uint64_t kBudget = 10000000;
    const auto image = b.finish();
    MachineConfig mc;
    mc.level = MicrocodeLevel::Modified;
    if (virtualized)
        mc.ramBytes = 16 * 1024 * 1024;
    RealMachine m(mc);
    m.cpu().setExecTier(tier);
    std::uint64_t trail = 0;
    // Runs @p run until @p halted, whole or slice by slice.
    const auto drive = [&](auto run, auto halted) {
        if (slice == 0) {
            run(kBudget);
            return;
        }
        trail = 14695981039346656037ull;
        for (std::uint64_t n = 0; n < kBudget && !halted(); n += slice) {
            run(slice);
            for (const std::uint64_t v :
                 {std::uint64_t{m.cpu().reg(PC)}, m.stats().instructions}) {
                trail ^= v;
                trail *= 1099511628211ull;
            }
        }
    };
    MachineDigest d;
    if (virtualized) {
        Hypervisor hv(m);
        VmConfig vc;
        vc.ioMode = io;
        VirtualMachine &vm = hv.createVm(vc);
        hv.loadVmImage(vm, b.origin(), image);
        hv.startVm(vm, b.origin());
        drive([&](std::uint64_t n) { hv.run(n); },
              [&] { return vm.haltReason != VmHaltReason::None; });
        EXPECT_EQ(vm.haltReason, VmHaltReason::HaltInstruction);
        if (!data.empty())
            m.memory().readBlock(vm.vmPhysToReal(data_pa), data);
        d = digestOf(m);
    } else {
        m.loadImage(b.origin(), image);
        m.cpu().setPc(b.origin());
        m.cpu().psl().setIpl(31);
        drive([&](std::uint64_t n) { m.run(n); },
              [&] { return m.cpu().runState() == RunState::Halted; });
        EXPECT_EQ(m.cpu().haltReason(), HaltReason::HaltInstruction);
        if (!data.empty())
            m.memory().readBlock(data_pa, data);
        d = digestOf(m);
    }
    d.trail = trail;
    return d;
}

/**
 * Run @p build's program on the fast and threaded tiers and on the
 * reference tier (@p slice instructions per run() call when nonzero);
 * all three digests must be equal.  Returns the threaded run's
 * digest.
 */
template <typename Build>
MachineDigest
tiersMatchReference(Build build, bool virtualized, std::uint64_t slice = 0,
                    VmIoMode io = VmIoMode::Kcall)
{
    CodeBuilder ref_b = build();
    const MachineDigest ref = lockstepProgram(
        ref_b, virtualized, ExecTier::Reference, {}, 0, slice, io);
    CodeBuilder fast_b = build();
    {
        SCOPED_TRACE("fast tier");
        expectDigestsEqual(lockstepProgram(fast_b, virtualized,
                                           ExecTier::Fast, {}, 0, slice, io),
                           ref);
    }
    CodeBuilder threaded_b = build();
    const MachineDigest threaded = lockstepProgram(
        threaded_b, virtualized, ExecTier::Threaded, {}, 0, slice, io);
    SCOPED_TRACE("threaded tier");
    expectDigestsEqual(threaded, ref);
    return threaded;
}

constexpr VirtAddr kLoopData = 0x6000;

/**
 * The hot loops of the MiniVMS workloads (guest/minivms.cc), shape for
 * shape: the Compute ALU loop, the Edit newline scan over a 120-byte
 * line, and the Transaction record fill.
 */
CodeBuilder
hotWorkloadLoops()
{
    CodeBuilder b(0x200);
    Label compute = b.newLabel();
    Label outer = b.newLabel();
    Label scan = b.newLabel();
    Label scan_done = b.newLabel();
    Label fill = b.newLabel();
    Label line = b.newLabel();
    b.movl(Op::imm(400), Op::reg(R6));
    b.movl(Op::lit(7), Op::reg(R0));
    b.bind(compute);
    b.mull2(Op::lit(13), Op::reg(R0));
    b.addl2(Op::lit(11), Op::reg(R0));
    b.divl2(Op::lit(3), Op::reg(R0));
    b.ashl(Op::lit(2), Op::reg(R0), Op::reg(R1));
    b.xorl2(Op::reg(R1), Op::reg(R0));
    b.movl(Op::reg(R0), Op::abs(kLoopData));
    b.sobgtr(Op::reg(R6), compute);

    b.movl(Op::lit(20), Op::reg(R11));
    b.bind(outer);
    b.movl(Op::immLabel(line), Op::reg(R3));
    b.movl(Op::imm(120), Op::reg(R8));
    b.bind(scan);
    b.cmpb(Op::autoInc(R3), Op::imm('\n'));
    b.beql(scan_done);
    b.sobgtr(Op::reg(R8), scan);
    b.bind(scan_done);
    b.bicl3(Op::imm(~7u), Op::reg(R11), Op::reg(R7));
    b.ashl(Op::imm(9), Op::reg(R7), Op::reg(R7));
    b.addl2(Op::imm(kLoopData), Op::reg(R7));
    b.movl(Op::lit(16), Op::reg(R8));
    b.bind(fill);
    b.movl(Op::reg(R11), Op::autoInc(R7));
    b.sobgtr(Op::reg(R8), fill);
    b.sobgtr(Op::reg(R11), outer);
    b.halt();
    b.bind(line);
    b.space(119, '.');
    b.byte('\n');
    return b;
}

TEST(ThreadedTierLockstep, HotWorkloadLoopsRetireNoGenericSteps)
{
    // Every instruction of the workload loops has a fused handler, so
    // the driver never falls back to replaying a template through the
    // execute switch - while the digests still match the reference.
    for (const bool virtualized : {false, true}) {
        SCOPED_TRACE(virtualized ? "virtualized" : "bare");
        const MachineDigest fast =
            tiersMatchReference(hotWorkloadLoops, virtualized);
        std::int32_t r0 = 7;
        for (int i = 0; i < 400; ++i) {
            r0 = static_cast<std::int32_t>(static_cast<Longword>(r0) * 13u +
                                           11u) /
                 3;
            r0 ^= static_cast<std::int32_t>(static_cast<Longword>(r0) << 2);
        }
        EXPECT_EQ(fast.regs[R0], static_cast<Longword>(r0));
        EXPECT_GT(fast.stats.threadedInstructions,
                  fast.stats.instructions * 9 / 10);
        EXPECT_EQ(fast.stats.threadedGenericSteps, 0u);
    }
}

/**
 * MULL2 overflow, DIVL2 by zero and DIVL2 INT32_MIN / -1 in a hot
 * loop, first with PSL<IV> clear (only the divide by zero traps; the
 * loop counts the V results itself) and then with it set (all three
 * trap).  The handler logs each trap's code and saved PSL.
 */
CodeBuilder
arithTrapLoops()
{
    constexpr int kTrips = 12;
    CodeBuilder b(0x200);
    Label handler = b.newLabel();
    b.movl(Op::imm(0x3000), Op::reg(SP));
    b.movl(Op::immLabel(handler),
           Op::abs(static_cast<Longword>(ScbVector::Arithmetic)));
    b.movl(Op::imm(kLoopData), Op::reg(R10));
    b.clrl(Op::reg(R4)); // the zero divisor
    for (const bool iv : {false, true}) {
        Label loop = b.newLabel();
        Label no_mul_v = b.newLabel();
        Label no_div_v = b.newLabel();
        if (iv)
            b.bispsw(Op::imm(Psl::kIv));
        b.movl(Op::imm(kTrips), Op::reg(R6));
        b.bind(loop);
        b.movl(Op::imm(0x40000000), Op::reg(R1));
        b.mull2(Op::lit(4), Op::reg(R1));
        b.bvc(no_mul_v);
        b.incl(Op::reg(R7));
        b.bind(no_mul_v);
        b.movl(Op::imm(0x80000000), Op::reg(R2));
        b.divl2(Op::imm(0xFFFFFFFF), Op::reg(R2));
        b.bvc(no_div_v);
        b.incl(Op::reg(R8));
        b.bind(no_div_v);
        b.movl(Op::imm(100), Op::reg(R3));
        b.divl2(Op::reg(R4), Op::reg(R3));
        b.mull2(Op::reg(R6), Op::reg(R3));
        b.divl2(Op::lit(7), Op::reg(R3));
        b.addl2(Op::reg(R3), Op::reg(R5));
        b.sobgtr(Op::reg(R6), loop);
    }
    b.halt();
    b.align(4); // SCB entries steal the low bits for stack select
    b.bind(handler);
    b.movl(Op::autoInc(SP), Op::autoInc(R10)); // trap code
    b.movl(Op::disp(4, SP), Op::autoInc(R10)); // saved PSL
    b.incl(Op::reg(R9));
    b.rei();
    return b;
}

TEST(ThreadedTierLockstep, ArithmeticTrapsMatchReference)
{
    for (const bool virtualized : {false, true}) {
        SCOPED_TRACE(virtualized ? "virtualized" : "bare");
        const MachineDigest fast =
            tiersMatchReference(arithTrapLoops, virtualized);
        // 12 divide-by-zero traps with IV clear, then 12 each of
        // overflow, INT32_MIN / -1 and divide by zero with IV set.
        EXPECT_EQ(fast.regs[R9], 48u);
        // The BVCs see V in both phases: with IV set, the handler's
        // REI restores the PSL the trapping instruction left.
        EXPECT_EQ(fast.regs[R7], 24u);
        EXPECT_EQ(fast.regs[R8], 24u);
        EXPECT_EQ(fast.regs[R1], 0u) << "MULL2 keeps the low longword";
        EXPECT_EQ(fast.regs[R2], 0x80000000u)
            << "INT32_MIN / -1 leaves the dividend";
        Longword sum = 0;
        for (Longword k = 1; k <= 12; ++k)
            sum += 2 * (100 * k / 7);
        EXPECT_EQ(fast.regs[R5], sum)
            << "a divide by zero leaves the dividend";
        EXPECT_GT(fast.stats.threadedInstructions, 0u);
    }
}

/**
 * A hot loop whose superblock [INCL, ADDL2] is capped by a stopper
 * (MFPR #IPL), under a live interval timer.  An outer loop lengthens
 * the timer period by one cycle per round, so the tick lands on every
 * instruction of the loop, the ADDL2 just before the stopper
 * included: then the interrupt must be taken before the stopper
 * runs.  The handler counts those ticks in R9 (its saved PC is the
 * stopper's) and sums every saved PC into R10.
 */
CodeBuilder
stopperLoopUnderTimer()
{
    constexpr Longword kRounds = 24;
    constexpr Longword kTrips = 100;
    CodeBuilder b(0x200);
    Label tick = b.newLabel();
    Label outer = b.newLabel();
    Label loop = b.newLabel();
    Label stopper = b.newLabel();
    b.movl(Op::imm(0x3000), Op::reg(SP));
    b.movl(Op::immLabel(tick),
           Op::abs(static_cast<Longword>(ScbVector::IntervalTimer)));
    b.movl(Op::imm(kRounds), Op::reg(R11));
    b.movl(Op::imm(static_cast<Longword>(-200)), Op::reg(R8));
    b.mtpr(Op::lit(0), Ipr::IPL);
    b.bind(outer);
    b.mtpr(Op::reg(R8), Ipr::NICR);
    b.mtpr(Op::imm(iccs::kTransfer | iccs::kRun |
                   iccs::kInterruptEnable),
           Ipr::ICCS);
    b.movl(Op::imm(kTrips), Op::reg(R6));
    b.bind(loop);
    b.incl(Op::reg(R0));
    b.addl2(Op::lit(3), Op::reg(R1));
    b.bind(stopper);
    b.mfpr(Ipr::IPL, Op::reg(R3));
    b.sobgtr(Op::reg(R6), loop);
    b.subl2(Op::lit(1), Op::reg(R8));
    b.sobgtr(Op::reg(R11), outer);
    b.mtpr(Op::lit(0), Ipr::ICCS);
    b.halt();
    b.align(4);
    b.bind(tick);
    Label not_stopper = b.newLabel();
    b.cmpl(Op::deferred(SP), Op::immLabel(stopper));
    b.bneq(not_stopper);
    b.incl(Op::reg(R9));
    b.bind(not_stopper);
    b.addl2(Op::deferred(SP), Op::reg(R10));
    b.mtpr(Op::imm(iccs::kInterrupt | iccs::kRun |
                   iccs::kInterruptEnable),
           Ipr::ICCS);
    b.rei();
    return b;
}

TEST(ThreadedTierLockstep, StopperBlockEdgesMatchReference)
{
    // Slice 3 against the 4-instruction loop moves each run() budget
    // boundary one instruction along per pass, so budgets end just
    // before the stopper too (the driver completes the block, and the
    // stopper must wait for the next call).
    for (const std::uint64_t slice : {std::uint64_t{0}, std::uint64_t{3}}) {
        for (const bool virtualized : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << (virtualized ? "virtualized" : "bare")
                         << " slice " << slice);
            const MachineDigest threaded = tiersMatchReference(
                stopperLoopUnderTimer, virtualized, slice);
            EXPECT_EQ(threaded.regs[R0], 24u * 100u);
            EXPECT_GT(threaded.stats.threadedInstructions, 0u);
            if (!virtualized) {
                EXPECT_GT(threaded.regs[R9], 0u)
                    << "some tick must land just before the stopper";
            }
        }
    }
}

/** Where timerSweepLoop() keeps its tick histogram: one longword per
 *  byte offset of the swept block, counting ticks taken there. */
constexpr PhysAddr kTickHistogram = 0x7000;
constexpr PhysAddr kSweepIcr = kLoopData + 8;  //!< MFPR ICR at the end
constexpr PhysAddr kSweepTodr = kLoopData + 12; //!< MFPR TODR at the end

/**
 * An 8-instruction block - a Generic op (ADDL3), a store and a fused
 * load that faults on every trip - under a live interval timer whose
 * period grows by one cycle a round, so the zero crossing lands on
 * every instruction of the block.  Three phases: the tick delivered
 * (the handler histograms its saved PC), the tick masked by ICCS<IE>
 * clear and then by IPL 31, so the driver runs on past the split into
 * the faulting load.  Bare, the load reads past the end of RAM and the
 * machine-check handler points R4 back into RAM; in a VM it reads a
 * fresh page every trip and takes a shadow-fill fault.  Each round
 * also runs the stoppers that carry an extra charge (MOVPSL, PROBER,
 * MOVC3): as driver ops they would be charged their base cost only.
 * The program ends by storing MFPR ICR and TODR.  @p boundaries, when
 * given, receives the byte offsets from the start of the block of the
 * instruction boundaries a tick can be taken at.
 */
CodeBuilder
timerSweepLoop(bool virtualized, std::vector<Longword> *boundaries = nullptr)
{
    constexpr Longword kRounds = 40;
    constexpr Longword kTrips = 12;
    constexpr Longword kPeriod = 97;
    constexpr Longword kRamEnd = MachineConfig{}.ramBytes;
    CodeBuilder b(0x200);
    Label tick = b.newLabel();
    Label mcheck = b.newLabel();
    Label block = b.newLabel();
    std::vector<Label> marks;
    b.movl(Op::imm(0x3000), Op::reg(SP));
    b.mtpr(Op::imm(0x2800), Ipr::ISP);
    b.movl(Op::immLabel(tick),
           Op::abs(static_cast<Longword>(ScbVector::IntervalTimer)));
    b.movl(Op::immLabel(mcheck),
           Op::abs(static_cast<Longword>(ScbVector::MachineCheck)));
    b.movl(Op::imm(0x20000), Op::reg(AP)); // the VM's fresh pages
    b.mtpr(Op::lit(0), Ipr::IPL);
    // R0-R5 are MOVC3's; R7 counts the trips.
    const Byte ld = virtualized ? AP : R4;
    for (const int phase : {0, 1, 2}) {
        Label outer = b.newLabel();
        Label loop = phase == 0 ? block : b.newLabel();
        b.movl(Op::imm(kRounds), Op::reg(R11));
        b.movl(Op::imm(static_cast<Longword>(-kPeriod)), Op::reg(R8));
        if (phase == 2)
            b.mtpr(Op::lit(31), Ipr::IPL);
        b.bind(outer);
        b.movl(Op::imm(kLoopData), Op::reg(R5));
        b.movpsl(Op::reg(FP));
        b.prober(Op::lit(0), Op::lit(4), Op::deferred(R5));
        b.movc3(Op::lit(8), Op::deferred(R5), Op::disp(16, R5));
        b.movl(Op::imm(kLoopData), Op::reg(R5));
        b.mtpr(Op::reg(R8), Ipr::NICR);
        b.mtpr(Op::imm(iccs::kTransfer | iccs::kRun |
                       (phase == 1 ? 0 : iccs::kInterruptEnable)),
               Ipr::ICCS);
        b.movl(Op::imm(kTrips), Op::reg(R6));
        b.bind(loop);
        const auto boundary = [&] {
            if (phase == 0)
                marks.push_back(b.bindHere());
        };
        if (virtualized)
            b.addl2(Op::imm(kPageSize), Op::reg(AP));
        else
            b.movl(Op::imm(kRamEnd), Op::reg(R4));
        boundary();
        b.incl(Op::reg(R7));
        boundary();
        b.addl3(Op::reg(R7), Op::reg(R1), Op::reg(R2));
        boundary();
        b.movl(Op::reg(R2), Op::deferred(R5));
        boundary();
        b.movl(Op::deferred(ld), Op::reg(R3));
        boundary();
        b.addl2(Op::reg(R3), Op::reg(R1));
        boundary();
        b.xorl2(Op::reg(R7), Op::reg(R0));
        boundary();
        b.sobgtr(Op::reg(R6), loop);
        b.subl2(Op::lit(1), Op::reg(R8));
        b.sobgtr(Op::reg(R11), outer);
        if (phase == 2)
            b.mtpr(Op::lit(0), Ipr::IPL); // the pending tick is taken
    }
    b.mfpr(Ipr::ICR, Op::abs(kSweepIcr));
    b.mfpr(Ipr::TODR, Op::abs(kSweepTodr));
    b.mtpr(Op::lit(0), Ipr::ICCS);
    b.halt();

    b.align(4);
    b.bind(tick);
    Label outside = b.newLabel();
    b.subl3(Op::immLabel(block), Op::deferred(SP), Op::reg(R10));
    b.cmpl(Op::reg(R10), Op::imm(kPageSize));
    b.bgtru(outside);
    b.incl(Op::abs(kTickHistogram).idx(R10));
    b.bind(outside);
    b.incl(Op::reg(R9));
    b.mtpr(Op::imm(iccs::kInterrupt | iccs::kRun |
                   iccs::kInterruptEnable),
           Ipr::ICCS);
    b.rei();

    b.align(4);
    b.bind(mcheck);
    b.addl2(Op::lit(4), Op::reg(SP)); // pop the machine-check parameter
    b.movl(Op::imm(0x20000), Op::reg(R4));
    b.rei();

    if (boundaries != nullptr) {
        boundaries->assign(1, 0); // the SOBGTR's taken branch
        for (const Label l : marks)
            boundaries->push_back(b.labelAddress(l) - b.labelAddress(block));
    }
    return b;
}

TEST(ThreadedTierLockstep, TimerTickAtEveryBlockOffsetMatchesReference)
{
    for (const std::uint64_t slice : {std::uint64_t{0}, std::uint64_t{5}}) {
        for (const bool virtualized : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << (virtualized ? "virtualized" : "bare")
                         << " slice " << slice);
            const MachineDigest threaded = tiersMatchReference(
                [&] { return timerSweepLoop(virtualized); }, virtualized,
                slice);
            EXPECT_EQ(threaded.regs[R7], 3u * 40u * 12u);
            EXPECT_GT(threaded.stats.threadedInstructions,
                      threaded.stats.instructions / 2);
            EXPECT_GT(threaded.stats.threadedGenericSteps, 0u);
            if (virtualized)
                continue;
            // Every boundary of the block saw a tick delivered, on
            // every tier (the histogram is in the RAM digest).
            std::vector<Longword> boundaries;
            CodeBuilder b = timerSweepLoop(false, &boundaries);
            std::vector<Byte> hist(4 * (kPageSize + 1));
            lockstepProgram(b, false, ExecTier::Threaded, hist,
                            kTickHistogram, slice);
            for (const Longword off : boundaries) {
                Longword n = 0;
                std::memcpy(&n, &hist[4 * off], 4);
                EXPECT_GT(n, 0u) << "no tick at block offset " << off;
            }
        }
    }
}

/**
 * A VM driving its MMIO disk registers (VmIoMode::Mmio) from a hot
 * block: every register load and store charges the VMM's emulation
 * cost from inside the instruction, so the real timer's tick often
 * lands inside one.  The driver must settle the instructions retired
 * before that charge first, or ICR reaches zero in a different order
 * than on the reference.
 */
CodeBuilder
mmioRegisterLoop()
{
    // The register page follows the VM's 1 MiB of memory.
    constexpr Longword kCsr = VmConfig{}.memBytes;
    CodeBuilder b(0x200);
    Label loop = b.newLabel();
    b.movl(Op::imm(2000), Op::reg(R6));
    b.bind(loop);
    b.incl(Op::reg(R0));
    b.movl(Op::abs(kCsr), Op::reg(R3));
    b.addl3(Op::reg(R0), Op::reg(R3), Op::reg(R2));
    b.movl(Op::reg(R2), Op::abs(kCsr + 4));
    b.xorl2(Op::reg(R2), Op::reg(R1));
    b.incl(Op::reg(R7));
    b.sobgtr(Op::reg(R6), loop);
    b.halt();
    return b;
}

TEST(ThreadedTierLockstep, MmioChargesInsideBlocksMatchReference)
{
    for (const std::uint64_t slice : {std::uint64_t{0}, std::uint64_t{5}}) {
        SCOPED_TRACE(::testing::Message() << "slice " << slice);
        const MachineDigest threaded = tiersMatchReference(
            mmioRegisterLoop, true, slice, VmIoMode::Mmio);
        EXPECT_EQ(threaded.regs[R7], 2000u);
        EXPECT_EQ(threaded.regs[R3] & DiskDevice::kCsrReady,
                  DiskDevice::kCsrReady);
        EXPECT_GT(threaded.stats.threadedInstructions,
                  threaded.stats.instructions / 2);
    }
}

/** The VVAX_DUMP_HOT_BLOCKS line of the cached block at @p pc, or ""
 *  when no block starts there. */
std::string
hotBlockLine(const Cpu &cpu, VirtAddr pc)
{
    std::ostringstream dump;
    cpu.dumpHotBlocks(dump, -1);
    char key[24];
    std::snprintf(key, sizeof key, "pc=%08x ", pc);
    std::istringstream lines(dump.str());
    for (std::string line; std::getline(lines, line);) {
        if (line.find(key) != std::string::npos)
            return line;
    }
    return "";
}

/** The counter @p name ("hits", "runs") on a hotBlockLine(). */
std::uint64_t
blockCounter(const std::string &line, const std::string &name)
{
    const std::size_t at = line.find(" " + name + "=");
    return at == std::string::npos
               ? 0
               : std::stoull(line.substr(at + name.size() + 2));
}

TEST(ThreadedTierLockstep, PatchedLoopHeadRegrowsAndLinks)
{
    // A 300-pass loop whose 7-instruction head block has its ADDL2
    // literal patched once, on the 11th pass, by a store outside the
    // block.  The rebuilt head must be whole again (a stale predecode
    // entry must not cut it short for good), and although it is
    // entered only through a trace link from then on, it must link to
    // its successor, which then stops taking slow dispatches.
    MachineConfig mc;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    m.cpu().setExecTier(ExecTier::Threaded);
    CodeBuilder b(0x200);
    Label loop = b.newLabel();
    Label patch = b.newLabel();
    Label skip = b.newLabel();
    b.movl(Op::imm(300), Op::reg(R6));
    b.clrl(Op::reg(R0));
    b.bind(loop);
    b.incl(Op::reg(R1));
    b.bind(patch);
    b.addl2(Op::lit(1), Op::reg(R0));
    b.incl(Op::reg(R2));
    b.incl(Op::reg(R3));
    b.addl2(Op::reg(R0), Op::reg(R4));
    b.cmpl(Op::reg(R6), Op::imm(290));
    b.bneq(skip);
    b.movb(Op::lit(2), Op::abs(b.labelAddress(patch) + 1));
    b.bind(skip);
    b.sobgtr(Op::reg(R6), loop);
    b.halt();
    auto image = b.finish();
    m.loadImage(b.origin(), image);
    m.cpu().setPc(b.origin());
    m.cpu().psl().setIpl(31);
    m.run(100000);
    ASSERT_EQ(m.cpu().haltReason(), HaltReason::HaltInstruction);
    EXPECT_EQ(m.cpu().reg(R0), 11u + 2u * 289u);

    const std::string head = hotBlockLine(m.cpu(), b.labelAddress(loop));
    const std::string succ = hotBlockLine(m.cpu(), b.labelAddress(skip));
    SCOPED_TRACE(head + "\n" + succ);
    EXPECT_NE(head.find(" instrs=7 "), std::string::npos)
        << "the loop head must regrow to its 7 instructions";
    EXPECT_NE(head.find(" taken->"), std::string::npos)
        << "the rebuilt head must become a link source";
    EXPECT_GT(blockCounter(head, "runs"), 280u);
    // Up to the threshold's worth of slow dispatches before the head
    // first links and again after its rebuild, not one per pass.
    EXPECT_LT(blockCounter(succ, "hits"), 4 * Block::kLinkThreshold)
        << "the successor must be reached through the head's link";
    // The hot-block dump ranks by driver entries times length, so the
    // head - entered through a link on nearly every pass - is the
    // hottest block although it took a single slow dispatch.
    std::ostringstream top;
    m.cpu().dumpHotBlocks(top, 1);
    char head_key[24];
    std::snprintf(head_key, sizeof head_key, "pc=%08x ",
                  b.labelAddress(loop));
    EXPECT_NE(top.str().find(head_key), std::string::npos)
        << "a top-1 dump must name the loop head:\n" << top.str();
}

/**
 * CMPB (R3)+ scanning off the end of RAM: the read past the last byte
 * raises a machine check, whose handler records R3 in R9 - it must
 * still address the faulting byte - and points R3 back into RAM.
 */
CodeBuilder
scanOffRamEnd()
{
    constexpr Longword kRamEnd = MachineConfig{}.ramBytes;
    CodeBuilder b(0x200);
    Label handler = b.newLabel();
    Label scan = b.newLabel();
    Label no_match = b.newLabel();
    b.movl(Op::imm(0x3000), Op::reg(SP));
    b.mtpr(Op::imm(0x2800), Ipr::ISP);
    b.movl(Op::immLabel(handler),
           Op::abs(static_cast<Longword>(ScbVector::MachineCheck)));
    b.movl(Op::imm(kRamEnd - 600), Op::reg(R3));
    b.movl(Op::imm(1000), Op::reg(R8));
    b.bind(scan);
    b.cmpb(Op::autoInc(R3), Op::lit(0));
    b.bneq(no_match);
    b.incl(Op::reg(R5));
    b.bind(no_match);
    b.sobgtr(Op::reg(R8), scan);
    b.halt();
    b.align(4);
    b.bind(handler);
    b.addl2(Op::lit(4), Op::reg(SP)); // pop the machine-check parameter
    b.movl(Op::reg(R3), Op::reg(R9));
    b.movl(Op::imm(kLoopData), Op::reg(R3));
    b.incl(Op::reg(R10));
    b.rei();
    return b;
}

TEST(ThreadedTierLockstep, FaultingAutoIncReadLeavesRegisterBare)
{
    const MachineDigest fast = tiersMatchReference(scanOffRamEnd, false);
    EXPECT_EQ(fast.regs[R10], 1u) << "exactly one machine check";
    EXPECT_EQ(fast.regs[R9], MachineConfig{}.ramBytes)
        << "R3 must not advance past a byte it failed to read";
    EXPECT_EQ(fast.regs[R3], kLoopData + 400);
    EXPECT_EQ(fast.regs[R5], 1000u) << "RAM reads as zero";
    EXPECT_GT(fast.stats.threadedInstructions, 0u);
}

/**
 * In a VM every first touch of a page takes a shadow-fill fault and
 * restarts the instruction.  A MOVL R11, (R7)+ fill and a CMPB (R3)+
 * scan each stream across fresh pages, so both fault mid-loop in the
 * driver; an autoincrement committed before its access would skip a
 * longword or a byte on every restart.
 */
CodeBuilder
autoIncAcrossFreshPages()
{
    constexpr Longword kBytes = 4 * kPageSize;
    CodeBuilder b(0x200);
    Label fill = b.newLabel();
    Label scan = b.newLabel();
    Label no_match = b.newLabel();
    Label data = b.newLabel();
    b.movl(Op::imm(kLoopData), Op::reg(R7));
    b.movl(Op::imm(kBytes / 4), Op::reg(R11));
    b.bind(fill);
    b.movl(Op::reg(R11), Op::autoInc(R7));
    b.sobgtr(Op::reg(R11), fill);
    b.movl(Op::immLabel(data), Op::reg(R3));
    b.movl(Op::imm(kBytes), Op::reg(R8));
    b.bind(scan);
    b.cmpb(Op::autoInc(R3), Op::imm(0x5A));
    b.bneq(no_match);
    b.incl(Op::reg(R5));
    b.bind(no_match);
    b.sobgtr(Op::reg(R8), scan);
    b.halt();
    b.align(kPageSize);
    b.bind(data);
    for (Longword i = 0; i < kBytes; ++i)
        b.byte(i % 37 == 0 ? 0x5A : static_cast<Byte>(i));
    return b;
}

TEST(ThreadedTierLockstep, AutoIncAcrossFreshPagesVirtualized)
{
    const MachineDigest fast =
        tiersMatchReference(autoIncAcrossFreshPages, true);
    Longword matches = 0;
    for (Longword i = 0; i < 4 * kPageSize; ++i)
        matches += i % 37 == 0 || static_cast<Byte>(i) == 0x5A;
    EXPECT_EQ(fast.regs[R5], matches);
    EXPECT_EQ(fast.regs[R7], kLoopData + 4 * kPageSize);
    EXPECT_GT(fast.stats.threadedInstructions, 0u);
    EXPECT_EQ(fast.stats.threadedGenericSteps, 0u);
}

// ---------------------------------------------------------------------------
// MOVC3 page spans: the copy moves each run that lies within one page
// on both sides through the host pointers at once, and everything else
// a byte at a time through the full accessors.  Every tier must agree
// with the reference's byte-by-byte walk, and both must agree with
// memmove (or, for aliased frames, the architectural byte order).
// ---------------------------------------------------------------------------

/** First and one-past-last guest-physical byte the copies write. */
constexpr PhysAddr kMovc3Lo = 0x6000;
constexpr PhysAddr kMovc3Hi = 0x8800;
constexpr Longword kMovc3SrcBytes = 3000;

/** Byte @p i of the source pattern movc3Spans() carries in its image. */
Byte
movc3Pattern(Longword i)
{
    return static_cast<Byte>(i * 7 + (i >> 8) + 3);
}

/** (src, dst, len) of each data copy movc3Spans() makes, in order;
 *  src offsets below kMovc3Lo are into the image's pattern. */
struct Movc3Copy
{
    Longword src, dst, len;
};
constexpr Movc3Copy kMovc3Copies[] = {
    // Crossing pages at different offsets on each side; in a VM the
    // first touch of every page misses the TLB on one side or both.
    {0x13, 0x61C0, 1500},           // fresh source, fresh destination
    {0x6210, 0x7E0C, 1500},         // hot source, fresh destination
    {1600, 0x6300, 1200},           // fresh source, hot destination
    {0x6105, 0x6100, 700},          // overlapping, low to high
    {0x7F00, 0x7F07, 700},          // overlapping, high to low
};

/**
 * The kMovc3Copies, then a hot loop whose ADDL2 literal a two-byte
 * MOVC3 rewrites (1 -> 5) after its first 50 passes: the copy must
 * drop the loop's live blocks.
 */
CodeBuilder
movc3Spans()
{
    CodeBuilder b(0x200);
    Label pattern = b.newLabel();
    Label outer = b.newLabel();
    Label loop = b.newLabel();
    Label new_code = b.newLabel();
    for (const Movc3Copy &c : kMovc3Copies) {
        b.movc3(Op::imm(c.len),
                c.src < kMovc3Lo ? Op::absRef(pattern, c.src)
                                 : Op::abs(c.src),
                Op::abs(c.dst));
    }
    // R7: MOVC3 clobbers R0-R5.
    b.clrl(Op::reg(R7));
    b.movl(Op::lit(3), Op::reg(R11));
    b.bind(outer);
    b.movl(Op::imm(50), Op::reg(R6));
    b.bind(loop);
    b.addl2(Op::lit(1), Op::reg(R7));
    b.sobgtr(Op::reg(R6), loop);
    b.movc3(Op::lit(2), Op::absRef(new_code), Op::absRef(loop));
    b.sobgtr(Op::reg(R11), outer);
    b.halt();
    b.bind(new_code);
    b.byte(static_cast<Byte>(Opcode::ADDL2));
    b.byte(5); // short literal #5
    b.align(kPageSize);
    b.bind(pattern);
    for (Longword i = 0; i < kMovc3SrcBytes; ++i)
        b.byte(movc3Pattern(i));
    return b;
}

TEST(Movc3Lockstep, PageSpansMatchMemmove)
{
    // The expected bytes: memmove applied in order to the image, whose
    // last kMovc3SrcBytes are the pattern.
    std::vector<Byte> model(kMovc3Hi);
    CodeBuilder layout = movc3Spans();
    const auto image = layout.finish();
    std::memcpy(model.data() + layout.origin(), image.data(), image.size());
    const Longword pattern_base =
        layout.origin() + static_cast<Longword>(image.size()) -
        kMovc3SrcBytes;
    for (const Movc3Copy &c : kMovc3Copies) {
        const Longword src =
            c.src < kMovc3Lo ? pattern_base + c.src : c.src;
        std::memmove(model.data() + c.dst, model.data() + src, c.len);
    }

    for (const bool virtualized : {false, true}) {
        SCOPED_TRACE(virtualized ? "virtualized" : "bare");
        const MachineDigest fast =
            tiersMatchReference(movc3Spans, virtualized);
        EXPECT_EQ(fast.regs[R7], 50u + 2 * 50 * 5)
            << "the copy over the live loop must take effect";
        CodeBuilder b = movc3Spans();
        std::vector<Byte> got(kMovc3Hi - kMovc3Lo);
        lockstepProgram(b, virtualized, ExecTier::Threaded, got, kMovc3Lo);
        EXPECT_TRUE(std::equal(got.begin(), got.end(),
                               model.begin() + kMovc3Lo))
            << "MOVC3 must move bytes as memmove does";
    }
}

/** System page @p vpn's virtual address. */
constexpr VirtAddr
sysPage(Longword vpn)
{
    return kSystemBase + vpn * kPageSize;
}

/** Frames the mapped MOVC3 program reads and writes. */
constexpr PhysAddr kMappedLo = 40 * kPageSize;
constexpr PhysAddr kMappedHi = 64 * kPageSize;

/**
 * (src, dst, len) of each copy in the mapped program.  System page 41
 * maps frame 40, so the first two copies run between two views of one
 * frame with the host order of the spans opposite to the virtual
 * order; the last crosses page boundaries on both sides with a cold
 * TLB.
 */
constexpr Movc3Copy kMappedCopies[] = {
    {sysPage(41) + 10, sysPage(40) + 20, 200},  // low to high
    {sysPage(40) + 250, sysPage(41) + 240, 200}, // high to low
    {sysPage(50) + 0x1F0, sysPage(60) + 0x30, 900},
};

/** Physical address of system virtual address @p va in that map. */
PhysAddr
mappedPa(VirtAddr va)
{
    const Longword vpn = (va - kSystemBase) >> kPageShift;
    return ((vpn == 41 ? 40 : vpn) << kPageShift) | (va & kPageOffsetMask);
}

/**
 * Run kMappedCopies bare with memory management on (system space
 * mapping the first 128 frames, page 41 aliasing frame 40) on @p tier;
 * @p frames receives physical memory [kMappedLo, kMappedHi).
 */
MachineDigest
movc3MappedBare(ExecTier tier, std::span<Byte> frames)
{
    constexpr PhysAddr kSpt = 0x20000;
    RealMachine m;
    m.cpu().setExecTier(tier);
    for (Longword vpn = 0; vpn < 128; ++vpn) {
        const Longword pfn = vpn == 41 ? 40 : vpn;
        m.memory().write32(kSpt + 4 * vpn,
                           Pte::make(true, Protection::KW, true, pfn).raw());
    }
    m.mmu().regs().sbr = kSpt;
    m.mmu().regs().slr = 128;
    m.mmu().regs().mapen = true;
    for (PhysAddr pa = kMappedLo; pa < kMappedHi; ++pa)
        m.memory().write8(pa, movc3Pattern(pa));

    CodeBuilder b(sysPage(32));
    for (const Movc3Copy &c : kMappedCopies)
        b.movc3(Op::imm(c.len), Op::abs(c.src), Op::abs(c.dst));
    b.halt();
    const auto image = b.finish();
    m.loadImage(32 * kPageSize, image);
    m.cpu().setPc(b.origin());
    m.cpu().psl().setIpl(31);
    m.run(100);
    EXPECT_EQ(m.cpu().haltReason(), HaltReason::HaltInstruction);
    m.memory().readBlock(kMappedLo, frames);
    return digestOf(m);
}

TEST(Movc3Lockstep, AliasedFramesCopyInArchitecturalOrder)
{
    // The expected bytes: one byte at a time, low to high when the
    // destination's virtual address is not above the source's.
    std::vector<Byte> model(kMappedHi);
    for (PhysAddr pa = kMappedLo; pa < kMappedHi; ++pa)
        model[pa] = movc3Pattern(pa);
    for (const Movc3Copy &c : kMappedCopies) {
        for (Longword k = 0; k < c.len; ++k) {
            const Longword i = c.dst <= c.src ? k : c.len - 1 - k;
            model[mappedPa(c.dst + i)] = model[mappedPa(c.src + i)];
        }
    }

    std::vector<Byte> ref_frames(kMappedHi - kMappedLo);
    const MachineDigest ref =
        movc3MappedBare(ExecTier::Reference, ref_frames);
    EXPECT_TRUE(std::equal(ref_frames.begin(), ref_frames.end(),
                           model.begin() + kMappedLo));
    EXPECT_GT(ref.stats.tlbMisses, 0u);
    for (const ExecTier tier : {ExecTier::Fast, ExecTier::Threaded}) {
        SCOPED_TRACE(tier == ExecTier::Fast ? "fast tier" : "threaded tier");
        std::vector<Byte> frames(kMappedHi - kMappedLo);
        expectDigestsEqual(movc3MappedBare(tier, frames), ref);
        EXPECT_EQ(frames, ref_frames);
    }
}

/**
 * MOVC3 into the disk's register window: every byte is an MMIO store,
 * and BLOCK, COUNT and ADDR each keep the last byte written to them -
 * the lowest, as the window lies above the source and the copy runs
 * high to low.
 */
CodeBuilder
movc3ToMmio()
{
    const PhysAddr csr = MachineConfig{}.diskCsrBase;
    CodeBuilder b(0x200);
    Label bytes = b.newLabel();
    b.movc3(Op::lit(12), Op::absRef(bytes), Op::abs(csr + 4));
    b.movl(Op::abs(csr + 4), Op::reg(R6));
    b.movl(Op::abs(csr + 8), Op::reg(R7));
    b.movl(Op::abs(csr + 12), Op::reg(R8));
    b.halt();
    b.bind(bytes);
    for (Byte i = 1; i <= 12; ++i)
        b.byte(i);
    return b;
}

TEST(Movc3Lockstep, MmioDestinationBare)
{
    const MachineDigest fast = tiersMatchReference(movc3ToMmio, false);
    EXPECT_EQ(fast.regs[R6], 1u);
    EXPECT_EQ(fast.regs[R7], 5u);
    EXPECT_EQ(fast.regs[R8], 9u);
}

// ----- Every addressing form, replayed on every tier -----------------
//
// test_addressing_sweep.cc runs each form once, so only the full decode
// sees it.  Here each form runs in a loop, so the fast tier replays its
// icache template and the threaded tier harvests the template into a
// block; every run must match the reference interpreter, which never
// records a template.

constexpr VirtAddr kSweepData = 0x6000; //!< data cells the forms reach
constexpr VirtAddr kSweepPtrs = 0x6100; //!< pointers into kSweepData
constexpr VirtAddr kSweepNear = 0x202;  //!< constants right by the code
constexpr int kSweepPasses = 16;

/** Emits one operand specifier for the operand described by a spec. */
using SpecEmit = std::function<void(CodeBuilder &, const OperandSpec &)>;

SpecEmit
form(Op op)
{
    return [op](CodeBuilder &b, const OperandSpec &spec) {
        b.emitOperand(op, spec);
    };
}

/**
 * A PC-relative specifier reaching @p target through a @p bytes-wide
 * displacement (counted from the address after it), deferred and
 * indexed by R3 on request.  CodeBuilder only emits L^ PC-relative
 * references, so the bytes are laid down here.
 */
SpecEmit
pcRelative(VirtAddr target, int bytes, bool deferred, bool indexed = false)
{
    return [=](CodeBuilder &b, const OperandSpec &) {
        if (indexed)
            b.byte(static_cast<Byte>(0x40 | R3));
        const int mode = (bytes == 1 ? 0xA : bytes == 2 ? 0xC : 0xE) |
                         (deferred ? 1 : 0);
        b.byte(static_cast<Byte>(mode << 4 | PC));
        const Longword d = target - (b.here() + static_cast<Longword>(bytes));
        if (bytes == 1) {
            EXPECT_EQ(static_cast<Longword>(static_cast<std::int8_t>(d)), d)
                << "B^ out of reach";
            b.byte(static_cast<Byte>(d));
        } else if (bytes == 2) {
            b.word(static_cast<Word>(d));
        } else {
            b.longword(d);
        }
    };
}

/** #value, as wide as the operand (quadwords get both halves). */
SpecEmit
immediate(std::uint64_t value)
{
    return [value](CodeBuilder &b, const OperandSpec &spec) {
        b.byte(0x8F);
        for (int i = 0; i < static_cast<int>(spec.size); ++i)
            b.byte(static_cast<Byte>(value >> (8 * i)));
    };
}

/** Emit @p opcode with operand @p at from @p spec, the rest from @p ops. */
void
emitWith(CodeBuilder &b, Opcode opcode, int at, const SpecEmit &spec,
         std::initializer_list<Op> ops)
{
    const InstrInfo *info = instrInfo(static_cast<Word>(opcode));
    b.byte(static_cast<Byte>(opcode));
    const Op *other = ops.begin();
    for (int i = 0; i < info->nOperands; ++i) {
        if (i == at)
            spec(b, info->operands[i]);
        else
            b.emitOperand(*other++, info->operands[i]);
    }
}

enum SweepAccess : unsigned {
    kRead = 1,
    kModify = 2,
    kWrite = 4,
    kAddress = 8,
    kAllAccesses = 15,
};

/** A longword-sized form under each access in @p accesses. */
std::function<void(CodeBuilder &)>
accesses(SpecEmit spec, unsigned accesses)
{
    return [spec, accesses](CodeBuilder &b) {
        if (accesses & kRead)
            emitWith(b, Opcode::ADDL2, 0, spec, {Op::reg(R0)});
        if (accesses & kModify)
            emitWith(b, Opcode::ADDL2, 1, spec, {Op::reg(R0)});
        if (accesses & kWrite)
            emitWith(b, Opcode::MOVL, 1, spec, {Op::reg(R0)});
        if (accesses & kAddress) {
            emitWith(b, Opcode::MOVAL, 0, spec, {Op::reg(R1)});
            b.addl2(Op::reg(R1), Op::reg(R0));
        }
    };
}

struct SweepRow
{
    std::string name;
    Longword r2; //!< R2 at the top of every pass
    std::function<void(CodeBuilder &)> body;
};

std::vector<SweepRow>
sweepRows()
{
    const auto all = [](Op op) { return accesses(form(op), kAllAccesses); };
    const auto pcRel = [](VirtAddr target, int bytes, bool deferred,
                          bool indexed, unsigned acc) {
        return accesses(pcRelative(target, bytes, deferred, indexed), acc);
    };
    std::vector<SweepRow> rows = {
        {"S^#lit", 0, accesses(form(Op::lit(5)), kRead)},
        {"Rn", 0, accesses(form(Op::reg(R1)), kRead | kModify | kWrite)},
        {"#B", 0,
         [](CodeBuilder &b) {
             emitWith(b, Opcode::MOVB, 0, immediate(0x9C), {Op::reg(R1)});
             b.addl2(Op::reg(R1), Op::reg(R0));
             emitWith(b, Opcode::MOVAB, 0, immediate(0x9C), {Op::reg(R1)});
             b.addl2(Op::reg(R1), Op::reg(R0));
         }},
        {"#W", 0,
         [](CodeBuilder &b) {
             emitWith(b, Opcode::MOVW, 0, immediate(0xBEEF), {Op::reg(R1)});
             b.addl2(Op::reg(R1), Op::reg(R0));
         }},
        {"#L", 0, accesses(immediate(0x12345678), kRead | kAddress)},
        {"#Q", 0,
         [](CodeBuilder &b) {
             emitWith(b, Opcode::MOVQ, 0, immediate(0x0123456789ABCDEFull),
                      {Op::reg(R4)});
             b.addl2(Op::reg(R4), Op::reg(R0));
             b.addl2(Op::reg(R5), Op::reg(R0));
         }},
        {"B^ and W^ branches", 0,
         [](CodeBuilder &b) {
             const Label over_b = b.newLabel();
             const Label over_w = b.newLabel();
             const Label odd = b.newLabel();
             b.brb(over_b);
             b.incl(Op::reg(R0)); // never runs
             b.bind(over_b);
             b.brw(over_w);
             b.incl(Op::reg(R0)); // never runs
             b.bind(over_w);
             b.blbs(Op::reg(R11), odd); // taken on every other pass
             b.addl2(Op::lit(3), Op::reg(R0));
             b.bind(odd);
         }},
    };
    // Every memory form, plain and indexed by R3 (= 2).
    const struct
    {
        const char *name;
        Longword r2;
        Op op;
    } memory[] = {
        {"(Rn)", kSweepData, Op::deferred(R2)},
        {"-(Rn)", kSweepData + 0x20, Op::autoDec(R2)},
        {"(Rn)+", kSweepData, Op::autoInc(R2)},
        {"@(Rn)+", kSweepPtrs, Op::autoIncDeferred(R2)},
        {"B^d(Rn)", kSweepData - 0x10, Op::disp(0x10, R2)},
        {"W^d(Rn)", kSweepData - 0x1230, Op::disp(0x1230, R2)},
        {"L^d(Rn)", kSweepData - 0x123450, Op::disp(0x123450, R2)},
        {"@B^d(Rn)", kSweepPtrs - 0x10, Op::dispDef(0x10, R2)},
        {"@W^d(Rn)", kSweepPtrs - 0x1230, Op::dispDef(0x1230, R2)},
        {"@L^d(Rn)", kSweepPtrs - 0x123450, Op::dispDef(0x123450, R2)},
        {"@#abs", 0, Op::abs(kSweepData + 0xC)},
    };
    for (const auto &m : memory) {
        rows.push_back({m.name, m.r2, all(m.op)});
        rows.push_back({std::string(m.name) + "[Rx]", m.r2,
                        all(m.op.idx(R3))});
    }
    // PC-relative forms: B^ reaches the constants by the code (read
    // and address only, so the loop never stores into its own page).
    for (const bool indexed : {false, true}) {
        const std::string rx = indexed ? "[Rx]" : "";
        rows.push_back({"B^d(PC)" + rx, 0,
                        pcRel(kSweepNear, 1, false, indexed,
                              kRead | kAddress)});
        rows.push_back({"W^d(PC)" + rx, 0,
                        pcRel(kSweepData + 0x14, 2, false, indexed,
                              kAllAccesses)});
        rows.push_back({"L^d(PC)" + rx, 0,
                        pcRel(kSweepData + 0x18, 4, false, indexed,
                              kAllAccesses)});
        rows.push_back({"@B^d(PC)" + rx, 0,
                        pcRel(kSweepNear + 4, 1, true, indexed,
                              kAllAccesses)});
        rows.push_back({"@W^d(PC)" + rx, 0,
                        pcRel(kSweepPtrs + 4, 2, true, indexed,
                              kAllAccesses)});
        rows.push_back({"@L^d(PC)" + rx, 0,
                        pcRel(kSweepPtrs + 8, 4, true, indexed,
                              kAllAccesses)});
    }
    return rows;
}

/**
 * @p row's body, kSweepPasses times.  The constants by the code sit
 * at kSweepNear, jumped over by the first instruction; the pointers
 * at kSweepPtrs are stored before the loop.
 */
CodeBuilder
sweepProgram(const SweepRow &row)
{
    CodeBuilder b(0x200);
    const Label setup = b.newLabel();
    const Label loop = b.newLabel();
    b.brb(setup);
    EXPECT_EQ(b.here(), kSweepNear);
    b.longword(0x13572468);
    b.longword(kSweepData + 0x80); // pointer for @B^d(PC)
    b.longword(0x2468ACE0);
    b.longword(0x0000FFFF);
    b.bind(setup);
    for (Longword i = 0; i < 4; ++i)
        b.movl(Op::imm(kSweepData + 0x40 + 8 * i),
               Op::abs(kSweepPtrs + 4 * i));
    b.movl(Op::imm(0x1111), Op::reg(R0));
    b.movl(Op::imm(kSweepPasses), Op::reg(R11));
    b.bind(loop);
    b.movl(Op::imm(row.r2), Op::reg(R2));
    b.movl(Op::lit(2), Op::reg(R3));
    row.body(b);
    b.sobgtr(Op::reg(R11), loop);
    b.halt();
    return b;
}

TEST(ThreadedTierLockstep, EveryAddressingFormReplaysLikeTheReference)
{
    // Each specifier kind, immediates of every size, B^/W^/L^
    // displacements, the PC-relative and deferred forms, [Rx] on every
    // memory form and B^/W^ branches, under Read, Modify, Write and
    // Address access: the captured template must replay exactly what
    // the byte-level decode does, bare and inside a VM (mapped, so
    // the template's fetch counts show in tlbHits).
    for (const SweepRow &row : sweepRows()) {
        for (const bool virtualized : {false, true}) {
            SCOPED_TRACE(row.name + (virtualized ? ", virtualized" : ", bare"));
            const MachineDigest threaded = tiersMatchReference(
                [&row] { return sweepProgram(row); }, virtualized);
            EXPECT_GT(threaded.stats.threadedInstructions,
                      threaded.stats.instructions / 2)
                << "the loop must reach the driver";
        }
    }
}

TEST(ThreadedTierLockstep, EnvironmentVariableSelectsExecTier)
{
    // Stash any preset VVAX_EXEC_TIER so this test checks the parser,
    // not the caller's pick.
    const char *prior = getenv("VVAX_EXEC_TIER");
    const std::string saved = prior != nullptr ? prior : "";
    unsetenv("VVAX_EXEC_TIER");
    {
        RealMachine m;
        EXPECT_EQ(m.cpu().execTier(), ExecTier::Threaded)
            << "threaded is the default tier";
    }
    setenv("VVAX_EXEC_TIER", "fast", 1);
    {
        RealMachine m;
        EXPECT_EQ(m.cpu().execTier(), ExecTier::Fast);
    }
    setenv("VVAX_EXEC_TIER", "ref", 1);
    {
        RealMachine m;
        EXPECT_EQ(m.cpu().execTier(), ExecTier::Reference);
        EXPECT_TRUE(m.mmu().referencePath())
            << "the ref tier implies the MMU reference path";
    }
    for (const char *unknown : {"bogus", "blocks"}) {
        setenv("VVAX_EXEC_TIER", unknown, 1);
        RealMachine m;
        EXPECT_EQ(m.cpu().execTier(), ExecTier::Threaded)
            << "unknown value '" << unknown << "' keeps the default";
        EXPECT_FALSE(m.mmu().referencePath());
    }
    if (prior != nullptr)
        setenv("VVAX_EXEC_TIER", saved.c_str(), 1);
    else
        unsetenv("VVAX_EXEC_TIER");
}

TEST(FastPathLockstep, EnvironmentVariableDisablesTraceLinks)
{
    // Trace links are on by default, and only setTraceLinksEnabled
    // turns them off: the retired VVAX_NO_TRACE_LINKS variable is
    // ignored.
    setenv("VVAX_NO_TRACE_LINKS", "1", 1);
    {
        RealMachine m;
        EXPECT_TRUE(m.cpu().traceLinksEnabled());
        m.cpu().setTraceLinksEnabled(false);
        EXPECT_FALSE(m.cpu().traceLinksEnabled());
    }
    unsetenv("VVAX_NO_TRACE_LINKS");
}

TEST(FastPathLockstep, MiniUltrixBootVirtualized)
{
    expectDigestsEqual(lockstepMiniUltrixVirtual(false),
                       lockstepMiniUltrixVirtual(true));
}

TEST(FastPathLockstep, EnvironmentVariableSelectsReferencePath)
{
    // Stash any preset VVAX_EXEC_TIER: the default checked here is the
    // parser's, not the caller's pick.
    const char *prior = getenv("VVAX_EXEC_TIER");
    const std::string saved = prior != nullptr ? prior : "";
    unsetenv("VVAX_EXEC_TIER");
    {
        RealMachine m;
        EXPECT_FALSE(m.mmu().referencePath())
            << "fast path is the default";
        m.cpu().setExecTier(ExecTier::Reference);
        EXPECT_TRUE(m.mmu().referencePath());
        m.cpu().setExecTier(ExecTier::Threaded);
        EXPECT_FALSE(m.mmu().referencePath());
    }
    setenv("VVAX_EXEC_TIER", "ref", 1);
    {
        // The tier, not the environment, owns the MMU path: leaving
        // the reference tier turns the reference path off again.
        RealMachine m;
        EXPECT_TRUE(m.mmu().referencePath());
        m.cpu().setExecTier(ExecTier::Threaded);
        EXPECT_FALSE(m.mmu().referencePath());
        m.cpu().setExecTier(ExecTier::Reference);
        EXPECT_TRUE(m.mmu().referencePath());
        m.cpu().setExecTier(ExecTier::Fast);
        EXPECT_FALSE(m.mmu().referencePath());
    }
    if (prior != nullptr)
        setenv("VVAX_EXEC_TIER", saved.c_str(), 1);
    else
        unsetenv("VVAX_EXEC_TIER");
}

TEST(FastPathLockstep, IoDenseLoopBare)
{
    expectDigestsEqual(lockstepIoDenseBare(false),
                       lockstepIoDenseBare(true));
}

TEST(FastPathLockstep, IoDenseLoopVirtualized)
{
    expectDigestsEqual(lockstepIoDenseVirtual(false),
                       lockstepIoDenseVirtual(true));
}

// ---------------------------------------------------------------------------
// Batched vs unbatched virtual I/O: the fast path may change WHEN
// device work happens (descriptor rings, coalescing buffers) but never
// WHAT the guest observes - console bytes, disk contents and interrupt
// delivery points must be identical with the toggles on and off.
// ---------------------------------------------------------------------------

struct IoOutcome
{
    std::string console;
    std::uint64_t disk = 0; //!< FNV-1a over the virtual disk
    std::uint64_t traps = 0;
    std::uint64_t entries = 0;
    std::uint64_t batches = 0;
};

IoOutcome
runIoDenseGuest(const HypervisorConfig &hc, Longword iterations)
{
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    // The exit counts below are exact only fault-free.
    m.setFaultPlan(nullptr);
    Hypervisor hv(m, hc);
    VirtualMachine &vm = hv.createVm(VmConfig{});
    MicroGuestImage img = buildIoDenseLoop(iterations, true);
    hv.loadVmImage(vm, img.loadBase, img.image);
    hv.startVm(vm, img.entry);
    hv.run(20000000);
    EXPECT_EQ(vm.haltReason, VmHaltReason::HaltInstruction);
    IoOutcome out;
    out.console = vm.console.output();
    out.disk = fnv1a(vm.disk);
    out.traps = vm.stats.emulationTraps;
    out.entries = vm.stats.vmEntries;
    out.batches = vm.stats.diskKcallBatches;
    for (int c = 0; c < kNumFaultClasses; ++c)
        EXPECT_EQ(m.stats().faultsInjected[c], 0u);
    return out;
}

TEST(IoBatchEquivalence, DiskAndConsoleIdentical)
{
    for (const Longword iterations : {60u, 400u}) {
        SCOPED_TRACE(iterations);
        const IoOutcome batched =
            runIoDenseGuest(HypervisorConfig{}, iterations);
        HypervisorConfig off;
        off.diskBatchKcall = false;
        off.consoleCoalescing = false;
        const IoOutcome unbatched = runIoDenseGuest(off, iterations);

        EXPECT_GT(batched.batches, 0u);
        EXPECT_EQ(unbatched.batches, 0u);
        EXPECT_EQ(batched.console, unbatched.console)
            << "console bytes must not depend on the I/O fast path";
        EXPECT_EQ(batched.disk, unbatched.disk)
            << "disk contents must not depend on the I/O fast path";
        // The point of the exercise: the ring collapses 16
        // per-transfer exits into one, so the batched run must take
        // well under half the emulation traps (a >= 2x exit cut).
        EXPECT_LE(batched.traps * 2, unbatched.traps);
        if (iterations == 400) {
            // Exit ceilings: 1.15x the exact counts (batched 2003 traps
            // and 10 VM entries, unbatched 8003 and 44), so a batching
            // layer that starts losing exits fails here.
            EXPECT_LE(batched.traps, 2303u);
            EXPECT_LE(batched.entries, 11u);
            EXPECT_LE(unbatched.traps, 9203u);
            EXPECT_LE(unbatched.entries, 50u);
        }
    }
}

/**
 * Console-interrupt probe: the guest writes characters with the
 * transmitter interrupt disabled, enables it (the always-ready
 * virtual transmitter delivers immediately), and the handler records
 * the main thread's progress counter at each delivery, prints '!'
 * and disables the interrupt again.  The recorded delivery points and
 * the interleaved output prove coalescing preserves TX-interrupt
 * order relative to the characters.
 */
std::pair<std::string, std::vector<Longword>>
runConsoleInterruptProbe(bool coalescing)
{
    constexpr VirtAddr kMarks = 0x5000;
    CodeBuilder b(0x200);
    Label handler = b.newLabel();
    b.mtpr(Op::lit(31), Ipr::IPL);
    b.movl(Op::imm(0x7000), Op::reg(SP));
    b.movl(Op::immLabel(handler),
           Op::abs(static_cast<Longword>(ScbVector::ConsoleTransmit)));
    b.clrl(Op::reg(R9));  // progress counter
    b.clrl(Op::reg(R10)); // deliveries seen
    b.mtpr(Op::lit(0), Ipr::IPL);
    b.mtpr(Op::imm('a'), Ipr::TXDB);
    b.incl(Op::reg(R9));
    b.mtpr(Op::imm('b'), Ipr::TXDB);
    b.incl(Op::reg(R9));
    b.mtpr(Op::imm(consolecsr::kInterruptEnable), Ipr::TXCS);
    b.mtpr(Op::imm('c'), Ipr::TXDB);
    b.incl(Op::reg(R9));
    b.mtpr(Op::imm('d'), Ipr::TXDB);
    b.incl(Op::reg(R9));
    b.mtpr(Op::imm(consolecsr::kInterruptEnable), Ipr::TXCS);
    b.mtpr(Op::imm('e'), Ipr::TXDB);
    b.halt();
    b.align(4); // SCB entries steal the low bits for stack select
    b.bind(handler);
    b.movl(Op::reg(R9), Op::abs(kMarks).idx(R10));
    b.incl(Op::reg(R10));
    b.mtpr(Op::imm('!'), Ipr::TXDB);
    b.mtpr(Op::lit(0), Ipr::TXCS); // one delivery per enable
    b.rei();

    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine m(mc);
    HypervisorConfig hc;
    hc.consoleCoalescing = coalescing;
    Hypervisor hv(m, hc);
    VirtualMachine &vm = hv.createVm(VmConfig{});
    auto image = b.finish();
    hv.loadVmImage(vm, b.origin(), image);
    hv.startVm(vm, b.origin());
    hv.run(1000000);
    EXPECT_EQ(vm.haltReason, VmHaltReason::HaltInstruction);

    const Longword deliveries = m.cpu().reg(R10);
    std::vector<Longword> marks;
    for (Longword i = 0; i < deliveries; ++i)
        marks.push_back(
            m.memory().read32(vm.vmPhysToReal(kMarks + 4 * i)));
    return {vm.console.output(), marks};
}

TEST(IoBatchEquivalence, TxInterruptDeliveryPointsIdentical)
{
    const auto coalesced = runConsoleInterruptProbe(true);
    const auto direct = runConsoleInterruptProbe(false);
    EXPECT_EQ(coalesced.first, "ab!cd!e");
    EXPECT_EQ(coalesced.first, direct.first)
        << "interleaved handler output must match";
    ASSERT_EQ(coalesced.second.size(), 2u);
    EXPECT_EQ(coalesced.second, direct.second)
        << "TX interrupts must fire at the same guest progress points";
    EXPECT_EQ(coalesced.second[0], 2u);
    EXPECT_EQ(coalesced.second[1], 4u);
}

} // namespace
} // namespace vvax
