#include "guest/microguests.h"

#include "arch/ipr.h"
#include "arch/pte.h"
#include "vasm/code_builder.h"
#include "vmm/kcall.h"

namespace vvax {
namespace {

constexpr VirtAddr kLoadBase = 0x200;

/** Kernel-mode, IPL 31, both mode fields kernel: a legal REI image. */
constexpr Longword kSwitchPsl = 31u << 16;

/** PCB field offsets (see Cpu::execLdpctx). */
constexpr Longword kSptBase = 0x8000;   //!< identity SPT, 128 PTEs
constexpr Longword kCounterAddr = 0x5000;

/**
 * Emit a 96-byte process control block.  Registers start zeroed; the
 * process map is the same identity map both processes run under, so
 * only the stack and resume PC distinguish them.
 */
void
emitPcb(CodeBuilder &b, Longword ksp, Label resume_pc)
{
    b.longword(ksp);            // KSP
    b.longword(0);              // ESP
    b.longword(0);              // SSP
    b.longword(0);              // USP
    for (int i = 0; i < 12; ++i)
        b.longword(0);          // R0-R11
    b.longword(0);              // AP
    b.longword(0);              // FP
    b.longwordAbs(resume_pc);   // PC
    b.longword(kSwitchPsl);     // PSL
    b.longword(kSystemBase + kSptBase);        // P0BR (S va of the SPT)
    b.longword((4u << 24) | 128);              // P0LR + ASTLVL 4
    b.longword(0);              // P1BR
    b.longword(0x200000);       // P1LR (empty P1)
}

/**
 * Identity-map the low 64 KB: build a 128-entry SPT at kSptBase and
 * point P0 at the same table through S space, then enable mapping.
 * (The same trick the shadow-table tests use.)
 */
void
emitIdentityMapOn(CodeBuilder &b)
{
    Label fill = b.newLabel();
    b.movl(Op::imm(kSptBase), Op::reg(R0));
    b.clrl(Op::reg(R1));
    b.bind(fill);
    b.movl(Op::imm(Pte::make(true, Protection::UW, true, 0).raw()),
           Op::reg(R2));
    b.bisl2(Op::reg(R1), Op::reg(R2));
    b.movl(Op::reg(R2), Op::deferred(R0));
    b.addl2(Op::lit(4), Op::reg(R0));
    b.aoblss(Op::imm(128), Op::reg(R1), fill);

    b.mtpr(Op::imm(kSptBase), Ipr::SBR);
    b.mtpr(Op::imm(128), Ipr::SLR);
    b.mtpr(Op::imm(kSystemBase + kSptBase), Ipr::P0BR);
    b.mtpr(Op::imm(128), Ipr::P0LR);
    b.mtpr(Op::imm(0x200000), Ipr::P1LR);
    b.mtpr(Op::lit(1), Ipr::MAPEN);
}

} // namespace

MicroGuestImage
buildTrapDenseLoop(Longword iterations)
{
    CodeBuilder b(kLoadBase);
    b.mtpr(Op::lit(31), Ipr::IPL);
    b.movl(Op::imm(iterations), Op::reg(R0));
    b.clrl(Op::reg(R3));

    Label loop = b.newLabel();
    b.bind(loop);
    b.mtpr(Op::lit(30), Ipr::IPL);
    b.mfpr(Ipr::IPL, Op::reg(R2));
    b.addl2(Op::reg(R2), Op::reg(R3));
    b.prober(Op::lit(3), Op::lit(4), Op::abs(0x1000));
    b.mtpr(Op::lit(31), Ipr::IPL);
    b.sobgtr(Op::reg(R0), loop);
    b.halt();

    MicroGuestImage img;
    img.loadBase = kLoadBase;
    img.entry = kLoadBase;
    img.image = b.finish();
    return img;
}

MicroGuestImage
buildContextSwitchLoop(Longword iterations)
{
    CodeBuilder b(kLoadBase);
    Label loop = b.newLabel();
    Label proc_b = b.newLabel();
    Label done = b.newLabel();
    Label pcb0 = b.newLabel();
    Label pcb1 = b.newLabel();

    emitIdentityMapOn(b);
    b.movl(Op::imm(iterations), Op::abs(kCounterAddr));
    b.movl(Op::imm(0x7000), Op::reg(SP)); // process A's kernel stack
    b.mtpr(Op::lit(31), Ipr::IPL);
    b.mtpr(Op::immLabel(pcb0), Ipr::PCBB);

    // Process A: the scheduler.  The counter lives in memory because
    // LDPCTX replaces the whole register file.
    b.bind(loop);
    b.decl_(Op::abs(kCounterAddr));
    b.bleq(done);
    b.pushl(Op::imm(kSwitchPsl));
    b.pushl(Op::immLabel(loop));
    b.svpctx();
    b.mtpr(Op::immLabel(pcb1), Ipr::PCBB);
    b.ldpctx();
    b.rei();

    // Process B: immediately yields back.
    b.bind(proc_b);
    b.pushl(Op::imm(kSwitchPsl));
    b.pushl(Op::immLabel(proc_b));
    b.svpctx();
    b.mtpr(Op::immLabel(pcb0), Ipr::PCBB);
    b.ldpctx();
    b.rei();

    b.bind(done);
    b.halt();

    b.align(4);
    b.bind(pcb0);
    emitPcb(b, 0x7000, loop);
    b.bind(pcb1);
    emitPcb(b, 0x7800, proc_b);

    MicroGuestImage img;
    img.loadBase = kLoadBase;
    img.entry = kLoadBase;
    img.image = b.finish();
    return img;
}

MicroGuestImage
buildSmcPatchLoop(Longword iterations, bool cross_page)
{
    CodeBuilder b(kLoadBase);
    b.movl(Op::imm(iterations), Op::reg(R6));
    b.movl(Op::imm(1), Op::reg(R2));
    b.clrl(Op::reg(R0));
    b.clrl(Op::reg(R1));
    b.clrl(Op::reg(R3));
    b.movl(Op::imm(static_cast<Longword>(Opcode::MFPR)), Op::reg(R5));
    b.movl(Op::imm(kSmcStopperPeriod), Op::reg(R4));

    Label loop = b.newLabel();
    Label body = b.newLabel();
    Label patch = b.newLabel();
    Label stopper = b.newLabel();
    b.bind(loop);
    // Toggle r2 between 1 and 2 and store it over the short-literal
    // specifier byte of the ADDL2 below (opcode byte at `patch`, the
    // literal at patch+1), so the patched instruction adds a
    // different addend on every pass.  Both 1 and 2 stay within
    // short-literal range, so the rewritten byte is always legal.
    b.xorl2(Op::lit(3), Op::reg(R2));
    b.movb(Op::reg(R2), Op::absRef(patch, 1));
    // Every kSmcStopperPeriod-th pass, flip the opcode byte at
    // `stopper` between MFPR and MOVL.  Both read a longword and
    // write one, so `#18, R7` stays legal either way: a stopper that
    // capped a block (and later a block of its own) for the quiet
    // passes becomes an ordinary instruction, and back.
    b.sobgtr(Op::reg(R4), body);
    b.xorl2(Op::imm(static_cast<Longword>(Opcode::MFPR) ^
                    static_cast<Longword>(Opcode::MOVL)),
            Op::reg(R5));
    b.movb(Op::reg(R5), Op::absRef(stopper));
    b.movl(Op::imm(kSmcStopperPeriod), Op::reg(R4));
    b.bind(body);
    Label again = b.newLabel();
    if (cross_page) {
        // Put the patched instructions on the following page so the
        // stores land outside the page the storing block runs from.
        // The backward edge needs a word-displacement trampoline:
        // SOBGTR only reaches a byte away.
        b.brw(patch);
        b.align(kPageSize);
    }
    b.bind(patch);
    b.addl2(Op::lit(1), Op::reg(R0));
    b.xorl2(Op::reg(R0), Op::reg(R1));
    b.incl(Op::reg(R3));
    b.bind(stopper);
    b.mfpr(Ipr::IPL, Op::reg(R7));
    b.sobgtr(Op::reg(R6), cross_page ? again : loop);
    b.halt();
    if (cross_page) {
        b.bind(again);
        b.brw(loop);
    }

    MicroGuestImage img;
    img.loadBase = kLoadBase;
    img.entry = kLoadBase;
    img.image = b.finish();
    return img;
}

MicroGuestImage
buildBranchPatchLoop(Longword iterations, bool cross_page)
{
    CodeBuilder b(kLoadBase);
    b.movl(Op::imm(iterations), Op::reg(R6));
    b.clrl(Op::reg(R3)); // patch value: toggles 0 <-> 5
    b.movl(Op::imm(kBranchPatchPeriod), Op::reg(R4));
    b.clrl(Op::reg(R0));
    b.clrl(Op::reg(R1));

    Label loop = b.newLabel();
    Label skip = b.newLabel();
    Label mid = b.newLabel();
    Label door = b.newLabel();
    Label t1 = b.newLabel();
    Label t2 = b.newLabel();
    Label join = b.newLabel();
    b.bind(loop);
    // Rewrite the displacement byte only every kBranchPatchPeriod-th
    // pass: the trace containing the patched BRB needs quiet passes
    // to be rebuilt, linked and crossed before the next patch severs
    // it again - a store every pass would keep the predecode entry
    // for `door` perpetually stale and the branch would simply fall
    // back to per-instruction dispatch, linking nothing.  r3 toggles
    // between 0 and 5: the two legal displacement bytes of the BRB
    // at `door` (t1 is bound immediately after it, t2 exactly five
    // bytes later).
    b.addl2(Op::lit(1), Op::reg(R0));
    b.sobgtr(Op::reg(R4), skip);
    b.xorl2(Op::lit(5), Op::reg(R3));
    b.movb(Op::reg(R3), Op::absRef(door, 1));
    b.movl(Op::imm(kBranchPatchPeriod), Op::reg(R4));
    b.bind(skip);
    if (cross_page) {
        // Put the patched trace on the following page so the store
        // dirties a generation cell the storing block never runs
        // from - the cross-page severing case.
        b.brw(mid);
        b.align(kPageSize);
    } else {
        b.brb(mid);
    }
    b.bind(mid);
    b.addl2(Op::lit(3), Op::reg(R0));
    b.bind(door);
    b.brb(t1); // displacement byte patched between 0 (t1) and 5 (t2)
    b.bind(t1);
    b.addl2(Op::lit(2), Op::reg(R1));
    b.brb(join);
    b.bind(t2);
    b.addl2(Op::lit(5), Op::reg(R1));
    b.bind(join);
    if (cross_page) {
        // SOBGTR only reaches a byte away: trampoline back through a
        // word-displacement branch.
        Label back = b.newLabel();
        b.sobgtr(Op::reg(R6), back);
        b.halt();
        b.bind(back);
        b.brw(loop);
    } else {
        b.sobgtr(Op::reg(R6), loop);
        b.halt();
    }

    MicroGuestImage img;
    img.loadBase = kLoadBase;
    img.entry = kLoadBase;
    img.image = b.finish();
    return img;
}

Longword
branchPatchExpectedR1(Longword iterations)
{
    Longword r1 = 0;
    Longword r3 = 0, r4 = kBranchPatchPeriod;
    Byte disp = 0; // the BRB at `door` assembles with displacement 0
    for (Longword pass = 0; pass < iterations; ++pass) {
        if (--r4 == 0) {
            r3 ^= 5;
            disp = static_cast<Byte>(r3);
            r4 = kBranchPatchPeriod;
        }
        r1 += disp == 0 ? 2u : 5u;
    }
    return r1;
}

MicroGuestImage
buildIoDenseLoop(Longword iterations, bool use_disk_kcall)
{
    // Transfer buffer: one 512-byte run per descriptor, above the code.
    constexpr Longword kIoBuffer = 0x4000;

    CodeBuilder b(kLoadBase);
    Label loop = b.newLabel();
    Label done = b.newLabel();
    Label ring = b.newLabel();

    b.mtpr(Op::lit(31), Ipr::IPL);
    b.clrl(Op::reg(R11));
    if (use_disk_kcall) {
        // Ask the VMM which fast paths it implements.  A VMM without
        // kQueryFeatures answers kError for the unknown function code,
        // which carries no feature bits (kcall.h), so the driver
        // falls back to one KCALL per transfer.
        b.mtpr(Op::lit(kcallabi::kQueryFeatures), Ipr::KCALL);
        b.movl(Op::reg(R0), Op::reg(R11));
    }
    b.movl(Op::imm(iterations), Op::reg(R6));

    b.bind(loop);
    // Console burst: four TXDB writes per iteration.
    b.mtpr(Op::imm('i'), Ipr::TXDB);
    b.mtpr(Op::imm('o'), Ipr::TXDB);
    b.mtpr(Op::imm('.'), Ipr::TXDB);
    b.mtpr(Op::imm('\n'), Ipr::TXDB);
    if (use_disk_kcall) {
        Label unbatched = b.newLabel();
        Label next = b.newLabel();
        b.bbc(Op::lit(1), Op::reg(R11), unbatched);

        // Batched: the whole ring in one exit.
        b.movl(Op::immLabel(ring), Op::reg(R1));
        b.movl(Op::imm(kIoDenseDescriptors), Op::reg(R2));
        b.mtpr(Op::lit(kcallabi::kDiskBatch), Ipr::KCALL);
        b.brb(next);

        // Unbatched: walk the same ring, one KCALL per descriptor.
        Label f_top = b.newLabel();
        Label f_write = b.newLabel();
        Label f_next = b.newLabel();
        b.bind(unbatched);
        b.movl(Op::immLabel(ring), Op::reg(R7));
        b.movl(Op::imm(kIoDenseDescriptors), Op::reg(R8));
        b.bind(f_top);
        b.movl(Op::deferred(R7), Op::reg(R1));  // block
        b.movl(Op::disp(4, R7), Op::reg(R2));   // count
        b.movl(Op::disp(8, R7), Op::reg(R3));   // VM-phys buffer
        b.movl(Op::disp(12, R7), Op::reg(R0));  // flags
        b.blbs(Op::reg(R0), f_write);
        b.mtpr(Op::lit(kcallabi::kDiskRead), Ipr::KCALL);
        b.brb(f_next);
        b.bind(f_write);
        b.mtpr(Op::lit(kcallabi::kDiskWrite), Ipr::KCALL);
        b.bind(f_next);
        b.addl2(Op::imm(kcallabi::kBatchDescriptorBytes),
                Op::reg(R7));
        b.sobgtr(Op::reg(R8), f_top);
        b.bind(next);
    } else {
        // Bare-capable filler so the loop body still computes.
        b.addl2(Op::lit(1), Op::reg(R2));
        b.xorl2(Op::reg(R2), Op::reg(R3));
    }
    b.decl_(Op::reg(R6));
    b.bleq(done);
    b.brw(loop); // the loop body outgrows a byte displacement
    b.bind(done);
    b.halt();

    // The descriptor ring: eight single-block writes out of the
    // buffer, then eight reads of the same blocks back into the upper
    // half of the buffer — identical order batched and unbatched.
    b.align(4);
    b.bind(ring);
    for (Longword i = 0; i < kIoDenseDescriptors; ++i) {
        const bool write = i < kIoDenseDescriptors / 2;
        const Longword block =
            write ? i : i - kIoDenseDescriptors / 2;
        b.longword(block);                 // starting disk block
        b.longword(1);                     // block count
        b.longword(kIoBuffer + i * 512);   // VM-phys buffer run
        b.longword(write ? kcallabi::kBatchFlagWrite : 0);
    }

    MicroGuestImage img;
    img.loadBase = kLoadBase;
    img.entry = kLoadBase;
    img.image = b.finish();
    return img;
}

} // namespace vvax
