/**
 * @file
 * The MiniVMS builder: assembles the kernel, the user workload
 * programs, and every static table (SCB, SPT, per-process page
 * tables, PCBs) into one bootable image.
 *
 * The layout is fully static: the builder computes the physical page
 * plan up front, emits the kernel with CodeBuilder, then writes the
 * tables directly into the image.  See minivms.h for the system
 * overview.
 */

#include "guest/minivms.h"

#include <cassert>
#include <cstring>
#include <map>
#include <stdexcept>

#include "arch/ipr.h"
#include "arch/protection.h"
#include "arch/psl.h"
#include "arch/pte.h"
#include "arch/scb.h"
#include "vasm/code_builder.h"
#include "vmm/kcall.h"

namespace vvax {

namespace {

constexpr Longword kS = kSystemBase; // 0x80000000

// System service codes (CHMK).
constexpr Byte kSysExit = 0;
constexpr Byte kSysPuts = 1;
constexpr Byte kSysDiskRead = 2;
constexpr Byte kSysDiskWrite = 3;
constexpr Byte kSysGetTime = 4;
constexpr Byte kSysGetPid = 5;
constexpr Byte kSysHiber = 6;

/** kConsoleWrite bounce-buffer size: one VMM exit per chunk. */
constexpr Longword kConsoleChunk = 128;
// Record service codes (CHME).
constexpr Byte kRmsPut = 1;
constexpr Byte kRmsGet = 2;
// CLI service codes (CHMS).
constexpr Byte kCliCommand = 1;

// Per-process P0 virtual layout.
constexpr VirtAddr kUserCodeVa = 0x1000;
constexpr Longword kUserCodePages = 8;
constexpr VirtAddr kUserDataVa = 0x20000;
constexpr VirtAddr kRmsVa = 0x30000;
constexpr Longword kRmsPages = 4;
constexpr VirtAddr kCliVa = 0x38000;
constexpr Longword kCliPages = 1;

// Per-process P1 stacks (top 16 pages of P1 space).
constexpr Longword kP1Vpns = 0x200000;
constexpr VirtAddr kUserStackTop = 0x80000000; // exclusive
constexpr Longword kUserStackPages = 8;
constexpr Longword kKernStackPages = 4;
constexpr Longword kExecStackPages = 2;
constexpr Longword kSuperStackPages = 2;
constexpr Longword kP1StackPages = kUserStackPages + kKernStackPages +
                                   kExecStackPages + kSuperStackPages;

/** Patch a longword into a raw image. */
void
pokeL(std::vector<Byte> &image, PhysAddr pa, Longword value)
{
    assert(pa + 4 <= image.size());
    std::memcpy(&image[pa], &value, 4);
}

/** Build one user workload program (origin = its execution address). */
std::vector<Byte>
buildWorkload(Workload w, const MiniVmsConfig &cfg)
{
    CodeBuilder b(kUserCodeVa);
    const Longword iters = cfg.iterations;
    const Longword data_pages = cfg.dataPagesPerProcess;

    auto sys = [&](Byte code) { b.chmk(Op::lit(code)); };

    switch (w) {
      case Workload::Compute: {
        // Pure ALU loop with a single hot data longword.
        Label loop = b.newLabel();
        b.movl(Op::imm(iters * 64), Op::reg(R6));
        b.movl(Op::lit(7), Op::reg(R0));
        b.bind(loop);
        b.mull2(Op::lit(13), Op::reg(R0));
        b.addl2(Op::lit(11), Op::reg(R0));
        b.divl2(Op::lit(3), Op::reg(R0));
        b.ashl(Op::lit(2), Op::reg(R0), Op::reg(R1));
        b.xorl2(Op::reg(R1), Op::reg(R0));
        b.movl(Op::reg(R0), Op::abs(kUserDataVa));
        b.sobgtr(Op::reg(R6), loop);
        sys(kSysExit);
        break;
      }
      case Workload::Edit: {
        // Interactive editing: line copies, a character scan, and a
        // console status line each iteration - heavy CHMK traffic.
        Label outer = b.newLabel();
        Label scan = b.newLabel();
        Label scan_done = b.newLabel();
        Label msg = b.newLabel();
        b.movl(Op::imm(iters), Op::reg(R11));
        // Seed a "line" in the first data page.
        b.movl(Op::imm(0x2E2E2E2E), Op::abs(kUserDataVa));
        b.movb(Op::imm('\n'), Op::abs(kUserDataVa + 119));
        b.bind(outer);
        // Copy the line into a rotating slot (touches pages).
        b.movl(Op::reg(R11), Op::reg(R7));
        b.bicl2(Op::imm(~(data_pages - 1)), Op::reg(R7));
        b.ashl(Op::imm(9), Op::reg(R7), Op::reg(R7));
        b.addl2(Op::imm(kUserDataVa), Op::reg(R7));
        b.movc3(Op::imm(120), Op::abs(kUserDataVa), Op::deferred(R7));
        // Scan the copy for the newline (R3 = end of copy from MOVC3).
        b.subl2(Op::imm(120), Op::reg(R3));
        b.movl(Op::imm(120), Op::reg(R8));
        b.bind(scan);
        b.cmpb(Op::autoInc(R3), Op::imm('\n'));
        b.beql(scan_done);
        b.sobgtr(Op::reg(R8), scan);
        b.bind(scan_done);
        if (cfg.chattyConsole) {
            b.moval(Op::ref(msg), Op::reg(R2));
            b.movl(Op::lit(6), Op::reg(R3));
            sys(kSysPuts);
        } else {
            // One short line per 8 iterations keeps the CHMK density
            // realistic without flooding the console buffer.
            Label skip = b.newLabel();
            b.movl(Op::reg(R11), Op::reg(R0));
            b.bicl2(Op::imm(~7u), Op::reg(R0));
            b.bneq(skip);
            b.moval(Op::ref(msg), Op::reg(R2));
            b.movl(Op::lit(6), Op::reg(R3));
            sys(kSysPuts);
            b.bind(skip);
        }
        b.sobgtr(Op::reg(R11), outer);
        sys(kSysExit);
        b.bind(msg);
        b.ascii("~edit\n");
        break;
      }
      case Workload::Transaction: {
        Label outer = b.newLabel();
        Label fill = b.newLabel();
        Label no_cli = b.newLabel();
        b.movl(Op::imm(iters), Op::reg(R11));
        b.bind(outer);
        // Record buffer in a rotating data page.
        b.movl(Op::reg(R11), Op::reg(R7));
        b.mull2(Op::lit(37), Op::reg(R7));
        b.bicl2(Op::imm(~(data_pages - 1)), Op::reg(R7));
        b.ashl(Op::imm(9), Op::reg(R7), Op::reg(R7));
        b.addl2(Op::imm(kUserDataVa), Op::reg(R7));
        b.movl(Op::reg(R7), Op::reg(R9));
        // Fill 16 longwords with a key.
        b.movl(Op::imm(16), Op::reg(R8));
        b.bind(fill);
        b.movl(Op::reg(R11), Op::autoInc(R7));
        b.sobgtr(Op::reg(R8), fill);
        // Executive-mode record put: R2 = buffer, R3 = length.
        b.movl(Op::reg(R9), Op::reg(R2));
        b.movl(Op::imm(64), Op::reg(R3));
        b.chme(Op::lit(kRmsPut));
        // Disk write: R2 = block, R3 = buffer va, R4 = count.
        b.movl(Op::reg(R11), Op::reg(R2));
        b.bicl2(Op::imm(~63u), Op::reg(R2));
        b.movl(Op::reg(R9), Op::reg(R3));
        b.movl(Op::lit(1), Op::reg(R4));
        sys(kSysDiskWrite);
        // Record get, then re-read the block from disk.
        b.movl(Op::reg(R9), Op::reg(R2));
        b.movl(Op::imm(64), Op::reg(R3));
        b.chme(Op::lit(kRmsGet));
        b.movl(Op::reg(R11), Op::reg(R2));
        b.bicl2(Op::imm(~63u), Op::reg(R2));
        b.movl(Op::reg(R9), Op::reg(R3));
        b.movl(Op::lit(1), Op::reg(R4));
        sys(kSysDiskRead);
        // Every 8th transaction, log a CLI command (supervisor mode).
        b.movl(Op::reg(R11), Op::reg(R0));
        b.bicl2(Op::imm(~7u), Op::reg(R0));
        b.bneq(no_cli);
        b.chms(Op::lit(kCliCommand));
        b.bind(no_cli);
        b.sobgtr(Op::reg(R11), outer);
        sys(kSysExit);
        break;
      }
      case Workload::PageStress: {
        Label outer = b.newLabel();
        Label inner = b.newLabel();
        b.movl(Op::imm(iters), Op::reg(R11));
        b.bind(outer);
        b.movl(Op::imm(data_pages), Op::reg(R7));
        b.movl(Op::imm(kUserDataVa), Op::reg(R8));
        b.bind(inner);
        b.movl(Op::reg(R11), Op::deferred(R8));
        b.addl2(Op::imm(kPageSize), Op::reg(R8));
        b.sobgtr(Op::reg(R7), inner);
        b.sobgtr(Op::reg(R11), outer);
        sys(kSysExit);
        break;
      }
      case Workload::Idle: {
        Label loop = b.newLabel();
        b.movl(Op::imm(iters), Op::reg(R11));
        b.bind(loop);
        sys(kSysHiber);
        b.sobgtr(Op::reg(R11), loop);
        sys(kSysExit);
        break;
      }
    }
    auto image = b.finish();
    if (image.size() > kUserCodePages * kPageSize)
        throw std::logic_error("workload program too large");
    return image;
}

} // namespace

MiniVmsImage
buildMiniVms(const MiniVmsConfig &cfg)
{
    const Longword mem_pages = (cfg.memBytes + kPageSize - 1) / kPageSize;
    const int nproc = cfg.numProcesses;
    if (nproc < 1 || nproc > 32)
        throw std::invalid_argument("numProcesses out of range");
    if ((cfg.dataPagesPerProcess & (cfg.dataPagesPerProcess - 1)) != 0)
        throw std::invalid_argument(
            "dataPagesPerProcess must be a power of two");

    // ----- Physical page plan -------------------------------------------
    constexpr Longword kKernelTextPages = 80; // incl. the SCB at page 0
    Longword cursor = kKernelTextPages;
    auto alloc = [&](Longword pages) {
        const Longword start = cursor;
        cursor += pages;
        return static_cast<PhysAddr>(start * kPageSize);
    };

    const PhysAddr boot_p0_table = alloc(1);
    const PhysAddr boot_stack = alloc(1);
    const PhysAddr int_stack = alloc(2);
    const PhysAddr time_page = alloc(1);
    const Longword spt_pages = (mem_pages * 4 + 4 + kPageSize - 1) /
                               kPageSize;
    const PhysAddr spt = alloc(spt_pages);

    std::map<Workload, PhysAddr> program_pa;
    std::vector<Workload> proc_work(nproc);
    for (int i = 0; i < nproc; ++i) {
        const Workload w =
            cfg.workloads.empty()
                ? Workload::Compute
                : cfg.workloads[i % cfg.workloads.size()];
        proc_work[i] = w;
        if (!program_pa.count(w))
            program_pa[w] = alloc(kUserCodePages);
    }

    struct ProcPlan
    {
        PhysAddr pcb, p0Table, p1Table, rms, cli, data, stacks;
    };
    const Longword p0_ptes = (kCliVa >> kPageShift) + kCliPages;
    const Longword p0_table_pages =
        (p0_ptes * 4 + kPageSize - 1) / kPageSize;
    const Longword p1_table_pages = 2; // 256 PTEs
    std::vector<ProcPlan> procs(nproc);
    for (auto &p : procs) {
        p.pcb = alloc(1);
        p.p0Table = alloc(p0_table_pages);
        p.p1Table = alloc(p1_table_pages);
        p.rms = alloc(kRmsPages);
        p.cli = alloc(kCliPages);
        p.data = alloc(cfg.dataPagesPerProcess);
        p.stacks = alloc(kP1StackPages);
    }

    if (cursor > mem_pages) {
        throw std::invalid_argument(
            "MiniVMS configuration does not fit in guest memory");
    }

    const VirtAddr device_sva = kS + mem_pages * kPageSize;
    const Longword slr = mem_pages + 1; // +1 for the device window

    // ----- Kernel ----------------------------------------------------------
    CodeBuilder b(0);

    const Label entry = b.newLabel();
    const Label in_s = b.newLabel();
    const Label h_resop = b.newLabel();
    const Label h_timer = b.newLabel();
    const Label h_resched = b.newLabel();
    const Label h_chmk = b.newLabel();
    const Label h_chme = b.newLabel();
    const Label h_chms = b.newLabel();
    const Label h_modify = b.newLabel();
    const Label h_ignore = b.newLabel();
    const Label h_panic = b.newLabel();
    const Label h_arith = b.newLabel();
    const Label h_mcheck = b.newLabel();
    const Label resume_detect = b.newLabel();
    const Label pick_next = b.newLabel();
    const Label finale = b.newLabel();
    const Label exit_common = b.newLabel();
    const Label svc_epilogue = b.newLabel();
    const Label d_isvirt = b.newLabel();
    const Label d_features = b.newLabel();
    const Label d_ring = b.newLabel();
    const Label d_conbuf = b.newLabel();
    const Label d_probing = b.newLabel();
    const Label d_ticks = b.newLabel();
    const Label d_live = b.newLabel();
    const Label d_curproc = b.newLabel();
    const Label d_syscount = b.newLabel();
    const Label d_retries = b.newLabel();
    const Label d_mchecks = b.newLabel();
    const Label d_result = b.newLabel();
    const Label d_pcbs = b.newLabel();
    const Label d_done = b.newLabel();
    const Label done_msg = b.newLabel();
    const Label diskerr_msg = b.newLabel();

    // Far-conditional helpers (conditional branches are byte-range).
    auto beqlFar = [&](Label target) {
        Label skip = b.newLabel();
        b.bneq(skip);
        b.brw(target);
        b.bind(skip);
    };
    auto bneqFar = [&](Label target) {
        Label skip = b.newLabel();
        b.beql(skip);
        b.brw(target);
        b.bind(skip);
    };
    auto cell = [&](Label l) { return Op::absRef(l, kS); };

    // --- SCB (page 0) ---
    struct ScbPlan
    {
        Label handler;
        bool interruptStack;
    };
    std::map<Word, ScbPlan> scb_entries = {
        {static_cast<Word>(ScbVector::MachineCheck), {h_mcheck, true}},
        {static_cast<Word>(ScbVector::ReservedOperand), {h_resop, false}},
        {static_cast<Word>(ScbVector::Arithmetic), {h_arith, false}},
        {static_cast<Word>(ScbVector::ModifyFault), {h_modify, false}},
        {static_cast<Word>(ScbVector::Chmk), {h_chmk, false}},
        {static_cast<Word>(ScbVector::Chme), {h_chme, false}},
        {static_cast<Word>(ScbVector::Chms), {h_chms, false}},
        {static_cast<Word>(ScbVector::IntervalTimer), {h_timer, true}},
        {softwareInterruptVector(3), {h_resched, false}},
        {static_cast<Word>(ScbVector::ConsoleReceive), {h_ignore, true}},
        {static_cast<Word>(ScbVector::ConsoleTransmit), {h_ignore, true}},
        {static_cast<Word>(ScbVector::DeviceBase), {h_ignore, false}},
    };
    for (Word v = 0; v < kScbSize; v += 4) {
        auto it = scb_entries.find(v);
        if (it == scb_entries.end())
            b.longwordAbs(h_panic, kS);
        else
            b.longwordAbs(it->second.handler,
                          kS + (it->second.interruptStack ? 1 : 0));
    }
    assert(b.here() == 0x200);

    // --- Boot (physical addresses; memory management off) ---
    b.bind(entry);
    b.movl(Op::imm(boot_stack + kPageSize), Op::reg(SP));
    b.mtpr(Op::lit(0), Ipr::SCBB);
    b.mtpr(Op::imm(spt), Ipr::SBR);
    b.mtpr(Op::imm(slr), Ipr::SLR);
    b.mtpr(Op::imm(kS + boot_p0_table), Ipr::P0BR);
    b.mtpr(Op::imm(kKernelTextPages), Ipr::P0LR);
    b.mtpr(Op::imm(kP1Vpns), Ipr::P1LR);
    b.mtpr(Op::lit(0), Ipr::P1BR);
    b.mtpr(Op::lit(1), Ipr::MAPEN);
    b.jmp(Op::absRef(in_s, kS));

    // --- Mapped; executing in system space from here on ---
    b.bind(in_s);
    b.mtpr(Op::imm(kS + int_stack + 2 * kPageSize), Ipr::ISP);
    b.movl(Op::imm(kS + boot_stack + kPageSize), Op::reg(SP));

    // Detect the virtual VAX (Section 5): MFPR from MEMSIZE succeeds
    // there; on bare hardware the reserved-operand handler clears the
    // flag and skips the instruction.
    b.movl(Op::lit(1), cell(d_isvirt));
    b.movl(Op::lit(1), cell(d_probing));
    b.mfpr(Ipr::MEMSIZE, Op::reg(R0));
    b.bind(resume_detect);
    b.clrl(cell(d_probing));

    // Virtual VAX: register the uptime mailbox with the VMM and ask
    // which KCALL fast paths it implements.  A VMM predating
    // kQueryFeatures answers kError, which carries no feature bits
    // (kcall.h), so every fast path degrades to the per-transfer ABI.
    Label boot_after_mailbox = b.newLabel();
    b.tstl(cell(d_isvirt));
    b.beql(boot_after_mailbox);
    b.movl(Op::imm(time_page), Op::reg(R1));
    b.mtpr(Op::imm(kcallabi::kSetUptimeMailbox), Ipr::KCALL);
    b.mtpr(Op::lit(kcallabi::kQueryFeatures), Ipr::KCALL);
    b.movl(Op::reg(R0), cell(d_features));
    b.bind(boot_after_mailbox);

    // Start the clock and dispatch process 0.
    b.mtpr(Op::imm(static_cast<Longword>(
               -static_cast<std::int32_t>(cfg.quantumCycles))),
           Ipr::NICR);
    b.mtpr(Op::imm(iccs::kTransfer | iccs::kRun |
                   iccs::kInterruptEnable),
           Ipr::ICCS);
    b.clrl(cell(d_curproc));
    b.movl(cell(d_pcbs), Op::reg(R0));
    b.mtpr(Op::reg(R0), Ipr::PCBB);
    b.ldpctx();
    b.rei();

    // --- Reserved operand fault (boot machine-type probe) ---
    b.align(4);
    b.bind(h_resop);
    b.tstl(cell(d_probing));
    beqlFar(h_panic);
    b.clrl(cell(d_isvirt));
    b.movl(Op::immLabel(resume_detect, kS), Op::deferred(SP));
    b.rei();

    // --- Interval timer (interrupt stack, IPL 24) ---
    b.align(4);
    b.bind(h_timer);
    b.mtpr(Op::imm(iccs::kInterrupt | iccs::kRun |
                   iccs::kInterruptEnable),
           Ipr::ICCS);
    b.incl(cell(d_ticks));
    b.mtpr(Op::lit(3), Ipr::SIRR);
    b.rei();

    // --- Rescheduling software interrupt (kernel stack, IPL 3) ---
    b.align(4);
    b.bind(h_resched);
    b.svpctx();
    b.bind(pick_next);
    b.movl(cell(d_curproc), Op::reg(R0));
    {
        Label scan = b.bindHere();
        Label no_wrap = b.newLabel();
        b.incl(Op::reg(R0));
        b.cmpl(Op::reg(R0), Op::imm(static_cast<Longword>(nproc)));
        b.blss(no_wrap);
        b.clrl(Op::reg(R0));
        b.bind(no_wrap);
        b.tstl(cell(d_done).idx(R0));
        b.bneq(scan);
    }
    b.movl(Op::reg(R0), cell(d_curproc));
    b.movl(cell(d_pcbs).idx(R0), Op::reg(R1));
    b.mtpr(Op::reg(R1), Ipr::PCBB);
    b.ldpctx();
    b.rei();

    // --- CHMK: kernel system services ---
    // Frame on the kernel stack: (SP) = code, +4 PC, +8 PSL.
    b.align(4);
    b.bind(h_chmk);
    b.incl(cell(d_syscount));
    b.mtpr(Op::lit(8), Ipr::IPL); // service synchronization level
    b.movl(Op::deferred(SP), Op::reg(R0));

    Label svc_puts = b.newLabel();
    Label svc_disk = b.newLabel();
    Label svc_gettim = b.newLabel();
    Label svc_getpid = b.newLabel();
    Label svc_hiber = b.newLabel();

    b.tstl(Op::reg(R0));
    bneqFar(svc_puts); // fallthrough = EXIT (code 0); test others below
    // EXIT: discard the CHM frame's code longword; the rest of the
    // frame (PC/PSL) is exactly what SVPCTX banks into the dead PCB.
    b.addl2(Op::lit(4), Op::reg(SP));
    b.brw(exit_common);

    b.bind(exit_common);
    b.movl(cell(d_curproc), Op::reg(R1));
    b.movl(Op::lit(1), cell(d_done).idx(R1));
    b.decl_(cell(d_live));
    beqlFar(finale);
    b.svpctx();
    b.brw(pick_next);

    // PUTS: R2 = user buffer, R3 = length.
    b.bind(svc_puts);
    b.cmpl(Op::reg(R0), Op::lit(kSysPuts));
    bneqFar(svc_disk);
    {
        Label fail = b.newLabel();
        Label done = b.newLabel();
        Label loop = b.newLabel();
        Label kc_path = b.newLabel();
        b.tstl(Op::reg(R3));
        b.beql(done);
        b.prober(Op::lit(0), Op::reg(R3), Op::deferred(R2));
        b.beql(fail); // Z=1: not accessible from the caller's mode
        b.tstl(cell(d_isvirt));
        bneqFar(kc_path);
        b.pushr(Op::imm(0x0C)); // save R2, R3
        b.bind(loop);
        b.movzbl(Op::autoInc(R2), Op::reg(R1));
        b.mtpr(Op::reg(R1), Ipr::TXDB);
        b.sobgtr(Op::reg(R3), loop);
        b.popr(Op::imm(0x0C));
        b.bind(done);
        b.clrl(Op::reg(R0));
        b.brw(svc_epilogue);
        b.bind(fail);
        b.movl(Op::lit(1), Op::reg(R0));
        b.brw(svc_epilogue);

        // Virtual VAX: bounce the user buffer through a kernel buffer
        // and hand the VMM whole chunks via kConsoleWrite — one exit
        // per chunk instead of one TXDB trap per character.  Same
        // bytes in the same order as the TXDB loop above.
        Label chunk = b.newLabel();
        Label sz_ok = b.newLabel();
        b.bind(kc_path);
        b.pushr(Op::imm(0x3C)); // R2..R5 (MOVC3 clobbers R0-R5)
        b.bind(chunk);
        b.movl(Op::reg(R3), Op::reg(R1));
        b.cmpl(Op::reg(R1), Op::imm(kConsoleChunk));
        b.blequ(sz_ok);
        b.movl(Op::imm(kConsoleChunk), Op::reg(R1));
        b.bind(sz_ok);
        b.pushl(Op::reg(R1)); // chunk length
        b.pushl(Op::reg(R2)); // user cursor
        b.pushl(Op::reg(R3)); // remaining
        b.movc3(Op::reg(R1), Op::deferred(R2), cell(d_conbuf));
        b.movl(Op::disp(8, SP), Op::reg(R2));        // length arg
        b.movl(Op::immLabel(d_conbuf), Op::reg(R1)); // VM-phys buffer
        b.mtpr(Op::lit(kcallabi::kConsoleWrite), Ipr::KCALL);
        b.movl(Op::autoInc(SP), Op::reg(R3));
        b.movl(Op::autoInc(SP), Op::reg(R2));
        b.movl(Op::autoInc(SP), Op::reg(R1));
        b.addl2(Op::reg(R1), Op::reg(R2)); // advance the cursor
        b.subl2(Op::reg(R1), Op::reg(R3)); // and what's left
        b.bgtr(chunk);
        b.popr(Op::imm(0x3C));
        b.clrl(Op::reg(R0));
        b.brw(svc_epilogue);
    }

    // DISK READ/WRITE: R2 = block, R3 = user va, R4 = count (1).
    b.bind(svc_disk);
    b.cmpl(Op::reg(R0), Op::lit(kSysDiskRead));
    {
        Label is_disk = b.newLabel();
        b.beql(is_disk);
        b.cmpl(Op::reg(R0), Op::lit(kSysDiskWrite));
        bneqFar(svc_gettim);
        b.bind(is_disk);
    }
    {
        Label fail = b.newLabel();
        Label kcall_path = b.newLabel();
        Label go = b.newLabel();
        Label wr = b.newLabel();
        Label poll = b.newLabel();
        Label out = b.newLabel();
        // Validate the user buffer (PROBEW: write implies read).
        b.probew(Op::lit(0), Op::imm(512), Op::deferred(R3));
        beqlFar(fail);
        b.pushr(Op::imm(0xFC)); // save R2..R7
        // Translate the buffer address through our own P0 table.
        b.bicl3(Op::imm(0xC0000000), Op::reg(R3), Op::reg(R5));
        b.ashl(Op::imm(static_cast<Longword>(-9)), Op::reg(R5),
               Op::reg(R5));
        b.ashl(Op::lit(2), Op::reg(R5), Op::reg(R5));
        b.mfpr(Ipr::P0BR, Op::reg(R6));
        b.addl2(Op::reg(R6), Op::reg(R5));
        b.movl(Op::deferred(R5), Op::reg(R5)); // the PTE
        b.bicl2(Op::imm(0xFFE00000), Op::reg(R5));
        b.ashl(Op::lit(9), Op::reg(R5), Op::reg(R5));
        b.bicl3(Op::imm(0xFFFFFE00), Op::reg(R3), Op::reg(R6));
        b.bisl2(Op::reg(R6), Op::reg(R5)); // physical buffer address
        if (cfg.diskCsrPfn == 0) {
            // Start-I/O through KCALL when virtual (Section 4.4.3).
            b.tstl(cell(d_isvirt));
            b.bneq(kcall_path);
            // Bare machine with no controller configured.
            b.popr(Op::imm(0xFC));
            b.brw(fail);
        } else {
            b.brw(go); // the KCALL retry section outgrew a byte branch
        }
        b.bind(kcall_path);
        Label single = b.newLabel();
        {
            // Post through the kDiskBatch descriptor ring when the
            // VMM advertises it (one-entry ring: the syscall ABI moves
            // one extent, but the driver exercises the same ring
            // format MiniUltrix and the I/O-dense microguest batch
            // through).  Fall back to the per-transfer KCALLs on a
            // VMM that predates the feature bit.
            Label batch_failed = b.newLabel();
            Label use_batch = b.newLabel();
            b.bbs(Op::lit(1), cell(d_features), use_batch);
            b.brw(single); // batch section outgrew a byte branch
            b.bind(use_batch);
            b.movl(Op::reg(R2), cell(d_ring));                   // block
            b.movl(Op::reg(R4), Op::absRef(d_ring, kS + 4));     // count
            b.movl(Op::reg(R5), Op::absRef(d_ring, kS + 8));     // buffer
            b.subl3(Op::lit(2), Op::reg(R0),
                    Op::absRef(d_ring, kS + 12)); // syscall 2/3 -> flags 0/1
            b.movl(Op::immLabel(d_ring), Op::reg(R1));
            b.movl(Op::lit(1), Op::reg(R2));
            b.mtpr(Op::lit(kcallabi::kDiskBatch), Ipr::KCALL);
            b.tstl(Op::reg(R0));
            b.bneq(batch_failed);
            // The VMM posted the final status into flags<31:16>
            // before returning (kcall.h).  Anything but Ok - even
            // kBatchStatusNone - takes the per-block path below.
            b.ashl(Op::imm(static_cast<Longword>(-16)),
                   Op::absRef(d_ring, kS + 12), Op::reg(R0));
            b.cmpl(Op::reg(R0), Op::lit(kcallabi::kBatchStatusOk));
            b.bneq(batch_failed);
            b.popr(Op::imm(0xFC));
            b.clrl(Op::reg(R0));
            b.brw(svc_epilogue);
            // A torn or faulted ring degrades to per-block transfers
            // (kcall.h): reload the request from the ring descriptor -
            // the cells are authoritative, and the VMM preserved the
            // guest flags bits under its status word - and fall into
            // the retrying single-transfer path below.
            b.bind(batch_failed);
            b.incl(cell(d_retries));
            b.movl(cell(d_ring), Op::reg(R2));               // block
            b.movl(Op::absRef(d_ring, kS + 4), Op::reg(R4)); // count
            b.movl(Op::absRef(d_ring, kS + 8), Op::reg(R5)); // buffer
            b.bicl3(Op::imm(~1u), Op::absRef(d_ring, kS + 12),
                    Op::reg(R0)); // flags bit 0 = direction
            b.addl2(Op::lit(2), Op::reg(R0)); // back to syscall 2/3
        }
        b.bind(single);
        {
            // Bounded retry with backoff: a transient device error is
            // re-issued up to three more times with a short spin
            // between attempts; a persistent one surfaces as a
            // console diagnostic and an error status - never silent
            // corruption.
            Label retry = b.newLabel();
            Label backoff = b.newLabel();
            Label give_up = b.newLabel();
            Label ok = b.newLabel();
            b.subl3(Op::lit(1), Op::reg(R0),
                    Op::reg(R7));             // syscall 2/3 -> KCALL 1/2
            b.movl(Op::reg(R2), Op::reg(R1)); // block
            b.movl(Op::reg(R4), Op::reg(R2)); // count
            b.movl(Op::reg(R5), Op::reg(R3)); // VM-physical address
            b.movl(Op::imm(4), Op::reg(R6));  // attempt budget
            b.bind(retry);
            b.mtpr(Op::reg(R7), Ipr::KCALL);  // R0 <- status
            b.tstl(Op::reg(R0));
            b.beql(ok);
            b.sobgtr(Op::reg(R6), backoff);
            b.brw(give_up);
            b.bind(backoff);
            b.incl(cell(d_retries));
            b.movl(Op::imm(64), Op::reg(R0)); // spin before re-issuing
            {
                Label spin = b.bindHere();
                b.sobgtr(Op::reg(R0), spin);
            }
            b.brb(retry);
            b.bind(ok);
            b.popr(Op::imm(0xFC));
            b.clrl(Op::reg(R0));
            b.brw(svc_epilogue);
            // Persistent failure: tell the operator, fail the syscall.
            b.bind(give_up);
            {
                Label loop = b.newLabel();
                b.moval(Op::ref(diskerr_msg), Op::reg(R2));
                b.movl(Op::imm(15), Op::reg(R3));
                b.bind(loop);
                b.movzbl(Op::autoInc(R2), Op::reg(R1));
                b.mtpr(Op::reg(R1), Ipr::TXDB);
                b.sobgtr(Op::reg(R3), loop);
            }
            b.popr(Op::imm(0xFC));
            b.movl(Op::lit(1), Op::reg(R0));
            b.brw(svc_epilogue);
        }
        // Memory-mapped controller (bare machine, or the Mmio
        // ablation inside a VM).
        b.bind(go);
        b.movl(Op::reg(R2), Op::abs(device_sva + 4));  // block
        b.movl(Op::reg(R4), Op::abs(device_sva + 8));  // count
        b.movl(Op::reg(R5), Op::abs(device_sva + 12)); // phys addr
        b.cmpl(Op::reg(R0), Op::lit(kSysDiskWrite));
        b.beql(wr);
        b.movl(Op::lit(1), Op::reg(R6)); // GO, read
        b.brb(poll);
        b.bind(wr);
        b.movl(Op::imm(0x101), Op::reg(R6)); // GO | write
        b.bind(poll);
        b.movl(Op::reg(R6), Op::abs(device_sva));
        {
            Label spin = b.bindHere();
            b.bbc(Op::lit(7), Op::abs(device_sva), spin); // wait READY
        }
        b.popr(Op::imm(0xFC));
        b.clrl(Op::reg(R0));
        b.brb(out);
        b.bind(fail);
        b.movl(Op::lit(1), Op::reg(R0));
        b.bind(out);
        b.brw(svc_epilogue);
    }

    // GETTIM: R0 <- system uptime in cycles.
    b.bind(svc_gettim);
    b.cmpl(Op::reg(R0), Op::lit(kSysGetTime));
    bneqFar(svc_getpid);
    {
        Label bare = b.newLabel();
        Label out = b.newLabel();
        b.tstl(cell(d_isvirt));
        b.beql(bare);
        // Virtual: the VMM maintains uptime in our memory (Sec. 5).
        b.movl(Op::abs(kS + time_page), Op::reg(R0));
        b.brb(out);
        b.bind(bare);
        // Bare: count of interval interrupts times the quantum.
        b.movl(cell(d_ticks), Op::reg(R0));
        b.mull2(Op::imm(cfg.quantumCycles), Op::reg(R0));
        b.bind(out);
        b.brw(svc_epilogue);
    }

    // GETPID.
    b.bind(svc_getpid);
    b.cmpl(Op::reg(R0), Op::lit(kSysGetPid));
    bneqFar(svc_hiber);
    b.movl(cell(d_curproc), Op::reg(R0));
    b.brw(svc_epilogue);

    // HIBER: the idle handshake.  On the virtual VAX this is WAIT
    // (Section 5); on bare hardware, a brief pause.
    b.bind(svc_hiber);
    b.cmpl(Op::reg(R0), Op::lit(kSysHiber));
    {
        Label unknown = b.newLabel();
        Label bare = b.newLabel();
        Label out = b.newLabel();
        b.bneq(unknown);
        b.tstl(cell(d_isvirt));
        b.beql(bare);
        b.mtpr(Op::lit(0), Ipr::IPL); // WAIT at low IPL
        b.wait();
        b.clrl(Op::reg(R0));
        b.brb(out);
        b.bind(bare);
        b.movl(Op::imm(50), Op::reg(R1));
        {
            Label spin = b.bindHere();
            b.sobgtr(Op::reg(R1), spin);
        }
        b.clrl(Op::reg(R0));
        b.bind(out);
        b.brw(svc_epilogue);
        b.bind(unknown);
        b.mnegl(Op::lit(1), Op::reg(R0)); // unknown service
        b.brw(svc_epilogue);
    }

    // Common system service exit.
    b.bind(svc_epilogue);
    b.mtpr(Op::lit(0), Ipr::IPL);
    b.addl2(Op::lit(4), Op::reg(SP)); // pop the CHM code
    b.rei();

    // --- Final system shutdown: record results, say goodbye, halt ---
    b.bind(finale);
    b.movl(Op::imm(MiniVmsImage::kResultMagic), cell(d_result));
    b.movl(cell(d_ticks), Op::absRef(d_result, kS + 4));
    b.movl(Op::imm(static_cast<Longword>(nproc)),
           Op::absRef(d_result, kS + 8));
    b.movl(cell(d_syscount), Op::absRef(d_result, kS + 12));
    b.movl(cell(d_retries), Op::absRef(d_result, kS + 16));
    b.movl(cell(d_mchecks), Op::absRef(d_result, kS + 20));
    {
        Label loop = b.newLabel();
        b.moval(Op::ref(done_msg), Op::reg(R2));
        b.movl(Op::imm(14), Op::reg(R3));
        b.bind(loop);
        b.movzbl(Op::autoInc(R2), Op::reg(R1));
        b.mtpr(Op::reg(R1), Ipr::TXDB);
        b.sobgtr(Op::reg(R3), loop);
    }
    b.halt();

    // --- CHME: executive-mode record services ---
    // Frame on the executive stack: (SP) = code, +4 PC, +8 PSL.
    b.align(4);
    b.bind(h_chme);
    {
        Label rms_put = b.newLabel();
        Label rms_get = b.newLabel();
        Label rms_fail_put = b.newLabel();
        Label rms_fail_get = b.newLabel();
        Label epilogue = b.newLabel();
        Label unknown = b.newLabel();
        b.movl(Op::deferred(SP), Op::reg(R0));
        b.cmpl(Op::reg(R0), Op::lit(kRmsPut));
        b.beql(rms_put);
        b.cmpl(Op::reg(R0), Op::lit(kRmsGet));
        b.beql(rms_get);
        b.brb(unknown);

        b.bind(rms_put); // R2 = user buffer, R3 = length
        {
            Label len_ok = b.newLabel();
            b.cmpl(Op::reg(R3), Op::imm(256));
            b.blequ(len_ok);
            b.movl(Op::imm(256), Op::reg(R3));
            b.bind(len_ok);
        }
        b.prober(Op::lit(0), Op::reg(R3), Op::deferred(R2));
        b.beql(rms_fail_put);
        b.pushr(Op::imm(0x3C)); // R2..R5 (MOVC3 clobbers R0-R5)
        b.movl(Op::reg(R3), Op::abs(kRmsVa + 4)); // record length
        b.incl(Op::abs(kRmsVa));                  // record count
        b.movc3(Op::reg(R3), Op::deferred(R2), Op::abs(kRmsVa + 16));
        b.popr(Op::imm(0x3C));
        b.clrl(Op::reg(R0));
        b.brb(epilogue);
        b.bind(rms_fail_put);
        b.movl(Op::lit(1), Op::reg(R0));
        b.brb(epilogue);

        b.bind(rms_get); // R2 = user buffer, R3 = max length
        b.movl(Op::abs(kRmsVa + 4), Op::reg(R1));
        {
            Label len_ok = b.newLabel();
            b.cmpl(Op::reg(R1), Op::reg(R3));
            b.blequ(len_ok);
            b.movl(Op::reg(R3), Op::reg(R1));
            b.bind(len_ok);
        }
        b.probew(Op::lit(0), Op::reg(R1), Op::deferred(R2));
        b.beql(rms_fail_get);
        b.pushr(Op::imm(0x3C));
        b.movc3(Op::reg(R1), Op::abs(kRmsVa + 16), Op::deferred(R2));
        b.popr(Op::imm(0x3C));
        b.clrl(Op::reg(R0));
        b.brb(epilogue);
        b.bind(rms_fail_get);
        b.movl(Op::lit(1), Op::reg(R0));
        b.brb(epilogue);

        b.bind(unknown);
        b.mnegl(Op::lit(1), Op::reg(R0));
        b.bind(epilogue);
        b.addl2(Op::lit(4), Op::reg(SP));
        b.rei();
    }

    // --- CHMS: supervisor-mode CLI service ---
    b.align(4);
    b.bind(h_chms);
    b.incl(Op::abs(kCliVa)); // command count (supervisor-write page)
    b.clrl(Op::reg(R0));
    b.addl2(Op::lit(4), Op::reg(SP));
    b.rei();

    // --- Modify fault (bare modified VAX, Section 4.4.2): set PTE<M> ---
    // Frame: (SP) = fault parameter, +4 va, +8 PC, +12 PSL.
    b.align(4);
    b.bind(h_modify);
    b.pushr(Op::imm(0x07)); // R0-R2
    b.movl(Op::disp(16, SP), Op::reg(R0)); // faulting va
    // PTE index bytes: ((va & 0x3FFFFFFF) >> 9) * 4.
    b.bicl3(Op::imm(0xC0000000), Op::reg(R0), Op::reg(R2));
    b.ashl(Op::imm(static_cast<Longword>(-7)), Op::reg(R2),
           Op::reg(R2));
    b.bicl2(Op::lit(3), Op::reg(R2));
    {
        Label is_p0 = b.newLabel();
        Label is_p1 = b.newLabel();
        Label have_base = b.newLabel();
        b.ashl(Op::imm(static_cast<Longword>(-30)), Op::reg(R0),
               Op::reg(R1));
        b.bicl2(Op::imm(0xFFFFFFFC), Op::reg(R1)); // region 0..3
        b.tstl(Op::reg(R1));
        b.beql(is_p0);
        b.cmpl(Op::reg(R1), Op::lit(1));
        b.beql(is_p1);
        // System region: the SPT is at a fixed physical address.
        b.movl(Op::imm(kS + spt), Op::reg(R1));
        b.brb(have_base);
        b.bind(is_p0);
        b.mfpr(Ipr::P0BR, Op::reg(R1));
        b.brb(have_base);
        b.bind(is_p1);
        b.mfpr(Ipr::P1BR, Op::reg(R1));
        b.bind(have_base);
        b.addl2(Op::reg(R1), Op::reg(R2));
    }
    b.bisl2(Op::imm(Pte::kModify), Op::deferred(R2));
    b.mtpr(Op::reg(R0), Ipr::TBIS);
    b.popr(Op::imm(0x07));
    b.addl2(Op::lit(8), Op::reg(SP)); // discard the fault parameters
    b.rei();

    // --- Arithmetic exception: kernel bug -> panic; user -> kill ---
    b.align(4);
    b.bind(h_arith);
    b.addl2(Op::lit(4), Op::reg(SP)); // pop the type code
    // PSL image is now at 4(SP); if the previous mode was kernel this
    // is a kernel bug.
    b.movl(Op::disp(4, SP), Op::reg(R1));
    b.ashl(Op::imm(static_cast<Longword>(-24)), Op::reg(R1),
           Op::reg(R1));
    b.bicl2(Op::imm(0xFFFFFFFC), Op::reg(R1));
    b.tstl(Op::reg(R1));
    beqlFar(h_panic);
    b.brw(exit_common);

    // --- Ignored interrupts (console, virtual disk completion) ---
    b.align(4);
    b.bind(h_ignore);
    b.rei();

    // --- Machine check (vector 0x04, interrupt stack, IPL 31) ---
    // The VMM reflects host-detected ECC events as virtual machine
    // checks with the frame {byte count = 8, code, address} under the
    // PC/PSL pair (fault/fault_plan.h).  MiniVMS logs and continues:
    // an ECC hit in a recoverable spot should not take the system
    // down.
    b.align(4);
    b.bind(h_mcheck);
    b.incl(cell(d_mchecks));
    b.addl2(Op::lit(12), Op::reg(SP)); // byte count + two parameters
    b.rei();

    // --- Panic ---
    b.align(4);
    b.bind(h_panic);
    b.mtpr(Op::imm('!'), Ipr::TXDB);
    b.halt();

    // --- Kernel data cells ---
    b.align(4);
    b.bind(d_isvirt);
    b.longword(0);
    b.bind(d_features);
    b.longword(0); // VMM KCALL feature mask (0 on a bare machine)
    b.bind(d_ring);
    for (int i = 0; i < 4; ++i)
        b.longword(0); // one kDiskBatch descriptor: block/count/pa/flags
    b.bind(d_conbuf);
    b.space(kConsoleChunk); // kConsoleWrite bounce buffer
    b.bind(d_probing);
    b.longword(0);
    b.bind(d_ticks);
    b.longword(0);
    b.bind(d_live);
    b.longword(static_cast<Longword>(nproc));
    b.bind(d_curproc);
    b.longword(0);
    b.bind(d_syscount);
    b.longword(0);
    b.bind(d_retries);
    b.longword(0); // disk ops re-issued after a failed KCALL
    b.bind(d_mchecks);
    b.longword(0); // virtual machine checks survived
    b.bind(d_result);
    b.longword(0);
    b.longword(0);
    b.longword(0);
    b.longword(0);
    b.longword(0);
    b.longword(0);
    const PhysAddr result_pa = b.labelAddress(d_result);
    b.bind(d_pcbs);
    for (const auto &p : procs)
        b.longword(p.pcb);
    b.bind(d_done);
    for (int i = 0; i < nproc; ++i)
        b.longword(0);
    b.bind(done_msg);
    b.ascii("MiniVMS done\r\n");
    b.bind(diskerr_msg);
    b.ascii("?DISK-E-FAIL.\r\n");

    auto kernel = b.finish();
    if (kernel.size() > kKernelTextPages * kPageSize)
        throw std::logic_error("MiniVMS kernel too large");
    const PhysAddr entry_pa = b.labelAddress(entry);

    // ----- Assemble the full image -------------------------------------
    MiniVmsImage out;
    out.image.assign(cursor * kPageSize, 0);
    out.entry = entry_pa;
    out.resultBase = result_pa;
    std::memcpy(out.image.data(), kernel.data(), kernel.size());

    // Workload programs.
    for (const auto &[w, pa] : program_pa) {
        auto prog = buildWorkload(w, cfg);
        std::memcpy(&out.image[pa], prog.data(), prog.size());
    }

    // System page table: identity map of all guest memory.  SREW so
    // the executive- and supervisor-mode service handlers can fetch
    // their own (kernel-resident) code; pre-modified (M=1) so kernel
    // structures never raise modify faults mid-exception.  User pages
    // get M=0 in their process PTEs instead.
    for (Longword i = 0; i < mem_pages; ++i) {
        pokeL(out.image, spt + 4 * i,
              Pte::make(true, Protection::SREW, true, i).raw());
    }
    if (cfg.diskCsrPfn != 0) {
        pokeL(out.image, spt + 4 * mem_pages,
              Pte::make(true, Protection::SREW, true, cfg.diskCsrPfn)
                  .raw());
    }

    // Boot P0 table: identity map of the kernel text pages.
    for (Longword i = 0; i < kKernelTextPages; ++i) {
        pokeL(out.image, boot_p0_table + 4 * i,
              Pte::make(true, Protection::KW, true, i).raw());
    }

    // Per-process page tables and PCBs.
    const VirtAddr kern_stack_top =
        kUserStackTop - kUserStackPages * kPageSize;
    const VirtAddr exec_stack_top =
        kern_stack_top - kKernStackPages * kPageSize;
    const VirtAddr super_stack_top =
        exec_stack_top - kExecStackPages * kPageSize;
    const Longword p1lr = kP1Vpns - kP1StackPages;
    const Longword p1_first_vpn = kP1Vpns - 256;

    for (int i = 0; i < nproc; ++i) {
        const ProcPlan &p = procs[i];

        // P0: user code (read-only to user), data (user write, M=0),
        // RMS area (executive write), CLI area (supervisor write).
        auto p0e = [&](Vpn vpn, Pte pte) {
            pokeL(out.image, p.p0Table + 4 * vpn, pte.raw());
        };
        const Pfn code_pfn = program_pa[proc_work[i]] >> kPageShift;
        for (Longword j = 0; j < kUserCodePages; ++j) {
            p0e((kUserCodeVa >> kPageShift) + j,
                Pte::make(true, Protection::UR, true, code_pfn + j));
        }
        for (Longword j = 0; j < cfg.dataPagesPerProcess; ++j) {
            p0e((kUserDataVa >> kPageShift) + j,
                Pte::make(true, Protection::UW, false,
                          (p.data >> kPageShift) + j));
        }
        for (Longword j = 0; j < kRmsPages; ++j) {
            p0e((kRmsVa >> kPageShift) + j,
                Pte::make(true, Protection::EW, false,
                          (p.rms >> kPageShift) + j));
        }
        for (Longword j = 0; j < kCliPages; ++j) {
            p0e((kCliVa >> kPageShift) + j,
                Pte::make(true, Protection::SW, false,
                          (p.cli >> kPageShift) + j));
        }

        // P1: the four stacks, pre-modified.  Physical pages ascend
        // supervisor, executive, kernel, user.
        auto p1e = [&](Vpn vpn, Pte pte) {
            pokeL(out.image, p.p1Table + 4 * (vpn - p1_first_vpn),
                  pte.raw());
        };
        Pfn stack_pfn = p.stacks >> kPageShift;
        struct StackRun
        {
            Longword pages;
            Protection prot;
        };
        const StackRun runs[] = {
            {kSuperStackPages, Protection::SW},
            {kExecStackPages, Protection::EW},
            {kKernStackPages, Protection::KW},
            {kUserStackPages, Protection::UW},
        };
        Vpn vpn = p1lr;
        for (const StackRun &run : runs) {
            for (Longword j = 0; j < run.pages; ++j) {
                p1e(vpn, Pte::make(true, run.prot, true, stack_pfn));
                ++vpn;
                ++stack_pfn;
            }
        }

        // PCB.
        Psl initial_psl;
        initial_psl.setCurrentMode(AccessMode::User);
        initial_psl.setPreviousMode(AccessMode::User);
        pokeL(out.image, p.pcb + 0, kern_stack_top);  // KSP
        pokeL(out.image, p.pcb + 4, exec_stack_top);  // ESP
        pokeL(out.image, p.pcb + 8, super_stack_top); // SSP
        pokeL(out.image, p.pcb + 12, kUserStackTop);  // USP
        for (int r = 0; r < 12; ++r)
            pokeL(out.image, p.pcb + 16 + 4 * r, 0);
        pokeL(out.image, p.pcb + 64, kUserStackTop);  // AP
        pokeL(out.image, p.pcb + 68, kUserStackTop);  // FP
        pokeL(out.image, p.pcb + 72, kUserCodeVa);    // PC
        pokeL(out.image, p.pcb + 76, initial_psl.raw());
        pokeL(out.image, p.pcb + 80, kS + p.p0Table); // P0BR
        pokeL(out.image, p.pcb + 84,
              p0_ptes | (4u << 24));                  // P0LR | ASTLVL
        pokeL(out.image, p.pcb + 88,
              (kS + p.p1Table) - 4 * p1_first_vpn);   // P1BR (biased)
        pokeL(out.image, p.pcb + 92, p1lr);           // P1LR
    }

    return out;
}

} // namespace vvax
