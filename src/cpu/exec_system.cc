/**
 * @file
 * System instructions: CHM, REI, MOVPSL, PROBE, PROBEVM, MTPR/MFPR,
 * LDPCTX/SVPCTX, HALT, WAIT, procedure calls, register push/pop and
 * the character move.
 *
 * This is where the paper's microcode modifications live:
 *
 *  - CHM and REI take the VM-emulation trap when PSL<VM>=1 (4.2.2/3).
 *  - MOVPSL merges VMPSL into the real PSL in microcode (4.2.1).
 *  - PROBE uses the shadow PTE's (compressed) protection directly when
 *    it is valid and traps to the VMM when it is not (4.3.2).
 *  - The privileged instructions take the VM-emulation trap only when
 *    the VM is in its kernel mode; otherwise they take the ordinary
 *    privileged-instruction trap (4.4.1).
 *  - On models with the VAX-11/730's microcode assist, MTPR-to-IPL in
 *    a VM is handled in microcode unless the change could make a
 *    pending virtual interrupt deliverable (7.3).
 */

#include <algorithm>
#include <cstring>

#include "cpu/alu.h"
#include "cpu/cpu.h"

namespace vvax {

namespace {

/** PCB field offsets (VAX Architecture Reference Manual layout). */
constexpr Longword kPcbKsp = 0;
constexpr Longword kPcbEsp = 4;
constexpr Longword kPcbSsp = 8;
constexpr Longword kPcbUsp = 12;
constexpr Longword kPcbR0 = 16; // R0..R11 at +16..+60
constexpr Longword kPcbAp = 64;
constexpr Longword kPcbFp = 68;
constexpr Longword kPcbPc = 72;
constexpr Longword kPcbPsl = 76;
constexpr Longword kPcbP0br = 80;
constexpr Longword kPcbP0lr = 84; // ASTLVL in <26:24>
constexpr Longword kPcbP1br = 88;
constexpr Longword kPcbP1lr = 92;

constexpr Longword
sextWord(Longword w)
{
    return static_cast<Longword>(static_cast<std::int32_t>(
        static_cast<std::int16_t>(w & 0xFFFF)));
}

} // namespace

Psl
Cpu::compositeVmPsl() const
{
    // The VM's PSL: condition codes, trap enables, TP/FPD/CM come from
    // the real PSL where ordinary instructions maintain them; current
    // mode, previous mode and IPL come from VMPSL.  PSL<VM> and the
    // interrupt-stack bit are never visible to the VM.
    const Longword real_part =
        psl_.raw() & (Psl::kPswMask | Psl::kTp | Psl::kFpd | Psl::kCm);
    const Longword vm_part =
        vmpsl_ & (Psl::kCurModMask | Psl::kPrvModMask | Psl::kIplMask |
                  Psl::kIs);
    return Psl(real_part | vm_part);
}

void
Cpu::privilegedCheck(Decoded &d)
{
    const auto op = static_cast<Opcode>(d.opcode);

    // The extended opcodes only exist on the modified VAX.
    const bool is_extension = op == Opcode::WAIT ||
                              op == Opcode::PROBEVMR ||
                              op == Opcode::PROBEVMW;
    if (is_extension && level_ == MicrocodeLevel::Standard)
        throw GuestFault::simple(ScbVector::ReservedInstruction);

    if (inVmMode()) {
        if (vmCurrentMode() == AccessMode::Kernel) {
            // Section 7.3: the 730's microcode maintained the VM's
            // IPL itself and only trapped when the new level could
            // make a pending virtual interrupt deliverable.
            if (op == Opcode::MTPR && cost_.vmIplMicrocodeAssist &&
                operandRead(d, 1) == static_cast<Longword>(Ipr::IPL)) {
                const Byte new_ipl =
                    static_cast<Byte>(operandRead(d, 0) & 0x1F);
                if (new_ipl >= vm_pending_ipl_hint_ ||
                    vm_pending_ipl_hint_ == 0) {
                    Psl vm_psl(vmpsl_);
                    vm_psl.setIpl(new_ipl);
                    vmpsl_ = vm_psl.raw();
                    d.suppressBase = true;
                    d.extraCharge = cost_.mtprIplAssisted;
                    commitRegs(d);
                    regs_[PC] = d.nextPc;
                    return;
                }
            }
            // Section 4.4.1: all sensitive instructions funnel
            // through the single VM-emulation path, operands decoded.
            VmTrapFrame frame;
            frame.opcode = d.opcode;
            frame.pc = regs_[PC];
            frame.nextPc = d.nextPc;
            frame.vmPsl = compositeVmPsl();
            frame.nOperands = d.info->nOperands;
            frame.operands = d.operands;
            raiseVmEmulationTrap(frame);
            return;
        }
        // VM but not VM-kernel: the ordinary privileged-instruction
        // trap (which the VMM forwards to the VM).
        throw GuestFault::simple(ScbVector::ReservedInstruction);
    }

    if (psl_.currentMode() != AccessMode::Kernel)
        throw GuestFault::simple(ScbVector::ReservedInstruction);

    // WAIT has no bare-machine implementation even in kernel mode
    // (paper Table 4: only the virtual VAX gives it meaning).
    if (op == Opcode::WAIT)
        throw GuestFault::simple(ScbVector::ReservedInstruction);

    switch (op) {
      case Opcode::HALT:
        externalHalt(HaltReason::HaltInstruction);
        regs_[PC] = d.nextPc;
        return;
      case Opcode::LDPCTX:
        execLdpctx();
        regs_[PC] = d.nextPc;
        return;
      case Opcode::SVPCTX:
        execSvpctx();
        regs_[PC] = d.nextPc;
        return;
      case Opcode::MTPR:
        execMtpr(d);
        return;
      case Opcode::MFPR:
        execMfpr(d);
        return;
      case Opcode::PROBEVMR:
        execProbeVm(d, AccessType::Read);
        return;
      case Opcode::PROBEVMW:
        execProbeVm(d, AccessType::Write);
        return;
      default:
        throw GuestFault::simple(ScbVector::ReservedInstruction);
    }
}

void
Cpu::execChm(Decoded &d, AccessMode target)
{
    if (inVmMode()) {
        // Section 4.2.2: CHM always takes the VM-emulation trap in VM
        // mode; the VMM performs the VM's stack switch and SCB lookup.
        VmTrapFrame frame;
        frame.opcode = d.opcode;
        frame.pc = regs_[PC];
        frame.nextPc = d.nextPc;
        frame.vmPsl = compositeVmPsl();
        frame.nOperands = 1;
        frame.operands[0] = d.operands[0];
        raiseVmEmulationTrap(frame);
        return;
    }
    if (psl_.interruptStack()) {
        externalHalt(HaltReason::KernelStackNotValid);
        return;
    }

    // New mode: the more privileged of current and target.
    const AccessMode new_mode = morePrivileged(target, psl_.currentMode());
    const Longword code = sextWord(operandRead(d, 0));
    const Word vector = static_cast<Word>(
        static_cast<Word>(ScbVector::Chmk) +
        4 * static_cast<Word>(target));

    // Commit operand side effects, then dispatch with PC = next
    // instruction (CHM is a trap).
    commitRegs(d);
    regs_[PC] = d.nextPc;
    chargeCycles(CycleCategory::ExceptionDispatch, cost_.exceptionDispatch);
    dispatchThroughScb(vector, new_mode, -1, &code, 1, d.nextPc,
                       /*use_interrupt_stack_bit=*/false, nullptr);
}

void
Cpu::execRei()
{
    if (inVmMode()) {
        VmTrapFrame frame;
        frame.opcode = static_cast<Word>(Opcode::REI);
        frame.pc = regs_[PC];
        // REI re-executes under VMM control; nextPc is PC + 1.
        frame.nextPc = regs_[PC] + 1;
        frame.vmPsl = compositeVmPsl();
        frame.nOperands = 0;
        raiseVmEmulationTrap(frame);
        return;
    }

    const AccessMode cur = psl_.currentMode();
    const VirtAddr new_pc = mmu_.readV32(regs_[SP], cur);
    const Psl image(mmu_.readV32(regs_[SP] + 4, cur));

    // Microcode sanity checks (the paper kept these even though the
    // VM path is emulated in software, Section 4.2.3).
    const bool vm_bit_ok = level_ == MicrocodeLevel::Modified &&
                           image.vm() && cur == AccessMode::Kernel &&
                           !psl_.vm() &&
                           image.currentMode() != AccessMode::Kernel;
    if (image.raw() & (Psl::kMbzMask & ~Psl::kVm))
        throw GuestFault::simple(ScbVector::ReservedOperand);
    if (image.vm() && !vm_bit_ok)
        throw GuestFault::simple(ScbVector::ReservedOperand);
    if (static_cast<Byte>(image.currentMode()) <
        static_cast<Byte>(cur)) {
        throw GuestFault::simple(ScbVector::ReservedOperand);
    }
    if (static_cast<Byte>(image.previousMode()) <
        static_cast<Byte>(image.currentMode())) {
        throw GuestFault::simple(ScbVector::ReservedOperand);
    }
    if (image.currentMode() != AccessMode::Kernel && image.ipl() != 0)
        throw GuestFault::simple(ScbVector::ReservedOperand);
    if (image.ipl() > psl_.ipl())
        throw GuestFault::simple(ScbVector::ReservedOperand);
    if (image.interruptStack() &&
        !(psl_.interruptStack() &&
          image.currentMode() == AccessMode::Kernel)) {
        throw GuestFault::simple(ScbVector::ReservedOperand);
    }

    // Commit: pop the frame, bank the SP, install the new context.
    Longword sp_after = regs_[SP] + 8;
    if (psl_.interruptStack())
        isp_ = sp_after;
    else
        sp_banks_[static_cast<int>(cur)] = sp_after;

    psl_ = image;
    if (psl_.interruptStack())
        regs_[SP] = isp_;
    else
        regs_[SP] = sp_banks_[static_cast<int>(psl_.currentMode())];
    regs_[PC] = new_pc;

    // AST delivery check: REI into a mode at or below ASTLVL requests
    // the IPL 2 AST-delivery software interrupt (ASTLVL 4 disables).
    if (static_cast<Longword>(image.currentMode()) >= astlvl_) {
        sisr_ |= 1u << 2;
        recomputeSoftPending();
    }
}

void
Cpu::execMovpsl(Decoded &d)
{
    Longword value;
    if (inVmMode()) {
        // Section 4.2.1: MOVPSL never traps; microcode merges the
        // real PSL with VMPSL so the VM sees its own modes.
        value = compositeVmPsl().raw();
        d.extraCharge = cost_.movpslMerge;
    } else {
        value = psl_.raw() & ~Psl::kVm;
    }
    operandWrite(d, 0, value);
    commitRegs(d);
    regs_[PC] = d.nextPc;
}

void
Cpu::execProbe(Decoded &d, AccessType type)
{
    // Effective probe mode: the less privileged of the mode operand
    // and PSL<PRV>.  When a VM is running, the real PSL's previous
    // mode is already the ring-compressed VM previous mode, so the
    // compressed-protection check (Section 4.3.2) needs no special
    // mode mapping here.
    const auto operand_mode =
        static_cast<AccessMode>(operandRead(d, 0) & 3);
    const AccessMode eff =
        lessPrivileged(operand_mode, psl_.previousMode());
    const Longword len = operandRead(d, 1) & 0xFFFF;
    const VirtAddr base = d.operands[2].addr;
    const VirtAddr last = base + (len == 0 ? 0 : len - 1);

    bool accessible = true;
    for (const VirtAddr va : {base, last}) {
        const Mmu::ProbeResult r = mmu_.probe(va, type, eff);
        switch (r.status) {
          case MmStatus::Ok:
          case MmStatus::ModifyClear:
            break;
          case MmStatus::TranslationNotValid:
            // Standard VAX: protection already passed, validity is
            // irrelevant to PROBE.  Modified VAX in VM mode: the
            // shadow PTE's protection is not meaningful while
            // invalid, so trap to the VMM (Section 4.3.2).
            if (inVmMode()) {
                stats_.addCycles(CycleCategory::ExceptionDispatch,
                                 cost_.probeShadowValid);
                VmTrapFrame frame;
                frame.opcode = d.opcode;
                frame.pc = regs_[PC];
                frame.nextPc = d.nextPc;
                frame.vmPsl = compositeVmPsl();
                frame.nOperands = 3;
                frame.operands = d.operands;
                raiseVmEmulationTrap(frame);
                return;
            }
            break;
          case MmStatus::AccessViolation:
          case MmStatus::LengthViolation:
          case MmStatus::PteFetchLength:
            accessible = false;
            break;
          case MmStatus::PteFetchNotValid:
            // The PTE itself is not resident: a real TNV fault, with
            // the PTE-reference bit set.
            throw GuestFault::memoryManagement(
                ScbVector::TranslationNotValid,
                mmparam::kPteReference |
                    (type == AccessType::Write ? mmparam::kWriteIntent
                                               : 0),
                va);
          case MmStatus::PteNonExistent:
            throw GuestFault::withParam(ScbVector::MachineCheck, va);
        }
        if (base == last)
            break;
    }

    if (inVmMode())
        d.extraCharge = cost_.probeShadowValid;
    commitRegs(d);
    regs_[PC] = d.nextPc;
    // Condition codes: Z=1 when not accessible (documented
    // convention; see arch/opcodes.h).  N=V=C=0.
    psl_.setNzvc(false, !accessible, false, false);
}

void
Cpu::execProbeVm(Decoded &d, AccessType type)
{
    // Privileged; only reached natively (VMM context).  Table 2: the
    // probe mode is clamped to executive (never kernel), one byte is
    // tested, and protection, validity and modify are reported in
    // that order.
    const auto operand_mode =
        static_cast<AccessMode>(operandRead(d, 0) & 3);
    const AccessMode eff =
        lessPrivileged(operand_mode, AccessMode::Executive);
    const VirtAddr va = d.operands[1].addr;

    const Mmu::ProbeResult r = mmu_.probe(va, type, eff);
    bool prot_fail = false, invalid = false, modify_clear = false;
    switch (r.status) {
      case MmStatus::Ok:
        break;
      case MmStatus::ModifyClear:
        modify_clear = true;
        break;
      case MmStatus::TranslationNotValid:
        invalid = true;
        break;
      case MmStatus::AccessViolation:
      case MmStatus::LengthViolation:
      case MmStatus::PteFetchLength:
        prot_fail = true;
        break;
      case MmStatus::PteFetchNotValid:
        invalid = true;
        break;
      case MmStatus::PteNonExistent:
        throw GuestFault::withParam(ScbVector::MachineCheck, va);
    }
    // For read probes of a valid page, the modify bit is still
    // reported (the VMM uses it when pre-validating buffers).
    if (!prot_fail && !invalid && !modify_clear && !r.pte.modify() &&
        r.pte.valid()) {
        modify_clear = true;
    }

    commitRegs(d);
    regs_[PC] = d.nextPc;
    psl_.setNzvc(false, prot_fail, !prot_fail && invalid,
                 !prot_fail && !invalid && modify_clear);
}

void
Cpu::execMtpr(Decoded &d)
{
    const Longword value = operandRead(d, 0);
    const auto which = static_cast<Ipr>(operandRead(d, 1) & 0xFF);

    if (which == Ipr::IPL) {
        d.suppressBase = true;
        d.extraCharge = cost_.mtprIplBare;
    }
    if (!writeIprInternal(which, value))
        throw GuestFault::simple(ScbVector::ReservedOperand);
    commitRegs(d);
    regs_[PC] = d.nextPc;
}

void
Cpu::execMfpr(Decoded &d)
{
    const auto which = static_cast<Ipr>(operandRead(d, 0) & 0xFF);
    Longword value = 0;
    if (!readIprInternal(which, value))
        throw GuestFault::simple(ScbVector::ReservedOperand);
    operandWrite(d, 1, value);
    commitRegs(d);
    regs_[PC] = d.nextPc;
}

void
Cpu::execLdpctx()
{
    PhysicalMemory &mem = mmu_.memory();
    const PhysAddr pcb = pcbb_;
    if (!mem.exists(pcb) || !mem.exists(pcb + kPcbP1lr + 3))
        throw GuestFault::withParam(ScbVector::MachineCheck, pcb);

    setStackPointer(AccessMode::Kernel, mem.read32(pcb + kPcbKsp));
    setStackPointer(AccessMode::Executive, mem.read32(pcb + kPcbEsp));
    setStackPointer(AccessMode::Supervisor, mem.read32(pcb + kPcbSsp));
    setStackPointer(AccessMode::User, mem.read32(pcb + kPcbUsp));
    for (int i = 0; i < 12; ++i)
        regs_[i] = mem.read32(pcb + kPcbR0 + 4 * i);
    regs_[AP] = mem.read32(pcb + kPcbAp);
    regs_[FP] = mem.read32(pcb + kPcbFp);

    mmu_.regs().p0br = mem.read32(pcb + kPcbP0br);
    const Longword p0lr = mem.read32(pcb + kPcbP0lr);
    mmu_.regs().p0lr = p0lr & 0x3FFFFF;
    astlvl_ = (p0lr >> 24) & 7;
    mmu_.regs().p1br = mem.read32(pcb + kPcbP1br);
    mmu_.regs().p1lr = mem.read32(pcb + kPcbP1lr) & 0x3FFFFF;

    // A context switch invalidates the process-space translations.
    mmu_.tbiaProcess();

    // Push the saved PC/PSL onto the kernel stack so the following
    // REI resumes the process.
    Longword ksp = stackPointer(AccessMode::Kernel);
    const Longword pc = mem.read32(pcb + kPcbPc);
    const Longword psl = mem.read32(pcb + kPcbPsl);
    ksp -= 4;
    mmu_.writeV32(ksp, psl, AccessMode::Kernel);
    ksp -= 4;
    mmu_.writeV32(ksp, pc, AccessMode::Kernel);
    setStackPointer(AccessMode::Kernel, ksp);
}

void
Cpu::execSvpctx()
{
    PhysicalMemory &mem = mmu_.memory();
    const PhysAddr pcb = pcbb_;
    if (!mem.exists(pcb) || !mem.exists(pcb + kPcbP1lr + 3))
        throw GuestFault::withParam(ScbVector::MachineCheck, pcb);

    // Pop PC/PSL from the kernel stack into the PCB.
    Longword ksp = stackPointer(AccessMode::Kernel);
    const Longword pc = mmu_.readV32(ksp, AccessMode::Kernel);
    const Longword psl = mmu_.readV32(ksp + 4, AccessMode::Kernel);
    ksp += 8;
    setStackPointer(AccessMode::Kernel, ksp);

    mem.write32(pcb + kPcbPc, pc);
    mem.write32(pcb + kPcbPsl, psl);
    mem.write32(pcb + kPcbKsp, stackPointer(AccessMode::Kernel));
    mem.write32(pcb + kPcbEsp, stackPointer(AccessMode::Executive));
    mem.write32(pcb + kPcbSsp, stackPointer(AccessMode::Supervisor));
    mem.write32(pcb + kPcbUsp, stackPointer(AccessMode::User));
    for (int i = 0; i < 12; ++i)
        mem.write32(pcb + kPcbR0 + 4 * i, regs_[i]);
    mem.write32(pcb + kPcbAp, regs_[AP]);
    mem.write32(pcb + kPcbFp, regs_[FP]);
}

void
Cpu::execCalls(Decoded &d)
{
    const Longword numarg = operandRead(d, 0);
    Longword sp = d.regsAfter[SP];
    const AccessMode mode = psl_.currentMode();

    sp -= 4;
    mmu_.writeV32(sp, numarg & 0xFF, mode);
    const Longword arglist = sp;

    const VirtAddr entry = d.operands[1].addr;
    const Word mask = mmu_.readV16(entry, mode);
    if (mask & 0x3000)
        throw GuestFault::simple(ScbVector::ReservedOperand);

    for (int i = 11; i >= 0; --i) {
        if (mask & (1u << i)) {
            sp -= 4;
            mmu_.writeV32(sp, d.regsAfter[i], mode);
        }
    }
    sp -= 4;
    mmu_.writeV32(sp, d.nextPc, mode);
    sp -= 4;
    mmu_.writeV32(sp, d.regsAfter[FP], mode);
    sp -= 4;
    mmu_.writeV32(sp, d.regsAfter[AP], mode);
    const Longword status = (1u << 29) | // S flag: CALLS frame
                            (static_cast<Longword>(mask & 0xFFF) << 16) |
                            (psl_.raw() & 0xE0);
    sp -= 4;
    mmu_.writeV32(sp, status, mode);
    sp -= 4;
    mmu_.writeV32(sp, 0, mode); // condition handler

    d.regsAfter[SP] = sp;
    d.regsAfter[FP] = sp;
    d.regsAfter[AP] = arglist;
    d.nextPc = entry + 2;
    commitRegs(d);
    regs_[PC] = d.nextPc;

    // New PSW: CCs cleared; IV/DV from the entry mask.
    psl_.setNzvc(false, false, false, false);
    psl_.setFlag(Psl::kIv, (mask & 0x4000) != 0);
    psl_.setFlag(Psl::kDv, (mask & 0x8000) != 0);
}

void
Cpu::execCallg(Decoded &d)
{
    Longword sp = d.regsAfter[SP];
    const AccessMode mode = psl_.currentMode();
    const VirtAddr arglist = d.operands[0].addr;
    const VirtAddr entry = d.operands[1].addr;
    const Word mask = mmu_.readV16(entry, mode);
    if (mask & 0x3000)
        throw GuestFault::simple(ScbVector::ReservedOperand);

    for (int i = 11; i >= 0; --i) {
        if (mask & (1u << i)) {
            sp -= 4;
            mmu_.writeV32(sp, d.regsAfter[i], mode);
        }
    }
    sp -= 4;
    mmu_.writeV32(sp, d.nextPc, mode);
    sp -= 4;
    mmu_.writeV32(sp, d.regsAfter[FP], mode);
    sp -= 4;
    mmu_.writeV32(sp, d.regsAfter[AP], mode);
    const Longword status = (static_cast<Longword>(mask & 0xFFF) << 16) |
                            (psl_.raw() & 0xE0);
    sp -= 4;
    mmu_.writeV32(sp, status, mode);
    sp -= 4;
    mmu_.writeV32(sp, 0, mode);

    d.regsAfter[SP] = sp;
    d.regsAfter[FP] = sp;
    d.regsAfter[AP] = arglist;
    d.nextPc = entry + 2;
    commitRegs(d);
    regs_[PC] = d.nextPc;

    psl_.setNzvc(false, false, false, false);
    psl_.setFlag(Psl::kIv, (mask & 0x4000) != 0);
    psl_.setFlag(Psl::kDv, (mask & 0x8000) != 0);
}

void
Cpu::execRet()
{
    const AccessMode mode = psl_.currentMode();
    const Longword fp = regs_[FP];
    const Longword status = mmu_.readV32(fp + 4, mode);
    const Longword ap = mmu_.readV32(fp + 8, mode);
    const Longword saved_fp = mmu_.readV32(fp + 12, mode);
    const Longword saved_pc = mmu_.readV32(fp + 16, mode);
    const Longword mask = (status >> 16) & 0xFFF;
    const bool s_flag = (status & (1u << 29)) != 0;

    Longword cursor = fp + 20;
    std::array<Longword, 12> saved{};
    for (int i = 0; i < 12; ++i) {
        if (mask & (1u << i)) {
            saved[i] = mmu_.readV32(cursor, mode);
            cursor += 4;
        }
    }

    // Commit.
    for (int i = 0; i < 12; ++i) {
        if (mask & (1u << i))
            regs_[i] = saved[i];
    }
    regs_[AP] = ap;
    regs_[FP] = saved_fp;
    Longword sp = cursor;
    if (s_flag) {
        const Longword numarg = mmu_.readV32(sp, mode) & 0xFF;
        sp += 4 + 4 * numarg;
    }
    regs_[SP] = sp;
    regs_[PC] = saved_pc;
    // Restore PSW<7:5> from the frame; CCs come back cleared except
    // as restored.
    psl_.setRaw((psl_.raw() & ~Psl::kPswMask) | (status & 0xE0));
}

void
Cpu::execPushr(Decoded &d)
{
    const Longword mask = operandRead(d, 0) & 0x7FFF;
    for (int i = 14; i >= 0; --i) {
        if (mask & (1u << i))
            pushLong(d, d.regsAfter[i]);
    }
    commitRegs(d);
    regs_[PC] = d.nextPc;
}

void
Cpu::execPopr(Decoded &d)
{
    const Longword mask = operandRead(d, 0) & 0x7FFF;
    for (int i = 0; i <= 14; ++i) {
        if (mask & (1u << i))
            d.regsAfter[i] = popLong(d);
    }
    commitRegs(d);
    regs_[PC] = d.nextPc;
}

void
Cpu::execMovc3(Decoded &d)
{
    const Longword len = operandRead(d, 0) & 0xFFFF;
    const VirtAddr src = d.operands[1].addr;
    const VirtAddr dst = d.operands[2].addr;
    const AccessMode mode = psl_.currentMode();

    // Simple non-interruptible copy; restart after a fault re-copies
    // from the beginning (acceptable for non-overlapping moves, which
    // is what the guest code uses).  Bytes move low to high when
    // dst <= src and high to low otherwise, so overlapping moves
    // behave like memmove.
    const bool forward = dst <= src;
    Longword left = len;
    while (left != 0) {
        // The next byte to move, and the run up to the first page
        // boundary on either side in the direction of the copy.
        const Longword i = forward ? len - left : left - 1;
        const VirtAddr s = src + i;
        const VirtAddr t = dst + i;
        const auto room = [forward](VirtAddr va) -> Longword {
            const Longword off = va & kPageOffsetMask;
            return forward ? kPageSize - off : off + 1;
        };
        const Longword n = std::min({left, room(s), room(t)});
        std::uint32_t *dst_gen = nullptr;
        const VirtAddr s0 = forward ? s : s - (n - 1);
        const VirtAddr t0 = forward ? t : t - (n - 1);
        const Byte *sp = mmu_.fastSpan(s0, AccessType::Read, mode);
        Byte *tp = sp != nullptr ? mmu_.fastSpan(t0, AccessType::Write,
                                                 mode, &dst_gen)
                                 : nullptr;
        if (tp == nullptr) {
            // Either side would miss the fast path: one byte through
            // the full accessors (TLB fill, MMIO, faults), then retry.
            mmu_.writeV8(t, mmu_.readV8(s, mode), mode);
            --left;
            continue;
        }
        // Both pages resolve without a walk: the span costs exactly
        // what n fast-path byte reads and writes would.  Generations
        // are only ever compared for equality, so one bump stands for
        // n.  memmove matches the byte order unless the two host spans
        // overlap (two pages aliasing one frame) in the opposite order
        // to the virtual addresses.
        const bool overlap = tp < sp + n && sp < tp + n;
        if (!overlap || (forward ? tp <= sp : tp >= sp)) {
            std::memmove(tp, sp, n);
        } else if (forward) {
            for (Longword k = 0; k < n; ++k)
                tp[k] = sp[k];
        } else {
            for (Longword k = n; k > 0; --k)
                tp[k - 1] = sp[k - 1];
        }
        if (mmu_.regs().mapen)
            stats_.tlbHits += 2 * static_cast<std::uint64_t>(n);
        mmu_.memory().bumpGen(dst_gen);
        left -= n;
    }

    d.regsAfter[R0] = 0;
    d.regsAfter[R1] = src + len;
    d.regsAfter[R2] = 0;
    d.regsAfter[R3] = dst + len;
    d.regsAfter[R4] = 0;
    d.regsAfter[R5] = 0;
    d.extraCharge = len / 2;
    commitRegs(d);
    regs_[PC] = d.nextPc;
    psl_.setNzvc(false, true, false, false);
}

void
Cpu::execWait()
{
    // Only reached via the VMM (the instruction itself always traps);
    // kept for the VMM-side emulation tests.
    run_state_ = RunState::Waiting;
    stats_.waitInstructions++;
}

void
Cpu::execBbx(Decoded &d, bool branch_on_set, int write_new)
{
    const Longword pos = operandRead(d, 0);
    const DecodedOperand &base = d.operands[1];
    bool bit;
    if (base.isRegister) {
        if (pos > 31)
            throw GuestFault::simple(ScbVector::ReservedOperand);
        bit = (d.regsAfter[base.reg] >> pos) & 1;
        if (write_new == 1)
            d.regsAfter[base.reg] |= 1u << pos;
        else if (write_new == 0)
            d.regsAfter[base.reg] &= ~(1u << pos);
    } else {
        const VirtAddr va =
            base.addr + static_cast<std::int32_t>(pos) / 8;
        const Byte b = mmu_.readV8(va, psl_.currentMode());
        bit = (b >> (pos & 7)) & 1;
        if (write_new >= 0) {
            const Byte mask = static_cast<Byte>(1u << (pos & 7));
            const Byte updated =
                write_new ? static_cast<Byte>(b | mask)
                          : static_cast<Byte>(b & ~mask);
            mmu_.writeV8(va, updated, psl_.currentMode());
        }
    }
    if (bit == branch_on_set)
        d.nextPc = d.operands[2].value;
    commitRegs(d);
    regs_[PC] = d.nextPc;
}

void
Cpu::execCase(Decoded &d, OpSize size)
{
    // CASEx: the word displacement table follows the operands; the
    // fall-through point is just past the table.
    const Longword limit = d.operands[2].value & sizeMask(size);
    const CaseResult r =
        caseL(d.operands[0].value, d.operands[1].value, limit, size);
    const VirtAddr table = d.nextPc;
    if (r.inTable()) {
        const Word disp =
            mmu_.readV16(table + 2 * r.index, psl_.currentMode());
        d.nextPc = table + static_cast<Longword>(
                               static_cast<std::int32_t>(
                                   static_cast<std::int16_t>(disp)));
    } else {
        d.nextPc = table + 2 * (limit + 1);
    }
    commitRegs(d);
    regs_[PC] = d.nextPc;
    setCc(psl_, r.cc);
}

void
Cpu::execInsque(Decoded &d)
{
    // Insert @p entry after @p pred in a doubly linked queue of
    // (flink, blink) longword pairs.
    const AccessMode mode = psl_.currentMode();
    const VirtAddr entry = d.operands[0].addr;
    const VirtAddr pred = d.operands[1].addr;
    const Longword succ = mmu_.readV32(pred, mode);
    // Validate every store before performing any of them.
    mmu_.translate(entry, AccessType::Write, mode);
    mmu_.translate(entry + 4, AccessType::Write, mode);
    mmu_.translate(succ + 4, AccessType::Write, mode);
    mmu_.translate(pred, AccessType::Write, mode);

    mmu_.writeV32(entry, succ, mode);      // entry.flink
    mmu_.writeV32(entry + 4, pred, mode);  // entry.blink
    mmu_.writeV32(succ + 4, entry, mode);  // succ.blink
    mmu_.writeV32(pred, entry, mode);      // pred.flink
    commitRegs(d);
    regs_[PC] = d.nextPc;
    // Z: the queue was empty before the insertion.
    psl_.setNzvc(false, succ == pred, false, false);
}

void
Cpu::execRemque(Decoded &d)
{
    const AccessMode mode = psl_.currentMode();
    const VirtAddr entry = d.operands[0].addr;
    const Longword flink = mmu_.readV32(entry, mode);
    const Longword blink = mmu_.readV32(entry + 4, mode);

    // V: nothing to remove (the entry is its own successor).
    if (flink == entry) {
        operandWrite(d, 1, entry);
        commitRegs(d);
        regs_[PC] = d.nextPc;
        psl_.setNzvc(false, true, true, false);
        return;
    }
    mmu_.translate(blink, AccessType::Write, mode);
    mmu_.translate(flink + 4, AccessType::Write, mode);
    mmu_.writeV32(blink, flink, mode);     // blink.flink
    mmu_.writeV32(flink + 4, blink, mode); // flink.blink
    operandWrite(d, 1, entry);
    commitRegs(d);
    regs_[PC] = d.nextPc;
    // Z: the queue is empty after the removal.
    psl_.setNzvc(false, flink == blink, false, false);
}

} // namespace vvax
