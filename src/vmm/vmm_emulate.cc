/**
 * @file
 * Sensitive-instruction emulation (paper Sections 4.2 and 4.4).
 *
 * Every sensitive instruction arrives here through the single
 * VM-emulation trap with its operands already decoded by microcode;
 * the VMM never parses the VM's instruction stream (Section 4.2).
 * Privileged-instruction faults taken by a VM running outside its
 * kernel mode are forwarded to the VM unchanged (Section 4.4.1).
 */

#include "vmm/hypervisor.h"
#include "vmm/kcall.h"

namespace vvax {

namespace {

constexpr Longword
sext16(Longword w)
{
    return static_cast<Longword>(static_cast<std::int32_t>(
        static_cast<std::int16_t>(w & 0xFFFF)));
}

constexpr Longword kP1SpaceVpns = 0x200000;

} // namespace

void
Hypervisor::hookVmEmulation(const HostFrame &frame)
{
    if (!frame.savedPsl.vm() || currentVm_ < 0 || !frame.vmFrame) {
        cpu_.externalHalt(HaltReason::ExternalRequest);
        return;
    }
    VirtualMachine &vm = *vms_[currentVm_];
    const VmTrapFrame &t = *frame.vmFrame;
    vm.stats.emulationTraps++;
    charge(CycleCategory::VmmEmulation, machine_.costModel().vmmDispatch);

    switch (static_cast<Opcode>(t.opcode)) {
      case Opcode::CHMK:
      case Opcode::CHME:
      case Opcode::CHMS:
      case Opcode::CHMU:
        emulateChm(vm, t);
        return;
      case Opcode::REI:
        emulateRei(vm, t);
        return;
      case Opcode::MTPR:
        emulateMtpr(vm, t);
        return;
      case Opcode::MFPR:
        emulateMfpr(vm, t);
        return;
      case Opcode::LDPCTX:
        emulateLdpctx(vm, t);
        return;
      case Opcode::SVPCTX:
        emulateSvpctx(vm, t);
        return;
      case Opcode::PROBER:
      case Opcode::PROBEW:
        emulateProbe(vm, t);
        return;
      case Opcode::WAIT:
        emulateWait(vm, t);
        return;
      case Opcode::HALT:
        // The VMOS halted in kernel mode: the virtual processor stops.
        haltVm(vm, VmHaltReason::HaltInstruction);
        return;
      case Opcode::PROBEVMR:
      case Opcode::PROBEVMW: {
        // Self-virtualization is not supported: the virtual VAX does
        // not implement PROBEVM (Section 4.3.3), so the VM sees a
        // reserved instruction fault.
        vm.stats.reflectedExceptions++;
        reflectToVm(vm,
                    static_cast<Word>(ScbVector::ReservedInstruction),
                    nullptr, 0, t.pc, t.vmPsl, false, 0);
        return;
      }
      default:
        vm.stats.reflectedExceptions++;
        reflectToVm(vm,
                    static_cast<Word>(ScbVector::ReservedInstruction),
                    nullptr, 0, t.pc, t.vmPsl, false, 0);
        return;
    }
}

void
Hypervisor::hookForwardFault(const HostFrame &frame)
{
    if (!frame.savedPsl.vm() || currentVm_ < 0) {
        cpu_.externalHalt(HaltReason::ExternalRequest);
        return;
    }
    VirtualMachine &vm = *vms_[currentVm_];
    charge(CycleCategory::VmmEmulation,
           machine_.costModel().vmmReflectException);
    if (frame.vector ==
        static_cast<Word>(ScbVector::ReservedInstruction)) {
        vm.stats.privilegedForwards++;
    } else {
        vm.stats.reflectedExceptions++;
    }

    Psl vm_psl(cpu_.vmpsl());
    vm_psl.setRaw(
        (vm_psl.raw() & ~(Psl::kPswMask | Psl::kVm)) |
        (frame.savedPsl.raw() & Psl::kPswMask));
    Longword params[2] = {frame.params[0], frame.params[1]};
    reflectToVm(vm, frame.vector, params, frame.nParams, frame.pc,
                vm_psl, false, 0);
}

void
Hypervisor::emulateChm(VirtualMachine &vm, const VmTrapFrame &t)
{
    const CostModel &cost = machine_.costModel();
    vm.stats.chmEmulations++;
    charge(CycleCategory::VmmEmulation, cost.vmmChmEmulate);

    if (t.vmPsl.interruptStack()) {
        haltVm(vm, VmHaltReason::KernelStackNotValid);
        return;
    }
    const auto target = static_cast<AccessMode>(
        t.opcode - static_cast<Word>(Opcode::CHMK));
    const Word vector = static_cast<Word>(
        static_cast<Word>(ScbVector::Chmk) + 4 * static_cast<Word>(target));
    const Longword code = sext16(t.operands[0].value);

    dispatchIntoVm(vm, vector,
                   morePrivileged(target, t.vmPsl.currentMode()),
                   /*use_scb_is_bit=*/false, &code, 1, t.nextPc, t.vmPsl,
                   /*new_ipl=*/-1);
}

void
Hypervisor::emulateRei(VirtualMachine &vm, const VmTrapFrame &t)
{
    const CostModel &cost = machine_.costModel();
    vm.stats.reiEmulations++;
    charge(CycleCategory::VmmEmulation, cost.vmmReiEmulate);

    const Longword sp = cpu_.reg(SP);
    Longword new_pc = 0, image_raw = 0;
    if (!vmReadVirt32(vm, sp, new_pc) ||
        !vmReadVirt32(vm, sp + 4, image_raw)) {
        if (!vm.halted())
            haltVm(vm, VmHaltReason::KernelStackNotValid);
        return;
    }
    const Psl image(image_raw);
    const Psl cur = t.vmPsl;

    auto reserved = [&] {
        vm.stats.reflectedExceptions++;
        reflectToVm(vm, static_cast<Word>(ScbVector::ReservedOperand),
                    nullptr, 0, t.pc, t.vmPsl, false, 0);
    };

    // The VM-level REI validity checks (the real microcode performs
    // the same tests; Section 4.2.3).  A VM image with the VM bit set
    // would mean self-virtualization: reserved.
    if (image.raw() & Psl::kMbzMask) {
        reserved();
        return;
    }
    if (static_cast<Byte>(image.currentMode()) <
            static_cast<Byte>(cur.currentMode()) ||
        static_cast<Byte>(image.previousMode()) <
            static_cast<Byte>(image.currentMode())) {
        reserved();
        return;
    }
    if (image.currentMode() != AccessMode::Kernel && image.ipl() != 0) {
        reserved();
        return;
    }
    if (image.ipl() > cur.ipl()) {
        reserved();
        return;
    }
    if (image.interruptStack() &&
        !(cur.interruptStack() &&
          image.currentMode() == AccessMode::Kernel)) {
        reserved();
        return;
    }

    // Commit: pop the frame, switch VM stacks, replace the VM PSL.
    syncStackPointersFromCpu(vm);
    vmActiveSp(vm) = sp + 8;

    Psl new_vmpsl;
    new_vmpsl.setCurrentMode(image.currentMode());
    new_vmpsl.setPreviousMode(image.previousMode());
    new_vmpsl.setIpl(image.ipl());
    new_vmpsl.setInterruptStack(image.interruptStack());
    cpu_.setVmpsl(new_vmpsl.raw());
    installStackPointers(vm);

    // AST delivery check against the VM's virtual ASTLVL.
    if (static_cast<Longword>(image.currentMode()) >= vm.vAstlvl)
        vm.vSisr |= 1u << 2;

    // A lowered IPL may make a pending virtual interrupt deliverable.
    continueVm(vm, new_pc,
               realPslForVm(vm, image.raw() & Psl::kPswMask));
}

void
Hypervisor::emulateMtpr(VirtualMachine &vm, const VmTrapFrame &t)
{
    const CostModel &cost = machine_.costModel();
    vm.stats.mtprEmulations++;

    const Longword value = t.operands[0].value;
    const auto which = static_cast<Ipr>(t.operands[1].value & 0xFF);
    const VirtAddr next = t.nextPc;
    const Psl vm_psl = t.vmPsl;
    auto resume = [&] {
        continueVm(vm, next, realPslForVm(vm, vm_psl.raw() & 0xFF));
    };
    auto reflectReserved = [&] {
        vm.stats.reflectedExceptions++;
        reflectToVm(vm, static_cast<Word>(ScbVector::ReservedOperand),
                    nullptr, 0, t.pc, t.vmPsl, false, 0);
    };

    switch (which) {
      case Ipr::IPL: {
        vm.stats.mtprIplEmulations++;
        charge(CycleCategory::VmmEmulation, cost.vmmMtprIplEmulate);
        Psl vmpsl(cpu_.vmpsl());
        vmpsl.setIpl(static_cast<Byte>(value & 0x1F));
        cpu_.setVmpsl(vmpsl.raw());
        resume();
        return;
      }
      case Ipr::SIRR:
        charge(CycleCategory::VmmEmulation, cost.vmmMtprMisc);
        if ((value & 0xF) != 0)
            vm.vSisr |= 1u << (value & 0xF);
        resume();
        return;
      case Ipr::SISR:
        charge(CycleCategory::VmmEmulation, cost.vmmMtprMisc);
        vm.vSisr = value & 0xFFFE;
        resume();
        return;
      case Ipr::KSP: case Ipr::ESP: case Ipr::SSP: case Ipr::USP:
      case Ipr::ISP: {
        charge(CycleCategory::VmmEmulation, cost.vmmMtprMisc);
        syncStackPointersFromCpu(vm);
        if (which == Ipr::ISP)
            vm.vIsp = value;
        else
            vm.vSp[static_cast<int>(which)] = value;
        installStackPointers(vm);
        resume();
        return;
      }
      case Ipr::SCBB:
        charge(CycleCategory::VmmEmulation, cost.vmmMtprMisc);
        vm.vScbb = value & ~kPageOffsetMask;
        resume();
        return;
      case Ipr::PCBB:
        charge(CycleCategory::VmmEmulation, cost.vmmMtprMisc);
        vm.vPcbb = value & ~3u;
        resume();
        return;
      case Ipr::SBR:
        charge(CycleCategory::VmmEmulation, cost.vmmMtprMisc);
        vm.vSbr = value & ~3u;
        // Narrowest correct invalidation: the wiped shadow SPT takes
        // the system-half context with it; process-half entries
        // mirror shadow slot tables this write did not touch, so
        // they survive (see the invalidation matrix in
        // docs/ARCHITECTURE.md).
        flushShadowS(vm);
        applyTlbContext(vm);
        resume();
        return;
      case Ipr::SLR:
        charge(CycleCategory::VmmEmulation, cost.vmmMtprMisc);
        if (value > config_.vmSMaxPages) {
            // Section 5: the VMM may impose a smaller limit on the
            // region sizes than the architectural one gigabyte.
            haltVm(vm, VmHaltReason::BadPageTable);
            return;
        }
        vm.vSlr = value;
        flushShadowS(vm);
        applyTlbContext(vm);
        resume();
        return;
      case Ipr::P0BR: case Ipr::P0LR: case Ipr::P1BR: case Ipr::P1LR: {
        charge(CycleCategory::VmmEmulation, cost.vmmMtprMisc);
        if (which == Ipr::P0BR)
            vm.vP0br = value;
        else if (which == Ipr::P0LR)
            vm.vP0lr = value & 0x3FFFFF;
        else if (which == Ipr::P1BR)
            vm.vP1br = value;
        else
            vm.vP1lr = value & 0x3FFFFF;
        if (vm.vP0lr > config_.p0MaxPtes ||
            (vm.vP1lr < kP1SpaceVpns &&
             kP1SpaceVpns - vm.vP1lr > config_.p1MaxPtes)) {
            haltVm(vm, VmHaltReason::BadPageTable);
            return;
        }
        if (vm.vMapen) {
            flushShadowSlot(vm, vm.activeSlot);
            setRealMapForVm(vm);
        }
        resume();
        return;
      }
      case Ipr::MAPEN: {
        charge(CycleCategory::VmmEmulation, cost.vmmMtprMisc);
        vm.vMapen = (value & 1) != 0;
        if (vm.vMapen)
            activateProcessSlot(vm, vm.vPcbb);
        setRealMapForVm(vm);
        resume();
        return;
      }
      case Ipr::TBIA:
        charge(CycleCategory::VmmEmulation, cost.vmmMtprMisc);
        // The shadow tables are (architecturally) a big translation
        // buffer: invalidate everything cached for this VM.  Every
        // flushed table takes its TLB context with it; re-applying
        // the (now fresh) contexts scopes the invalidation to this
        // VM without touching the real TLB's other contexts.  The
        // physical-mode identity slot is exempt: its mapping is a
        // constant, never stale.
        flushShadowS(vm);
        for (int s = 0; s < config_.shadowSlotsPerVm; ++s) {
            if (vm.slots[s].inUse)
                flushShadowSlot(vm, s);
        }
        applyTlbContext(vm);
        resume();
        return;
      case Ipr::TBIS: {
        charge(CycleCategory::VmmEmulation, cost.vmmMtprMisc);
        const VirtAddr va = value;
        if (regionOf(va) == Region::System) {
            if (vpnOf(va) < config_.vmSMaxPages) {
                mem_.write32(vm.shadowSptPa + 4 * vpnOf(va),
                             0x20000000);
            }
        } else if (regionOf(va) != Region::Reserved) {
            // Invalidate in every cached slot: a suspended process's
            // stale shadow PTE would otherwise survive (the paper
            // notes its implementation was not fully robust here).
            const int save = vm.activeSlot;
            for (int s = 0;
                 s < static_cast<int>(vm.slots.size()); ++s) {
                if (!vm.slots[s].inUse && s != vm.physModeSlot)
                    continue;
                vm.activeSlot = s;
                mem_.write32(shadowPtePa(vm, va), 0x20000000);
            }
            vm.activeSlot = save;
        }
        mmu_.tbis(va);
        resume();
        return;
      }
      case Ipr::ICCS: {
        charge(CycleCategory::VmmEmulation, cost.vmmMtprMisc);
        if (value & iccs::kInterrupt) {
            vm.vIccs &= ~iccs::kInterrupt;
            std::erase_if(vm.pendingInts, [](const VirtualInterrupt &vi) {
                return vi.vector ==
                       static_cast<Word>(ScbVector::IntervalTimer);
            });
        }
        if (value & iccs::kTransfer)
            vm.vIcr = static_cast<std::int32_t>(vm.vNicr);
        vm.vIccs = (vm.vIccs & iccs::kInterrupt) |
                   (value & (iccs::kRun | iccs::kInterruptEnable));
        resume();
        return;
      }
      case Ipr::NICR:
        charge(CycleCategory::VmmEmulation, cost.vmmMtprMisc);
        vm.vNicr = value;
        resume();
        return;
      case Ipr::TODR:
        charge(CycleCategory::VmmEmulation, cost.vmmMtprMisc);
        vm.vTodr = value;
        resume();
        return;
      case Ipr::ASTLVL:
        charge(CycleCategory::VmmEmulation, cost.vmmMtprMisc);
        vm.vAstlvl = value & 7;
        resume();
        return;
      case Ipr::RXCS: case Ipr::RXDB: case Ipr::TXCS: case Ipr::TXDB: {
        // A coalesced TXDB write only appends to the host-side buffer;
        // the device-register work is charged when the buffer flushes.
        const bool coalesced =
            which == Ipr::TXDB && config_.consoleCoalescing;
        charge(CycleCategory::VmmEmulation,
               coalesced ? cost.vmmConsoleCoalesce
                         : cost.vmmConsoleChar);
        Longword unused = 0;
        serviceVirtualConsole(vm, which, value, /*write=*/true, unused);
        resume();
        return;
      }
      case Ipr::KCALL:
        // The VMOS-to-VMM service request register (Section 5).
        kcall(vm, value);
        if (vm.halted()) {
            scheduleNext();
            return;
        }
        if (vm.waiting) {
            suspendCurrent(next, realPslForVm(vm, vm_psl.raw() & 0xFF));
            scheduleNext();
            return;
        }
        resume();
        return;
      case Ipr::IORESET:
        charge(CycleCategory::VmmIo, cost.vmmMtprMisc);
        vm.pendingInts.clear();
        vm.mmioCsr = 0;
        resume();
        return;
      default:
        // VMPSL and anything else unimplemented on the virtual VAX.
        reflectReserved();
        return;
    }
}

void
Hypervisor::emulateMfpr(VirtualMachine &vm, const VmTrapFrame &t)
{
    const CostModel &cost = machine_.costModel();
    vm.stats.mfprEmulations++;
    charge(CycleCategory::VmmEmulation, cost.vmmMtprMisc);

    const auto which = static_cast<Ipr>(t.operands[0].value & 0xFF);
    Longword value = 0;
    bool ok = true;

    switch (which) {
      case Ipr::IPL: value = Psl(cpu_.vmpsl()).ipl(); break;
      case Ipr::SISR: value = vm.vSisr; break;
      case Ipr::KSP: case Ipr::ESP: case Ipr::SSP: case Ipr::USP:
        syncStackPointersFromCpu(vm);
        value = vm.vSp[static_cast<int>(which)];
        break;
      case Ipr::ISP:
        syncStackPointersFromCpu(vm);
        value = vm.vIsp;
        break;
      case Ipr::SCBB: value = vm.vScbb; break;
      case Ipr::PCBB: value = vm.vPcbb; break;
      case Ipr::SBR: value = vm.vSbr; break;
      case Ipr::SLR: value = vm.vSlr; break;
      case Ipr::P0BR: value = vm.vP0br; break;
      case Ipr::P0LR: value = vm.vP0lr; break;
      case Ipr::P1BR: value = vm.vP1br; break;
      case Ipr::P1LR: value = vm.vP1lr; break;
      case Ipr::MAPEN: value = vm.vMapen ? 1 : 0; break;
      case Ipr::ASTLVL: value = vm.vAstlvl; break;
      case Ipr::ICCS: value = vm.vIccs; break;
      case Ipr::NICR: value = vm.vNicr; break;
      case Ipr::ICR: value = static_cast<Longword>(vm.vIcr); break;
      case Ipr::TODR: value = vm.vTodr; break;
      case Ipr::SID:
        // The virtual VAX identifies itself as a specific member of
        // the processor family (Section 8's portability conclusion).
        value = 0x56560000u | static_cast<Longword>(vm.id());
        break;
      case Ipr::MEMSIZE:
        // Section 5: physical memory appears contiguous from page 0;
        // the VMOS reads MEMSIZE to learn how much it has.
        value = vm.memPages * kPageSize;
        break;
      case Ipr::RXCS: case Ipr::RXDB: case Ipr::TXCS: case Ipr::TXDB: {
        serviceVirtualConsole(vm, which, 0, /*write=*/false, value);
        break;
      }
      default:
        ok = false;
        break;
    }

    if (!ok) {
        vm.stats.reflectedExceptions++;
        reflectToVm(vm, static_cast<Word>(ScbVector::ReservedOperand),
                    nullptr, 0, t.pc, t.vmPsl, false, 0);
        return;
    }

    // Deliver the result to the decoded destination operand.
    const DecodedOperand &dst = t.operands[1];
    if (dst.isRegister) {
        cpu_.setReg(dst.reg, value);
    } else if (!vmWriteVirt32(vm, dst.addr, value)) {
        if (!vm.halted())
            haltVm(vm, VmHaltReason::NonExistentMemory);
        return;
    }
    continueVm(vm, t.nextPc, realPslForVm(vm, t.vmPsl.raw() & 0xFF));
}

void
Hypervisor::emulateLdpctx(VirtualMachine &vm, const VmTrapFrame &t)
{
    const CostModel &cost = machine_.costModel();
    vm.stats.ldpctxEmulations++;
    vm.stats.contextSwitches++;
    charge(CycleCategory::VmmEmulation, cost.vmmLdpctxEmulate);

    const PhysAddr pcb = vm.vPcbb;
    if ((pcb >> kPageShift) >= vm.memPages ||
        ((pcb + 92) >> kPageShift) >= vm.memPages) {
        haltVm(vm, VmHaltReason::NonExistentMemory);
        return;
    }

    for (int m = 0; m < kNumAccessModes; ++m)
        vm.vSp[m] = vmReadPhys32(vm, pcb + 4 * m);
    for (int i = 0; i < 12; ++i)
        cpu_.setReg(i, vmReadPhys32(vm, pcb + 16 + 4 * i));
    cpu_.setReg(AP, vmReadPhys32(vm, pcb + 64));
    cpu_.setReg(FP, vmReadPhys32(vm, pcb + 68));

    vm.vP0br = vmReadPhys32(vm, pcb + 80);
    const Longword p0lr = vmReadPhys32(vm, pcb + 84);
    vm.vP0lr = p0lr & 0x3FFFFF;
    vm.vAstlvl = (p0lr >> 24) & 7;
    vm.vP1br = vmReadPhys32(vm, pcb + 88);
    vm.vP1lr = vmReadPhys32(vm, pcb + 92) & 0x3FFFFF;

    if (vm.vP0lr > config_.p0MaxPtes ||
        (vm.vP1lr < kP1SpaceVpns &&
         kP1SpaceVpns - vm.vP1lr > config_.p1MaxPtes) ||
        (vm.vP0lr != 0 && regionOf(vm.vP0br) != Region::System)) {
        haltVm(vm, VmHaltReason::BadPageTable);
        return;
    }

    // Select the shadow process tables for the incoming process:
    // with the Section 7.2 cache this preserves previously filled
    // shadow PTEs across context switches.
    activateProcessSlot(vm, vm.vPcbb);
    if (vm.vMapen)
        setRealMapForVm(vm);

    // Push the PCB's saved PC/PSL onto the VM's kernel stack, so the
    // VMOS's following REI resumes the process.
    const Longword pc = vmReadPhys32(vm, pcb + 72);
    const Longword psl = vmReadPhys32(vm, pcb + 76);
    Longword ksp = vm.vSp[static_cast<int>(AccessMode::Kernel)];
    installStackPointers(vm);
    if (!vmWriteVirt32(vm, ksp - 4, psl) ||
        !vmWriteVirt32(vm, ksp - 8, pc)) {
        if (!vm.halted())
            haltVm(vm, VmHaltReason::KernelStackNotValid);
        return;
    }
    vm.vSp[static_cast<int>(AccessMode::Kernel)] = ksp - 8;
    installStackPointers(vm);

    continueVm(vm, t.nextPc, realPslForVm(vm, t.vmPsl.raw() & 0xFF));
}

void
Hypervisor::emulateSvpctx(VirtualMachine &vm, const VmTrapFrame &t)
{
    const CostModel &cost = machine_.costModel();
    vm.stats.svpctxEmulations++;
    charge(CycleCategory::VmmEmulation, cost.vmmSvpctxEmulate);

    const PhysAddr pcb = vm.vPcbb;
    if ((pcb >> kPageShift) >= vm.memPages ||
        ((pcb + 92) >> kPageShift) >= vm.memPages) {
        haltVm(vm, VmHaltReason::NonExistentMemory);
        return;
    }

    // Pop PC/PSL from the VM's kernel stack into the PCB.
    syncStackPointersFromCpu(vm);
    Longword ksp = vm.vSp[static_cast<int>(AccessMode::Kernel)];
    if (Psl(cpu_.vmpsl()).interruptStack())
        ksp = vm.vIsp; // SVPCTX on the interrupt stack pops from it
    Longword pc = 0, psl = 0;
    if (!vmReadVirt32(vm, ksp, pc) || !vmReadVirt32(vm, ksp + 4, psl)) {
        if (!vm.halted())
            haltVm(vm, VmHaltReason::KernelStackNotValid);
        return;
    }
    if (Psl(cpu_.vmpsl()).interruptStack())
        vm.vIsp = ksp + 8;
    else
        vm.vSp[static_cast<int>(AccessMode::Kernel)] = ksp + 8;

    vmWritePhys32(vm, pcb + 72, pc);
    vmWritePhys32(vm, pcb + 76, psl);
    for (int m = 0; m < kNumAccessModes; ++m)
        vmWritePhys32(vm, pcb + 4 * m, vm.vSp[m]);
    for (int i = 0; i < 12; ++i)
        vmWritePhys32(vm, pcb + 16 + 4 * i, cpu_.reg(i));
    vmWritePhys32(vm, pcb + 64, cpu_.reg(AP));
    vmWritePhys32(vm, pcb + 68, cpu_.reg(FP));

    installStackPointers(vm);
    continueVm(vm, t.nextPc, realPslForVm(vm, t.vmPsl.raw() & 0xFF));
}

void
Hypervisor::emulateProbe(VirtualMachine &vm, const VmTrapFrame &t)
{
    const CostModel &cost = machine_.costModel();
    vm.stats.probeEmulations++;
    charge(CycleCategory::VmmEmulation, cost.vmmProbeEmulate);

    const AccessType type =
        static_cast<Opcode>(t.opcode) == Opcode::PROBEW
            ? AccessType::Write
            : AccessType::Read;
    const auto operand_mode =
        static_cast<AccessMode>(t.operands[0].value & 3);
    const Longword len = t.operands[1].value & 0xFFFF;
    const VirtAddr base = t.operands[2].addr;
    const VirtAddr last = base + (len == 0 ? 0 : len - 1);

    // The probe mode under the VM's own semantics, then compressed -
    // which is how ring compression makes a VM probe of a
    // kernel-protected page from executive mode succeed (4.3.2).
    const AccessMode eff = compressMode(
        lessPrivileged(operand_mode, t.vmPsl.previousMode()));

    bool accessible = true;
    for (const VirtAddr va : {base, last}) {
        if (!vm.vMapen) {
            if (regionOf(va) != Region::P0 || vpnOf(va) >= vm.memPages)
                accessible = false;
        } else {
            VmWalkResult walk = walkVmTables(vm, va, type, eff);
            switch (walk.status) {
              case VmWalkResult::Status::Ok:
                break;
              case VmWalkResult::Status::ReflectTnv:
                if (walk.faultParam & mmparam::kPteReference) {
                    // The VM's page table page is not resident: a
                    // real TNV for the VM, as native PROBE would take.
                    const Longword params[2] = {walk.faultParam, va};
                    vm.stats.reflectedExceptions++;
                    reflectToVm(
                        vm,
                        static_cast<Word>(
                            ScbVector::TranslationNotValid),
                        params, 2, t.pc, t.vmPsl, false, 0);
                    return;
                }
                // Page invalid but protection passed: PROBE ignores
                // validity.  Fill the shadow protection so a retry
                // completes in microcode? The PTE is invalid, so the
                // microcode fast path cannot be used; we emulate the
                // whole PROBE here instead.
                break;
              case VmWalkResult::Status::ReflectAcv:
                accessible = false;
                break;
              case VmWalkResult::Status::HaltVm:
                haltVm(vm, VmHaltReason::NonExistentMemory);
                return;
            }
        }
        if (base == last)
            break;
    }

    // Deliver the condition codes (Z=1 means not accessible) and skip
    // the instruction.
    Psl psw(t.vmPsl.raw() & 0xFF);
    psw.setNzvc(false, !accessible, false, false);
    continueVm(vm, t.nextPc, realPslForVm(vm, psw.raw() & 0xFF));
}

void
Hypervisor::emulateWait(VirtualMachine &vm, const VmTrapFrame &t)
{
    const CostModel &cost = machine_.costModel();
    vm.stats.waits++;
    charge(CycleCategory::VmmEmulation, cost.vmmWait);

    // Section 5: WAIT is the VMOS-to-VMM handshake that the VM is
    // idle; the VMM runs another VM.  It times out so every VM runs
    // periodically even without an explicit event.
    vm.waiting = true;
    vm.waitDeadline = tickCount_ + vm.config().waitTimeoutQuanta;
    suspendCurrent(t.nextPc, realPslForVm(vm, t.vmPsl.raw() & 0xFF));
    scheduleNext();
}

} // namespace vvax
