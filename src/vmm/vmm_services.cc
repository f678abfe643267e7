/**
 * @file
 * VMM services: frame delivery into the VM (exception reflection,
 * virtual interrupts, CHM dispatch), the KCALL hypercall surface, the
 * virtual console and interval clock, and the VM stack pointer
 * bookkeeping that ring compression requires (the VM's kernel,
 * executive and interrupt stacks all live behind the real executive
 * stack pointer).
 */

#include "vmm/hypervisor.h"
#include "vmm/kcall.h"

namespace vvax {

// ---------------------------------------------------------------------------
// Stack pointer bookkeeping
// ---------------------------------------------------------------------------

Longword &
Hypervisor::vmActiveSp(VirtualMachine &vm)
{
    const Psl vmpsl(cpu_.vmpsl());
    if (vmpsl.interruptStack())
        return vm.vIsp;
    return vm.vSp[static_cast<int>(vmpsl.currentMode())];
}

void
Hypervisor::syncStackPointersFromCpu(VirtualMachine &vm)
{
    // Supervisor and user stacks live in their real banks; the VM's
    // kernel/executive/interrupt stack lives behind the real
    // executive bank (ring compression).  The executive bank is only
    // meaningful while the VM's current stack actually maps to it -
    // when the VM runs in supervisor or user mode the bank may hold a
    // stale parking value, so the VM-state copies stay authoritative.
    vm.vSp[static_cast<int>(AccessMode::Supervisor)] =
        cpu_.stackPointer(AccessMode::Supervisor);
    vm.vSp[static_cast<int>(AccessMode::User)] =
        cpu_.stackPointer(AccessMode::User);
    const Psl vmpsl(cpu_.vmpsl());
    if (vmpsl.interruptStack()) {
        vm.vIsp = cpu_.stackPointer(AccessMode::Executive);
    } else if (vmpsl.currentMode() == AccessMode::Kernel) {
        vm.vSp[static_cast<int>(AccessMode::Kernel)] =
            cpu_.stackPointer(AccessMode::Executive);
    } else if (vmpsl.currentMode() == AccessMode::Executive) {
        vm.vSp[static_cast<int>(AccessMode::Executive)] =
            cpu_.stackPointer(AccessMode::Executive);
    }
}

void
Hypervisor::installStackPointers(VirtualMachine &vm)
{
    const Psl vmpsl(cpu_.vmpsl());
    Longword active;
    if (vmpsl.interruptStack())
        active = vm.vIsp;
    else if (vmpsl.currentMode() == AccessMode::Kernel)
        active = vm.vSp[static_cast<int>(AccessMode::Kernel)];
    else
        active =
            vm.vSp[static_cast<int>(vmpsl.currentMode())];
    // When the VM runs in supervisor/user mode the executive bank
    // parks the VM's executive stack.
    if (vmpsl.currentMode() == AccessMode::Supervisor ||
        vmpsl.currentMode() == AccessMode::User) {
        active = vm.vSp[static_cast<int>(AccessMode::Executive)];
    }
    cpu_.setStackPointer(AccessMode::Executive, active);
    cpu_.setStackPointer(
        AccessMode::Supervisor,
        vm.vSp[static_cast<int>(AccessMode::Supervisor)]);
    cpu_.setStackPointer(AccessMode::User,
                         vm.vSp[static_cast<int>(AccessMode::User)]);
}

Psl
Hypervisor::realPslForVm(const VirtualMachine &vm,
                         Longword psw_bits) const
{
    const Psl vmpsl(currentVm_ == vm.id() ? cpu_.vmpsl() : vm.vmpsl);
    Psl real(psw_bits & Psl::kPswMask);
    real.setCurrentMode(compressMode(vmpsl.currentMode()));
    real.setPreviousMode(compressMode(vmpsl.previousMode()));
    real.setIpl(0); // the real IPL stays 0: the VMM sees every event
    real.setVm(true);
    return real;
}

void
Hypervisor::updatePendingIplHint(VirtualMachine &vm)
{
    cpu_.setVmPendingIplHint(vm.highestPendingIpl());
}

// ---------------------------------------------------------------------------
// Frame delivery into the VM
// ---------------------------------------------------------------------------

bool
Hypervisor::dispatchIntoVm(VirtualMachine &vm, Word vector,
                           AccessMode target_mode, bool use_scb_is_bit,
                           const Longword *params, int n_params,
                           VirtAddr pc, Psl vm_psl, int new_ipl)
{
    // Read the VM's SCB entry.
    const PhysAddr entry_pa = vm.vScbb + vector;
    if ((entry_pa >> kPageShift) >= vm.memPages) {
        haltVm(vm, VmHaltReason::BadPageTable);
        return false;
    }
    const Longword entry = vmReadPhys32(vm, entry_pa);
    const bool use_is =
        vm_psl.interruptStack() ||
        (use_scb_is_bit && (entry & 3) == 1);

    syncStackPointersFromCpu(vm);
    Longword sp = use_is
                      ? vm.vIsp
                      : vm.vSp[static_cast<int>(target_mode)];
    if (vm_psl.interruptStack())
        sp = vm.vIsp;

    // Push PSL, PC, then the parameters (innermost last), exactly as
    // real microcode builds the frame.
    bool ok = true;
    sp -= 4;
    ok = ok && vmWriteVirt32(vm, sp, vm_psl.raw());
    sp -= 4;
    ok = ok && vmWriteVirt32(vm, sp, pc);
    for (int i = n_params - 1; i >= 0; --i) {
        sp -= 4;
        ok = ok && vmWriteVirt32(vm, sp, params[i]);
    }
    if (!ok) {
        if (!vm.halted())
            haltVm(vm, VmHaltReason::KernelStackNotValid);
        return false;
    }
    if (use_is)
        vm.vIsp = sp;
    else
        vm.vSp[static_cast<int>(target_mode)] = sp;

    // New VM PSL: target mode, previous = interrupted mode, PSW
    // cleared, IPL raised for interrupts.
    Psl new_vmpsl;
    new_vmpsl.setCurrentMode(target_mode);
    new_vmpsl.setPreviousMode(vm_psl.currentMode());
    new_vmpsl.setInterruptStack(use_is);
    new_vmpsl.setIpl(new_ipl >= 0 ? static_cast<Byte>(new_ipl)
                                  : vm_psl.ipl());
    cpu_.setVmpsl(new_vmpsl.raw());
    installStackPointers(vm);
    updatePendingIplHint(vm);

    charge(CycleCategory::VmmEmulation, machine_.costModel().vmmResume);
    cpu_.resumeWith(entry & ~3u, realPslForVm(vm, 0));
    return true;
}

bool
Hypervisor::reflectToVm(VirtualMachine &vm, Word vector,
                        const Longword *params, int n_params,
                        VirtAddr pc, Psl vm_psl, bool as_interrupt,
                        Byte new_ipl)
{
    charge(CycleCategory::VmmEmulation,
           machine_.costModel().vmmReflectException);
    return dispatchIntoVm(vm, vector, AccessMode::Kernel,
                          /*use_scb_is_bit=*/true, params, n_params, pc,
                          vm_psl, as_interrupt ? new_ipl : -1);
}

bool
Hypervisor::deliverPendingInterrupt(VirtualMachine &vm, VirtAddr pc,
                                    Psl real_psl)
{
    const Psl vmpsl(cpu_.vmpsl());
    const Byte best = vm.highestPendingIpl();
    if (best == 0 || best <= vmpsl.ipl())
        return false;

    Word vector = 0;
    bool found = false;
    for (auto it = vm.pendingInts.begin(); it != vm.pendingInts.end();
         ++it) {
        if (it->ipl == best) {
            vector = it->vector;
            vm.pendingInts.erase(it);
            found = true;
            break;
        }
    }
    if (!found) {
        // Software interrupt level.
        vm.vSisr &= ~(1u << best);
        vector = softwareInterruptVector(best);
    }

    vm.stats.virtualInterrupts++;
    charge(CycleCategory::VmmInterrupt,
           machine_.costModel().vmmDeliverInterrupt);

    // The VM's view of its PSL at the interrupt point.
    Psl vm_psl(vmpsl.raw() & ~(Psl::kPswMask | Psl::kVm));
    vm_psl.setRaw(vm_psl.raw() | (real_psl.raw() & Psl::kPswMask));
    return dispatchIntoVm(vm, vector, AccessMode::Kernel,
                          /*use_scb_is_bit=*/true, nullptr, 0, pc,
                          vm_psl, best);
}

// ---------------------------------------------------------------------------
// KCALL hypercalls
// ---------------------------------------------------------------------------

void
Hypervisor::kcall(VirtualMachine &vm, Longword function)
{
    const CostModel &cost = machine_.costModel();
    vm.stats.kcalls++;

    switch (function) {
      case kcallabi::kDiskRead:
      case kcallabi::kDiskWrite: {
        vm.stats.kcallIos++;
        vm.watchdogTicks = 0; // a hypercall is forward progress
        if (vm.lastDiskOpFailed) {
            vm.stats.diskRetries++;
            machine_.stats().diskRetries++;
        }
        charge(CycleCategory::VmmIo, cost.vmmKcallIo);
        const bool ok = vmDiskTransfer(
            vm, function == kcallabi::kDiskWrite, cpu_.reg(R1),
            cpu_.reg(R2), cpu_.reg(R3));
        vm.lastDiskOpFailed = !ok;
        cpu_.setReg(R0, ok ? kcallabi::kOk : kcallabi::kError);
        vm.postInterrupt(kcallabi::kDiskIpl, kcallabi::kDiskVector);
        updatePendingIplHint(vm);
        return;
      }
      case kcallabi::kDiskBatch: {
        if (!config_.diskBatchKcall) {
            cpu_.setReg(R0, kcallabi::kError);
            return;
        }
        const Longword n = cpu_.reg(R2);
        const Longword n_charge =
            n > kcallabi::kMaxBatchDescriptors
                ? kcallabi::kMaxBatchDescriptors
                : n;
        vm.stats.kcallIos++;
        vm.stats.diskKcallBatches++;
        vm.watchdogTicks = 0;
        if (vm.lastDiskOpFailed) {
            vm.stats.diskRetries++;
            machine_.stats().diskRetries++;
        }
        charge(CycleCategory::VmmIo,
               cost.vmmKcallIo + cost.vmmKcallDescriptor * n_charge);
        const bool ok = vmDiskTransferBatch(vm, cpu_.reg(R1), n);
        vm.lastDiskOpFailed = !ok;
        cpu_.setReg(R0, ok ? kcallabi::kOk : kcallabi::kError);
        vm.postInterrupt(kcallabi::kDiskIpl, kcallabi::kDiskVector);
        updatePendingIplHint(vm);
        return;
      }
      case kcallabi::kQueryFeatures: {
        charge(CycleCategory::VmmEmulation, cost.vmmMtprMisc);
        Longword features = 0;
        if (config_.diskBatchKcall)
            features |= kcallabi::kFeatureDiskBatch;
        cpu_.setReg(R0, features);
        return;
      }
      case kcallabi::kConsoleWrite: {
        const Longword addr = cpu_.reg(R1);
        const Longword len = cpu_.reg(R2);
        charge(CycleCategory::VmmIo, cost.vmmKcallIo +
                                         cost.vmmConsoleChar * len / 8);
        // 64-bit arithmetic: addr + len must not wrap past the bounds
        // check (a hostile guest controls both operands).
        if (static_cast<std::uint64_t>(addr) + len >
            static_cast<std::uint64_t>(vm.memPages) * kPageSize) {
            cpu_.setReg(R0, kcallabi::kError);
            return;
        }
        // Keep byte order: anything the guest already wrote through
        // TXDB must hit the device before this buffer does.
        flushConsoleOutput(vm);
        for (Longword i = 0; i < len; ++i) {
            vm.console.writeIpr(
                Ipr::TXDB, mem_.read8(vm.vmPhysToReal(addr + i)));
        }
        vm.stats.consoleChars += len;
        cpu_.setReg(R0, kcallabi::kOk);
        return;
      }
      case kcallabi::kSetUptimeMailbox: {
        charge(CycleCategory::VmmIo, cost.vmmMtprMisc);
        const Longword addr = cpu_.reg(R1);
        if (static_cast<std::uint64_t>(addr) + 4 >
            static_cast<std::uint64_t>(vm.memPages) * kPageSize) {
            cpu_.setReg(R0, kcallabi::kError);
            return;
        }
        vm.uptimeMailbox = addr;
        vmWritePhys32(vm, addr,
                      static_cast<Longword>(tickCount_ *
                                            config_.tickCycles));
        cpu_.setReg(R0, kcallabi::kOk);
        return;
      }
      case kcallabi::kYield:
        charge(CycleCategory::VmmEmulation, cost.vmmWait);
        vm.stats.waits++;
        vm.waiting = true;
        vm.waitDeadline = tickCount_ + vm.config().waitTimeoutQuanta;
        cpu_.setReg(R0, kcallabi::kOk);
        return;
      default:
        cpu_.setReg(R0, kcallabi::kError);
        return;
    }
}

// ---------------------------------------------------------------------------
// Virtual console and clock
// ---------------------------------------------------------------------------

void
Hypervisor::serviceVirtualConsole(VirtualMachine &vm, Ipr which,
                                  Longword value, bool write,
                                  Longword &read_value)
{
    // Every console access other than the TXDB write itself is a
    // guest-visible synchronization point (CSR reads, interrupt-enable
    // changes, input draining): coalesced output must reach the device
    // first so the guest observes a consistent console.
    if (!(which == Ipr::TXDB && write))
        flushConsoleOutput(vm);
    switch (which) {
      case Ipr::TXDB:
        if (write) {
            if (config_.consoleCoalescing) {
                vm.pendingConsoleOut.push_back(
                    static_cast<char>(value & 0xFF));
                vm.stats.coalescedConsoleChars++;
            } else {
                vm.console.writeIpr(Ipr::TXDB, value);
            }
            vm.stats.consoleChars++;
        } else {
            read_value = 0;
        }
        break;
      case Ipr::TXCS:
        if (write) {
            vm.consoleTxIe =
                (value & consolecsr::kInterruptEnable) != 0;
            if (vm.consoleTxIe) {
                // The virtual transmitter is always ready.
                vm.postInterrupt(
                    kIplConsole,
                    static_cast<Word>(ScbVector::ConsoleTransmit));
            } else {
                std::erase_if(vm.pendingInts,
                              [](const VirtualInterrupt &vi) {
                                  return vi.vector ==
                                         static_cast<Word>(
                                             ScbVector::ConsoleTransmit);
                              });
            }
        } else {
            read_value =
                consolecsr::kReady |
                (vm.consoleTxIe ? consolecsr::kInterruptEnable : 0);
        }
        break;
      case Ipr::RXDB:
        if (!write) {
            read_value = vm.console.readIpr(Ipr::RXDB);
            if (!vm.console.inputPending()) {
                std::erase_if(vm.pendingInts,
                              [](const VirtualInterrupt &vi) {
                                  return vi.vector ==
                                         static_cast<Word>(
                                             ScbVector::ConsoleReceive);
                              });
            } else if (vm.consoleRxIe) {
                // Receive interrupts are level-triggered: delivery
                // consumed the pending entry, so a read that leaves
                // input queued must re-assert it or an ISR that takes
                // one character per interrupt strands the rest.
                vm.postInterrupt(
                    kIplConsole,
                    static_cast<Word>(ScbVector::ConsoleReceive));
            }
        }
        break;
      case Ipr::RXCS:
        if (write) {
            vm.consoleRxIe =
                (value & consolecsr::kInterruptEnable) != 0;
            if (vm.consoleRxIe && vm.console.inputPending()) {
                vm.postInterrupt(
                    kIplConsole,
                    static_cast<Word>(ScbVector::ConsoleReceive));
            }
        } else {
            read_value =
                (vm.console.inputPending() ? consolecsr::kReady : 0) |
                (vm.consoleRxIe ? consolecsr::kInterruptEnable : 0);
        }
        break;
      default:
        break;
    }
    if (currentVm_ == vm.id())
        updatePendingIplHint(vm);
}

void
Hypervisor::flushConsoleOutput(VirtualMachine &vm)
{
    if (vm.pendingConsoleOut.empty())
        return;
    const CostModel &cost = machine_.costModel();
    const Cycles n = static_cast<Cycles>(vm.pendingConsoleOut.size());
    // One flush entry plus a quarter of the per-register cost per
    // buffered character: the VMM walks a host buffer instead of
    // taking one emulation exit per TXDB write.
    charge(CycleCategory::VmmIo,
           cost.vmmConsoleFlush + cost.vmmConsoleChar * n / 4);
    for (const char c : vm.pendingConsoleOut)
        vm.console.writeIpr(Ipr::TXDB, static_cast<Byte>(c));
    vm.pendingConsoleOut.clear();
}

void
Hypervisor::accrueVirtualClock(VirtualMachine &vm, Cycles cycles)
{
    vm.vTodr += static_cast<Longword>(cycles);
    if (!(vm.vIccs & iccs::kRun))
        return;
    vm.vIcr += static_cast<std::int64_t>(cycles);
    if (vm.vIcr >= 0) {
        vm.vIccs |= iccs::kInterrupt;
        if (vm.vIccs & iccs::kInterruptEnable) {
            vm.postInterrupt(
                kIplTimer, static_cast<Word>(ScbVector::IntervalTimer));
            if (currentVm_ == vm.id())
                updatePendingIplHint(vm);
        }
        const std::int64_t reload = static_cast<std::int32_t>(vm.vNicr);
        vm.vIcr = reload < 0 ? reload : INT64_MIN / 2;
    }
}

} // namespace vvax
