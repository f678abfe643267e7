/**
 * @file
 * Hypervisor construction, real-memory layout, the real SCB, VM
 * creation, and the scheduler (quantum preemption, WAIT, idle).
 */

#include "vmm/hypervisor.h"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "fault/fault_plan.h"
#include "vmm/kcall.h"

namespace vvax {

namespace {

constexpr Longword
pagesFor(Longword bytes)
{
    return (bytes + kPageSize - 1) / kPageSize;
}

} // namespace

// ---------------------------------------------------------------------------
// MMIO-mode virtual disk (the costly baseline of Section 4.4.3): the
// VM's driver touches these registers with ordinary instructions, and
// every touch costs a modelled trap into the VMM.
// ---------------------------------------------------------------------------

class Hypervisor::VmMmioDisk : public MmioHandler
{
  public:
    VmMmioDisk(Hypervisor &hv, VirtualMachine &vm) : hv_(hv), vm_(vm) {}

    Longword
    mmioRead(PhysAddr offset, int size) override
    {
        (void)size;
        account();
        switch (offset & ~3u) {
          case 0: return vm_.mmioCsr | DiskDevice::kCsrReady;
          case 4: return vm_.mmioBlock;
          case 8: return vm_.mmioCount;
          case 12: return vm_.mmioAddr;
          default: return 0;
        }
    }

    void
    mmioWrite(PhysAddr offset, Longword value, int size) override
    {
        (void)size;
        account();
        switch (offset & ~3u) {
          case 0: {
            vm_.mmioCsr = value & (DiskDevice::kCsrIe |
                                   DiskDevice::kCsrFuncWrite);
            if (value & DiskDevice::kCsrGo) {
                if (vm_.lastDiskOpFailed) {
                    vm_.stats.diskRetries++;
                    hv_.machine_.stats().diskRetries++;
                }
                const bool write =
                    (vm_.mmioCsr & DiskDevice::kCsrFuncWrite) != 0;
                const bool ok =
                    hv_.vmDiskTransfer(vm_, write, vm_.mmioBlock,
                                       vm_.mmioCount, vm_.mmioAddr);
                // A failed transfer must be observable: ERROR stays
                // up in the CSR until the next GO.
                if (!ok)
                    vm_.mmioCsr |= DiskDevice::kCsrError;
                vm_.lastDiskOpFailed = !ok;
                if (vm_.mmioCsr & DiskDevice::kCsrIe) {
                    vm_.postInterrupt(
                        kIplDisk,
                        static_cast<Word>(ScbVector::DeviceBase));
                }
            }
            break;
          }
          case 4: vm_.mmioBlock = value; break;
          case 8: vm_.mmioCount = value; break;
          case 12: vm_.mmioAddr = value; break;
          default: break;
        }
    }

  private:
    void
    account()
    {
        vm_.stats.mmioEmulations++;
        vm_.stats.mmioExits++;
        hv_.charge(CycleCategory::VmmIo,
                   hv_.machine_.costModel().vmmMmioReference);
    }

    Hypervisor &hv_;
    VirtualMachine &vm_;
};

// ---------------------------------------------------------------------------
// Construction and layout
// ---------------------------------------------------------------------------

Hypervisor::Hypervisor(RealMachine &machine, HypervisorConfig config)
    : machine_(machine), config_(config), cpu_(machine.cpu()),
      mmu_(machine.mmu()), mem_(machine.memory())
{
    if (cpu_.level() != MicrocodeLevel::Modified) {
        throw std::invalid_argument(
            "the VMM requires the modified (virtualizable) VAX "
            "microcode");
    }

    realScbPa_ = allocPages(1);
    buildRealScb();
    cpu_.setScbb(realScbPa_);

    // The idle page: a one-instruction loop (BRB .) the machine parks
    // on when no VM is runnable.
    idlePagePa_ = allocPages(1);
    mem_.write8(idlePagePa_, 0x11); // BRB
    mem_.write8(idlePagePa_ + 1, 0xFE); // -2

    // Start the real interval timer; it drives scheduling quanta and
    // the VMs' virtual clocks.
    cpu_.writeIprInternal(Ipr::NICR,
                          static_cast<Longword>(-static_cast<std::int32_t>(
                              config_.tickCycles)));
    cpu_.writeIprInternal(Ipr::ICCS, iccs::kTransfer | iccs::kRun |
                                         iccs::kInterruptEnable);

    // Park idle until a VM starts.
    Psl idle_psl;
    idle_psl.setCurrentMode(AccessMode::Kernel);
    idle_psl.setIpl(0);
    cpu_.setPc(idlePagePa_);
    cpu_.psl() = idle_psl;
    cpu_.enterIdleWait();
}

Hypervisor::~Hypervisor() = default;

PhysAddr
Hypervisor::allocPages(Longword pages)
{
    const Longword start = allocNextPage_;
    if ((start + pages) * kPageSize > mem_.ramSize())
        throw std::runtime_error("VMM: out of real memory");
    allocNextPage_ += pages;
    return start * kPageSize;
}

void
Hypervisor::buildRealScb()
{
    // Every vector dispatches to a VMM handler ("service in WCS").
    // Unexpected vectors get a handler that halts the machine - a
    // dispatch there means a VMM bug, never VM behaviour.
    for (Word v = 0; v < kScbSize; v += 4)
        mem_.write32(realScbPa_ + v, Cpu::hostHookScbEntry(v / 4));

    auto hook = [this](Word vector, Cpu::HostHook fn) {
        cpu_.setHostHook(vector / 4, std::move(fn));
    };

    for (Word v = 0; v < kScbSize; v += 4) {
        hook(v, [this](const HostFrame &) {
            cpu_.externalHalt(HaltReason::ExternalRequest);
        });
    }

    hook(static_cast<Word>(ScbVector::MachineCheck),
         [this](const HostFrame &f) { hookMachineCheck(f); });
    hook(static_cast<Word>(ScbVector::KernelStackNotValid),
         [this](const HostFrame &) {
             if (currentVm_ >= 0)
                 haltVm(*vms_[currentVm_],
                        VmHaltReason::KernelStackNotValid);
             else
                 cpu_.externalHalt(HaltReason::KernelStackNotValid);
         });

    // Faults forwarded to the VM's own operating system.
    for (ScbVector v : {ScbVector::ReservedInstruction,
                        ScbVector::CustomerReserved,
                        ScbVector::ReservedOperand,
                        ScbVector::ReservedAddressingMode,
                        ScbVector::TracePending, ScbVector::Breakpoint,
                        ScbVector::Arithmetic}) {
        hook(static_cast<Word>(v),
             [this](const HostFrame &f) { hookForwardFault(f); });
    }

    hook(static_cast<Word>(ScbVector::AccessViolation),
         [this](const HostFrame &f) {
             hookMemoryFault(f, ScbVector::AccessViolation);
         });
    hook(static_cast<Word>(ScbVector::TranslationNotValid),
         [this](const HostFrame &f) {
             hookMemoryFault(f, ScbVector::TranslationNotValid);
         });
    hook(static_cast<Word>(ScbVector::ModifyFault),
         [this](const HostFrame &f) { hookModifyFault(f); });
    hook(static_cast<Word>(ScbVector::VmEmulation),
         [this](const HostFrame &f) { hookVmEmulation(f); });
    hook(static_cast<Word>(ScbVector::IntervalTimer),
         [this](const HostFrame &f) { hookTimer(f); });
}

VirtualMachine &
Hypervisor::createVm(const VmConfig &config)
{
    const Longword mem_pages = pagesFor(config.memBytes);
    const Longword dev_pages = config.ioMode == VmIoMode::Mmio ? 1 : 0;
    if (mem_pages + dev_pages > config_.p0MaxPtes) {
        throw std::invalid_argument(
            "VM memory exceeds the VMM's P0 table limit");
    }

    const int id = static_cast<int>(vms_.size());
    auto vm = std::make_unique<VirtualMachine>(id, config);
    vm->memPages = mem_pages;
    vm->basePfn = allocPages(mem_pages) >> kPageShift;

    buildVmTables(*vm);

    if (config.ioMode == VmIoMode::Mmio) {
        auto handler = std::make_unique<VmMmioDisk>(*this, *vm);
        // One register page per VM, above RAM, page-aligned so a
        // shadow PTE can name its frame.
        const PhysAddr base = 0x3F000000 + static_cast<PhysAddr>(id) *
                                               kPageSize;
        mem_.addMmioWindow(base, kPageSize, handler.get());
        vm->mmioWindowPfn = base >> kPageShift;
        mmioDisks_.push_back(std::move(handler));
    }

    vms_.push_back(std::move(vm));
    return *vms_.back();
}

void
Hypervisor::buildVmTables(VirtualMachine &vm)
{
    const Longword slot_p0_pages = pagesFor(config_.p0MaxPtes * 4);
    const Longword slot_p1_pages = pagesFor(config_.p1MaxPtes * 4);
    const Longword slot_span = slot_p0_pages + slot_p1_pages;
    const int total_slots = config_.shadowSlotsPerVm + 1;

    const Longword spt_entries = config_.vmSMaxPages +
                                 total_slots * slot_span + 1;
    sptEntries_ = spt_entries;
    const Longword spt_pages = pagesFor(spt_entries * 4);
    vm.shadowSptPa = allocPages(spt_pages);
    vm.shadowSlr = spt_entries;

    // VM S-space shadow region: all null PTEs (fill on demand), and
    // a fresh system-half TLB context to translate under.
    fillNullPtes(vm.shadowSptPa, config_.vmSMaxPages);
    vm.tlbSysCtx = mmu_.newTlbContext();

    // VMM region: map each shadow slot's table pages (kernel-only).
    Longword vpn = config_.vmSMaxPages;
    vm.slots.resize(total_slots);
    for (int s = 0; s < total_slots; ++s) {
        ShadowSlot &slot = vm.slots[s];
        slot.p0TablePa = allocPages(slot_p0_pages);
        slot.p1TablePa = allocPages(slot_p1_pages);
        slot.p0TableVa = kSystemBase + vpn * kPageSize;
        for (Longword p = 0; p < slot_p0_pages; ++p, ++vpn) {
            const Pte pte = Pte::make(
                true, Protection::KW, true,
                (slot.p0TablePa >> kPageShift) + p);
            mem_.write32(vm.shadowSptPa + 4 * vpn, pte.raw());
        }
        slot.p1TableVa = kSystemBase + vpn * kPageSize;
        for (Longword p = 0; p < slot_p1_pages; ++p, ++vpn) {
            const Pte pte = Pte::make(
                true, Protection::KW, true,
                (slot.p1TablePa >> kPageShift) + p);
            mem_.write32(vm.shadowSptPa + 4 * vpn, pte.raw());
        }
        flushShadowSlot(vm, s);
    }
    vm.physModeSlot = total_slots - 1;
    vm.activeSlot = vm.physModeSlot;

    // The shared idle page, kernel-read-only, at the top of the map.
    idleVa_ = kSystemBase + vpn * kPageSize;
    const Pte idle_pte =
        Pte::make(true, Protection::KR, false,
                  idlePagePa_ >> kPageShift);
    mem_.write32(vm.shadowSptPa + 4 * vpn, idle_pte.raw());
}

void
Hypervisor::loadVmImage(VirtualMachine &vm, PhysAddr vm_pa,
                        std::span<const Byte> image)
{
    if (vm_pa + image.size() > vm.memPages * kPageSize)
        throw std::out_of_range("image beyond VM memory");
    mem_.writeBlock(vm.vmPhysToReal(vm_pa), image);
}

void
Hypervisor::loadVmDisk(VirtualMachine &vm, Longword block,
                       std::span<const Byte> data)
{
    const std::size_t offset = static_cast<std::size_t>(block) * 512;
    if (offset + data.size() > vm.disk.size())
        throw std::out_of_range("data beyond VM disk");
    std::memcpy(vm.disk.data() + offset, data.data(), data.size());
    vm.disk.markWritten(block, (data.size() + 511) / 512);
}

void
Hypervisor::startVm(VirtualMachine &vm, VirtAddr start_pc)
{
    vm.started = true;
    vm.haltReason = VmHaltReason::None;
    vm.vMapen = false;
    Psl vmpsl;
    vmpsl.setCurrentMode(AccessMode::Kernel);
    vmpsl.setPreviousMode(AccessMode::Kernel);
    vmpsl.setIpl(31); // boot state: interrupts masked
    vm.vmpsl = vmpsl.raw();
    vm.vSp[static_cast<int>(AccessMode::Kernel)] =
        vm.memPages * kPageSize; // provisional stack at top of memory
    vm.savedPc = start_pc;
    vm.savedRealPsl = realPslForVm(vm, 0).raw();
}

void
Hypervisor::injectConsoleInput(VirtualMachine &vm, std::string_view text)
{
    vm.console.injectInput(text);
    if (vm.consoleRxIe) {
        vm.postInterrupt(kIplConsole,
                         static_cast<Word>(ScbVector::ConsoleReceive));
        if (currentVm_ == vm.id())
            updatePendingIplHint(vm);
    }
}

void
Hypervisor::postConsoleInput(VirtualMachine &vm, std::string text,
                             Longword at_tick)
{
    {
        std::lock_guard<std::mutex> lock(mailboxMutex_);
        mailbox_.push_back(MailboxEntry{vm.id(), std::move(text), at_tick});
    }
    mailboxArmed_.store(true, std::memory_order_release);
}

void
Hypervisor::drainMailbox()
{
    std::lock_guard<std::mutex> lock(mailboxMutex_);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < mailbox_.size(); ++i) {
        MailboxEntry &e = mailbox_[i];
        if (e.atTick > tickCount_) {
            // Not due yet: delivery keys on the virtual tick so a
            // message posted against tick T lands at the same guest
            // instruction on every worker count.
            if (kept != i)
                mailbox_[kept] = std::move(e);
            kept++;
            continue;
        }
        VirtualMachine &vm = *vms_[e.vmIndex];
        if (!e.delayed) {
            // Mailbox-delay fault (FaultClass::MailboxDelay): a due
            // entry is held 1..kMaxMailboxDelayTicks extra virtual
            // ticks.  Ordinal is the per-VM delivery counter, bumped
            // exactly once per entry at its first due tick, so the
            // decision (and the reschedule) is a pure function of the
            // VM's own architectural history — identical on every
            // worker count.  Delivery still lands on a deterministic
            // virtual tick; an entry is delayed at most once.
            const std::uint64_t ordinal = vm.stats.mailboxDeliveries++;
            if (FaultPlan *plan = machine_.faultPlan()) {
                if (plan->shouldInject(FaultClass::MailboxDelay,
                                       vm.faultId(), ordinal)) {
                    machine_.stats().faultsInjected[static_cast<int>(
                        FaultClass::MailboxDelay)]++;
                    e.delayed = true;
                    e.atTick = tickCount_ +
                               static_cast<Longword>(plan->delayTicks(
                                   FaultClass::MailboxDelay, vm.faultId(),
                                   ordinal, kMaxMailboxDelayTicks));
                    if (kept != i)
                        mailbox_[kept] = std::move(e);
                    kept++;
                    continue;
                }
            }
        }
        injectConsoleInput(vm, e.text);
    }
    mailbox_.resize(kept);
    if (mailbox_.empty())
        mailboxArmed_.store(false, std::memory_order_release);
}

RunState
Hypervisor::run(std::uint64_t max_instructions)
{
    bool any = false;
    for (auto &vm : vms_)
        any = any || (vm->started && !vm->halted());
    if (!any)
        return cpu_.runState();
    // A previous run may have stopped the machine because every VM
    // had halted; if the operator console restarted one, recover.
    if (cpu_.runState() == RunState::Halted &&
        cpu_.haltReason() == HaltReason::ExternalRequest) {
        cpu_.clearHalt();
        idle_ = true;
    }
    if (idle_)
        scheduleNext();
    return machine_.run(max_instructions);
}

VmStats
Hypervisor::totalStats() const
{
    // The merge is generated from VVAX_VM_STATS_FIELDS (vm_state.h),
    // so a newly added counter is aggregated the day it is declared.
    VmStats total;
    for (const auto &vm : vms_)
        total += vm->stats;
    return total;
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

bool
Hypervisor::vmRunnable(const VirtualMachine &vm) const
{
    if (!vm.started || vm.halted())
        return false;
    if (!vm.waiting)
        return true;
    // WAIT wakes on a deliverable virtual interrupt or on timeout
    // (paper footnote: "WAIT times out after some seconds").
    if (vm.highestPendingIpl() > Psl(vm.vmpsl).ipl())
        return true;
    return tickCount_ >= vm.waitDeadline;
}

void
Hypervisor::scheduleNext()
{
    const int n = numVms();
    for (int i = 1; i <= n; ++i) {
        const int index = (currentVm_ + i + n) % n;
        VirtualMachine &vm = *vms_[index];
        if (vmRunnable(vm)) {
            vm.waiting = false;
            loadAndRun(vm);
            return;
        }
    }

    // Nothing runnable.  If every started VM has halted, stop the
    // machine; otherwise idle until the timer wakes something.
    bool all_halted = true;
    for (auto &vm : vms_) {
        if (vm->started && !vm->halted())
            all_halted = false;
    }
    if (all_halted && !vms_.empty()) {
        cpu_.externalHalt(HaltReason::ExternalRequest);
        return;
    }
    enterIdle();
}

void
Hypervisor::enterIdle()
{
    idle_ = true;
    currentVm_ = -1;
    Psl idle_psl;
    idle_psl.setCurrentMode(AccessMode::Kernel);
    idle_psl.setIpl(0);
    cpu_.resumeWith(mapActive_ ? idleVa_ : idlePagePa_, idle_psl);
    cpu_.enterIdleWait();
}

void
Hypervisor::loadAndRun(VirtualMachine &vm)
{
    currentVm_ = vm.id();
    idle_ = false;
    quantumStartTick_ = tickCount_;
    mapActive_ = true;

    setRealMapForVm(vm);

    for (int i = 0; i < 14; ++i)
        cpu_.setReg(i, vm.savedRegs[i]);
    cpu_.setVmpsl(vm.vmpsl);
    installStackPointers(vm);
    updatePendingIplHint(vm);

    if (vm.uptimeMailbox != 0) {
        // Section 5: the VMM maintains system up time and stores it
        // into the VMOS's memory.
        vmWritePhys32(vm, vm.uptimeMailbox,
                      static_cast<Longword>(tickCount_ *
                                            config_.tickCycles));
    }

    vm.stats.vmEntries++;
    continueVm(vm, vm.savedPc, Psl(vm.savedRealPsl));
}

void
Hypervisor::suspendAll()
{
    if (currentVm_ >= 0 && cpu_.runState() != RunState::Halted &&
        cpu_.psl().vm()) {
        suspendCurrent(cpu_.pc(), cpu_.psl());
        enterIdle();
    }
}

void
Hypervisor::suspendCurrent(VirtAddr pc, Psl real_psl)
{
    VirtualMachine &vm = *vms_[currentVm_];
    // A scheduling exit is a coalescing flush point: the VM's output
    // must be on the device before another VM (or the operator) can
    // observe the console.
    flushConsoleOutput(vm);
    syncStackPointersFromCpu(vm);
    vm.vmpsl = cpu_.vmpsl();
    for (int i = 0; i < 14; ++i)
        vm.savedRegs[i] = cpu_.reg(i);
    vm.savedPc = pc;
    Psl saved = real_psl;
    saved.setVm(true);
    vm.savedRealPsl = saved.raw();
    currentVm_ = -1;
}

void
Hypervisor::haltVm(VirtualMachine &vm, VmHaltReason reason)
{
    flushConsoleOutput(vm);
    vm.haltReason = reason;
    if (currentVm_ == vm.id()) {
        // Snapshot the final state for post-mortem inspection.
        vm.vmpsl = cpu_.vmpsl();
        for (int i = 0; i < 14; ++i)
            vm.savedRegs[i] = cpu_.reg(i);
        currentVm_ = -1;
    }
    scheduleNext();
}

void
Hypervisor::continueVm(VirtualMachine &vm, VirtAddr pc, Psl real_psl)
{
    if (vm.halted()) {
        scheduleNext();
        return;
    }
    if (deliverPendingInterrupt(vm, pc, real_psl))
        return;
    // Every VMM exit rebuilds VMPSL and REIs back into the VM.
    charge(CycleCategory::VmmEmulation, machine_.costModel().vmmResume);
    real_psl.setVm(true);
    updatePendingIplHint(vm);
    cpu_.resumeWith(pc, real_psl);
}

void
Hypervisor::hookTimer(const HostFrame &frame)
{
    tickCount_++;
    // Acknowledge the real clock.
    cpu_.writeIprInternal(Ipr::ICCS, iccs::kInterrupt | iccs::kRun |
                                         iccs::kInterruptEnable);

    // Cross-thread mailbox: one relaxed-ish atomic load per tick when
    // idle, a locked drain only when another thread posted something.
    if (mailboxArmed_.load(std::memory_order_acquire))
        drainMailbox();

    if (frame.savedPsl.vm() && currentVm_ >= 0) {
        VirtualMachine &vm = *vms_[currentVm_];
        // Virtual timer interrupts are delivered only while the VM is
        // actually running (paper Section 5).
        accrueVirtualClock(vm, config_.tickCycles);

        // Fault injection against the resident VM, keyed on the tick
        // ordinal (architectural: both execution paths tick at the
        // same cycle counts, so the lockstep envelope holds).
        FaultPlan *plan = machine_.faultPlan();
        if (plan != nullptr) {
            if (plan->shouldInject(FaultClass::SpuriousInterrupt,
                                   vm.faultId(), tickCount_)) {
                machine_.stats().faultsInjected[static_cast<int>(
                    FaultClass::SpuriousInterrupt)]++;
                charge(CycleCategory::VmmInterrupt,
                       machine_.costModel().vmmDeliverInterrupt);
                vm.postInterrupt(kcallabi::kDiskIpl,
                                 kcallabi::kDiskVector);
                updatePendingIplHint(vm);
            }
            if (plan->shouldInject(FaultClass::Ecc, vm.faultId(),
                                   tickCount_)) {
                // A physical-memory ECC event while the VM is
                // resident: reflect a machine check into the guest
                // through its SCB vector 0x04 (paper Section 6)
                // instead of taking the event in the host.
                machine_.stats().faultsInjected[static_cast<int>(
                    FaultClass::Ecc)]++;
                machine_.stats().machineChecksDelivered++;
                vm.stats.machineChecks++;
                charge(CycleCategory::VmmEmulation,
                       machine_.costModel().vmmMachineCheck);
                Psl vm_psl(cpu_.vmpsl());
                vm_psl.setRaw((vm_psl.raw() &
                               ~(Psl::kPswMask | Psl::kVm)) |
                              (frame.savedPsl.raw() & Psl::kPswMask));
                const Longword params[3] = {
                    kMcheckParamBytes, kMcheckCodeEcc,
                    plan->eccAddress(vm.faultId(), tickCount_,
                                     vm.memPages * kPageSize)};
                // Machine checks are unmaskable: deliver at IPL 31.
                // On a bad guest SCB/stack this halts the VM -
                // contained either way.
                reflectToVm(vm, static_cast<Word>(ScbVector::MachineCheck),
                            params, 3, frame.pc, vm_psl,
                            /*as_interrupt=*/true, 31);
                return;
            }
        }

        // No-forward-progress watchdog: a guest pinned at high IPL
        // with nothing deliverable cannot be making progress that
        // depends on the VMM; after the configured quanta it is
        // halted by policy.
        if (config_.watchdog) {
            const Psl vm_psl_now(cpu_.vmpsl());
            if (vm_psl_now.ipl() >= config_.watchdogIplThreshold &&
                vm.highestPendingIpl() <= vm_psl_now.ipl()) {
                vm.watchdogTicks++;
                if (vm.watchdogTicks >= config_.watchdogQuanta *
                                            config_.ticksPerQuantum) {
                    vm.stats.watchdogHalts++;
                    haltVm(vm, VmHaltReason::VmmPolicy);
                    return;
                }
            } else {
                vm.watchdogTicks = 0;
            }
        }

        if (tickCount_ - quantumStartTick_ >=
            config_.ticksPerQuantum) {
            suspendCurrent(frame.pc, frame.savedPsl);
            scheduleNext();
            return;
        }
        continueVm(vm, frame.pc, frame.savedPsl);
        return;
    }

    // Timer tick while idle: see whether anything woke up.
    scheduleNext();
}

} // namespace vvax
