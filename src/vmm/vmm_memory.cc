/**
 * @file
 * Shadow page table maintenance (paper Section 4.3): the software
 * walk of the VM's page tables, null-PTE on-demand fill with the
 * optional prefill group, protection compression, the modify fault,
 * the multi-process shadow table cache (Section 7.2), and the memory
 * fault hooks.
 */

#include "vmm/hypervisor.h"
#include "vmm/kcall.h"

#include <cstring>

#include "fault/fault_plan.h"

namespace vvax {

namespace {
constexpr Longword kNullPteRaw = 0x20000000;
constexpr Longword kP1SpaceVpns = 0x200000; // VPNs in a 1 GB region
} // namespace

// ---------------------------------------------------------------------------
// VM page table walk (software)
// ---------------------------------------------------------------------------

Hypervisor::VmWalkResult
Hypervisor::walkVmTables(VirtualMachine &vm, VirtAddr va, AccessType type,
                         AccessMode real_mode)
{
    VmWalkResult r;
    const Longword write_bit =
        type == AccessType::Write ? mmparam::kWriteIntent : 0;
    const Vpn vpn = vpnOf(va);

    auto acv = [&](Longword param) {
        r.status = VmWalkResult::Status::ReflectAcv;
        r.faultParam = param | write_bit;
        return r;
    };
    auto tnv = [&](Longword param) {
        r.status = VmWalkResult::Status::ReflectTnv;
        r.faultParam = param | write_bit;
        return r;
    };

    switch (regionOf(va)) {
      case Region::Reserved:
        return acv(mmparam::kLengthViolation);
      case Region::System: {
        if (vpn >= vm.vSlr)
            return acv(mmparam::kLengthViolation);
        r.vmPteAddr = vm.vSbr + 4 * vpn; // VM-physical
        break;
      }
      case Region::P0:
      case Region::P1: {
        const bool is_p0 = regionOf(va) == Region::P0;
        if (is_p0 ? (vpn >= vm.vP0lr) : (vpn < vm.vP1lr))
            return acv(mmparam::kLengthViolation);
        const VirtAddr pte_va =
            (is_p0 ? vm.vP0br : vm.vP1br) + 4 * vpn;
        // The VM's process tables live in its S space; resolve the
        // PTE address through the VM's SPT.
        const Vpn nested = vpnOf(pte_va);
        if (regionOf(pte_va) != Region::System || nested >= vm.vSlr) {
            return acv(mmparam::kLengthViolation |
                       mmparam::kPteReference);
        }
        const PhysAddr nested_pa = vm.vSbr + 4 * nested;
        if ((nested_pa >> kPageShift) >= vm.memPages) {
            r.status = VmWalkResult::Status::HaltVm;
            return r;
        }
        const Pte spte(vmReadPhys32(vm, nested_pa));
        if (!spte.valid())
            return tnv(mmparam::kPteReference);
        if (!vm.vmPfnValid(spte.pfn())) {
            r.status = VmWalkResult::Status::HaltVm;
            return r;
        }
        r.vmPteAddr = (spte.pfn() << kPageShift) |
                      (pte_va & kPageOffsetMask);
        break;
      }
    }

    if ((r.vmPteAddr >> kPageShift) >= vm.memPages) {
        r.status = VmWalkResult::Status::HaltVm;
        return r;
    }
    r.vmPte = Pte(vmReadPhys32(vm, r.vmPteAddr));

    // Check the access the way the hardware will after the fill: with
    // the *compressed* protection against the real mode.  This is
    // what makes VM-kernel (real executive) references to
    // kernel-protected pages succeed, including the deliberate
    // blurring for VM-executive code (Section 4.3.1).
    if (!protectionPermits(compressProtection(r.vmPte.protection()),
                           real_mode, type)) {
        return acv(0);
    }
    if (!r.vmPte.valid())
        return tnv(0);
    return r;
}

PhysAddr
Hypervisor::shadowPtePa(VirtualMachine &vm, VirtAddr va) const
{
    const Vpn vpn = vpnOf(va);
    switch (regionOf(va)) {
      case Region::System:
        return vm.shadowSptPa + 4 * vpn;
      case Region::P0:
        return vm.slots[vm.activeSlot].p0TablePa + 4 * vpn;
      case Region::P1: {
        const Longword first = kP1SpaceVpns - config_.p1MaxPtes;
        return vm.slots[vm.activeSlot].p1TablePa + 4 * (vpn - first);
      }
      case Region::Reserved:
        break;
    }
    return 0;
}

void
Hypervisor::fillShadowPte(VirtualMachine &vm, VirtAddr va, Pte shadow)
{
    // Shadow tables are VMM-allocated RAM pages: store through the
    // host pointer, skipping the physical-memory dispatch.  The store
    // still counts as a write to its page (CoW residency); an aligned
    // PTE never straddles two pages.
    const Longword raw = shadow.raw();
    const PhysAddr pa = shadowPtePa(vm, va);
    std::memcpy(mem_.ram().data() + pa, &raw, 4);
    mem_.bumpGen(mem_.pageGenCell(pa));
    mmu_.tbis(va);
}

// ---------------------------------------------------------------------------
// Fault service
// ---------------------------------------------------------------------------

Hypervisor::FillResult
Hypervisor::handleShadowFault(VirtualMachine &vm, VirtAddr va,
                              AccessType type, AccessMode real_mode,
                              VirtAddr pc, Psl real_psl)
{
    const CostModel &cost = machine_.costModel();
    vm.stats.shadowFaults++;

    // --- VM running with memory management off: flat VM-physical ---
    if (!vm.vMapen) {
        const Vpn vpn = vpnOf(va);
        const bool device_page = regionOf(va) == Region::P0 &&
                                 vpn == vm.memPages &&
                                 vm.config().ioMode == VmIoMode::Mmio;
        if (regionOf(va) != Region::P0 ||
            (vpn >= vm.memPages && !device_page)) {
            // Section 5: touching non-existent memory halts the VM.
            haltVm(vm, VmHaltReason::NonExistentMemory);
            return FillResult::Halted;
        }
        const Pfn real_pfn =
            device_page ? vm.mmioWindowPfn : vm.basePfn + vpn;
        fillShadowPte(vm, va,
                      Pte::make(true, Protection::UW, true, real_pfn));
        vm.stats.shadowFills++;
        charge(CycleCategory::VmmShadow, cost.vmmShadowFillPerPte);
        if (pc != 0)
            continueVm(vm, pc, real_psl);
        return FillResult::Filled;
    }

    // --- Mapped: consult the VM's page tables ---
    VmWalkResult walk = walkVmTables(vm, va, type, real_mode);
    switch (walk.status) {
      case VmWalkResult::Status::HaltVm:
        haltVm(vm, VmHaltReason::NonExistentMemory);
        return FillResult::Halted;
      case VmWalkResult::Status::ReflectAcv:
      case VmWalkResult::Status::ReflectTnv: {
        if (pc == 0) {
            // Called from a VMM memory helper (no resumable guest
            // context): report failure instead of reflecting, so the
            // caller can halt the VM rather than recurse.
            return FillResult::Reflected;
        }
        const Word vector =
            walk.status == VmWalkResult::Status::ReflectAcv
                ? static_cast<Word>(ScbVector::AccessViolation)
                : static_cast<Word>(ScbVector::TranslationNotValid);
        const Longword params[2] = {walk.faultParam, va};
        // Compose the VM's view of its PSL at the fault.
        Psl vm_psl(cpu_.vmpsl());
        vm_psl.setRaw((vm_psl.raw() &
                       ~(Psl::kPswMask | Psl::kVm)) |
                      (real_psl.raw() & Psl::kPswMask));
        vm.stats.reflectedExceptions++;
        if (!reflectToVm(vm, vector, params, 2, pc, vm_psl,
                         /*as_interrupt=*/false, 0)) {
            return FillResult::Halted;
        }
        return FillResult::Reflected;
      }
      case VmWalkResult::Status::Ok:
        break;
    }

    // Fill the shadow PTE for the faulting page, plus up to
    // prefillGroup-1 neighbours (the Section 4.3.1 anticipation
    // experiment; 1 means pure on-demand).
    Longword filled = 0;
    for (Longword i = 0; i < config_.prefillGroup; ++i) {
        const VirtAddr fill_va = va + i * kPageSize;
        if (regionOf(fill_va) != regionOf(va))
            break;
        Pte vm_pte = walk.vmPte;
        if (i > 0) {
            VmWalkResult w =
                walkVmTables(vm, fill_va, AccessType::Read, real_mode);
            if (w.status != VmWalkResult::Status::Ok)
                continue; // neighbours fill opportunistically only
            vm_pte = w.vmPte;
        }
        Pfn real_pfn;
        if (vm.vmPfnValid(vm_pte.pfn())) {
            real_pfn = vm.basePfn + vm_pte.pfn();
        } else if (vm.config().ioMode == VmIoMode::Mmio &&
                   vm_pte.pfn() == vm.memPages) {
            real_pfn = vm.mmioWindowPfn;
        } else if (i == 0) {
            haltVm(vm, VmHaltReason::NonExistentMemory);
            return FillResult::Halted;
        } else {
            continue;
        }
        const bool device = real_pfn == vm.mmioWindowPfn &&
                            vm.config().ioMode == VmIoMode::Mmio;
        const Pte shadow = Pte::make(
            true, compressProtection(vm_pte.protection()),
            device || vm_pte.modify(), real_pfn);
        fillShadowPte(vm, fill_va, shadow);
        filled++;
    }
    vm.stats.shadowFills += filled;
    charge(CycleCategory::VmmShadow,
           cost.vmmShadowFillPerPte * (filled ? filled : 1));

    if (pc != 0)
        continueVm(vm, pc, real_psl);
    return FillResult::Filled;
}

void
Hypervisor::hookMemoryFault(const HostFrame &frame, ScbVector kind)
{
    (void)kind;
    if (!frame.savedPsl.vm() || currentVm_ < 0) {
        // A memory fault outside any VM is a VMM bug.
        cpu_.externalHalt(HaltReason::ExternalRequest);
        return;
    }
    VirtualMachine &vm = *vms_[currentVm_];
    const VirtAddr va = frame.params[1];
    const AccessType type = (frame.params[0] & mmparam::kWriteIntent)
                                ? AccessType::Write
                                : AccessType::Read;
    charge(CycleCategory::VmmShadow, machine_.costModel().vmmDispatch);
    handleShadowFault(vm, va, type, frame.savedPsl.currentMode(),
                      frame.pc, frame.savedPsl);
}

void
Hypervisor::hookModifyFault(const HostFrame &frame)
{
    if (!frame.savedPsl.vm() || currentVm_ < 0) {
        cpu_.externalHalt(HaltReason::ExternalRequest);
        return;
    }
    VirtualMachine &vm = *vms_[currentVm_];
    const VirtAddr va = frame.params[1];
    const CostModel &cost = machine_.costModel();
    vm.stats.modifyFaults++;
    charge(CycleCategory::VmmShadow, cost.vmmModifyFault);

    // Set the modify bit in the shadow PTE...
    const PhysAddr spa = shadowPtePa(vm, va);
    Pte shadow(mem_.read32(spa));
    shadow.setModify(true);
    mem_.write32(spa, shadow.raw());
    mmu_.tbis(va);

    // ...and in the VM's own PTE, so the VM's page tables accurately
    // reflect the state of modified pages (Section 4.4.2).
    if (vm.vMapen) {
        VmWalkResult walk = walkVmTables(vm, va, AccessType::Write,
                                         frame.savedPsl.currentMode());
        if (walk.status == VmWalkResult::Status::Ok) {
            Pte vm_pte = walk.vmPte;
            vm_pte.setModify(true);
            vmWritePhys32(vm, walk.vmPteAddr, vm_pte.raw());
        }
    }
    continueVm(vm, frame.pc, frame.savedPsl);
}

void
Hypervisor::hookMachineCheck(const HostFrame &frame)
{
    if (frame.savedPsl.vm() && currentVm_ >= 0) {
        // Touching non-existent memory can be a symptom of a security
        // attack; the VM is halted (Section 5).
        haltVm(*vms_[currentVm_], VmHaltReason::NonExistentMemory);
        return;
    }
    cpu_.externalHalt(HaltReason::ExternalRequest);
}

// ---------------------------------------------------------------------------
// Shadow slot (Section 7.2) management
// ---------------------------------------------------------------------------

void
Hypervisor::fillNullPtes(PhysAddr pa, Longword count)
{
    // Wide batch fill through the host pointer: two PTEs per store.
    // Compare before writing: on a golden-image fork most of these
    // entries are already null in the CoW-shared image, and skipping
    // the no-op store keeps the host page physically shared instead
    // of dirtying a private copy just to rewrite identical bytes.
    // A store that does happen counts as a write to its page (CoW
    // residency); table bases are page-aligned, so no store
    // straddles two pages.
    Byte *p = mem_.ram().data() + pa;
    const std::uint64_t pair =
        (static_cast<std::uint64_t>(kNullPteRaw) << 32) | kNullPteRaw;
    Longword i = 0;
    for (; i + 2 <= count; i += 2, p += 8) {
        std::uint64_t cur;
        std::memcpy(&cur, p, 8);
        if (cur != pair) {
            std::memcpy(p, &pair, 8);
            mem_.bumpGen(mem_.pageGenCell(pa + 4 * i));
        }
    }
    if (i < count) {
        Longword cur;
        std::memcpy(&cur, p, 4);
        if (cur != kNullPteRaw) {
            std::memcpy(p, &kNullPteRaw, 4);
            mem_.bumpGen(mem_.pageGenCell(pa + 4 * i));
        }
    }
}

void
Hypervisor::flushShadowSlot(VirtualMachine &vm, int slot)
{
    ShadowSlot &s = vm.slots[slot];
    fillNullPtes(s.p0TablePa, config_.p0MaxPtes);
    fillNullPtes(s.p1TablePa, config_.p1MaxPtes);
    // Real-TLB entries filled from the old contents must die with
    // them; a fresh context retires them all at once.
    s.tlbCtx = mmu_.newTlbContext();
}

void
Hypervisor::flushShadowS(VirtualMachine &vm)
{
    fillNullPtes(vm.shadowSptPa, config_.vmSMaxPages);
    vm.tlbSysCtx = mmu_.newTlbContext();
}

void
Hypervisor::activateProcessSlot(VirtualMachine &vm, Longword process_key)
{
    const int usable = config_.shadowSlotsPerVm;

    if (!config_.shadowTableCache) {
        // Pre-7.2 behaviour: a single set of shadow process tables,
        // invalidated on every address space change, so a process
        // resuming after a context switch re-faults for every page.
        vm.stats.shadowCacheMisses++;
        flushShadowSlot(vm, 0);
        vm.slots[0].inUse = true;
        vm.slots[0].processKey = process_key;
        vm.activeSlot = 0;
        return;
    }

    int victim = 0;
    std::uint64_t oldest = UINT64_MAX;
    for (int s = 0; s < usable; ++s) {
        ShadowSlot &slot = vm.slots[s];
        if (slot.inUse && slot.processKey == process_key) {
            // Cache hit: the preserved shadow PTEs avoid the refill
            // faults (the ~80% reduction of Section 7.2).
            slot.lastUsed = ++slotUseCounter_;
            vm.activeSlot = s;
            vm.stats.shadowCacheHits++;
            return;
        }
        if (!slot.inUse) {
            victim = s;
            oldest = 0;
        } else if (slot.lastUsed < oldest) {
            victim = s;
            oldest = slot.lastUsed;
        }
    }
    vm.stats.shadowCacheMisses++;
    flushShadowSlot(vm, victim);
    ShadowSlot &slot = vm.slots[victim];
    slot.inUse = true;
    slot.processKey = process_key;
    slot.lastUsed = ++slotUseCounter_;
    vm.activeSlot = victim;
}

void
Hypervisor::setRealMapForVm(VirtualMachine &vm)
{
    MmuRegisters &regs = mmu_.regs();
    regs.sbr = vm.shadowSptPa;
    regs.slr = vm.shadowSlr;
    regs.mapen = true;

    if (!vm.vMapen) {
        const ShadowSlot &slot = vm.slots[vm.physModeSlot];
        vm.activeSlot = vm.physModeSlot;
        regs.p0br = slot.p0TableVa;
        regs.p0lr = vm.memPages +
                    (vm.config().ioMode == VmIoMode::Mmio ? 1 : 0);
        regs.p1br = slot.p1TableVa -
                    4 * (kP1SpaceVpns - config_.p1MaxPtes);
        regs.p1lr = kP1SpaceVpns; // nothing valid in P1
    } else {
        const ShadowSlot &slot = vm.slots[vm.activeSlot];
        regs.p0br = slot.p0TableVa;
        regs.p0lr = vm.vP0lr;
        regs.p1br = slot.p1TableVa -
                    4 * (kP1SpaceVpns - config_.p1MaxPtes);
        regs.p1lr = vm.vP1lr;
    }

    // Instead of flushing the real TLB on every world switch, apply
    // the VM's (system, slot) TLB contexts: every entry this VM
    // filled under the same shadow tables comes back to life, every
    // other VM's (and the bare machine's) entries stay dormant.  The
    // base registers per (VM, slot, vMapen) are constants, so the
    // only per-activation variable in the map is the pair of length
    // registers - a slot whose saved limits disagree with the ones
    // just loaded loses its context, since entries filled under
    // longer limits would bypass the walk's length check.
    ShadowSlot &active = vm.slots[vm.activeSlot];
    if (active.savedP0lr != regs.p0lr || active.savedP1lr != regs.p1lr) {
        active.tlbCtx = mmu_.newTlbContext();
        active.savedP0lr = regs.p0lr;
        active.savedP1lr = regs.p1lr;
    }
    mmu_.setTlbContext(vm.tlbSysCtx, active.tlbCtx);
}

void
Hypervisor::applyTlbContext(VirtualMachine &vm)
{
    mmu_.setTlbContext(vm.tlbSysCtx, vm.slots[vm.activeSlot].tlbCtx);
}

// ---------------------------------------------------------------------------
// VM memory access helpers
// ---------------------------------------------------------------------------

Longword
Hypervisor::vmReadPhys32(VirtualMachine &vm, PhysAddr vm_pa)
{
    // Defensive: callers bounds-check VM-physical addresses, but a
    // missed (or wrapped) check must never index real memory out of
    // the VM's slice — mark the VM bad instead of trusting the
    // address.  haltReason is set directly (no scheduleNext) because
    // this can run mid-service; the scheduler notices at the next
    // continueVm.
    if (static_cast<std::uint64_t>(vm_pa) + 4 >
        static_cast<std::uint64_t>(vm.memPages) * kPageSize) {
        vm.haltReason = VmHaltReason::VmmInternal;
        return 0;
    }
    return mem_.read32(vm.vmPhysToReal(vm_pa));
}

void
Hypervisor::vmWritePhys32(VirtualMachine &vm, PhysAddr vm_pa,
                          Longword value)
{
    if (static_cast<std::uint64_t>(vm_pa) + 4 >
        static_cast<std::uint64_t>(vm.memPages) * kPageSize) {
        vm.haltReason = VmHaltReason::VmmInternal;
        return;
    }
    mem_.write32(vm.vmPhysToReal(vm_pa), value);
}

namespace {

/**
 * Would the throwing path have raised ACV or TNV for this status?
 * Those are the two faults a shadow fill can cure; everything else
 * (machine-check class) fails the access outright.
 */
constexpr bool
shadowFillable(MmStatus status)
{
    switch (status) {
      case MmStatus::LengthViolation:
      case MmStatus::AccessViolation:
      case MmStatus::PteFetchLength:     // ACV vector
      case MmStatus::TranslationNotValid:
      case MmStatus::PteFetchNotValid:   // TNV vector
        return true;
      default:
        return false;
    }
}

} // namespace

bool
Hypervisor::vmReadVirt32(VirtualMachine &vm, VirtAddr va, Longword &out)
{
    // Status-code loop: no C++ exceptions on this path (the VMM's
    // dominant exits funnel through here via MFPR/LDPCTX/CHM
    // emulation, so a throw/catch per shadow miss was pure host
    // overhead).
    MmStatus status = MmStatus::Ok;
    for (int attempt = 0; attempt < 4; ++attempt) {
        if (mmu_.tryReadV32(va, AccessMode::Executive, &out, &status))
            return true;
        if (!shadowFillable(status))
            return false;
        if (handleShadowFault(vm, va, AccessType::Read,
                              AccessMode::Executive, 0,
                              Psl()) != FillResult::Filled) {
            return false;
        }
    }
    return false;
}

bool
Hypervisor::vmWriteVirt32(VirtualMachine &vm, VirtAddr va, Longword value)
{
    MmStatus status = MmStatus::Ok;
    for (int attempt = 0; attempt < 4; ++attempt) {
        if (mmu_.tryWriteV32(va, value, AccessMode::Executive, &status))
            return true;
        if (status == MmStatus::ModifyClear) {
            // Set M in the shadow and VM PTEs, then retry.
            const PhysAddr spa = shadowPtePa(vm, va);
            Pte shadow(mem_.read32(spa));
            shadow.setModify(true);
            mem_.write32(spa, shadow.raw());
            mmu_.tbis(va);
            if (vm.vMapen) {
                VmWalkResult walk = walkVmTables(vm, va,
                                                 AccessType::Write,
                                                 AccessMode::Executive);
                if (walk.status == VmWalkResult::Status::Ok) {
                    Pte vm_pte = walk.vmPte;
                    vm_pte.setModify(true);
                    vmWritePhys32(vm, walk.vmPteAddr, vm_pte.raw());
                }
            }
            continue;
        }
        if (!shadowFillable(status))
            return false;
        if (handleShadowFault(vm, va, AccessType::Write,
                              AccessMode::Executive, 0,
                              Psl()) != FillResult::Filled) {
            return false;
        }
    }
    return false;
}

bool
Hypervisor::vmDiskTransfer(VirtualMachine &vm, bool write, Longword block,
                           Longword count, PhysAddr vm_addr)
{
    // 64-bit arithmetic throughout: block, count and vm_addr are all
    // guest-controlled, and a 32-bit `vm_addr + bytes` can wrap past
    // the bounds check and turn into a host out-of-bounds memcpy.
    const std::uint64_t bytes = static_cast<std::uint64_t>(count) * 512;
    if (static_cast<std::uint64_t>(block) * 512 + bytes > vm.disk.size())
        return false;
    if (static_cast<std::uint64_t>(vm_addr) + bytes >
        static_cast<std::uint64_t>(vm.memPages) * kPageSize)
        return false;

    // Fault injection: decisions key on the VM's architectural disk-op
    // ordinal, so the fast and reference paths fail the exact same
    // operations.  The ordinal advances only for well-formed requests;
    // malformed ones never reach the device model.
    if (FaultPlan *plan = machine_.faultPlan()) {
        const std::uint64_t op = vm.stats.diskOps++;
        const bool hard = plan->diskRangeBad(vm.faultId(), block, count);
        if (hard || plan->shouldInject(FaultClass::DiskTransient,
                                       vm.faultId(), op)) {
            vm.stats.faultedDiskOps++;
            machine_.stats().faultsInjected[static_cast<int>(
                hard ? FaultClass::DiskHard
                     : FaultClass::DiskTransient)]++;
            charge(CycleCategory::VmmIo,
                   machine_.costModel().vmmFaultDiskService);
            return false;
        }
    } else {
        vm.stats.diskOps++;
    }

    Byte *disk = vm.disk.data() + static_cast<std::uint64_t>(block) * 512;
    const PhysAddr real = vm.vmPhysToReal(vm_addr);
    const Longword len = static_cast<Longword>(bytes);
    if (write) {
        mem_.readBlock(real, {disk, len});
        vm.disk.markWritten(block, count);
    } else {
        mem_.writeBlock(real, {disk, len});
    }
    return true;
}

bool
Hypervisor::vmDiskTransferBatch(VirtualMachine &vm, PhysAddr ring,
                                Longword n_desc)
{
    using namespace kcallabi;
    if (n_desc == 0 || n_desc > kMaxBatchDescriptors)
        return false;
    const Longword ring_bytes = n_desc * kBatchDescriptorBytes;
    // 64-bit sum: ring is guest-controlled and must not wrap past the
    // bounds check into a host out-of-bounds ring snapshot.
    if (static_cast<std::uint64_t>(ring) + ring_bytes >
        static_cast<std::uint64_t>(vm.memPages) * kPageSize)
        return false;

    // Snapshot the descriptors through a host pointer before moving
    // any data: a transfer may overwrite the ring itself, and the
    // guest must see the ring it posted, not a half-updated one.
    std::array<Byte, kMaxBatchDescriptors * kBatchDescriptorBytes> descs;
    std::memcpy(descs.data(), mem_.ram().data() + vm.vmPhysToReal(ring),
                ring_bytes);

    // A torn batch stops servicing at the tear point; the tail is
    // left unserviced and reports kBatchStatusNone.  The decision
    // keys on the VM's disk-op ordinal (the value the first
    // descriptor's transfer would consume), so it is identical on the
    // fast and reference paths.
    Longword tear = n_desc;
    if (FaultPlan *plan = machine_.faultPlan()) {
        if (plan->shouldInject(FaultClass::TornBatch, vm.faultId(),
                               vm.stats.diskOps)) {
            tear = n_desc / 2;
            machine_.stats().faultsInjected[static_cast<int>(
                FaultClass::TornBatch)]++;
            charge(CycleCategory::VmmIo,
                   machine_.costModel().vmmFaultDiskService);
        }
    }

    bool all_ok = true;
    for (Longword i = 0; i < n_desc; ++i) {
        const Byte *d = descs.data() + i * kBatchDescriptorBytes;
        Longword block, count, vm_pa, flags;
        std::memcpy(&block, d + kBatchDescBlock, 4);
        std::memcpy(&count, d + kBatchDescCount, 4);
        std::memcpy(&vm_pa, d + kBatchDescVmPa, 4);
        std::memcpy(&flags, d + kBatchDescFlags, 4);
        Longword status = kBatchStatusNone;
        if (i < tear) {
            // Per-run copies go through readBlock/writeBlock so the
            // store funnel bumps page generations: a transfer into a
            // page with live translated superblocks must invalidate
            // them, exactly as a single-transfer KCALL would.
            if (vmDiskTransfer(vm, (flags & kBatchFlagWrite) != 0, block,
                               count, vm_pa)) {
                vm.stats.batchedDiskBlocks += count;
                status = kBatchStatusOk;
            } else {
                status = kBatchStatusError;
            }
        }
        if (status != kBatchStatusOk)
            all_ok = false;
        // Post the per-descriptor status (kcall.h): guest bits 15:0
        // come from the snapshot, so a transfer that clobbered its
        // own ring cannot forge a completion word.
        mem_.write32(vm.vmPhysToReal(ring + i * kBatchDescriptorBytes +
                                     kBatchDescFlags),
                     (flags & ~kBatchStatusMask) |
                         (status << kBatchStatusShift));
    }
    return all_ok;
}

} // namespace vvax
