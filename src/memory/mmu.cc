#include "memory/mmu.h"

namespace vvax {

Mmu::Mmu(PhysicalMemory &memory, const CostModel &cost, Stats &stats)
    : memory_(memory), cost_(cost), stats_(stats)
{
    ram_base_ = memory_.ram().data();
    ram_limit_ = memory_.ramSize();
    page_gen_base_ = memory_.pageGenData();
}

Mmu::ProbeResult
Mmu::walk(VirtAddr va, AccessType type, AccessMode mode, bool fill_tlb)
{
    ProbeResult result;
    const Vpn vpn = vpnOf(va);
    PhysAddr pte_pa = 0;

    switch (regionOf(va)) {
      case Region::System: {
        if (vpn >= regs_.slr) {
            result.status = MmStatus::LengthViolation;
            return result;
        }
        pte_pa = regs_.sbr + 4 * vpn;
        stats_.tlbMisses++;
        stats_.addCycles(CycleCategory::MemoryManagement, cost_.tlbMiss);
        break;
      }
      case Region::P0:
      case Region::P1: {
        const bool is_p0 = regionOf(va) == Region::P0;
        if (is_p0 ? (vpn >= regs_.p0lr) : (vpn < regs_.p1lr)) {
            result.status = MmStatus::LengthViolation;
            return result;
        }
        const VirtAddr pte_va =
            (is_p0 ? regs_.p0br : regs_.p1br) + 4 * vpn;
        // The process page tables must live in S space; the PTE fetch
        // nests through the SPT and is not protection-checked (it is
        // a hardware reference).
        const Vpn nested_vpn = vpnOf(pte_va);
        if (regionOf(pte_va) != Region::System || nested_vpn >= regs_.slr) {
            result.status = MmStatus::PteFetchLength;
            return result;
        }
        const PhysAddr nested_pa = regs_.sbr + 4 * nested_vpn;
        if (!memory_.exists(nested_pa)) {
            result.status = MmStatus::PteNonExistent;
            return result;
        }
        const Pte nested_pte(memory_.read32(nested_pa));
        if (!nested_pte.valid()) {
            result.status = MmStatus::PteFetchNotValid;
            return result;
        }
        pte_pa = (nested_pte.pfn() << kPageShift) |
                 (pte_va & kPageOffsetMask);
        stats_.tlbMisses++;
        stats_.addCycles(CycleCategory::MemoryManagement,
                         cost_.tlbMissProcess);
        break;
      }
      case Region::Reserved:
        result.status = MmStatus::LengthViolation;
        return result;
    }

    if (!memory_.exists(pte_pa)) {
        result.status = MmStatus::PteNonExistent;
        return result;
    }
    result.pte = Pte(memory_.read32(pte_pa));
    result.ptePa = pte_pa;

    // The protection field is checked even when the PTE is invalid
    // (the property the paper's null-PTE shadow fill relies on).
    if (!protectionPermits(result.pte.protection(), mode, type)) {
        result.status = MmStatus::AccessViolation;
        return result;
    }
    if (!result.pte.valid()) {
        result.status = MmStatus::TranslationNotValid;
        return result;
    }
    result.pa =
        (result.pte.pfn() << kPageShift) | (va & kPageOffsetMask);
    if (type == AccessType::Write && !result.pte.modify()) {
        result.status = MmStatus::ModifyClear;
        return result;
    }
    if (fill_tlb) {
        const PhysAddr page_pa = result.pte.pfn() << kPageShift;
        tlb_.insert(va, result.pte, pte_pa, memory_.pageBase(page_pa),
                    memory_.pageGenCell(page_pa));
    }
    result.status = MmStatus::Ok;
    return result;
}

void
Mmu::raiseFault(MmStatus status, VirtAddr va, AccessType type)
{
    const Longword write_bit =
        type == AccessType::Write ? mmparam::kWriteIntent : 0;
    switch (status) {
      case MmStatus::LengthViolation:
        throw GuestFault::memoryManagement(
            ScbVector::AccessViolation,
            mmparam::kLengthViolation | write_bit, va);
      case MmStatus::AccessViolation:
        throw GuestFault::memoryManagement(ScbVector::AccessViolation,
                                           write_bit, va);
      case MmStatus::TranslationNotValid:
        throw GuestFault::memoryManagement(ScbVector::TranslationNotValid,
                                           write_bit, va);
      case MmStatus::PteFetchLength:
        throw GuestFault::memoryManagement(
            ScbVector::AccessViolation,
            mmparam::kLengthViolation | mmparam::kPteReference | write_bit,
            va);
      case MmStatus::PteFetchNotValid:
        throw GuestFault::memoryManagement(
            ScbVector::TranslationNotValid,
            mmparam::kPteReference | write_bit, va);
      case MmStatus::PteNonExistent:
        throw GuestFault::withParam(ScbVector::MachineCheck, va);
      case MmStatus::ModifyClear:
        throw GuestFault::memoryManagement(
            ScbVector::ModifyFault, mmparam::kWriteIntent | write_bit, va);
      case MmStatus::Ok:
        break;
    }
    // Unreachable; keep the compiler satisfied.
    throw GuestFault::simple(ScbVector::MachineCheck);
}

MmStatus
Mmu::resolve(VirtAddr va, AccessType type, AccessMode mode, PhysAddr *pa)
{
    if (!regs_.mapen) {
        if (!memory_.exists(va))
            return MmStatus::PteNonExistent;
        *pa = va;
        return MmStatus::Ok;
    }

    if (Tlb::Entry *entry = tlb_.lookup(va)) {
        if (protectionPermits(entry->pte.protection(), mode, type) &&
            (type == AccessType::Read || entry->pte.modify())) {
            stats_.tlbHits++;
            *pa = (entry->pte.pfn() << kPageShift) |
                  (va & kPageOffsetMask);
            return MmStatus::Ok;
        }
        // Protection failure or modify-clear: resolve via a fresh
        // walk so software updates to the PTE are honoured.
        tlb_.invalidateSingle(va);
    }

    ProbeResult result = walk(va, type, mode, /*fill_tlb=*/true);

    if (result.status == MmStatus::ModifyClear) {
        if (modify_fault_mode_) {
            // Modified VAX (Section 4.4.2): the OS/VMM sets PTE<M>.
            stats_.modifyFaults++;
            return MmStatus::ModifyClear;
        }
        // Standard VAX: hardware sets the modify bit itself.
        Pte updated = result.pte;
        updated.setModify(true);
        memory_.write32(result.ptePa, updated.raw());
        stats_.hardwareModifySets++;
        stats_.addCycles(CycleCategory::MemoryManagement,
                         cost_.hardwareModifySet);
        tlb_.insert(va, updated, result.ptePa,
                    memory_.pageBase(updated.pfn() << kPageShift),
                    memory_.pageGenCell(updated.pfn() << kPageShift));
        result.status = MmStatus::Ok;
    }

    switch (result.status) {
      case MmStatus::Ok:
        break;
      case MmStatus::LengthViolation:
      case MmStatus::AccessViolation:
      case MmStatus::PteFetchLength:
        stats_.accessViolations++;
        return result.status;
      case MmStatus::TranslationNotValid:
      case MmStatus::PteFetchNotValid:
        stats_.translationFaults++;
        return result.status;
      case MmStatus::PteNonExistent:
      case MmStatus::ModifyClear:
        return result.status;
    }

    if (!memory_.exists(result.pa))
        return MmStatus::PteNonExistent;
    *pa = result.pa;
    return MmStatus::Ok;
}

PhysAddr
Mmu::translateSlow(VirtAddr va, AccessType type, AccessMode mode)
{
    PhysAddr pa = 0;
    const MmStatus status = resolve(va, type, mode, &pa);
    if (status == MmStatus::Ok)
        return pa;
    raiseFault(status, va, type);
}

Mmu::ProbeResult
Mmu::probe(VirtAddr va, AccessType type, AccessMode mode)
{
    if (!regs_.mapen) {
        ProbeResult result;
        result.status =
            memory_.exists(va) ? MmStatus::Ok : MmStatus::PteNonExistent;
        result.pa = va;
        return result;
    }
    if (Tlb::Entry *entry = tlb_.lookup(va)) {
        ProbeResult result;
        result.pte = entry->pte;
        result.ptePa = entry->ptePa;
        if (!protectionPermits(entry->pte.protection(), mode, type)) {
            result.status = MmStatus::AccessViolation;
        } else if (type == AccessType::Write && !entry->pte.modify()) {
            result.status = MmStatus::ModifyClear;
            result.pa = (entry->pte.pfn() << kPageShift) |
                        (va & kPageOffsetMask);
        } else {
            result.status = MmStatus::Ok;
            result.pa = (entry->pte.pfn() << kPageShift) |
                        (va & kPageOffsetMask);
        }
        return result;
    }
    return walk(va, type, mode, /*fill_tlb=*/false);
}

Byte
Mmu::readV8Slow(VirtAddr va, AccessMode mode)
{
    return memory_.read8(translateSlow(va, AccessType::Read, mode));
}

Word
Mmu::readV16Slow(VirtAddr va, AccessMode mode)
{
    if ((va & kPageOffsetMask) <= kPageSize - 2)
        return memory_.read16(translate(va, AccessType::Read, mode));
    const Byte lo = readV8(va, mode);
    const Byte hi = readV8(va + 1, mode);
    return static_cast<Word>(lo | (hi << 8));
}

Longword
Mmu::readV32Slow(VirtAddr va, AccessMode mode)
{
    if ((va & kPageOffsetMask) <= kPageSize - 4)
        return memory_.read32(translate(va, AccessType::Read, mode));
    Longword value = 0;
    for (int i = 0; i < 4; ++i)
        value |= static_cast<Longword>(readV8(va + i, mode)) << (8 * i);
    return value;
}

void
Mmu::writeV8Slow(VirtAddr va, Byte value, AccessMode mode)
{
    memory_.write8(translateSlow(va, AccessType::Write, mode), value);
}

void
Mmu::writeV16Slow(VirtAddr va, Word value, AccessMode mode)
{
    if ((va & kPageOffsetMask) <= kPageSize - 2) {
        memory_.write16(translate(va, AccessType::Write, mode), value);
        return;
    }
    writeV8(va, static_cast<Byte>(value), mode);
    writeV8(va + 1, static_cast<Byte>(value >> 8), mode);
}

void
Mmu::writeV32Slow(VirtAddr va, Longword value, AccessMode mode)
{
    if ((va & kPageOffsetMask) <= kPageSize - 4) {
        memory_.write32(translate(va, AccessType::Write, mode), value);
        return;
    }
    for (int i = 0; i < 4; ++i)
        writeV8(va + i, static_cast<Byte>(value >> (8 * i)), mode);
}

bool
Mmu::tryReadV32Slow(VirtAddr va, AccessMode mode, Longword *value,
                    MmStatus *status)
{
    if ((va & kPageOffsetMask) <= kPageSize - 4) {
        PhysAddr pa = 0;
        const MmStatus st = resolve(va, AccessType::Read, mode, &pa);
        if (st != MmStatus::Ok) {
            *status = st;
            return false;
        }
        *value = memory_.read32(pa);
        return true;
    }
    // Page-crossing: per-byte composition, exactly like readV32Slow.
    Longword v = 0;
    for (int i = 0; i < 4; ++i) {
        PhysAddr pa = 0;
        const MmStatus st = resolve(va + i, AccessType::Read, mode, &pa);
        if (st != MmStatus::Ok) {
            *status = st;
            return false;
        }
        v |= static_cast<Longword>(memory_.read8(pa)) << (8 * i);
    }
    *value = v;
    return true;
}

bool
Mmu::tryWriteV32Slow(VirtAddr va, Longword value, AccessMode mode,
                     MmStatus *status)
{
    if ((va & kPageOffsetMask) <= kPageSize - 4) {
        PhysAddr pa = 0;
        const MmStatus st = resolve(va, AccessType::Write, mode, &pa);
        if (st != MmStatus::Ok) {
            *status = st;
            return false;
        }
        memory_.write32(pa, value);
        return true;
    }
    // Page-crossing: per-byte, with the same partial-write semantics
    // as writeV32Slow (bytes before a faulting byte land; the caller's
    // retry after fixing the fault rewrites them idempotently).
    for (int i = 0; i < 4; ++i) {
        PhysAddr pa = 0;
        const MmStatus st = resolve(va + i, AccessType::Write, mode, &pa);
        if (st != MmStatus::Ok) {
            *status = st;
            return false;
        }
        memory_.write8(pa, static_cast<Byte>(value >> (8 * i)));
    }
    return true;
}

} // namespace vvax
