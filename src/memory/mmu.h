/**
 * @file
 * VAX memory management unit: translation, protection, modify bit.
 *
 * Implements the three-region translation of the VAX architecture:
 * the System Page Table is located by a *physical* base (SBR), while
 * the per-process P0/P1 tables live at *virtual* S-space addresses
 * (P0BR/P1BR), so a process translation nests through the SPT.
 *
 * Two modify-bit disciplines are selectable (paper Section 4.4.2):
 * the standard VAX sets PTE<M> in memory on the first legal write to
 * a page; the modified VAX instead raises a *modify fault* so the
 * operating system (or VMM) sets the bit explicitly.
 *
 * Protection is checked even when PTE<V> is clear - the property the
 * paper's null-PTE shadow discipline relies on (Section 4.3.1).
 *
 * Host fast path (docs/ARCHITECTURE.md): the virtual accessors
 * readV8/16/32 and writeV8/16/32 first try an inlined path that goes straight to host
 * memory through the TLB entry's cached host pointer and precomputed
 * permission verdict.  The fast path takes exactly the accesses the
 * full path would complete on a TLB hit, performs the identical
 * counter updates, and falls back to the full path for everything
 * else, so every architectural counter stays bit-identical.  The
 * reference execution tier (ExecTier::Reference, VVAX_EXEC_TIER=ref)
 * disables it for lockstep equivalence testing: Cpu::setExecTier is
 * the one switch, and sets the reference path from the tier.
 */

#ifndef VVAX_MEMORY_MMU_H
#define VVAX_MEMORY_MMU_H

#include <cstring>

#include "arch/exceptions.h"
#include "arch/pte.h"
#include "arch/types.h"
#include "memory/physical_memory.h"
#include "memory/tlb.h"
#include "metrics/cost_model.h"
#include "metrics/stats.h"

namespace vvax {

/** Non-faulting classification of a reference, for PROBE/PROBEVM. */
enum class MmStatus : Byte {
    Ok = 0,
    LengthViolation,     //!< beyond the page table (an access violation)
    AccessViolation,     //!< protection denies the access
    TranslationNotValid, //!< PTE<V> = 0
    ModifyClear,         //!< writable and valid but PTE<M> = 0
    PteFetchLength,      //!< process PTE address beyond the SPT
    PteFetchNotValid,    //!< SPT entry for the process PTE invalid
    PteNonExistent,      //!< PTE physical address is non-existent memory
};

/** Memory management registers (loaded via MTPR). */
struct MmuRegisters
{
    bool mapen = false;
    Longword sbr = 0;  //!< physical
    Longword slr = 0;  //!< longwords (PTEs)
    Longword p0br = 0; //!< virtual, S space
    Longword p0lr = 0;
    Longword p1br = 0; //!< virtual, biased: PTE va = p1br + 4*vpn
    Longword p1lr = 0;
};

class Mmu
{
  public:
    Mmu(PhysicalMemory &memory, const CostModel &cost, Stats &stats);

    MmuRegisters &regs() { return regs_; }
    const MmuRegisters &regs() const { return regs_; }

    /** Enable the modified-VAX modify fault (Section 4.4.2). */
    void setModifyFaultMode(bool on) { modify_fault_mode_ = on; }
    bool modifyFaultMode() const { return modify_fault_mode_; }

    /** True on the reference execution tier (host fast path off). */
    bool referencePath() const { return !fast_enabled_; }

    /**
     * Translate @p va for an access of @p type from @p mode.
     * @throws GuestFault for ACV, TNV, modify fault, machine check.
     */
    PhysAddr
    translate(VirtAddr va, AccessType type, AccessMode mode)
    {
        if (fast_enabled_) {
            if (!regs_.mapen) {
                if (va < ram_limit_)
                    return va;
            } else if (Tlb::Entry *e = tlb_.lookup(va)) {
                if (e->permMask & Tlb::permBit(mode, type)) {
                    stats_.tlbHits++;
                    return (e->pte.pfn() << kPageShift) |
                           (va & kPageOffsetMask);
                }
            }
        }
        return translateSlow(va, type, mode);
    }

    /** Result of a non-faulting walk. */
    struct ProbeResult
    {
        MmStatus status = MmStatus::Ok;
        Pte pte;          //!< the leaf PTE (valid if status got that far)
        PhysAddr ptePa = 0;
        PhysAddr pa = 0;  //!< final physical address when Ok/ModifyClear
    };

    /**
     * Classify the reference without faulting and without side
     * effects (no TLB fill, no M-bit update).  Used by PROBE,
     * PROBEVM and the VMM.  The probe itself never raises a fault;
     * failures along the nested PTE fetch are reported as statuses.
     */
    ProbeResult probe(VirtAddr va, AccessType type, AccessMode mode);

    // Translation buffer maintenance.  Each wrapper counts the flush
    // so the benchmarks can see how much translation state dies (both
    // execution paths call the same wrappers, so the counters stay
    // lockstep-identical).
    void
    tbia()
    {
        stats_.tlbFlushAll++;
        tlb_.invalidateAll();
    }
    void
    tbis(VirtAddr va)
    {
        stats_.tlbFlushSingle++;
        tlb_.invalidateSingle(va);
    }
    void
    tbiaProcess()
    {
        stats_.tlbFlushProcess++;
        tlb_.invalidateProcess();
    }

    // Context-tagged TLB control (see Tlb).  The hypervisor applies a
    // VM's (system, process) context pair on every world switch in
    // place of a wholesale flush, so the VM's live translations
    // survive the round-trip.
    void
    setTlbContext(std::uint64_t system, std::uint64_t process)
    {
        stats_.tlbContextSwitches++;
        tlb_.setContext(system, process);
    }
    std::uint64_t newTlbContext() { return tlb_.newContext(); }
    std::uint64_t tlbSystemContext() const { return tlb_.systemContext(); }
    std::uint64_t tlbProcessContext() const
    {
        return tlb_.processContext();
    }

    /**
     * Counter-free TLB inspection under the *current* context, for
     * tests that assert which entries survived an invalidation.
     */
    Tlb::Entry *tlbPeek(VirtAddr va) { return tlb_.lookup(va); }

    /**
     * Non-throwing translate-and-read for the VMM's guest-memory
     * helpers: resolves @p va exactly like readV32 (same TLB fills,
     * same counters, same cycle charges, including the hardware
     * modify-bit path on the standard VAX) but reports failures as a
     * status instead of raising a GuestFault, keeping C++ exceptions
     * off the VMM exit path.  On failure *status tells the caller
     * which fault the throwing path would have raised.
     */
    bool
    tryReadV32(VirtAddr va, AccessMode mode, Longword *value,
               MmStatus *status)
    {
        if (fast_enabled_ && (va & kPageOffsetMask) <= kPageSize - 4) {
            if (!regs_.mapen) {
                if (static_cast<std::uint64_t>(va) + 4 <= ram_limit_) {
                    std::memcpy(value, ram_base_ + va, 4);
                    return true;
                }
            } else if (Tlb::Entry *e = tlb_.lookup(va)) {
                if (e->hostPage &&
                    (e->permMask &
                     Tlb::permBit(mode, AccessType::Read))) {
                    stats_.tlbHits++;
                    std::memcpy(value,
                                e->hostPage + (va & kPageOffsetMask), 4);
                    return true;
                }
            }
        }
        return tryReadV32Slow(va, mode, value, status);
    }

    /** Non-throwing counterpart of writeV32; see tryReadV32. */
    bool
    tryWriteV32(VirtAddr va, Longword value, AccessMode mode,
                MmStatus *status)
    {
        if (fast_enabled_ && (va & kPageOffsetMask) <= kPageSize - 4) {
            if (!regs_.mapen) {
                if (static_cast<std::uint64_t>(va) + 4 <= ram_limit_) {
                    std::memcpy(ram_base_ + va, &value, 4);
                    memory_.bumpGen(page_gen_base_ + (va >> kPageShift));
                    return true;
                }
            } else if (Tlb::Entry *e = tlb_.lookup(va)) {
                if (e->hostPage &&
                    (e->permMask &
                     Tlb::permBit(mode, AccessType::Write))) {
                    stats_.tlbHits++;
                    std::memcpy(e->hostPage + (va & kPageOffsetMask),
                                &value, 4);
                    memory_.bumpGen(e->pageGen);
                    return true;
                }
            }
        }
        return tryWriteV32Slow(va, value, mode, status);
    }

    // Virtual-address convenience accessors used by the CPU core.
    // Unaligned accesses that cross a page boundary translate each
    // page separately (as real VAX hardware does).  The inline bodies
    // are the host fast path; the *Slow versions are the reference
    // path and the fallback for everything the fast path cannot
    // prove safe (MMIO, page crossings, misses, modify/protection
    // work).
    Byte
    readV8(VirtAddr va, AccessMode mode)
    {
        if (fast_enabled_) {
            if (!regs_.mapen) {
                if (va < ram_limit_)
                    return ram_base_[va];
            } else if (Tlb::Entry *e = tlb_.lookup(va)) {
                if (e->hostPage &&
                    (e->permMask &
                     Tlb::permBit(mode, AccessType::Read))) {
                    stats_.tlbHits++;
                    return e->hostPage[va & kPageOffsetMask];
                }
            }
        }
        return readV8Slow(va, mode);
    }

    Word
    readV16(VirtAddr va, AccessMode mode)
    {
        if (fast_enabled_ && (va & kPageOffsetMask) <= kPageSize - 2) {
            if (!regs_.mapen) {
                if (static_cast<std::uint64_t>(va) + 2 <= ram_limit_) {
                    Word value;
                    std::memcpy(&value, ram_base_ + va, 2);
                    return value;
                }
            } else if (Tlb::Entry *e = tlb_.lookup(va)) {
                if (e->hostPage &&
                    (e->permMask &
                     Tlb::permBit(mode, AccessType::Read))) {
                    stats_.tlbHits++;
                    Word value;
                    std::memcpy(&value,
                                e->hostPage + (va & kPageOffsetMask), 2);
                    return value;
                }
            }
        }
        return readV16Slow(va, mode);
    }

    Longword
    readV32(VirtAddr va, AccessMode mode)
    {
        if (fast_enabled_ && (va & kPageOffsetMask) <= kPageSize - 4) {
            if (!regs_.mapen) {
                if (static_cast<std::uint64_t>(va) + 4 <= ram_limit_) {
                    Longword value;
                    std::memcpy(&value, ram_base_ + va, 4);
                    return value;
                }
            } else if (Tlb::Entry *e = tlb_.lookup(va)) {
                if (e->hostPage &&
                    (e->permMask &
                     Tlb::permBit(mode, AccessType::Read))) {
                    stats_.tlbHits++;
                    Longword value;
                    std::memcpy(&value,
                                e->hostPage + (va & kPageOffsetMask), 4);
                    return value;
                }
            }
        }
        return readV32Slow(va, mode);
    }

    void
    writeV8(VirtAddr va, Byte value, AccessMode mode)
    {
        if (fast_enabled_) {
            if (!regs_.mapen) {
                if (va < ram_limit_) {
                    ram_base_[va] = value;
                    memory_.bumpGen(page_gen_base_ + (va >> kPageShift));
                    return;
                }
            } else if (Tlb::Entry *e = tlb_.lookup(va)) {
                if (e->hostPage &&
                    (e->permMask &
                     Tlb::permBit(mode, AccessType::Write))) {
                    stats_.tlbHits++;
                    e->hostPage[va & kPageOffsetMask] = value;
                    memory_.bumpGen(e->pageGen);
                    return;
                }
            }
        }
        writeV8Slow(va, value, mode);
    }

    void
    writeV16(VirtAddr va, Word value, AccessMode mode)
    {
        if (fast_enabled_ && (va & kPageOffsetMask) <= kPageSize - 2) {
            if (!regs_.mapen) {
                if (static_cast<std::uint64_t>(va) + 2 <= ram_limit_) {
                    std::memcpy(ram_base_ + va, &value, 2);
                    memory_.bumpGen(page_gen_base_ + (va >> kPageShift));
                    return;
                }
            } else if (Tlb::Entry *e = tlb_.lookup(va)) {
                if (e->hostPage &&
                    (e->permMask &
                     Tlb::permBit(mode, AccessType::Write))) {
                    stats_.tlbHits++;
                    std::memcpy(e->hostPage + (va & kPageOffsetMask),
                                &value, 2);
                    memory_.bumpGen(e->pageGen);
                    return;
                }
            }
        }
        writeV16Slow(va, value, mode);
    }

    void
    writeV32(VirtAddr va, Longword value, AccessMode mode)
    {
        if (fast_enabled_ && (va & kPageOffsetMask) <= kPageSize - 4) {
            if (!regs_.mapen) {
                if (static_cast<std::uint64_t>(va) + 4 <= ram_limit_) {
                    std::memcpy(ram_base_ + va, &value, 4);
                    memory_.bumpGen(page_gen_base_ + (va >> kPageShift));
                    return;
                }
            } else if (Tlb::Entry *e = tlb_.lookup(va)) {
                if (e->hostPage &&
                    (e->permMask &
                     Tlb::permBit(mode, AccessType::Write))) {
                    stats_.tlbHits++;
                    std::memcpy(e->hostPage + (va & kPageOffsetMask),
                                &value, 4);
                    memory_.bumpGen(e->pageGen);
                    return;
                }
            }
        }
        writeV32Slow(va, value, mode);
    }

    /**
     * Host pointer to the instruction-stream page containing @p va,
     * for the CPU's prefetch window - non-null only when memory
     * management is off, the page is RAM and the fast path is
     * enabled.  With mapping on the window instead latches a TLB
     * entry via tlbLookup() and counts a TLB hit per fetch itself,
     * so hit/miss counters stay identical to fetching through readV*.
     */
    const Byte *
    instrPage(VirtAddr va)
    {
        if (!fast_enabled_ || regs_.mapen)
            return nullptr;
        if (static_cast<std::uint64_t>(va & ~kPageOffsetMask) + kPageSize <= ram_limit_)
            return ram_base_ + (va & ~kPageOffsetMask);
        return nullptr;
    }

    /**
     * The TLB entry covering @p va when mapping is on and the fast
     * path is enabled, nullptr otherwise (including on a TLB miss).
     * Pure lookup: no counters, no fill.  The decoder's instruction
     * window uses it to pin the stream page and performs the
     * per-fetch tlbHits accounting itself.
     */
    Tlb::Entry *
    tlbLookup(VirtAddr va)
    {
        if (!fast_enabled_ || !regs_.mapen)
            return nullptr;
        return tlb_.lookup(va);
    }

    /**
     * Host pointer to @p va when the inline fast path of readV8 /
     * writeV8 would complete an access of @p type there - mapping off
     * and RAM, or a TLB hit on a RAM page with the permission bit set -
     * and nullptr otherwise.  Pure lookup: no counters, no fill.  Every
     * byte from @p va to the end of its page resolves the same way, so
     * a bulk copy (MOVC3) can move a page span at once and do the
     * per-byte accounting itself: a TLB hit per access when mapping is
     * on, and for stores a bump of the page's write-generation cell,
     * stored to @p gen when that is non-null.
     */
    Byte *
    fastSpan(VirtAddr va, AccessType type, AccessMode mode,
             std::uint32_t **gen = nullptr)
    {
        if (!fast_enabled_)
            return nullptr;
        if (!regs_.mapen) {
            if (va >= ram_limit_)
                return nullptr;
            if (gen != nullptr)
                *gen = page_gen_base_ + (va >> kPageShift);
            return ram_base_ + va;
        }
        Tlb::Entry *e = tlb_.lookup(va);
        if (e == nullptr || e->hostPage == nullptr ||
            !(e->permMask & Tlb::permBit(mode, type)))
            return nullptr;
        if (gen != nullptr)
            *gen = e->pageGen;
        return e->hostPage + (va & kPageOffsetMask);
    }

    /**
     * Write-generation cell of the RAM page @p page_base points at
     * (a pointer previously obtained from instrPage() or a TLB
     * entry's hostPage, both of which are PhysicalMemory page bases).
     * The superblock cache latches this at build time and compares it
     * to detect stores into the block's own page.
     */
    std::uint32_t *
    pageGenForHostPage(const Byte *page_base)
    {
        return page_gen_base_ +
               (static_cast<PhysAddr>(page_base - ram_base_) >>
                kPageShift);
    }

    PhysicalMemory &memory() { return memory_; }

  private:
    friend class Cpu;

    /**
     * Disable (true) or re-enable (false) the host fast path; only
     * Cpu::setExecTier calls it, so the reference path is on exactly
     * on the reference tier.  The reference path keeps the full
     * translate()-per-byte walk for lockstep equivalence testing;
     * both paths must produce bit-identical architectural state and
     * counters.
     */
    void setReferencePath(bool on) { fast_enabled_ = !on; }

    /**
     * Walk the page tables for @p va.  Shared machinery beneath both
     * translate() and probe().  Never faults; returns a status.
     * @param fill_tlb true to install the result in the TLB.
     */
    ProbeResult walk(VirtAddr va, AccessType type, AccessMode mode,
                     bool fill_tlb);

    /**
     * The full translation including TLB fill, hardware M-set and the
     * failure-statistics updates, returning a status instead of
     * faulting.  translateSlow() is this plus raiseFault(); the
     * tryRead/tryWrite helpers use it directly so the VMM exit path
     * never throws.
     */
    MmStatus resolve(VirtAddr va, AccessType type, AccessMode mode,
                     PhysAddr *pa);

    /**
     * Raise the GuestFault corresponding to a walk failure.  Pure
     * throw: the per-fault statistics are counted by resolve().
     */
    [[noreturn]] void raiseFault(MmStatus status, VirtAddr va,
                                 AccessType type);

    // Reference path / fast-path fallbacks (mmu.cc).
    PhysAddr translateSlow(VirtAddr va, AccessType type, AccessMode mode);
    Byte readV8Slow(VirtAddr va, AccessMode mode);
    Word readV16Slow(VirtAddr va, AccessMode mode);
    Longword readV32Slow(VirtAddr va, AccessMode mode);
    void writeV8Slow(VirtAddr va, Byte value, AccessMode mode);
    void writeV16Slow(VirtAddr va, Word value, AccessMode mode);
    void writeV32Slow(VirtAddr va, Longword value, AccessMode mode);
    bool tryReadV32Slow(VirtAddr va, AccessMode mode, Longword *value,
                        MmStatus *status);
    bool tryWriteV32Slow(VirtAddr va, Longword value, AccessMode mode,
                         MmStatus *status);

    PhysicalMemory &memory_;
    const CostModel &cost_;
    Stats &stats_;
    MmuRegisters regs_;
    Tlb tlb_;
    bool modify_fault_mode_ = false;

    // Host fast path state (see class comment).
    bool fast_enabled_ = true;
    Byte *ram_base_ = nullptr;
    Longword ram_limit_ = 0;
    std::uint32_t *page_gen_base_ = nullptr; //!< per-page write counters
};

} // namespace vvax

#endif // VVAX_MEMORY_MMU_H
