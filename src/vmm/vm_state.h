/**
 * @file
 * Per-virtual-machine state maintained by the VMM: the virtualized
 * privileged registers, the VM's slice of real memory, shadow page
 * table bookkeeping, pending virtual interrupts, virtual devices and
 * per-VM statistics.
 */

#ifndef VVAX_VMM_VM_STATE_H
#define VVAX_VMM_VM_STATE_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "arch/psl.h"
#include "arch/types.h"
#include "dev/console.h"
#include "memory/cow_backing.h"

namespace vvax {

/**
 * The VM's virtual disk: a flat byte image (the KCALL paths hold raw
 * data() pointers, so the storage address is stable for the life of
 * the VM) whose backing is a policy, like RAM's.
 * A plain VM owns zero-filled storage; a golden-image fork is a
 * copy-on-write view of the sealed base disk, with a block-keyed dirty
 * bitmap recording the fork's private overlay.  Every host-side write
 * funnel into the image (KCALL and batch transfers, loadVmDisk)
 * calls markWritten(), which counts each block's first write into a
 * CowResidency, so blocksTouched()/privateBytes() account the overlay
 * exactly and in O(1).
 */
class VmDisk
{
  public:
    /** Fresh zero-filled storage of @p bytes (drops any CoW backing). */
    void
    resize(std::size_t bytes)
    {
        view_ = CowView::anonymous(bytes);
        resetDirty();
    }

    /** Back the disk with a private CoW view of the sealed @p base. */
    void
    adoptCow(const SealedRegion &base, CowBacking policy = CowBacking::Auto)
    {
        view_ = CowView::forkOf(base, policy);
        resetDirty();
    }

    /** Replace the contents with a private copy of @p bytes. */
    void
    assign(std::span<const Byte> bytes)
    {
        resize(bytes.size());
        std::memcpy(view_.data(), bytes.data(), bytes.size());
    }

    std::size_t size() const { return view_.size(); }
    Byte *data() { return view_.data(); }
    const Byte *data() const { return view_.data(); }
    operator std::span<const Byte>() const { return {data(), size()}; }

    /** Record a host-side write of @p count blocks starting at @p block. */
    void
    markWritten(std::size_t block, std::size_t count)
    {
        const std::size_t end = std::min(block + count, dirty_.size());
        for (std::size_t b = block; b < end; ++b) {
            if (!dirty_[b]) {
                dirty_[b] = 1;
                residency_.firstTouch(dirty_.data(), dirty_.size(), b);
            }
        }
    }

    bool forked() const { return view_.forked(); }
    bool kernelCow() const { return view_.kernelCow(); }
    /** Distinct blocks written since resize/adoptCow. */
    std::size_t blocksTouched() const { return residency_.unitsTouched(); }

    /**
     * Host-page-rounded private resident bytes: under kernel CoW, the
     * host pages containing at least one dirty block; otherwise the
     * whole image.
     */
    std::size_t
    privateBytes() const
    {
        return residency_.privateBytes(view_.size(), kernelCow());
    }

    std::size_t
    sharedBytes() const
    {
        return kernelCow() ? view_.size() - privateBytes() : 0;
    }

  private:
    void
    resetDirty()
    {
        dirty_.assign((view_.size() + 511) / 512, 0);
        residency_.reset();
    }

    static_assert(CowResidency::kUnitBytes == 512,
                  "CoW residency counts the disk in 512-byte blocks");

    CowView view_;
    std::vector<Byte> dirty_;  //!< per-block "written since fork" bits
    CowResidency residency_;   //!< counted at each dirty_ 0 -> 1
};

/** How the VM's disk I/O is virtualized (paper Section 4.4.3). */
enum class VmIoMode : Byte {
    Kcall, //!< explicit start-I/O via the KCALL register (the design)
    Mmio,  //!< emulated memory-mapped registers (the costly baseline)
};

struct VmConfig
{
    std::string name = "vm";
    Longword memBytes = 1024 * 1024; //!< VM-physical memory
    Longword diskBlocks = 512;
    VmIoMode ioMode = VmIoMode::Kcall;
    /**
     * Wait timeout in VMM quanta: a WAITing VM becomes runnable again
     * after this many quanta even without an event (paper footnote:
     * "WAIT times out after some seconds").
     */
    Longword waitTimeoutQuanta = 50;
    /**
     * Identity used by fault-injection plans (fault/fault_plan.h
     * `vm=` selectors).  Defaults to the VM's hypervisor-local id;
     * a HypervisorFleet overrides it with the fleet-wide index so a
     * plan targets the same VM whether the fleet runs on one machine
     * or one machine per member (every member's only VM has local
     * id 0).
     */
    int faultVmId = -1;
};

/** Why a VM stopped (Section 5: errors halt the virtual machine). */
enum class VmHaltReason : Byte {
    None = 0,
    HaltInstruction,      //!< the VMOS executed HALT in kernel mode
    NonExistentMemory,    //!< touched VM-physical memory beyond MEMSIZE
    KernelStackNotValid,  //!< frame push into the VM faulted
    BadPageTable,         //!< VM page table outside the VMM's limits
    VmmPolicy,            //!< the VMM shut it down
    VmmInternal,          //!< VMM invariant violated servicing the VM
};

/**
 * Halt reasons the fleet recovers from by microreboot: the
 * crash-class reasons.  None (healthy) and HaltInstruction (an
 * orderly guest shutdown) are final.
 */
constexpr bool
restartable(VmHaltReason reason)
{
    switch (reason) {
      case VmHaltReason::NonExistentMemory:
      case VmHaltReason::KernelStackNotValid:
      case VmHaltReason::BadPageTable:
      case VmHaltReason::VmmPolicy:
      case VmHaltReason::VmmInternal:
        return true;
      default:
        return false;
    }
}

/** A pending virtual interrupt (device-level). */
struct VirtualInterrupt
{
    Byte ipl;
    Word vector;
};

/**
 * Per-VM statistics the benchmarks report, generated from one field
 * list so the declaration, the merge (operator+=) and equality can
 * never drift apart: Hypervisor::totalStats once hand-listed every
 * field and silently dropped newly added counters.  Field groups:
 *
 *   vmEntries .. consoleChars      - emulation/exit accounting
 *   mmioExits .. coalescedConsoleChars - batched virtual-I/O layer
 *                                    (docs/ARCHITECTURE.md §4b):
 *                                    device-register exits, kDiskBatch
 *                                    invocations / blocks moved, TXDB
 *                                    chars buffered
 *   diskOps .. watchdogHalts       - fault injection and recovery
 *                                    (fault/fault_plan.h): transfer
 *                                    attempts, injected failures, disk
 *                                    KCALLs re-issued after a failure,
 *                                    machine checks reflected in,
 *                                    no-forward-progress halts
 *   mailboxDeliveries              - cross-thread mailbox entries that
 *                                    reached their delivery tick; the
 *                                    per-VM ordinal mailbox-delay
 *                                    fault rules key on
 */
#define VVAX_VM_STATS_FIELDS(X)                                        \
    X(vmEntries)                                                       \
    X(emulationTraps)                                                  \
    X(chmEmulations)                                                   \
    X(reiEmulations)                                                   \
    X(mtprEmulations)                                                  \
    X(mtprIplEmulations)                                               \
    X(mfprEmulations)                                                  \
    X(ldpctxEmulations)                                                \
    X(svpctxEmulations)                                                \
    X(probeEmulations)                                                 \
    X(shadowFills)                                                     \
    X(shadowFaults)                                                    \
    X(modifyFaults)                                                    \
    X(reflectedExceptions)                                             \
    X(privilegedForwards)                                              \
    X(virtualInterrupts)                                               \
    X(kcalls)                                                          \
    X(kcallIos)                                                        \
    X(mmioEmulations)                                                  \
    X(waits)                                                           \
    X(contextSwitches)                                                 \
    X(shadowCacheHits)                                                 \
    X(shadowCacheMisses)                                               \
    X(consoleChars)                                                    \
    X(mmioExits)                                                       \
    X(diskKcallBatches)                                                \
    X(batchedDiskBlocks)                                               \
    X(coalescedConsoleChars)                                           \
    X(diskOps)                                                         \
    X(faultedDiskOps)                                                  \
    X(diskRetries)                                                     \
    X(machineChecks)                                                   \
    X(watchdogHalts)                                                   \
    X(mailboxDeliveries)

struct VmStats
{
#define VVAX_VM_STATS_DECLARE(name) std::uint64_t name = 0;
    VVAX_VM_STATS_FIELDS(VVAX_VM_STATS_DECLARE)
#undef VVAX_VM_STATS_DECLARE

    VmStats &
    operator+=(const VmStats &other)
    {
#define VVAX_VM_STATS_ADD(name) name += other.name;
        VVAX_VM_STATS_FIELDS(VVAX_VM_STATS_ADD)
#undef VVAX_VM_STATS_ADD
        return *this;
    }

    bool operator==(const VmStats &other) const = default;
};

// A field that bypasses the X-macro would compile but silently skip
// the merge; the size check makes the mistake a build error instead.
namespace detail {
#define VVAX_VM_STATS_COUNT(name) +1
constexpr int kNumVmStatsFields = VVAX_VM_STATS_FIELDS(VVAX_VM_STATS_COUNT);
#undef VVAX_VM_STATS_COUNT
} // namespace detail
static_assert(sizeof(VmStats) ==
                  detail::kNumVmStatsFields * sizeof(std::uint64_t),
              "every VmStats field must come from VVAX_VM_STATS_FIELDS");

/** One cached set of shadow process page tables (Section 7.2). */
struct ShadowSlot
{
    bool inUse = false;
    Longword processKey = 0;  //!< the VM's PCBB value (process identity)
    std::uint64_t lastUsed = 0;
    PhysAddr p0TablePa = 0;   //!< real address of the shadow P0 table
    PhysAddr p1TablePa = 0;
    VirtAddr p0TableVa = 0;   //!< S-space address hardware uses
    VirtAddr p1TableVa = 0;
    /**
     * Process-half TLB context for this slot's translations.  A fresh
     * context is allocated whenever the slot's shadow tables are
     * wiped (recycled to another process, TBIA, BR/LR change), so
     * stale real-TLB entries can never outlive the shadow PTEs they
     * mirror; re-activating the slot re-applies the context and the
     * surviving entries come back.
     */
    std::uint64_t tlbCtx = 0;
    /**
     * The real P0LR/P1LR loaded the last time this slot's context was
     * applied.  The real length registers are the only part of the
     * hardware map that varies per activation (they track vP0lr and
     * vP1lr); a TLB entry filled under longer limits must not survive
     * into a shorter map, so a mismatch costs the slot its context.
     */
    Longword savedP0lr = 0;
    Longword savedP1lr = 0;
};

class VirtualMachine
{
  public:
    VirtualMachine(int id, const VmConfig &config)
        : id_(id), config_(config)
    {
        disk.resize(config.diskBlocks * static_cast<std::size_t>(512));
    }

    int id() const { return id_; }
    const VmConfig &config() const { return config_; }
    const std::string &name() const { return config_.name; }
    /** Identity fault-injection plans key on (VmConfig::faultVmId). */
    int faultId() const
    {
        return config_.faultVmId >= 0 ? config_.faultVmId : id_;
    }

    // ----- VM-physical memory -------------------------------------------
    Pfn basePfn = 0;       //!< first real page of the VM's memory
    Longword memPages = 0; //!< VM-physical pages

    bool
    vmPfnValid(Pfn vm_pfn) const
    {
        return vm_pfn < memPages;
    }
    PhysAddr
    vmPhysToReal(PhysAddr vm_pa) const
    {
        return (basePfn << kPageShift) + vm_pa;
    }

    // ----- Virtualized privileged state -----------------------------------
    // Stack pointers for the four VM modes plus the VM's interrupt
    // stack.  The active one lives in the real CPU while the VM runs.
    std::array<Longword, kNumAccessModes> vSp{};
    Longword vIsp = 0;

    Longword vmpsl = 0;    //!< VM current/previous mode, IPL, IS bit
    Longword vScbb = 0;    //!< VM-physical
    Longword vPcbb = 0;    //!< VM-physical
    Longword vSbr = 0;     //!< VM-physical
    Longword vSlr = 0;
    Longword vP0br = 0;    //!< VM-virtual (S space)
    Longword vP0lr = 0;
    Longword vP1br = 0;
    Longword vP1lr = 0x200000;
    Longword vAstlvl = 4;
    bool vMapen = false;
    Longword vSisr = 0;
    Longword vTodr = 0;

    // Virtual interval clock.
    Longword vIccs = 0;
    Longword vNicr = 0;
    std::int64_t vIcr = 0;

    // Saved execution context while not running (PC + real PSL image
    // with the VM bit, exactly what resumes it).
    VirtAddr savedPc = 0;
    Longword savedRealPsl = 0;
    std::array<Longword, kNumRegs> savedRegs{};

    // ----- Run state -------------------------------------------------------
    bool started = false;
    bool waiting = false;       //!< gave up the processor via WAIT
    Longword waitDeadline = 0;  //!< quantum count when WAIT times out
    VmHaltReason haltReason = VmHaltReason::None;
    bool halted() const { return haltReason != VmHaltReason::None; }

    // Fault-recovery bookkeeping.
    bool lastDiskOpFailed = false; //!< previous disk KCALL failed
    Longword watchdogTicks = 0;    //!< consecutive no-progress ticks

    // ----- Virtual interrupts ----------------------------------------------
    std::vector<VirtualInterrupt> pendingInts;

    void
    postInterrupt(Byte ipl, Word vector)
    {
        for (const auto &vi : pendingInts) {
            if (vi.ipl == ipl && vi.vector == vector)
                return;
        }
        pendingInts.push_back(VirtualInterrupt{ipl, vector});
    }

    /** Highest pending IPL, device or software (0 if none). */
    Byte
    highestPendingIpl() const
    {
        Byte best = 0;
        for (const auto &vi : pendingInts)
            best = best > vi.ipl ? best : vi.ipl;
        for (int level = 15; level >= 1; --level) {
            if (vSisr & (1u << level)) {
                if (level > best)
                    best = static_cast<Byte>(level);
                break;
            }
        }
        return best;
    }

    // ----- Shadow page tables ----------------------------------------------
    PhysAddr shadowSptPa = 0;  //!< this VM's real SPT (physical)
    Longword shadowSlr = 0;    //!< real SLR value while this VM runs
    /**
     * System-half TLB context for this VM's S-space translations
     * (see ShadowSlot::tlbCtx); refreshed when the shadow SPT is
     * wiped (guest SBR/SLR change or TBIA).
     */
    std::uint64_t tlbSysCtx = 0;
    std::vector<ShadowSlot> slots;
    int activeSlot = -1;
    /** Identity-map slot used while the VM runs with mapping off. */
    int physModeSlot = -1;

    // ----- Virtual devices ---------------------------------------------------
    ConsoleDevice console;      //!< detached (VMM-serviced) console
    VmDisk disk;                //!< flat image; CoW-forkable (see VmDisk)
    bool consoleRxIe = false;
    bool consoleTxIe = false;
    /**
     * Coalesced console output: TXDB writes land here and reach the
     * console device at the next flush point (quantum end, scheduling
     * exit, or any guest-visible console synchronization — see
     * Hypervisor::flushConsoleOutput).
     */
    std::string pendingConsoleOut;
    /** VM-physical mailbox the VMM stores system uptime into (0: none). */
    Longword uptimeMailbox = 0;

    // MMIO-mode virtual disk registers (paper's costly baseline).
    Pfn mmioWindowPfn = 0; //!< real frame of the register window
    Longword mmioCsr = 0;
    Longword mmioBlock = 0;
    Longword mmioCount = 0;
    Longword mmioAddr = 0;

    VmStats stats;

  private:
    int id_;
    VmConfig config_;
};

} // namespace vvax

#endif // VVAX_VMM_VM_STATE_H
