/**
 * @file
 * The virtual machine monitor (the paper's security kernel VMM).
 *
 * The Hypervisor takes ownership of a modified-microcode RealMachine:
 * it installs the real SCB (every vector dispatches to a VMM
 * handler), reserves real kernel mode for itself, carves real memory
 * into per-VM slices, and runs virtual machines in the three outer
 * rings using ring compression (Section 4.1) and shadow page tables
 * (Section 4.3.1).
 *
 * Every VMM software path charges a modelled cycle cost from the
 * machine's CostModel, so the cycle accounting of a virtualized run
 * is directly comparable with a bare-machine run of the same guest
 * (see DESIGN.md Sections 1 and 6).
 */

#ifndef VVAX_VMM_HYPERVISOR_H
#define VVAX_VMM_HYPERVISOR_H

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/machine.h"
#include "vmm/ring_compression.h"
#include "vmm/vm_state.h"

namespace vvax {

struct HypervisorConfig
{
    /** VM S-space limit, in pages ("virtual memory limits", Sec. 5). */
    Longword vmSMaxPages = 4096;
    /** Per-process P0 page table limit, in PTEs. */
    Longword p0MaxPtes = 4096;
    /** Per-process P1 page table limit, in PTEs. */
    Longword p1MaxPtes = 256;
    /**
     * Shadow process page table sets kept per VM.  Values > 1 enable
     * the multi-process shadow table cache of Section 7.2; with the
     * cache disabled the single set is flushed on every address space
     * change, reproducing the pre-optimization behaviour.
     */
    int shadowSlotsPerVm = 8;
    bool shadowTableCache = true;
    /**
     * Shadow PTEs filled per page fault (Section 4.3.1's anticipation
     * experiment).  1 = pure on-demand, the design the paper shipped.
     */
    Longword prefillGroup = 1;
    /** Real timer tick, in cycles. */
    Longword tickCycles = 10000;
    /** Scheduler quantum, in ticks. */
    Longword ticksPerQuantum = 4;
    /**
     * Advertise and service the kDiskBatch descriptor-ring KCALL
     * (docs/ARCHITECTURE.md §4b).  Off: kQueryFeatures omits the
     * feature bit and kDiskBatch returns kError, so guests fall back
     * to per-transfer KCALLs — the unbatched comparison baseline.
     */
    bool diskBatchKcall = true;
    /**
     * Coalesce VM console output: TXDB writes append to a per-VM
     * buffer flushed at quantum end, scheduling exits and every
     * guest-visible console synchronization point.
     */
    bool consoleCoalescing = true;
    /**
     * No-forward-progress watchdog: a VM that stays at or above
     * watchdogIplThreshold with no deliverable virtual interrupt for
     * watchdogQuanta full quanta is halted with VmHaltReason::VmmPolicy
     * (a spinning-at-high-IPL guest can never be revived by an
     * interrupt, so the VMM reclaims its processor share).
     */
    bool watchdog = false;
    Longword watchdogQuanta = 8;
    Byte watchdogIplThreshold = 16;
};

class Hypervisor
{
  public:
    Hypervisor(RealMachine &machine, HypervisorConfig config = {});
    ~Hypervisor();

    /** Create a VM; its memory/disk are allocated immediately. */
    VirtualMachine &createVm(const VmConfig &config);

    int numVms() const { return static_cast<int>(vms_.size()); }
    VirtualMachine &vm(int index) { return *vms_[index]; }

    /** Copy a boot image into VM-physical memory. */
    void loadVmImage(VirtualMachine &vm, PhysAddr vm_pa,
                     std::span<const Byte> image);
    /** Copy data onto the VM's virtual disk. */
    void loadVmDisk(VirtualMachine &vm, Longword block,
                    std::span<const Byte> data);

    /**
     * Mark the VM runnable, starting in its kernel mode with memory
     * mapping disabled at VM-physical address @p start_pc - exactly
     * how a real VAX comes out of its boot ROM.
     */
    void startVm(VirtualMachine &vm, VirtAddr start_pc);

    /** Run the machine until all VMs halt or the instruction budget. */
    RunState run(std::uint64_t max_instructions);

    /** Type into a VM's virtual console.  Owning-thread only. */
    void injectConsoleInput(VirtualMachine &vm, std::string_view text);

    /**
     * Thread-safe console input: callable from any host thread while
     * the VM runs on a worker.  The text lands in a mailbox the
     * owning thread drains at timer ticks; delivery waits until the
     * hypervisor's tick count reaches @p at_tick (0 = next tick).
     * Posting against a virtual tick makes cross-thread input
     * deterministic: a message posted before the run with at_tick = T
     * is delivered at the same guest instruction whatever the worker
     * count or wall-clock interleaving.
     */
    void postConsoleInput(VirtualMachine &vm, std::string text,
                          Longword at_tick = 0);

    /**
     * Bank the currently executing VM's context into its state block
     * and idle the machine.  Call before inspecting or snapshotting a
     * VM after run() returned on an instruction budget (a normal
     * scheduling exit already leaves every VM suspended).
     */
    void suspendAll();

    RealMachine &machine() { return machine_; }
    const HypervisorConfig &config() const { return config_; }

    /** S-space address where the VMM region begins (Figure 2). */
    VirtAddr vmmBoundary() const
    {
        return kSystemBase + config_.vmSMaxPages * kPageSize;
    }

    /** Aggregate statistics over all VMs. */
    VmStats totalStats() const;

    /** DMA between the VM's virtual disk and its VM-physical memory.
     *  Public for host-side tooling and the fault-injection tests;
     *  guests reach it through the KCALL/MMIO paths. */
    bool vmDiskTransfer(VirtualMachine &vm, bool write, Longword block,
                        Longword count, PhysAddr vm_addr);
    /** Service a kDiskBatch descriptor ring in one exit (per-
     *  descriptor status semantics in vmm/kcall.h). */
    bool vmDiskTransferBatch(VirtualMachine &vm, PhysAddr ring,
                             Longword n_desc);

  private:
    // ----- Layout ----------------------------------------------------------
    PhysAddr allocPages(Longword pages);
    void buildRealScb();
    void buildVmTables(VirtualMachine &vm);

    // ----- Scheduling (hypervisor.cc) --------------------------------------
    void hookTimer(const HostFrame &frame);
    void suspendCurrent(VirtAddr pc, Psl real_psl);
    void loadAndRun(VirtualMachine &vm);
    /** Pick the next runnable VM (round robin); idle if none. */
    void scheduleNext();
    bool vmRunnable(const VirtualMachine &vm) const;
    void enterIdle();
    void haltVm(VirtualMachine &vm, VmHaltReason reason);
    /**
     * Resume the current VM at @p pc / @p real_psl, first delivering
     * any deliverable virtual interrupt.
     */
    void continueVm(VirtualMachine &vm, VirtAddr pc, Psl real_psl);

    // ----- Shadow page tables (vmm_memory.cc) -------------------------------
    struct VmWalkResult
    {
        enum class Status : Byte {
            Ok,              //!< vmPte is the VM's PTE for the page
            ReflectAcv,      //!< deliver ACV to the VM
            ReflectTnv,      //!< deliver TNV to the VM
            HaltVm,          //!< VM-physical reference out of range
        };
        Status status = Status::Ok;
        Longword faultParam = 0; //!< mm fault parameter for reflection
        Pte vmPte;
        PhysAddr vmPteAddr = 0;  //!< VM-physical address of the VM PTE
    };
    /** Software walk of the VM's page tables for @p va. */
    VmWalkResult walkVmTables(VirtualMachine &vm, VirtAddr va,
                              AccessType type, AccessMode real_mode);

    /** Where the shadow PTE for @p va lives in real memory. */
    PhysAddr shadowPtePa(VirtualMachine &vm, VirtAddr va) const;

    enum class FillResult : Byte { Filled, Reflected, Halted };
    /**
     * Handle a translation fault taken while @p vm was running:
     * fill the shadow PTE (plus prefill neighbours), reflect the
     * fault into the VM, or halt the VM.
     */
    FillResult handleShadowFault(VirtualMachine &vm, VirtAddr va,
                                 AccessType type, AccessMode real_mode,
                                 VirtAddr pc, Psl real_psl);
    void fillShadowPte(VirtualMachine &vm, VirtAddr va, Pte shadow);
    void flushShadowSlot(VirtualMachine &vm, int slot);
    void flushShadowS(VirtualMachine &vm);
    /** Batch-write @p count null shadow PTEs at real address @p pa. */
    void fillNullPtes(PhysAddr pa, Longword count);
    /** Select (cache) the shadow slot for the VM's current process. */
    void activateProcessSlot(VirtualMachine &vm, Longword process_key);
    void setRealMapForVm(VirtualMachine &vm);
    /**
     * Re-apply @p vm's current (system, process-slot) TLB contexts
     * after a shadow flush changed them while the VM's map stayed
     * loaded (guest SBR/SLR/TBIA emulation).
     */
    void applyTlbContext(VirtualMachine &vm);

    void hookMemoryFault(const HostFrame &frame, ScbVector kind);
    void hookModifyFault(const HostFrame &frame);
    void hookMachineCheck(const HostFrame &frame);

    // ----- VM virtual memory access helpers ---------------------------------
    bool vmReadVirt32(VirtualMachine &vm, VirtAddr va, Longword &out);
    bool vmWriteVirt32(VirtualMachine &vm, VirtAddr va, Longword value);
    Longword vmReadPhys32(VirtualMachine &vm, PhysAddr vm_pa);
    void vmWritePhys32(VirtualMachine &vm, PhysAddr vm_pa,
                       Longword value);

    // ----- Emulation (vmm_emulate.cc) ---------------------------------------
    void hookVmEmulation(const HostFrame &frame);
    void hookForwardFault(const HostFrame &frame);
    void emulateChm(VirtualMachine &vm, const VmTrapFrame &t);
    void emulateRei(VirtualMachine &vm, const VmTrapFrame &t);
    void emulateMtpr(VirtualMachine &vm, const VmTrapFrame &t);
    void emulateMfpr(VirtualMachine &vm, const VmTrapFrame &t);
    void emulateLdpctx(VirtualMachine &vm, const VmTrapFrame &t);
    void emulateSvpctx(VirtualMachine &vm, const VmTrapFrame &t);
    void emulateProbe(VirtualMachine &vm, const VmTrapFrame &t);
    void emulateWait(VirtualMachine &vm, const VmTrapFrame &t);

    // ----- Services (vmm_services.cc) ----------------------------------------
    /**
     * Push an exception/interrupt frame through the VM's SCB and
     * switch the VM to the handler (Sections 4.2.2/4.2.3).
     * @param as_interrupt raises the VM's IPL to @p new_ipl.
     */
    bool reflectToVm(VirtualMachine &vm, Word vector,
                     const Longword *params, int n_params, VirtAddr pc,
                     Psl vm_psl, bool as_interrupt, Byte new_ipl);
    /**
     * General frame push into the VM: exceptions and interrupts go to
     * the VM's kernel (or interrupt) stack; CHM goes to the target
     * mode's stack.  @p new_ipl >= 0 raises the VM's IPL (interrupt
     * delivery).  @return false if the VM had to be halted.
     */
    bool dispatchIntoVm(VirtualMachine &vm, Word vector,
                        AccessMode target_mode, bool use_scb_is_bit,
                        const Longword *params, int n_params,
                        VirtAddr pc, Psl vm_psl, int new_ipl);
    bool deliverPendingInterrupt(VirtualMachine &vm, VirtAddr pc,
                                 Psl real_psl);
    void kcall(VirtualMachine &vm, Longword function);
    void serviceVirtualConsole(VirtualMachine &vm, Ipr which,
                               Longword value, bool write,
                               Longword &read_value);
    /** Drain @p vm's coalesced console output into the device. */
    void flushConsoleOutput(VirtualMachine &vm);
    void accrueVirtualClock(VirtualMachine &vm, Cycles cycles);
    void syncStackPointersFromCpu(VirtualMachine &vm);
    void installStackPointers(VirtualMachine &vm);
    /** The VM stack pointer slot for a mode (incl. interrupt stack). */
    Longword &vmActiveSp(VirtualMachine &vm);
    /** Rebuild the real PSL that runs the VM in its current state. */
    Psl realPslForVm(const VirtualMachine &vm, Longword psw_bits) const;
    void updatePendingIplHint(VirtualMachine &vm);

    /** MMIO-mode virtual disk register emulation (Section 4.4.3). */
    class VmMmioDisk;

    void charge(CycleCategory cat, Cycles n)
    {
        machine_.cpu().chargeCycles(cat, n);
    }

    RealMachine &machine_;
    HypervisorConfig config_;
    Cpu &cpu_;
    Mmu &mmu_;
    PhysicalMemory &mem_;

    Longword allocNextPage_ = 0;
    Longword sptEntries_ = 0;
    bool mapActive_ = false;
    PhysAddr realScbPa_ = 0;
    PhysAddr idlePagePa_ = 0;
    VirtAddr idleVa_ = 0;

    std::vector<std::unique_ptr<VirtualMachine>> vms_;
    std::vector<std::unique_ptr<VmMmioDisk>> mmioDisks_;
    int currentVm_ = -1;
    bool idle_ = true;
    Longword tickCount_ = 0;
    Longword quantumStartTick_ = 0;
    std::uint64_t slotUseCounter_ = 0;

    // ----- Cross-thread mailbox ---------------------------------------------
    // Everything else in the hypervisor is owned by the one thread
    // running it; these members are the only cross-thread surface.
    // post* appends under the mutex and arms the flag; hookTimer
    // checks the flag (cheap atomic load on every tick) and drains
    // due entries on the owning thread.
    struct MailboxEntry
    {
        int vmIndex;
        std::string text; //!< console input
        Longword atTick = 0;
        bool delayed = false; //!< already hit by a mailbox-delay fault
    };
    void drainMailbox();
    std::atomic<bool> mailboxArmed_{false};
    std::mutex mailboxMutex_;
    std::vector<MailboxEntry> mailbox_;
};

} // namespace vvax

#endif // VVAX_VMM_HYPERVISOR_H
