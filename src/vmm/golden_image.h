/**
 * @file
 * Golden images: seal a suspended VM into an immutable, page-aligned
 * image and fork new VMs from it in O(pages-touched).
 *
 * Sealing captures three things: the whole machine's RAM and the VM's
 * disk as SealedRegions (memory/cow_backing.h), and the VM's
 * virtualized register / device / run state as a payload-free
 * VmSnapshot.  A fork builds a brand-new (machine, hypervisor, VM)
 * stack whose RAM is a MAP_PRIVATE view of the sealed image: the host
 * kernel copy-on-writes pages beneath the fixed mapping, so fork cost
 * and per-fork resident memory are proportional to the pages the fork
 * actually writes, while `pageBase()` pointers stay stable — the
 * invariant the TLB, block cache and threaded tier rely on.  The
 * fork's disk is a CoW view of the sealed disk the same way.
 *
 * Sealing whole-machine RAM (not just the VM's slice) is safe because
 * fork reconstruction deterministically rewrites every VMM metadata
 * page the original hypervisor ever wrote — the real SCB, the idle
 * page, the shadow SPT's null PTEs and the slot tables all come from
 * the fresh Hypervisor/createVm run, at the same real addresses
 * (allocPages is a sequential bump allocator fed the same configs) —
 * and the VM's memory region itself is never written during
 * construction, so it stays shared.  Those rewrites are the
 * "pages-touched" floor of a fork: a few hundred KB of tables against
 * megabytes of guest image.
 *
 * Forks are deterministic: page-generation counters and VmStats start
 * fresh at zero (so SMC detection, CoW accounting and fault-plan
 * ordinals are per-VM and independent of fork order), and two forks
 * of the same image run bit-identically — also bit-identically to
 * restoreVm of the equivalent snapshot onto a fresh machine.
 */

#ifndef VVAX_VMM_GOLDEN_IMAGE_H
#define VVAX_VMM_GOLDEN_IMAGE_H

#include <memory>

#include "core/machine.h"
#include "memory/cow_backing.h"
#include "vmm/snapshot.h"

namespace vvax {

/** One forked VM: a complete private machine stack.  The VM pointer
 *  lives inside the hypervisor; the structs own everything. */
struct GoldenFork
{
    std::unique_ptr<RealMachine> machine;
    std::unique_ptr<Hypervisor> hv;
    VirtualMachine *vm = nullptr;
};

class GoldenImage
{
  public:
    GoldenImage() = default;

    /**
     * Seal @p vm (which must be @p hv's only VM — whole-machine RAM
     * is part of the image, so a sibling's state would leak into
     * every fork).  Suspends and drains the VM via snapshotVm; the
     * source machine can be discarded afterwards, the image owns
     * copies of everything.
     *
     * If the source machine carries a FaultPlan with a HostAlloc rule
     * firing at the seal (ordinal 0, keyed on the sealed VM's fault
     * id), the memfd path is forced to fail and the image comes back
     * heap-backed — the documented fallback, counted in
     * Stats::faultsInjected.
     */
    static GoldenImage seal(Hypervisor &hv, VirtualMachine &vm);

    bool sealed() const { return ram_.valid(); }

    /**
     * Fork-lineage identity (satellite of docs/ARCHITECTURE.md §6d):
     * the j-th fork of this image taken by HypervisorFleet::
     * addForkedMember gets fault-plan identity lineage()+j, stable
     * across fleet composition and across microreboots — a re-forked
     * member replays the same injection schedule no matter what else
     * joined the fleet before it.  Defaults to 0.
     */
    int lineage() const { return lineage_; }
    void setLineage(int lineage) { lineage_ = lineage; }

    /**
     * Fork a new VM.  @p fault_vm_id overrides the forked VM's
     * fault-plan identity (HypervisorFleet passes the fleet-wide
     * member index, matching addVm semantics); -1 keeps the sealed
     * config's.  @p backing selects kernel CoW vs eager copy.
     */
    GoldenFork fork(int fault_vm_id = -1,
                    CowBacking backing = CowBacking::Auto) const;

    /** true when forks will physically share untouched pages. */
    bool kernelBacked() const { return ram_.kernelBacked(); }
    std::size_t ramBytes() const { return ram_.size(); }
    std::size_t diskBytes() const { return disk_.size(); }
    const MachineConfig &machineConfig() const { return machineConfig_; }

  private:
    int lineage_ = 0;
    MachineConfig machineConfig_;
    HypervisorConfig hvConfig_;
    VmSnapshot state_; //!< registers/devices only; memory+disk cleared
    Pfn basePfn_ = 0;
    Longword memPages_ = 0;
    SealedRegion ram_;  //!< whole machine RAM at the seal point
    SealedRegion disk_; //!< the VM's disk image at the seal point
};

} // namespace vvax

#endif // VVAX_VMM_GOLDEN_IMAGE_H
