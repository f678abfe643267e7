/**
 * @file
 * Virtual machine snapshot and restore.
 *
 * A VM's complete architectural state is its VM-physical memory, its
 * virtualized privileged registers, its saved execution context and
 * its virtual-device state.  Notably *absent* are the shadow page
 * tables: under the paper's null-PTE discipline (Section 4.3.1) they
 * are pure caches of the VM's own page tables, so a restored VM
 * simply re-faults them in on demand.  A snapshot taken on one
 * hypervisor instance can be restored on another (e.g. a freshly
 * booted machine), which is the 1991 equivalent of cold migration.
 *
 * Snapshots must be taken while the VM is suspended (between
 * Hypervisor::run calls, or after a VmMonitor HALT).
 *
 * Restore does not assume anything about how the target machine's RAM
 * or the VM's disk are *backed*: both are policies (plain owned
 * storage or a CoW fork of a golden image, memory/cow_backing.h), and
 * restore only ever writes through the ordinary store funnels, which
 * work identically over either backing.  A snapshot is also the
 * source material for GoldenImage::seal (vmm/golden_image.h), which
 * freezes it into an immutable image that forks share pages with.
 */

#ifndef VVAX_VMM_SNAPSHOT_H
#define VVAX_VMM_SNAPSHOT_H

#include <string>
#include <vector>

#include "vmm/hypervisor.h"

namespace vvax {

struct VmSnapshot
{
    VmConfig config;

    // VM-physical memory and the virtual disk.
    std::vector<Byte> memory;
    std::vector<Byte> disk;

    // Virtualized privileged state.
    std::array<Longword, kNumAccessModes> vSp{};
    Longword vIsp = 0;
    Longword vmpsl = 0;
    Longword vScbb = 0, vPcbb = 0;
    Longword vSbr = 0, vSlr = 0;
    Longword vP0br = 0, vP0lr = 0, vP1br = 0, vP1lr = 0;
    Longword vAstlvl = 4;
    bool vMapen = false;
    Longword vSisr = 0, vTodr = 0;
    Longword vIccs = 0, vNicr = 0;
    std::int64_t vIcr = 0;

    // Execution context.
    VirtAddr savedPc = 0;
    Longword savedRealPsl = 0;
    std::array<Longword, kNumRegs> savedRegs{};
    bool started = false;
    bool waiting = false;
    Longword waitQuantaRemaining = 0;
    VmHaltReason haltReason = VmHaltReason::None;

    // Pending virtual interrupts and device state.
    std::vector<VirtualInterrupt> pendingInts;
    std::string consoleOutput;
    Longword uptimeMailbox = 0;
};

/**
 * Capture @p vm (which must be suspended: the hypervisor is not
 * inside run()).
 */
VmSnapshot snapshotVm(Hypervisor &hv, const VirtualMachine &vm);

/**
 * Create a new VM on @p hv and load @p snap into it.  The new VM is
 * immediately in the snapshot's run state (runnable, waiting or
 * halted).
 */
VirtualMachine &restoreVm(Hypervisor &hv, const VmSnapshot &snap);

/**
 * Copy @p snap's virtualized registers, execution context, run state,
 * pending interrupts and uptime mailbox into @p vm — everything
 * except the memory/disk payloads and the console transcript.  The
 * core of restoreVm, also used by GoldenImage::fork (which gets
 * memory and disk from the sealed image instead of snapshot vectors).
 */
void applyVmSnapshotState(VirtualMachine &vm, const VmSnapshot &snap);

} // namespace vvax

#endif // VVAX_VMM_SNAPSHOT_H
