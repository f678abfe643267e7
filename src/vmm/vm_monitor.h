/**
 * @file
 * The virtual VAX console command interface (paper Section 5:
 * "VAX systems may provide all or a subset of the console's command
 * interface.  We chose a subset adequate for booting and debugging a
 * VM.").
 *
 * Commands (one per call, case-insensitive, >>> prompt implied):
 *
 *   EXAMINE addr            E  - read a VM-physical longword
 *   DEPOSIT addr value      D  - write a VM-physical longword
 *   START addr              S  - (re)start the VM at an address
 *   HALT                    H  - stop the VM
 *   CONTINUE                C  - resume a halted VM where it stopped
 *   BOOT [nblocks]          B  - copy the first blocks of the virtual
 *                                disk to VM-physical 0 and start at
 *                                0x200 (default 64 blocks)
 *   SHOW                       - one-line VM status
 *
 * Addresses and values are hexadecimal.
 */

#ifndef VVAX_VMM_VM_MONITOR_H
#define VVAX_VMM_VM_MONITOR_H

#include <string>
#include <vector>

#include "vmm/hypervisor.h"
#include "vmm/snapshot.h"

namespace vvax {

class VmMonitor
{
  public:
    VmMonitor(Hypervisor &hv, VirtualMachine &vm) : hv_(hv), vm_(vm) {}

    /** Execute one console command; returns the response line. */
    std::string command(std::string_view line);

  private:
    Hypervisor &hv_;
    VirtualMachine &vm_;
};

struct VmSupervisorConfig
{
    /** Instructions run between supervisor polls. */
    std::uint64_t sliceInstructions = 20000;
    /** Restarts allowed per watched VM before giving up on it. */
    int restartBudget = 3;
};

/**
 * Crash containment with in-place restart (DESIGN.md Section 7e).
 *
 * The paper's security-kernel argument is that a VM can only destroy
 * itself: the VMM converts every guest-induced disaster into a halt
 * of that one VM.  VmSupervisor closes the availability half of that
 * argument - it snapshots each watched VM once, at watch(), and when
 * one halts with a restartable() reason rolls it back in place to
 * that snapshot (restoreVmInPlace) and lets it continue, within a
 * bounded restart budget.  Recovery is crash-only: every restart
 * returns to the same state, never to a snapshot of a later moment.
 * Unwatched VMs and VMs that halt cleanly (HaltInstruction: the
 * guest OS asked to stop) are never restarted.
 */
class VmSupervisor
{
  public:
    VmSupervisor(Hypervisor &hv, VmSupervisorConfig config = {})
        : hv_(hv), config_(config)
    {
    }

    /**
     * Begin supervising @p vm, taking the snapshot every restart
     * returns to now (the VM must be in a state worth restoring to -
     * typically just after startVm or a known-good checkpoint).
     */
    void watch(VirtualMachine &vm);

    /**
     * One supervision pass: restart watched VMs that halted with a
     * restartable reason (budget permitting).  Returns the number of
     * restarts performed.  The hypervisor must be outside run().
     */
    int poll();

    /**
     * Run the hypervisor in slices, polling between slices, until all
     * VMs are done (halted with no restart forthcoming) or
     * @p max_instructions have executed.
     */
    RunState runSupervised(std::uint64_t max_instructions);

    /** Restarts performed over this supervisor's lifetime. */
    std::uint64_t restarts() const { return restarts_; }

  private:
    struct Watched
    {
        VirtualMachine *vm;
        VmSnapshot snap; //!< taken at watch(); every restart restores it
        int restartsLeft;
    };

    Hypervisor &hv_;
    VmSupervisorConfig config_;
    std::vector<Watched> watched_;
    std::uint64_t restarts_ = 0;
};

} // namespace vvax

#endif // VVAX_VMM_VM_MONITOR_H
