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

#include "vmm/hypervisor.h"

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

} // namespace vvax

#endif // VVAX_VMM_VM_MONITOR_H
