#include "vmm/snapshot.h"

namespace vvax {

VmSnapshot
snapshotVm(Hypervisor &hv, const VirtualMachine &vm)
{
    // If the VM is the one the CPU stopped inside of (instruction
    // budget exits leave it live), bank its context first.
    hv.suspendAll();

    VmSnapshot s;
    s.config = vm.config();

    s.memory.resize(vm.memPages * kPageSize);
    hv.machine().memory().readBlock(
        static_cast<PhysAddr>(vm.basePfn) << kPageShift, s.memory);
    s.disk.assign(vm.disk.data(), vm.disk.data() + vm.disk.size());

    s.vSp = vm.vSp;
    s.vIsp = vm.vIsp;
    s.vmpsl = vm.vmpsl;
    s.vScbb = vm.vScbb;
    s.vPcbb = vm.vPcbb;
    s.vSbr = vm.vSbr;
    s.vSlr = vm.vSlr;
    s.vP0br = vm.vP0br;
    s.vP0lr = vm.vP0lr;
    s.vP1br = vm.vP1br;
    s.vP1lr = vm.vP1lr;
    s.vAstlvl = vm.vAstlvl;
    s.vMapen = vm.vMapen;
    s.vSisr = vm.vSisr;
    s.vTodr = vm.vTodr;
    s.vIccs = vm.vIccs;
    s.vNicr = vm.vNicr;
    s.vIcr = vm.vIcr;

    s.savedPc = vm.savedPc;
    s.savedRealPsl = vm.savedRealPsl;
    s.savedRegs = vm.savedRegs;
    s.started = vm.started;
    s.waiting = vm.waiting;
    s.waitQuantaRemaining = 0; // recomputed at restore
    s.haltReason = vm.haltReason;
    s.pendingInts = vm.pendingInts;
    s.consoleOutput = vm.console.output();
    s.uptimeMailbox = vm.uptimeMailbox;
    return s;
}

void
applyVmSnapshotState(VirtualMachine &vm, const VmSnapshot &s)
{
    vm.vSp = s.vSp;
    vm.vIsp = s.vIsp;
    vm.vmpsl = s.vmpsl;
    vm.vScbb = s.vScbb;
    vm.vPcbb = s.vPcbb;
    vm.vSbr = s.vSbr;
    vm.vSlr = s.vSlr;
    vm.vP0br = s.vP0br;
    vm.vP0lr = s.vP0lr;
    vm.vP1br = s.vP1br;
    vm.vP1lr = s.vP1lr;
    vm.vAstlvl = s.vAstlvl;
    vm.vMapen = s.vMapen;
    vm.vSisr = s.vSisr;
    vm.vTodr = s.vTodr;
    vm.vIccs = s.vIccs;
    vm.vNicr = s.vNicr;
    vm.vIcr = s.vIcr;

    vm.savedPc = s.savedPc;
    vm.savedRealPsl = s.savedRealPsl;
    vm.savedRegs = s.savedRegs;
    vm.started = s.started;
    vm.waiting = s.waiting;
    vm.waitDeadline = 0; // wake at the next quantum check
    vm.haltReason = s.haltReason;
    vm.pendingInts = s.pendingInts;
    vm.uptimeMailbox = s.uptimeMailbox;
}

VirtualMachine &
restoreVm(Hypervisor &hv, const VmSnapshot &s)
{
    VirtualMachine &vm = hv.createVm(s.config);

    hv.machine().memory().writeBlock(
        static_cast<PhysAddr>(vm.basePfn) << kPageShift, s.memory);
    vm.disk.assign(s.disk);

    applyVmSnapshotState(vm, s);
    // Replay the console transcript so the restored VM's output is a
    // superset continuation of the original's.
    for (char c : s.consoleOutput)
        vm.console.writeIpr(Ipr::TXDB, static_cast<Byte>(c));

    // The shadow page tables start over as null PTEs (already true
    // for a fresh VM): the first touch of every page re-faults and
    // refills from the restored VM page tables.
    return vm;
}

} // namespace vvax
