#include "vmm/golden_image.h"

#include <stdexcept>

#include "fault/fault_plan.h"

namespace vvax {

GoldenImage
GoldenImage::seal(Hypervisor &hv, VirtualMachine &vm)
{
    if (hv.numVms() != 1)
        throw std::invalid_argument(
            "GoldenImage::seal: the sealed VM must be its hypervisor's "
            "only VM (whole-machine RAM is part of the image)");

    // snapshotVm suspends the VM, then captures the register/device
    // state we keep.  Its memory/disk payload vectors are redundant
    // with the sealed regions below; drop them.
    VmSnapshot snap = snapshotVm(hv, vm);

    GoldenImage image;
    image.machineConfig_ = hv.machine().config();
    image.hvConfig_ = hv.config();
    image.basePfn_ = vm.basePfn;
    image.memPages_ = vm.memPages;
    // Host-resource fault (FaultClass::HostAlloc): a plan rule firing
    // at the seal (one decision per seal, ordinal 0) fails the memfd
    // path for both regions, forcing the heap fallback the forks then
    // see as a non-kernel-backed image.  Architecturally invisible —
    // the fallback is bit-identical — but counted, so sweeps can
    // assert the fallback really ran.
    FaultPlan *plan = hv.machine().faultPlan();
    const bool host_fault =
        plan != nullptr &&
        plan->shouldInject(FaultClass::HostAlloc, vm.faultId(), 0);
    if (host_fault) {
        hv.machine().stats().faultsInjected[static_cast<int>(
            FaultClass::HostAlloc)]++;
        setSimulatedHostAllocFailures(2);
    }
    image.ram_ = SealedRegion::seal(hv.machine().memory().ram());
    image.disk_ = SealedRegion::seal(vm.disk);
    if (host_fault)
        setSimulatedHostAllocFailures(0);
    snap.memory.clear();
    snap.memory.shrink_to_fit();
    snap.disk.clear();
    snap.disk.shrink_to_fit();
    image.state_ = std::move(snap);
    return image;
}

GoldenFork
GoldenImage::fork(int fault_vm_id, CowBacking backing) const
{
    if (!sealed())
        throw std::logic_error("GoldenImage::fork: image not sealed");

    GoldenFork f;
    f.machine = std::make_unique<RealMachine>(machineConfig_, ram_, backing);
    f.hv = std::make_unique<Hypervisor>(*f.machine, hvConfig_);

    VmConfig vc = state_.config;
    if (fault_vm_id >= 0)
        vc.faultVmId = fault_vm_id;
    VirtualMachine &vm = f.hv->createVm(vc);

    // Reconstruction must land the VM on the same real pages the
    // sealed machine used, or the shared image bytes would be under
    // the wrong addresses.  allocPages is deterministic given the
    // configs, so a mismatch means the image is stale.
    if (vm.basePfn != basePfn_ || vm.memPages != memPages_)
        throw std::logic_error(
            "GoldenImage::fork: reconstructed VM layout does not match "
            "the sealed image");

    vm.disk.adoptCow(disk_, backing);
    applyVmSnapshotState(vm, state_);
    // Replay the console transcript, as restoreVm does: each fork's
    // console starts as a continuation of the sealed VM's output.
    for (char c : state_.consoleOutput)
        vm.console.writeIpr(Ipr::TXDB, static_cast<Byte>(c));

    // Shadow tables need no treatment: a fresh VM is already all null
    // PTEs, and the first touch of every page refills from the (CoW-
    // shared) VM page tables.  Page generations and VmStats are fresh
    // zeros - the fork's SMC detection, CoW accounting and fault-plan
    // ordinals all start at the fork point.
    f.vm = &vm;
    return f;
}

} // namespace vvax
