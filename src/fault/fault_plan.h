/**
 * @file
 * Deterministic, scriptable fault injection.
 *
 * The paper's system is a security kernel (Section 6): a misbehaving
 * VM must not disturb the VMM or its siblings, and sensitive events
 * like machine checks are reflected into the virtual machine rather
 * than taken by the host.  A FaultPlan exercises exactly those error
 * paths: it decides, purely as a function of (seed, fault class,
 * VM id, architectural ordinal), whether a given operation fails.
 *
 * Because every decision keys on an *architectural* ordinal (the
 * per-VM disk-op count, the global timer-tick count, the mailbox
 * delivery count) and never on host state, the same plan produces
 * bit-identical behaviour on the host fast path and the reference
 * interpreter (VVAX_EXEC_TIER=ref) — injected faults stay inside the
 * lockstep envelope the equivalence tests check.
 *
 * Injection sites (docs/ARCHITECTURE.md Section 6):
 *  - DiskTransient / DiskHard: Hypervisor::vmDiskTransfer (per-VM
 *    disk-op ordinal) and the bare DiskDevice::startTransfer (device
 *    ordinal, vm_id -1).  A hard fault is a bad block range that
 *    fails every overlapping transfer; a transient fault fails one
 *    attempt and lets the retry through.
 *  - TornBatch: Hypervisor::vmDiskTransferBatch — the tail half of
 *    the ring is never serviced (per-descriptor status stays
 *    kBatchStatusNone; see vmm/kcall.h).
 *  - Ecc: a physical-memory error reported while the VM is resident;
 *    the VMM reflects it through SCB vector 0x04 with a machine-check
 *    frame instead of halting the VM.
 *  - SpuriousInterrupt: an unexpected disk-device interrupt posted to
 *    the resident VM.
 *  - MailboxDelay: a due cross-thread mailbox entry (console input or
 *    host interrupt) is held back a deterministic 1..kMaxMailboxDelay
 *    extra ticks before delivery (per-VM delivery ordinal) — delivery
 *    still happens at a deterministic virtual tick, so N-worker runs
 *    stay bit-identical to 1-worker runs.
 *  - HostAlloc: a host-resource failure (memfd_create/mmap/F_SEAL_*)
 *    while sealing or forking a golden image, forcing the documented
 *    heap/eager-copy fallback (memory/cow_backing.h).  Architecturally
 *    invisible by design: the fallback is bit-identical.
 *
 * Plans come from the programmatic API (addRule) or from the
 * VVAX_FAULT_PLAN environment variable, a semicolon-separated spec:
 *
 *   VVAX_FAULT_PLAN="seed=7;disk-transient:vm=0,every=3;ecc:every=16;
 *                    torn:vm=0,every=2;spurious:prob=64;
 *                    disk-hard:vm=1,block=96,nblocks=4,count=2;
 *                    mailbox-delay:every=3;host-alloc:at=0"
 *
 * Clause grammar: `class:key=value,key=value,...` with classes
 * disk-transient | disk-hard | torn | ecc | spurious | mailbox-delay |
 * host-alloc and keys
 *   vm=N      only this VM id (-1 / absent: any VM, and the bare disk)
 *   at=N      fire at exactly ordinal N
 *   every=N   fire when (ordinal + 1) % N == 0
 *   prob=N    fire with probability N/1024, hashed from the seed
 *   count=N   stop after N firings (default: unlimited)
 *   block=N / nblocks=N   disk-hard only: the bad block range
 */

#ifndef VVAX_FAULT_FAULT_PLAN_H
#define VVAX_FAULT_FAULT_PLAN_H

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "arch/types.h"
#include "metrics/stats.h"

namespace vvax {

/** Classes of injectable faults.  Indexes Stats::faultsInjected. */
enum class FaultClass : Byte {
    DiskTransient = 0, //!< one disk op fails; the retry succeeds
    DiskHard,          //!< a block range fails every overlapping op
    TornBatch,         //!< kDiskBatch ring only partially serviced
    Ecc,               //!< physical-memory error while a VM is resident
    SpuriousInterrupt, //!< unexpected device interrupt into the VM
    MailboxDelay,      //!< cross-thread mailbox entry delivered late
    HostAlloc,         //!< memfd/mmap/seal failure; heap-eager fallback
    NumClasses,
};

static_assert(static_cast<int>(FaultClass::NumClasses) == kNumFaultClasses,
              "Stats::faultsInjected is sized by metrics/stats.h; keep "
              "kNumFaultClasses in sync with FaultClass");

std::string_view faultClassName(FaultClass cls);

/**
 * Machine-check code the VMM reports for an injected ECC event.  The
 * virtual machine-check frame (pushed innermost-last through the VM's
 * SCB vector 0x04, interrupt-style at IPL 31) is:
 *
 *   (SP)    byte count of the parameters below the PC/PSL pair (8)
 *   4(SP)   machine-check code (kMcheckCodeEcc)
 *   8(SP)   faulting physical address
 *   12(SP)  PC of the interrupted instruction
 *   16(SP)  PSL of the interrupted context
 *
 * A guest handler that survives the event pops the 12 parameter
 * bytes and REIs.
 */
constexpr Longword kMcheckCodeEcc = 1;
constexpr Longword kMcheckParamBytes = 8;

/** Bound on the deterministic delay a mailbox-delay fault adds.
 *  Small on purpose: a delayed delivery must stay well inside the
 *  virtual-time horizon of a quantum so guests' timeout loops ride it
 *  out rather than declare the device dead. */
constexpr std::uint64_t kMaxMailboxDelayTicks = 4;

/** One injection rule.  Unset selectors never match (see fault_plan.h
 *  header comment for the spec grammar they mirror). */
struct FaultRule
{
    FaultClass cls = FaultClass::DiskTransient;
    int vmId = -1; //!< -1: any VM, and the bare-machine disk
    std::uint64_t at = ~std::uint64_t{0};    //!< exact ordinal
    std::uint64_t every = 0;                 //!< periodic ordinals
    Longword prob = 0;                       //!< per-1024 hashed chance
    std::uint64_t count = ~std::uint64_t{0}; //!< max firings
    Longword block = 0;   //!< DiskHard: first bad block
    Longword nBlocks = 0; //!< DiskHard: bad range length
    std::uint64_t fired = 0;
};

class FaultPlan
{
  public:
    explicit FaultPlan(std::uint64_t seed = 0) : seed_(seed) {}

    std::uint64_t seed() const { return seed_; }
    void setSeed(std::uint64_t seed) { seed_ = seed; }

    FaultRule &addRule(const FaultRule &rule);
    const std::vector<FaultRule> &rules() const { return rules_; }

    /**
     * Should operation number @p ordinal of class @p cls on VM
     * @p vm_id (-1: bare machine) fail?  Deterministic in
     * (seed, cls, vm_id, ordinal); firing rules consume their budget.
     */
    bool shouldInject(FaultClass cls, int vm_id, std::uint64_t ordinal);

    /** Does a DiskHard rule cover any block of [block, block+count)? */
    bool diskRangeBad(int vm_id, Longword block, Longword count);

    /** Deterministic "failing" physical address for an ECC report. */
    Longword eccAddress(int vm_id, std::uint64_t ordinal,
                        Longword mem_bytes) const;

    /**
     * Deterministic delay in [1, max_ticks] for a late-delivery fault
     * (MailboxDelay).  Pure in (seed, cls, vm_id, ordinal),
     * like every other decision.
     */
    std::uint64_t delayTicks(FaultClass cls, int vm_id,
                             std::uint64_t ordinal,
                             std::uint64_t max_ticks) const;

    /**
     * Parse a VVAX_FAULT_PLAN-style spec into @p out.  Returns false
     * (with a message in @p error if non-null) on a malformed spec.
     */
    static bool parse(std::string_view spec, FaultPlan *out,
                      std::string *error);

    /**
     * Plan from the VVAX_FAULT_PLAN environment variable, or nullptr
     * when it is unset.  A malformed spec throws std::invalid_argument
     * — a silently ignored fault plan would make a passing fault
     * sweep meaningless.
     */
    static std::unique_ptr<FaultPlan> fromEnv();

  private:
    bool ruleFires(FaultRule &rule, int vm_id, std::uint64_t ordinal) const;

    std::uint64_t seed_ = 0;
    std::vector<FaultRule> rules_;
};

} // namespace vvax

#endif // VVAX_FAULT_FAULT_PLAN_H
