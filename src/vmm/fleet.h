/**
 * @file
 * HypervisorFleet: run many VMs on host worker threads
 * (docs/ARCHITECTURE.md §7).
 *
 * The Hypervisor multiplexes VMs onto one RealMachine with one host
 * thread; VMs share no mutable state except that scheduler, so the
 * parallelism unit is the (machine, hypervisor) pair.  The fleet
 * gives every VM its own pair - a "member".  run() drains the members
 * on N workers: a worker claims the next unclaimed member and runs
 * its fixed instruction slices back to back until the member is done,
 * then claims another.  No member ever waits on a sibling, and the
 * per-member Stats/VmStats merge once, when run() returns.
 *
 * Determinism is by construction: a member's execution is a pure
 * function of its own machine state, fault plan, and virtual clock,
 * so an N-worker run retires exactly the same per-VM instruction
 * stream as a 1-worker run, and per-VM memory/disk/console digests
 * and Stats are bit-identical across worker counts - including under
 * fault injection, whose decisions key on per-VM architectural
 * ordinals (VmConfig::faultVmId keeps `vm=` plan selectors meaningful
 * when every member's only VM has local id 0).
 *
 * Ownership rules (threading model):
 *  - During run(), a member belongs to the one worker that claimed
 *    it; nothing else may touch its machine, hypervisor, or VM.
 *    Health checks and microreboots run on that worker.
 *  - Outside run() the calling thread owns all members: the stats
 *    accessors, digest readers, and setFaultPlan are for that thread,
 *    between runs.
 *  - Cross-thread input goes through Hypervisor's mailbox
 *    (postConsoleInput), which any thread may call at any time;
 *    delivery happens on the owning worker at timer ticks.
 *
 * Crash-only supervision (FleetConfig::fleetSupervision, §6d) is the
 * fleet's one recovery path.  Each member carries a health state
 * machine - Healthy -> Restarting (crash, waiting out backoff) -> back
 * to Healthy via golden-image microreboot, or Quarantined once the
 * restart error budget is gone.  Every decision is made at the
 * member's slice boundary on the worker that owns it, keyed only on
 * the member's halt reason, the instructions its slice retired and its
 * own slice count, so health histories and healthy-member digests are
 * bit-identical for every worker count.
 * Recovery is a re-fork of the member's golden image (O(pages-touched),
 * golden_image.h) with a fresh copy of its armed fault plan - the
 * member replays the same injection schedule in its next incarnation -
 * never a snapshot restore of accumulated state.  Forked members
 * re-fork the image they came from; an addVm member seals its own
 * image at startVm, so every member can be microrebooted.  A member in
 * restart backoff stays halted but not done, counting its backoff in
 * its own slices; quarantine marks it done.
 */

#ifndef VVAX_VMM_FLEET_H
#define VVAX_VMM_FLEET_H

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/machine.h"
#include "fault/fault_plan.h"
#include "vmm/golden_image.h"
#include "vmm/hypervisor.h"

namespace vvax {

/**
 * Per-member health, evaluated at slice boundaries by the worker that
 * owns the member (docs/ARCHITECTURE.md §6d).
 */
enum class MemberHealth : Byte {
    Healthy = 0,
    Restarting,  //!< crashed; waiting out microreboot backoff
    Quarantined, //!< restart budget exhausted; permanently done
};

const char *memberHealthName(MemberHealth health);

/** Crash-only supervision knobs (FleetConfig::fleetSupervision). */
struct FleetSupervisionConfig
{
    bool enabled = false;
    /** Microreboots allowed per member before Quarantined. */
    int restartBudget = 3;
    /**
     * Slices of backoff before the first microreboot; doubles after
     * every crash of the slot (flapping members wait longer), capped
     * at 8 slices.  Backoff is counted in the member's own slices - a
     * member in backoff is halted but not done, and no sibling waits
     * on it.
     */
    int backoffSlices = 1;
};

struct FleetConfig
{
    /** Host worker threads (clamped to [1, members]). */
    int workers = 1;
    /**
     * Instructions per member slice: the granularity of the health
     * check, backoff and heartbeat (after every slice of a member).
     * The slice is in instructions, not wall time, so every member's
     * slice boundaries are identical for every worker count.
     */
    std::uint64_t sliceInstructions = 50000;
    /** Configuration applied to every member's RealMachine. */
    MachineConfig machine;
    /** Configuration applied to every member's Hypervisor. */
    HypervisorConfig hypervisor;
    /**
     * Crash-only supervision: health state machine plus golden-image
     * microreboot with backoff and an error budget (see the file
     * comment).  Disabled, a crashed member simply stays halted.
     */
    FleetSupervisionConfig fleetSupervision;
};

class HypervisorFleet
{
  public:
    explicit HypervisorFleet(FleetConfig config = {});
    ~HypervisorFleet();

    HypervisorFleet(const HypervisorFleet &) = delete;
    HypervisorFleet &operator=(const HypervisorFleet &) = delete;

    /**
     * Add a member hosting one VM.  The VM's fault identity defaults
     * to the member index so plan `vm=` selectors address fleet
     * members exactly as they address VMs of a single hypervisor.
     * Under fleetSupervision the member seals a private golden image
     * at startVm, which its microreboots re-fork.  Returns the member
     * index.
     */
    int addVm(const VmConfig &config);

    /**
     * Add a member forked from @p image (GoldenImage::fork) - the
     * O(pages-touched) path: the new member's RAM and disk are CoW
     * views of the sealed image.  The forked VM's fault identity is
     * its fork lineage - image.lineage() plus the count of forks this
     * fleet has already taken from that image - not its member index,
     * so the identity is stable across fleet composition and across
     * microreboots: a re-forked member replays exactly the injection
     * schedule of the incarnation it replaces.  (For the common case
     * of a fleet forked entirely from one lineage-0 image the two
     * numberings coincide.)  @p image must outlive the fleet.
     * Returns the member index.
     */
    int addForkedMember(const GoldenImage &image);
    /** Fork @p n members from @p image; returns the first index. */
    int addForkedMember(const GoldenImage &image, int n);

    /**
     * Decommission member @p i (between runs): its VM halts with
     * VmmPolicy and the member is never re-forked or restarted.
     * Siblings are unaffected.
     */
    void killMember(int i);

    int size() const { return static_cast<int>(members_.size()); }
    RealMachine &machine(int i) { return *members_[i]->machine; }
    Hypervisor &hypervisor(int i) { return *members_[i]->hv; }
    VirtualMachine &vm(int i) { return members_[i]->hv->vm(0); }

    // Convenience pass-throughs to the member's hypervisor.
    void loadVmImage(int i, PhysAddr vm_pa, std::span<const Byte> image);
    void loadVmDisk(int i, Longword block, std::span<const Byte> data);
    void startVm(int i, VirtAddr start_pc);

    /**
     * Arm a member-owned copy of @p plan on member @p i (replacing
     * any VVAX_FAULT_PLAN-installed one); pass nullptr to run the
     * member fault-free.
     */
    void setFaultPlan(int i, const FaultPlan *plan);

    /** Thread-safe console input to member @p i (mailbox; see above). */
    void postConsoleInput(int i, std::string text, Longword at_tick = 0);

    /**
     * Run every started member for up to @p max_instructions_per_vm
     * instructions on the configured number of workers (the calling
     * thread is one of them).  Returns when every member halted or
     * exhausted its budget.  Call from one thread at a time.
     */
    void run(std::uint64_t max_instructions_per_vm);

    /** Aggregate machine counters over all members (Stats::operator+=). */
    Stats totalMachineStats() const;
    /** Aggregate per-VM counters over all members (VmStats::operator+=). */
    VmStats totalVmStats() const;

    // ----- Crash-only supervision observability (§6d) -----------------------
    // The three counters read the sup* gauges of barrierStats().
    /** Member @p i's current health (call between runs). */
    MemberHealth health(int i) const;
    /** Golden-image microreboots performed by the supervision layer. */
    std::uint64_t microreboots() const;
    /** Members quarantined after exhausting their restart budget. */
    std::uint64_t quarantines() const;
    /** Pages physically copied by all microreboots (the CoW floor of
     *  each fresh incarnation) - divide by microreboots() for the
     *  mean; compare against a full snapshot restore's page count. */
    std::uint64_t pagesRecopied() const;
    /**
     * Stats merged at the end of the last run() (call between runs):
     * the totalMachineStats() of that moment.
     */
    Stats barrierStats() const;

  private:
    struct Member
    {
        int index = 0;     //!< fleet-wide index (slot number)
        int faultVmId = 0; //!< fault identity: fork lineage, stable
                           //!< across microreboots (addVm: the index)
        std::unique_ptr<RealMachine> machine;
        std::unique_ptr<Hypervisor> hv;
        std::unique_ptr<FaultPlan> plan; //!< member-owned, if armed
        /** Pristine copy of the armed plan: each microreboot re-arms
         *  from this, so a fresh incarnation replays the same
         *  schedule instead of inheriting consumed firing budgets. */
        std::unique_ptr<FaultPlan> planPristine;
        /** The image microreboots re-fork: the fork source, or
         *  ownImage.  Null: the member cannot be microrebooted. */
        const GoldenImage *image = nullptr;
        std::unique_ptr<GoldenImage> ownImage; //!< addVm: sealed at startVm
        bool killed = false; //!< killMember: never restarted
        std::uint64_t budgetLeft = 0;
        bool done = false;

        // --- Crash-only supervision state (owned per the threading
        //     model above: the worker that claimed the member during
        //     run(), the calling thread between runs) ----------------
        MemberHealth health = MemberHealth::Healthy;
        int microrebootsLeft = 0;  //!< restart error budget remaining
        int backoffLeft = 0;       //!< slices until pending microreboot
        int nextBackoff = 0;       //!< doubling backoff schedule
        int idleSlices = 0;        //!< heartbeat: zero-progress slices
        // Member-lifetime supervision counters; published into the
        // machine's Stats sup* gauges when stats are merged.
        std::uint64_t healthTransitions = 0;
        std::uint64_t microreboots = 0;
        std::uint64_t pagesRecopied = 0;
    };

    void runSlice(Member &m);
    // ----- Crash-only supervision (fleet.cc §6d) ----------------------------
    /** Health state machine + recovery, run at the slice boundary by
     *  the worker owning @p m. */
    void checkHealth(Member &m, std::uint64_t retired);
    void transition(Member &m, MemberHealth to);
    /** Crash-only recovery: retire the incarnation, re-fork the
     *  golden image under the same fault identity, re-arm a pristine
     *  plan copy. */
    void microreboot(Member &m);
    /** Refresh the cow* and sup* gauge fields in the member's machine
     *  Stats. */
    void publishMemberGauges(Member &m) const;
    bool memberLive(const Member &m) const;

    FleetConfig config_;
    std::vector<std::unique_ptr<Member>> members_;
    /** Forks taken per golden image, for lineage-based fault ids. */
    std::vector<std::pair<const GoldenImage *, int>> imageForks_;

    Stats barrierStats_; //!< totalMachineStats() at the end of run()
    mutable std::mutex mergeMutex_;
    /** Counters of machines retired by microreboot(), so aggregates
     *  cover every incarnation.  Guarded by mergeMutex_: workers
     *  retire concurrently. */
    Stats retiredStats_;
    VmStats retiredVmStats_;
};

} // namespace vvax

#endif // VVAX_VMM_FLEET_H
