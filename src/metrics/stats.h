/**
 * @file
 * Machine-level statistics: cycle accounting by category and event
 * counters.  The VMM keeps its own higher-level counters in
 * vmm/vmm_stats.h; this struct counts what the hardware sees.
 */

#ifndef VVAX_METRICS_STATS_H
#define VVAX_METRICS_STATS_H

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string_view>

#include "arch/types.h"

namespace vvax {

/** Where cycles were spent. */
enum class CycleCategory : Byte {
    GuestExec = 0,     //!< instructions executed directly
    ExceptionDispatch, //!< microcode trap/interrupt delivery
    MemoryManagement,  //!< TLB misses, PTE fetches, hardware M-bit sets
    VmmEmulation,      //!< VMM sensitive-instruction emulation
    VmmShadow,         //!< VMM shadow page table maintenance
    VmmIo,             //!< VMM virtual I/O service
    VmmInterrupt,      //!< VMM virtual interrupt delivery
    Idle,              //!< WAIT / no runnable VM
    NumCategories,
};

constexpr int kNumCycleCategories =
    static_cast<int>(CycleCategory::NumCategories);

std::string_view cycleCategoryName(CycleCategory cat);

/**
 * Number of fault-injection classes (enum FaultClass in
 * src/fault/fault_plan.h).  Declared here so Stats can size its
 * per-class counter array without a metrics -> fault dependency.
 */
constexpr int kNumFaultClasses = 9;

/** Counters maintained by the machine as it runs. */
struct Stats
{
    std::uint64_t instructions = 0;
    std::array<std::uint64_t, kNumCycleCategories> cycles{};

    /** Exception/interrupt dispatches indexed by SCB offset / 4. */
    std::array<std::uint64_t, 128> dispatches{};

    std::uint64_t tlbHits = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t hardwareModifySets = 0; //!< standard VAX M-bit writes
    std::uint64_t modifyFaults = 0;
    std::uint64_t translationFaults = 0;
    std::uint64_t accessViolations = 0;
    std::uint64_t vmEmulationTraps = 0;
    std::uint64_t interruptsTaken = 0;
    std::uint64_t waitInstructions = 0;

    // Translation-buffer maintenance observability: how often whole
    // halves / single pages were invalidated versus how often a
    // context re-apply let the entries survive a world switch.
    std::uint64_t tlbFlushAll = 0;        //!< tbia() invocations
    std::uint64_t tlbFlushProcess = 0;    //!< tbiaProcess() invocations
    std::uint64_t tlbFlushSingle = 0;     //!< tbis() invocations
    std::uint64_t tlbContextSwitches = 0; //!< scoped context re-applies

    /**
     * VM-emulation traps by the opcode that caused the exit (FD-page
     * opcodes fold to index 0xFD).  The per-exit-reason breakdown the
     * paper's trap-frequency argument (Section 7) is about.
     */
    std::array<std::uint64_t, 256> vmTrapOpcodes{};

    // Fault injection and recovery (src/fault/fault_plan.h defines
    // the classes; fault_plan.h static_asserts the count matches).
    // Architectural: injection sites key on architectural ordinals
    // (disk-op counts, timer ticks), so the fast and reference paths
    // must report identical values.
    std::array<std::uint64_t, kNumFaultClasses> faultsInjected{};
    std::uint64_t machineChecksDelivered = 0; //!< reflected into a VM
    std::uint64_t diskRetries = 0; //!< disk op re-issued after a failure
    std::uint64_t vmRestarts = 0;  //!< supervisor snapshot-restores

    // Superblock translation cache observability
    // (docs/ARCHITECTURE.md §5a).  Host-side counters: they describe
    // how the host executed the workload, not what the simulated
    // hardware did, so the reference interpreter (which never builds
    // blocks) legitimately reports zeros.  operator== excludes them
    // for exactly that reason.
    std::uint64_t blockBuilds = 0;        //!< superblocks translated
    std::uint64_t blockExecutions = 0;    //!< superblock entries run
    std::uint64_t blockInstructions = 0;  //!< instructions retired in blocks
    std::uint64_t blockInvalidations = 0; //!< stale blocks dropped

    // Trace tier observability (docs/ARCHITECTURE.md §5b).  Host-side
    // like the block counters above: excluded from operator==.
    std::uint64_t traceLinksFormed = 0;  //!< block->block edges patched in
    std::uint64_t traceLinksTaken = 0;   //!< crossings that bypassed dispatch
    std::uint64_t traceLinksSevered = 0; //!< edges cut by invalidation
    /** Exits whose direction differed from Block::lastDir (the link
     *  probe order's prediction).  Host-side. */
    std::uint64_t traceLinkMispredicts = 0;

    // Block executor observability (docs/ARCHITECTURE.md §5c).
    // Host-side like the block counters above: excluded from
    // operator==.
    std::uint64_t threadedCompiles = 0;     //!< blocks bound to handlers
    std::uint64_t threadedInstructions = 0; //!< instructions retired threaded
    std::uint64_t threadedBails = 0;        //!< abnormal driver exits
    std::uint64_t threadedDiscards = 0;     //!< bound blocks invalidated

    // Golden-image CoW forking gauges (docs/ARCHITECTURE.md §8),
    // published by PhysicalMemory::publishCowStats / the fleet at
    // merge barriers.  Host-side like the block counters above:
    // they describe where the host kernel keeps the fork's pages,
    // not anything the simulated hardware did, so operator==
    // excludes them (two forks of the same image are architecturally
    // identical even when one has copied-up more pages).
    std::uint64_t cowForkedRam = 0;    //!< 1 when RAM forked from an image
    std::uint64_t cowKernelBacked = 0; //!< 1 when kernel CoW is active
    std::uint64_t cowPagesTouched = 0; //!< VAX pages written since fork
    std::uint64_t cowPrivateBytes = 0; //!< host-page-rounded private bytes
    std::uint64_t cowSharedBytes = 0;  //!< bytes still shared with the image
    std::uint64_t cowDiskBlocksTouched = 0; //!< disk blocks written since fork

    // Crash-only fleet supervision (docs/ARCHITECTURE.md §6d),
    // published by HypervisorFleet when it aggregates member stats.
    // Host-side like the cow gauges: they describe the *recovery
    // machinery's* work (reboots, state-machine churn), which is
    // keyed on per-member architectural state and therefore
    // worker-count-invariant, but is no business of the lockstep
    // digest — operator== excludes them.
    std::uint64_t supHealthTransitions = 0; //!< health state changes
    std::uint64_t supMicroreboots = 0;      //!< golden-image re-forks
    std::uint64_t supQuarantines = 0;       //!< members taken out of rotation
    std::uint64_t supPagesRecopied = 0;     //!< CoW pages discarded by reboots
    std::uint64_t supTimeInDegraded = 0;    //!< member-slices spent Degraded

    void
    addCycles(CycleCategory cat, Cycles n)
    {
        cycles[static_cast<int>(cat)] += n;
    }

    std::uint64_t totalCycles() const;
    /** Cycles excluding Idle (useful for utilization ratios). */
    std::uint64_t busyCycles() const;
    std::uint64_t dispatchCount(Word scb_offset) const;

    /** Reset every counter to zero. */
    void clear();

    /**
     * Accumulate another machine's counters (HypervisorFleet merges
     * per-member machines at run barriers).  Sums everything,
     * host-side counters included: an aggregate describes total work,
     * not lockstep equality.
     */
    Stats &operator+=(const Stats &other);

    /** Pretty-print a summary table. */
    void print(std::ostream &os) const;

    /**
     * Architectural equality, used by the fast-path/reference-path
     * lockstep tests: the host fast path must leave every counter the
     * simulated hardware maintains bit-identical.  The host-side
     * block-cache counters above are deliberately excluded - they
     * measure the host execution strategy, which is the one thing the
     * two paths are allowed to differ in.
     */
    bool operator==(const Stats &other) const;
};

} // namespace vvax

#endif // VVAX_METRICS_STATS_H
