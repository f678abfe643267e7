/**
 * @file
 * Machine-level statistics: cycle accounting by category and event
 * counters.  The VMM keeps its own higher-level per-VM counters in
 * VmStats (vmm/vm_state.h); this struct counts what the hardware
 * sees, plus host-execution counters and fleet gauges, each field
 * tagged with the contract it obeys (StatsTag).
 */

#ifndef VVAX_METRICS_STATS_H
#define VVAX_METRICS_STATS_H

#include <array>
#include <cstddef>
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
constexpr int kNumFaultClasses = 7;

/**
 * The contract a Stats field obeys; every field carries exactly one.
 *
 *   Arch  - what the simulated hardware did.  Every host tier must
 *           leave it bit-identical, so operator== (the fast-path /
 *           reference-path lockstep check) compares exactly these.
 *   Host  - how the host executed the workload: superblock cache,
 *           trace links, threaded driver (docs/ARCHITECTURE.md
 *           §5a-§5c).  The reference tier never builds blocks and
 *           legitimately reports zeros, so operator== ignores them.
 *   Gauge - the current state of a live fleet member, refreshed in
 *           place by its publisher: CoW backing (§8, published by
 *           PhysicalMemory::publishCowStats and the fleet) and its
 *           slot's crash-only supervision history (§6d, published by
 *           HypervisorFleet).  Summing a retired incarnation's value
 *           would double-count against the live member, so
 *           retireGauges() zeroes them; operator== ignores them.
 *
 * operator+= sums all three: an aggregate describes total work, not
 * lockstep equality.
 */
enum class StatsTag : Byte { Arch, Host, Gauge };

using CycleCounts = std::array<std::uint64_t, kNumCycleCategories>;
using DispatchCounts = std::array<std::uint64_t, 128>;
using OpcodeCounts = std::array<std::uint64_t, 256>;
using FaultClassCounts = std::array<std::uint64_t, kNumFaultClasses>;

/**
 * Every Stats field, declared once as X(tag, type, name).  The
 * declaration, operator+=, operator==, retireGauges() and the scalar
 * lines of print() are all generated from this list, so a new counter
 * cannot go missing from any of them.
 *
 *   dispatches          - exception/interrupt dispatches indexed by
 *                         SCB offset / 4
 *   hardwareModifySets  - standard VAX M-bit writes
 *   tlbFlush*           - tbia() / tbiaProcess() / tbis() invocations;
 *   tlbContextSwitches    scoped context re-applies that let entries
 *                         survive a world switch
 *   vmTrapOpcodes       - VM-emulation traps by the opcode that caused
 *                         the exit (FD-page opcodes fold to 0xFD): the
 *                         per-exit-reason breakdown of the paper's
 *                         Section 7 trap-frequency argument
 *   faultsInjected ..   - fault injection and recovery, by class
 *   diskRetries           (fault/fault_plan.h); injection sites key on
 *                         architectural ordinals, so these are Arch
 *   block* .. threaded* - superblocks translated / entered / retired
 *                         in / dropped; trace-link edges formed /
 *                         crossed / cut / mispredicted; blocks bound to
 *                         threaded handlers, instructions they retired,
 *                         abnormal driver exits, instructions the
 *                         driver replayed through the execute switch
 *                         (no fused handler), bound blocks discarded
 *   cow*                - 1 when RAM forked from an image, 1 when kernel
 *                         CoW is active, VAX pages written since fork,
 *                         host-page-rounded private bytes, bytes still
 *                         shared, disk blocks written since fork
 *   sup*                - health state changes, golden-image
 *                         microreboots, members quarantined, CoW pages
 *                         recopied by microreboots
 */
#define VVAX_STATS_FIELDS(X)                                           \
    X(Arch, std::uint64_t, instructions)                               \
    X(Arch, CycleCounts, cycles)                                       \
    X(Arch, DispatchCounts, dispatches)                                \
    X(Arch, std::uint64_t, tlbHits)                                    \
    X(Arch, std::uint64_t, tlbMisses)                                  \
    X(Arch, std::uint64_t, hardwareModifySets)                         \
    X(Arch, std::uint64_t, modifyFaults)                               \
    X(Arch, std::uint64_t, translationFaults)                          \
    X(Arch, std::uint64_t, accessViolations)                           \
    X(Arch, std::uint64_t, vmEmulationTraps)                           \
    X(Arch, std::uint64_t, interruptsTaken)                            \
    X(Arch, std::uint64_t, waitInstructions)                           \
    X(Arch, std::uint64_t, tlbFlushAll)                                \
    X(Arch, std::uint64_t, tlbFlushProcess)                            \
    X(Arch, std::uint64_t, tlbFlushSingle)                             \
    X(Arch, std::uint64_t, tlbContextSwitches)                         \
    X(Arch, OpcodeCounts, vmTrapOpcodes)                               \
    X(Arch, FaultClassCounts, faultsInjected)                          \
    X(Arch, std::uint64_t, machineChecksDelivered)                     \
    X(Arch, std::uint64_t, diskRetries)                                \
    X(Host, std::uint64_t, blockBuilds)                                \
    X(Host, std::uint64_t, blockExecutions)                            \
    X(Host, std::uint64_t, blockInstructions)                          \
    X(Host, std::uint64_t, blockInvalidations)                         \
    X(Host, std::uint64_t, traceLinksFormed)                           \
    X(Host, std::uint64_t, traceLinksTaken)                            \
    X(Host, std::uint64_t, traceLinksSevered)                          \
    X(Host, std::uint64_t, traceLinkMispredicts)                       \
    X(Host, std::uint64_t, threadedCompiles)                           \
    X(Host, std::uint64_t, threadedInstructions)                       \
    X(Host, std::uint64_t, threadedBails)                              \
    X(Host, std::uint64_t, threadedGenericSteps)                       \
    X(Host, std::uint64_t, threadedDiscards)                           \
    X(Gauge, std::uint64_t, cowForkedRam)                              \
    X(Gauge, std::uint64_t, cowKernelBacked)                           \
    X(Gauge, std::uint64_t, cowPagesTouched)                           \
    X(Gauge, std::uint64_t, cowPrivateBytes)                           \
    X(Gauge, std::uint64_t, cowSharedBytes)                            \
    X(Gauge, std::uint64_t, cowDiskBlocksTouched)                      \
    X(Gauge, std::uint64_t, supHealthTransitions)                      \
    X(Gauge, std::uint64_t, supMicroreboots)                           \
    X(Gauge, std::uint64_t, supQuarantines)                            \
    X(Gauge, std::uint64_t, supPagesRecopied)

/** Counters maintained by the machine as it runs. */
struct Stats
{
#define VVAX_STATS_DECLARE(tag, type, name) type name{};
    VVAX_STATS_FIELDS(VVAX_STATS_DECLARE)
#undef VVAX_STATS_DECLARE

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

    /** Zero the Gauge fields: what a fleet member's machine leaves to
     *  the aggregate when the member is microrebooted away. */
    void retireGauges();

    /**
     * Accumulate another machine's counters (HypervisorFleet merges
     * per-member machines at run barriers).  Sums every field.
     */
    Stats &operator+=(const Stats &other);

    /** Pretty-print a summary table plus every non-zero counter. */
    void print(std::ostream &os) const;

    /** Architectural equality: compares exactly the Arch fields. */
    bool operator==(const Stats &other) const;
};

// A field declared outside the X-macro would compile but silently
// skip the merge, equality and print; the size check makes that
// mistake a build error instead.
namespace detail {
#define VVAX_STATS_SIZE(tag, type, name) +sizeof(type)
constexpr std::size_t kStatsFieldBytes =
    0 VVAX_STATS_FIELDS(VVAX_STATS_SIZE);
#undef VVAX_STATS_SIZE
} // namespace detail
static_assert(sizeof(Stats) == detail::kStatsFieldBytes,
              "every Stats field must come from VVAX_STATS_FIELDS");

} // namespace vvax

#endif // VVAX_METRICS_STATS_H
