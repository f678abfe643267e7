#include "metrics/stats.h"

#include <iomanip>
#include <ostream>

#include "arch/scb.h"

namespace vvax {

std::string_view
cycleCategoryName(CycleCategory cat)
{
    switch (cat) {
      case CycleCategory::GuestExec: return "guest-exec";
      case CycleCategory::ExceptionDispatch: return "exception-dispatch";
      case CycleCategory::MemoryManagement: return "memory-management";
      case CycleCategory::VmmEmulation: return "vmm-emulation";
      case CycleCategory::VmmShadow: return "vmm-shadow";
      case CycleCategory::VmmIo: return "vmm-io";
      case CycleCategory::VmmInterrupt: return "vmm-interrupt";
      case CycleCategory::Idle: return "idle";
      case CycleCategory::NumCategories: break;
    }
    return "?";
}

std::uint64_t
Stats::totalCycles() const
{
    std::uint64_t total = 0;
    for (auto c : cycles)
        total += c;
    return total;
}

std::uint64_t
Stats::busyCycles() const
{
    return totalCycles() - cycles[static_cast<int>(CycleCategory::Idle)];
}

std::uint64_t
Stats::dispatchCount(Word scb_offset) const
{
    return dispatches[(scb_offset / 4) & 127];
}

void
Stats::clear()
{
    *this = Stats{};
}

Stats &
Stats::operator+=(const Stats &other)
{
    instructions += other.instructions;
    for (int i = 0; i < kNumCycleCategories; ++i)
        cycles[i] += other.cycles[i];
    for (std::size_t i = 0; i < dispatches.size(); ++i)
        dispatches[i] += other.dispatches[i];
    tlbHits += other.tlbHits;
    tlbMisses += other.tlbMisses;
    hardwareModifySets += other.hardwareModifySets;
    modifyFaults += other.modifyFaults;
    translationFaults += other.translationFaults;
    accessViolations += other.accessViolations;
    vmEmulationTraps += other.vmEmulationTraps;
    interruptsTaken += other.interruptsTaken;
    waitInstructions += other.waitInstructions;
    tlbFlushAll += other.tlbFlushAll;
    tlbFlushProcess += other.tlbFlushProcess;
    tlbFlushSingle += other.tlbFlushSingle;
    tlbContextSwitches += other.tlbContextSwitches;
    for (std::size_t i = 0; i < vmTrapOpcodes.size(); ++i)
        vmTrapOpcodes[i] += other.vmTrapOpcodes[i];
    for (int i = 0; i < kNumFaultClasses; ++i)
        faultsInjected[i] += other.faultsInjected[i];
    machineChecksDelivered += other.machineChecksDelivered;
    diskRetries += other.diskRetries;
    vmRestarts += other.vmRestarts;
    blockBuilds += other.blockBuilds;
    blockExecutions += other.blockExecutions;
    blockInstructions += other.blockInstructions;
    blockInvalidations += other.blockInvalidations;
    traceLinksFormed += other.traceLinksFormed;
    traceLinksTaken += other.traceLinksTaken;
    traceLinksSevered += other.traceLinksSevered;
    traceLinkMispredicts += other.traceLinkMispredicts;
    threadedCompiles += other.threadedCompiles;
    threadedInstructions += other.threadedInstructions;
    threadedBails += other.threadedBails;
    threadedDiscards += other.threadedDiscards;
    cowForkedRam += other.cowForkedRam;
    cowKernelBacked += other.cowKernelBacked;
    cowPagesTouched += other.cowPagesTouched;
    cowPrivateBytes += other.cowPrivateBytes;
    cowSharedBytes += other.cowSharedBytes;
    cowDiskBlocksTouched += other.cowDiskBlocksTouched;
    supHealthTransitions += other.supHealthTransitions;
    supMicroreboots += other.supMicroreboots;
    supQuarantines += other.supQuarantines;
    supPagesRecopied += other.supPagesRecopied;
    supTimeInDegraded += other.supTimeInDegraded;
    return *this;
}

bool
Stats::operator==(const Stats &other) const
{
    // Architectural counters only; the block* members are host-side
    // (see the declaration comment) and must not break lockstep.
    return instructions == other.instructions &&
           cycles == other.cycles && dispatches == other.dispatches &&
           tlbHits == other.tlbHits && tlbMisses == other.tlbMisses &&
           hardwareModifySets == other.hardwareModifySets &&
           modifyFaults == other.modifyFaults &&
           translationFaults == other.translationFaults &&
           accessViolations == other.accessViolations &&
           vmEmulationTraps == other.vmEmulationTraps &&
           interruptsTaken == other.interruptsTaken &&
           waitInstructions == other.waitInstructions &&
           tlbFlushAll == other.tlbFlushAll &&
           tlbFlushProcess == other.tlbFlushProcess &&
           tlbFlushSingle == other.tlbFlushSingle &&
           tlbContextSwitches == other.tlbContextSwitches &&
           faultsInjected == other.faultsInjected &&
           machineChecksDelivered == other.machineChecksDelivered &&
           diskRetries == other.diskRetries &&
           vmRestarts == other.vmRestarts &&
           vmTrapOpcodes == other.vmTrapOpcodes;
}

void
Stats::print(std::ostream &os) const
{
    os << "instructions: " << instructions << "\n";
    os << "cycles:\n";
    for (int i = 0; i < kNumCycleCategories; ++i) {
        if (cycles[i] == 0)
            continue;
        os << "  " << std::setw(20) << std::left
           << cycleCategoryName(static_cast<CycleCategory>(i)) << " "
           << cycles[i] << "\n";
    }
    os << "  " << std::setw(20) << std::left << "total" << totalCycles()
       << "\n";
    os << "tlb: " << tlbHits << " hits, " << tlbMisses << " misses\n";
    os << "tlb maintenance: " << tlbFlushAll << " tbia, "
       << tlbFlushProcess << " tbia-process, " << tlbFlushSingle
       << " tbis, " << tlbContextSwitches << " context switches\n";
    if (blockBuilds != 0 || blockExecutions != 0) {
        os << "superblocks: " << blockBuilds << " built, "
           << blockExecutions << " executed, " << blockInstructions
           << " instructions, " << blockInvalidations
           << " invalidated\n";
    }
    if (traceLinksFormed != 0 || traceLinksTaken != 0) {
        os << "trace links: " << traceLinksFormed << " formed, "
           << traceLinksTaken << " taken, " << traceLinksSevered
           << " severed, " << traceLinkMispredicts << " mispredicted\n";
    }
    if (threadedCompiles != 0) {
        os << "threaded tier: " << threadedCompiles << " resolved, "
           << threadedInstructions << " instructions, " << threadedBails
           << " bails, " << threadedDiscards << " discarded\n";
    }
    if (cowForkedRam != 0) {
        os << "cow fork: " << cowPagesTouched << " pages touched, "
           << cowPrivateBytes << " private bytes, " << cowSharedBytes
           << " shared bytes"
           << (cowKernelBacked != 0 ? " (kernel CoW)" : " (eager copy)")
           << ", " << cowDiskBlocksTouched << " disk blocks touched\n";
    }
    if (supMicroreboots != 0 || supQuarantines != 0 ||
        supHealthTransitions != 0) {
        os << "supervision: " << supHealthTransitions
           << " health transitions, " << supMicroreboots
           << " microreboots, " << supQuarantines << " quarantines, "
           << supPagesRecopied << " pages recopied, "
           << supTimeInDegraded << " slices degraded\n";
    }
    std::uint64_t total_faults = 0;
    for (auto c : faultsInjected)
        total_faults += c;
    if (total_faults != 0 || machineChecksDelivered != 0 ||
        diskRetries != 0 || vmRestarts != 0) {
        os << "faults: " << total_faults << " injected, "
           << machineChecksDelivered << " machine checks, " << diskRetries
           << " disk retries, " << vmRestarts << " vm restarts\n";
    }
    bool any_trap = false;
    for (auto c : vmTrapOpcodes)
        any_trap |= c != 0;
    if (any_trap) {
        os << "vm emulation traps by opcode:\n";
        for (int i = 0; i < 256; ++i) {
            if (vmTrapOpcodes[i] == 0)
                continue;
            os << "  0x" << std::hex << std::setw(2) << std::setfill('0')
               << i << std::dec << std::setfill(' ') << "               "
               << vmTrapOpcodes[i] << "\n";
        }
    }
    os << "dispatches:\n";
    for (int i = 0; i < 128; ++i) {
        if (dispatches[i] == 0)
            continue;
        const Word offset = static_cast<Word>(i * 4);
        os << "  " << std::setw(20) << std::left << scbVectorName(offset)
           << " " << dispatches[i] << "\n";
    }
}

} // namespace vvax
