#include "metrics/stats.h"

#include <iomanip>
#include <ostream>
#include <string>

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

namespace {

void
addField(std::uint64_t &into, std::uint64_t from)
{
    into += from;
}

template <std::size_t N>
void
addField(std::array<std::uint64_t, N> &into,
         const std::array<std::uint64_t, N> &from)
{
    for (std::size_t i = 0; i < N; ++i)
        into[i] += from[i];
}

const char *
tagName(StatsTag tag)
{
    switch (tag) {
      case StatsTag::Arch:  return "arch";
      case StatsTag::Host:  return "host";
      case StatsTag::Gauge: return "gauge";
    }
    return "?";
}

void
printScalar(std::ostream &os, StatsTag tag, const char *name,
            std::uint64_t value)
{
    if (value != 0) {
        os << "  " << std::setw(6) << tagName(tag) << std::setw(24) << name
           << value << "\n";
    }
}

/** Arrays print as the named tables at the end of Stats::print. */
template <std::size_t N>
void
printScalar(std::ostream &, StatsTag, const char *,
            const std::array<std::uint64_t, N> &)
{
}

} // namespace

Stats &
Stats::operator+=(const Stats &other)
{
#define VVAX_STATS_ADD(tag, type, name) addField(name, other.name);
    VVAX_STATS_FIELDS(VVAX_STATS_ADD)
#undef VVAX_STATS_ADD
    return *this;
}

bool
Stats::operator==(const Stats &other) const
{
#define VVAX_STATS_EQ(tag, type, name)                                 \
    if (StatsTag::tag == StatsTag::Arch && !(name == other.name))      \
        return false;
    VVAX_STATS_FIELDS(VVAX_STATS_EQ)
#undef VVAX_STATS_EQ
    return true;
}

void
Stats::retireGauges()
{
#define VVAX_STATS_RETIRE(tag, type, name)                             \
    if (StatsTag::tag == StatsTag::Gauge)                              \
        name = type{};
    VVAX_STATS_FIELDS(VVAX_STATS_RETIRE)
#undef VVAX_STATS_RETIRE
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
    os << "counters (non-zero):\n";
#define VVAX_STATS_PRINT(tag, type, name)                              \
    printScalar(os, StatsTag::tag, #name, name);
    VVAX_STATS_FIELDS(VVAX_STATS_PRINT)
#undef VVAX_STATS_PRINT
    for (int i = 0; i < kNumFaultClasses; ++i) {
        const std::string name =
            "faultsInjected[" + std::to_string(i) + "]";
        printScalar(os, StatsTag::Arch, name.c_str(), faultsInjected[i]);
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
