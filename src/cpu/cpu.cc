#include "cpu/cpu.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <ostream>
#include <string_view>

namespace vvax {

Cpu::Cpu(Mmu &mmu, const CostModel &cost, Stats &stats,
         MicrocodeLevel level)
    : mmu_(mmu), cost_(cost), stats_(stats), level_(level)
{
    mmu_.setModifyFaultMode(level == MicrocodeLevel::Modified);
    sid_ = (static_cast<Longword>(cost.model) << 24) | 0x0139;
    int_requests_.reserve(8);
    // Runtime tier selection (docs/ARCHITECTURE.md §5c).  "ref" also
    // flips the MMU onto its reference path; an unknown value keeps
    // the default (threaded) so a typo can't silently change what a
    // lockstep suite exercises without a trace in the log.
    if (const char *t = std::getenv("VVAX_EXEC_TIER")) {
        const std::string_view v(t);
        if (v == "ref" || v == "reference")
            setExecTier(ExecTier::Reference);
        else if (v == "fast")
            setExecTier(ExecTier::Fast);
        else if (v == "threaded")
            setExecTier(ExecTier::Threaded);
        else
            std::fprintf(stderr,
                         "vvax: ignoring unknown VVAX_EXEC_TIER '%s' "
                         "(want ref|fast|threaded)\n",
                         t);
    }
}

void
Cpu::dumpHotBlocks(std::ostream &os, int top_n) const
{
    const std::vector<Block> &slots = bcache_.entries();
    std::vector<const Block *> live;
    for (const Block &b : slots) {
        if (b.pc != Block::kNoPc)
            live.push_back(&b);
    }
    // Ranked by the instructions the driver ran from each block: its
    // entries (slow-path dispatches and chained entries through trace
    // links alike) times its length.  A block that starts at its
    // stopper never enters the driver, so ties fall back to slow-path
    // dispatches.
    auto weight = [](const Block *b) { return b->runs * b->count; };
    std::sort(live.begin(), live.end(),
              [&](const Block *a, const Block *b) {
                  return weight(a) != weight(b) ? weight(a) > weight(b)
                                                : a->hits > b->hits;
              });
    if (top_n >= 0 && live.size() > static_cast<std::size_t>(top_n))
        live.resize(static_cast<std::size_t>(top_n));

    os << "hot superblocks (" << live.size() << " of " << slots.size()
       << " slots, by driver entries x instrs):\n";
    if (stats_.threadedCompiles != 0) {
        os << "  threaded driver: " << stats_.threadedCompiles
           << " blocks resolved, " << stats_.threadedDiscards
           << " discarded, " << stats_.threadedBails << " bails\n";
    }
    const auto flags = os.flags();
    const auto fill = os.fill();
    os << std::hex << std::setfill('0');
    for (const Block *b : live) {
        os << "  pc=" << std::setw(8) << b->pc << std::dec
           << std::setfill(' ');
        os << " instrs=" << static_cast<int>(b->count)
           << (b->stopperLen != 0 ? "+stopper" : "");
        os << " bytes=" << b->byteLen << " hits=" << b->hits
           << " in=" << b->inbound.size() << " last="
           << (b->lastDir == Block::kLinkTaken ? "taken" : "fall");
        if (b->runs != 0) {
            os << " runs=" << b->runs;
            std::uint64_t bailed = 0;
            for (const std::uint64_t c : b->bails)
                bailed += c;
            if (bailed != 0) {
                static constexpr const char
                    *bail_names[kNumThreadedBails] = {
                        "fault", "smc", "int", "tlb", "budget"};
                os << " bails[";
                bool first = true;
                for (int r = 0; r < kNumThreadedBails; ++r) {
                    if (b->bails[static_cast<std::size_t>(r)] == 0)
                        continue;
                    os << (first ? "" : " ") << bail_names[r] << "="
                       << b->bails[static_cast<std::size_t>(r)];
                    first = false;
                }
                os << "]";
            }
        }
        static constexpr const char *slot_names[2] = {"taken", "fall"};
        for (int s = 0; s < 2; ++s) {
            const Block::Link &l = b->links[s];
            if (l.target == nullptr)
                continue;
            os << " " << slot_names[s] << "->" << std::hex
               << std::setfill('0') << std::setw(8) << l.pc << std::dec
               << std::setfill(' ') << "(x" << l.taken << ")";
        }
        os << std::hex << std::setfill('0') << "\n";
    }
    os.flags(flags);
    os.fill(fill);
}

Longword
Cpu::stackPointer(AccessMode mode) const
{
    if (!psl_.interruptStack() && mode == psl_.currentMode())
        return regs_[SP];
    return sp_banks_[static_cast<int>(mode)];
}

void
Cpu::setStackPointer(AccessMode mode, Longword value)
{
    if (!psl_.interruptStack() && mode == psl_.currentMode())
        regs_[SP] = value;
    else
        sp_banks_[static_cast<int>(mode)] = value;
}

Longword
Cpu::interruptStackPointer() const
{
    return psl_.interruptStack() ? regs_[SP] : isp_;
}

void
Cpu::setInterruptStackPointer(Longword value)
{
    if (psl_.interruptStack())
        regs_[SP] = value;
    else
        isp_ = value;
}

void
Cpu::setHostHook(int index, HostHook hook)
{
    assert(index >= 0 && index < static_cast<int>(host_hooks_.size()));
    host_hooks_[index] = std::move(hook);
}

void
Cpu::requestInterrupt(Byte ipl, Word vector)
{
    for (const IntRequest &r : int_requests_) {
        if (r.ipl == ipl && r.vector == vector)
            return;
    }
    int_requests_.push_back(IntRequest{ipl, vector});
    recomputeDevicePending();
    if (run_state_ == RunState::Waiting)
        run_state_ = RunState::Running;
}

void
Cpu::clearInterrupt(Byte ipl, Word vector)
{
    std::erase_if(int_requests_, [&](const IntRequest &r) {
        return r.ipl == ipl && r.vector == vector;
    });
    recomputeDevicePending();
}

void
Cpu::clearHalt()
{
    run_state_ = RunState::Running;
    halt_reason_ = HaltReason::None;
}

void
Cpu::externalHalt(HaltReason reason)
{
    run_state_ = RunState::Halted;
    halt_reason_ = reason;
}

void
Cpu::wakeFromWait()
{
    if (run_state_ == RunState::Waiting)
        run_state_ = RunState::Running;
}

void
Cpu::resumeWith(VirtAddr pc, Psl new_psl)
{
    // Microcode REI tail: bank the outgoing SP, install the new PSL
    // (possibly with PSL<VM> set - only reachable from the VMM), and
    // load the incoming SP.
    if (psl_.interruptStack())
        isp_ = regs_[SP];
    else
        sp_banks_[static_cast<int>(psl_.currentMode())] = regs_[SP];
    psl_ = new_psl;
    if (psl_.interruptStack())
        regs_[SP] = isp_;
    else
        regs_[SP] = sp_banks_[static_cast<int>(psl_.currentMode())];
    regs_[PC] = pc;
    if (run_state_ == RunState::Waiting)
        run_state_ = RunState::Running;
}

bool
Cpu::readIprInternal(Ipr which, Longword &value)
{
    switch (which) {
      case Ipr::KSP: value = stackPointer(AccessMode::Kernel); return true;
      case Ipr::ESP: value = stackPointer(AccessMode::Executive);
        return true;
      case Ipr::SSP: value = stackPointer(AccessMode::Supervisor);
        return true;
      case Ipr::USP: value = stackPointer(AccessMode::User); return true;
      case Ipr::ISP: value = interruptStackPointer(); return true;
      case Ipr::P0BR: value = mmu_.regs().p0br; return true;
      case Ipr::P0LR: value = mmu_.regs().p0lr; return true;
      case Ipr::P1BR: value = mmu_.regs().p1br; return true;
      case Ipr::P1LR: value = mmu_.regs().p1lr; return true;
      case Ipr::SBR: value = mmu_.regs().sbr; return true;
      case Ipr::SLR: value = mmu_.regs().slr; return true;
      case Ipr::PCBB: value = pcbb_; return true;
      case Ipr::SCBB: value = scbb_; return true;
      case Ipr::IPL: value = psl_.ipl(); return true;
      case Ipr::ASTLVL: value = astlvl_; return true;
      case Ipr::SISR: value = sisr_; return true;
      case Ipr::ICCS: value = iccs_; return true;
      case Ipr::NICR: value = nicr_; return true;
      case Ipr::ICR: value = static_cast<Longword>(icr_); return true;
      case Ipr::TODR: value = todr_; return true;
      case Ipr::RXCS:
      case Ipr::RXDB:
      case Ipr::TXCS:
      case Ipr::TXDB:
        value = console_ ? console_->readIpr(which)
                         : consolecsr::kReady;
        return true;
      case Ipr::MAPEN: value = mmu_.regs().mapen ? 1 : 0; return true;
      case Ipr::SID: value = sid_; return true;
      case Ipr::VMPSL:
        if (level_ != MicrocodeLevel::Modified)
            return false;
        value = vmpsl_;
        return true;
      default:
        return false;
    }
}

bool
Cpu::writeIprInternal(Ipr which, Longword value)
{
    switch (which) {
      case Ipr::KSP: setStackPointer(AccessMode::Kernel, value);
        return true;
      case Ipr::ESP: setStackPointer(AccessMode::Executive, value);
        return true;
      case Ipr::SSP: setStackPointer(AccessMode::Supervisor, value);
        return true;
      case Ipr::USP: setStackPointer(AccessMode::User, value);
        return true;
      case Ipr::ISP: setInterruptStackPointer(value); return true;
      case Ipr::P0BR: mmu_.regs().p0br = value; return true;
      case Ipr::P0LR: mmu_.regs().p0lr = value & 0x3FFFFF; return true;
      case Ipr::P1BR: mmu_.regs().p1br = value; return true;
      case Ipr::P1LR: mmu_.regs().p1lr = value & 0x3FFFFF; return true;
      case Ipr::SBR: mmu_.regs().sbr = value & ~3u; return true;
      case Ipr::SLR: mmu_.regs().slr = value & 0x3FFFFF; return true;
      case Ipr::PCBB: pcbb_ = value & ~3u; return true;
      case Ipr::SCBB: setScbb(value); return true;
      case Ipr::IPL: psl_.setIpl(static_cast<Byte>(value)); return true;
      case Ipr::ASTLVL: astlvl_ = value & 7; return true;
      case Ipr::SIRR:
        if ((value & 0xF) != 0) {
            sisr_ |= 1u << (value & 0xF);
            recomputeSoftPending();
        }
        return true;
      case Ipr::SISR:
        sisr_ = value & 0xFFFE;
        recomputeSoftPending();
        return true;
      case Ipr::ICCS: {
        // Write-one-to-clear interrupt bit; transfer loads ICR.
        if (value & iccs::kInterrupt) {
            iccs_ &= ~iccs::kInterrupt;
            clearInterrupt(kIplTimer,
                           static_cast<Word>(ScbVector::IntervalTimer));
        }
        if (value & iccs::kTransfer)
            icr_ = static_cast<std::int32_t>(nicr_);
        iccs_ = (iccs_ & iccs::kInterrupt) |
                (value & (iccs::kRun | iccs::kInterruptEnable));
        return true;
      }
      case Ipr::NICR: nicr_ = value; return true;
      case Ipr::TODR: todr_ = value; return true;
      case Ipr::RXCS:
      case Ipr::RXDB:
      case Ipr::TXCS:
      case Ipr::TXDB:
        if (console_)
            console_->writeIpr(which, value);
        return true;
      case Ipr::MAPEN:
        mmu_.regs().mapen = (value & 1) != 0;
        mmu_.tbia();
        return true;
      case Ipr::TBIA: mmu_.tbia(); return true;
      case Ipr::TBIS: mmu_.tbis(value); return true;
      case Ipr::VMPSL:
        if (level_ != MicrocodeLevel::Modified)
            return false;
        vmpsl_ = value;
        return true;
      default:
        return false;
    }
}

} // namespace vvax
