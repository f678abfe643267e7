/**
 * @file
 * Step loop, exception/interrupt dispatch through the SCB, interval
 * timer, the host-hook mechanism, the settling of a charge made
 * inside a block-driver instruction, and the superblock slow dispatch
 * and trace-link bookkeeping (docs/ARCHITECTURE.md §5a-§5c).
 */

#include <cstring>

#include "cpu/cpu.h"

namespace vvax {

void
Cpu::timerFired()
{
    iccs_ |= iccs::kInterrupt;
    if (iccs_ & iccs::kInterruptEnable) {
        requestInterrupt(kIplTimer,
                         static_cast<Word>(ScbVector::IntervalTimer));
    }
    const std::int64_t reload = static_cast<std::int32_t>(nicr_);
    // A zero NICR would re-fire every cycle; treat as stopped.
    icr_ = reload < 0 ? reload : INT64_MIN / 2;
}

void
Cpu::recomputeDevicePending()
{
    // First request with strictly greatest IPL wins, matching the
    // original scan's tie-break.
    Byte best_ipl = 0;
    Word best_vector = 0;
    for (const IntRequest &r : int_requests_) {
        if (r.ipl > best_ipl) {
            best_ipl = r.ipl;
            best_vector = r.vector;
        }
    }
    pending_device_ipl_ = best_ipl;
    pending_device_vector_ = best_vector;
}

void
Cpu::recomputeSoftPending()
{
    Byte best = 0;
    for (int level = kIplSoftwareMax; level >= 1; --level) {
        if (sisr_ & (1u << level)) {
            best = static_cast<Byte>(level);
            break;
        }
    }
    pending_soft_ipl_ = best;
}

bool
Cpu::checkPendingInterrupts()
{
    const Byte cur_ipl = psl_.ipl();

    // Common case: nothing deliverable - one compare per kind against
    // the cached summaries.
    if (pending_device_ipl_ <= cur_ipl && pending_soft_ipl_ <= cur_ipl)
        return false;

    // Device lines first (they sit above the software levels).
    if (pending_device_ipl_ > cur_ipl) {
        deliverInterrupt(pending_device_ipl_, pending_device_vector_);
        return true;
    }

    // Software interrupt (SISR): the cache holds the highest set level.
    const Byte level = pending_soft_ipl_;
    sisr_ &= ~(1u << level);
    recomputeSoftPending();
    deliverInterrupt(level, softwareInterruptVector(level));
    return true;
}

void
Cpu::deliverInterrupt(Byte ipl, Word vector)
{
    stats_.interruptsTaken++;
    chargeCycles(CycleCategory::ExceptionDispatch, cost_.interruptDispatch);
    dispatchThroughScb(vector, AccessMode::Kernel, ipl, nullptr, 0,
                       regs_[PC], /*use_interrupt_stack_bit=*/true,
                       nullptr);
}

void
Cpu::dispatchFault(const GuestFault &fault, VirtAddr instr_pc,
                   VirtAddr next_pc)
{
    const VirtAddr saved_pc = fault.isAbort ? instr_pc : next_pc;
    int set_ipl = -1;
    bool use_is = false;
    if (fault.vector == ScbVector::MachineCheck) {
        set_ipl = kIplMax;
        use_is = true;
    }
    chargeCycles(CycleCategory::ExceptionDispatch, cost_.exceptionDispatch);
    dispatchThroughScb(static_cast<Word>(fault.vector), AccessMode::Kernel,
                       set_ipl, fault.params.data(), fault.nParams,
                       saved_pc, use_is, nullptr);
}

void
Cpu::raiseVmEmulationTrap(const VmTrapFrame &frame)
{
    stats_.vmEmulationTraps++;
    stats_.vmTrapOpcodes[frame.opcode > 0xFF ? 0xFD : frame.opcode]++;
    chargeCycles(CycleCategory::ExceptionDispatch, cost_.exceptionDispatch);
    dispatchThroughScb(static_cast<Word>(ScbVector::VmEmulation),
                       AccessMode::Kernel, -1, nullptr, 0, frame.pc,
                       false, &frame);
}

void
Cpu::dispatchThroughScb(Word vector, AccessMode new_mode, int set_ipl,
                        const Longword *params, int n_params,
                        VirtAddr saved_pc, bool use_interrupt_stack_bit,
                        const VmTrapFrame *vm_frame)
{
    stats_.dispatches[(vector / 4) & 127]++;

    const PhysAddr entry_pa = scbb_ + vector;
    if (!mmu_.memory().exists(entry_pa)) {
        externalHalt(HaltReason::KernelStackNotValid);
        return;
    }
    const Longword entry = mmu_.memory().read32(entry_pa);
    const auto code = static_cast<ScbDispatch>(entry & 3);

    const Psl saved_psl = psl_;

    if (code == ScbDispatch::HostHook) {
        const HostHook &hook = host_hooks_[(entry >> 2) & 127];
        if (!hook) {
            externalHalt(HaltReason::KernelStackNotValid);
            return;
        }
        HostFrame frame;
        frame.vector = vector;
        frame.nParams = static_cast<Byte>(n_params);
        for (int i = 0; i < n_params; ++i)
            frame.params[i] = params[i];
        frame.pc = saved_pc;
        frame.savedPsl = saved_psl;
        frame.vmFrame = vm_frame;
        // Microcode clears PSL<VM> on any exception or interrupt
        // (paper Section 4.2); the saved image keeps it.
        psl_.setVm(false);
        hook(frame);
        return;
    }

    if (code == ScbDispatch::Reserved) {
        externalHalt(HaltReason::KernelStackNotValid);
        return;
    }

    // Guest dispatch: select the destination stack and push the frame.
    const AccessMode old_mode = psl_.currentMode();
    const bool old_is = psl_.interruptStack();
    const bool new_is =
        old_is ||
        (use_interrupt_stack_bit && code == ScbDispatch::InterruptStack);

    // Bank the outgoing stack pointer.
    if (old_is)
        isp_ = regs_[SP];
    else
        sp_banks_[static_cast<int>(old_mode)] = regs_[SP];

    Longword sp = new_is ? isp_ : sp_banks_[static_cast<int>(new_mode)];

    try {
        sp -= 4;
        mmu_.writeV32(sp, saved_psl.raw(), new_mode);
        sp -= 4;
        mmu_.writeV32(sp, saved_pc, new_mode);
        for (int i = n_params - 1; i >= 0; --i) {
            sp -= 4;
            mmu_.writeV32(sp, params[i], new_mode);
        }
    } catch (const GuestFault &) {
        // A fault while pushing the exception frame: the destination
        // (kernel) stack is not valid.  The architecture takes the
        // kernel-stack-not-valid abort; we halt the machine with that
        // reason (the VMM halts the offending VM instead).
        externalHalt(HaltReason::KernelStackNotValid);
        return;
    }

    Psl new_psl = saved_psl;
    new_psl.setRaw(new_psl.raw() & ~Psl::kPswMask); // clear PSW
    new_psl.setFlag(Psl::kFpd, false);
    new_psl.setFlag(Psl::kTp, false);
    new_psl.setVm(false);
    new_psl.setCurrentMode(new_mode);
    new_psl.setPreviousMode(old_mode);
    new_psl.setInterruptStack(new_is);
    if (set_ipl >= 0)
        new_psl.setIpl(static_cast<Byte>(set_ipl));

    psl_ = new_psl;
    regs_[SP] = sp;
    regs_[PC] = entry & ~3u;
}

RunState
Cpu::step()
{
    if (run_state_ == RunState::Halted)
        return run_state_;

    if (checkPendingInterrupts())
        return run_state_;

    if (run_state_ == RunState::Waiting) {
        // Idle: burn cycles until the timer (or an external event)
        // produces an interrupt.
        chargeCycles(CycleCategory::Idle, 16);
        return run_state_;
    }

    stepInstruction();
    return run_state_;
}

void
Cpu::stepInstruction()
{
    const VirtAddr instr_pc = regs_[PC];
    try {
        Decoded &d = decode();
        if (trace_)
            trace_(instr_pc, d.opcode);
        execute(d);
        stats_.instructions++;
        if (run_state_ != RunState::Halted) {
            Cycles charge = d.extraCharge;
            if (!d.suppressBase) {
                charge +=
                    d.info->baseCycles * cost_.instructionScalePct / 100;
            }
            chargeCycles(CycleCategory::GuestExec, charge);
        }
    } catch (const GuestFault &fault) {
        dispatchFault(fault, instr_pc, regs_[PC]);
    }
}

void
Cpu::settleBeforeInstrCharge()
{
    // Data accesses precede the PC commit, so regs_[PC] still names
    // the instruction making the charge.
    const Block &blk = *drv_.blk;
    const BlockInstr *cur = blk.instrs.data();
    const BlockInstr *last = cur + blk.count;
    for (VirtAddr pc = blk.pc; cur != last && pc != regs_[PC]; ++cur)
        pc += cur->len;
    settleDriverRun(cur);
    drv_.charged = true;
}

RunState
Cpu::run(std::uint64_t max_instructions)
{
    const std::uint64_t limit = stats_.instructions + max_instructions;
    std::uint64_t idle_steps = 0;
    // The superblock path is a host execution strategy: never used
    // below the Threaded tier, and tracing needs the per-instruction
    // hook.
    const bool use_blocks = exec_tier_ == ExecTier::Threaded && !trace_;
    while (run_state_ != RunState::Halted && stats_.instructions < limit) {
        if (use_blocks && run_state_ == RunState::Running) {
            // Mirrors step() for the Running state: deliver at most
            // one interrupt, else retire instructions - through block
            // chains when possible, one at a time otherwise.
            if (!checkPendingInterrupts() && !runBlocks(limit) &&
                run_state_ == RunState::Running &&
                stats_.instructions < limit)
                stepInstruction();
            idle_steps = 0;
            continue;
        }
        step();
        if (run_state_ == RunState::Waiting) {
            // Avoid spinning forever when nothing can ever wake us.
            if (!(iccs_ & iccs::kRun) && highestPendingIpl() == 0) {
                if (++idle_steps > 4)
                    return RunState::Waiting;
            }
        } else {
            idle_steps = 0;
        }
    }
    return run_state_;
}

/*
 * Validate and follow one trace link (docs/ARCHITECTURE.md §5b).  The
 * crossing replaces the slow dispatch's window resolve + cache lookup
 * + memcmp with four cheap checks:
 *
 *  - the link still names the block at the architectural PC,
 *  - the target's page generation equals its validGen watermark (any
 *    store to the page since the last byte validation - SMC, DMA,
 *    external poke - fails this and forces the slow path),
 *  - under mapping: the latched TLB entry still carries the tag and
 *    host page recorded at formation and permits Read at the current
 *    mode (context switches, TB invalidates and remaps all change the
 *    tag or host page; a same-va same-context refill reproduces them,
 *    healing the link for free),
 *  - with mapping off: the link must have been formed with mapping
 *    off too (regime flips always revalidate through the slow path).
 *
 * Pending interrupts are the caller's job: the driver stops before
 * following any link when one is deliverable.
 */
bool
Cpu::followLink(Block &src, Block **blk, Tlb::Entry **entry)
{
    const VirtAddr pc = regs_[PC];
    // Probe the slot lastDir predicts first (the last observed exit
    // direction - callers update it only after this call, so it is a
    // genuine prediction), then the other.  The pc guard makes either
    // order correct; ordering by likelihood means the common case
    // touches one Link, and a disp-0 branch or indirect exit (which
    // always reports Fall) still finds its second cached target.
    const int first = src.lastDir;
    for (int probe = 0; probe < 2; ++probe) {
        Block::Link &l = src.links[probe == 0 ? first : first ^ 1];
        Block *t = l.target;
        if (t == nullptr || l.pc != pc)
            continue;
        if (t->pc != pc || *t->genCell != t->validGen)
            return false; // recycled slot or dirtied page: slow path
        if (mmu_.regs().mapen) {
            Tlb::Entry *e = l.entry;
            if (e == nullptr || e->tag != l.tag ||
                e->hostPage != t->hostPage ||
                !(e->permMask &
                  Tlb::permBit(psl_.currentMode(), AccessType::Read)))
                return false;
            *entry = e;
        } else {
            if (l.entry != nullptr)
                return false;
            *entry = nullptr;
        }
        l.taken++;
        stats_.traceLinksTaken++;
        *blk = t;
        return true;
    }
    return false;
}

void
Cpu::formTraceLink(Block &src, int slot, Block &target,
                   Tlb::Entry *entry)
{
    Block::Link &l = src.links[slot];
    if (l.target == &target && l.pc == target.pc) {
        // Same edge, revalidated through the slow path: re-latch the
        // window entry so a transiently evicted TLB entry (or one
        // refilled into a different slot) heals instead of failing
        // every future crossing.
        l.entry = entry;
        l.tag = entry != nullptr ? entry->tag : 0;
        return;
    }
    if (l.target != nullptr)
        removeInboundRef(*l.target, &src, slot);
    l.pc = target.pc;
    l.target = &target;
    l.entry = entry;
    l.tag = entry != nullptr ? entry->tag : 0;
    l.taken = 0;
    target.inbound.emplace_back(&src, static_cast<Byte>(slot));
    stats_.traceLinksFormed++;
}

void
Cpu::removeInboundRef(Block &target, const Block *src, int slot)
{
    auto &in = target.inbound;
    for (auto it = in.begin(); it != in.end(); ++it) {
        if (it->first == src && static_cast<int>(it->second) == slot) {
            in.erase(it);
            return;
        }
    }
}

void
Cpu::severInboundLinks(Block &blk)
{
    for (const auto &[src, slot] : blk.inbound) {
        Block::Link &l = src->links[slot];
        if (l.target == &blk) {
            l = Block::Link{};
            stats_.traceLinksSevered++;
        }
    }
    blk.inbound.clear();
}

void
Cpu::invalidateBlock(Block &blk)
{
    // Sever every inbound edge first (a page-generation bump or SMC
    // hit must cut all of them, not just kill the block), then
    // retract this block's own outbound back-references so targets
    // don't keep a dangling (source, slot) pair for a recycled slot.
    // Count discarded handler bindings so VVAX_DUMP_HOT_BLOCKS can
    // show rebuild churn.
    if (blk.count != 0 && blk.resolved())
        stats_.threadedDiscards++;
    severInboundLinks(blk);
    for (int s = 0; s < 2; ++s) {
        if (Block *t = blk.links[s].target; t != nullptr)
            removeInboundRef(*t, &blk, s);
    }
    blk.clear();
}

bool
Cpu::runBlocks(std::uint64_t limit)
{
    bool executed = false;
    // A block the driver completed but could not chain out of: the
    // edge forms at the next slow dispatch, once the successor has
    // validated.
    Block *prev = nullptr;
    VirtAddr prev_pc = 0;
    int prev_slot = Block::kLinkTaken;

    while (run_state_ == RunState::Running &&
           stats_.instructions < limit) {
        const VirtAddr pc = regs_[PC];
        Tlb::Entry *entry = nullptr;
        const Byte *base = blockWindow(pc, &entry);
        if (!base)
            break;
        Block *blk = bcache_.lookup(pc);
        if (blk != nullptr) {
            const std::uint32_t gen = *blk->genCell;
            if (base != blk->hostPage) {
                // Page identity changed (remap, context rename
                // resolving to a different frame): rebuild.
                stats_.blockInvalidations++;
                invalidateBlock(*blk);
                blk = nullptr;
            } else if (gen != blk->validGen) {
                // The page was written since the last validation.  If
                // the block's own bytes survived, re-watermark so link
                // crossings accept the new generation; otherwise the
                // block is stale (SMC): drop it and sever every
                // inbound link.
                if (std::memcmp(base + (pc & kPageOffsetMask),
                                blk->bytes.data(), blk->byteLen) != 0) {
                    stats_.blockInvalidations++;
                    invalidateBlock(*blk);
                    blk = nullptr;
                } else {
                    blk->validGen = gen;
                }
            }
        }
        if (blk == nullptr)
            blk = buildBlock(pc, base);
        if (blk == nullptr)
            break; // untranslatable here
        blk->hits++;
        // The successor just validated through the slow path; re-check
        // that the source still owns its slot (the build above may
        // have recycled it) and has run often enough to promote -
        // however it was entered, so a block reached only through
        // links becomes a source too.  Links lead only into blocks the
        // driver runs.
        if (prev != nullptr && blk->count != 0 && trace_links_enabled_ &&
            prev->pc == prev_pc && prev->runs >= Block::kLinkThreshold)
            formTraceLink(*prev, prev_slot, *blk, entry);
        prev = nullptr;
        if (blk->count != 0) {
            // The driver follows trace links itself and leaves blk
            // naming the last block it entered, so the stopper and
            // link bookkeeping below apply to the real chain tail.
            const BlockExit exit = executeThreaded(blk, entry, limit);
            executed = true;
            if (run_state_ != RunState::Running || pendingDeliverable())
                break;
            if (exit == BlockExit::Bailed)
                continue;
            if (blk->stopperLen == 0) {
                prev = blk;
                prev_pc = blk->pc;
                prev_slot = exit == BlockExit::Taken ? Block::kLinkTaken
                                                     : Block::kLinkFall;
                continue;
            }
            if (stats_.instructions >= limit)
                break;
        }
        // The block's stopper (the whole block when it starts at
        // one): the interpreter retires it, so a stopper block is
        // never a link source.
        stepInstruction();
        executed = true;
        if (pendingDeliverable())
            break;
    }
    return executed;
}

} // namespace vvax
