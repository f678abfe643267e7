/**
 * @file
 * The VAX-subset processor core.
 *
 * Implements fetch/decode/execute for the instruction subset listed in
 * arch/opcodes.h, exception and interrupt dispatch through the SCB,
 * IPL arbitration, the interval timer, and the internal processor
 * registers.
 *
 * The paper's microcode modifications are selected by MicrocodeLevel:
 *
 *  - Standard: a plain VAX.  PSL<VM> does not exist, PROBEVM/WAIT are
 *    reserved instructions, memory writes set PTE<M> in hardware.
 *  - Modified: the paper's virtualizable VAX.  PSL<VM> and the VMPSL
 *    register exist; sensitive instructions executed with PSL<VM>=1
 *    take the VM-emulation trap with fully decoded operands; writes to
 *    unmodified pages raise the modify fault; PROBE has the
 *    shadow-valid microcode fast path; MOVPSL merges VMPSL.
 *
 * An SCB vector whose low two bits are 11 dispatches to a registered
 * host hook - the stand-in for "service in writable control store"
 * that attaches the C++ VMM to the machine (DESIGN.md Section 3).
 */

#ifndef VVAX_CPU_CPU_H
#define VVAX_CPU_CPU_H

#include <array>
#include <functional>
#include <iosfwd>
#include <vector>

#include "arch/exceptions.h"
#include "arch/ipr.h"
#include "arch/opcodes.h"
#include "arch/psl.h"
#include "arch/scb.h"
#include "arch/types.h"
#include "cpu/block_cache.h"
#include "cpu/predecode.h"
#include "memory/mmu.h"
#include "metrics/cost_model.h"
#include "metrics/stats.h"

namespace vvax {

enum class MicrocodeLevel : Byte { Standard, Modified };

enum class RunState : Byte { Running, Waiting, Halted };

/**
 * Host execution strategy, ordered lowest to highest (each tier
 * includes everything below it; docs/ARCHITECTURE.md §5c):
 *
 *  - Reference: byte-at-a-time interpreter through the full MMU walk
 *    (the lockstep oracle; the only tier with Mmu's reference path
 *    on).
 *  - Fast: pointer-carrying TLB + predecoded-instruction cache,
 *    per-instruction dispatch only.
 *  - Threaded: superblocks with trace links, every runnable block
 *    retired by the computed-goto driver in threaded.cc (the
 *    default).
 *
 * Selected at construction by VVAX_EXEC_TIER=ref|fast|threaded or at
 * run time via Cpu::setExecTier, the one knob: the MMU's reference
 * path has no switch of its own.  Purely a host-side knob: every tier
 * retires bit-identical architectural state and Stats.
 */
enum class ExecTier : Byte { Reference = 0, Fast, Threaded };

/** One decoded operand, as supplied to the VM-emulation trap. */
struct DecodedOperand
{
    OpAccess access = OpAccess::Read;
    OpSize size = OpSize::L;
    bool isRegister = false;
    bool isLiteral = false;
    Byte reg = 0;        //!< register number when isRegister
    VirtAddr addr = 0;   //!< effective address otherwise
    Longword value = 0;  //!< fetched value (Read/Modify/literal),
                         //!< or target PC for Branch operands
    Longword value2 = 0; //!< high half for quadword operands
};

/**
 * Information supplied with a VM-emulation trap: the paper specifies
 * that microcode hands the VMM the instruction, its decoded operands,
 * and the VM's composite PSL, so the VMM never parses the instruction
 * stream (Section 4.2).
 */
struct VmTrapFrame
{
    Word opcode = 0;
    VirtAddr pc = 0;     //!< address of the trapping instruction
    VirtAddr nextPc = 0; //!< address of the following instruction
    Psl vmPsl;           //!< composite VM PSL (current/previous mode etc.)
    Byte nOperands = 0;
    std::array<DecodedOperand, kMaxOperands> operands{};
};

/** Frame passed to a host hook when its SCB vector is dispatched. */
struct HostFrame
{
    Word vector = 0;       //!< SCB offset
    Byte nParams = 0;
    std::array<Longword, 2> params{};
    VirtAddr pc = 0;       //!< PC that would be saved on the stack
    Psl savedPsl;          //!< PSL at the event, including PSL<VM>
    const VmTrapFrame *vmFrame = nullptr; //!< set for VM-emulation traps
};

/** Devices that service the console IPRs (RXCS/RXDB/TXCS/TXDB). */
class ConsolePort
{
  public:
    virtual ~ConsolePort() = default;
    virtual Longword readIpr(Ipr which) = 0;
    virtual void writeIpr(Ipr which, Longword value) = 0;
};

class Cpu
{
  public:
    using HostHook = std::function<void(const HostFrame &)>;

    Cpu(Mmu &mmu, const CostModel &cost, Stats &stats,
        MicrocodeLevel level);

    MicrocodeLevel level() const { return level_; }
    const CostModel &costModel() const { return cost_; }
    Stats &stats() { return stats_; }
    Mmu &mmu() { return mmu_; }

    // ----- Architectural state ------------------------------------------
    Longword reg(int n) const { return regs_[n]; }
    void setReg(int n, Longword value) { regs_[n] = value; }
    VirtAddr pc() const { return regs_[PC]; }
    void setPc(VirtAddr pc) { regs_[PC] = pc; }

    Psl &psl() { return psl_; }
    const Psl &psl() const { return psl_; }

    /**
     * Stack pointer for @p mode.  The SP register is banked per access
     * mode; the bank slot for the current mode shadows regs[SP].
     */
    Longword stackPointer(AccessMode mode) const;
    void setStackPointer(AccessMode mode, Longword value);
    Longword interruptStackPointer() const;
    void setInterruptStackPointer(Longword value);

    Longword vmpsl() const { return vmpsl_; }
    void setVmpsl(Longword value) { vmpsl_ = value; }

    /**
     * Hint the VMM maintains for the VAX-11/730's microcode IPL
     * assist: the IPL of the highest pending *virtual* interrupt.
     * MTPR-to-IPL in a VM completes in microcode unless the new IPL
     * would make that interrupt deliverable (Section 7.3).
     */
    void setVmPendingIplHint(Byte ipl) { vm_pending_ipl_hint_ = ipl; }
    Byte vmPendingIplHint() const { return vm_pending_ipl_hint_; }

    Longword scbb() const { return scbb_; }
    void setScbb(Longword value) { scbb_ = value & ~kPageOffsetMask; }
    Longword pcbb() const { return pcbb_; }

    // ----- Devices and hooks --------------------------------------------
    void attachConsole(ConsolePort *port) { console_ = port; }

    /**
     * Register @p hook as host hook number @p index; an SCB entry of
     * value (index << 2) | 3 dispatches to it.
     */
    void setHostHook(int index, HostHook hook);
    /** SCB entry encoding for host hook @p index. */
    static Longword hostHookScbEntry(int index)
    {
        return (static_cast<Longword>(index) << 2) | 3;
    }

    /**
     * Assert (or deassert) an interrupt request line at @p ipl with
     * SCB @p vector.  Level-triggered: the line stays pending until
     * deasserted.
     */
    void requestInterrupt(Byte ipl, Word vector);
    void clearInterrupt(Byte ipl, Word vector);
    /** @return the IPL of the highest pending request (0 if none). */
    Byte
    highestPendingIpl() const
    {
        // Both summaries are kept current by the recompute hooks.
        return pending_device_ipl_ > pending_soft_ipl_
                   ? pending_device_ipl_
                   : pending_soft_ipl_;
    }

    // ----- Execution ----------------------------------------------------
    /** Execute one instruction (or deliver one interrupt). */
    RunState step();

    /**
     * Run until the machine halts, @p max_instructions have executed,
     * or (optionally) a predicate says stop.
     */
    RunState run(std::uint64_t max_instructions);

    RunState runState() const { return run_state_; }
    HaltReason haltReason() const { return halt_reason_; }
    /** Leave the halted state (used by VM restart and tests). */
    void clearHalt();
    /** Halt from outside (console, fatal VMM decision). */
    void externalHalt(HaltReason reason);
    /** Wake from WAIT (the VMM's virtual-interrupt path uses this). */
    void wakeFromWait();
    /** Put the processor into the idle (waiting) state (VMM idle). */
    void enterIdleWait() { run_state_ = RunState::Waiting; }

    /**
     * Charge @p n cycles.  Inside a block-driver run (an MMIO register
     * access in a VM charges its trap mid-instruction) the driver's
     * retired prefix is settled first, so the charges reach ICR in
     * the reference interpreter's order.
     */
    void
    chargeCycles(CycleCategory cat, Cycles n)
    {
        if (drv_.blk != nullptr) [[unlikely]]
            settleBeforeInstrCharge();
        stats_.addCycles(cat, n);
        advanceTimer(n);
    }

    // ----- Services used by the VMM host hooks --------------------------
    /**
     * Resume execution at @p pc with PSL @p new_psl, performing the
     * microcode REI side effects (stack bank switch; PSL<VM> may be
     * set - only the VMM, conceptually in kernel mode, calls this).
     */
    void resumeWith(VirtAddr pc, Psl new_psl);

    /**
     * Read/write an IPR as the microcode would (no privilege check).
     * @return false if the register does not exist at this level.
     */
    bool readIprInternal(Ipr which, Longword &value);
    bool writeIprInternal(Ipr which, Longword value);

    /** For tracing: disassembly hook receives (pc, opcode). */
    using TraceFn = std::function<void(VirtAddr, Word)>;
    void setTrace(TraceFn fn) { trace_ = std::move(fn); }

    // ----- Trace tier (docs/ARCHITECTURE.md §5b) ------------------------
    /**
     * Enable/disable direct block-to-block links.  Defaults to on; the
     * bench harness A/B pair and the links-off lockstep tests toggle
     * them per run.  Disabling does not sever existing links - they
     * simply stop being followed or formed, so every dispatch goes
     * through the slow path again.
     */
    void setTraceLinksEnabled(bool on) { trace_links_enabled_ = on; }
    bool traceLinksEnabled() const { return trace_links_enabled_; }
    /**
     * Select the host execution tier (see ExecTier).  This is the
     * only caller of Mmu::setReferencePath (private, Cpu is its
     * friend): the reference path is on for Reference, so the whole
     * fast-path stack is bypassed, and off for every other tier.
     */
    void
    setExecTier(ExecTier tier)
    {
        exec_tier_ = tier;
        mmu_.setReferencePath(tier == ExecTier::Reference);
    }
    ExecTier execTier() const { return exec_tier_; }
    /**
     * Dump the @p top_n hottest cached superblocks (by driver
     * entries, slow-path and chained, times block length) with their
     * outbound link edges - the VVAX_DUMP_HOT_BLOCKS observability
     * hook.
     */
    void dumpHotBlocks(std::ostream &os, int top_n) const;

    std::uint64_t instructionsExecuted() const
    {
        return stats_.instructions;
    }

  private:
    friend class DecodeContext;

    // dispatch.cc
    void deliverInterrupt(Byte ipl, Word vector);
    void dispatchFault(const GuestFault &fault, VirtAddr instr_pc,
                       VirtAddr next_pc);
    /**
     * Common SCB dispatch.  @p new_mode is the destination mode
     * (kernel except for CHM).  @p set_ipl when >= 0 raises the IPL.
     */
    void dispatchThroughScb(Word vector, AccessMode new_mode,
                            int set_ipl, const Longword *params,
                            int n_params, VirtAddr saved_pc,
                            bool use_interrupt_stack_bit,
                            const VmTrapFrame *vm_frame);
    void raiseVmEmulationTrap(const VmTrapFrame &frame);
    bool checkPendingInterrupts();
    void
    advanceTimer(Cycles cycles)
    {
        todr_ += static_cast<Longword>(cycles);
        if (!(iccs_ & iccs::kRun))
            return;
        icr_ += static_cast<std::int64_t>(cycles);
        if (icr_ >= 0)
            timerFired();
    }
    /** ICR crossed zero: raise the timer interrupt and reload. */
    void timerFired();

    // decode.cc
    struct Decoded
    {
        Word opcode = 0;
        const InstrInfo *info = nullptr;
        VirtAddr nextPc = 0;
        std::array<DecodedOperand, kMaxOperands> operands{};
        /**
         * Working register file committed on success: points at the
         * CPU's scratch register bank (see commitRegs()).
         */
        Longword *regsAfter = nullptr;
        Cycles extraCharge = 0;   //!< instruction-specific extra cycles
        bool suppressBase = false; //!< cost fully replaced by extraCharge
    };
    /**
     * Decode the instruction at regs_[PC]; may throw GuestFault.
     * Returns a reference to the per-CPU scratch object - valid until
     * the next decode() call (the CPU is single-threaded).
     */
    Decoded &decode();
    /**
     * Replay the operand template @p ci for the instruction at @p pc
     * into @p d; may throw GuestFault.  @p mapped selects the TLB-hit
     * accounting of a mapped instruction window.  Performs exactly the
     * data accesses, register side effects and counter updates the
     * byte-level decode would, in the same order.
     */
    void replayTemplate(const PredecodedInstr &ci, VirtAddr pc,
                        bool mapped, Decoded &d);
    /** Sized operand read through the MMU (may throw GuestFault). */
    Longword fetchOperandValue(VirtAddr addr, OpSize size,
                               AccessMode mode);
    /**
     * Access-validate a store's page(s) (may throw GuestFault).
     * Header-inline so the fused-store path in the block executor
     * folds it into the MMU's fast translate.
     */
    void
    validateOperandWrite(VirtAddr addr, OpSize size, AccessMode mode)
    {
        mmu_.translate(addr, AccessType::Write, mode);
        Longword bytes = 4;
        switch (size) {
          case OpSize::B: bytes = 1; break;
          case OpSize::W: bytes = 2; break;
          case OpSize::L: bytes = 4; break;
          case OpSize::Q: bytes = 8; break;
        }
        const Longword last = addr + bytes - 1;
        if ((addr >> kPageShift) != (last >> kPageShift))
            mmu_.translate(last, AccessType::Write, mode);
    }

    // dispatch.cc / block_cache.cc: superblock translation cache
    // (docs/ARCHITECTURE.md §5a).  Never used on the reference path.
    /** Decode+execute+account one instruction (the body of step()). */
    void stepInstruction();
    /**
     * Retire instructions through cached superblocks, each block's
     * stopper through stepInstruction(), until the block chain breaks
     * (untranslatable code, halt/wait, a deliverable interrupt, or
     * the instruction budget).  @return true if at least one
     * instruction retired.  Must be entered with no deliverable
     * interrupt pending.
     */
    bool runBlocks(std::uint64_t limit);
    /**
     * Translate the run starting at @p pc into the block slot.
     * @p base is the already-resolved instruction window.  @return
     * the block (count == 0 when pc is itself a stopper), or nullptr
     * when pc has no predecoded entry yet (code must execute once
     * through the per-instruction path before it can block).
     */
    Block *buildBlock(VirtAddr pc, const Byte *base);
    /**
     * How a block run ended, for trace-link formation: Bailed covers
     * every abnormal exit (fault, mid-block hazard, budget cut) and
     * forms no link; Taken/Fall name the link slot the architectural
     * successor belongs in (Taken for unconditional or taken
     * branches, Fall for fall-through, not-taken, and indirect
     * exits).
     */
    enum class BlockExit : Byte { Bailed, Taken, Fall };
    /**
     * The block executor (threaded.cc, docs/ARCHITECTURE.md §5c):
     * bind @p blk's handlers on first entry, then retire up to
     * (limit - instructions) instructions of it - and of any blocks
     * reachable through validating trace links - via computed-goto
     * handler chains.  @p win_entry is the TLB entry the window
     * resolved through (nullptr when mapping is off); its tag is
     * re-checked after memory-touching instructions - see
     * BlockInstr::kTouchesMem.  @p blk is updated to the last block
     * entered so the caller's link-formation bookkeeping stays
     * accurate.
     */
    BlockExit executeThreaded(Block *&blk, Tlb::Entry *win_entry,
                              std::uint64_t limit);
    /**
     * The driver's unsettled run (threaded.cc): instructions of blk
     * from open on have retired but are not yet counted, charged or
     * TLB-hit.  blk is nullptr outside the driver.
     */
    struct DriverRun
    {
        const Block *blk = nullptr;
        const BlockInstr *open = nullptr;
        bool mapped = false;   //!< count fetch hits (window mapped)
        /** A charge from inside an instruction settled the run up to
         *  that instruction: the driver re-plans its next split. */
        bool charged = false;
    };
    /** How the last instruction of a settled driver run ended. */
    enum class DriverLast : Byte {
        Retired,
        Halted,  //!< halted the CPU: counted, not charged
        Faulted, //!< faulted: only its fetches before the data access
    };
    /** Count, charge and TLB-hit the run's instructions before @p upto
     *  in one step.  Inline (below the class): the driver settles
     *  every block, and a call per one-instruction block shows on
     *  trap-dense guests. */
    void settleDriverRun(const BlockInstr *upto,
                         DriverLast last = DriverLast::Retired);
    /** chargeCycles from inside a driver instruction: settle the
     *  instructions retired before it. */
    void settleBeforeInstrCharge();
    /**
     * Follow one of @p src's links if it validates against the
     * current PC, mapping regime, latched TLB tag and the target's
     * generation watermark (docs/ARCHITECTURE.md §5b).  Probes the
     * slot Block::lastDir predicts first (likely-exit ordering; the
     * architectural-PC guard makes either probe order correct).  On
     * success, *blk and *entry name the next block and its window.
     */
    bool followLink(Block &src, Block **blk, Tlb::Entry **entry);
    /** Patch (or re-latch) the @p slot edge src -> target. */
    void formTraceLink(Block &src, int slot, Block &target,
                       Tlb::Entry *entry);
    /**
     * Drop @p blk from the cache: sever every inbound link, retract
     * its own outbound back-references, then clear the slot.  All
     * invalidation paths (SMC, remap, slot reuse) must come through
     * here so no source is left pointing at a recycled slot.
     */
    void invalidateBlock(Block &blk);
    void severInboundLinks(Block &blk);
    static void removeInboundRef(Block &target, const Block *src,
                                 int slot);
    /**
     * Resolve the instruction window for @p pc without touching any
     * counter: host pointer to the page base, or nullptr when the
     * page is not directly addressable (TLB miss, MMIO, no read
     * permission).  Context keying is inherited from tlbLookup.
     * *entry receives the TLB entry used (nullptr when mapping is
     * off and the window is a bare-RAM page).
     */
    const Byte *blockWindow(VirtAddr pc, Tlb::Entry **entry);
    /** An interrupt is deliverable at the current IPL. */
    bool
    pendingDeliverable() const
    {
        const Byte cur = psl_.ipl();
        return pending_device_ipl_ > cur || pending_soft_ipl_ > cur;
    }

    // execute.cc / exec_system.cc
    void execute(Decoded &d);
    Longword
    operandRead(const Decoded &d, int i)
    {
        return d.operands[i].value;
    }
    void
    operandWrite(Decoded &d, int i, Longword value, Longword value2 = 0)
    {
        DecodedOperand &op = d.operands[i];
        if (op.isRegister) {
            Longword &r = d.regsAfter[op.reg];
            switch (op.size) {
              case OpSize::B:
                r = (r & 0xFFFFFF00u) | (value & 0xFF);
                break;
              case OpSize::W:
                r = (r & 0xFFFF0000u) | (value & 0xFFFF);
                break;
              case OpSize::L: r = value; break;
              case OpSize::Q:
                r = value;
                d.regsAfter[op.reg + 1] = value2;
                break;
            }
            return;
        }
        const AccessMode mode = psl_.currentMode();
        switch (op.size) {
          case OpSize::B:
            mmu_.writeV8(op.addr, static_cast<Byte>(value), mode);
            break;
          case OpSize::W:
            mmu_.writeV16(op.addr, static_cast<Word>(value), mode);
            break;
          case OpSize::L:
            mmu_.writeV32(op.addr, value, mode);
            break;
          case OpSize::Q:
            mmu_.writeV32(op.addr, value, mode);
            mmu_.writeV32(op.addr + 4, value2, mode);
            break;
        }
    }
    /** Push/pop on the working stack pointer in @p d (pre-commit). */
    void pushLong(Decoded &d, Longword value);
    Longword popLong(Decoded &d);

    void execChm(Decoded &d, AccessMode target);
    void execRei();
    void execMovpsl(Decoded &d);
    void execProbe(Decoded &d, AccessType type);
    void execProbeVm(Decoded &d, AccessType type);
    void execMtpr(Decoded &d);
    void execMfpr(Decoded &d);
    void execLdpctx();
    void execSvpctx();
    void execCalls(Decoded &d);
    void execCallg(Decoded &d);
    void execRet();
    void execPushr(Decoded &d);
    void execPopr(Decoded &d);
    void execMovc3(Decoded &d);
    void execWait();
    /** BBS/BBC and the set/clear variants: @p write_new is -1 for
     *  test-only, else the bit value written back. */
    void execBbx(Decoded &d, bool branch_on_set, int write_new = -1);
    void execCase(Decoded &d, OpSize size);
    void execInsque(Decoded &d);
    void execRemque(Decoded &d);

    /** Composite VM PSL from the real PSL and VMPSL (Section 4.2). */
    Psl compositeVmPsl() const;
    bool inVmMode() const
    {
        return level_ == MicrocodeLevel::Modified && psl_.vm();
    }
    /** The VM's notion of its current mode, from VMPSL. */
    AccessMode vmCurrentMode() const
    {
        return Psl(vmpsl_).currentMode();
    }
    /** Raise a privileged-instruction or VM-emulation event. */
    void privilegedCheck(Decoded &d);

    /**
     * Commit the working register file: regsAfter is the scratch
     * bank, so committing is a pointer swap, not a 16-longword copy.
     * Idempotent (some system-instruction paths commit before
     * dispatching and must not double-swap).
     */
    void
    commitRegs(Decoded &d)
    {
        if (regs_ != d.regsAfter) {
            regs_scratch_ = regs_;
            regs_ = d.regsAfter;
        }
    }

    Mmu &mmu_;
    const CostModel &cost_;
    Stats &stats_;
    MicrocodeLevel level_;

    // Double-buffered register file: regs_ is the architectural
    // state, regs_scratch_ the decode working copy (see commitRegs).
    std::array<Longword, kNumRegs> reg_banks_[2]{};
    Longword *regs_ = reg_banks_[0].data();
    Longword *regs_scratch_ = reg_banks_[1].data();
    Psl psl_{0x001F0000}; // IPL 31, kernel mode, not interrupt stack
    std::array<Longword, kNumAccessModes> sp_banks_{};
    Longword isp_ = 0;
    Longword vmpsl_ = 0;
    Byte vm_pending_ipl_hint_ = 0;

    Longword scbb_ = 0;
    Longword pcbb_ = 0;
    Longword sisr_ = 0;
    Longword astlvl_ = 4;
    Longword sid_;
    Longword todr_ = 0;

    // Interval timer.
    Longword iccs_ = 0;
    Longword nicr_ = 0;
    std::int64_t icr_ = 0;
    // Beside the timer fields chargeCycles already touches, so its
    // open-run check costs no extra cache line.
    DriverRun drv_;

    ConsolePort *console_ = nullptr;
    std::array<HostHook, 128> host_hooks_{};

    struct IntRequest
    {
        Byte ipl;
        Word vector;
    };
    std::vector<IntRequest> int_requests_;

    // Cached interrupt summary so the per-step pending check is a
    // compare instead of a rescan.  Recomputed whenever
    // int_requests_ or sisr_ changes.
    void recomputeDevicePending();
    void recomputeSoftPending();
    Byte pending_device_ipl_ = 0;
    Word pending_device_vector_ = 0;
    Byte pending_soft_ipl_ = 0;

    // Host fast path (docs/ARCHITECTURE.md): decode scratch reused
    // every instruction.
    Decoded decode_scratch_;

    /**
     * Predecoded-instruction cache (decode.cc, cpu/predecode.h).  An
     * entry stores the raw instruction bytes plus a stream-independent
     * operand template; on a hit the decoder revalidates the bytes
     * against the live instruction window (so self-modifying code and
     * remapping need no explicit invalidation) and replays the
     * template, performing exactly the data accesses and counter
     * updates the byte-level decode would.
     *
     * Like BlockCache's slot table, the ~150 KB entry array is sized
     * on the first decode rather than at construction, so a CPU that
     * never executes (a golden-image fork held in reserve) costs
     * nothing here.
     */
    static constexpr int kICacheEntries = 1024;
    static int
    icacheIndex(VirtAddr pc)
    {
        return static_cast<int>(pc & (kICacheEntries - 1));
    }
    std::vector<PredecodedInstr> icache_; //!< sized on first decode

    /** Superblock translation cache (block_cache.cc, dispatch.cc). */
    BlockCache bcache_;

    // Trace tier switch (docs/ARCHITECTURE.md §5b): a host-side knob,
    // never observable architecturally.
    bool trace_links_enabled_ = true;
    // Execution tier (docs/ARCHITECTURE.md §5c): host-side strategy
    // selection, highest tier by default.
    ExecTier exec_tier_ = ExecTier::Threaded;

    RunState run_state_ = RunState::Running;
    HaltReason halt_reason_ = HaltReason::None;
    TraceFn trace_;
};

inline void
Cpu::settleDriverRun(const BlockInstr *upto, DriverLast last)
{
    const Block &blk = *drv_.blk;
    const BlockInstr *from = drv_.open;
    drv_.open = upto;
    if (from == upto)
        return;
    auto n = static_cast<std::uint64_t>(upto - from);
    Cycles charge = blk.totalCharge;
    std::uint64_t hits = blk.fetchHits;
    if (n != blk.count) {
        charge = 0;
        hits = 0;
        for (const BlockInstr *p = from; p != upto; ++p) {
            charge += p->charge;
            hits += p->fetchesPre + p->fetchesPost;
        }
    }
    // The reference charges no halting or faulting instruction, and
    // counts neither the faulting one nor its fetches after the data
    // access (a Generic replay counts its own).
    std::uint64_t charged = n;
    if (last != DriverLast::Retired) {
        charge -= upto[-1].charge;
        --charged;
    }
    if (last == DriverLast::Faulted) {
        hits -= upto[-1].fetchesPost;
        --n;
    }
    stats_.instructions += n;
    stats_.blockInstructions += n;
    stats_.threadedInstructions += n;
    if (drv_.mapped)
        stats_.tlbHits += hits;
    // Only the run's last instruction can bring ICR to zero (the
    // driver splits blocks there), so one advance for the whole run
    // is the reference's per-instruction sequence.
    if (charged != 0) {
        stats_.addCycles(CycleCategory::GuestExec, charge);
        advanceTimer(charge);
    }
}

} // namespace vvax

#endif // VVAX_CPU_CPU_H
