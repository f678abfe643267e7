/**
 * @file
 * The block executor: a computed-goto driver that retires every
 * runnable superblock (docs/ARCHITECTURE.md §5c).
 *
 * Each BlockInstr carries the label of its handler inside the driver
 * (labels-as-values); the labels are bound in place the first time the
 * driver enters a freshly built block, so execution is `goto
 * *s->handler` chains, one indirect jump per retired instruction, with
 * each handler's operand closure (register numbers, immediates,
 * displacements) pre-resolved by classify().  Memory-operand shape,
 * condition-branch opcode and SOB/BLB sense are distinct ops, so the
 * handler bodies are branch-free.
 *
 * Everything architectural must stay bit-identical to the reference
 * interpreter.  The driver settles counters once per block: a block's
 * retired instructions are counted, charged and TLB-hit in one step
 * when it ends (Block::totalCharge, Block::fetchHits) - nothing inside
 * a block can read them, since MFPR ICR/TODR are stoppers.  Only the
 * interval timer's zero crossing must land on an exact instruction, so
 * it splits the block like the budget does: the driver settles the
 * prefix up to the crossing instruction, bails if the tick is
 * deliverable, and otherwise runs on.  A charge made from inside an
 * instruction (an MMIO register access in a VM) settles the prefix
 * before it (Cpu::chargeCycles), and the driver plans its next split
 * after that instruction.  The mid-block hazard checks
 * (page generation + byte memcmp after stores, window-TLB tag after
 * any data access) and the fault path (settle the retired prefix, then
 * dispatch) keep the reference's order.  The lockstep suites in
 * tests/test_equivalence.cc pin this equivalence.
 *
 * Trace links chain block -> block inside the driver: at a completed
 * block exit the driver scores the lastDir prediction, re-runs
 * followLink's full guard set, and on success jumps straight to the
 * target without returning to runBlocks.
 */

#if !defined(__GNUC__)
#error "the block executor needs labels-as-values (GCC or Clang)"
#endif

#include <cstring>

#include "cpu/alu.h"
#include "cpu/cpu.h"

namespace vvax {

namespace {

/*
 * Retire an integer result into register @p dst: the result commits
 * with the PC before any trap, as in the execute switch.  Functions,
 * not macro text: GCC keeps a named AluResult inside the driver in a
 * stack slot (the computed gotos defeat its scalarization), but not a
 * by-value parameter of an inlined call.
 */
inline void
retireAlu(Longword *regs, Psl &psl, int dst, VirtAddr next_pc, AluResult r)
{
    regs[dst] = r.value;
    regs[PC] = next_pc;
    setCc(psl, r.cc());
    raiseArithTraps(psl, r);
}

/* SOBGTR / SOBGEQ (@p geq): the decremented index @p r, branching to
 * @p target while it stays above (or at) zero.  Returns whether the
 * branch was taken. */
inline bool
retireSob(Longword *regs, Psl &psl, int reg, bool geq, VirtAddr target,
          VirtAddr fall, AluResult r)
{
    regs[reg] = r.value;
    const auto si = static_cast<std::int32_t>(r.value);
    const bool taken = si > 0 || (geq && si == 0);
    regs[PC] = taken ? target : fall;
    setCc(psl, r.cc());
    raiseArithTraps(psl, r);
    return taken;
}

} // namespace

/* Epilogue for handlers that cannot touch memory (flags == 0 by
 * construction): nothing they do can make an interrupt deliverable. */
#define VVAX_DISPATCH()                                               \
    do {                                                              \
        if (++s == end)                                               \
            goto split;                                               \
        instr_pc = regs_[PC];                                         \
        goto *s->handler;                                             \
    } while (0)

/* Epilogue for loads (kTouchesMem): the data walk may have evicted
 * the window's TLB entry, and an MMIO register read may have charged
 * cycles (settling the run up to here). */
#define VVAX_EPI_TOUCH()                                              \
    do {                                                              \
        if (win_entry && win_entry->tag != win_tag)                   \
            goto bail_tlb;                                            \
        if (drv_.charged)                                             \
            goto charged;                                             \
        VVAX_DISPATCH();                                              \
    } while (0)

/* Epilogue for stores (kWritesMem | kTouchesMem): re-check the page
 * generation (the store may have rewritten this very block), the
 * run state and pending summaries (MMIO can raise device lines
 * synchronously), then the window tag. */
#define VVAX_EPI_WRITE()                                              \
    do {                                                              \
        if (*blk->genCell != gen) {                                   \
            if (std::memcmp(blk->hostPage +                           \
                                (blk->pc & kPageOffsetMask),          \
                            blk->bytes.data(), blk->byteLen) != 0)    \
                goto bail_smc;                                        \
            gen = *blk->genCell;                                      \
            blk->validGen = gen;                                      \
        }                                                             \
        if (run_state_ != RunState::Running || pendingDeliverable())  \
            goto bail_interrupt;                                      \
        VVAX_EPI_TOUCH();                                             \
    } while (0)

/* Condition-branch handler: one label per Bxx opcode, the predicate
 * baked in. */
#define VVAX_CONDBR(label, expr)                                      \
  label: {                                                            \
    const bool taken = (expr);                                        \
    regs_[PC] = taken ? static_cast<VirtAddr>(s->imm)                 \
                      : instr_pc + s->len;                            \
    br_taken = taken;                                                 \
    VVAX_DISPATCH();                                                  \
  }

#define VVAX_CMP(label, xexpr, yexpr)                                 \
  label: {                                                            \
    const Longword x = (xexpr);                                       \
    const Longword y = (yexpr);                                       \
    regs_[PC] = instr_pc + s->len;                                    \
    setCc(psl_, compareCc(x, y, OpSize::L));                          \
    VVAX_DISPATCH();                                                  \
  }

/* An integer op with a register destination (b), its source
 * pre-resolved as a register or an immediate. */
#define VVAX_ARITH(label, resultexpr)                                 \
  label: {                                                            \
    retireAlu(regs_, psl_, s->b, instr_pc + s->len, (resultexpr));    \
    VVAX_DISPATCH();                                                  \
  }

#define VVAX_SOB(label, geq)                                          \
  label: {                                                            \
    br_taken = retireSob(regs_, psl_, s->a, (geq),                    \
                         static_cast<VirtAddr>(s->imm),               \
                         instr_pc + s->len,                           \
                         sobL(regs_[s->a], psl_.c()));                \
    VVAX_DISPATCH();                                                  \
  }

#define VVAX_BLB(label, takenexpr)                                    \
  label: {                                                            \
    const bool bit = (regs_[s->a] & 1) != 0;                          \
    const bool taken = (takenexpr);                                   \
    regs_[PC] = taken ? static_cast<VirtAddr>(s->imm)                 \
                      : instr_pc + s->len;                            \
    br_taken = taken;                                                 \
    VVAX_DISPATCH();                                                  \
  }

#define VVAX_MOVMR(label, addrexpr)                                   \
  label: {                                                            \
    const VirtAddr addr = (addrexpr);                                 \
    const Longword v = mmu_.readV32(addr, mode);                      \
    regs_[s->a] = v;                                                  \
    regs_[PC] = instr_pc + s->len;                                    \
    setCc(psl_, logicalCc(v, psl_.c()));                              \
    VVAX_EPI_TOUCH();                                                 \
  }

#define VVAX_MOVxM(label, addrexpr, valexpr)                          \
  label: {                                                            \
    const VirtAddr addr = (addrexpr);                                 \
    validateOperandWrite(addr, OpSize::L, mode);                      \
    const Longword v = (valexpr);                                     \
    mmu_.writeV32(addr, v, mode);                                     \
    regs_[PC] = instr_pc + s->len;                                    \
    setCc(psl_, logicalCc(v, psl_.c()));                              \
    VVAX_EPI_WRITE();                                                 \
  }

Cpu::BlockExit
Cpu::executeThreaded(Block *&blk_ref, Tlb::Entry *win_entry,
                     std::uint64_t limit)
{
    // Label table in BlockOp order; static because label addresses
    // are stable for the process lifetime and the table must not be
    // rebuilt per call.
    static const void *const kLab[kNumBlockOps] = {
        &&L_Generic,  &&L_MovRR,    &&L_MovIR,    &&L_MovMRreg,
        &&L_MovMRabs, &&L_MovRMreg, &&L_MovRMabs, &&L_MovIMreg,
        &&L_MovIMabs, &&L_MovRAinc, &&L_ClrR,     &&L_TstR,
        &&L_IncR,     &&L_DecR,     &&L_AddRR,    &&L_AddIR,
        &&L_SubRR,    &&L_SubIR,    &&L_BisRR,    &&L_BisIR,
        &&L_BicRR,    &&L_BicIR,    &&L_XorRR,    &&L_XorIR,
        &&L_MulRR,    &&L_MulIR,    &&L_DivRR,    &&L_DivIR,
        &&L_AshIR,    &&L_Bic3IR,   &&L_CmpRR,    &&L_CmpIR,
        &&L_CmpRI,    &&L_CmpbAincI, &&L_Bra,     &&L_Bneq,
        &&L_Beql,     &&L_Bgtr,     &&L_Bleq,     &&L_Bgeq,
        &&L_Blss,     &&L_Bgtru,    &&L_Blequ,    &&L_Bvc,
        &&L_Bvs,      &&L_Bcc,      &&L_Bcs,      &&L_SobGeq,
        &&L_SobGtr,   &&L_Blbc,     &&L_Blbs,
    };

    Block *blk = blk_ref;
    // Hoisted per chain: no in-block opcode can change the mode (it
    // lives in the sensitive set stopsBlock() rejects), so it is
    // stable across every trace-link crossing the driver makes.
    const AccessMode mode = psl_.currentMode();

    // Per-block state, (re)established at `enter` for every block in
    // the chain.  Declared up front: the computed gotos and the
    // chain-crossing `goto enter` must not jump over initializations.
    const BlockInstr *s = nullptr;
    const BlockInstr *end = nullptr;  // next split: settle, then go on
    const BlockInstr *stop = nullptr; // end of this block's run
    std::uint64_t win_tag = 0;
    std::uint32_t gen = 0;
    bool br_taken = false;
    bool truncated = false;
    VirtAddr instr_pc = 0;
    ThreadedBail bail = ThreadedBail::Interrupt;

    try {
    enter:
        if (!blk->resolved()) {
            // First entry since the build: bind each op to its label.
            for (int i = 0; i < blk->count; ++i)
                blk->instrs[i].handler = kLab[blk->instrs[i].op];
            stats_.threadedCompiles++;
        }
        blk->runs++;
        stats_.blockExecutions++;
        win_tag = win_entry != nullptr ? win_entry->tag : 0;
        gen = *blk->genCell;
        br_taken = false;
        {
            const std::uint64_t remaining = limit - stats_.instructions;
            std::size_t n = blk->count;
            truncated = remaining < n;
            if (truncated)
                n = static_cast<std::size_t>(remaining);
            s = blk->instrs.data();
            stop = s + n;
        }
        drv_ = DriverRun{blk, s, win_entry != nullptr, false};
        end = stop;
        // icr_ only moves by charges, and totalCharge bounds the
        // block's: most blocks cannot reach the timer's zero crossing.
        if (!(iccs_ & iccs::kRun) ||
            icr_ + static_cast<std::int64_t>(blk->totalCharge) < 0)
            goto run;
    plan: {
        // Split after the instruction whose charge brings ICR to zero.
        std::int64_t icr = icr_;
        for (end = s; end != stop;) {
            icr += static_cast<std::int64_t>((end++)->charge);
            if (icr >= 0)
                break;
        }
    }
    run:
        if (s == end)
            goto split;
        instr_pc = regs_[PC];
        goto *s->handler;

    L_Generic: {
        stats_.threadedGenericSteps++;
        Decoded &d = decode_scratch_;
        d.regsAfter = regs_scratch_;
        std::memcpy(d.regsAfter, regs_, sizeof(Longword) * kNumRegs);
        replayTemplate(blk->tmpls[s->tmplIndex], instr_pc,
                       win_entry != nullptr, d);
        execute(d);
        // Hazard flags are dynamic only here: fused ops bake their
        // epilogue into the handler.
        if (s->flags & BlockInstr::kWritesMem) {
            if (*blk->genCell != gen) {
                if (std::memcmp(blk->hostPage +
                                    (blk->pc & kPageOffsetMask),
                                blk->bytes.data(), blk->byteLen) != 0)
                    goto bail_smc;
                gen = *blk->genCell;
                blk->validGen = gen;
            }
            if (run_state_ != RunState::Running || pendingDeliverable())
                goto bail_interrupt;
        }
        if (s->flags != 0)
            VVAX_EPI_TOUCH();
        VVAX_DISPATCH();
    }

    VVAX_ARITH(L_MovRR, movL(regs_[s->a], psl_.c()))
    VVAX_ARITH(L_MovIR, movL(s->imm, psl_.c()))

    VVAX_MOVMR(L_MovMRreg, regs_[s->b] + s->imm)
    VVAX_MOVMR(L_MovMRabs, static_cast<VirtAddr>(s->imm))
    VVAX_MOVxM(L_MovRMreg, regs_[s->b] + s->imm, regs_[s->a])
    VVAX_MOVxM(L_MovRMabs, static_cast<VirtAddr>(s->imm), regs_[s->a])
    VVAX_MOVxM(L_MovIMreg, regs_[s->b] + s->imm, s->imm2)
    VVAX_MOVxM(L_MovIMabs, static_cast<VirtAddr>(s->imm), s->imm2)

    L_MovRAinc: {
        // The source is read before the increment (Rs == Rn stores
        // the old pointer), and Rn moves only once the store is done.
        const VirtAddr addr = regs_[s->b];
        validateOperandWrite(addr, OpSize::L, mode);
        const Longword v = regs_[s->a];
        mmu_.writeV32(addr, v, mode);
        regs_[s->b] = addr + 4;
        regs_[PC] = instr_pc + s->len;
        setCc(psl_, logicalCc(v, psl_.c()));
        VVAX_EPI_WRITE();
    }

    VVAX_ARITH(L_ClrR, movL(0, psl_.c()))

    L_TstR: {
        const Longword v = regs_[s->a];
        regs_[PC] = instr_pc + s->len;
        setCc(psl_, testCc(v, OpSize::L));
        VVAX_DISPATCH();
    }

    VVAX_ARITH(L_IncR, addL(1, regs_[s->b]))
    VVAX_ARITH(L_DecR, subL(1, regs_[s->b]))
    VVAX_ARITH(L_AddRR, addL(regs_[s->a], regs_[s->b]))
    VVAX_ARITH(L_AddIR, addL(s->imm, regs_[s->b]))
    VVAX_ARITH(L_SubRR, subL(regs_[s->a], regs_[s->b]))
    VVAX_ARITH(L_SubIR, subL(s->imm, regs_[s->b]))
    VVAX_ARITH(L_BisRR, bisL(regs_[s->a], regs_[s->b], psl_.c()))
    VVAX_ARITH(L_BisIR, bisL(s->imm, regs_[s->b], psl_.c()))
    VVAX_ARITH(L_BicRR, bicL(regs_[s->a], regs_[s->b], psl_.c()))
    VVAX_ARITH(L_BicIR, bicL(s->imm, regs_[s->b], psl_.c()))
    VVAX_ARITH(L_XorRR, xorL(regs_[s->a], regs_[s->b], psl_.c()))
    VVAX_ARITH(L_XorIR, xorL(s->imm, regs_[s->b], psl_.c()))
    VVAX_ARITH(L_MulRR, mulL(regs_[s->a], regs_[s->b]))
    VVAX_ARITH(L_MulIR, mulL(s->imm, regs_[s->b]))
    VVAX_ARITH(L_DivRR, divL(regs_[s->a], regs_[s->b]))
    VVAX_ARITH(L_DivIR, divL(s->imm, regs_[s->b]))
    VVAX_ARITH(L_AshIR, ashL(s->imm, regs_[s->a]))
    VVAX_ARITH(L_Bic3IR, bicL(s->imm, regs_[s->a], psl_.c()))
    VVAX_CMP(L_CmpRR, regs_[s->a], regs_[s->b])
    VVAX_CMP(L_CmpIR, s->imm, regs_[s->b])
    VVAX_CMP(L_CmpRI, regs_[s->a], s->imm)

    L_CmpbAincI: {
        // Read first: a faulting read must leave Rn unincremented.
        const Longword x = mmu_.readV8(regs_[s->a], mode);
        regs_[s->a] += 1;
        regs_[PC] = instr_pc + s->len;
        setCc(psl_, compareCc(x, s->imm, OpSize::B));
        VVAX_EPI_TOUCH();
    }

    L_Bra: {
        regs_[PC] = s->imm;
        br_taken = true;
        VVAX_DISPATCH();
    }

    VVAX_CONDBR(L_Bneq, !psl_.z())
    VVAX_CONDBR(L_Beql, psl_.z())
    VVAX_CONDBR(L_Bgtr, !(psl_.n() || psl_.z()))
    VVAX_CONDBR(L_Bleq, psl_.n() || psl_.z())
    VVAX_CONDBR(L_Bgeq, !psl_.n())
    VVAX_CONDBR(L_Blss, psl_.n())
    VVAX_CONDBR(L_Bgtru, !(psl_.c() || psl_.z()))
    VVAX_CONDBR(L_Blequ, psl_.c() || psl_.z())
    VVAX_CONDBR(L_Bvc, !psl_.v())
    VVAX_CONDBR(L_Bvs, psl_.v())
    VVAX_CONDBR(L_Bcc, !psl_.c())
    VVAX_CONDBR(L_Bcs, psl_.c())

    VVAX_SOB(L_SobGeq, true)
    VVAX_SOB(L_SobGtr, false)
    VVAX_BLB(L_Blbc, !bit)
    VVAX_BLB(L_Blbs, bit)

    charged:
        // A charge from inside instruction s settled the run before
        // it; settle s as well, then plan from the ICR it left.
        drv_.charged = false;
        ++s;
    split:
        // Everything before s has retired.  At the end of the block's
        // run, settle it whole; at a timer crossing, settle the prefix
        // so the timer fires on the reference's instruction boundary,
        // then go on unless the tick is deliverable.
        if (s == stop)
            goto block_done;
        settleDriverRun(s);
        if (pendingDeliverable()) {
            bail = ThreadedBail::Interrupt;
            goto bailed;
        }
        if (iccs_ & iccs::kRun)
            goto plan;
        end = stop;
        goto run;

    block_done:
        settleDriverRun(s);
        if (truncated) {
            // Ran out of instruction budget mid-block.
            bail = ThreadedBail::Budget;
            goto bailed;
        }
        {
            // Only the fused branch ops (always block-final) set
            // br_taken; everything else - fall-through into the next
            // PC, or a Generic block-final transfer like JSB/RSB/JMP/
            // CASE whose target is data-dependent - uses the Fall slot
            // as a monomorphic inline cache keyed by the architectural
            // PC.
            const BlockExit exit =
                br_taken ? BlockExit::Taken : BlockExit::Fall;
            // Chain block -> block through the trace links: stop on
            // anything deliverable, score the lastDir prediction, then
            // re-run followLink's full guard set.
            if (run_state_ != RunState::Running || pendingDeliverable()) {
                drv_.blk = nullptr;
                blk_ref = blk;
                return exit;
            }
            const int slot = exit == BlockExit::Taken
                                 ? Block::kLinkTaken
                                 : Block::kLinkFall;
            if (static_cast<int>(blk->lastDir) != slot)
                stats_.traceLinkMispredicts++;
            Block *next = nullptr;
            Tlb::Entry *nentry = nullptr;
            const bool chained = trace_links_enabled_ &&
                                 stats_.instructions < limit &&
                                 followLink(*blk, &next, &nentry);
            blk->lastDir = static_cast<Byte>(slot);
            if (!chained) {
                drv_.blk = nullptr;
                blk_ref = blk;
                return exit;
            }
            blk = next;
            win_entry = nentry;
        }
        goto enter;

    bail_smc:
        // A store changed this block's own bytes: stop before the
        // stale tail (the slow path will re-validate and rebuild).
        bail = ThreadedBail::Smc;
        goto bail_after;
    bail_interrupt:
        bail = ThreadedBail::Interrupt;
        goto bail_after;
    bail_tlb:
        // A data-access walk evicted the entry the block's page is
        // fetched through; the reference would take a TLB miss on the
        // next instruction fetch.
        bail = ThreadedBail::TlbEvict;
    bail_after:
        // The hazard showed after instruction s retired; if s halted
        // the CPU it is counted but not charged.
        settleDriverRun(s + 1, run_state_ == RunState::Halted
                                   ? DriverLast::Halted
                                   : DriverLast::Retired);
    bailed:
        blk->bails[static_cast<int>(bail)]++;
        stats_.threadedBails++;
        drv_ = DriverRun{};
        blk_ref = blk;
        return BlockExit::Bailed;
    } catch (const GuestFault &fault) {
        // The retired prefix is on the books before the fault
        // dispatch charges its own cycles.
        settleDriverRun(s + 1, DriverLast::Faulted);
        drv_ = DriverRun{};
        dispatchFault(fault, instr_pc, regs_[PC]);
        blk->bails[static_cast<int>(ThreadedBail::Fault)]++;
        stats_.threadedBails++;
        blk_ref = blk;
        return BlockExit::Bailed;
    }
}

} // namespace vvax
