/**
 * @file
 * Superblock translation: harvesting straight-line runs out of the
 * per-instruction predecode cache (docs/ARCHITECTURE.md §5a).
 *
 * buildBlock() walks the icache entries forward from a start PC,
 * validating each entry's recorded bytes against the live page, and
 * stops after the first control transfer or stopper.  A stopper is
 * the block's final element: its bytes join the validated span, but
 * the driver never runs it - runBlocks steps it through the
 * interpreter once the driver completes the block.  Each driver
 * instruction is classified: the hottest opcode+addressing-mode pairs
 * get a fused BlockOp with its own handler in the driver
 * (threaded.cc); everything else keeps its full PredecodedInstr
 * template and replays through the ordinary decode/execute machinery.
 *
 * The classification is conservative by construction: only entries
 * that already decoded and executed successfully are ever recorded in
 * the icache (decode.cc record()), so every template seen here is
 * legal - e.g. a register-mode PC operand can never appear.
 */

#include <array>
#include <cstring>

#include "cpu/cpu.h"

namespace vvax {

namespace {

/**
 * Stoppers: opcodes the block driver must never run.  They can change
 * IPL, mode, mapping or context, carry instruction-specific extra
 * cycle charges, or raise VM-emulation traps - all of which the
 * driver hoists out of the instruction path.  A stopper ends its
 * block as the final element, retired by the interpreter after the
 * driver's run.
 */
bool
stopsBlock(Word opcode)
{
    switch (static_cast<Opcode>(opcode)) {
      case Opcode::HALT:
      case Opcode::BPT:
      case Opcode::REI:
      case Opcode::RET:
      case Opcode::LDPCTX:
      case Opcode::SVPCTX:
      case Opcode::PROBER:
      case Opcode::PROBEW:
      case Opcode::MOVC3:
      case Opcode::PUSHR:
      case Opcode::POPR:
      case Opcode::CHMK:
      case Opcode::CHME:
      case Opcode::CHMS:
      case Opcode::CHMU:
      case Opcode::MTPR:
      case Opcode::MFPR:
      case Opcode::MOVPSL:
      case Opcode::CALLG:
      case Opcode::CALLS:
      case Opcode::WAIT:
      case Opcode::PROBEVMR:
      case Opcode::PROBEVMW:
        return true;
      default:
        return false;
    }
}

/** Control transfers: legal inside a block but always block-final. */
bool
endsBlockAfter(Word opcode)
{
    switch (static_cast<Opcode>(opcode)) {
      case Opcode::BSBB:
      case Opcode::BRB:
      case Opcode::BNEQ:
      case Opcode::BEQL:
      case Opcode::BGTR:
      case Opcode::BLEQ:
      case Opcode::JSB:
      case Opcode::JMP:
      case Opcode::BGEQ:
      case Opcode::BLSS:
      case Opcode::BGTRU:
      case Opcode::BLEQU:
      case Opcode::BVC:
      case Opcode::BVS:
      case Opcode::BCC:
      case Opcode::BCS:
      case Opcode::RSB:
      case Opcode::BSBW:
      case Opcode::BRW:
      case Opcode::CASEB:
      case Opcode::CASEW:
      case Opcode::CASEL:
      case Opcode::BBS:
      case Opcode::BBC:
      case Opcode::BBSS:
      case Opcode::BBCS:
      case Opcode::BBSC:
      case Opcode::BBCC:
      case Opcode::BLBS:
      case Opcode::BLBC:
      case Opcode::AOBLSS:
      case Opcode::AOBLEQ:
      case Opcode::SOBGEQ:
      case Opcode::SOBGTR:
        return true;
      default:
        return false;
    }
}

/** The operand template performs a data-memory store. */
bool
writesMemory(const PredecodedInstr &ci)
{
    switch (static_cast<Opcode>(ci.opcode)) {
      // Implicit stack pushes / queue stores.
      case Opcode::PUSHL:
      case Opcode::PUSHAL:
      case Opcode::BSBB:
      case Opcode::BSBW:
      case Opcode::JSB:
      case Opcode::INSQUE:
      case Opcode::REMQUE:
        return true;
      default:
        break;
    }
    for (int i = 0; i < ci.info->nOperands; ++i) {
        const PredecodedOp &t = ci.ops[i];
        if (t.kind == PdKind::Register || t.kind == PdKind::Literal ||
            t.kind == PdKind::Immediate || t.kind == PdKind::Branch)
            continue;
        const OpAccess acc = ci.info->operands[i].access;
        // VField counts as a write: the BBxS/BBxC variants store, and
        // the test-only forms are block-final so the extra post-check
        // costs nothing.
        if (acc == OpAccess::Write || acc == OpAccess::Modify ||
            acc == OpAccess::VField)
            return true;
    }
    return false;
}

/** The operand template performs any data-memory access at all. */
bool
touchesMemory(const PredecodedInstr &ci)
{
    switch (static_cast<Opcode>(ci.opcode)) {
      // Implicit stack/queue/case-table accesses.
      case Opcode::PUSHL:
      case Opcode::PUSHAL:
      case Opcode::BSBB:
      case Opcode::BSBW:
      case Opcode::JSB:
      case Opcode::RSB:
      case Opcode::INSQUE:
      case Opcode::REMQUE:
      case Opcode::CASEB:
      case Opcode::CASEW:
      case Opcode::CASEL:
        return true;
      default:
        break;
    }
    for (int i = 0; i < ci.info->nOperands; ++i) {
        const PredecodedOp &t = ci.ops[i];
        switch (t.kind) {
          case PdKind::Branch:
          case PdKind::Literal:
          case PdKind::Immediate:
          case PdKind::Register:
            break;
          case PdKind::AutoIncDeferred:
          case PdKind::DispDeferred:
          case PdKind::AbsoluteDeferred:
            // The indirection itself reads memory, even for
            // address-only access.
            return true;
          default:
            if (ci.info->operands[i].access != OpAccess::Address)
                return true;
            break;
        }
    }
    return false;
}

Byte
totalFetches(const PredecodedInstr &ci)
{
    int n = ci.opcodeFetches;
    for (int i = 0; i < ci.info->nOperands; ++i)
        n += ci.ops[i].fetches;
    return static_cast<Byte>(n);
}

bool
isReg(const PredecodedOp &t)
{
    return t.kind == PdKind::Register;
}

bool
isImm(const PredecodedOp &t)
{
    return t.kind == PdKind::Literal || t.kind == PdKind::Immediate;
}

/** Fusable memory operand: non-indexed reg-deferred/disp/absolute. */
bool
isMem(const PredecodedOp &t)
{
    return (t.kind == PdKind::RegDeferred || t.kind == PdKind::Disp ||
            t.kind == PdKind::Absolute) &&
           t.indexReg == 0xFF;
}

/** Non-indexed (Rn)+ with a general register base. */
bool
isAutoInc(const PredecodedOp &t)
{
    return t.kind == PdKind::AutoInc && t.reg != PC && t.indexReg == 0xFF;
}

/** Encode a fusable memory operand: @p reg_op for addr = R[b] + imm,
 *  the *abs op that follows it for addr = imm. */
void
setMemOperand(BlockInstr &bi, BlockOp reg_op, const PredecodedOp &t)
{
    if (t.kind == PdKind::Absolute) {
        bi.op = static_cast<BlockOp>(reg_op + 1);
        bi.imm = t.disp;
    } else {
        bi.op = reg_op;
        bi.b = t.reg;
        bi.imm = t.kind == PdKind::Disp ? t.disp : 0;
    }
}

/** Handler for BRB/BRW or a simple conditional branch. */
BlockOp
branchOp(Opcode op)
{
    switch (op) {
      case Opcode::BNEQ: return kOpBneq;
      case Opcode::BEQL: return kOpBeql;
      case Opcode::BGTR: return kOpBgtr;
      case Opcode::BLEQ: return kOpBleq;
      case Opcode::BGEQ: return kOpBgeq;
      case Opcode::BLSS: return kOpBlss;
      case Opcode::BGTRU: return kOpBgtru;
      case Opcode::BLEQU: return kOpBlequ;
      case Opcode::BVC: return kOpBvc;
      case Opcode::BVS: return kOpBvs;
      case Opcode::BCC: return kOpBcc;
      case Opcode::BCS: return kOpBcs;
      default: return kOpBra; // BRB, BRW
    }
}

/**
 * Pick a fused handler for @p ci when its shape matches one, leaving
 * Generic otherwise.  Also splits the stream-fetch accounting around
 * the data access for the fused shapes whose reference ordering
 * interleaves them (MovMR and CmpbAincI: the second specifier is
 * fetched after the first operand's memory read).
 */
void
classify(BlockInstr &bi, const PredecodedInstr &ci)
{
    const auto op = static_cast<Opcode>(ci.opcode);
    const PredecodedOp *o = ci.ops.data();

    bi.op = kOpGeneric;
    bi.fetchesPre = totalFetches(ci);
    bi.fetchesPost = 0;

    switch (op) {
      case Opcode::MOVL:
        if (isReg(o[1])) {
            if (isReg(o[0])) {
                bi.op = kOpMovRR;
                bi.a = o[0].reg;
                bi.b = o[1].reg;
            } else if (isImm(o[0])) {
                bi.op = kOpMovIR;
                bi.imm = o[0].disp;
                bi.b = o[1].reg;
            } else if (isMem(o[0])) {
                bi.a = o[1].reg;
                setMemOperand(bi, kOpMovMRreg, o[0]);
                bi.fetchesPre = static_cast<Byte>(ci.opcodeFetches +
                                                  o[0].fetches);
                bi.fetchesPost = o[1].fetches;
            }
        } else if (isMem(o[1])) {
            if (isReg(o[0])) {
                bi.a = o[0].reg;
                setMemOperand(bi, kOpMovRMreg, o[1]);
            } else if (isImm(o[0])) {
                bi.imm2 = o[0].disp;
                setMemOperand(bi, kOpMovIMreg, o[1]);
            }
        } else if (isAutoInc(o[1]) && isReg(o[0])) {
            bi.op = kOpMovRAinc;
            bi.a = o[0].reg;
            bi.b = o[1].reg;
        }
        break;

      case Opcode::ADDL2:
      case Opcode::SUBL2:
      case Opcode::BISL2:
      case Opcode::BICL2:
      case Opcode::XORL2:
      case Opcode::MULL2:
      case Opcode::DIVL2:
        if (isReg(o[1])) {
            BlockOp rr = kOpGeneric;
            switch (op) {
              case Opcode::ADDL2: rr = kOpAddRR; break;
              case Opcode::SUBL2: rr = kOpSubRR; break;
              case Opcode::BISL2: rr = kOpBisRR; break;
              case Opcode::BICL2: rr = kOpBicRR; break;
              case Opcode::MULL2: rr = kOpMulRR; break;
              case Opcode::DIVL2: rr = kOpDivRR; break;
              default: rr = kOpXorRR; break;
            }
            if (isReg(o[0])) {
                bi.op = rr;
                bi.a = o[0].reg;
                bi.b = o[1].reg;
            } else if (isImm(o[0])) {
                // *IR immediately follows *RR in the enum.
                bi.op = static_cast<BlockOp>(rr + 1);
                bi.imm = o[0].disp;
                bi.b = o[1].reg;
            }
        }
        break;

      case Opcode::CMPL:
        if (isReg(o[0]) && isReg(o[1])) {
            bi.op = kOpCmpRR;
            bi.a = o[0].reg;
            bi.b = o[1].reg;
        } else if (isImm(o[0]) && isReg(o[1])) {
            bi.op = kOpCmpIR;
            bi.imm = o[0].disp;
            bi.b = o[1].reg;
        } else if (isReg(o[0]) && isImm(o[1])) {
            bi.op = kOpCmpRI;
            bi.a = o[0].reg;
            bi.imm = o[1].disp;
        }
        break;

      case Opcode::ASHL:
      case Opcode::BICL3:
        if (isImm(o[0]) && isReg(o[1]) && isReg(o[2])) {
            bi.op = op == Opcode::ASHL ? kOpAshIR : kOpBic3IR;
            bi.imm = o[0].disp;
            bi.a = o[1].reg;
            bi.b = o[2].reg;
        }
        break;

      case Opcode::CMPB:
        if (isAutoInc(o[0]) && isImm(o[1])) {
            bi.op = kOpCmpbAincI;
            bi.a = o[0].reg;
            bi.imm = o[1].disp;
            bi.fetchesPre = static_cast<Byte>(ci.opcodeFetches +
                                              o[0].fetches);
            bi.fetchesPost = o[1].fetches;
        }
        break;

      case Opcode::TSTL:
        if (isReg(o[0])) {
            bi.op = kOpTstR;
            bi.a = o[0].reg;
        }
        break;
      case Opcode::CLRL:
        if (isReg(o[0])) {
            bi.op = kOpClrR;
            bi.b = o[0].reg;
        }
        break;
      case Opcode::INCL:
        if (isReg(o[0])) {
            bi.op = kOpIncR;
            bi.b = o[0].reg;
        }
        break;
      case Opcode::DECL:
        if (isReg(o[0])) {
            bi.op = kOpDecR;
            bi.b = o[0].reg;
        }
        break;

      case Opcode::BRB:
      case Opcode::BRW:
      case Opcode::BNEQ:
      case Opcode::BEQL:
      case Opcode::BGTR:
      case Opcode::BLEQ:
      case Opcode::BGEQ:
      case Opcode::BLSS:
      case Opcode::BGTRU:
      case Opcode::BLEQU:
      case Opcode::BVC:
      case Opcode::BVS:
      case Opcode::BCC:
      case Opcode::BCS:
        bi.op = branchOp(op);
        bi.imm = o[0].disp;
        break;

      case Opcode::SOBGEQ:
      case Opcode::SOBGTR:
        if (isReg(o[0])) {
            bi.op = op == Opcode::SOBGTR ? kOpSobGtr : kOpSobGeq;
            bi.a = o[0].reg;
            bi.imm = o[1].disp;
        }
        break;

      case Opcode::BLBS:
      case Opcode::BLBC:
        if (isReg(o[0])) {
            bi.op = op == Opcode::BLBS ? kOpBlbs : kOpBlbc;
            bi.a = o[0].reg;
            bi.imm = o[1].disp;
        }
        break;

      default:
        break;
    }
}

void
appendInstr(Block &blk, const PredecodedInstr &ci, const CostModel &cost)
{
    BlockInstr &bi = blk.instrs[blk.count++];
    bi = BlockInstr{};
    bi.len = ci.len;
    // No driver-run opcode carries extraCharge or suppressBase (every
    // setter is a stopper, which the driver never runs), so the
    // per-instruction charge is statically the scaled base cost.
    bi.charge = static_cast<std::uint32_t>(
        static_cast<Cycles>(ci.info->baseCycles) *
        cost.instructionScalePct / 100);
    blk.totalCharge += bi.charge;
    if (writesMemory(ci))
        bi.flags = BlockInstr::kWritesMem | BlockInstr::kTouchesMem;
    else if (touchesMemory(ci))
        bi.flags = BlockInstr::kTouchesMem;
    classify(bi, ci);
    if (bi.op == kOpGeneric) {
        // replayTemplate counts the replay's fetch hits itself.
        bi.fetchesPre = 0;
        bi.tmplIndex = static_cast<Word>(blk.tmpls.size());
        blk.tmpls.push_back(ci);
    }
    blk.fetchHits += bi.fetchesPre + bi.fetchesPost;
}

} // namespace

const Byte *
Cpu::blockWindow(VirtAddr pc, Tlb::Entry **entry)
{
    *entry = nullptr;
    if (const Byte *base = mmu_.instrPage(pc))
        return base;
    if (Tlb::Entry *e = mmu_.tlbLookup(pc)) {
        if (e->hostPage &&
            (e->permMask &
             Tlb::permBit(psl_.currentMode(), AccessType::Read))) {
            *entry = e;
            return e->hostPage;
        }
    }
    return nullptr;
}

Block *
Cpu::buildBlock(VirtAddr pc, const Byte *base)
{
    if (icache_.empty())
        return nullptr; // nothing decoded yet: warm up via step first

    // Walk the predecoded entries first, without touching the cache:
    // the block ends after a control transfer or a stopper, or before
    // an entry that was never decoded or leaves the page or size.
    std::array<const PredecodedInstr *, Block::kMaxInstrs> run{};
    int n = 0;
    bool stopper = false;
    const VirtAddr page = pc & ~static_cast<VirtAddr>(kPageOffsetMask);
    VirtAddr addr = pc;
    while (n < Block::kMaxInstrs) {
        const PredecodedInstr &ci = icache_[icacheIndex(addr)];
        const VirtAddr off = addr & kPageOffsetMask;
        if (ci.pc != addr ||
            (addr & ~static_cast<VirtAddr>(kPageOffsetMask)) != page ||
            off + ci.len > kPageSize ||
            addr + ci.len - pc > Block::kMaxBytes)
            break;
        // A stale entry (the live bytes changed since its decode):
        // build nothing, so the interpreter steps up to it and
        // refreshes it, and the next dispatch here builds the whole
        // run instead of a block cut short at the stale entry.
        if (std::memcmp(base + off, ci.bytes.data(), ci.len) != 0)
            return nullptr;
        run[n++] = &ci;
        addr += ci.len;
        // Validated with the block, so patching the stopper drops
        // the block; runBlocks steps it after the driver's run.
        stopper = stopsBlock(ci.opcode);
        if (stopper || endsBlockAfter(ci.opcode))
            break;
    }
    if (n == 0)
        return nullptr; // never decoded here: warm up via step first

    Block &blk = bcache_.slotFor(pc);
    // The slot may hold a live block (the set's victim or a rebuild of
    // this very pc): sever its link edges before recycling so no
    // source keeps a direct jump into the new occupant.
    invalidateBlock(blk);
    blk.pc = pc;
    blk.hostPage = base;
    blk.genCell = mmu_.pageGenForHostPage(base);
    blk.validGen = *blk.genCell;
    if (stopper)
        blk.stopperLen = run[--n]->len;
    for (int i = 0; i < n; ++i)
        appendInstr(blk, *run[i], cost_);
    blk.byteLen = static_cast<Word>(addr - pc);
    std::memcpy(blk.bytes.data(), base + (pc & kPageOffsetMask),
                blk.byteLen);
    stats_.blockBuilds++;
    return &blk;
}

} // namespace vvax
