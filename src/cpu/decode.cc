/**
 * @file
 * Generic operand decoder for all 16 VAX addressing modes.
 *
 * The decoder is side-effect free with respect to architectural
 * registers: addressing side effects (autoincrement/autodecrement)
 * are applied to a working copy committed only after the whole
 * instruction has decoded and executed, which makes every fault
 * restartable.  Write and modify operands are access-validated during
 * decode so the execute phase's stores cannot fault.
 *
 * Decoding is allocation-free: the specifier recursion (index mode
 * nests one level) is a plain member function of DecodeContext, and
 * the result lands in the CPU's reusable Decoded scratch object.
 * Instruction-stream bytes come from a zero-copy instruction window
 * when possible (a host pointer straight into the RAM page the PC
 * sits in, re-derived each instruction so TLB and MAPEN changes can
 * never be missed) and otherwise go through the MMU's virtual
 * accessors, which keep the architectural counters bit-identical
 * either way.
 *
 * A full decode also captures the predecoded-instruction template
 * (cpu/predecode.h) as it goes: each specifier stores the kind,
 * registers and displacement or immediate it has just computed, and
 * each operand the number of stream fetches it made, into a scratch
 * template that record() copies into the cache slot only once the
 * whole instruction has decoded.  The operand-specifier grammar and
 * its reserved-addressing-mode checks therefore exist once, here.
 * Cpu::replayTemplate stays a separate implementation of the
 * data-access half, so the lockstep tests compare the two.
 */

#include "cpu/cpu.h"

namespace vvax {

namespace {

constexpr Longword
sext8(Byte b)
{
    return static_cast<Longword>(static_cast<std::int32_t>(
        static_cast<std::int8_t>(b)));
}

constexpr Longword
sext16(Word w)
{
    return static_cast<Longword>(static_cast<std::int32_t>(
        static_cast<std::int16_t>(w)));
}

constexpr Longword
sizeBytes(OpSize s)
{
    return static_cast<Longword>(s);
}

} // namespace

/**
 * One instruction's worth of decoding state: the stream cursor, the
 * access mode, and references into the CPU.  Lives on the stack of
 * Cpu::decode(); all specifier work is plain member-function calls.
 */
class DecodeContext
{
  public:
    DecodeContext(Cpu &cpu, Cpu::Decoded &d)
        : cpu_(cpu), mmu_(cpu.mmu_), d_(d), pc_(cpu.regs_[PC]),
          cursor_(pc_), mode_(cpu.psl_.currentMode())
    {
    }

    void
    run()
    {
        d_.regsAfter = cpu_.regs_scratch_;
        std::memcpy(d_.regsAfter, cpu_.regs_, sizeof(Longword) * kNumRegs);
        d_.extraCharge = 0;
        d_.suppressBase = false;

        if (cpu_.icache_.empty())
            cpu_.icache_.resize(Cpu::kICacheEntries);
        PredecodedInstr &slot =
            cpu_.icache_[Cpu::icacheIndex(cursor_)];
        if (slot.pc == cursor_ && tryReplay(slot))
            return;

        // The operand template this decode captures as it goes; it
        // reaches the slot only if the whole instruction decodes.
        PredecodedInstr tmpl;

        Word opcode = fetch8();
        if (opcode == 0xFD)
            opcode = 0xFD00 | fetch8();
        d_.opcode = opcode;
        d_.info = instrInfo(opcode);
        if (!d_.info)
            throw GuestFault::simple(ScbVector::ReservedInstruction);
        tmpl.opcode = opcode;
        tmpl.info = d_.info;
        tmpl.opcodeFetches = fetches_;

        for (int i = 0; i < d_.info->nOperands; ++i) {
            DecodedOperand &op = d_.operands[i];
            op = DecodedOperand{};
            op.access = d_.info->operands[i].access;
            op.size = d_.info->operands[i].size;
            PredecodedOp &t = tmpl.ops[i];
            const Byte first = fetches_;
            if (op.access == OpAccess::Branch) {
                Longword disp;
                if (op.size == OpSize::B)
                    disp = sext8(fetch8());
                else
                    disp = sext16(fetch16());
                op.value = cursor_ + disp; // branch target
                t.kind = PdKind::Branch;
                t.disp = op.value;
            } else {
                decodeSpecifier(op, t, /*allow_index=*/true);
            }
            t.fetches = static_cast<Byte>(fetches_ - first);
        }

        d_.nextPc = cursor_;
        record(slot, tmpl);
    }

  private:
    /**
     * Sentinel for "no window": not page-aligned, so it can never
     * compare equal to (va & ~kPageOffsetMask).
     */
    static constexpr VirtAddr kNoWindow = ~VirtAddr{0};

    /**
     * Point the window at @p va's page if the MMU allows it, without
     * touching any counter.  Unmapped: a host pointer straight into
     * RAM (counter-free either way).  Mapped: latch the TLB entry -
     * the window then stands in for a translate-per-fetch, so each
     * window fetch must count one TLB hit (see windowHit()).  The
     * entry can be evicted mid-decode by an operand-access walk that
     * conflicts in the direct-mapped TLB, which windowHit() detects
     * by the tag; its permissions cannot change while the tag
     * matches, because decoding performs no TLB maintenance and no
     * stores, and a modify-bit re-insert keeps pfn and read rights.
     */
    bool
    refillWindow(VirtAddr va)
    {
        win_entry_ = nullptr;
        if (const Byte *base = mmu_.instrPage(va)) {
            win_base_ = base;
            win_page_ = va & ~kPageOffsetMask;
            return true;
        }
        if (Tlb::Entry *e = mmu_.tlbLookup(va)) {
            if (e->hostPage &&
                (e->permMask & Tlb::permBit(mode_, AccessType::Read))) {
                win_entry_ = e;
                win_tag_ = e->tag;
                win_base_ = e->hostPage;
                win_page_ = va & ~kPageOffsetMask;
                return true;
            }
        }
        win_page_ = kNoWindow;
        return false;
    }

    /** refillWindow() plus the TLB-hit count a mapped latch implies. */
    bool
    refillWindowCounted(VirtAddr va)
    {
        if (!refillWindow(va))
            return false;
        if (win_entry_)
            cpu_.stats_.tlbHits++;
        return true;
    }

    /**
     * True when @p va can be served from the window; counts the TLB
     * hit for mapped windows (exactly what readV* would count).
     */
    bool
    windowHit(VirtAddr va)
    {
        if ((va & ~kPageOffsetMask) != win_page_)
            return false;
        if (win_entry_) {
            if (win_entry_->tag != win_tag_) { // evicted mid-decode
                win_page_ = kNoWindow;
                return false;
            }
            cpu_.stats_.tlbHits++;
        }
        return true;
    }

    Byte
    fetch8()
    {
        ++fetches_;
        if (windowHit(cursor_) || refillWindowCounted(cursor_)) {
            const Byte b = win_base_[cursor_ & kPageOffsetMask];
            cursor_ += 1;
            return b;
        }
        const Byte b = mmu_.readV8(cursor_, mode_);
        refillWindow(cursor_); // the read filled the TLB; latch uncounted
        cursor_ += 1;
        return b;
    }

    Word
    fetch16()
    {
        ++fetches_;
        if ((cursor_ & kPageOffsetMask) <= kPageSize - 2 &&
            (windowHit(cursor_) || refillWindowCounted(cursor_))) {
            Word w;
            std::memcpy(&w, win_base_ + (cursor_ & kPageOffsetMask), 2);
            cursor_ += 2;
            return w;
        }
        const Word w = mmu_.readV16(cursor_, mode_);
        cursor_ += 2;
        return w;
    }

    Longword
    fetch32()
    {
        ++fetches_;
        if ((cursor_ & kPageOffsetMask) <= kPageSize - 4 &&
            (windowHit(cursor_) || refillWindowCounted(cursor_))) {
            Longword l;
            std::memcpy(&l, win_base_ + (cursor_ & kPageOffsetMask), 4);
            cursor_ += 4;
            return l;
        }
        const Longword l = mmu_.readV32(cursor_, mode_);
        cursor_ += 4;
        return l;
    }

    // ----- Predecoded-instruction cache -----------------------------

    /**
     * Replay @p ci for the instruction at the cursor.  Returns false
     * (leaving no observable trace) when the entry cannot be used:
     * the window will not latch, the instruction straddles the page,
     * or the live bytes differ from the recorded ones.  On success the
     * template replay (Cpu::replayTemplate) performs exactly the data
     * accesses, register side effects and tlbHits updates the
     * byte-level decode would, in the same order.
     */
    bool
    tryReplay(PredecodedInstr &ci)
    {
        const VirtAddr pc = cursor_;
        if (!refillWindow(pc))
            return false;
        const Longword off = pc & kPageOffsetMask;
        if (off + ci.len > kPageSize)
            return false;
        // Revalidate the live bytes (self-modified or remapped code
        // falls back to a full decode, which re-records).
        if (ci.fastMask != 0 && off + 8 <= kPageSize) {
            std::uint64_t live;
            std::memcpy(&live, win_base_ + off, 8);
            if ((live & ci.fastMask) != ci.fastBytes)
                return false;
        } else if (std::memcmp(win_base_ + off, ci.bytes.data(),
                               ci.len) != 0) {
            return false;
        }

        cpu_.replayTemplate(ci, pc, win_entry_ != nullptr, d_);
        cursor_ = pc + ci.len;
        return true;
    }

    /**
     * After a successful full decode, store @p tmpl - the operand
     * template captured by that decode - with the instruction's bytes
     * into @p slot when the instruction is single-page, short enough,
     * and the window still covers it (so the bytes stored are the
     * bytes the decode fetched).
     */
    void
    record(PredecodedInstr &slot, PredecodedInstr &tmpl)
    {
        const Longword len = d_.nextPc - pc_;
        const Longword off = pc_ & kPageOffsetMask;
        if (len == 0 || len > PredecodedInstr::kMaxBytes ||
            off + len > kPageSize)
            return;
        if ((pc_ & ~kPageOffsetMask) != win_page_ ||
            (win_entry_ && win_entry_->tag != win_tag_))
            return; // window unavailable: fetched via readV*
        tmpl.pc = pc_;
        tmpl.len = static_cast<Byte>(len);
        std::memcpy(tmpl.bytes.data(), win_base_ + off, len);
        if (len <= 8) {
            tmpl.fastMask = len == 8
                ? ~std::uint64_t{0}
                : (std::uint64_t{1} << (8 * len)) - 1;
            std::uint64_t b = 0;
            std::memcpy(&b, tmpl.bytes.data(), len);
            tmpl.fastBytes = b;
        }
        slot = tmpl;
    }

    Longword
    fetchValue(VirtAddr addr, OpSize size)
    {
        return cpu_.fetchOperandValue(addr, size, mode_);
    }

    void
    validateWrite(VirtAddr addr, OpSize size)
    {
        cpu_.validateOperandWrite(addr, size, mode_);
    }

    /**
     * Decode one operand specifier into @p op, capturing its
     * byte-determined half (kind, registers, displacement or
     * immediate) into @p t for the icache template.  @p allow_index
     * guards against index-mode recursion ([Rx] base must itself be a
     * memory-addressing specifier).
     */
    void
    decodeSpecifier(DecodedOperand &op, PredecodedOp &t, bool allow_index)
    {
        const OpSize size = op.size;
        const Byte spec = fetch8();
        const Byte rn = spec & 0xF;
        const Byte m = spec >> 4;
        t.reg = rn;

        switch (m) {
          case 0x0: case 0x1: case 0x2: case 0x3: // short literal
            if (op.access != OpAccess::Read)
                throw GuestFault::simple(
                    ScbVector::ReservedAddressingMode);
            op.isLiteral = true;
            op.value = spec & 0x3F;
            t.kind = PdKind::Literal;
            t.disp = op.value;
            return;

          case 0x4: { // index [Rx]: the base is captured into t too
            if (!allow_index || rn == PC)
                throw GuestFault::simple(
                    ScbVector::ReservedAddressingMode);
            DecodedOperand base;
            base.access = OpAccess::Address; // EA only for the base
            base.size = size;
            decodeSpecifier(base, t, /*allow_index=*/false);
            if (base.isRegister || base.isLiteral)
                throw GuestFault::simple(
                    ScbVector::ReservedAddressingMode);
            op.addr = base.addr + d_.regsAfter[rn] * sizeBytes(size);
            t.indexReg = rn;
            break;
          }

          case 0x5: // register
            if (rn == PC || op.access == OpAccess::Address ||
                (size == OpSize::Q && rn >= SP)) {
                throw GuestFault::simple(
                    ScbVector::ReservedAddressingMode);
            }
            op.isRegister = true;
            op.reg = rn;
            t.kind = PdKind::Register;
            if (op.access == OpAccess::Read ||
                op.access == OpAccess::Modify ||
                op.access == OpAccess::VField) {
                Longword v = d_.regsAfter[rn];
                if (size == OpSize::B)
                    v &= 0xFF;
                else if (size == OpSize::W)
                    v &= 0xFFFF;
                op.value = v;
                if (size == OpSize::Q)
                    op.value2 = d_.regsAfter[rn + 1];
            }
            return;

          case 0x6: // register deferred (Rn)
            if (rn == PC)
                throw GuestFault::simple(
                    ScbVector::ReservedAddressingMode);
            op.addr = d_.regsAfter[rn];
            t.kind = PdKind::RegDeferred;
            break;

          case 0x7: // autodecrement -(Rn)
            if (rn == PC)
                throw GuestFault::simple(
                    ScbVector::ReservedAddressingMode);
            d_.regsAfter[rn] -= sizeBytes(size);
            op.addr = d_.regsAfter[rn];
            t.kind = PdKind::AutoDec;
            break;

          case 0x8: // autoincrement (Rn)+ / immediate
            if (rn == PC) {
                if (op.access == OpAccess::Write ||
                    op.access == OpAccess::Modify) {
                    throw GuestFault::simple(
                        ScbVector::ReservedAddressingMode);
                }
                op.isLiteral = true;
                op.addr = cursor_;
                switch (size) {
                  case OpSize::B: op.value = fetch8(); break;
                  case OpSize::W: op.value = fetch16(); break;
                  case OpSize::L: op.value = fetch32(); break;
                  case OpSize::Q:
                    op.value = fetch32();
                    op.value2 = fetch32();
                    break;
                }
                t.kind = PdKind::Immediate;
                t.off = static_cast<Byte>(op.addr - pc_);
                t.disp = op.value;
                t.imm2 = op.value2;
                return;
            }
            op.addr = d_.regsAfter[rn];
            d_.regsAfter[rn] += sizeBytes(size);
            t.kind = PdKind::AutoInc;
            break;

          case 0x9: // autoincrement deferred @(Rn)+ / absolute
            if (rn == PC) {
                op.addr = fetch32();
                t.kind = PdKind::Absolute;
                t.disp = op.addr;
            } else {
                const VirtAddr ptr = d_.regsAfter[rn];
                d_.regsAfter[rn] += 4;
                op.addr = mmu_.readV32(ptr, mode_);
                t.kind = PdKind::AutoIncDeferred;
            }
            break;

          case 0xA: case 0xB: case 0xC: case 0xD: case 0xE:
          case 0xF: { // byte, word, long displacement (deferred)
            const Longword disp = m <= 0xB ? sext8(fetch8())
                                : m <= 0xD ? sext16(fetch16())
                                           : fetch32();
            const bool deferred = (m & 1) != 0;
            if (rn == PC) {
                // PC-relative: the base is the cursor after the
                // displacement, a constant for these bytes.
                op.addr = cursor_ + disp;
                t.kind = deferred ? PdKind::AbsoluteDeferred
                                  : PdKind::Absolute;
                t.disp = op.addr;
            } else {
                op.addr = d_.regsAfter[rn] + disp;
                t.kind = deferred ? PdKind::DispDeferred : PdKind::Disp;
                t.disp = disp;
            }
            if (deferred)
                op.addr = mmu_.readV32(op.addr, mode_);
            break;
          }
        }

        // Memory operand: fetch and/or validate now so execution
        // cannot fault after state has been committed.
        switch (op.access) {
          case OpAccess::Read:
            op.value = fetchValue(op.addr, size);
            if (size == OpSize::Q)
                op.value2 = mmu_.readV32(op.addr + 4, mode_);
            break;
          case OpAccess::Modify:
            op.value = fetchValue(op.addr, size);
            if (size == OpSize::Q)
                op.value2 = mmu_.readV32(op.addr + 4, mode_);
            validateWrite(op.addr, size);
            break;
          case OpAccess::Write:
            validateWrite(op.addr, size);
            break;
          case OpAccess::Address:
          case OpAccess::VField:
            break;
          case OpAccess::Branch:
            break; // handled by the caller
        }
    }

    Cpu &cpu_;
    Mmu &mmu_;
    Cpu::Decoded &d_;
    const VirtAddr pc_; //!< the instruction's address
    VirtAddr cursor_;
    const AccessMode mode_;
    Byte fetches_ = 0; //!< fetch8/16/32 calls so far
    // Zero-copy instruction window: host pointer into the RAM page
    // the cursor is fetching from (see refillWindow()).  win_entry_
    // is non-null for mapped windows: the latched TLB entry, checked
    // against win_tag_ on every fetch to detect mid-decode eviction.
    const Byte *win_base_ = nullptr;
    VirtAddr win_page_ = kNoWindow;
    Tlb::Entry *win_entry_ = nullptr;
    std::uint64_t win_tag_ = 0;
};

Cpu::Decoded &
Cpu::decode()
{
    DecodeContext ctx(*this, decode_scratch_);
    ctx.run();
    return decode_scratch_;
}

Longword
Cpu::fetchOperandValue(VirtAddr addr, OpSize size, AccessMode mode)
{
    switch (size) {
      case OpSize::B: return mmu_.readV8(addr, mode);
      case OpSize::W: return mmu_.readV16(addr, mode);
      case OpSize::L:
      case OpSize::Q: return mmu_.readV32(addr, mode);
    }
    return 0;
}

/*
 * Within an operand every stream fetch precedes every data access, so
 * charging the operand's fetch hits up front before its (possibly
 * faulting) memory work preserves counter identity even for
 * instructions that fault mid-decode.  The byte validation against
 * the live page is the caller's job (tryReplay for the
 * per-instruction cache, the block entry/generation checks for the
 * superblock executor).
 */
void
Cpu::replayTemplate(const PredecodedInstr &ci, VirtAddr pc, bool mapped,
                    Decoded &d)
{
    const AccessMode mode = psl_.currentMode();
    if (mapped)
        stats_.tlbHits += ci.opcodeFetches;
    d.opcode = ci.opcode;
    d.info = ci.info;

    for (int i = 0; i < ci.info->nOperands; ++i) {
        const PredecodedOp &t = ci.ops[i];
        DecodedOperand &op = d.operands[i];
        // Scratch reuse: only the routing flags need clearing,
        // every kind below sets the fields it is read through.
        op.isRegister = false;
        op.isLiteral = false;
        op.access = ci.info->operands[i].access;
        op.size = ci.info->operands[i].size;
        if (mapped)
            stats_.tlbHits += t.fetches;

        const Longword sb = sizeBytes(op.size);
        VirtAddr addr = 0;
        switch (t.kind) {
          case PdKind::Branch:
            op.value = t.disp;
            continue;
          case PdKind::Literal:
            op.isLiteral = true;
            op.value = t.disp;
            continue;
          case PdKind::Immediate:
            op.isLiteral = true;
            op.addr = pc + t.off;
            op.value = t.disp;
            op.value2 = t.imm2;
            continue;
          case PdKind::Register:
            op.isRegister = true;
            op.reg = t.reg;
            if (op.access == OpAccess::Read ||
                op.access == OpAccess::Modify ||
                op.access == OpAccess::VField) {
                Longword v = d.regsAfter[t.reg];
                if (op.size == OpSize::B)
                    v &= 0xFF;
                else if (op.size == OpSize::W)
                    v &= 0xFFFF;
                op.value = v;
                if (op.size == OpSize::Q)
                    op.value2 = d.regsAfter[t.reg + 1];
            }
            continue;
          case PdKind::RegDeferred:
            addr = d.regsAfter[t.reg];
            break;
          case PdKind::AutoDec:
            d.regsAfter[t.reg] -= sb;
            addr = d.regsAfter[t.reg];
            break;
          case PdKind::AutoInc:
            addr = d.regsAfter[t.reg];
            d.regsAfter[t.reg] += sb;
            break;
          case PdKind::AutoIncDeferred: {
            const VirtAddr ptr = d.regsAfter[t.reg];
            d.regsAfter[t.reg] += 4;
            addr = mmu_.readV32(ptr, mode);
            break;
          }
          case PdKind::Disp:
            addr = d.regsAfter[t.reg] + t.disp;
            break;
          case PdKind::DispDeferred:
            addr = mmu_.readV32(d.regsAfter[t.reg] + t.disp, mode);
            break;
          case PdKind::Absolute:
            addr = t.disp;
            break;
          case PdKind::AbsoluteDeferred:
            addr = mmu_.readV32(t.disp, mode);
            break;
        }
        if (t.indexReg != 0xFF)
            addr += d.regsAfter[t.indexReg] * sb;
        op.addr = addr;

        switch (op.access) {
          case OpAccess::Read:
            op.value = fetchOperandValue(op.addr, op.size, mode);
            if (op.size == OpSize::Q)
                op.value2 = mmu_.readV32(op.addr + 4, mode);
            break;
          case OpAccess::Modify:
            op.value = fetchOperandValue(op.addr, op.size, mode);
            if (op.size == OpSize::Q)
                op.value2 = mmu_.readV32(op.addr + 4, mode);
            validateOperandWrite(op.addr, op.size, mode);
            break;
          case OpAccess::Write:
            validateOperandWrite(op.addr, op.size, mode);
            break;
          case OpAccess::Address:
          case OpAccess::VField:
          case OpAccess::Branch:
            break;
        }
    }

    d.nextPc = pc + ci.len;
}

} // namespace vvax
