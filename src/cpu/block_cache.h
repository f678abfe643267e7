/**
 * @file
 * Superblock translation cache (docs/ARCHITECTURE.md §5a).
 *
 * A Block is a run of predecoded instructions starting at one virtual
 * PC and ending at the first control transfer or stopper (a sensitive
 * or state-changing opcode, see stopsBlock() in block_cache.cc),
 * harvested from the per-instruction replay cache once the code has
 * executed at least once.  A stopper is the block's final element:
 * the block's instructions retire through the computed-goto driver in
 * threaded.cc, with the pending-interrupt check and instruction-byte
 * revalidation hoisted to the block edges and the hottest
 * opcode+addressing-mode pairs fused into specialized handlers that
 * bypass the generic decode/execute machinery entirely; the stopper
 * then retires through the ordinary interpreter step.
 *
 * Blocks are keyed by virtual PC but validated by physical identity:
 * entry compares the page's host pointer (resolved through the
 * context-tagged TLB, so PR 2's context renames and guest TB
 * invalidates drop stale blocks for free) and memcmps the recorded
 * bytes against the live page.  Writes into a page with live blocks
 * are caught mid-block through the per-page generation map
 * (PhysicalMemory::pageGenCell).
 *
 * This is host-side machinery only: the simulated cost model and
 * every architectural counter end up exactly where the reference
 * interpreter's per-instruction charges put them (DESIGN.md §7c); the
 * driver settles them once per block, splitting a block only where
 * the interval timer's zero crossing must land.
 */

#ifndef VVAX_CPU_BLOCK_CACHE_H
#define VVAX_CPU_BLOCK_CACHE_H

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "arch/types.h"
#include "cpu/predecode.h"
#include "memory/tlb.h"

namespace vvax {

/**
 * Handler selector for one block instruction, emitted by classify()
 * and bound to a driver label (BlockInstr::handler) the first time
 * the driver enters the block.  Generic replays the PredecodedInstr
 * template through the ordinary execute switch; every other op is a
 * fused opcode+addressing-mode pair whose operand shape, branch
 * condition and SOB/BLB sense are baked in, so its handler is
 * branch-free.  The order is the driver's label-table order; each
 * *IR form directly follows its *RR form and each *abs form its
 * *reg form.
 */
enum BlockOp : Byte {
    kOpGeneric = 0,
    // MOVL forms.  Mov*R: a = dst register.  Mov*M: the destination
    // is memory at R[b] + imm (reg) or at imm (abs).
    kOpMovRR,    //!< MOVL Rs, Rd        (a = src, b = dst)
    kOpMovIR,    //!< MOVL #imm, Rd      (imm = value, b = dst)
    kOpMovMRreg, //!< MOVL disp(Rb), Rd  (a = dst, b = base, imm = disp)
    kOpMovMRabs, //!< MOVL @#abs, Rd     (a = dst, imm = address)
    kOpMovRMreg, //!< MOVL Rs, mem       (a = src)
    kOpMovRMabs,
    kOpMovIMreg, //!< MOVL #imm, mem     (imm2 = value)
    kOpMovIMabs,
    kOpMovRAinc, //!< MOVL Rs, (Rn)+     (a = src, b = Rn)
    // Register-only unary/compare forms.
    kOpClrR, //!< CLRL Rd              (b)
    kOpTstR, //!< TSTL Rs              (a)
    kOpIncR, //!< INCL Rd              (b)
    kOpDecR, //!< DECL Rd              (b)
    // Dyadic L-size ALU, register destination (a = src reg or
    // imm = literal, b = dst).
    kOpAddRR, kOpAddIR,
    kOpSubRR, kOpSubIR,
    kOpBisRR, kOpBisIR,
    kOpBicRR, kOpBicIR,
    kOpXorRR, kOpXorIR,
    kOpMulRR, kOpMulIR, //!< MULL2
    kOpDivRR, kOpDivIR, //!< DIVL2
    kOpAshIR,  //!< ASHL #cnt, Rs, Rd  (imm = cnt, a = src, b = dst)
    kOpBic3IR, //!< BICL3 #imm, Rs, Rd (imm = mask, a = src, b = dst)
    kOpCmpRR, //!< CMPL Rs, Rs2        (a, b = registers)
    kOpCmpIR, //!< CMPL #imm, Rs       (imm, b = register)
    kOpCmpRI, //!< CMPL Rs, #imm       (a = register, imm)
    kOpCmpbAincI, //!< CMPB (Rn)+, #imm (a = Rn, imm)
    // Control transfers (always block-final; imm = target).
    kOpBra, //!< BRB/BRW
    kOpBneq, kOpBeql, kOpBgtr, kOpBleq, kOpBgeq, kOpBlss,
    kOpBgtru, kOpBlequ, kOpBvc, kOpBvs, kOpBcc, kOpBcs,
    kOpSobGeq, kOpSobGtr, //!< SOBxxx Rn (a = reg)
    kOpBlbc, kOpBlbs,     //!< BLBx Rn   (a = reg)
    kNumBlockOps,
};

/** Why a driver run ended early (per-block observability for
 *  VVAX_DUMP_HOT_BLOCKS and Stats::threadedBails). */
enum class ThreadedBail : Byte {
    Fault = 0, //!< GuestFault dispatched mid-block
    Smc,       //!< a store changed the block's own bytes
    Interrupt, //!< deliverable interrupt / halt stopped the run
    TlbEvict,  //!< the instruction window's TLB entry was evicted
    Budget,    //!< instruction budget truncated the block
    NumReasons,
};

constexpr int kNumThreadedBails =
    static_cast<int>(ThreadedBail::NumReasons);

/** One instruction inside a Block. */
struct BlockInstr
{
    /** May store to memory: the executor re-checks the page
     *  generation and the pending summaries after this instruction
     *  (MMIO stores can raise device interrupts synchronously). */
    static constexpr Byte kWritesMem = 1;
    /**
     * Performs any data-memory access (loads included).  A miss on
     * that access walks and inserts into the direct-mapped TLB, which
     * can evict the entry the block's own page is fetched through -
     * the reference interpreter would then take a visible TLB miss on
     * the next instruction fetch, so the executor re-checks the
     * latched entry's tag after these instructions and bails out to
     * the per-instruction path when it changed.
     */
    static constexpr Byte kTouchesMem = 2;

    /** Driver label for op.  Null until the driver first enters the
     *  block: label addresses exist only inside the driver. */
    const void *handler = nullptr;
    Byte a = 0;           //!< see BlockOp comments
    Byte b = 0;           //!< see BlockOp comments
    Byte len = 0;         //!< instruction length in bytes
    Byte flags = 0;
    /** Stream fetches before the data access (fused ops only:
     *  a Generic replay counts its own). */
    Byte fetchesPre = 0;
    Byte fetchesPost = 0; //!< stream fetches after it (fused ops only)
    BlockOp op = kOpGeneric;
    Word tmplIndex = 0;   //!< Generic: index into Block::tmpls
    Longword imm = 0;     //!< immediate / displacement / branch target
    Longword imm2 = 0;    //!< MovIM immediate value
    /** Cycle charge (the scaled base cost: no driver-run opcode
     *  carries an extra charge).  32 bits keep the record at half a
     *  cache line. */
    std::uint32_t charge = 0;
};

/**
 * A superblock: straight-line run of instructions within one page,
 * optionally capped by a stopper.  The driver runs instrs[0..count);
 * when stopperLen != 0 the stopper's bytes follow them inside the
 * validated span and runBlocks steps it through the interpreter once
 * the driver completes the block.  A block that starts at a stopper
 * has count == 0 and never enters the driver.
 */
struct Block
{
    static constexpr VirtAddr kNoPc = ~VirtAddr{0};
    static constexpr int kMaxInstrs = 32;
    static constexpr int kMaxBytes = 128;
    /** Driver runs of a source block before it may link. */
    static constexpr std::uint64_t kLinkThreshold = 8;

    /**
     * A trace link: a direct edge to the cached block this block's
     * final control transfer lands on (docs/ARCHITECTURE.md §5b).
     * Following one lets the driver chain block-to-block without
     * re-resolving the instruction window or re-comparing bytes; the
     * crossing instead re-checks pending interrupts, the latched TLB
     * tag, and the target page's generation against the watermark the
     * target was last byte-validated at.  Slot kLinkTaken holds the
     * branch-taken (or unconditional) successor, kLinkFall the
     * fall-through / not-taken successor.
     */
    struct Link
    {
        VirtAddr pc = kNoPc;    //!< start PC the target must still own
        Block *target = nullptr;
        /**
         * TLB entry the target's window resolved through at formation
         * (nullptr = formed with mapping off).  Entry slots are
         * stable storage; tag revalidates the mapping.  A same-va,
         * same-context refill reproduces the tag, so links self-heal
         * across transient evictions.
         */
        Tlb::Entry *entry = nullptr;
        std::uint64_t tag = 0;  //!< entry->tag latched at formation
        std::uint64_t taken = 0; //!< crossings through this link
    };
    static constexpr int kLinkTaken = 0;
    static constexpr int kLinkFall = 1;

    VirtAddr pc = kNoPc;            //!< VA of the first instruction
    const Byte *hostPage = nullptr; //!< page identity at build time
    std::uint32_t *genCell = nullptr; //!< the page's generation cell
    Word byteLen = 0;
    Byte count = 0;       //!< instructions the driver runs
    Byte stopperLen = 0;  //!< bytes of the capping stopper, 0 if none
    Cycles totalCharge = 0; //!< cycles of instrs[0..count)
    /** Fetch hits of instrs[0..count): the fused ops' fetchesPre +
     *  fetchesPost (the driver settles both totals once per block). */
    std::uint64_t fetchHits = 0;
    std::array<Byte, kMaxBytes> bytes{};
    std::array<BlockInstr, kMaxInstrs> instrs{};
    std::vector<PredecodedInstr> tmpls; //!< Generic instr templates

    // ----- Trace tier (docs/ARCHITECTURE.md §5b) ----------------------
    std::array<Link, 2> links{};
    /**
     * Back-references (source block, link slot) for every inbound
     * link, so invalidating this block severs each of them instead of
     * leaving sources pointing at a recycled slot.  The crossing
     * check would still reject a stale edge (pc/generation/tag
     * mismatch), but severing keeps the graph honest and the
     * traceLinksSevered counter meaningful.
     */
    std::vector<std::pair<Block *, Byte>> inbound;
    std::uint64_t hits = 0; //!< slow-path dispatches
    /**
     * Page generation at the last successful byte validation.  The
     * slow dispatch path accepts a clean generation without memcmp
     * and re-watermarks after a memcmp that passes; link crossings
     * accept the target only when its generation is still exactly
     * this value (any store to the page forces a slow revalidation).
     */
    std::uint32_t validGen = 0;
    Byte lastDir = kLinkTaken; //!< last exit direction (predictor)

    // ----- Driver observability (VVAX_DUMP_HOT_BLOCKS) ----------------
    std::uint64_t runs = 0; //!< driver entries (slow path + chained)
    std::array<std::uint64_t, kNumThreadedBails> bails{};

    /** The driver has bound every instruction to its handler label
     *  (rebuilding resets the instructions, so this never outlives
     *  the byte validation the block was built from). */
    bool resolved() const { return instrs[0].handler != nullptr; }
    void
    clear()
    {
        pc = kNoPc;
        count = 0;
        stopperLen = 0;
        byteLen = 0;
        totalCharge = 0;
        fetchHits = 0;
        tmpls.clear();
        links = {};
        hits = 0;
        validGen = 0;
        lastDir = kLinkTaken;
        runs = 0;
        bails = {};
    }
};

/**
 * Four-way set-associative block container, indexed by a hash of the
 * start PC.  A set's ways are replaced round-robin once all four are
 * live, so two hot blocks whose PCs hash alike (a loop head and the
 * code it calls, on different pages) no longer evict each other.
 *
 * The slot table (~800 KB of zeroed Blocks) is allocated on the first
 * slotFor() call, not at construction: a machine that never reaches
 * the block tier - a golden-image fork held in reserve, a monitor
 * inspecting suspended state - costs no block-cache memory, which
 * keeps VM cloning O(pages-touched) rather than O(metadata).  Slots
 * never move once allocated: trace links point at them.
 */
class BlockCache
{
  public:
    static constexpr int kEntries = 512;
    static constexpr int kWays = 4;

    Block *
    lookup(VirtAddr pc)
    {
        if (slots_.empty())
            return nullptr;
        Block *set = &slots_[setBase(pc)];
        for (int w = 0; w < kWays; ++w) {
            if (set[w].pc == pc)
                return &set[w];
        }
        return nullptr;
    }

    /** The slot a block for @p pc goes in: the way already holding
     *  @p pc, else a free way, else the set's round-robin victim. */
    Block &
    slotFor(VirtAddr pc)
    {
        if (slots_.empty()) {
            slots_.resize(kEntries);
            victim_.resize(kSets);
        }
        if (Block *b = lookup(pc))
            return *b;
        const int base = setBase(pc);
        Block *set = &slots_[base];
        for (int w = 0; w < kWays; ++w) {
            if (set[w].pc == Block::kNoPc)
                return set[w];
        }
        Byte &next = victim_[base / kWays];
        Block &victim = set[next];
        next = static_cast<Byte>((next + 1) % kWays);
        return victim;
    }

    /** All slots, for observability dumps (VVAX_DUMP_HOT_BLOCKS).
     *  Empty until the first block is built. */
    const std::vector<Block> &entries() const { return slots_; }

  private:
    static constexpr int kSets = kEntries / kWays;

    /** Index of the first way of @p pc's set. */
    static int
    setBase(VirtAddr pc)
    {
        // Fold the page number in so loop bodies on different pages
        // at the same offset don't collide.
        return static_cast<int>((pc ^ (pc >> kPageShift)) &
                                (kSets - 1)) *
               kWays;
    }

    std::vector<Block> slots_; //!< sized kEntries on first slotFor()
    std::vector<Byte> victim_; //!< per set: the next way to replace
};

} // namespace vvax

#endif // VVAX_CPU_BLOCK_CACHE_H
