/**
 * @file
 * Predecoded-instruction representation shared by the decoder's
 * per-instruction replay cache (decode.cc) and the superblock
 * translation cache (block_cache.cc, docs/ARCHITECTURE.md §5a).
 *
 * A PredecodedInstr stores the raw instruction bytes plus a
 * stream-independent operand template: everything the byte-level
 * decoder computes that depends only on the bytes (addressing-mode
 * kinds, displacements, immediates, stream-fetch counts), with all
 * PC-relative forms folded to absolute addresses.  The full decode
 * captures the template while it decodes (decode.cc: each specifier
 * case stores what it computed, each operand the fetch8/16/32 calls
 * it made), so there is one specifier parser; the template reaches
 * the cache only once the whole instruction has decoded.  Replaying
 * the template performs exactly the data accesses, register side
 * effects and counter updates the byte-level decode would.
 *
 * The block executor (threaded.cc, docs/ARCHITECTURE.md §5c) builds
 * on the same invariant one level up: a block's Generic instructions
 * carry a tmplIndex into the block's template vector and replay it
 * exactly as the per-instruction path does, so a template is the unit
 * of decode work shared by every tier above the reference
 * interpreter.  Templates and handler bindings both live in the
 * Block: invalidating it (SMC, DMA, external pokes) drops them
 * together through one funnel.
 */

#ifndef VVAX_CPU_PREDECODE_H
#define VVAX_CPU_PREDECODE_H

#include <array>
#include <cstdint>

#include "arch/opcodes.h"
#include "arch/types.h"

namespace vvax {

/** Addressing-mode kind of one predecoded operand specifier. */
enum class PdKind : Byte {
    Branch,          //!< value = precomputed target
    Literal,         //!< short literal, value = disp
    Immediate,       //!< value/value2 from the stream bytes
    Register,
    RegDeferred,     //!< addr = R[reg]
    AutoDec,         //!< R[reg] -= size; addr = R[reg]
    AutoInc,         //!< addr = R[reg]; R[reg] += size
    AutoIncDeferred, //!< addr = M[R[reg]]; R[reg] += 4
    Disp,            //!< addr = R[reg] + disp
    DispDeferred,    //!< addr = M[R[reg] + disp]
    Absolute,        //!< addr = disp (also all PC-relative forms)
    AbsoluteDeferred,//!< addr = M[disp]
};

struct PredecodedOp
{
    PdKind kind = PdKind::Literal;
    Byte reg = 0;         //!< base register
    Byte indexReg = 0xFF; //!< [Rx] scaling register, 0xFF = none
    Byte fetches = 0;     //!< fetch8/16/32 calls the decode made for it
    Byte off = 0;         //!< immediate bytes' offset from the pc
    Longword disp = 0;    //!< displacement / literal / target / imm
    Longword imm2 = 0;    //!< immediate quad high half
};

struct PredecodedInstr
{
    static constexpr int kMaxBytes = 24;
    VirtAddr pc = ~VirtAddr{0}; //!< key; all-ones = empty
    Byte len = 0;               //!< instruction length in bytes
    Byte opcodeFetches = 1;     //!< 1, or 2 for the 0xFD page
    Word opcode = 0;
    const InstrInfo *info = nullptr;
    /** bytes[0..len) zero-extended into a word, when len <= 8:
     *  lets revalidation be one masked 64-bit compare. */
    std::uint64_t fastBytes = 0;
    std::uint64_t fastMask = 0;
    std::array<Byte, kMaxBytes> bytes{};
    std::array<PredecodedOp, kMaxOperands> ops{};
};

} // namespace vvax

#endif // VVAX_CPU_PREDECODE_H
