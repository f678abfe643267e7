/**
 * @file
 * Result and condition-code semantics of every integer instruction:
 * the moves, converts, logical and arithmetic operations, the loop
 * instructions, the compares and the CASE codes.  Each helper is the
 * single definition of its operation, written from the VAX SRM; the
 * execute switch (execute.cc, exec_system.cc) and the block
 * executor's fused handlers (threaded.cc) differ only in where the
 * operands come from and where the result goes.  Where the SRM
 * leaves PSL<C> unchanged, the helper takes the current C and hands
 * it back.  tests/test_alu_semantics.cc checks every helper, through
 * the whole machine, against an independent reference model.
 * Private to src/cpu.
 */

#ifndef VVAX_CPU_ALU_H
#define VVAX_CPU_ALU_H

#include <cstdint>

#include "arch/exceptions.h"
#include "arch/opcodes.h"
#include "arch/psl.h"
#include "arch/scb.h"
#include "arch/types.h"

namespace vvax {

/** Condition codes an operation leaves in PSL<N,Z,V,C>. */
struct Nzvc
{
    bool n = false;
    bool z = false;
    bool v = false;
    bool c = false;
};

inline void
setCc(Psl &psl, Nzvc cc)
{
    psl.setNzvc(cc.n, cc.z, cc.v, cc.c);
}

/** The value bits of an operand of @p size (B, W or L). */
constexpr Longword
sizeMask(OpSize size)
{
    return size == OpSize::B   ? 0xFFu
           : size == OpSize::W ? 0xFFFFu
                               : 0xFFFFFFFFu;
}

/**
 * MOVx, MOVZxL, MOVAx, PUSHx, CLRx, MCOML, BIS, BIC, XOR, ROTL: N
 * and Z from the result at @p size, V clear, C kept.
 */
constexpr Nzvc
logicalCc(Longword r, bool c, OpSize size = OpSize::L)
{
    const Longword mask = sizeMask(size);
    return {(r & ((mask >> 1) + 1)) != 0, (r & mask) == 0, false, c};
}

/** TSTx: as logicalCc, but C is cleared. */
constexpr Nzvc
testCc(Longword r, OpSize size)
{
    return logicalCc(r, false, size);
}

/** MOVQ, CLRQ and EMUL: N and Z of the quadword, V clear. */
constexpr Nzvc
quadCc(Quadword q, bool c)
{
    return {(q >> 63) != 0, q == 0, false, c};
}

/**
 * CMPx: condition codes of s1 - s2 at @p size (B, W or L), without
 * storing.  N is the signed less-than, C the unsigned one.
 */
constexpr Nzvc
compareCc(Longword s1, Longword s2, OpSize size)
{
    const Longword mask = sizeMask(size);
    const Longword sign = (mask >> 1) + 1;
    const Longword a = s1 & mask;
    const Longword b = s2 & mask;
    // Sign-extend to 32 bits for the signed comparison.
    const auto sa = static_cast<std::int32_t>(a & sign ? a | ~mask : a);
    const auto sb = static_cast<std::int32_t>(b & sign ? b | ~mask : b);
    return {sa < sb, a == b, false, a < b};
}

/**
 * A longword result with the PSL<V,C> it leaves; N and Z follow from
 * the value.
 */
struct AluResult
{
    Longword value = 0;
    bool v = false;         //!< PSL<V>
    bool c = false;         //!< PSL<C>
    bool divByZero = false; //!< traps whatever PSL<IV> says

    constexpr Nzvc
    cc() const
    {
        return {(value & 0x80000000u) != 0, value == 0, v, c};
    }
};

/** MOVL and the logical ops on a longword result: V clear, C kept. */
constexpr AluResult
movL(Longword src, bool c)
{
    return {src, false, c};
}

constexpr AluResult
bisL(Longword mask, Longword dst, bool c)
{
    return movL(dst | mask, c);
}

constexpr AluResult
bicL(Longword mask, Longword dst, bool c)
{
    return movL(dst & ~mask, c);
}

constexpr AluResult
xorL(Longword mask, Longword dst, bool c)
{
    return movL(dst ^ mask, c);
}

constexpr AluResult
mcomL(Longword src, bool c)
{
    return movL(~src, c);
}

/**
 * ROTL: rotate left by the signed byte @p cnt modulo 32 (a negative
 * count rotates right; two's complement makes the masked count
 * right directly).
 */
constexpr AluResult
rotL(Longword cnt, Longword src, bool c)
{
    const int n = static_cast<int>(cnt & 31);
    return movL(n == 0 ? src : (src << n) | (src >> (32 - n)), c);
}

/** CVTBL, CVTWL: sign-extend from @p size; V and C clear. */
constexpr AluResult
cvtL(Longword src, OpSize size)
{
    const Longword mask = sizeMask(size);
    const Longword sign = (mask >> 1) + 1;
    const Longword v = src & mask;
    return {v & sign ? v | ~mask : v, false, false};
}

/** ADDL (and INCL as addL(1, x)): sum + add; C is the carry out. */
constexpr AluResult
addL(Longword add, Longword sum)
{
    const Longword r = add + sum;
    return {r, ((~(add ^ sum)) & (add ^ r) & 0x80000000u) != 0, r < add};
}

/** SUBL (and DECL as subL(1, x)): min - sub; C is the borrow. */
constexpr AluResult
subL(Longword sub, Longword min)
{
    const Longword r = min - sub;
    return {r, ((min ^ sub) & (min ^ r) & 0x80000000u) != 0, min < sub};
}

/**
 * ADWC: sum + add + C.  V iff the exact signed sum does not fit in
 * 32 bits; C is the carry out of the exact unsigned sum.
 */
constexpr AluResult
adwcL(Longword add, Longword sum, bool cin)
{
    const std::int64_t exact =
        static_cast<std::int64_t>(static_cast<std::int32_t>(sum)) +
        static_cast<std::int32_t>(add) + cin;
    const Quadword wide = static_cast<Quadword>(sum) + add + cin;
    const auto r = static_cast<Longword>(wide);
    return {r, exact != static_cast<std::int32_t>(r), (wide >> 32) != 0};
}

/**
 * SBWC: min - sub - C.  V iff the exact signed difference does not
 * fit in 32 bits; C is the borrow of the exact unsigned difference.
 */
constexpr AluResult
sbwcL(Longword sub, Longword min, bool cin)
{
    const std::int64_t exact =
        static_cast<std::int64_t>(static_cast<std::int32_t>(min)) -
        static_cast<std::int32_t>(sub) - cin;
    const auto r = static_cast<Longword>(exact);
    return {r, exact != static_cast<std::int32_t>(r),
            static_cast<Quadword>(min) < static_cast<Quadword>(sub) + cin};
}

/** MNEGL: 0 - src; V for INT32_MIN, C unless the result is zero. */
constexpr AluResult
mnegL(Longword src)
{
    return subL(src, 0);
}

/** AOBxxx: index + 1; V when it wraps past INT32_MAX, C kept. */
constexpr AluResult
aobL(Longword index, bool c)
{
    return {index + 1, index == 0x7FFFFFFFu, c};
}

/** SOBxxx: index - 1; V when it wraps past INT32_MIN, C kept. */
constexpr AluResult
sobL(Longword index, bool c)
{
    return {index - 1, index == 0x80000000u, c};
}

/** MULL: the low longword of the signed product; V when it does not
 *  fit in 32 bits. */
constexpr AluResult
mulL(Longword mulr, Longword muld)
{
    const std::int64_t wide =
        static_cast<std::int64_t>(static_cast<std::int32_t>(mulr)) *
        static_cast<std::int32_t>(muld);
    const auto r = static_cast<Longword>(wide);
    return {r, wide != static_cast<std::int32_t>(r)};
}

/**
 * DIVL: quot = divd / divr, truncated.  Division by zero and
 * INT32_MIN / -1 both leave the dividend as the result with V set;
 * only the first traps unconditionally.
 */
constexpr AluResult
divL(Longword divr, Longword divd)
{
    const auto divisor = static_cast<std::int32_t>(divr);
    const auto dividend = static_cast<std::int32_t>(divd);
    if (divisor == 0)
        return {divd, true, false, true};
    if (dividend == INT32_MIN && divisor == -1)
        return {divd, true};
    return {static_cast<Longword>(dividend / divisor)};
}

/**
 * ASHL: arithmetic shift of @p src by the signed byte @p cnt (left
 * when positive).  V when a left shift loses a bit that differs from
 * the result's sign; right shifts of 32 or more leave the sign fill.
 */
constexpr AluResult
ashL(Longword cnt, Longword src)
{
    const auto n = static_cast<std::int8_t>(cnt);
    if (n >= 32)
        return {0, src != 0};
    if (n > 0) {
        const Longword r = src << n;
        return {r, (static_cast<std::int32_t>(r) >> n) !=
                       static_cast<std::int32_t>(src)};
    }
    if (n == 0)
        return {src};
    const int right = -n >= 32 ? 31 : -n;
    return {static_cast<Longword>(static_cast<std::int32_t>(src) >> right)};
}

/** EMUL: mulr * muld + add, exact in 64 bits (it cannot overflow). */
constexpr Quadword
emulL(Longword mulr, Longword muld, Longword add)
{
    const auto s = [](Longword x) {
        return static_cast<std::int64_t>(static_cast<std::int32_t>(x));
    };
    return static_cast<Quadword>(s(mulr) * s(muld) + s(add));
}

/** EDIV's quotient (with the codes it leaves) and remainder. */
struct EdivResult
{
    AluResult quo;
    Longword rem = 0;
};

/**
 * EDIV: divd / divr, truncated, with the remainder taking the
 * dividend's sign.  Division by zero and a quotient that does not fit
 * in 32 bits both leave the low dividend as the quotient and 0 as the
 * remainder with V set; only the first traps unconditionally.
 * INT64_MIN / -1 is caught before any host division, which would
 * trap on it.
 */
constexpr EdivResult
edivL(Longword divr, Quadword divd)
{
    const auto divisor =
        static_cast<std::int64_t>(static_cast<std::int32_t>(divr));
    const auto dividend = static_cast<std::int64_t>(divd);
    const auto low = static_cast<Longword>(divd);
    if (divisor == 0)
        return {{low, true, false, true}};
    if (dividend == INT64_MIN && divisor == -1)
        return {{low, true}};
    const std::int64_t q = dividend / divisor;
    if (q != static_cast<std::int32_t>(q))
        return {{low, true}};
    return {{static_cast<Longword>(q)},
            static_cast<Longword>(dividend % divisor)};
}

/** CASEx: the table index and the codes of its compare with limit. */
struct CaseResult
{
    Longword index = 0; //!< selector - base at the operand size
    Nzvc cc;

    /** Branch through the table: index LEQU limit. */
    constexpr bool inTable() const { return cc.c || cc.z; }
};

constexpr CaseResult
caseL(Longword selector, Longword base, Longword limit, OpSize size)
{
    const Longword index = (selector - base) & sizeMask(size);
    return {index, compareCc(index, limit, size)};
}

/**
 * Raise the arithmetic trap an AluResult calls for, with the PSL
 * already set from r.cc(): divide-by-zero always, integer overflow
 * only when PSL<IV> is set.  Arithmetic traps save the next
 * instruction's PC, so the caller commits its result first.
 */
inline void
raiseArithTraps(const Psl &psl, const AluResult &r)
{
    if (r.divByZero) {
        throw GuestFault::withParam(ScbVector::Arithmetic,
                                    arithcode::kIntegerDivideByZero,
                                    /*abort=*/false);
    }
    // One test of the PSL just stored, not a branch on r.v: that
    // keeps the fused handlers' condition codes branch-free.
    constexpr Longword kVIv = Psl::kV | Psl::kIv;
    if ((psl.raw() & kVIv) == kVIv) {
        throw GuestFault::withParam(ScbVector::Arithmetic,
                                    arithcode::kIntegerOverflow,
                                    /*abort=*/false);
    }
}

} // namespace vvax

#endif // VVAX_CPU_ALU_H
