/**
 * @file
 * Result and condition-code semantics of the integer operations that
 * both the execute switch (execute.cc) and the block executor's fused
 * handlers (threaded.cc) implement: MUL, DIV, ASH and the byte /
 * longword compare.  Each helper is the single definition of its
 * operation; the two callers differ only in where the operands come
 * from and where the result goes.  Private to src/cpu.
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

/**
 * A longword arithmetic result.  N and Z follow from the value and C
 * is clear for every operation that returns one (MUL, DIV, ASH).
 */
struct AluResult
{
    Longword value = 0;
    bool v = false;         //!< PSL<V>
    bool divByZero = false; //!< traps whatever PSL<IV> says

    constexpr Nzvc
    cc() const
    {
        return {(value & 0x80000000u) != 0, value == 0, v, false};
    }
};

/** MULL: the low longword of the signed product; V when it does not
 *  fit in 32 bits. */
constexpr AluResult
mulL(Longword mulr, Longword muld)
{
    const std::int64_t wide =
        static_cast<std::int64_t>(static_cast<std::int32_t>(mulr)) *
        static_cast<std::int32_t>(muld);
    const auto r = static_cast<Longword>(wide);
    return {r, wide != static_cast<std::int32_t>(r), false};
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
        return {divd, true, true};
    if (dividend == INT32_MIN && divisor == -1)
        return {divd, true, false};
    return {static_cast<Longword>(dividend / divisor), false, false};
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
        return {0, src != 0, false};
    if (n > 0) {
        const Longword r = src << n;
        const bool v = (static_cast<std::int32_t>(r) >> n) !=
                       static_cast<std::int32_t>(src);
        return {r, v, false};
    }
    if (n == 0)
        return {src, false, false};
    const int right = -n >= 32 ? 31 : -n;
    return {static_cast<Longword>(static_cast<std::int32_t>(src) >> right),
            false, false};
}

/**
 * The integer-overflow trap, taken after an instruction has set
 * PSL<V> while PSL<IV> is enabled.  Arithmetic traps save the next
 * instruction's PC, so the caller commits its result first.
 */
inline void
raiseOverflowTrap(const Psl &psl)
{
    if (psl.v() && psl.flag(Psl::kIv)) {
        throw GuestFault::withParam(ScbVector::Arithmetic,
                                    arithcode::kIntegerOverflow,
                                    /*abort=*/false);
    }
}

/**
 * Raise the arithmetic trap an AluResult calls for, with the PSL
 * already set from r.cc(): divide-by-zero always, integer overflow
 * only when PSL<IV> is set.
 */
inline void
raiseArithTraps(const Psl &psl, const AluResult &r)
{
    if (r.divByZero) {
        throw GuestFault::withParam(ScbVector::Arithmetic,
                                    arithcode::kIntegerDivideByZero,
                                    /*abort=*/false);
    }
    raiseOverflowTrap(psl);
}

/**
 * CMPx: condition codes of s1 - s2 at @p size (B, W or L), without
 * storing.  N is the signed less-than, C the unsigned one.
 */
constexpr Nzvc
compareCc(Longword s1, Longword s2, OpSize size)
{
    const Longword mask = size == OpSize::B   ? 0xFFu
                          : size == OpSize::W ? 0xFFFFu
                                              : 0xFFFFFFFFu;
    const Longword sign = (mask >> 1) + 1;
    const Longword a = s1 & mask;
    const Longword b = s2 & mask;
    // Sign-extend to 32 bits for the signed comparison.
    const auto sa = static_cast<std::int32_t>(a & sign ? a | ~mask : a);
    const auto sb = static_cast<std::int32_t>(b & sign ? b | ~mask : b);
    return {sa < sb, a == b, false, a < b};
}

} // namespace vvax

#endif // VVAX_CPU_ALU_H
