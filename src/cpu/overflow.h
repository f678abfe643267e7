/**
 * @file
 * Longword overflow predicates shared by the execute switch
 * (execute.cc) and the block executor's fused handlers (threaded.cc),
 * which must set PSL<V> exactly as the generic path does.  Private to
 * src/cpu.
 */

#ifndef VVAX_CPU_OVERFLOW_H
#define VVAX_CPU_OVERFLOW_H

#include "arch/types.h"

namespace vvax {

constexpr bool
addOverflows(Longword a, Longword b, Longword sum)
{
    return ((~(a ^ b)) & (a ^ sum) & 0x80000000u) != 0;
}

constexpr bool
subOverflows(Longword min, Longword sub, Longword dif)
{
    // dif = min - sub
    return (((min ^ sub)) & (min ^ dif) & 0x80000000u) != 0;
}

} // namespace vvax

#endif // VVAX_CPU_OVERFLOW_H
