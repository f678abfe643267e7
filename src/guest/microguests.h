/**
 * @file
 * Small self-contained guest kernels targeting specific VMM hot
 * paths.  Both the equivalence tests and the throughput benchmarks
 * run these, so the trap mix each one generates is measured (bench)
 * and lockstep-verified (fast path vs reference path) from the same
 * image.
 */

#ifndef VVAX_GUEST_MICROGUESTS_H
#define VVAX_GUEST_MICROGUESTS_H

#include <vector>

#include "arch/types.h"

namespace vvax {

/** A built microguest: load at (VM-)physical @ref loadBase. */
struct MicroGuestImage
{
    std::vector<Byte> image;
    VirtAddr loadBase = 0;
    VirtAddr entry = 0;
};

/**
 * Trap-dense kernel loop: every iteration executes two MTPR IPLs, an
 * MFPR IPL and a PROBER, so a virtualized run takes four emulation
 * traps per iteration (the paper's Table 3 privileged-instruction
 * profile).  Runs with mapping off; IPL never drops below 30, so the
 * instruction stream is identical bare and virtualized.
 */
MicroGuestImage buildTrapDenseLoop(Longword iterations);

/**
 * Context-switch-dense kernel: builds an identity page table over the
 * low 64 KB, turns mapping on, then ping-pongs between two processes
 * with MTPR PCBB + LDPCTX + REI per switch (two full switches per
 * iteration).  The loop counter lives in memory because LDPCTX
 * replaces the register file.  Virtualized, this hammers the shadow
 * slot cache and the tagged-TLB world-switch path.
 */
MicroGuestImage buildContextSwitchLoop(Longword iterations);

/** Passes between stopper rewrites in the SMC guest. */
constexpr Longword kSmcStopperPeriod = 16;

/**
 * Self-modifying kernel loop: each iteration rewrites the
 * short-literal specifier byte of an ADDL2 that has already executed
 * (toggling the addend between 1 and 2), then runs the patched
 * instruction.  Every @ref kSmcStopperPeriod passes it also flips the
 * stopper that caps the patched run (MFPR #IPL, R7) into
 * MOVL #18, R7 and back.  With @p cross_page the patched
 * instructions sit on the page after the stores, so the writes
 * invalidate a *different* page's translations; otherwise the stores
 * mutate the very run of code they execute from.  Exercises
 * icache/superblock invalidation on the fast path - the reference
 * interpreter re-fetches every byte, so lockstep runs prove the
 * caches never serve stale code.
 */
MicroGuestImage buildSmcPatchLoop(Longword iterations, bool cross_page);

/** Passes between displacement rewrites in the branch-patch guest. */
constexpr Longword kBranchPatchPeriod = 16;

/**
 * Self-modifying *branch* loop for the trace tier: every
 * @ref kBranchPatchPeriod passes the guest rewrites the displacement
 * byte of a BRB in a different superblock (the hot path
 * loop -> mid -> door -> t1/t2 -> loop links up during the quiet
 * passes), flipping the branch between its two arms.  The store
 * dirties the page generation of a linked trace member, so on the
 * fast path each flip must sever the inbound links and the trace
 * re-forms before the next flip.  With @p cross_page the patched
 * branch sits on the page after the store.  The reference
 * interpreter re-fetches every byte, so lockstep runs prove link
 * crossings never execute stale code.  Terminal state:
 * R0 = 4*iterations, R1 = branchPatchExpectedR1(iterations), R6 = 0.
 */
MicroGuestImage buildBranchPatchLoop(Longword iterations,
                                     bool cross_page);

/** Architectural R1 after @p iterations of the branch-patch loop. */
Longword branchPatchExpectedR1(Longword iterations);

/** Descriptors per kDiskBatch ring posted by the I/O-dense guest. */
constexpr Longword kIoDenseDescriptors = 16;

/**
 * I/O-dense kernel loop: every iteration writes a four-character
 * console burst through TXDB and moves @ref kIoDenseDescriptors
 * single-block disk transfers (eight writes, then eight reads of the
 * written blocks).  With @p use_disk_kcall the boot path probes the
 * VMM's KCALL feature mask: a VMM advertising kFeatureDiskBatch gets
 * the whole descriptor ring in ONE kDiskBatch exit per iteration,
 * anything else gets one kDiskRead/kDiskWrite KCALL per descriptor —
 * the same transfers in the same order, so disk contents and console
 * bytes are identical either way.  Without @p use_disk_kcall the loop
 * is console+ALU only and runs bare (no KCALL register needed).
 */
MicroGuestImage buildIoDenseLoop(Longword iterations,
                                 bool use_disk_kcall);

} // namespace vvax

#endif // VVAX_GUEST_MICROGUESTS_H
