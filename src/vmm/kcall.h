/**
 * @file
 * The KCALL hypercall ABI (paper Sections 4.4.3 and 5).
 *
 * The virtual VAX initiates I/O (and other VMM services) by writing a
 * function code to the KCALL processor register with arguments in
 * R1..R3; the VMM returns a status in R0.  This replaces the VM-side
 * emulation of memory-mapped device registers, which the paper found
 * "far simpler and more cost effective" (Section 8).
 */

#ifndef VVAX_VMM_KCALL_H
#define VVAX_VMM_KCALL_H

#include "arch/scb.h"
#include "arch/types.h"

namespace vvax::kcallabi {

enum Function : Longword {
    kDiskRead = 1,  //!< R1 = block, R2 = count, R3 = VM-phys address
    kDiskWrite = 2, //!< R1 = block, R2 = count, R3 = VM-phys address
    kConsoleWrite = 3, //!< R1 = VM-phys buffer, R2 = length
    kSetUptimeMailbox = 4, //!< R1 = VM-phys address for uptime
    kYield = 5,     //!< give up the processor (like WAIT)
    kDiskBatch = 6, //!< R1 = VM-phys descriptor ring, R2 = descriptors
    kQueryFeatures = 7, //!< R0 <- feature mask (no arguments)
};

/** Status returned in R0. */
enum Status : Longword {
    kOk = 0,
    kError = 1,
};

/**
 * Feature bits returned by kQueryFeatures.  Bit 0 is deliberately
 * unused: a VMM predating kQueryFeatures answers an unknown function
 * code with kError (== 1), which a driver probing bit 0 would misread
 * as the feature being present.  Bit 2 (value 4) is reserved and never
 * set: it once advertised kFeatureDiskAsync, an asynchronous kDiskBatch
 * whose R0 = kOk only acknowledged the submission.  kDiskBatch is
 * synchronous, so its statuses are final when the KCALL returns.
 */
enum Feature : Longword {
    kFeatureDiskBatch = 2,
};

/**
 * kDiskBatch descriptor ring layout: @ref kMaxBatchDescriptors
 * 16-byte entries, naturally aligned, in VM-physical memory.  Each
 * entry names one contiguous transfer; flags bit 0 selects the
 * direction (set = write to disk).  The VMM services the whole ring
 * in one exit and posts a single completion interrupt.
 */
constexpr Longword kBatchDescriptorBytes = 16;
constexpr Longword kBatchDescBlock = 0; //!< starting disk block
constexpr Longword kBatchDescCount = 4; //!< blocks to transfer
constexpr Longword kBatchDescVmPa = 8;  //!< VM-physical buffer
constexpr Longword kBatchDescFlags = 12;
constexpr Longword kBatchFlagWrite = 1;
constexpr Longword kMaxBatchDescriptors = 32;

/**
 * Per-descriptor completion status.  After servicing a ring the VMM
 * writes a status into bits 31:16 of each descriptor's flags longword
 * (the guest-owned bits 15:0 are preserved from the values the VMM
 * snapshotted at the start of the call):
 *
 *   flags<31:16> = kBatchStatusNone   descriptor never serviced (a
 *                                     torn batch leaves the tail this
 *                                     way, and earlier descriptors may
 *                                     already have transferred)
 *                  kBatchStatusOk     transfer completed
 *                  kBatchStatusError  transfer failed (bad arguments,
 *                                     out-of-range block, device error)
 *
 * kDiskBatch returns kOk in R0 only when every descriptor reports
 * kBatchStatusOk; on partial failure a driver re-issues the failed and
 * unserviced descriptors individually (kDiskRead/kDiskWrite), so a
 * torn or faulted ring degrades to per-block transfers instead of
 * silently corrupting data.  Guests must therefore clear or rewrite
 * flags<31:16> before reusing a descriptor.
 */
constexpr Longword kBatchStatusShift = 16;
constexpr Longword kBatchStatusMask = 0xFFFF0000;
constexpr Longword kBatchStatusNone = 0;
constexpr Longword kBatchStatusOk = 1;
constexpr Longword kBatchStatusError = 2;

/** Virtual disk completion interrupt (IPL 21). */
constexpr Word kDiskVector = static_cast<Word>(ScbVector::DeviceBase);
constexpr Byte kDiskIpl = kIplDisk;

} // namespace vvax::kcallabi

#endif // VVAX_VMM_KCALL_H
