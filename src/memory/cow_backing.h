/**
 * @file
 * Copy-on-write backing for golden-image forking (docs/ARCHITECTURE.md
 * §8): SealedRegion freezes a byte image into an immutable,
 * page-aligned region, and CowView gives each fork a private writable
 * view of it.
 *
 * On Linux the seal is a memfd with F_SEAL_SHRINK|GROW|WRITE applied
 * and the view is a MAP_PRIVATE mapping of it, so the host kernel
 * provides the copy-up: untouched pages stay physically shared across
 * every fork and a write faults in exactly one private host page.  On
 * hosts without memfd/mmap (or under CowBacking::EagerCopy) both fall
 * back to plain heap copies behind the same API - forks still work,
 * they just pay O(image) instead of O(pages-touched).
 *
 * The one invariant both implementations keep is pointer stability:
 * data() never moves for the lifetime of the view, because TLB
 * entries, superblock records and threaded-tier programs all cache
 * raw host pointers into it (memory/physical_memory.h).
 */

#ifndef VVAX_MEMORY_COW_BACKING_H
#define VVAX_MEMORY_COW_BACKING_H

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "arch/types.h"

namespace vvax {

/** How a fork's view of a sealed region is materialized. */
enum class CowBacking : Byte {
    Auto,      //!< kernel CoW when available, else eager copy
    KernelCow, //!< require MAP_PRIVATE of the sealed fd (throws if absent)
    EagerCopy, //!< force the full-copy fallback (testing, portability)
};

/** Host MMU page size - the granularity kernel copy-up works at.
 *  A VAX page (512 B) is smaller, so one host copy-up privatizes
 *  hostPageSize()/kPageSize VAX pages at once. */
std::size_t hostPageSize();

/**
 * Copy-on-write residency of one forkable image (RAM or a VM disk),
 * kept at each unit's first write instead of recounted on demand -
 * the software counterpart of the VAX PTE<M> bit, which the hardware
 * sets on the first write so nothing ever scans memory for it.  The
 * owner keeps its own per-unit "written" flags and calls firstTouch()
 * exactly once per unit, right after that unit's flag first turns
 * nonzero.  A host page turns private when its first unit is touched:
 * kernel copy-up copies whole host pages.
 */
class CowResidency
{
  public:
    /** Bytes per unit: one VAX page, and one disk block. */
    static constexpr std::size_t kUnitBytes = 512;

    /**
     * Count unit @p unit as touched, and its host page as private
     * unless a sibling unit in that host page was touched earlier.
     * @p flags are the owner's @p units per-unit written flags.
     */
    template <typename Flag>
    void
    firstTouch(const Flag *flags, std::size_t units, std::size_t unit)
    {
        touched_++;
        const std::size_t per_host = unitsPerHostPage();
        const std::size_t first = unit - unit % per_host;
        const std::size_t end = std::min(first + per_host, units);
        for (std::size_t u = first; u < end; ++u) {
            if (u != unit && flags[u] != 0)
                return;
        }
        privateHostPages_++;
    }

    /** Distinct units written since construction or reset(). */
    std::size_t unitsTouched() const { return touched_; }

    /**
     * Host-page-rounded private resident bytes of an image of
     * @p image_bytes: the touched host pages under kernel CoW, the
     * whole image otherwise (owned and eager-copied storage).
     */
    std::size_t privateBytes(std::size_t image_bytes, bool kernel_cow) const;

    void reset() { *this = CowResidency{}; }

  private:
    /** Units per host page (at least 1). */
    static std::size_t unitsPerHostPage();

    std::size_t touched_ = 0;
    std::size_t privateHostPages_ = 0;
};

/**
 * Simulated host-resource failures (FaultClass::HostAlloc and the
 * sealing-failure tests): the next @p n memfd_create/mmap attempts
 * inside SealedRegion::seal / CowView::forkOf behave as if the host
 * call failed, exercising the documented heap/eager fallback without
 * needing a genuinely resource-starved host.  Setup-time only: the
 * counter is a plain global, not synchronized against concurrent
 * seals/forks.
 */
void setSimulatedHostAllocFailures(int n);
/** Failures still armed (0 when the hook is quiescent). */
int simulatedHostAllocFailuresRemaining();

/**
 * An immutable byte image.  Sealing copies the source bytes once;
 * afterwards nothing - not even this process - can change them
 * through the region, which is what makes handing the same region to
 * hundreds of forks safe.  Move-only (it may own an fd and a
 * mapping).
 */
class SealedRegion
{
  public:
    SealedRegion() = default;
    ~SealedRegion();
    SealedRegion(SealedRegion &&other) noexcept;
    SealedRegion &operator=(SealedRegion &&other) noexcept;
    SealedRegion(const SealedRegion &) = delete;
    SealedRegion &operator=(const SealedRegion &) = delete;

    /** Freeze a copy of @p bytes (memfd + seals, or heap fallback). */
    static SealedRegion seal(std::span<const Byte> bytes);

    bool valid() const { return data_ != nullptr; }
    std::size_t size() const { return size_; }
    /** Read-only view of the sealed bytes. */
    const Byte *data() const { return data_; }
    /** true when the region lives in a sealed memfd the kernel can
     *  CoW-map; false for the heap fallback. */
    bool kernelBacked() const { return fd_ >= 0; }
    int fd() const { return fd_; }

  private:
    void release();

    int fd_ = -1;
    const Byte *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t mapLen_ = 0;      //!< host-page-rounded mapping length
    std::vector<Byte> heap_;      //!< fallback storage
};

/**
 * A writable view of bytes: either plain owned storage (anonymous) or
 * a fork of a SealedRegion.  data() is stable for the lifetime of the
 * view.  Move-only.
 */
class CowView
{
  public:
    CowView() = default;
    ~CowView();
    CowView(CowView &&other) noexcept;
    CowView &operator=(CowView &&other) noexcept;
    CowView(const CowView &) = delete;
    CowView &operator=(const CowView &) = delete;

    /** Plain zero-filled owned storage (the non-forked case). */
    static CowView anonymous(std::size_t bytes);

    /**
     * A private view of @p base: MAP_PRIVATE of its fd under kernel
     * CoW, a full heap copy under the eager fallback.  Policy
     * CowBacking::Auto degrades to the copy when the base is not
     * kernel-backed; CowBacking::KernelCow throws instead of
     * degrading.
     */
    static CowView forkOf(const SealedRegion &base,
                          CowBacking policy = CowBacking::Auto);

    std::size_t size() const { return size_; }
    Byte *data() { return data_; }
    const Byte *data() const { return data_; }

    /** true when this view was created by forkOf. */
    bool forked() const { return forked_; }
    /** true when untouched pages are physically shared with the base
     *  (MAP_PRIVATE); false for anonymous and eager-copy views. */
    bool kernelCow() const { return kernelCow_; }

  private:
    void release();

    Byte *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t mapLen_ = 0;      //!< nonzero only when mmap-backed
    std::vector<Byte> heap_;      //!< anonymous / eager storage
    bool forked_ = false;
    bool kernelCow_ = false;
};

} // namespace vvax

#endif // VVAX_MEMORY_COW_BACKING_H
