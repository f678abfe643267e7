/**
 * @file
 * Physical address space: RAM plus memory-mapped I/O windows.
 *
 * RAM occupies physical addresses [0, size).  Devices may claim
 * aligned windows anywhere above RAM (the typical VAX arrangement puts
 * I/O space at the top of the physical address space).  References to
 * addresses backed by neither RAM nor a device window report
 * non-existent memory, which the CPU turns into a machine check (and
 * which the VMM turns into a VM halt, Section 5 of the paper).
 *
 * RAM backing is a policy (CowView): a machine either owns plain
 * zero-filled storage or is forked from a sealed golden image, in
 * which case the host kernel copy-on-writes pages beneath a fixed
 * MAP_PRIVATE mapping (docs/ARCHITECTURE.md §8).  Either way the
 * contract callers rely on is *pointer stability*, not allocation
 * strategy: the host address of every RAM byte is fixed for the life
 * of the machine.
 */

#ifndef VVAX_MEMORY_PHYSICAL_MEMORY_H
#define VVAX_MEMORY_PHYSICAL_MEMORY_H

#include <cstring>
#include <span>
#include <vector>

#include "arch/types.h"
#include "memory/cow_backing.h"

namespace vvax {

struct Stats;

/** Interface for memory-mapped device registers. */
class MmioHandler
{
  public:
    virtual ~MmioHandler() = default;
    /** Read @p size (1/2/4) bytes at @p offset within the window. */
    virtual Longword mmioRead(PhysAddr offset, int size) = 0;
    /** Write @p size (1/2/4) bytes at @p offset within the window. */
    virtual void mmioWrite(PhysAddr offset, Longword value, int size) = 0;
};

/**
 * Copy-on-write residency of a machine's RAM.  Every store funnel
 * bumps its page's write-generation counter through
 * PhysicalMemory::bumpGen(), and forks start with the counters
 * zeroed, so a counter's 0 -> 1 transition is an exact "first write
 * since fork" event: the touched-page and private-host-page counts
 * are kept there (CowResidency), and reading them costs O(1).
 * Private bytes are rounded up to host pages - the granularity the
 * kernel actually copies at.  For non-forked or eager-copy machines
 * all resident bytes are private and sharedBytes is 0.
 */
struct CowStats
{
    bool forked = false;        //!< RAM is a fork of a sealed image
    bool kernelCow = false;     //!< untouched pages physically shared
    Longword pagesTouched = 0;  //!< VAX pages written since the fork
    std::uint64_t privateBytes = 0; //!< host-page-rounded private bytes
    std::uint64_t sharedBytes = 0;  //!< bytes still shared with the image
};

class PhysicalMemory
{
  public:
    /** @param bytes RAM size; rounded up to a whole page.  Plain
     *  zero-filled backing (the non-forked case). */
    explicit PhysicalMemory(Longword bytes);

    /**
     * Fork constructor: RAM starts as a private CoW view of @p base
     * (which must be exactly the rounded size).  Page-generation
     * counters start fresh at zero — the forked machine's SMC
     * detection and CoW accounting begin at the fork point, identical
     * no matter how many siblings exist or in what order they forked.
     */
    PhysicalMemory(Longword bytes, const SealedRegion &base,
                   CowBacking backing = CowBacking::Auto);

    Longword ramSize() const { return static_cast<Longword>(ram_.size()); }
    Longword ramPages() const { return ramSize() / kPageSize; }

    /** Claim [base, base+length) for @p handler.  Must not overlap RAM. */
    void addMmioWindow(PhysAddr base, Longword length, MmioHandler *handler);

    /** @return true if @p pa is backed by RAM or a device window. */
    bool exists(PhysAddr pa) const;
    /** @return true if the whole page containing @p pa is RAM. */
    bool isRam(PhysAddr pa) const { return pa < ramSize(); }

    /**
     * Host pointer to the start of the RAM page containing @p pa, or
     * nullptr when the page is not entirely RAM-backed (MMIO,
     * non-existent).  The backing (owned storage or a CoW fork of a
     * golden image) never remaps, so the pointer remains valid for
     * the life of the machine: under kernel CoW the *mapping address*
     * is fixed and the kernel swaps physical pages beneath it on
     * first write.  TLB entries, superblock records and threaded-tier
     * programs all cache these pointers.
     */
    Byte *
    pageBase(PhysAddr pa)
    {
        const PhysAddr page = pa & ~kPageOffsetMask;
        if (static_cast<std::uint64_t>(page) + kPageSize <= ramSize())
            return ramData_ + page;
        return nullptr;
    }

    /**
     * Host pointer to the write-generation counter of the RAM page
     * containing @p pa, or nullptr when pageBase() would be null.
     * Every store funnel (write8/16/32, writeBlock, the MMU's inline
     * fast paths, the VMM's host-pointer shadow-table stores) bumps
     * the counter of each page it touches with bumpGen(); the
     * superblock executor compares it to detect stores into the page
     * its instructions came from (docs/ARCHITECTURE.md §5a), and a
     * nonzero counter means "page written since fork".  Like RAM
     * pages the counter addresses are stable for the life of the
     * machine; forked machines start them at zero.
     */
    std::uint32_t *
    pageGenCell(PhysAddr pa)
    {
        const PhysAddr page = pa & ~kPageOffsetMask;
        if (static_cast<std::uint64_t>(page) + kPageSize <= ramSize())
            return page_gen_.data() + (page >> kPageShift);
        return nullptr;
    }

    /** The whole generation array, indexed by page frame number. */
    std::uint32_t *pageGenData() { return page_gen_.data(); }

    /**
     * Count one store into the page whose generation counter is
     * @p cell (a pageGenCell() of this memory).  Only the page's first
     * store since the fork, or a counter wrap, takes the out-of-line
     * call that updates the CoW residency counts.
     */
    void
    bumpGen(std::uint32_t *cell)
    {
        if (++*cell <= 1) [[unlikely]]
            firstTouch(cell);
    }

    // Accessors.  Out-of-range RAM access with no window is reported
    // by exists(); callers (the MMU) check first.  These assert.
    Byte read8(PhysAddr pa);
    Word read16(PhysAddr pa);
    Longword read32(PhysAddr pa);
    void write8(PhysAddr pa, Byte value);
    void write16(PhysAddr pa, Word value);
    void write32(PhysAddr pa, Longword value);

    /** Bulk copy helpers for loaders and DMA. */
    void writeBlock(PhysAddr pa, std::span<const Byte> data);
    void readBlock(PhysAddr pa, std::span<Byte> data);

    /** Direct RAM view (loaders, the VMM's VM-physical map). */
    std::span<Byte> ram() { return {ramData_, ram_.size()}; }

    /** true when this RAM is a CoW fork of a sealed image. */
    bool forkedFromImage() const { return ram_.forked(); }
    /** true when untouched pages are physically shared with the image. */
    bool kernelCowActive() const { return ram_.kernelCow(); }

    /** Current CoW residency snapshot (O(1): kept at first touch). */
    CowStats cowStats() const;
    /** Copy cowStats() into the cow* gauge fields of @p stats. */
    void publishCowStats(Stats &stats) const;

  private:
    struct Window
    {
        PhysAddr base;
        Longword length;
        MmioHandler *handler;
    };

    const Window *findWindow(PhysAddr pa) const;
    /** bumpGen()'s rare half: a first touch, or a counter wrap. */
    void firstTouch(std::uint32_t *cell);

    CowView ram_;                         //!< backing policy (see @file)
    Byte *ramData_ = nullptr;             //!< == ram_.data(); hot-path copy
    std::vector<std::uint32_t> page_gen_; //!< per-page write counter
    CowResidency residency_;              //!< counted at page_gen_ 0 -> 1
    std::vector<Window> windows_;
};

} // namespace vvax

#endif // VVAX_MEMORY_PHYSICAL_MEMORY_H
