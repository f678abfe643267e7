#include "memory/physical_memory.h"

#include <cassert>
#include <stdexcept>

#include "metrics/stats.h"

namespace vvax {

static_assert(kPageSize == CowResidency::kUnitBytes,
              "CoW residency counts RAM in VAX pages");

namespace {

Longword roundToVaxPage(Longword bytes)
{
    return (bytes + kPageSize - 1) & ~kPageOffsetMask;
}

} // namespace

PhysicalMemory::PhysicalMemory(Longword bytes)
{
    const Longword rounded = roundToVaxPage(bytes);
    ram_ = CowView::anonymous(rounded);
    ramData_ = ram_.data();
    page_gen_.resize(rounded / kPageSize, 0);
}

PhysicalMemory::PhysicalMemory(Longword bytes, const SealedRegion &base,
                               CowBacking backing)
{
    const Longword rounded = roundToVaxPage(bytes);
    if (base.size() != rounded)
        throw std::invalid_argument(
            "PhysicalMemory: sealed image size does not match RAM size");
    ram_ = CowView::forkOf(base, backing);
    ramData_ = ram_.data();
    page_gen_.resize(rounded / kPageSize, 0);
}

void
PhysicalMemory::addMmioWindow(PhysAddr base, Longword length,
                              MmioHandler *handler)
{
    assert(handler != nullptr);
    if (base < ramSize())
        throw std::invalid_argument("MMIO window overlaps RAM");
    for (const Window &w : windows_) {
        if (base < w.base + w.length && w.base < base + length)
            throw std::invalid_argument("MMIO windows overlap");
    }
    windows_.push_back(Window{base, length, handler});
}

const PhysicalMemory::Window *
PhysicalMemory::findWindow(PhysAddr pa) const
{
    for (const Window &w : windows_) {
        if (pa >= w.base && pa < w.base + w.length)
            return &w;
    }
    return nullptr;
}

bool
PhysicalMemory::exists(PhysAddr pa) const
{
    return pa < ramSize() || findWindow(pa) != nullptr;
}

Byte
PhysicalMemory::read8(PhysAddr pa)
{
    if (pa < ramSize())
        return ramData_[pa];
    const Window *w = findWindow(pa);
    assert(w);
    return static_cast<Byte>(w->handler->mmioRead(pa - w->base, 1));
}

Word
PhysicalMemory::read16(PhysAddr pa)
{
    if (pa + 1 < ramSize()) {
        Word value;
        std::memcpy(&value, ramData_ + pa, 2);
        return value;
    }
    const Window *w = findWindow(pa);
    assert(w);
    return static_cast<Word>(w->handler->mmioRead(pa - w->base, 2));
}

Longword
PhysicalMemory::read32(PhysAddr pa)
{
    if (pa + 3 < ramSize() && pa + 3 > pa) {
        Longword value;
        std::memcpy(&value, ramData_ + pa, 4);
        return value;
    }
    const Window *w = findWindow(pa);
    assert(w);
    return w->handler->mmioRead(pa - w->base, 4);
}

void
PhysicalMemory::write8(PhysAddr pa, Byte value)
{
    if (pa < ramSize()) {
        ramData_[pa] = value;
        bumpGen(&page_gen_[pa >> kPageShift]);
        return;
    }
    const Window *w = findWindow(pa);
    assert(w);
    w->handler->mmioWrite(pa - w->base, value, 1);
}

void
PhysicalMemory::write16(PhysAddr pa, Word value)
{
    if (pa + 1 < ramSize()) {
        std::memcpy(ramData_ + pa, &value, 2);
        bumpGen(&page_gen_[pa >> kPageShift]);
        bumpGen(&page_gen_[(pa + 1) >> kPageShift]);
        return;
    }
    const Window *w = findWindow(pa);
    assert(w);
    w->handler->mmioWrite(pa - w->base, value, 2);
}

void
PhysicalMemory::write32(PhysAddr pa, Longword value)
{
    if (pa + 3 < ramSize() && pa + 3 > pa) {
        std::memcpy(ramData_ + pa, &value, 4);
        bumpGen(&page_gen_[pa >> kPageShift]);
        bumpGen(&page_gen_[(pa + 3) >> kPageShift]);
        return;
    }
    const Window *w = findWindow(pa);
    assert(w);
    w->handler->mmioWrite(pa - w->base, value, 4);
}

void
PhysicalMemory::writeBlock(PhysAddr pa, std::span<const Byte> data)
{
    assert(pa + data.size() <= ramSize());
    std::memcpy(ramData_ + pa, data.data(), data.size());
    if (!data.empty()) {
        const PhysAddr first = pa >> kPageShift;
        const PhysAddr last = (pa + data.size() - 1) >> kPageShift;
        for (PhysAddr page = first; page <= last; ++page)
            bumpGen(&page_gen_[page]);
    }
}

void
PhysicalMemory::readBlock(PhysAddr pa, std::span<Byte> data)
{
    assert(pa + data.size() <= ramSize());
    std::memcpy(data.data(), ramData_ + pa, data.size());
}

void
PhysicalMemory::firstTouch(std::uint32_t *cell)
{
    if (*cell == 0) {
        // The counter wrapped after 2^32 stores.  The page is still
        // written (and was counted at its real first touch); keep the
        // counter nonzero so it reads that way.
        *cell = 1;
        return;
    }
    residency_.firstTouch(page_gen_.data(), page_gen_.size(),
                          static_cast<std::size_t>(cell - page_gen_.data()));
}

CowStats
PhysicalMemory::cowStats() const
{
    CowStats cs;
    cs.forked = ram_.forked();
    cs.kernelCow = ram_.kernelCow();
    cs.pagesTouched = static_cast<Longword>(residency_.unitsTouched());
    cs.privateBytes = residency_.privateBytes(ram_.size(), cs.kernelCow);
    cs.sharedBytes = ram_.size() - cs.privateBytes;
    return cs;
}

void
PhysicalMemory::publishCowStats(Stats &stats) const
{
    const CowStats cs = cowStats();
    stats.cowForkedRam = cs.forked ? 1 : 0;
    stats.cowKernelBacked = cs.kernelCow ? 1 : 0;
    stats.cowPagesTouched = cs.pagesTouched;
    stats.cowPrivateBytes = cs.privateBytes;
    stats.cowSharedBytes = cs.sharedBytes;
}

} // namespace vvax
