#include "memory/cow_backing.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#if defined(__linux__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif
#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace vvax {

std::size_t hostPageSize()
{
#if defined(__unix__) || defined(__APPLE__)
    static const std::size_t size = [] {
        long page = sysconf(_SC_PAGESIZE);
        return page > 0 ? static_cast<std::size_t>(page) : std::size_t{4096};
    }();
    return size;
#else
    return 4096;
#endif
}

std::size_t
CowResidency::unitsPerHostPage()
{
    static const std::size_t units =
        hostPageSize() >= kUnitBytes ? hostPageSize() / kUnitBytes : 1;
    return units;
}

std::size_t
CowResidency::privateBytes(std::size_t image_bytes, bool kernel_cow) const
{
    if (!kernel_cow)
        return image_bytes;
    return std::min(privateHostPages_ * hostPageSize(), image_bytes);
}

namespace {

std::size_t roundToHostPage(std::size_t bytes)
{
    const std::size_t page = hostPageSize();
    return (bytes + page - 1) / page * page;
}

int simulated_host_alloc_failures = 0;

/** Consume one armed simulated failure, if any. */
bool claimSimulatedHostAllocFailure()
{
    if (simulated_host_alloc_failures <= 0)
        return false;
    simulated_host_alloc_failures--;
    return true;
}

} // namespace

void setSimulatedHostAllocFailures(int n)
{
    simulated_host_alloc_failures = n;
}

int simulatedHostAllocFailuresRemaining()
{
    return simulated_host_alloc_failures;
}

// ---------------------------------------------------------------- SealedRegion

SealedRegion::~SealedRegion()
{
    release();
}

SealedRegion::SealedRegion(SealedRegion &&other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapLen_(std::exchange(other.mapLen_, 0)),
      heap_(std::move(other.heap_))
{
}

SealedRegion &SealedRegion::operator=(SealedRegion &&other) noexcept
{
    if (this != &other) {
        release();
        fd_ = std::exchange(other.fd_, -1);
        data_ = std::exchange(other.data_, nullptr);
        size_ = std::exchange(other.size_, 0);
        mapLen_ = std::exchange(other.mapLen_, 0);
        heap_ = std::move(other.heap_);
    }
    return *this;
}

void SealedRegion::release()
{
#if defined(__linux__)
    if (mapLen_ != 0 && data_ != nullptr)
        ::munmap(const_cast<Byte *>(data_), mapLen_);
    if (fd_ >= 0)
        ::close(fd_);
#endif
    fd_ = -1;
    data_ = nullptr;
    size_ = 0;
    mapLen_ = 0;
    heap_.clear();
}

SealedRegion SealedRegion::seal(std::span<const Byte> bytes)
{
    SealedRegion region;
    region.size_ = bytes.size();

#if defined(__linux__)
    int fd = claimSimulatedHostAllocFailure()
                 ? -1
                 : static_cast<int>(::syscall(
                       SYS_memfd_create, "vvax-golden",
                       MFD_CLOEXEC | MFD_ALLOW_SEALING));
    if (fd >= 0) {
        bool ok = true;
        std::size_t written = 0;
        while (ok && written < bytes.size()) {
            ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
            if (n <= 0)
                ok = false;
            else
                written += static_cast<std::size_t>(n);
        }
        // F_SEAL_WRITE is legal here because no shared writable mapping
        // of the fd exists; MAP_PRIVATE mappings stay allowed after it.
        if (ok && ::fcntl(fd, F_ADD_SEALS,
                          F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_WRITE) != 0)
            ok = false;
        if (ok) {
            region.mapLen_ = roundToHostPage(bytes.size());
            if (region.mapLen_ == 0)
                region.mapLen_ = hostPageSize();
            void *map = ::mmap(nullptr, region.mapLen_, PROT_READ, MAP_SHARED,
                               fd, 0);
            if (map != MAP_FAILED) {
                region.fd_ = fd;
                region.data_ = static_cast<const Byte *>(map);
                return region;
            }
            region.mapLen_ = 0;
        }
        ::close(fd);
    }
#endif

    // Heap fallback: still immutable by convention (only const access
    // escapes), but forks of it must eager-copy.
    region.heap_.assign(bytes.begin(), bytes.end());
    region.data_ = region.heap_.data();
    return region;
}

// --------------------------------------------------------------------- CowView

CowView::~CowView()
{
    release();
}

CowView::CowView(CowView &&other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapLen_(std::exchange(other.mapLen_, 0)),
      heap_(std::move(other.heap_)),
      forked_(std::exchange(other.forked_, false)),
      kernelCow_(std::exchange(other.kernelCow_, false))
{
}

CowView &CowView::operator=(CowView &&other) noexcept
{
    if (this != &other) {
        release();
        data_ = std::exchange(other.data_, nullptr);
        size_ = std::exchange(other.size_, 0);
        mapLen_ = std::exchange(other.mapLen_, 0);
        heap_ = std::move(other.heap_);
        forked_ = std::exchange(other.forked_, false);
        kernelCow_ = std::exchange(other.kernelCow_, false);
    }
    return *this;
}

void CowView::release()
{
#if defined(__linux__)
    if (mapLen_ != 0 && data_ != nullptr)
        ::munmap(data_, mapLen_);
#endif
    data_ = nullptr;
    size_ = 0;
    mapLen_ = 0;
    heap_.clear();
    forked_ = false;
    kernelCow_ = false;
}

CowView CowView::anonymous(std::size_t bytes)
{
    CowView view;
    view.heap_.resize(bytes); // value-init: RAM powers on zeroed
    view.data_ = view.heap_.data();
    view.size_ = bytes;
    return view;
}

CowView CowView::forkOf(const SealedRegion &base, CowBacking policy)
{
    if (!base.valid())
        throw std::invalid_argument("CowView::forkOf: base region not sealed");

    const bool want_kernel = policy != CowBacking::EagerCopy;

    CowView view;
    view.size_ = base.size();
    view.forked_ = true;

#if defined(__linux__)
    if (want_kernel && base.kernelBacked() &&
        !claimSimulatedHostAllocFailure()) {
        std::size_t map_len = roundToHostPage(base.size());
        if (map_len == 0)
            map_len = hostPageSize();
        void *map = ::mmap(nullptr, map_len, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE, base.fd(), 0);
        if (map != MAP_FAILED) {
            view.data_ = static_cast<Byte *>(map);
            view.mapLen_ = map_len;
            view.kernelCow_ = true;
            return view;
        }
    }
#endif
    if (policy == CowBacking::KernelCow)
        throw std::runtime_error(
            "CowView::forkOf: kernel CoW backing unavailable on this host");

    view.heap_.assign(base.data(), base.data() + base.size());
    view.data_ = view.heap_.data();
    return view;
}

} // namespace vvax
