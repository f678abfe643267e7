/**
 * @file
 * Host-side asynchronous copy engine for the virtual disk
 * (docs/ARCHITECTURE.md §7).
 *
 * kDiskBatch with HypervisorConfig::asyncDiskIo resolves everything
 * architectural at submit time on the thread that owns the VM - ring
 * validation, fault decisions, per-descriptor statuses, the virtual
 * tick the completion lands on - and hands the engine a list of plain
 * host memcpys between the VM's disk image and a staging buffer.  The
 * worker thread therefore never touches guest memory, the MMU, or any
 * statistic: wall-clock overlap with guest execution can reorder only
 * byte movement that nothing observes until the owning thread applies
 * the completion, which is how an asynchronous run stays bit-identical
 * with a synchronous one in architectural terms.
 *
 * Jobs complete in submission order, so a ticket is just a sequence
 * number and wait() is a monotonic counter check.
 */

#ifndef VVAX_VMM_ASYNC_DISK_H
#define VVAX_VMM_ASYNC_DISK_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "arch/types.h"

namespace vvax {

class AsyncDiskEngine
{
  public:
    /** One host copy; src/dst stay valid until the job completes. */
    struct Copy
    {
        Byte *dst;
        const Byte *src;
        std::size_t bytes;
    };

    AsyncDiskEngine() = default;
    ~AsyncDiskEngine();

    AsyncDiskEngine(const AsyncDiskEngine &) = delete;
    AsyncDiskEngine &operator=(const AsyncDiskEngine &) = delete;

    /**
     * Queue a job; returns its ticket (monotonic from 1).  The worker
     * thread starts on first use, so an engine owned by a hypervisor
     * that never enables asyncDiskIo costs nothing.
     */
    std::uint64_t submit(std::vector<Copy> copies);

    /** Block until the job holding @p ticket has finished its copies. */
    void wait(std::uint64_t ticket);

    /**
     * Bounded wait: true when the job finished within @p timeout,
     * false when it is still in flight.  Shutdown paths (haltVm,
     * hypervisor destruction) use this instead of wait() so a wedged
     * or deliberately stalled engine cannot wedge a fleet worker —
     * the timed-out batch stays pending and its staging stays alive
     * until the engine is joined.
     */
    bool waitFor(std::uint64_t ticket, std::chrono::milliseconds timeout);

    /** True once the job holding @p ticket has finished (non-blocking). */
    bool done(std::uint64_t ticket);

    /**
     * Test hook: make the worker sleep @p ms before executing each
     * job, simulating a wedged host I/O path so the bounded-drain
     * guarantees can be exercised.  0 restores normal behaviour.
     */
    void stallForTesting(std::chrono::milliseconds ms);

  private:
    void workerLoop();

    std::atomic<int> stallMs_{0}; //!< test-only worker delay per job

    std::mutex mutex_;
    std::condition_variable workCv_; //!< signals the worker: new job/stop
    std::condition_variable doneCv_; //!< signals waiters: job finished
    std::deque<std::pair<std::uint64_t, std::vector<Copy>>> queue_;
    std::uint64_t nextTicket_ = 1;
    std::uint64_t completed_ = 0;
    bool stop_ = false;
    std::thread worker_; //!< started lazily by the first submit()
};

} // namespace vvax

#endif // VVAX_VMM_ASYNC_DISK_H
