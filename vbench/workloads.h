/**
 * @file
 * The three benchmark workloads (README.md explains why each exists).
 * A workload's constructor is its set-up; runOp is one timed op.  Each
 * op is checked, and reports the library's own counters for the work
 * it did.
 */

#ifndef VBENCH_WORKLOADS_H
#define VBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>

#include "trace.h"

namespace vbench {

/**
 * Counters one op produced, taken from the public Stats / VmStats /
 * fleet API.  Architectural counters depend only on the simulated
 * work, so two runs of one seed must repeat them exactly; host
 * counters describe how the host executed it.
 */
#define VBENCH_ARCH_COUNTS(X)                                          \
    X(instructions)                                                    \
    X(busy_cycles)                                                     \
    X(vmm_emulate_cycles)                                              \
    X(vmm_shadow_cycles)                                               \
    X(vmm_io_cycles)                                                   \
    X(exits)                                                           \
    X(exits_rei)                                                       \
    X(exits_mtpr)                                                      \
    X(exits_mfpr)                                                      \
    X(exits_chmk)                                                      \
    X(exits_chme)                                                      \
    X(exits_chms)                                                      \
    X(exits_ldpctx)                                                    \
    X(exits_svpctx)                                                    \
    X(shadow_fills)                                                    \
    X(shadow_cache_hits)                                               \
    X(shadow_cache_misses)                                             \
    X(kcall_ios)                                                       \
    X(disk_batches)                                                    \
    X(batched_blocks)                                                  \
    X(coalesced_chars)                                                 \
    X(tlb_hits)                                                        \
    X(tlb_misses)                                                      \
    X(tlb_context_switches)                                            \
    X(faults_injected)                                                 \
    X(cow_pages_touched)                                               \
    X(microreboots)                                                    \
    X(quarantines)                                                     \
    X(pages_recopied)                                                  \
    X(rounds)                                                          \
    X(vms)                                                             \
    X(forked)

#define VBENCH_HOST_COUNTS(X)                                          \
    X(block_instructions)                                              \
    X(threaded_instructions)                                           \
    X(block_builds)                                                    \
    X(threaded_compiles)                                               \
    X(threaded_bails)                                                  \
    X(trace_links_taken)                                               \
    X(cow_private_bytes)

struct Counts
{
#define VBENCH_DECLARE(name) std::uint64_t name = 0;
    VBENCH_ARCH_COUNTS(VBENCH_DECLARE)
    VBENCH_HOST_COUNTS(VBENCH_DECLARE)
#undef VBENCH_DECLARE

    Counts &operator+=(const Counts &other);
    /** Architectural counters only. */
    bool sameArch(const Counts &other) const;
    /** {"arch": {...}, "host": {...}} */
    std::string json() const;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Run op @p k (ops are numbered from 0 across warm-up and timed
     * ops).  Fills @p out; returns false with @p why when a check
     * fails.
     */
    virtual bool runOp(int k, Tracer &tr, Counts &out, std::string &why) = 0;

    /**
     * Warm-up ops run before timing.  Their summed counters are the
     * run's deterministic counter set, independent of run length.
     */
    virtual int warmupOps() const = 0;

    /** Input variants the ops cycle through: op k runs variant
     *  k % variants(). */
    virtual int variants() const { return 1; }

    /** Digest of the generated inputs: proves the seed reaches them. */
    virtual std::uint64_t inputDigest() const = 0;

    /**
     * Repeat the op just run on a one-worker twin (compute-fleet's
     * fleet speedup); false when this workload has no twin.
     */
    virtual bool hasTwin() const { return false; }
    virtual bool runTwinOp(Tracer &, std::string &) { return true; }

    /** Tear down what set-up built (traced as its own root). */
    virtual void finish(Tracer &) {}
};

bool knownWorkload(const std::string &name);

/** Host threads one op of @p name runs on (fleet workers, or 1). */
int hostThreads(const std::string &name);

/**
 * Set up @p name for @p seed.  @p with_twin builds compute-fleet's
 * one-worker twin (traced runs only).
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed, Tracer &tr,
                                       bool with_twin);

} // namespace vbench

#endif // VBENCH_WORKLOADS_H
