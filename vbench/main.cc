/**
 * @file
 * Benchmark program: sets up one workload, runs checked ops for a fixed
 * time, and prints the metrics named in BENCHMARK.json as the last
 * line of stdout.  README.md defines every workload and metric.
 *
 *   vbench_run --workload W --seed N --seconds S --trace 0|1
 *                 [--spans FILE]
 *   vbench_run --self-test
 *   vbench_run --list-metrics
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

extern char **environ;

namespace {

using namespace vbench;

/** Set-up runs this many times per run, rotating over the CPU slots. */
constexpr int kSetups = 8;
/** Timed ops per CPU slot at least, so the tail has 10 ops beyond it. */
constexpr long kMinOpsPerSlot = 30;

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

struct LayerMetric
{
    std::string name;
    const char *unit;
    const char *better;
};

/** Calls the benchmark wraps in spans, in per-layer output order. */
const char *const kSpanNames[] = {
    "guest.build",     "core.machine_new", "core.teardown",
    "vmm.create",      "vmm.boot",         "vmm.run",
    "vmm.golden.seal", "vmm.golden.fork",  "vmm.fleet.create",
    "vmm.fleet.run",   "vmm.fleet.teardown",
};

/** Per-layer metrics derived from counters, in output order. */
const LayerMetric kCountMetrics[] = {
    {"trace.op_ms.p50", "ms", "lower"},
    {"trace.untraced_op_ms.p50", "ms", "lower"},
    {"trace.overhead", "fraction", "lower"},
    {"memory.tlb_miss_ratio", "fraction", "lower"},
    {"memory.tlb_context_switches_per_kinstr", "1/kinstr", "lower"},
    {"cpu.threaded_share", "fraction", "higher"},
    {"cpu.block_share", "fraction", "higher"},
    {"cpu.block_builds", "count", "lower"},
    {"cpu.threaded_compiles", "count", "lower"},
    {"cpu.threaded_bails", "count", "lower"},
    {"cpu.trace_links_taken_per_kinstr", "1/kinstr", "higher"},
    {"vmm.run.ns_per_instr", "ns/instr", "lower"},
    {"vmm.emulate.exits_per_kinstr", "1/kinstr", "lower"},
    {"vmm.emulate.exits.rei", "count", "lower"},
    {"vmm.emulate.exits.mtpr", "count", "lower"},
    {"vmm.emulate.exits.mfpr", "count", "lower"},
    {"vmm.emulate.exits.chmk", "count", "lower"},
    {"vmm.emulate.exits.chme", "count", "lower"},
    {"vmm.emulate.exits.chms", "count", "lower"},
    {"vmm.emulate.exits.ldpctx", "count", "lower"},
    {"vmm.emulate.exits.svpctx", "count", "lower"},
    {"vmm.emulate.sim_cycle_share", "fraction", "lower"},
    {"vmm.memory.shadow_fills_per_vm", "count", "lower"},
    {"vmm.memory.shadow_cache_hit_ratio", "fraction", "higher"},
    {"vmm.memory.sim_cycle_share", "fraction", "lower"},
    {"vmm.services.kcall_ios", "count", "lower"},
    {"vmm.services.disk_batches", "count", "lower"},
    {"vmm.services.blocks_per_batch", "count", "higher"},
    {"vmm.services.coalesced_console_chars", "count", "higher"},
    {"vmm.services.sim_cycle_share", "fraction", "lower"},
    {"vmm.golden.fork.us_per_vm", "us", "lower"},
    {"memory.cow.pages_touched_per_vm", "count", "lower"},
    {"memory.cow.private_kib_per_vm", "KiB", "lower"},
    {"vmm.fleet.rounds", "count", "lower"},
    {"vmm.fleet.microreboots", "count", "lower"},
    {"vmm.fleet.quarantines", "count", "lower"},
    {"vmm.fleet.pages_recopied_per_reboot", "count", "lower"},
    {"vmm.fleet.speedup", "x", "higher"},
};

std::vector<LayerMetric>
layerMetrics()
{
    std::vector<LayerMetric> all;
    for (const char *span : kSpanNames) {
        all.push_back({std::string(span) + ".ms", "ms", "lower"});
        all.push_back({std::string(span) + ".self_ms", "ms", "lower"});
        all.push_back({std::string(span) + ".share", "fraction", "lower"});
    }
    for (const LayerMetric &m : kCountMetrics)
        all.push_back(m);
    return all;
}

double
ratio(double num, double den)
{
    return den == 0 ? 0.0 : num / den;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** The highest percentile with at least ten samples beyond it. */
double
tail(std::vector<double> v, double &percentile)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    const std::size_t i = n > 10 ? n - 11 : (n ? n - 1 : 0);
    percentile = n ? 100.0 * static_cast<double>(i + 1) / n : 0;
    return n ? v[i] : 0;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spans;
};

/** One untraced timed op. */
struct OpSample
{
    double ms;
    double mips;
    double vmsPerS;
    std::size_t slot;    //!< index into the run's CPU slots
    std::size_t variant; //!< the workload's input variant
};

/** Everything one run measured. */
struct RunData
{
    std::vector<cpu_set_t> slots;
    std::vector<std::vector<double>> setupS; //!< per CPU slot
    std::vector<OpSample> ops;      //!< untraced timed ops
    std::vector<double> tracedOpMs; //!< traced timed ops
    std::vector<double> twinMs;     //!< one-worker twin of each op
    Counts warm;   //!< warm-up ops: the deterministic counter set
    Counts timed;  //!< all timed ops
    Counts traced; //!< traced timed ops
    long timedOps = 0;
    long tracedOps = 0;
    long attempted = 0;
    long failed = 0;
};

/**
 * CPU sets the ops rotate over.  On a shared host one vCPU can run
 * memory-bound code at half speed for seconds while its siblings run
 * at full speed, so a single-threaded op visits every allowed CPU in
 * turn and the run reports its timings from the quietest one
 * (endToEnd).  Multi-threaded ops run on all allowed CPUs.
 */
std::vector<cpu_set_t>
cpuSlots(int threads)
{
    cpu_set_t all;
    CPU_ZERO(&all);
    if (sched_getaffinity(0, sizeof all, &all) != 0 || threads != 1)
        return {all};
    std::vector<cpu_set_t> slots;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &all)) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(c, &one);
            slots.push_back(one);
        }
    }
    return slots.empty() ? std::vector<cpu_set_t>{all} : slots;
}

void
pin(const cpu_set_t &cpus)
{
    sched_setaffinity(0, sizeof cpus, &cpus); // best effort
}

void
recordFailure(RunData &d, int k, const std::string &why)
{
    if (d.failed++ < 5)
        std::fprintf(stderr, "vbench: op %d failed: %s\n", k, why.c_str());
}

/** Repeat op @p k on the workload's twin; returns its time in ms. */
double
runTwinOp(Workload &w, Tracer &tr, int k, RunData &d)
{
    std::string why;
    bool ok = false;
    d.attempted++;
    const std::int64_t t0 = nowNs();
    try {
        ok = w.runTwinOp(tr, why);
    } catch (const std::exception &e) {
        why = e.what();
    }
    const double ms = static_cast<double>(nowNs() - t0) * 1e-6;
    if (!ok)
        recordFailure(d, k, why);
    return ms;
}

bool
runOp(Workload &w, Tracer &tr, int k, Counts &c, RunData &d)
{
    std::string why;
    bool ok = false;
    d.attempted++;
    try {
        ok = w.runOp(k, tr, c, why);
    } catch (const std::exception &e) {
        why = e.what();
    }
    if (!ok)
        recordFailure(d, k, why);
    return ok;
}

void
runWorkload(const Options &o, Tracer &tr, RunData &d)
{
    // Set-up is everything before the first timed op: building the
    // workload and its warm-up ops.  It runs kSetups times; the last
    // instance is the one timed, and its warm-up counters are the
    // run's deterministic counter set.
    d.slots = cpuSlots(hostThreads(o.workload));
    d.setupS.resize(d.slots.size());
    std::unique_ptr<Workload> w;
    int k = 0;
    for (int r = 0; r < kSetups; ++r) {
        w.reset(); // tear down the previous set-up outside the timing
        const std::size_t slot = static_cast<std::size_t>(r) % d.slots.size();
        pin(d.slots[slot]);
        const bool last = r == kSetups - 1;
        tr.setEnabled(o.trace && last);
        tr.setOp(-1);
        d.warm = Counts{};
        const std::int64_t t0 = nowNs();
        {
            auto s = tr.span("setup");
            w = makeWorkload(o.workload, o.seed, tr, o.trace && last);
        }
        tr.setEnabled(false);
        for (k = 0; k < w->warmupOps(); ++k) {
            Counts c;
            runOp(*w, tr, k, c, d);
            d.warm += c;
            if (w->hasTwin())
                runTwinOp(*w, tr, k, d);
        }
        d.setupS[slot].push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }

    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(o.seconds * 1e9);
    const long min_ops = kMinOpsPerSlot * static_cast<long>(d.slots.size());
    for (long n = 0; n < min_ops || nowNs() < deadline; ++n, ++k) {
        // Traced runs alternate traced and untraced ops, so the
        // tracing overhead is measured on the same host conditions.
        const bool traced = o.trace && n % 2 == 0;
        const std::size_t slot =
            static_cast<std::size_t>(n / 2) % d.slots.size();
        pin(d.slots[slot]);
        tr.setEnabled(traced);
        tr.setOp(k);
        Counts c;
        const std::int64_t t0 = nowNs();
        {
            auto s = tr.span("op");
            runOp(*w, tr, k, c, d);
        }
        const double ms = static_cast<double>(nowNs() - t0) * 1e-6;
        if (traced)
            d.tracedOpMs.push_back(ms);
        else
            d.ops.push_back(
                {ms, static_cast<double>(c.instructions) / ms * 1e-3,
                 static_cast<double>(c.vms) / ms * 1e3, slot,
                 static_cast<std::size_t>(k % w->variants())});
        d.timedOps++;
        d.timed += c;
        if (traced) {
            d.tracedOps++;
            d.traced += c;
        }
        if (w->hasTwin())
            d.twinMs.push_back(runTwinOp(*w, tr, k, d));
    }

    tr.setEnabled(o.trace);
    tr.setOp(-1);
    {
        auto s = tr.span("finish");
        w->finish(tr);
    }
    w.reset();
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/**
 * Median of @p field over the ops of @p slot, taken per input variant
 * and averaged over the variants, so the variant mix of a run cannot
 * move it.  0 when the slot ran no op.
 */
double
variantMedian(const RunData &d, std::size_t slot,
              double OpSample::*field)
{
    std::map<std::size_t, std::vector<double>> by_variant;
    for (const OpSample &s : d.ops) {
        if (s.slot == slot)
            by_variant[s.variant].push_back(s.*field);
    }
    double sum = 0;
    for (const auto &[variant, values] : by_variant)
        sum += median(values);
    return ratio(sum, static_cast<double>(by_variant.size()));
}

std::vector<Metric>
endToEnd(const RunData &d)
{
    // Timings come from the CPU slot with the lowest median op time.
    std::size_t best = 0;
    double best_ms = 0;
    std::printf("# median op ms per CPU slot:");
    for (std::size_t i = 0; i < d.slots.size(); ++i) {
        const double m = variantMedian(d, i, &OpSample::ms);
        std::printf(" %.3f", m);
        if (m > 0 && (best_ms == 0 || m < best_ms)) {
            best = i;
            best_ms = m;
        }
    }
    std::vector<double> ms;
    for (const OpSample &s : d.ops) {
        if (s.slot == best)
            ms.push_back(s.ms);
    }
    double pct = 0;
    const double tail_ms = tail(ms, pct);
    std::printf("\n# timings from slot %zu; op_ms.tail is p%.2f of %zu ops\n",
                best, pct, ms.size());
    // Set-up time: the median of the set-ups on the quietest CPU slot.
    double setup_s = 0;
    for (const std::vector<double> &slot : d.setupS) {
        if (!slot.empty() && (setup_s == 0 || median(slot) < setup_s))
            setup_s = median(slot);
    }
    return {
        {"setup_s", setup_s, "s"},
        {"guest_mips", variantMedian(d, best, &OpSample::mips), "Minstr/s"},
        {"vms_per_s", variantMedian(d, best, &OpSample::vmsPerS), "1/s"},
        {"op_ms.p50", variantMedian(d, best, &OpSample::ms), "ms"},
        {"op_ms.tail", tail_ms, "ms"},
        {"peak_rss_mib", peakRssMib(), "MiB"},
        {"sim_cpi",
         ratio(static_cast<double>(d.warm.busy_cycles),
               static_cast<double>(d.warm.instructions)),
         "cycles/instr"},
    };
}

/** Per-root sums of one span name's total and self time (ns). */
struct SpanSums
{
    std::map<int, double> total;
    std::map<int, double> self;
};

std::map<std::string, SpanSums>
sumSpans(const std::vector<Span> &spans)
{
    const std::size_t n = spans.size();
    std::vector<int> root(n);
    std::vector<double> child(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const int p = spans[i].parent;
        root[i] = p < 0 ? static_cast<int>(i)
                        : root[static_cast<std::size_t>(p)];
        if (p >= 0)
            child[static_cast<std::size_t>(p)] +=
                static_cast<double>(spans[i].end - spans[i].start);
    }
    std::map<std::string, SpanSums> sums;
    for (std::size_t i = 0; i < n; ++i) {
        const double dur = static_cast<double>(spans[i].end - spans[i].start);
        SpanSums &s = sums[spans[i].name];
        s.total[root[i]] += dur;
        s.self[root[i]] += dur - child[i];
    }
    return sums;
}

std::vector<Metric>
perLayer(const RunData &d, const std::vector<Span> &spans)
{
    std::map<std::string, double> v;
    const auto sums = sumSpans(spans);
    auto root_ns = [&](int r) {
        const Span &s = spans[static_cast<std::size_t>(r)];
        return static_cast<double>(s.end - s.start);
    };
    auto per_root_ms = [](const std::map<int, double> &m) {
        std::vector<double> ms;
        for (const auto &[root, ns] : m)
            ms.push_back(ns * 1e-6);
        return median(ms);
    };
    for (const char *name : kSpanNames) {
        const auto it = sums.find(name);
        if (it == sums.end())
            continue;
        double in_roots = 0, span_total = 0;
        for (const auto &[root, ns] : it->second.total) {
            in_roots += root_ns(root);
            span_total += ns;
        }
        v[std::string(name) + ".ms"] = per_root_ms(it->second.total);
        v[std::string(name) + ".self_ms"] = per_root_ms(it->second.self);
        v[std::string(name) + ".share"] = ratio(span_total, in_roots);
    }

    std::vector<double> untraced_ms;
    for (const OpSample &s : d.ops)
        untraced_ms.push_back(s.ms);
    v["trace.op_ms.p50"] = median(d.tracedOpMs);
    v["trace.untraced_op_ms.p50"] = median(untraced_ms);
    v["trace.overhead"] =
        ratio(median(d.tracedOpMs), median(untraced_ms)) - 1;

    const Counts &t = d.timed;
    const double ops = static_cast<double>(d.timedOps);
    const double instr = static_cast<double>(t.instructions);
    const double busy = static_cast<double>(t.busy_cycles);
    const double vms = static_cast<double>(t.vms);
    auto per_op = [&](std::uint64_t x) {
        return ratio(static_cast<double>(x), ops);
    };
    auto per_kinstr = [&](std::uint64_t x) {
        return ratio(static_cast<double>(x) * 1000, instr);
    };
    v["memory.tlb_miss_ratio"] =
        ratio(static_cast<double>(t.tlb_misses),
              static_cast<double>(t.tlb_hits + t.tlb_misses));
    v["memory.tlb_context_switches_per_kinstr"] =
        per_kinstr(t.tlb_context_switches);
    v["cpu.threaded_share"] =
        ratio(static_cast<double>(t.threaded_instructions), instr);
    v["cpu.block_share"] =
        ratio(static_cast<double>(t.block_instructions), instr);
    v["cpu.block_builds"] = per_op(t.block_builds);
    v["cpu.threaded_compiles"] = per_op(t.threaded_compiles);
    v["cpu.threaded_bails"] = per_op(t.threaded_bails);
    v["cpu.trace_links_taken_per_kinstr"] = per_kinstr(t.trace_links_taken);

    // Host ns per guest instruction inside the run call: hv.run for
    // paper-mix, fleet.run for the fleets.
    const char *run_span = sums.count("vmm.run") ? "vmm.run" : "vmm.fleet.run";
    if (const auto it = sums.find(run_span); it != sums.end()) {
        double ns = 0;
        for (const auto &[root, x] : it->second.total) {
            if (spans[static_cast<std::size_t>(root)].op >= 0)
                ns += x;
        }
        v["vmm.run.ns_per_instr"] =
            ratio(ns, static_cast<double>(d.traced.instructions));
    }

    v["vmm.emulate.exits_per_kinstr"] = per_kinstr(t.exits);
    v["vmm.emulate.exits.rei"] = per_op(t.exits_rei);
    v["vmm.emulate.exits.mtpr"] = per_op(t.exits_mtpr);
    v["vmm.emulate.exits.mfpr"] = per_op(t.exits_mfpr);
    v["vmm.emulate.exits.chmk"] = per_op(t.exits_chmk);
    v["vmm.emulate.exits.chme"] = per_op(t.exits_chme);
    v["vmm.emulate.exits.chms"] = per_op(t.exits_chms);
    v["vmm.emulate.exits.ldpctx"] = per_op(t.exits_ldpctx);
    v["vmm.emulate.exits.svpctx"] = per_op(t.exits_svpctx);
    v["vmm.emulate.sim_cycle_share"] =
        ratio(static_cast<double>(t.vmm_emulate_cycles), busy);
    v["vmm.memory.shadow_fills_per_vm"] =
        ratio(static_cast<double>(t.shadow_fills), vms);
    v["vmm.memory.shadow_cache_hit_ratio"] =
        ratio(static_cast<double>(t.shadow_cache_hits),
              static_cast<double>(t.shadow_cache_hits +
                                  t.shadow_cache_misses));
    v["vmm.memory.sim_cycle_share"] =
        ratio(static_cast<double>(t.vmm_shadow_cycles), busy);
    v["vmm.services.kcall_ios"] = per_op(t.kcall_ios);
    v["vmm.services.disk_batches"] = per_op(t.disk_batches);
    v["vmm.services.blocks_per_batch"] =
        ratio(static_cast<double>(t.batched_blocks),
              static_cast<double>(t.disk_batches));
    v["vmm.services.coalesced_console_chars"] = per_op(t.coalesced_chars);
    v["vmm.services.sim_cycle_share"] =
        ratio(static_cast<double>(t.vmm_io_cycles), busy);

    if (const auto it = sums.find("vmm.golden.fork"); it != sums.end()) {
        const double forked_per_op = ratio(
            static_cast<double>(d.traced.forked),
            static_cast<double>(d.tracedOps));
        v["vmm.golden.fork.us_per_vm"] =
            ratio(per_root_ms(it->second.total) * 1e3, forked_per_op);
    }
    v["memory.cow.pages_touched_per_vm"] =
        ratio(static_cast<double>(t.cow_pages_touched), vms);
    v["memory.cow.private_kib_per_vm"] =
        ratio(static_cast<double>(t.cow_private_bytes) / 1024, vms);
    v["vmm.fleet.rounds"] = per_op(t.rounds);
    v["vmm.fleet.microreboots"] = per_op(t.microreboots);
    v["vmm.fleet.quarantines"] = per_op(t.quarantines);
    v["vmm.fleet.pages_recopied_per_reboot"] =
        ratio(static_cast<double>(t.pages_recopied),
              static_cast<double>(t.microreboots));
    if (!d.twinMs.empty()) {
        std::vector<double> main_ms = untraced_ms;
        main_ms.insert(main_ms.end(), d.tracedOpMs.begin(),
                       d.tracedOpMs.end());
        v["vmm.fleet.speedup"] = ratio(median(d.twinMs), median(main_ms));
    }

    std::vector<Metric> out;
    for (const LayerMetric &m : layerMetrics()) {
        const auto it = v.find(m.name);
        out.push_back({m.name, it == v.end() ? 0.0 : it->second, m.unit});
    }
    return out;
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "vbench: cannot write %s\n", path.c_str());
        return;
    }
    const std::int64_t t0 = spans.empty() ? 0 : spans.front().start;
    for (const Span &s : spans) {
        std::fprintf(f,
                     "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": "
                     "%lld, \"parent\": %d, \"op\": %d}\n",
                     s.name, static_cast<long long>(s.start - t0),
                     static_cast<long long>(s.end - t0), s.parent, s.op);
    }
    std::fclose(f);
}

void
printResult(const RunData &d, const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                d.failed == 0 ? "true" : "false", d.attempted, d.failed);
    const char *sep = "";
    for (const Metric &m : metrics) {
        std::printf("%s\"%s\": {\"value\": %.15g, \"unit\": \"%s\"}", sep,
                    m.name.c_str(), m.value, m.unit);
        sep = ", ";
    }
    std::printf("}}\n");
}

int
benchmark(const Options &o)
{
    std::printf("# vbench workload=%s seed=%llu seconds=%g trace=%d\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0);
    Tracer tr;
    RunData d;
    try {
        runWorkload(o, tr, d);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "vbench: set-up failed: %s\n", e.what());
        return 1;
    }
    // Deterministic counters of the warm-up ops: two runs of one seed
    // must print this line identically, on any host.
    std::printf("counters %s\n", d.warm.json().c_str());
    if (!o.spans.empty())
        writeSpans(o.spans, tr.spans());
    printResult(d, o.trace ? perLayer(d, tr.spans()) : endToEnd(d));
    return 0;
}

/**
 * Counter determinism and seed plumbing, per workload: two set-ups of
 * one seed must give identical warm-up counters and inputs, and a
 * second seed must give different inputs.
 */
int
selfTest()
{
    struct Tiny
    {
        bool ok;
        std::string counters;
        std::uint64_t digest;
    };
    auto tiny = [](const std::string &name, std::uint64_t seed) {
        Tracer tr;
        RunData d;
        std::unique_ptr<Workload> w = makeWorkload(name, seed, tr, false);
        for (int k = 0; k < w->warmupOps(); ++k) {
            Counts c;
            runOp(*w, tr, k, c, d);
            d.warm += c;
        }
        return Tiny{d.failed == 0, d.warm.json(), w->inputDigest()};
    };
    int failures = 0;
    for (const char *name : {"paper-mix", "compute-fleet", "fork-churn"}) {
        const Tiny a = tiny(name, 1), b = tiny(name, 1), c = tiny(name, 2);
        const char *problem =
            !(a.ok && b.ok && c.ok)     ? "an op failed its checks"
            : a.counters != b.counters  ? "counters differ for one seed"
            : a.digest != b.digest      ? "inputs differ for one seed"
            : a.digest == c.digest      ? "seed does not reach the inputs"
                                        : nullptr;
        std::printf("self-test %-13s %s%s\n", name, problem ? "FAIL: " : "ok",
                    problem ? problem : "");
        failures += problem != nullptr;
    }
    return failures == 0 ? 0 : 1;
}

void
listMetrics()
{
    for (const LayerMetric &m : layerMetrics())
        std::printf("%s %s %s\n", m.name.c_str(), m.unit, m.better);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: vbench_run --workload paper-mix|compute-fleet|"
                 "fork-churn --seed N --seconds S --trace 0|1 "
                 "[--spans FILE]\n"
                 "       vbench_run --self-test | --list-metrics\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    // Measure the library's defaults: no fault plan, tier override or
    // reference path from the environment reaches the machines.
    std::vector<std::string> knobs;
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "VVAX_", 5) == 0) {
            const char *eq = std::strchr(*e, '=');
            knobs.emplace_back(*e, eq ? static_cast<std::size_t>(eq - *e)
                                      : std::strlen(*e));
        }
    }
    for (const std::string &k : knobs)
        unsetenv(k.c_str());

    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--self-test")
            return selfTest();
        if (arg == "--list-metrics") {
            listMetrics();
            return 0;
        }
        if (i + 1 >= argc)
            return usage();
        const char *val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            o.workload = val;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(val, &end, 10);
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(val, &end);
        } else if (arg == "--trace") {
            o.trace = std::strcmp(val, "1") == 0;
            if (!o.trace && std::strcmp(val, "0") != 0)
                return usage();
        } else if (arg == "--spans") {
            o.spans = val;
        } else {
            return usage();
        }
        if (end != nullptr && (*end != '\0' || end == val))
            return usage();
    }
    if (!knownWorkload(o.workload) || !(o.seconds > 0))
        return usage();
    return benchmark(o);
}
