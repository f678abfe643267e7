/**
 * @file
 * Host-time A/B ratios of four simulator mechanisms, each against the
 * baseline it exists to beat:
 *
 *   threaded/fast     superblocks through the threaded driver vs the
 *                     Fast tier's per-instruction dispatch (>= 1.2x)
 *   linked/unlinked   trace links on vs off (>= 0.85x)
 *   fleet 4w/1w       a 4-VM spin-loop fleet on 4 workers vs 1 worker
 *                     (>= 2.0x with 4 or more host CPUs; otherwise a
 *                     pool-overhead floor of >= 0.70x)
 *   fork/boot         256 golden-image forks vs a cold boot to the seal
 *                     point (>= 10x under kernel CoW; informational on
 *                     the eager-copy fallback)
 *
 * The guest work of each arm is architecturally fixed; only host time
 * varies.  Both arms of a pair run in this one process, alternating
 * over several rounds (the arm that goes first alternates too), so
 * host load lands on both alike.  For each pair the program prints
 * both median rates, the ratio of the medians, its floor and the
 * round-to-round spread (the lowest and highest per-round ratio).
 * Exits 1 if any ratio misses its floor.  Takes no arguments; runs in
 * about 15 s.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "vasm/code_builder.h"
#include "vmm/fleet.h"
#include "vmm/golden_image.h"

using namespace vvax;
using namespace vvax::bench;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRounds = 7;
constexpr double kMinSampleSeconds = 0.2;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Work done by one call of an arm, and the host time it was timed
 *  for (an arm keeps setup and teardown outside its own timer). */
struct Work
{
    double items = 0;
    double seconds = 0;
};

using Arm = std::function<Work()>;

/** Items per second over repeated calls of @p arm totalling at least
 *  kMinSampleSeconds of timed work. */
double
sampleRate(const Arm &arm)
{
    Work total;
    while (total.seconds < kMinSampleSeconds) {
        const Work w = arm();
        total.items += w.items;
        total.seconds += w.seconds;
    }
    return total.items / total.seconds;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/**
 * Run one A/B pair and print its line.  @p gated false reports the
 * ratio without judging it.  Returns false on a miss.
 */
bool
comparePair(const char *name, const char *unit, const Arm &a,
            const Arm &b, double floor, bool gated = true)
{
    sampleRate(a); // warm-up: block caches, links, page faults
    sampleRate(b);
    std::vector<double> ra, rb, ratios;
    for (int r = 0; r < kRounds; ++r) {
        const bool b_first = r % 2 == 1;
        const double early_b = b_first ? sampleRate(b) : 0;
        const double x = sampleRate(a);
        const double y = b_first ? early_b : sampleRate(b);
        ra.push_back(x);
        rb.push_back(y);
        ratios.push_back(x / y);
    }
    const double ma = median(ra), mb = median(rb), ratio = ma / mb;
    const bool ok = !gated || ratio >= floor;
    const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());
    std::printf("%-16s %12.4g %12.4g %-12s %6.2fx %6.2fx  %5.2f-%5.2fx  %s\n",
                name, ma, mb, unit, ratio, floor, *lo, *hi,
                !gated ? "info" : ok ? "ok" : "MISS");
    return ok;
}

/** Instructions retired by one timed pass of @p m over its program at
 *  0x200.  The loop reloads its own counter, so a re-run only needs PC
 *  and SP restored. */
Work
rerun(RealMachine &m)
{
    m.cpu().clearHalt();
    m.cpu().setPc(0x200);
    m.cpu().setReg(SP, 0x1800);
    const std::uint64_t before = m.stats().instructions;
    const Clock::time_point t0 = Clock::now();
    m.run(1000000000);
    return {static_cast<double>(m.stats().instructions - before),
            secondsSince(t0)};
}

/** Branch-dense loop: every couple of instructions ends a superblock
 *  with a direct branch, so dispatch overhead dominates the run. */
std::unique_ptr<RealMachine>
branchLoopMachine(ExecTier tier, bool linked)
{
    CodeBuilder b(0x200);
    Label loop = b.newLabel(), b1 = b.newLabel(), b2 = b.newLabel();
    b.movl(Op::imm(20000), Op::reg(R6));
    b.bind(loop);
    b.addl2(Op::lit(1), Op::reg(R0));
    b.brb(b1);
    b.bind(b1);
    b.xorl2(Op::reg(R0), Op::reg(R1));
    b.brb(b2);
    b.bind(b2);
    b.sobgtr(Op::reg(R6), loop);
    b.halt();
    auto m = std::make_unique<RealMachine>();
    m->setFaultPlan(nullptr);
    m->cpu().setExecTier(tier);
    m->cpu().setTraceLinksEnabled(linked);
    auto image = b.finish();
    m->loadImage(b.origin(), image);
    m->cpu().psl().setIpl(31);
    return m;
}

bool
branchLoopPair(const char *name, ExecTier tier_a, bool linked_a,
               ExecTier tier_b, bool linked_b, double floor)
{
    auto ma = branchLoopMachine(tier_a, linked_a);
    auto mb = branchLoopMachine(tier_b, linked_b);
    return comparePair(
        name, "instr/s", [&] { return rerun(*ma); },
        [&] { return rerun(*mb); }, floor);
}

/** Four endless spin-loop VMs on @p workers worker threads. */
std::unique_ptr<HypervisorFleet>
spinFleet(int workers)
{
    FleetConfig fc;
    fc.workers = workers;
    fc.machine.ramBytes = 16 * 1024 * 1024;
    fc.machine.level = MicrocodeLevel::Modified;
    auto fleet = std::make_unique<HypervisorFleet>(fc);
    for (int i = 0; i < 4; ++i) {
        const int idx = fleet->addVm(VmConfig{});
        fleet->setFaultPlan(idx, nullptr);
        CodeBuilder b(0x200);
        b.clrl(Op::reg(R2));
        Label loop = b.bindHere();
        b.incl(Op::reg(R2));
        b.addl2(Op::reg(R2), Op::reg(R3));
        b.brb(loop);
        auto image = b.finish();
        fleet->loadVmImage(idx, b.origin(), image);
        fleet->startVm(idx, b.origin());
    }
    return fleet;
}

Work
fleetPass(HypervisorFleet &fleet)
{
    const std::uint64_t before = fleet.totalMachineStats().instructions;
    const Clock::time_point t0 = Clock::now();
    fleet.run(200000); // instructions per VM
    const double s = secondsSince(t0);
    return {static_cast<double>(fleet.totalMachineStats().instructions) -
                static_cast<double>(before),
            s};
}

/** Build the machine stack and boot the golden MiniVMS mix to its seal
 *  point: mid-flight, kernel up, disk I/O still to come. */
struct BootedGolden
{
    std::unique_ptr<RealMachine> machine;
    std::unique_ptr<Hypervisor> hv;
    VirtualMachine *vm = nullptr;
};

BootedGolden
coldBootToSealPoint()
{
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    HypervisorConfig hc;
    hc.tickCycles = 2000;
    hc.ticksPerQuantum = 2;
    MiniVmsConfig cfg;
    cfg.numProcesses = 2;
    cfg.workloads = {Workload::Transaction, Workload::Edit};
    cfg.iterations = 6;
    cfg.dataPagesPerProcess = 8;

    BootedGolden b;
    b.machine = std::make_unique<RealMachine>(mc);
    b.machine->setFaultPlan(nullptr);
    b.hv = std::make_unique<Hypervisor>(*b.machine, hc);
    VmConfig vc;
    vc.memBytes = cfg.memBytes;
    b.vm = &b.hv->createVm(vc);
    const MiniVmsImage img = buildMiniVms(cfg);
    b.hv->loadVmImage(*b.vm, 0, img.image);
    b.hv->startVm(*b.vm, img.entry);
    b.hv->run(2000);
    return b;
}

} // namespace

int
main()
{
    const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
    std::printf("%-16s %12s %12s %-12s %7s %7s  %-12s  %s\n", "pair",
                "A median", "B median", "unit", "A/B", "floor",
                "rounds", "result");
    bool ok = true;

    ok &= branchLoopPair("threaded/fast", ExecTier::Threaded, true,
                         ExecTier::Fast, true, 1.2);
    ok &= branchLoopPair("linked/unlinked", ExecTier::Threaded, true,
                         ExecTier::Threaded, false, 0.85);

    {
        // Real parallel speedup needs the cores to show it; on a
        // smaller host the pair only guards the pool's overhead.
        auto four = spinFleet(4), one = spinFleet(1);
        ok &= comparePair(
            "fleet 4w/1w", "instr/s", [&] { return fleetPass(*four); },
            [&] { return fleetPass(*one); }, cpus >= 4 ? 2.0 : 0.70);
    }

    {
        const GoldenImage gold = [] {
            BootedGolden src = coldBootToSealPoint();
            return GoldenImage::seal(*src.hv, *src.vm);
        }();
        // Teardown of the forks and of the booted stack happens when
        // each arm returns, after its timer stopped.
        const Arm forks = [&] {
            std::vector<GoldenFork> fleet;
            fleet.reserve(256);
            const Clock::time_point t0 = Clock::now();
            for (int i = 0; i < 256; ++i)
                fleet.push_back(gold.fork(i));
            return Work{256, secondsSince(t0)};
        };
        const Arm boot = [] {
            const Clock::time_point t0 = Clock::now();
            const BootedGolden b = coldBootToSealPoint();
            return Work{1, secondsSince(t0)};
        };
        // On the eager-copy fallback every fork copies all of RAM.
        ok &= comparePair("fork/boot", "VMs/s", forks, boot, 10.0,
                          gold.kernelBacked());
    }

    std::printf("%u host CPUs: %s\n", cpus,
                ok ? "every ratio met its floor" : "a ratio missed its floor");
    return ok ? 0 : 1;
}
