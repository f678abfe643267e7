#include "workloads.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <span>
#include <utility>
#include <vector>

#include "core/machine.h"
#include "guest/minivms.h"
#include "vasm/code_builder.h"
#include "vmm/fleet.h"
#include "vmm/golden_image.h"
#include "vmm/hypervisor.h"

namespace vbench {

using namespace vvax;

Counts &
Counts::operator+=(const Counts &other)
{
#define VBENCH_ADD(name) name += other.name;
    VBENCH_ARCH_COUNTS(VBENCH_ADD)
    VBENCH_HOST_COUNTS(VBENCH_ADD)
#undef VBENCH_ADD
    return *this;
}

bool
Counts::sameArch(const Counts &other) const
{
#define VBENCH_SAME(name)                                              \
    if (name != other.name)                                            \
        return false;
    VBENCH_ARCH_COUNTS(VBENCH_SAME)
#undef VBENCH_SAME
    return true;
}

std::string
Counts::json() const
{
    std::string out = "{\"arch\": {";
    const char *sep = "";
    auto field = [&](const char *name, std::uint64_t value) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "%s\"%s\": %llu", sep, name,
                      static_cast<unsigned long long>(value));
        out += buf;
        sep = ", ";
    };
#define VBENCH_FIELD(name) field(#name, name);
    VBENCH_ARCH_COUNTS(VBENCH_FIELD)
    out += "}, \"host\": {";
    sep = "";
    VBENCH_HOST_COUNTS(VBENCH_FIELD)
#undef VBENCH_FIELD
    return out + "}}";
}

namespace {

/** splitmix64: the only source of seed-dependent choices. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::uint64_t state_;
};

class Digest
{
  public:
    void
    add(std::span<const Byte> bytes)
    {
        for (const Byte b : bytes) {
            h_ ^= b;
            h_ *= 0x100000001B3ull;
        }
    }
    void
    add(std::uint64_t v)
    {
        Byte raw[8];
        for (int i = 0; i < 8; ++i)
            raw[i] = static_cast<Byte>(v >> (8 * i));
        add(std::span<const Byte>(raw, 8));
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xCBF29CE484222325ull;
};

Counts
fromStats(const Stats &s, const VmStats &v)
{
    Counts c;
    c.instructions = s.instructions;
    c.busy_cycles = s.busyCycles();
    c.vmm_emulate_cycles =
        s.cycles[static_cast<int>(CycleCategory::VmmEmulation)];
    c.vmm_shadow_cycles = s.cycles[static_cast<int>(CycleCategory::VmmShadow)];
    c.vmm_io_cycles = s.cycles[static_cast<int>(CycleCategory::VmmIo)];
    c.exits = s.vmEmulationTraps;
    c.exits_rei = s.vmTrapOpcodes[0x02];
    c.exits_ldpctx = s.vmTrapOpcodes[0x06];
    c.exits_svpctx = s.vmTrapOpcodes[0x07];
    c.exits_chmk = s.vmTrapOpcodes[0xBC];
    c.exits_chme = s.vmTrapOpcodes[0xBD];
    c.exits_chms = s.vmTrapOpcodes[0xBE];
    c.exits_mtpr = s.vmTrapOpcodes[0xDA];
    c.exits_mfpr = s.vmTrapOpcodes[0xDB];
    c.shadow_fills = v.shadowFills;
    c.shadow_cache_hits = v.shadowCacheHits;
    c.shadow_cache_misses = v.shadowCacheMisses;
    c.kcall_ios = v.kcallIos;
    c.disk_batches = v.diskKcallBatches;
    c.batched_blocks = v.batchedDiskBlocks;
    c.coalesced_chars = v.coalescedConsoleChars;
    c.tlb_hits = s.tlbHits;
    c.tlb_misses = s.tlbMisses;
    c.tlb_context_switches = s.tlbContextSwitches;
    for (const std::uint64_t n : s.faultsInjected)
        c.faults_injected += n;
    c.block_instructions = s.blockInstructions;
    c.threaded_instructions = s.threadedInstructions;
    c.block_builds = s.blockBuilds;
    c.threaded_compiles = s.threadedCompiles;
    c.threaded_bails = s.threadedBails;
    c.trace_links_taken = s.traceLinksTaken;
    return c;
}

/** a - b, field by field (cumulative fleet counters -> one op). */
Counts
minus(const Counts &a, const Counts &b)
{
    Counts d;
#define VBENCH_SUB(name) d.name = a.name - b.name;
    VBENCH_ARCH_COUNTS(VBENCH_SUB)
    VBENCH_HOST_COUNTS(VBENCH_SUB)
#undef VBENCH_SUB
    return d;
}

bool
fail(std::string &why, const char *what)
{
    why = what;
    return false;
}

/** The 6 distinct orders of the Section 7.3 mix's two Edit and two
 *  Transaction processes, in seeded order. */
std::vector<std::vector<vvax::Workload>>
paperMixOrders(Rng &rng)
{
    std::vector<vvax::Workload> order = {
        vvax::Workload::Edit, vvax::Workload::Edit,
        vvax::Workload::Transaction, vvax::Workload::Transaction};
    std::vector<std::vector<vvax::Workload>> orders;
    do {
        orders.push_back(order);
    } while (std::next_permutation(order.begin(), order.end()));
    rng.shuffle(orders);
    return orders;
}

MiniVmsConfig
paperMixConfig(const std::vector<vvax::Workload> &order, Longword iterations)
{
    MiniVmsConfig cfg;
    cfg.numProcesses = 4;
    cfg.workloads = order;
    cfg.iterations = iterations;
    cfg.dataPagesPerProcess = 16;
    cfg.quantumCycles = 12000;
    return cfg;
}

MachineConfig
vmHostConfig(const MiniVmsConfig &cfg)
{
    MachineConfig mc;
    mc.ramBytes = 4 * cfg.memBytes + 12 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    return mc;
}

/** One machine and hypervisor running one MiniVMS VM. */
struct SingleVm
{
    std::unique_ptr<RealMachine> machine;
    std::unique_ptr<Hypervisor> hv;
    VirtualMachine *vm = nullptr;
};

/** Construct the machine stack and start @p img in its VM. */
SingleVm
startSingleVm(Tracer &tr, const MiniVmsConfig &cfg, const MiniVmsImage &img)
{
    SingleVm s;
    {
        auto span = tr.span("core.machine_new");
        s.machine = std::make_unique<RealMachine>(vmHostConfig(cfg));
    }
    s.machine->setFaultPlan(nullptr);
    auto span = tr.span("vmm.create");
    s.hv = std::make_unique<Hypervisor>(*s.machine);
    VmConfig vc;
    vc.memBytes = cfg.memBytes;
    s.vm = &s.hv->createVm(vc);
    s.hv->loadVmImage(*s.vm, 0, img.image);
    s.hv->startVm(*s.vm, img.entry);
    return s;
}

MiniVmsImage
buildImage(Tracer &tr, const MiniVmsConfig &cfg, Digest &digest)
{
    MiniVmsImage img;
    {
        auto s = tr.span("guest.build");
        img = buildMiniVms(cfg);
    }
    digest.add(img.image);
    digest.add(cfg.quantumCycles);
    return img;
}

// ---------------------------------------------------------------------------
// paper-mix: one VM boots the mix to completion per op.
// ---------------------------------------------------------------------------

class PaperMix : public Workload
{
  public:
    /** Per-process iterations: large enough that machine construction
     *  is a small share of the op. */
    static constexpr Longword kIterations = 1024;
    /** Every process order once, so each run does the same work. */
    static constexpr int kVariants = 6;
    static constexpr std::uint64_t kRunCap = 400000000;

    PaperMix(std::uint64_t seed, Tracer &tr)
    {
        Rng rng(seed);
        for (const auto &order : paperMixOrders(rng)) {
            Variant var;
            var.cfg = paperMixConfig(order, kIterations);
            var.img = buildImage(tr, var.cfg, digest_);
            variants_.push_back(std::move(var));
        }
    }

    int warmupOps() const override { return kVariants; }
    int variants() const override { return kVariants; }
    std::uint64_t inputDigest() const override { return digest_.value(); }

    bool
    runOp(int k, Tracer &tr, Counts &out, std::string &why) override
    {
        Variant &var = variants_[static_cast<std::size_t>(k % kVariants)];
        SingleVm x = startSingleVm(tr, var.cfg, var.img);
        {
            auto s = tr.span("vmm.run");
            x.hv->run(kRunCap);
        }
        const PhysAddr result = x.vm->vmPhysToReal(var.img.resultBase);
        const Longword magic = x.machine->memory().read32(result);
        const Longword completed = x.machine->memory().read32(result + 8);
        out = fromStats(x.machine->stats(), x.vm->stats);
        out.vms = 1;
        const bool halted = x.vm->haltReason == VmHaltReason::HaltInstruction;
        {
            auto s = tr.span("core.teardown");
            x.hv.reset();
            x.machine.reset();
        }
        if (magic != MiniVmsImage::kResultMagic)
            return fail(why, "result magic missing");
        if (completed != 4)
            return fail(why, "not all 4 processes completed");
        if (!halted)
            return fail(why, "guest did not halt cleanly");
        if (out.faults_injected != 0)
            return fail(why, "faults injected");
        // Every op of a variant is the same deterministic guest run.
        if (!var.ref) {
            var.ref = std::make_unique<Counts>(out);
        } else if (!var.ref->sameArch(out)) {
            return fail(why, "counters differ from the variant's first op");
        }
        return true;
    }

  private:
    struct Variant
    {
        MiniVmsConfig cfg;
        MiniVmsImage img;
        std::unique_ptr<Counts> ref;
    };
    std::vector<Variant> variants_;
    Digest digest_;
};

// ---------------------------------------------------------------------------
// compute-fleet: 4 resident Compute VMs, one fleet.run(budget) per op.
// ---------------------------------------------------------------------------

class ComputeFleet : public Workload
{
  public:
    static constexpr int kVms = 4;
    static constexpr int kWorkers = 2;
    static constexpr std::uint64_t kBootBudget = 300000;
    static constexpr std::uint64_t kBudget = 2000000; //!< per VM per op
    static constexpr std::uint64_t kSlice = 50000;

    ComputeFleet(std::uint64_t seed, Tracer &tr, bool with_twin)
    {
        Rng rng(seed);
        static constexpr std::array<Longword, 4> kQuanta = {10000, 12000,
                                                            14000, 16000};
        for (int i = 0; i < kVms; ++i) {
            MiniVmsConfig cfg;
            cfg.numProcesses = 2 + static_cast<int>(rng.below(3));
            cfg.workloads = {vvax::Workload::Compute};
            // Never finishes within a run: 2^31 loop trips per process.
            cfg.iterations = (1u << 25) - 1;
            cfg.dataPagesPerProcess = 16;
            cfg.quantumCycles = kQuanta[rng.below(kQuanta.size())];
            digest_.add(static_cast<std::uint64_t>(cfg.numProcesses));
            images_.push_back(buildImage(tr, cfg, digest_));
            configs_.push_back(cfg);
        }
        fleet_ = boot(tr, kWorkers);
        if (with_twin)
            twin_ = boot(tr, 1);
    }

    int warmupOps() const override { return 2; }
    std::uint64_t inputDigest() const override { return digest_.value(); }
    bool hasTwin() const override { return twin_ != nullptr; }

    bool
    runOp(int, Tracer &tr, Counts &out, std::string &why) override
    {
        const Counts before = totals(*fleet_);
        {
            auto s = tr.span("vmm.fleet.run");
            fleet_->run(kBudget);
        }
        out = minus(totals(*fleet_), before);
        out.vms = kVms;
        out.rounds = (kBudget + kSlice - 1) / kSlice;
        for (int i = 0; i < kVms; ++i) {
            if (fleet_->vm(i).halted())
                return fail(why, "fleet member halted");
        }
        if (out.instructions != kVms * kBudget)
            return fail(why, "fleet retired the wrong instruction count");
        if (out.faults_injected != 0)
            return fail(why, "faults injected");
        return true;
    }

    bool
    runTwinOp(Tracer &tr, std::string &why) override
    {
        {
            auto s = tr.span("vmm.fleet.twin_run");
            twin_->run(kBudget);
        }
        // Worker count must not change anything architectural.
        if (!(twin_->totalMachineStats() == fleet_->totalMachineStats()) ||
            !(twin_->totalVmStats() == fleet_->totalVmStats()))
            return fail(why, "1-worker twin diverged from 2-worker fleet");
        return true;
    }

    void
    finish(Tracer &tr) override
    {
        auto s = tr.span("vmm.fleet.teardown");
        fleet_.reset();
    }

  private:
    std::unique_ptr<HypervisorFleet>
    boot(Tracer &tr, int workers)
    {
        FleetConfig fc;
        fc.workers = workers;
        fc.sliceInstructions = kSlice;
        fc.machine = vmHostConfig(configs_.front());
        std::unique_ptr<HypervisorFleet> fleet;
        {
            auto s = tr.span("vmm.fleet.create");
            fleet = std::make_unique<HypervisorFleet>(fc);
            for (int i = 0; i < kVms; ++i) {
                VmConfig vc;
                vc.memBytes = configs_[static_cast<std::size_t>(i)].memBytes;
                const int idx = fleet->addVm(vc);
                fleet->setFaultPlan(idx, nullptr);
                const MiniVmsImage &img = images_[static_cast<std::size_t>(i)];
                fleet->loadVmImage(idx, 0, img.image);
                fleet->startVm(idx, img.entry);
            }
        }
        {
            auto s = tr.span("vmm.boot");
            fleet->run(kBootBudget);
        }
        return fleet;
    }

    static Counts
    totals(const HypervisorFleet &fleet)
    {
        return fromStats(fleet.totalMachineStats(), fleet.totalVmStats());
    }

    std::vector<MiniVmsConfig> configs_;
    std::vector<MiniVmsImage> images_;
    std::unique_ptr<HypervisorFleet> fleet_;
    std::unique_ptr<HypervisorFleet> twin_;
    Digest digest_;
};

// ---------------------------------------------------------------------------
// fork-churn: a supervised fleet of golden-image forks per op.
// ---------------------------------------------------------------------------

class ForkChurn : public Workload
{
  public:
    static constexpr int kForks = 32;
    static constexpr int kWorkers = 2;
    static constexpr std::uint64_t kBudget = 60000; //!< per fork per op
    static constexpr std::uint64_t kSlice = 5000;
    static constexpr int kRestartBudget = 3;
    /** Seal mid-flight: the kernel is up and the mix is running. */
    static constexpr std::uint64_t kSealPoint = 400000;

    ForkChurn(std::uint64_t seed, Tracer &tr)
    {
        Rng rng(seed);
        // Enough iterations that no fork finishes within its budget.
        const MiniVmsConfig cfg = paperMixConfig(paperMixOrders(rng)[0], 4096);
        const MiniVmsImage img = buildImage(tr, cfg, digest_);
        {
            SingleVm x = startSingleVm(tr, cfg, img);
            {
                auto s = tr.span("vmm.boot");
                x.hv->run(kSealPoint);
            }
            auto s = tr.span("vmm.golden.seal");
            gold_ = GoldenImage::seal(*x.hv, *x.vm);
        }
        crash_ = sealCrashImage(tr, gold_.machineConfig());
    }

    int warmupOps() const override { return 2; }
    std::uint64_t inputDigest() const override { return digest_.value(); }

    bool
    runOp(int, Tracer &tr, Counts &out, std::string &why) override
    {
        FleetConfig fc;
        fc.workers = kWorkers;
        fc.sliceInstructions = kSlice;
        fc.machine = gold_.machineConfig();
        fc.fleetSupervision.enabled = true;
        fc.fleetSupervision.restartBudget = kRestartBudget;
        fc.fleetSupervision.backoffSlices = 1;
        std::unique_ptr<HypervisorFleet> fleet;
        {
            auto s = tr.span("vmm.fleet.create");
            fleet = std::make_unique<HypervisorFleet>(fc);
        }
        {
            auto s = tr.span("vmm.golden.fork");
            fleet->addForkedMember(gold_, kForks);
            fleet->addForkedMember(crash_);
        }
        for (int i = 0; i < fleet->size(); ++i)
            fleet->setFaultPlan(i, nullptr);
        {
            auto s = tr.span("vmm.fleet.run");
            fleet->run(kBudget);
        }
        out = fromStats(fleet->totalMachineStats(), fleet->totalVmStats());
        out.vms = kForks;
        out.forked = kForks + 1;
        out.rounds = (kBudget + kSlice - 1) / kSlice;
        out.microreboots = fleet->microreboots();
        out.quarantines = fleet->quarantines();
        out.pages_recopied = fleet->pagesRecopied();
        bool budgets_met = true;
        for (int i = 0; i < kForks; ++i) {
            const CowStats cow = fleet->machine(i).memory().cowStats();
            out.cow_pages_touched += cow.pagesTouched;
            out.cow_private_bytes += cow.privateBytes;
            budgets_met = budgets_met && !fleet->vm(i).halted() &&
                          fleet->machine(i).stats().instructions == kBudget;
        }
        const bool quarantined =
            fleet->health(kForks) == MemberHealth::Quarantined;
        {
            auto s = tr.span("vmm.fleet.teardown");
            fleet.reset();
        }
        if (!budgets_met)
            return fail(why, "a fork did not run exactly its budget");
        if (out.microreboots != kRestartBudget || out.quarantines != 1 ||
            !quarantined)
            return fail(why, "wrong microreboot/quarantine count");
        if (out.faults_injected != 0)
            return fail(why, "faults injected");
        if (!ref_)
            ref_ = std::make_unique<Counts>(out);
        else if (!ref_->sameArch(out))
            return fail(why, "counters differ from the first op");
        return true;
    }

  private:
    /** A guest that reads past its memory within a few instructions:
     *  every fork of it crashes, so the supervisor microreboots it
     *  until the restart budget is spent. */
    static GoldenImage
    sealCrashImage(Tracer &tr, const MachineConfig &mc)
    {
        RealMachine m(mc);
        m.setFaultPlan(nullptr);
        Hypervisor hv(m);
        VmConfig vc;
        vc.memBytes = 256 * 1024;
        VirtualMachine &vm = hv.createVm(vc);
        CodeBuilder crash(0x200);
        crash.incl(Op::abs(0x3000));
        crash.movl(Op::abs(0x00F00000), Op::reg(R0));
        crash.halt();
        const std::vector<Byte> image = crash.finish();
        hv.loadVmImage(vm, 0x200, image);
        hv.startVm(vm, 0x200);
        auto s = tr.span("vmm.golden.seal");
        return GoldenImage::seal(hv, vm);
    }

    GoldenImage gold_;
    GoldenImage crash_;
    std::unique_ptr<Counts> ref_;
    Digest digest_;
};

} // namespace

bool
knownWorkload(const std::string &name)
{
    return name == "paper-mix" || name == "compute-fleet" ||
           name == "fork-churn";
}

int
hostThreads(const std::string &name)
{
    if (name == "compute-fleet")
        return ComputeFleet::kWorkers;
    if (name == "fork-churn")
        return ForkChurn::kWorkers;
    return 1;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, Tracer &tr,
             bool with_twin)
{
    if (name == "paper-mix")
        return std::make_unique<PaperMix>(seed, tr);
    if (name == "compute-fleet")
        return std::make_unique<ComputeFleet>(seed, tr, with_twin);
    if (name == "fork-churn")
        return std::make_unique<ForkChurn>(seed, tr);
    return nullptr;
}

} // namespace vbench
