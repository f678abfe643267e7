/**
 * @file
 * HypervisorFleet implementation: member construction and the drain
 * loop that runs members on the workers (threading model in fleet.h
 * and docs/ARCHITECTURE.md §7).
 */

#include "vmm/fleet.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <utility>

namespace vvax {

namespace {

/** Ceiling of a slot's doubling microreboot backoff, in slices. */
constexpr int kBackoffCapSlices = 8;
/** Heartbeat backstop: a live member that retires no instruction for
 *  this many consecutive slices is wedged, and is halted with
 *  VmmPolicy into the normal crash path. */
constexpr int kHeartbeatSlices = 4;

} // namespace

const char *
memberHealthName(MemberHealth health)
{
    switch (health) {
      case MemberHealth::Healthy:     return "healthy";
      case MemberHealth::Restarting:  return "restarting";
      case MemberHealth::Quarantined: return "quarantined";
    }
    return "?";
}

HypervisorFleet::HypervisorFleet(FleetConfig config)
    : config_(std::move(config))
{
}

HypervisorFleet::~HypervisorFleet() = default;

int
HypervisorFleet::addVm(const VmConfig &config)
{
    const int index = static_cast<int>(members_.size());
    auto member = std::make_unique<Member>();
    member->index = index;
    member->machine = std::make_unique<RealMachine>(config_.machine);
    member->hv = std::make_unique<Hypervisor>(*member->machine,
                                              config_.hypervisor);
    VmConfig vm_config = config;
    if (vm_config.faultVmId < 0) {
        // Every member's only VM has local id 0; the fleet index is
        // the identity plan `vm=` selectors address.
        vm_config.faultVmId = index;
    }
    member->faultVmId = vm_config.faultVmId;
    member->microrebootsLeft = config_.fleetSupervision.restartBudget;
    member->nextBackoff = std::max(1, config_.fleetSupervision.backoffSlices);
    member->hv->createVm(vm_config);
    members_.push_back(std::move(member));
    return index;
}

int
HypervisorFleet::addForkedMember(const GoldenImage &image)
{
    const int index = static_cast<int>(members_.size());
    auto member = std::make_unique<Member>();
    member->index = index;
    member->image = &image;
    member->microrebootsLeft = config_.fleetSupervision.restartBudget;
    member->nextBackoff = std::max(1, config_.fleetSupervision.backoffSlices);
    // The fork's fault identity is its lineage - the image's base
    // lineage plus its sibling ordinal among this fleet's forks of
    // that image - so the identity survives microreboots and does not
    // depend on what else joined the fleet first.
    int sibling = 0;
    bool seen = false;
    for (auto &entry : imageForks_) {
        if (entry.first == &image) {
            sibling = entry.second++;
            seen = true;
            break;
        }
    }
    if (!seen)
        imageForks_.emplace_back(&image, 1);
    member->faultVmId = image.lineage() + sibling;
    GoldenFork fork = image.fork(member->faultVmId);
    member->machine = std::move(fork.machine);
    member->hv = std::move(fork.hv);
    members_.push_back(std::move(member));
    return index;
}

int
HypervisorFleet::addForkedMember(const GoldenImage &image, int n)
{
    const int first = size();
    for (int i = 0; i < n; ++i)
        addForkedMember(image);
    return first;
}

void
HypervisorFleet::killMember(int i)
{
    Member &m = *members_[i];
    m.hv->suspendAll();
    m.hv->vm(0).haltReason = VmHaltReason::VmmPolicy;
    m.killed = true;
    m.done = true;
}

void
HypervisorFleet::loadVmImage(int i, PhysAddr vm_pa,
                             std::span<const Byte> image)
{
    members_[i]->hv->loadVmImage(vm(i), vm_pa, image);
}

void
HypervisorFleet::loadVmDisk(int i, Longword block,
                            std::span<const Byte> data)
{
    members_[i]->hv->loadVmDisk(vm(i), block, data);
}

void
HypervisorFleet::startVm(int i, VirtAddr start_pc)
{
    Member &m = *members_[i];
    m.hv->startVm(vm(i), start_pc);
    if (config_.fleetSupervision.enabled && m.image == nullptr) {
        // The member's microreboot image is the VM as it starts.  The
        // plan is detached so the seal draws no HostAlloc decision:
        // the member's injection schedule is the same as unsealed.
        FaultPlan *plan = m.machine->faultPlan();
        m.machine->setFaultPlan(nullptr);
        m.ownImage = std::make_unique<GoldenImage>(
            GoldenImage::seal(*m.hv, vm(i)));
        m.machine->setFaultPlan(plan);
        m.image = m.ownImage.get();
    }
}

void
HypervisorFleet::setFaultPlan(int i, const FaultPlan *plan)
{
    Member &m = *members_[i];
    if (plan != nullptr) {
        m.plan = std::make_unique<FaultPlan>(*plan);
        // Kept pristine for microreboots: a fresh incarnation re-arms
        // from this copy and replays the same schedule from zero.
        m.planPristine = std::make_unique<FaultPlan>(*plan);
        m.machine->setFaultPlan(m.plan.get());
    } else {
        m.plan.reset();
        m.planPristine.reset();
        m.machine->setFaultPlan(nullptr);
    }
}

void
HypervisorFleet::postConsoleInput(int i, std::string text,
                                  Longword at_tick)
{
    members_[i]->hv->postConsoleInput(vm(i), std::move(text), at_tick);
}

bool
HypervisorFleet::memberLive(const Member &m) const
{
    Hypervisor &hv = *m.hv;
    for (int v = 0; v < hv.numVms(); ++v) {
        const VirtualMachine &vm = hv.vm(v);
        if (vm.started && !vm.halted())
            return true;
    }
    return false;
}

void
HypervisorFleet::runSlice(Member &m)
{
    const std::uint64_t slice =
        std::min(config_.sliceInstructions, m.budgetLeft);
    if (slice == 0) {
        m.done = true;
        return;
    }
    const std::uint64_t before = m.machine->stats().instructions;
    m.hv->run(slice);
    const std::uint64_t used = m.machine->stats().instructions - before;
    m.budgetLeft -= std::min(used, m.budgetLeft);
    if (config_.fleetSupervision.enabled && !m.killed) {
        // Crash-only supervision path (§6d): health classification
        // and microreboot recovery, on the worker that owns the
        // member, keyed only on the member's own state.
        checkHealth(m, used);
        if (m.budgetLeft == 0)
            m.done = true;
        return;
    }
    if (m.budgetLeft == 0 || !memberLive(m))
        m.done = true;
}

void
HypervisorFleet::transition(Member &m, MemberHealth to)
{
    if (m.health == to)
        return;
    m.health = to;
    m.healthTransitions++;
}

void
HypervisorFleet::checkHealth(Member &m, std::uint64_t retired)
{
    // The member's halt reason and the instructions its slice retired
    // are the state machine's only inputs (plus the slice count
    // implicit in being called once per slice), so every transition
    // below is a pure function of the member's own history - identical
    // on every worker count.
    if (m.health == MemberHealth::Restarting) {
        // Exponential backoff, counted in the member's own slices:
        // the member idles (halted, run() is a no-op) until the
        // re-fork, and no sibling ever waits on it.
        if (--m.backoffLeft <= 0)
            microreboot(m);
        return;
    }

    if (memberLive(m)) {
        // Heartbeat backstop: a live member that retires nothing for
        // kHeartbeatSlices consecutive slices is wedged in a way the
        // guest-level watchdog cannot see; halt it into the normal
        // crash path below.
        if (retired != 0 || m.budgetLeft == 0) {
            m.idleSlices = 0;
            return;
        }
        if (++m.idleSlices < kHeartbeatSlices)
            return;
        m.hv->suspendAll();
        m.hv->vm(0).haltReason = VmHaltReason::VmmPolicy;
    }

    // Halted.  A clean exit (HaltInstruction) or a non-restartable
    // reason ends the member; a restartable crash arms a microreboot
    // - or quarantines the slot once its error budget is spent (or it
    // was started behind the fleet's back and has no image).
    if (!restartable(m.hv->vm(0).haltReason)) {
        m.done = true;
        return;
    }
    if (m.image == nullptr || m.microrebootsLeft <= 0) {
        transition(m, MemberHealth::Quarantined);
        m.done = true;
        return;
    }
    transition(m, MemberHealth::Restarting);
    m.backoffLeft = m.nextBackoff;
    m.nextBackoff = std::min(m.nextBackoff * 2, kBackoffCapSlices);
}

void
HypervisorFleet::microreboot(Member &m)
{
    // Crash-only recovery: throw the incarnation away and re-fork the
    // golden image under the same fault identity - O(pages-touched)
    // against a snapshot restore's O(memory).  The dying counters
    // retire into the fleet aggregate first.
    {
        Stats dying = m.machine->stats();
        dying.retireGauges();
        std::lock_guard<std::mutex> lock(mergeMutex_);
        retiredStats_ += dying;
        retiredVmStats_ += m.hv->totalStats();
    }
    m.microrebootsLeft--;
    m.microreboots++;

    // Fresh plan copy before the fork so a host-alloc rule can fail
    // the fork's kernel-CoW mapping (counted, architecturally
    // invisible).  The failure takes the eager-copy fallback, which
    // the fork asks for directly: the decision stays member-local, so
    // concurrent forks on other workers cannot see it.  Ordinal 0,
    // like seal: with a fresh copy per incarnation the decision
    // replays identically on every microreboot of this slot.
    if (m.planPristine != nullptr)
        m.plan = std::make_unique<FaultPlan>(*m.planPristine);
    else
        m.plan.reset();
    const bool host_fault =
        m.plan != nullptr &&
        m.plan->shouldInject(FaultClass::HostAlloc, m.faultVmId, 0);
    GoldenFork fork = m.image->fork(
        m.faultVmId, host_fault ? CowBacking::EagerCopy : CowBacking::Auto);
    m.machine = std::move(fork.machine);
    m.hv = std::move(fork.hv);
    // Re-arming also clears any environment plan the fresh machine
    // auto-installed.  Consumed firing budgets do not carry over: the
    // new incarnation replays the same injection schedule from
    // ordinal zero.
    m.machine->setFaultPlan(m.plan.get());
    if (host_fault)
        m.machine->stats().faultsInjected[static_cast<int>(
            FaultClass::HostAlloc)]++;

    // What the microreboot physically copied: the fresh fork's CoW
    // floor (the VMM metadata pages reconstruction rewrote).
    m.pagesRecopied += m.machine->memory().cowStats().pagesTouched;

    // The heartbeat streak restarts with the incarnation; the backoff
    // schedule deliberately does not - a flapping slot keeps waiting
    // longer.
    m.idleSlices = 0;
    transition(m, MemberHealth::Healthy);
}

void
HypervisorFleet::publishMemberGauges(Member &m) const
{
    Stats &stats = m.machine->stats();
    m.machine->memory().publishCowStats(stats);
    stats.cowDiskBlocksTouched = m.hv->vm(0).disk.blocksTouched();
    // Supervision history lives on the member slot so it survives
    // machine replacement; publishing it into the live machine's
    // Stats lets plain Stats aggregation carry it (retireGauges keeps
    // retiring incarnations from double-counting it).
    stats.supHealthTransitions = m.healthTransitions;
    stats.supMicroreboots = m.microreboots;
    stats.supQuarantines = m.health == MemberHealth::Quarantined ? 1 : 0;
    stats.supPagesRecopied = m.pagesRecopied;
}

void
HypervisorFleet::run(std::uint64_t max_instructions_per_vm)
{
    for (auto &m : members_) {
        m->budgetLeft = max_instructions_per_vm;
        m->done = !memberLive(*m);
    }

    // One drain loop for every worker count: each worker claims the
    // next member off the cursor and runs its slices back to back
    // until it is done.  A member's slices depend only on its own
    // state, so no member ever waits on a sibling; the calling thread
    // drains alongside the spawned ones.
    const int workers = std::clamp(config_.workers, 1,
                                   std::max(1, size()));
    std::atomic<std::size_t> next_member{0};
    std::vector<std::exception_ptr> failures(workers);
    auto drain = [&](int w) {
        try {
            std::size_t i;
            while ((i = next_member.fetch_add(1)) < members_.size()) {
                Member &m = *members_[i];
                while (!m.done)
                    runSlice(m);
            }
        } catch (...) {
            failures[w] = std::current_exception();
        }
    };
    {
        std::vector<std::jthread> threads; // joined on every exit path
        threads.reserve(workers - 1);
        for (int w = 1; w < workers; ++w)
            threads.emplace_back(drain, w);
        drain(0);
    }
    for (const std::exception_ptr &failure : failures) {
        if (failure)
            std::rethrow_exception(failure);
    }

    // The joins hand every member back to this thread: merge once.
    barrierStats_ = totalMachineStats();
}

Stats
HypervisorFleet::totalMachineStats() const
{
    for (const auto &m : members_)
        publishMemberGauges(*m);
    std::lock_guard<std::mutex> lock(mergeMutex_);
    Stats total = retiredStats_;
    for (const auto &m : members_)
        total += m->machine->stats();
    return total;
}

VmStats
HypervisorFleet::totalVmStats() const
{
    std::lock_guard<std::mutex> lock(mergeMutex_);
    VmStats total = retiredVmStats_;
    for (const auto &m : members_)
        total += m->hv->totalStats();
    return total;
}

Stats
HypervisorFleet::barrierStats() const
{
    return barrierStats_;
}

MemberHealth
HypervisorFleet::health(int i) const
{
    return members_[i]->health;
}

std::uint64_t
HypervisorFleet::microreboots() const
{
    return barrierStats().supMicroreboots;
}

std::uint64_t
HypervisorFleet::quarantines() const
{
    return barrierStats().supQuarantines;
}

std::uint64_t
HypervisorFleet::pagesRecopied() const
{
    return barrierStats().supPagesRecopied;
}

} // namespace vvax
