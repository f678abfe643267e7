#include "fault/fault_plan.h"

#include <cstdlib>
#include <stdexcept>

namespace vvax {

namespace {

/** splitmix64 finalizer: the deterministic "randomness" behind prob=
 *  rules and ECC addresses. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

std::uint64_t
hashDecision(std::uint64_t seed, FaultClass cls, int vm_id,
             std::uint64_t ordinal)
{
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<Byte>(cls)) << 56) ^
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(vm_id))
         << 40) ^
        ordinal;
    return mix64(mix64(seed) ^ key);
}

} // namespace

std::string_view
faultClassName(FaultClass cls)
{
    switch (cls) {
      case FaultClass::DiskTransient: return "disk-transient";
      case FaultClass::DiskHard: return "disk-hard";
      case FaultClass::TornBatch: return "torn";
      case FaultClass::Ecc: return "ecc";
      case FaultClass::SpuriousInterrupt: return "spurious";
      case FaultClass::MailboxDelay: return "mailbox-delay";
      case FaultClass::HostAlloc: return "host-alloc";
      case FaultClass::NumClasses: break;
    }
    return "?";
}

FaultRule &
FaultPlan::addRule(const FaultRule &rule)
{
    rules_.push_back(rule);
    return rules_.back();
}

bool
FaultPlan::ruleFires(FaultRule &rule, int vm_id,
                     std::uint64_t ordinal) const
{
    if (rule.vmId != -1 && rule.vmId != vm_id)
        return false;
    if (rule.fired >= rule.count)
        return false;
    if (rule.prob != 0)
        return hashDecision(seed_, rule.cls, vm_id, ordinal) % 1024 <
               rule.prob;
    if (rule.every != 0)
        return (ordinal + 1) % rule.every == 0;
    return ordinal == rule.at;
}

bool
FaultPlan::shouldInject(FaultClass cls, int vm_id, std::uint64_t ordinal)
{
    for (auto &rule : rules_) {
        if (rule.cls != cls)
            continue;
        if (ruleFires(rule, vm_id, ordinal)) {
            rule.fired++;
            return true;
        }
    }
    return false;
}

bool
FaultPlan::diskRangeBad(int vm_id, Longword block, Longword count)
{
    const std::uint64_t lo = block;
    const std::uint64_t hi = lo + count;
    for (auto &rule : rules_) {
        if (rule.cls != FaultClass::DiskHard)
            continue;
        if (rule.vmId != -1 && rule.vmId != vm_id)
            continue;
        if (rule.fired >= rule.count)
            continue;
        const std::uint64_t bad_lo = rule.block;
        const std::uint64_t bad_hi = bad_lo + rule.nBlocks;
        if (lo < bad_hi && bad_lo < hi) {
            rule.fired++;
            return true;
        }
    }
    return false;
}

Longword
FaultPlan::eccAddress(int vm_id, std::uint64_t ordinal,
                      Longword mem_bytes) const
{
    if (mem_bytes < 4)
        return 0;
    const std::uint64_t h =
        hashDecision(seed_, FaultClass::Ecc, vm_id, ordinal);
    return static_cast<Longword>(h % mem_bytes) & ~Longword{3};
}

std::uint64_t
FaultPlan::delayTicks(FaultClass cls, int vm_id, std::uint64_t ordinal,
                      std::uint64_t max_ticks) const
{
    if (max_ticks == 0)
        return 0;
    // Salt the ordinal so the delay draw never correlates with the
    // fire/no-fire draw of a prob= rule on the same key.
    const std::uint64_t h =
        hashDecision(seed_, cls, vm_id, ordinal ^ 0x5DE1A7ull << 40);
    return 1 + h % max_ticks;
}

namespace {

bool
parseU64(std::string_view text, std::uint64_t *out)
{
    if (text.empty())
        return false;
    std::uint64_t value = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false;
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    *out = value;
    return true;
}

std::string_view
trim(std::string_view s)
{
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                          s.front() == '\n'))
        s.remove_prefix(1);
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                          s.back() == '\n'))
        s.remove_suffix(1);
    return s;
}

bool
classFromName(std::string_view name, FaultClass *out)
{
    for (int i = 0; i < kNumFaultClasses; ++i) {
        const auto cls = static_cast<FaultClass>(i);
        if (name == faultClassName(cls)) {
            *out = cls;
            return true;
        }
    }
    return false;
}

bool
fail(std::string *error, const std::string &message)
{
    if (error != nullptr)
        *error = message;
    return false;
}

} // namespace

bool
FaultPlan::parse(std::string_view spec, FaultPlan *out, std::string *error)
{
    FaultPlan plan;
    std::string_view rest = spec;
    while (!rest.empty()) {
        const auto semi = rest.find(';');
        std::string_view clause = trim(rest.substr(0, semi));
        rest = semi == std::string_view::npos ? std::string_view{}
                                              : rest.substr(semi + 1);
        if (clause.empty())
            continue;

        const auto colon = clause.find(':');
        if (colon == std::string_view::npos) {
            // Plan-level option; only `seed=N` exists.
            const auto eq = clause.find('=');
            std::uint64_t seed = 0;
            if (eq == std::string_view::npos ||
                trim(clause.substr(0, eq)) != "seed" ||
                !parseU64(trim(clause.substr(eq + 1)), &seed))
                return fail(error, "fault plan: bad clause '" +
                                       std::string(clause) + "'");
            plan.setSeed(seed);
            continue;
        }

        FaultRule rule;
        const std::string_view cls_name = trim(clause.substr(0, colon));
        if (!classFromName(cls_name, &rule.cls))
            return fail(error, "fault plan: unknown class '" +
                                   std::string(cls_name) + "'");

        std::string_view keys = clause.substr(colon + 1);
        while (!keys.empty()) {
            const auto comma = keys.find(',');
            const std::string_view kv = trim(keys.substr(0, comma));
            keys = comma == std::string_view::npos ? std::string_view{}
                                                   : keys.substr(comma + 1);
            if (kv.empty())
                continue;
            const auto eq = kv.find('=');
            std::uint64_t value = 0;
            if (eq == std::string_view::npos ||
                !parseU64(trim(kv.substr(eq + 1)), &value))
                return fail(error, "fault plan: bad key '" +
                                       std::string(kv) + "'");
            const std::string_view key = trim(kv.substr(0, eq));
            if (key == "vm")
                rule.vmId = static_cast<int>(value);
            else if (key == "at")
                rule.at = value;
            else if (key == "every")
                rule.every = value;
            else if (key == "prob")
                rule.prob = static_cast<Longword>(value);
            else if (key == "count")
                rule.count = value;
            else if (key == "block")
                rule.block = static_cast<Longword>(value);
            else if (key == "nblocks")
                rule.nBlocks = static_cast<Longword>(value);
            else
                return fail(error, "fault plan: unknown key '" +
                                       std::string(key) + "'");
        }
        plan.addRule(rule);
    }
    if (out != nullptr)
        *out = plan;
    return true;
}

std::unique_ptr<FaultPlan>
FaultPlan::fromEnv()
{
    const char *spec = std::getenv("VVAX_FAULT_PLAN");
    if (spec == nullptr || *spec == '\0')
        return nullptr;
    auto plan = std::make_unique<FaultPlan>();
    std::string error;
    if (!FaultPlan::parse(spec, plan.get(), &error))
        throw std::invalid_argument("VVAX_FAULT_PLAN: " + error);
    return plan;
}

} // namespace vvax
