/**
 * @file
 * Metrics tests: machine-model presets, cycle accounting categories,
 * the statistics report, and the paper's Section 7.3 headline ratio.
 */

#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "bench/common.h"
#include "metrics/cost_model.h"
#include "metrics/stats.h"

namespace vvax {
namespace {

TEST(CostModel, PresetsDifferWhereThePaperSaysTheyDo)
{
    const CostModel m730 = CostModel::forModel(MachineModel::Vax730);
    const CostModel m785 = CostModel::forModel(MachineModel::Vax785);
    const CostModel m8800 = CostModel::forModel(MachineModel::Vax8800);

    // Section 7.3: only the 730 prototype had microcode space for the
    // VM IPL assist.
    EXPECT_TRUE(m730.vmIplMicrocodeAssist);
    EXPECT_FALSE(m785.vmIplMicrocodeAssist);
    EXPECT_FALSE(m8800.vmIplMicrocodeAssist);

    // The 8800's bare MTPR-to-IPL path is the most optimized.
    EXPECT_LT(m8800.mtprIplBare, m785.mtprIplBare);
    EXPECT_LT(m785.mtprIplBare, m730.mtprIplBare);

    // Slower machines scale instruction costs up.
    EXPECT_GT(m730.instructionScalePct, m785.instructionScalePct);
    EXPECT_GT(m785.instructionScalePct, m8800.instructionScalePct);

    // The 8800 MTPR-to-IPL emulation ratio must stay in the paper's
    // 10-12x band (the calibration contract; see DESIGN.md Section 6).
    const double emulated =
        static_cast<double>(m8800.exceptionDispatch +
                            m8800.vmmDispatch +
                            m8800.vmmMtprIplEmulate + m8800.vmmResume);
    const double ratio =
        emulated / static_cast<double>(m8800.mtprIplBare);
    EXPECT_GE(ratio, 10.0);
    EXPECT_LE(ratio, 12.0);
}

TEST(Stats, AccumulateAndReport)
{
    Stats s;
    s.instructions = 1234;
    s.addCycles(CycleCategory::GuestExec, 100);
    s.addCycles(CycleCategory::VmmEmulation, 50);
    s.addCycles(CycleCategory::Idle, 7);
    s.dispatches[(0x58 / 4)] = 3;
    s.tlbHits = 10;
    s.tlbMisses = 2;
    // Counters the report once left out (Section 5's modify faults
    // among them): every non-zero field is printed.
    s.hardwareModifySets = 101;
    s.modifyFaults = 102;
    s.translationFaults = 103;
    s.accessViolations = 104;
    s.vmEmulationTraps = 105;
    s.interruptsTaken = 106;
    s.waitInstructions = 107;

    EXPECT_EQ(s.totalCycles(), 157u);
    EXPECT_EQ(s.busyCycles(), 150u);
    EXPECT_EQ(s.dispatchCount(0x58), 3u);

    std::ostringstream os;
    s.print(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("instructions: 1234"), std::string::npos);
    EXPECT_NE(text.find("guest-exec"), std::string::npos);
    EXPECT_NE(text.find("vmm-emulation"), std::string::npos);
    EXPECT_NE(text.find("VM emulation"), std::string::npos);
    EXPECT_NE(text.find("10 hits, 2 misses"), std::string::npos);
    const std::pair<const char *, const char *> fields[] = {
        {"hardwareModifySets", "101"}, {"modifyFaults", "102"},
        {"translationFaults", "103"},  {"accessViolations", "104"},
        {"vmEmulationTraps", "105"},   {"interruptsTaken", "106"},
        {"waitInstructions", "107"},
    };
    for (const auto &[name, value] : fields) {
        const std::size_t at = text.find(name);
        ASSERT_NE(at, std::string::npos) << name << " is not printed";
        const std::string line =
            text.substr(at, text.find('\n', at) - at);
        EXPECT_EQ(line.substr(line.find_last_of(' ') + 1), value)
            << line;
    }

    s.clear();
    EXPECT_EQ(s.totalCycles(), 0u);
    EXPECT_EQ(s.instructions, 0u);
}

TEST(PerformanceRatio, PaperMixRunsAtTheSection73ShareOfBare)
{
    // Section 7.3: the editing + transaction mix ran at 47-48% of the
    // unmodified VAX 8800 inside a VM with the Section 7.2 shadow table
    // cache; without the cache the VMM rebuilds shadow tables on every
    // context switch and the share drops (bench_performance_ratio).
    const MiniVmsConfig mix = bench::paperMix();
    const bench::BareOutcome bare = bench::runBare(
        mix, MachineModel::Vax8800, MicrocodeLevel::Standard);
    HypervisorConfig cache_on;
    cache_on.shadowTableCache = true;
    const bench::VmOutcome cached =
        bench::runVirtual(mix, MachineModel::Vax8800, cache_on);
    HypervisorConfig cache_off;
    cache_off.shadowTableCache = false;
    const bench::VmOutcome flushed =
        bench::runVirtual(mix, MachineModel::Vax8800, cache_off);
    ASSERT_EQ(bare.magic, MiniVmsImage::kResultMagic);
    ASSERT_EQ(cached.magic, MiniVmsImage::kResultMagic);
    ASSERT_EQ(flushed.magic, MiniVmsImage::kResultMagic);

    const double share_cached = static_cast<double>(bare.busyCycles) /
                                static_cast<double>(cached.busyCycles);
    const double share_flushed = static_cast<double>(bare.busyCycles) /
                                 static_cast<double>(flushed.busyCycles);
    EXPECT_GE(share_cached, 0.45);
    EXPECT_LE(share_cached, 0.50);
    EXPECT_LT(share_flushed, share_cached)
        << "the shadow table cache must pay for itself";
}

TEST(Stats, CategoryNamesAreDistinct)
{
    for (int a = 0; a < kNumCycleCategories; ++a) {
        for (int b = a + 1; b < kNumCycleCategories; ++b) {
            EXPECT_NE(cycleCategoryName(static_cast<CycleCategory>(a)),
                      cycleCategoryName(static_cast<CycleCategory>(b)));
        }
    }
}

} // namespace
} // namespace vvax
