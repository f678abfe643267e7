/**
 * @file
 * MMU unit tests: translation through all three regions, the nested
 * process-page-table walk, protection enforcement (parameterized over
 * the full mode matrix), both modify-bit disciplines, the TLB, and
 * machine checks on non-existent memory.  Also the copy-on-write
 * residency gauges of RAM and the VM disk against a from-scratch
 * recount.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "memory/mmu.h"
#include "metrics/cost_model.h"
#include "vmm/vm_state.h"

namespace vvax {
namespace {

class MmuTest : public ::testing::Test
{
  protected:
    MmuTest()
        : memory(1024 * 1024),
          cost(CostModel::forModel(MachineModel::Vax8800)),
          mmu(memory, cost, stats)
    {
        // SPT at physical 0x10000 covering 256 S pages.
        mmu.regs().sbr = 0x10000;
        mmu.regs().slr = 256;
        mmu.regs().mapen = true;
    }

    void
    setSpte(Vpn vpn, Pte pte)
    {
        memory.write32(0x10000 + 4 * vpn, pte.raw());
    }

    PhysicalMemory memory;
    Stats stats;
    CostModel cost;
    Mmu mmu;
};

TEST_F(MmuTest, MapenOffIsIdentity)
{
    mmu.regs().mapen = false;
    EXPECT_EQ(mmu.translate(0x1234, AccessType::Read, AccessMode::User),
              0x1234u);
}

TEST_F(MmuTest, SystemRegionTranslation)
{
    setSpte(5, Pte::make(true, Protection::KW, true, 77));
    const PhysAddr pa = mmu.translate(kSystemBase + 5 * kPageSize + 0x42,
                                      AccessType::Read,
                                      AccessMode::Kernel);
    EXPECT_EQ(pa, 77u * kPageSize + 0x42);
}

TEST_F(MmuTest, SystemLengthViolation)
{
    try {
        mmu.translate(kSystemBase + 300 * kPageSize, AccessType::Read,
                      AccessMode::Kernel);
        FAIL() << "expected ACV";
    } catch (const GuestFault &f) {
        EXPECT_EQ(f.vector, ScbVector::AccessViolation);
        EXPECT_TRUE(f.params[0] & mmparam::kLengthViolation);
        EXPECT_EQ(f.params[1], kSystemBase + 300 * kPageSize);
    }
}

TEST_F(MmuTest, ProcessRegionNestedWalk)
{
    // P0 page table lives in S space at S page 2; S page 2 maps to
    // physical page 100.  P0 page 9 maps to physical page 55.
    setSpte(2, Pte::make(true, Protection::KW, true, 100));
    mmu.regs().p0br = kSystemBase + 2 * kPageSize;
    mmu.regs().p0lr = 16;
    memory.write32(100 * kPageSize + 4 * 9,
                   Pte::make(true, Protection::UW, true, 55).raw());

    const PhysAddr pa = mmu.translate(9 * kPageSize + 7,
                                      AccessType::Read, AccessMode::User);
    EXPECT_EQ(pa, 55u * kPageSize + 7);
}

TEST_F(MmuTest, NestedWalkFaultsReportPteReference)
{
    // The SPT entry covering the P0 table page is invalid.
    setSpte(2, Pte::make(false, Protection::KW, false, 100));
    mmu.regs().p0br = kSystemBase + 2 * kPageSize;
    mmu.regs().p0lr = 16;
    try {
        mmu.translate(9 * kPageSize, AccessType::Write, AccessMode::User);
        FAIL() << "expected TNV";
    } catch (const GuestFault &f) {
        EXPECT_EQ(f.vector, ScbVector::TranslationNotValid);
        EXPECT_TRUE(f.params[0] & mmparam::kPteReference);
        EXPECT_TRUE(f.params[0] & mmparam::kWriteIntent);
    }
}

TEST_F(MmuTest, P1GrowsDownward)
{
    // P1 region: valid VPNs are >= P1LR.  Table biased so that the
    // PTE for VPN v sits at p1br + 4v.
    setSpte(3, Pte::make(true, Protection::KW, true, 101));
    const Vpn first = 0x200000 - 4; // four valid pages at the top
    mmu.regs().p1br = (kSystemBase + 3 * kPageSize) - 4 * first;
    mmu.regs().p1lr = first;
    memory.write32(101 * kPageSize + 4 * 2, // vpn = first + 2
                   Pte::make(true, Protection::UW, true, 60).raw());

    const VirtAddr va = kP1Base + (first + 2) * kPageSize + 12;
    EXPECT_EQ(mmu.translate(va, AccessType::Read, AccessMode::User),
              60u * kPageSize + 12);

    // Below P1LR: length violation.
    const VirtAddr bad = kP1Base + (first - 1) * kPageSize;
    EXPECT_THROW(mmu.translate(bad, AccessType::Read, AccessMode::User),
                 GuestFault);
}

TEST_F(MmuTest, ReservedRegionFaults)
{
    EXPECT_THROW(
        mmu.translate(0xC0000000, AccessType::Read, AccessMode::Kernel),
        GuestFault);
}

TEST_F(MmuTest, ProtectionCheckedEvenWhenInvalid)
{
    // Paper Section 3.2.1: hardware tests accessibility via
    // PTE<PROT> even if PTE<V> is clear, and ACV wins over TNV.
    setSpte(4, Pte::make(false, Protection::KW, false, 50));
    try {
        mmu.translate(kSystemBase + 4 * kPageSize, AccessType::Read,
                      AccessMode::User);
        FAIL();
    } catch (const GuestFault &f) {
        EXPECT_EQ(f.vector, ScbVector::AccessViolation)
            << "protection failure outranks the invalid bit";
    }
    // Kernel passes protection, then sees the invalid bit.
    try {
        mmu.translate(kSystemBase + 4 * kPageSize, AccessType::Read,
                      AccessMode::Kernel);
        FAIL();
    } catch (const GuestFault &f) {
        EXPECT_EQ(f.vector, ScbVector::TranslationNotValid);
    }
}

TEST_F(MmuTest, HardwareModifySetOnStandardVax)
{
    mmu.setModifyFaultMode(false);
    setSpte(6, Pte::make(true, Protection::KW, false, 80));
    mmu.translate(kSystemBase + 6 * kPageSize, AccessType::Write,
                  AccessMode::Kernel);
    const Pte after(memory.read32(0x10000 + 4 * 6));
    EXPECT_TRUE(after.modify()) << "standard VAX sets PTE<M> itself";
    EXPECT_EQ(stats.hardwareModifySets, 1u);
    EXPECT_EQ(stats.modifyFaults, 0u);
}

TEST_F(MmuTest, ModifyFaultOnModifiedVax)
{
    mmu.setModifyFaultMode(true);
    setSpte(6, Pte::make(true, Protection::KW, false, 80));
    try {
        mmu.translate(kSystemBase + 6 * kPageSize, AccessType::Write,
                      AccessMode::Kernel);
        FAIL() << "expected modify fault";
    } catch (const GuestFault &f) {
        EXPECT_EQ(f.vector, ScbVector::ModifyFault);
        EXPECT_TRUE(f.params[0] & mmparam::kWriteIntent);
    }
    const Pte after(memory.read32(0x10000 + 4 * 6));
    EXPECT_FALSE(after.modify())
        << "the modified VAX never sets PTE<M> in hardware";
    // Software sets M and retries.
    setSpte(6, Pte::make(true, Protection::KW, true, 80));
    EXPECT_NO_THROW(mmu.translate(kSystemBase + 6 * kPageSize,
                                  AccessType::Write,
                                  AccessMode::Kernel));
    EXPECT_EQ(stats.modifyFaults, 1u);
}

TEST_F(MmuTest, ReadDoesNotRequireModify)
{
    mmu.setModifyFaultMode(true);
    setSpte(6, Pte::make(true, Protection::KW, false, 80));
    EXPECT_NO_THROW(mmu.translate(kSystemBase + 6 * kPageSize,
                                  AccessType::Read,
                                  AccessMode::Kernel));
}

TEST_F(MmuTest, TlbCachesAndInvalidates)
{
    setSpte(7, Pte::make(true, Protection::KW, true, 90));
    const VirtAddr va = kSystemBase + 7 * kPageSize;
    mmu.translate(va, AccessType::Read, AccessMode::Kernel);
    const auto misses = stats.tlbMisses;
    mmu.translate(va, AccessType::Read, AccessMode::Kernel);
    EXPECT_EQ(stats.tlbMisses, misses) << "second access must hit";
    EXPECT_GE(stats.tlbHits, 1u);

    // Change the PTE and invalidate: next access re-walks.
    setSpte(7, Pte::make(true, Protection::KW, true, 91));
    mmu.tbis(va);
    EXPECT_EQ(mmu.translate(va, AccessType::Read, AccessMode::Kernel),
              91u * kPageSize);
    EXPECT_EQ(stats.tlbMisses, misses + 1);
}

TEST_F(MmuTest, TlbHitStillEnforcesProtection)
{
    setSpte(8, Pte::make(true, Protection::KW, true, 92));
    const VirtAddr va = kSystemBase + 8 * kPageSize;
    mmu.translate(va, AccessType::Read, AccessMode::Kernel); // fill
    EXPECT_THROW(
        mmu.translate(va, AccessType::Read, AccessMode::User),
        GuestFault);
}

TEST_F(MmuTest, NonExistentMemoryIsMachineCheck)
{
    setSpte(9, Pte::make(true, Protection::KW, true, 0x100000));
    try {
        mmu.translate(kSystemBase + 9 * kPageSize, AccessType::Read,
                      AccessMode::Kernel);
        FAIL();
    } catch (const GuestFault &f) {
        EXPECT_EQ(f.vector, ScbVector::MachineCheck);
    }
}

TEST_F(MmuTest, ProbeReportsWithoutFaulting)
{
    setSpte(10, Pte::make(true, Protection::URKW, false, 93));
    const VirtAddr va = kSystemBase + 10 * kPageSize;

    auto r = mmu.probe(va, AccessType::Read, AccessMode::User);
    EXPECT_EQ(r.status, MmStatus::Ok);
    r = mmu.probe(va, AccessType::Write, AccessMode::User);
    EXPECT_EQ(r.status, MmStatus::AccessViolation);
    r = mmu.probe(va, AccessType::Write, AccessMode::Kernel);
    EXPECT_EQ(r.status, MmStatus::ModifyClear);

    setSpte(10, Pte::make(false, Protection::URKW, false, 93));
    mmu.tbis(va);
    r = mmu.probe(va, AccessType::Read, AccessMode::User);
    EXPECT_EQ(r.status, MmStatus::TranslationNotValid);
}

TEST_F(MmuTest, UnalignedAccessAcrossPageBoundary)
{
    setSpte(11, Pte::make(true, Protection::KW, true, 94));
    setSpte(12, Pte::make(true, Protection::KW, true, 95));
    const VirtAddr va = kSystemBase + 12 * kPageSize - 2;
    mmu.writeV32(va, 0xAABBCCDD, AccessMode::Kernel);
    EXPECT_EQ(mmu.readV32(va, AccessMode::Kernel), 0xAABBCCDDu);
    EXPECT_EQ(memory.read16(94 * kPageSize + kPageSize - 2), 0xCCDDu);
    EXPECT_EQ(memory.read16(95 * kPageSize), 0xAABBu);
}

// Parameterized protection sweep: every code, every mode, through
// the real translation path.
class MmuProtectionSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(MmuProtectionSweep, TranslateMatchesProtectionTable)
{
    const auto prot = static_cast<Protection>(std::get<0>(GetParam()));
    const auto mode = static_cast<AccessMode>(std::get<1>(GetParam()));

    PhysicalMemory memory(1024 * 1024);
    Stats stats;
    CostModel cost = CostModel::forModel(MachineModel::Vax8800);
    Mmu mmu(memory, cost, stats);
    mmu.regs().sbr = 0x10000;
    mmu.regs().slr = 16;
    mmu.regs().mapen = true;
    memory.write32(0x10000, Pte::make(true, prot, true, 3).raw());

    for (AccessType type : {AccessType::Read, AccessType::Write}) {
        const bool allowed = protectionPermits(prot, mode, type);
        if (allowed) {
            EXPECT_NO_THROW(mmu.translate(kSystemBase, type, mode));
        } else {
            EXPECT_THROW(mmu.translate(kSystemBase, type, mode),
                         GuestFault);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCodesAllModes, MmuProtectionSweep,
    ::testing::Combine(::testing::Range(0, 16), ::testing::Range(0, 4)));

// ---------------------------------------------------------------------------
// Copy-on-write residency: the O(1) gauges against a from-scratch recount
// ---------------------------------------------------------------------------

/** Host pages holding at least one flagged 512-byte unit. */
template <typename Flags>
std::size_t
hostPagesWithAnyFlag(const Flags &flags, std::size_t units)
{
    const std::size_t per_host =
        std::max<std::size_t>(hostPageSize() / 512, 1);
    std::size_t pages = 0;
    for (std::size_t first = 0; first < units; first += per_host) {
        for (std::size_t u = first; u < std::min(first + per_host, units);
             ++u) {
            if (flags[u]) {
                pages++;
                break;
            }
        }
    }
    return pages;
}

/** Private bytes of an image with @p host_pages touched host pages. */
std::uint64_t
recountPrivateBytes(std::size_t host_pages, std::size_t image_bytes,
                    bool kernel_cow)
{
    if (!kernel_cow)
        return image_bytes;
    return std::min(host_pages * hostPageSize(), image_bytes);
}

/** The gauges of @p memory must equal a scan of its generation
 *  counters - the scan cowStats() no longer does. */
void
expectRamMatchesRecount(PhysicalMemory &memory, const char *after)
{
    const std::uint32_t *gen = memory.pageGenData();
    const std::size_t pages = memory.ramPages();
    Longword touched = 0;
    for (std::size_t p = 0; p < pages; ++p)
        touched += gen[p] != 0 ? 1 : 0;
    const std::uint64_t private_bytes = recountPrivateBytes(
        hostPagesWithAnyFlag(gen, pages), memory.ramSize(),
        memory.kernelCowActive());

    const CowStats cs = memory.cowStats();
    EXPECT_EQ(cs.forked, memory.forkedFromImage()) << after;
    EXPECT_EQ(cs.kernelCow, memory.kernelCowActive()) << after;
    EXPECT_EQ(cs.pagesTouched, touched) << after;
    EXPECT_EQ(cs.privateBytes, private_bytes) << after;
    EXPECT_EQ(cs.sharedBytes, memory.ramSize() - private_bytes) << after;

    Stats stats;
    memory.publishCowStats(stats);
    EXPECT_EQ(stats.cowPagesTouched, touched) << after;
    EXPECT_EQ(stats.cowPrivateBytes, private_bytes) << after;
}

/** Seeded random stores into @p memory through every store funnel:
 *  PhysicalMemory's write8/16/32 and writeBlock, and the MMU's inline
 *  fast paths (writeV8/16/32, tryWriteV32) with mapping off and on. */
void
storeThroughEveryFunnel(PhysicalMemory &memory, std::uint32_t seed)
{
    constexpr PhysAddr kSpt = 0x10000;    // SPT: 16 S pages
    constexpr PhysAddr kWindow = 0x40000; // stores land in 1024 pages
    constexpr Longword kWindowPages = 1024;
    constexpr PhysAddr kMappedWindow = 0xC0000; // mapped stores only
    constexpr int kStores = 24;
    std::mt19937 rng(seed);
    auto page = [&] {
        return kWindow + static_cast<PhysAddr>(rng() % kWindowPages) *
                             kPageSize;
    };
    auto offset = [&] { return static_cast<Longword>(rng() % kPageSize); };

    // Odd iterations store at the end of a page, so the 16- and
    // 32-bit stores straddle into the next one.
    for (int i = 0; i < kStores; ++i)
        memory.write8(page() + offset(), static_cast<Byte>(i));
    expectRamMatchesRecount(memory, "write8");
    for (int i = 0; i < kStores; ++i)
        memory.write16(page() + (i % 2 ? kPageSize - 1 : offset()),
                       static_cast<Word>(i));
    expectRamMatchesRecount(memory, "write16");
    for (int i = 0; i < kStores; ++i)
        memory.write32(page() + (i % 2 ? kPageSize - 1 - rng() % 3
                                       : offset()),
                       static_cast<Longword>(i));
    expectRamMatchesRecount(memory, "write32");
    for (int i = 0; i < kStores / 4; ++i) {
        const std::vector<Byte> data(1 + rng() % (3 * kPageSize), 0x5A);
        memory.writeBlock(page() + offset(), data);
    }
    expectRamMatchesRecount(memory, "writeBlock");

    Stats stats;
    const CostModel cost = CostModel::forModel(MachineModel::Vax8800);
    Mmu mmu(memory, cost, stats);
    // Aligned stores inside one page: every one the fast path can take.
    auto store = [&](int i, VirtAddr va) {
        MmStatus status = MmStatus::Ok;
        switch (i % 4) {
          case 0:
            mmu.writeV8(va, static_cast<Byte>(i), AccessMode::Kernel);
            break;
          case 1:
            mmu.writeV16(va, static_cast<Word>(i), AccessMode::Kernel);
            break;
          case 2:
            mmu.writeV32(va, static_cast<Longword>(i), AccessMode::Kernel);
            break;
          default:
            EXPECT_TRUE(mmu.tryWriteV32(va, static_cast<Longword>(i),
                                        AccessMode::Kernel, &status));
            break;
        }
    };
    mmu.regs().mapen = false;
    for (int i = 0; i < 4 * kStores; ++i)
        store(i, page() + (offset() & ~3u));
    expectRamMatchesRecount(memory, "MMU stores, mapping off");

    // Map 16 S pages onto pages no store has touched yet, and fill
    // the TLB by reading each one: the mapped stores' first touches
    // then happen on TLB hits, in the inline fast path.
    mmu.regs().sbr = kSpt;
    mmu.regs().slr = 16;
    for (Vpn vpn = 0; vpn < 16; ++vpn)
        memory.write32(kSpt + 4 * vpn,
                       Pte::make(true, Protection::KW, true,
                                 (kMappedWindow >> kPageShift) + 2 * vpn)
                           .raw());
    mmu.regs().mapen = true;
    for (Vpn vpn = 0; vpn < 16; ++vpn)
        mmu.readV32(kSystemBase + vpn * kPageSize, AccessMode::Kernel);
    const std::uint64_t misses = stats.tlbMisses;
    for (int i = 0; i < 4 * kStores; ++i)
        store(i, kSystemBase + (rng() % 16) * kPageSize + (offset() & ~3u));
    EXPECT_EQ(stats.tlbMisses, misses) << "every mapped store hit the TLB";
    expectRamMatchesRecount(memory, "MMU stores, mapping on");

    // A counter that wraps after 2^32 stores still reads "written",
    // and its page is not counted a second time.
    const PhysAddr wrap = page();
    memory.write8(wrap, 1);
    const Longword touched = memory.cowStats().pagesTouched;
    *memory.pageGenCell(wrap) = 0xFFFFFFFFu;
    memory.write8(wrap, 2);
    EXPECT_EQ(*memory.pageGenCell(wrap), 1u);
    *memory.pageGenCell(wrap) = 0xFFFFFFFFu;
    mmu.regs().mapen = false;
    mmu.writeV32(wrap, 3, AccessMode::Kernel);
    EXPECT_EQ(*memory.pageGenCell(wrap), 1u);
    EXPECT_EQ(memory.cowStats().pagesTouched, touched);
    expectRamMatchesRecount(memory, "generation wrap");
}

/** The disk's gauges must equal a recount of the blocks the test
 *  marked in @p written. */
void
expectDiskMatchesRecount(const VmDisk &disk,
                         const std::vector<bool> &written, const char *after)
{
    const std::size_t touched = static_cast<std::size_t>(
        std::count(written.begin(), written.end(), true));
    const std::uint64_t private_bytes = recountPrivateBytes(
        hostPagesWithAnyFlag(written, written.size()), disk.size(),
        disk.kernelCow());
    EXPECT_EQ(disk.blocksTouched(), touched) << after;
    EXPECT_EQ(disk.privateBytes(), private_bytes) << after;
    EXPECT_EQ(disk.sharedBytes(),
              disk.kernelCow() ? disk.size() - private_bytes : 0)
        << after;
}

/** Seeded random markWritten() runs, some clipped at the disk's end. */
void
markRandomBlocks(VmDisk &disk, std::vector<bool> &written,
                 std::uint32_t seed)
{
    std::mt19937 rng(seed);
    for (int i = 0; i < 48; ++i) {
        const std::size_t block = rng() % written.size();
        const std::size_t count = 1 + rng() % 4;
        disk.markWritten(block, count);
        for (std::size_t b = block;
             b < std::min(block + count, written.size()); ++b)
            written[b] = true;
        expectDiskMatchesRecount(disk, written, "markWritten");
    }
}

TEST(CowResidency, IncrementalMatchesRecount)
{
    constexpr Longword kRam = 1024 * 1024;
    PhysicalMemory owned(kRam);
    expectRamMatchesRecount(owned, "owned, fresh");
    storeThroughEveryFunnel(owned, 1);

    // A fork starts untouched, whatever its image went through.
    const SealedRegion ram_image = SealedRegion::seal(owned.ram());
    PhysicalMemory fork(kRam, ram_image,
                        ram_image.kernelBacked() ? CowBacking::KernelCow
                                                 : CowBacking::Auto);
    EXPECT_TRUE(fork.forkedFromImage());
    EXPECT_EQ(fork.kernelCowActive(), ram_image.kernelBacked());
    EXPECT_EQ(fork.cowStats().pagesTouched, 0u);
    expectRamMatchesRecount(fork, "fork, fresh");
    storeThroughEveryFunnel(fork, 2);

    constexpr std::size_t kBlocks = 1024;
    VmDisk owned_disk;
    owned_disk.resize(kBlocks * 512);
    std::vector<bool> written(kBlocks, false);
    markRandomBlocks(owned_disk, written, 3);

    const SealedRegion disk_image = SealedRegion::seal(owned_disk);
    VmDisk forked_disk;
    forked_disk.adoptCow(disk_image, disk_image.kernelBacked()
                                         ? CowBacking::KernelCow
                                         : CowBacking::Auto);
    EXPECT_TRUE(forked_disk.forked());
    written.assign(kBlocks, false);
    expectDiskMatchesRecount(forked_disk, written, "disk fork, fresh");
    markRandomBlocks(forked_disk, written, 4);
}

} // namespace
} // namespace vvax
