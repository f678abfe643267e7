/**
 * @file
 * Unit tests for the architecture definitions: protection codes, PSL
 * field accessors, PTE layout and the opcode table.
 */

#include <cstdint>

#include <gtest/gtest.h>

#include "arch/opcodes.h"
#include "arch/protection.h"
#include "arch/psl.h"
#include "arch/pte.h"
#include "arch/scb.h"

namespace vvax {
namespace {

TEST(AccessMode, PrivilegeOrdering)
{
    EXPECT_TRUE(
        atLeastAsPrivileged(AccessMode::Kernel, AccessMode::User));
    EXPECT_TRUE(
        atLeastAsPrivileged(AccessMode::Kernel, AccessMode::Kernel));
    EXPECT_FALSE(
        atLeastAsPrivileged(AccessMode::User, AccessMode::Supervisor));
    EXPECT_EQ(lessPrivileged(AccessMode::Kernel, AccessMode::Executive),
              AccessMode::Executive);
    EXPECT_EQ(morePrivileged(AccessMode::Supervisor, AccessMode::User),
              AccessMode::Supervisor);
}

TEST(Region, Boundaries)
{
    EXPECT_EQ(regionOf(0x00000000), Region::P0);
    EXPECT_EQ(regionOf(0x3FFFFFFF), Region::P0);
    EXPECT_EQ(regionOf(0x40000000), Region::P1);
    EXPECT_EQ(regionOf(0x7FFFFFFF), Region::P1);
    EXPECT_EQ(regionOf(0x80000000), Region::System);
    EXPECT_EQ(regionOf(0xBFFFFFFF), Region::System);
    EXPECT_EQ(regionOf(0xC0000000), Region::Reserved);
    EXPECT_EQ(vpnOf(0x80000200), 1u);
    EXPECT_EQ(vpnOf(0x400001FF), 0u);
}

// The full protection matrix from the VAX Architecture Reference
// Manual: for each code, the least privileged mode that may write and
// read.  This is the ground truth the MMU, PROBE and the VMM's ring
// compression all build on.
//
// gtest prints a ProtCase as its raw bytes and the test registry names
// each case after that print, so the struct has no padding: the three
// bytes after the code are an explicit, fixed name tag.  They used to
// be uninitialised padding, which made the case names change from one
// test discovery to the next; the tags keep the names the cases were
// first registered under.
struct ProtCase
{
    Protection prot;
    std::uint8_t nameTag[3];
    int write; // least privileged writer (-1: none)
    int read;
};
static_assert(sizeof(ProtCase) == 12, "ProtCase must have no padding");

class ProtectionMatrix : public ::testing::TestWithParam<ProtCase>
{
};

TEST_P(ProtectionMatrix, MatchesReferenceTable)
{
    const ProtCase &c = GetParam();
    for (int m = 0; m < kNumAccessModes; ++m) {
        const auto mode = static_cast<AccessMode>(m);
        const bool canWrite = c.write >= 0 && m <= c.write;
        const bool canRead = c.read >= 0 && m <= c.read;
        EXPECT_EQ(protectionPermits(c.prot, mode, AccessType::Write),
                  canWrite)
            << protectionName(c.prot) << " write from mode " << m;
        EXPECT_EQ(protectionPermits(c.prot, mode, AccessType::Read),
                  canRead)
            << protectionName(c.prot) << " read from mode " << m;
        // Write access implies read access.
        if (canWrite) {
            EXPECT_TRUE(canRead);
        }
    }
    EXPECT_EQ(leastPrivilegedAllowed(c.prot, AccessType::Write), c.write);
    EXPECT_EQ(leastPrivilegedAllowed(c.prot, AccessType::Read), c.read);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodes, ProtectionMatrix,
    ::testing::Values(
        ProtCase{Protection::NA, {0x00, 0x00, 0x00}, -1, -1},
        ProtCase{Protection::Reserved, {0x00, 0x00, 0x00}, -1, -1},
        ProtCase{Protection::KW, {0x00, 0x00, 0x00}, 0, 0},
        ProtCase{Protection::KR, {0x73, 0x74, 0x5F}, -1, 0},
        ProtCase{Protection::UW, {0x73, 0x00, 0x73}, 3, 3},
        ProtCase{Protection::EW, {0x00, 0x00, 0x00}, 1, 1},
        ProtCase{Protection::ERKW, {0x00, 0x00, 0x00}, 0, 1},
        ProtCase{Protection::ER, {0x00, 0x00, 0x00}, -1, 1},
        ProtCase{Protection::SW, {0x00, 0x01, 0x1B}, 2, 2},
        ProtCase{Protection::SREW, {0x00, 0xC0, 0xEF}, 1, 2},
        ProtCase{Protection::SRKW, {0xFF, 0x70, 0x00}, 0, 2},
        ProtCase{Protection::SR, {0x00, 0x00, 0x00}, -1, 2},
        ProtCase{Protection::URSW, {0x00, 0x00, 0x00}, 2, 3},
        ProtCase{Protection::UREW, {0x00, 0x00, 0x00}, 1, 3},
        ProtCase{Protection::URKW, {0x00, 0x04, 0x00}, 0, 3},
        ProtCase{Protection::UR, {0x00, 0xD0, 0xCA}, -1, 3}));

TEST(Psl, FieldAccessors)
{
    Psl psl;
    psl.setCurrentMode(AccessMode::User);
    psl.setPreviousMode(AccessMode::Supervisor);
    psl.setIpl(31);
    EXPECT_EQ(psl.currentMode(), AccessMode::User);
    EXPECT_EQ(psl.previousMode(), AccessMode::Supervisor);
    EXPECT_EQ(psl.ipl(), 31);

    psl.setNzvc(true, false, true, false);
    EXPECT_TRUE(psl.n());
    EXPECT_FALSE(psl.z());
    EXPECT_TRUE(psl.v());
    EXPECT_FALSE(psl.c());

    psl.setVm(true);
    EXPECT_TRUE(psl.vm());
    psl.setVm(false);
    EXPECT_FALSE(psl.vm());
}

TEST(Psl, VmBitIsMbzOnStandardRei)
{
    EXPECT_TRUE(Psl::kMbzMask & Psl::kVm);
    // ...but the other architectural fields are not.
    EXPECT_FALSE(Psl::kMbzMask & Psl::kCurModMask);
    EXPECT_FALSE(Psl::kMbzMask & Psl::kIplMask);
    EXPECT_FALSE(Psl::kMbzMask & Psl::kCcMask);
}

TEST(Pte, FieldRoundTrip)
{
    Pte pte = Pte::make(true, Protection::URKW, true, 0x1FFFFF);
    EXPECT_TRUE(pte.valid());
    EXPECT_EQ(pte.protection(), Protection::URKW);
    EXPECT_TRUE(pte.modify());
    EXPECT_EQ(pte.pfn(), 0x1FFFFFu);

    pte.setValid(false);
    pte.setModify(false);
    pte.setPfn(42);
    EXPECT_FALSE(pte.valid());
    EXPECT_FALSE(pte.modify());
    EXPECT_EQ(pte.pfn(), 42u);
    EXPECT_EQ(pte.protection(), Protection::URKW);
}

TEST(Pte, NullPteIsInvalidButFullyAccessible)
{
    // Paper Section 4.3.1: the null PTE permits read and write from
    // all modes (so the protection check succeeds) and is invalid (so
    // the reference faults to the VMM).
    const Pte null = Pte::null();
    EXPECT_FALSE(null.valid());
    for (int m = 0; m < kNumAccessModes; ++m) {
        const auto mode = static_cast<AccessMode>(m);
        EXPECT_TRUE(protectionPermits(null.protection(), mode,
                                      AccessType::Read));
        EXPECT_TRUE(protectionPermits(null.protection(), mode,
                                      AccessType::Write));
    }
}

TEST(Opcodes, TableLookups)
{
    const InstrInfo *movl = instrInfo(0xD0);
    ASSERT_NE(movl, nullptr);
    EXPECT_EQ(movl->mnemonic, "MOVL");
    EXPECT_EQ(movl->nOperands, 2);
    EXPECT_EQ(movl->operands[0].access, OpAccess::Read);
    EXPECT_EQ(movl->operands[1].access, OpAccess::Write);

    const InstrInfo *wait = instrInfo(0xFD31);
    ASSERT_NE(wait, nullptr);
    EXPECT_EQ(wait->mnemonic, "WAIT");
    EXPECT_EQ(wait->nOperands, 0);

    EXPECT_EQ(instrInfo(0xFF), nullptr);
    EXPECT_EQ(instrInfo(0xFD00), nullptr);
    EXPECT_EQ(opcodeName(0xD0), "MOVL");
    EXPECT_EQ(opcodeName(0xFF), "???");
}

TEST(Opcodes, EverySensitiveInstructionFromThePaperIsPresent)
{
    // Table 1 and Section 4: the instructions the paper's analysis
    // covers must all be implemented.
    for (Word op : {0xBCu, 0xBDu, 0xBEu, 0xBFu, // CHMx
                    0x02u, 0xDCu, 0x0Cu, 0x0Du, // REI MOVPSL PROBEx
                    0xDAu, 0xDBu, 0x06u, 0x07u, 0x00u}) { // MTPR..HALT
        EXPECT_NE(instrInfo(op), nullptr) << std::hex << op;
    }
    EXPECT_NE(instrInfo(0xFD31), nullptr); // WAIT
    EXPECT_NE(instrInfo(0xFD32), nullptr); // PROBEVMR
    EXPECT_NE(instrInfo(0xFD33), nullptr); // PROBEVMW
}

TEST(Scb, VectorNamesAndSoftwareLevels)
{
    EXPECT_EQ(scbVectorName(0x20), "access violation");
    EXPECT_EQ(scbVectorName(0x30), "modify fault");
    EXPECT_EQ(scbVectorName(0x58), "VM emulation");
    EXPECT_EQ(softwareInterruptVector(1), 0x84);
    EXPECT_EQ(softwareInterruptVector(15), 0xBC);
    EXPECT_EQ(scbVectorName(0x9C), "software interrupt");
}

} // namespace
} // namespace vvax
