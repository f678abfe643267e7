/**
 * @file
 * ALU semantics sweep: every integer instruction is checked against a
 * host-side reference model (results AND all four condition codes).
 *
 * The Matrix tests cover the two-operand longword ops over a matrix of
 * interesting operand values.  The SRM oracle below covers every
 * integer opcode: a reference model written from the VAX SRM with
 * exact wide arithmetic, sharing no code with src/cpu/alu.h, run over
 * boundary, carry-in x PSL<IV> and seeded random rows, single-stepped
 * and inside table-driven hot loops (bare and virtualized, on every
 * host tier).
 */

#include <algorithm>
#include <array>
#include <cstring>
#include <random>
#include <sstream>
#include <vector>

#include "tests/harness.h"
#include "vmm/hypervisor.h"

namespace vvax {
namespace {

/** Execute one 2-operand ALU op on the machine, return (result, cc). */
struct AluOutcome
{
    Longword result;
    bool n, z, v, c;
};

AluOutcome
runOp(Opcode op, Longword a, Longword b)
{
    RealMachine m;
    CodeBuilder bld(0x200);
    bld.movl(Op::imm(b), Op::reg(R1));
    bld.emit(op, {Op::imm(a), Op::reg(R1)});
    bld.halt();
    auto image = bld.finish();
    m.loadImage(bld.origin(), image);
    m.cpu().setPc(bld.origin());
    m.cpu().psl().setIpl(31);
    m.cpu().setReg(SP, 0x1000);
    m.run(10);
    const Psl psl = m.cpu().psl();
    return {m.cpu().reg(R1), psl.n(), psl.z(), psl.v(), psl.c()};
}

const Longword kValues[] = {
    0,          1,          2,          0x7FFFFFFF, 0x80000000,
    0x80000001, 0xFFFFFFFF, 0xFFFFFFFE, 0x00010000, 0x0000FFFF,
    0x55555555, 0xAAAAAAAA,
};

class AluSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
  protected:
    Longword a() const { return kValues[std::get<0>(GetParam())]; }
    Longword b() const { return kValues[std::get<1>(GetParam())]; }
};

TEST_P(AluSweep, Addl2)
{
    const Longword sum = a() + b();
    const bool carry = sum < a();
    const bool overflow =
        (~(a() ^ b()) & (a() ^ sum) & 0x80000000u) != 0;
    const AluOutcome o = runOp(Opcode::ADDL2, a(), b());
    EXPECT_EQ(o.result, sum);
    EXPECT_EQ(o.n, (sum & 0x80000000u) != 0);
    EXPECT_EQ(o.z, sum == 0);
    EXPECT_EQ(o.v, overflow);
    EXPECT_EQ(o.c, carry);
}

TEST_P(AluSweep, Subl2)
{
    // SUBL2 sub, dif: dif = dif - sub; here dif=b (register), sub=a.
    const Longword dif = b() - a();
    const bool borrow = b() < a();
    const bool overflow =
        ((b() ^ a()) & (b() ^ dif) & 0x80000000u) != 0;
    const AluOutcome o = runOp(Opcode::SUBL2, a(), b());
    EXPECT_EQ(o.result, dif);
    EXPECT_EQ(o.n, (dif & 0x80000000u) != 0);
    EXPECT_EQ(o.z, dif == 0);
    EXPECT_EQ(o.v, overflow);
    EXPECT_EQ(o.c, borrow);
}

TEST_P(AluSweep, Mull2)
{
    const std::int64_t wide =
        static_cast<std::int64_t>(static_cast<std::int32_t>(a())) *
        static_cast<std::int32_t>(b());
    const auto r = static_cast<Longword>(wide);
    const bool overflow =
        wide != static_cast<std::int64_t>(static_cast<std::int32_t>(r));
    const AluOutcome o = runOp(Opcode::MULL2, a(), b());
    EXPECT_EQ(o.result, r);
    EXPECT_EQ(o.n, (r & 0x80000000u) != 0);
    EXPECT_EQ(o.z, r == 0);
    EXPECT_EQ(o.v, overflow);
    EXPECT_FALSE(o.c);
}

TEST_P(AluSweep, Logical)
{
    // BISL2 / BICL2 / XORL2: N and Z from the result, V = 0.
    {
        const Longword r = a() | b();
        const AluOutcome o = runOp(Opcode::BISL2, a(), b());
        EXPECT_EQ(o.result, r);
        EXPECT_EQ(o.n, (r & 0x80000000u) != 0);
        EXPECT_EQ(o.z, r == 0);
        EXPECT_FALSE(o.v);
    }
    {
        const Longword r = ~a() & b();
        const AluOutcome o = runOp(Opcode::BICL2, a(), b());
        EXPECT_EQ(o.result, r);
        EXPECT_EQ(o.z, r == 0);
    }
    {
        const Longword r = a() ^ b();
        const AluOutcome o = runOp(Opcode::XORL2, a(), b());
        EXPECT_EQ(o.result, r);
        EXPECT_EQ(o.z, r == 0);
    }
}

TEST_P(AluSweep, CompareMatchesReference)
{
    RealMachine m;
    CodeBuilder bld(0x200);
    bld.cmpl(Op::imm(a()), Op::imm(b()));
    bld.halt();
    auto image = bld.finish();
    m.loadImage(bld.origin(), image);
    m.cpu().setPc(bld.origin());
    m.cpu().psl().setIpl(31);
    m.cpu().setReg(SP, 0x1000);
    m.run(10);
    const Psl psl = m.cpu().psl();
    EXPECT_EQ(psl.n(), static_cast<std::int32_t>(a()) <
                           static_cast<std::int32_t>(b()));
    EXPECT_EQ(psl.z(), a() == b());
    EXPECT_FALSE(psl.v());
    EXPECT_EQ(psl.c(), a() < b());
}

TEST_P(AluSweep, DivisionWhenDefined)
{
    if (b() == 0)
        return; // divide-by-zero trap covered elsewhere
    const auto divisor = static_cast<std::int32_t>(b());
    const auto dividend = static_cast<std::int32_t>(a());
    if (dividend == INT32_MIN && divisor == -1)
        return; // overflow case covered elsewhere
    // DIVL2 divisor, quotient: q = a/b ... operand order: DIVL2
    // div.rl, quo.ml: quo = quo / div.  Here register holds a.
    RealMachine m;
    CodeBuilder bld(0x200);
    bld.movl(Op::imm(a()), Op::reg(R1));
    bld.emit(Opcode::DIVL2, {Op::imm(b()), Op::reg(R1)});
    bld.halt();
    auto image = bld.finish();
    m.loadImage(bld.origin(), image);
    m.cpu().setPc(bld.origin());
    m.cpu().psl().setIpl(31);
    m.cpu().setReg(SP, 0x1000);
    m.run(10);
    EXPECT_EQ(static_cast<std::int32_t>(m.cpu().reg(R1)),
              dividend / divisor);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AluSweep,
    ::testing::Combine(::testing::Range(0, 12), ::testing::Range(0, 12)));

// =====================================================================
// SRM oracle
//
// The lockstep suites compare host tiers with each other and bare runs
// with virtualized ones; an error in semantics every tier shares is
// invisible to them.  This model is written from the instruction
// descriptions of the VAX SRM instead, with exact wide arithmetic:
// V when the exact result does not fit the destination, C as the
// unsigned carry or borrow of the exact operation, N and Z from the
// stored result, and C left alone where the SRM says "C <- C".  It
// never includes src/cpu/alu.h.
// =====================================================================

namespace srm {

using Wide = __int128;

/** One row of inputs: R0..R5 and the PSL bits an instruction reads. */
struct In
{
    std::array<Longword, 6> r{};
    bool c = false;  //!< PSL<C> before the instruction
    bool iv = false; //!< PSL<IV>: overflow traps enabled
};

/** What the SRM says an instruction leaves behind. */
struct Out
{
    std::array<Longword, 6> r{};
    bool n = false, z = false, v = false, c = false;
    Longword trap = 0;    //!< arithmetic trap code taken, 0 for none
    bool taken = false;   //!< AOB/SOB branched; CASE used its table
    Longword index = 0;   //!< CASE: the table entry used
    Longword pushed = 0;  //!< PUSHx: the longword pushed

    bool operator==(const Out &) const = default;
};

std::string
show(const Out &o)
{
    std::ostringstream os;
    os << std::hex;
    for (int i = 0; i < 6; ++i)
        os << "r" << i << "=" << o.r[static_cast<std::size_t>(i)] << " ";
    os << "nzvc=" << o.n << o.z << o.v << o.c << " trap=" << o.trap
       << " taken=" << o.taken << " index=" << o.index
       << " pushed=" << o.pushed;
    return os.str();
}

/** gtest's printer for Out. */
void
PrintTo(const Out &o, std::ostream *os)
{
    *os << show(o);
}

std::string
show(const In &in)
{
    std::ostringstream os;
    os << std::hex;
    for (int i = 0; i < 6; ++i)
        os << "r" << i << "=" << in.r[static_cast<std::size_t>(i)] << " ";
    os << "c=" << in.c << " iv=" << in.iv;
    return os.str();
}

constexpr Longword
low(int bits)
{
    return bits == 32 ? 0xFFFFFFFFu : (1u << bits) - 1;
}

/** The low @p bits of @p v as a signed integer. */
constexpr Wide
sx(Longword v, int bits = 32)
{
    const Longword m = v & low(bits);
    return (m >> (bits - 1)) & 1 ? Wide(m) - (Wide(1) << bits) : Wide(m);
}

constexpr bool
fits32(Wide x)
{
    return x >= INT32_MIN && x <= INT32_MAX;
}

int
widthOf(Opcode op)
{
    switch (op) {
      case Opcode::MOVB: case Opcode::CLRB: case Opcode::TSTB:
      case Opcode::CMPB: case Opcode::CASEB: case Opcode::MOVZBL:
      case Opcode::CVTBL:
        return 8;
      case Opcode::MOVW: case Opcode::CLRW: case Opcode::TSTW:
      case Opcode::CMPW: case Opcode::CASEW: case Opcode::MOVZWL:
      case Opcode::CVTWL:
        return 16;
      default:
        return 32;
    }
}

/**
 * The SRM's outcome of @p op with the fixed register operands the
 * harness uses (see kSpecs): src R0, dst R1 for the two-operand forms;
 * R0, R1 -> R2 for the three-operand ones.
 */
Out
model(Opcode op, const In &in)
{
    Out o;
    o.r = in.r;
    o.c = in.c; // C <- C unless the instruction says otherwise
    auto &r = o.r;
    const Longword *x = in.r.data();
    const int bits = widthOf(op);
    const Longword m = low(bits);
    const auto nz = [&](Longword res, int width = 32) {
        o.n = sx(res, width) < 0;
        o.z = (res & low(width)) == 0;
    };
    // A store at the operand size leaves the register's upper bits.
    const auto merge = [&](Longword old, Longword v) {
        return (old & ~m) | (v & m);
    };
    // Integer arithmetic into a longword: N, Z from the stored result,
    // V iff the exact result does not fit, C as given.
    const auto arith = [&](int dst, Wide exact, bool c) {
        r[static_cast<std::size_t>(dst)] = static_cast<Longword>(exact);
        nz(r[static_cast<std::size_t>(dst)]);
        o.v = !fits32(exact);
        o.c = c;
    };
    const Wide a = sx(x[0]), b = sx(x[1]);
    const std::uint64_t ua = x[0], ub = x[1];
    const unsigned cin = in.c ? 1 : 0;

    switch (op) {
      case Opcode::MOVB: case Opcode::MOVW: case Opcode::MOVL:
        r[1] = merge(x[1], x[0]);
        nz(x[0], bits);
        break;
      case Opcode::MOVZBL: case Opcode::MOVZWL:
        r[1] = x[0] & m;
        nz(r[1]);
        break;
      case Opcode::CVTBL: case Opcode::CVTWL:
        r[1] = static_cast<Longword>(sx(x[0], bits));
        nz(r[1]);
        o.c = false;
        break;
      case Opcode::MOVAB: case Opcode::MOVAL:
        r[1] = x[0];
        nz(r[1]);
        break;
      case Opcode::PUSHL: case Opcode::PUSHAL:
        o.pushed = x[0];
        nz(x[0]);
        break;
      case Opcode::MOVQ:
        r[2] = x[0];
        r[3] = x[1];
        o.n = sx(x[1]) < 0;
        o.z = (x[0] | x[1]) == 0;
        break;
      case Opcode::CLRB: case Opcode::CLRW: case Opcode::CLRL:
        r[1] = merge(x[1], 0);
        o.z = true;
        break;
      case Opcode::CLRQ:
        r[2] = r[3] = 0;
        o.z = true;
        break;
      case Opcode::TSTB: case Opcode::TSTW: case Opcode::TSTL:
        nz(x[0], bits);
        o.c = false;
        break;
      case Opcode::CMPB: case Opcode::CMPW: case Opcode::CMPL:
        o.n = sx(x[0], bits) < sx(x[1], bits);
        o.z = (x[0] & m) == (x[1] & m);
        o.c = (x[0] & m) < (x[1] & m);
        break;
      case Opcode::MCOML:
        r[1] = ~x[0];
        nz(r[1]);
        break;
      case Opcode::BISL2: r[1] = x[1] | x[0]; nz(r[1]); break;
      case Opcode::BISL3: r[2] = x[1] | x[0]; nz(r[2]); break;
      case Opcode::BICL2: r[1] = x[1] & ~x[0]; nz(r[1]); break;
      case Opcode::BICL3: r[2] = x[1] & ~x[0]; nz(r[2]); break;
      case Opcode::XORL2: r[1] = x[1] ^ x[0]; nz(r[1]); break;
      case Opcode::XORL3: r[2] = x[1] ^ x[0]; nz(r[2]); break;
      case Opcode::ROTL: {
        // Rotating src:src right by 32 - n leaves src rotated left by n.
        const auto n = static_cast<int>(((sx(x[0], 8) % 32) + 32) % 32);
        const std::uint64_t twice = ub << 32 | ub;
        r[2] = static_cast<Longword>(twice >> (32 - n));
        nz(r[2]);
        break;
      }
      case Opcode::ADDL2: arith(1, b + a, ub + ua > 0xFFFFFFFFu); break;
      case Opcode::ADDL3: arith(2, b + a, ub + ua > 0xFFFFFFFFu); break;
      case Opcode::SUBL2: arith(1, b - a, ub < ua); break;
      case Opcode::SUBL3: arith(2, b - a, ub < ua); break;
      case Opcode::INCL: arith(1, b + 1, ub + 1 > 0xFFFFFFFFu); break;
      case Opcode::DECL: arith(1, b - 1, ub < 1); break;
      case Opcode::ADWC:
        arith(1, b + a + cin, ub + ua + cin > 0xFFFFFFFFu);
        break;
      case Opcode::SBWC:
        arith(1, b - a - cin, ub < ua + cin);
        break;
      case Opcode::MNEGL:
        arith(1, -a, x[0] != 0); // C <- dst NEQ 0
        break;
      case Opcode::MULL2: arith(1, b * a, false); break;
      case Opcode::MULL3: arith(2, b * a, false); break;
      case Opcode::DIVL2: case Opcode::DIVL3: {
        // Divide by zero or overflow: the quotient is the dividend.
        const int dst = op == Opcode::DIVL2 ? 1 : 2;
        const bool zero = a == 0;
        const Wide q = zero ? b : b / a;
        r[static_cast<std::size_t>(dst)] =
            fits32(q) && !zero ? static_cast<Longword>(q) : x[1];
        nz(r[static_cast<std::size_t>(dst)]);
        o.v = zero || !fits32(q);
        o.c = false;
        if (zero)
            o.trap = arithcode::kIntegerDivideByZero;
        break;
      }
      case Opcode::ASHL: {
        const auto cnt = static_cast<int>(sx(x[0], 8));
        if (cnt >= 64) {
            r[2] = 0;
            o.v = x[1] != 0;
        } else if (cnt >= 0) {
            const Wide exact = b * (Wide(1) << cnt);
            r[2] = static_cast<Longword>(exact);
            o.v = !fits32(exact);
        } else {
            r[2] = static_cast<Longword>(b >> std::min(-cnt, 63));
        }
        nz(r[2]);
        o.c = false;
        break;
      }
      case Opcode::EMUL: {
        const Wide prod = a * b + sx(x[2]);
        r[4] = static_cast<Longword>(prod);
        r[5] = static_cast<Longword>(prod >> 32);
        o.n = prod < 0;
        o.z = prod == 0;
        o.c = false;
        break;
      }
      case Opcode::EDIV: {
        // Divide by zero or overflow: quotient = low dividend, rem 0.
        const Wide divd =
            static_cast<std::int64_t>(std::uint64_t{x[3]} << 32 | x[2]);
        const bool zero = a == 0;
        const Wide q = zero ? 0 : divd / a;
        if (zero || !fits32(q)) {
            r[4] = x[2];
            r[5] = 0;
            o.v = true;
        } else {
            r[4] = static_cast<Longword>(q);
            r[5] = static_cast<Longword>(divd % a);
        }
        nz(r[4]);
        o.c = false;
        if (zero)
            o.trap = arithcode::kIntegerDivideByZero;
        break;
      }
      case Opcode::AOBLSS: case Opcode::AOBLEQ:
        // R0 is the limit, R1 the index; C <- C.
        arith(1, b + 1, in.c);
        o.taken = op == Opcode::AOBLSS ? sx(r[1]) < a : sx(r[1]) <= a;
        break;
      case Opcode::SOBGEQ: case Opcode::SOBGTR:
        arith(1, b - 1, in.c);
        o.taken = op == Opcode::SOBGEQ ? sx(r[1]) >= 0 : sx(r[1]) > 0;
        break;
      case Opcode::CASEB: case Opcode::CASEW: case Opcode::CASEL: {
        // R0 selector, R1 base, R2 limit, compared at the operand size.
        const Longword tmp = (x[0] - x[1]) & m;
        const Longword limit = x[2] & m;
        o.n = sx(tmp, bits) < sx(limit, bits);
        o.z = tmp == limit;
        o.c = tmp < limit;
        o.taken = tmp <= limit;
        o.index = o.taken ? tmp : 0;
        break;
      }
      default:
        ADD_FAILURE() << "no SRM model for opcode " << static_cast<int>(op);
    }
    if (o.v && in.iv && o.trap == 0)
        o.trap = arithcode::kIntegerOverflow;
    return o;
}

// ---------------------------------------------------------------------
// The instructions under test and their operand rows.

enum class Form : Byte
{
    Plain,  //!< result in registers
    Push,   //!< PUSHx: the pushed longword is checked too
    Branch, //!< AOBxxx / SOBxxx
    Case,   //!< CASEx with its displacement table
};

struct Spec
{
    const char *name;
    Opcode op;
    std::vector<Byte> regs; //!< register operands, in order
    Form form = Form::Plain;
    /** Operands emitted as #value in the hot loop (the fused
     *  immediate shapes), as a mask: bit i is operand i. */
    unsigned imm = 0;
    /** The hot loop's shape has a fused handler in the threaded
     *  driver, so it must not replay through L_Generic. */
    bool fused = false;
};

/** MOVAx and PUSHAL take an address: their operand is (R0). */
bool
takesAddress(Opcode op)
{
    return op == Opcode::MOVAB || op == Opcode::MOVAL ||
           op == Opcode::PUSHAL;
}

const Longword kBoundary[] = {
    0,          1,          2,          0xFFFFFFFF, 0xFFFFFFFE,
    0x7FFFFFFF, 0x80000000, 0x80000001, 0x7FFFFFFE, 0x0000FFFF,
    0x00008000, 0x00007FFF, 0x00010000, 0xFFFF8000, 0x00000080,
    0x0000007F, 0x000000FF, 0xFFFFFF80, 0x12348000, 0xABCD0080,
    0x55555555, 0xAAAAAAAA,
};

/** Limits the hot loop can lay out a CASE table for. */
const Longword kCaseLimits[] = {0, 1, 2, 5, 0x7F, 0x80, 0xFF};

/** A register an opcode reads and the values the sweep gives it. */
struct Input
{
    Byte reg;
    std::vector<Longword> values;
    bool closed = false; //!< random rows also pick from values
};

std::vector<Input>
inputsOf(Opcode op, bool hot_loop)
{
    const std::vector<Longword> all(std::begin(kBoundary),
                                    std::end(kBoundary));
    Input counts{R0, {}, true};
    for (int n = -64; n <= 64; ++n)
        counts.values.push_back(static_cast<Longword>(n));
    const std::vector<Longword> small = {0, 1, 0xFFFFFFFF, 0x7FFFFFFF,
                                         0x80000000};
    switch (op) {
      case Opcode::INCL: case Opcode::DECL: case Opcode::CLRB:
      case Opcode::CLRW: case Opcode::CLRL: case Opcode::SOBGEQ:
      case Opcode::SOBGTR:
        return {{R1, all}};
      case Opcode::CLRQ:
        return {{R2, all}};
      case Opcode::MOVB: case Opcode::MOVW:
        return {{R0, all}, {R1, small}};
      case Opcode::MOVL: case Opcode::MOVZBL: case Opcode::MOVZWL:
      case Opcode::CVTBL: case Opcode::CVTWL: case Opcode::MOVAB:
      case Opcode::MOVAL: case Opcode::PUSHL: case Opcode::PUSHAL:
      case Opcode::TSTB: case Opcode::TSTW: case Opcode::TSTL:
      case Opcode::MCOML: case Opcode::MNEGL:
        return {{R0, all}};
      case Opcode::ASHL: case Opcode::ROTL:
        return {counts, {R1, all}};
      case Opcode::EMUL:
        return {{R0, all}, {R1, all}, {R2, small}};
      case Opcode::EDIV:
        return {{R0, all}, {R2, all}, {R3, small}};
      case Opcode::CASEB: case Opcode::CASEW: case Opcode::CASEL:
        if (hot_loop) {
            return {{R0, all},
                    {R1, small},
                    {R2,
                     {std::begin(kCaseLimits), std::end(kCaseLimits)},
                     true}};
        }
        return {{R0, all}, {R1, small}, {R2, all}};
      default:
        return {{R0, all}, {R1, all}};
    }
}

/** The registers whose values the hot loop bakes into its code (the
 *  immediate operands or the CASE limit). */
std::vector<Byte>
bakedRegs(const Spec &s)
{
    std::vector<Byte> regs;
    for (std::size_t i = 0; i < s.regs.size(); ++i) {
        if ((s.imm >> i) & 1)
            regs.push_back(s.regs[i]);
    }
    if (s.form == Form::Case)
        regs.push_back(R2);
    return regs;
}

/**
 * Every combination of the swept register values x carry in x
 * PSL<IV>, then seeded random rows.  Registers the opcode does not
 * read hold a fixed pattern, so a stray write shows.
 */
std::vector<In>
rowsFor(const Spec &s, bool hot_loop)
{
    const auto inputs = inputsOf(s.op, hot_loop);
    const auto baked = bakedRegs(s);
    In base;
    for (std::size_t i = 0; i < base.r.size(); ++i)
        base.r[i] = 0xC0DE0000u + static_cast<Longword>(i);
    std::vector<In> rows{base};
    for (const Input &input : inputs) {
        std::vector<In> next;
        for (const In &row : rows) {
            for (const Longword v : input.values) {
                In r = row;
                r.r[input.reg] = v;
                next.push_back(r);
            }
        }
        rows = std::move(next);
    }
    std::vector<In> out;
    for (const In &row : rows) {
        for (const bool c : {false, true}) {
            for (const bool iv : {false, true}) {
                In r = row;
                r.c = c;
                r.iv = iv;
                out.push_back(r);
            }
        }
    }
    std::mt19937 rng(static_cast<std::uint32_t>(s.op));
    for (int i = 0; i < 128; ++i) {
        In r = base;
        for (const Input &in : inputs) {
            // A baked register keeps to its values: every new value
            // is another copy of the loop.
            const bool pick =
                in.closed ||
                (hot_loop && std::find(baked.begin(), baked.end(),
                                       in.reg) != baked.end());
            r.r[in.reg] = pick ? in.values[rng() % in.values.size()]
                               : static_cast<Longword>(rng());
        }
        r.c = rng() & 1;
        r.iv = rng() & 1;
        out.push_back(r);
    }
    return out;
}

/** Emit the instruction under test; with @p baked, the spec's
 *  immediate operands take their values from that row, and @p target
 *  is the branch target. */
void
emitUnderTest(CodeBuilder &b, const Spec &s, const In *baked,
              Label target)
{
    std::vector<Op> ops;
    for (std::size_t i = 0; i < s.regs.size(); ++i) {
        if (baked != nullptr && ((s.imm >> i) & 1))
            ops.push_back(Op::imm(baked->r[s.regs[i]]));
        else if (i == 0 && takesAddress(s.op))
            ops.push_back(Op::deferred(s.regs[i]));
        else
            ops.push_back(Op::reg(s.regs[i]));
    }
    switch (s.op) {
      case Opcode::AOBLSS: b.aoblss(ops[0], ops[1], target); return;
      case Opcode::AOBLEQ: b.aobleq(ops[0], ops[1], target); return;
      case Opcode::SOBGEQ: b.sobgeq(ops[0], target); return;
      case Opcode::SOBGTR: b.sobgtr(ops[0], target); return;
      default: break;
    }
    switch (ops.size()) {
      case 1: b.emit(s.op, {ops[0]}); return;
      case 2: b.emit(s.op, {ops[0], ops[1]}); return;
      case 3: b.emit(s.op, {ops[0], ops[1], ops[2]}); return;
      default: b.emit(s.op, {ops[0], ops[1], ops[2], ops[3]}); return;
    }
}

/** Collects mismatches, reporting the first few in full. */
class Checker
{
  public:
    explicit Checker(std::string where) : where_(std::move(where)) {}
    ~Checker()
    {
        EXPECT_EQ(bad_, 0u) << where_ << ": " << bad_ << " of " << rows_
                            << " rows differ from the SRM";
    }

    void
    check(Opcode op, const In &in, const Out &got)
    {
        ++rows_;
        const Out want = model(op, in);
        if (got == want)
            return;
        if (++bad_ <= 3) {
            ADD_FAILURE() << where_ << "\n  in:   " << show(in)
                          << "\n  SRM:  " << show(want)
                          << "\n  got:  " << show(got);
        }
    }

  private:
    std::string where_;
    std::size_t rows_ = 0;
    std::size_t bad_ = 0;
};

const char *
tierName(ExecTier tier)
{
    switch (tier) {
      case ExecTier::Reference: return "ref";
      case ExecTier::Fast: return "fast";
      default: return "threaded";
    }
}

// ---------------------------------------------------------------------
// Single steps: the instruction at kStepCode, R0..R5 and the PSL set
// per row, one step() each.

constexpr VirtAddr kStepCode = 0x10000;
constexpr VirtAddr kStepHandler = 0x18000;
constexpr PhysAddr kStepScb = 0x4000;
constexpr Longword kStepStack = 0x8000;
constexpr Word kStepTable[] = {0x40, 0x80, 0xC0, 0xFF00};

void
stepSweep(const Spec &s, const std::vector<In> &rows, ExecTier tier)
{
    RealMachine m;
    m.cpu().setExecTier(tier);
    CodeBuilder b(kStepCode);
    const Label target = b.newLabel();
    emitUnderTest(b, s, nullptr, target);
    const VirtAddr next = b.here();
    if (s.form == Form::Case) {
        for (const Word w : kStepTable)
            b.word(w);
    }
    if (s.form == Form::Branch) {
        b.nop();
        b.nop();
        b.bind(target);
    }
    test::loadAt(m, b);
    m.cpu().setScbb(kStepScb);
    m.memory().write32(
        kStepScb + static_cast<PhysAddr>(ScbVector::Arithmetic),
        kStepHandler);
    m.cpu().psl().setIpl(31);
    const Longword psl0 =
        m.cpu().psl().raw() & ~(Psl::kCcMask | Psl::kIv);
    const Longword ram = m.config().ramBytes;

    Checker checker(std::string("step ") + s.name + " on " + tierName(tier));
    for (const In &in : rows) {
        const Out want = model(s.op, in);
        VirtAddr want_pc = next;
        if (s.form == Form::Branch && want.taken)
            want_pc = b.labelAddress(target);
        if (s.form == Form::Case) {
            const Longword mask = low(widthOf(s.op));
            if (want.taken) {
                // Only table entries inside RAM are defined here.
                const Longword entry = next + 2 * want.index;
                if (entry + 1 >= ram)
                    continue;
                want_pc = next + static_cast<Longword>(sx(
                                     m.memory().read16(entry), 16));
            } else {
                want_pc = next + 2 * ((in.r[2] & mask) + 1);
            }
        }
        for (int i = 0; i < 6; ++i)
            m.cpu().setReg(i, in.r[static_cast<std::size_t>(i)]);
        m.cpu().setReg(SP, kStepStack);
        m.cpu().setPc(kStepCode);
        m.cpu().psl().setRaw(psl0 | (in.c ? Psl::kC : 0) |
                             (in.iv ? Psl::kIv : 0));
        m.cpu().step();

        Out got;
        for (int i = 0; i < 6; ++i)
            got.r[static_cast<std::size_t>(i)] = m.cpu().reg(i);
        Longword psl = m.cpu().psl().raw();
        VirtAddr pc = m.cpu().reg(PC);
        Longword sp = m.cpu().reg(SP);
        if (pc == kStepHandler) {
            // An arithmetic trap: code, PC and PSL on the stack.
            got.trap = m.memory().read32(sp);
            pc = m.memory().read32(sp + 4);
            psl = m.memory().read32(sp + 8);
            sp += 12;
        }
        const Psl p(psl);
        got.n = p.n();
        got.z = p.z();
        got.v = p.v();
        got.c = p.c();
        // The branch and the push are judged against the model's own
        // answer; a wrong PC or stack shows as a mismatch.
        got.taken = pc == want_pc ? want.taken : !want.taken;
        got.index = want.index;
        if (s.form == Form::Push) {
            got.pushed = m.memory().read32(sp);
            if (sp != kStepStack - 4)
                got.pushed = ~want.pushed;
        }
        checker.check(s.op, in, got);
    }
}

// ---------------------------------------------------------------------
// Hot loops: the rows laid out as a table that a loop walks, running
// the instruction once per row and storing R0..R5, the PSL, the trap
// code and the branch outcome.

constexpr VirtAddr kLoopCode = 0x10000;
constexpr VirtAddr kLoopOut = 0x80000;
constexpr Longword kLoopStack = 0x8000;
constexpr Longword kRowBytes = 28; // R0..R5, PSW
constexpr Longword kOutLongs = 9;  // R0..R5, PSL, trap, aux

struct LoopRun
{
    std::vector<In> rows; //!< in the order the loop ran them
    std::vector<Out> outs;
    Stats stats;
};

/** Rows sharing the values of the registers the hot loop bakes into
 *  the code (the immediate operands or the CASE limit). */
std::vector<std::vector<In>>
groupRows(const Spec &s, const std::vector<In> &rows)
{
    const auto baked = bakedRegs(s);
    if (baked.empty())
        return {rows};
    std::vector<std::vector<In>> groups;
    std::vector<std::vector<Longword>> keys;
    for (const In &in : rows) {
        std::vector<Longword> k;
        for (const Byte reg : baked)
            k.push_back(in.r[reg]);
        const auto it = std::find(keys.begin(), keys.end(), k);
        if (it == keys.end()) {
            keys.push_back(k);
            groups.push_back({in});
        } else {
            groups[static_cast<std::size_t>(it - keys.begin())].push_back(in);
        }
    }
    return groups;
}

CodeBuilder
hotLoopProgram(const Spec &s, const std::vector<std::vector<In>> &groups)
{
    CodeBuilder b(kLoopCode);
    const Label handler = b.newLabel();
    const Label table = b.newLabel();
    b.movl(Op::imm(kLoopStack), Op::reg(SP));
    b.movl(Op::immLabel(handler),
           Op::abs(static_cast<Longword>(ScbVector::Arithmetic)));
    b.movl(Op::immLabel(table), Op::reg(R6));
    b.movl(Op::imm(kLoopOut), Op::reg(R7));
    for (const auto &group : groups) {
        const In &first = group.front();
        const Label loop = b.newLabel();
        const Label join = b.newLabel();
        const Label done = b.newLabel();
        b.movl(Op::imm(static_cast<Longword>(group.size())), Op::reg(R8));
        // CASE: one stub per table entry, laid out ahead of the loop
        // so the table can name them.
        std::vector<VirtAddr> stubs;
        if (s.form == Form::Case) {
            b.brw(loop);
            const Longword entries =
                (first.r[2] & low(widthOf(s.op))) + 1;
            for (Longword k = 0; k < entries; ++k) {
                stubs.push_back(b.here());
                b.movpsl(Op::reg(R10));
                b.movl(Op::imm(k + 1), Op::reg(R11));
                b.brw(join);
            }
        }
        b.bind(loop);
        for (int i = 0; i < 6; ++i)
            b.movl(Op::disp(4 * i, R6), Op::reg(static_cast<Byte>(i)));
        b.addl2(Op::lit(kRowBytes), Op::reg(R6));
        b.clrl(Op::reg(R9));
        b.clrl(Op::reg(R11));
        b.bicpsw(Op::lit(Psl::kIv | Psl::kCcMask));
        b.bispsw(Op::disp(-4, R6));
        const Label taken = b.newLabel();
        emitUnderTest(b, s, &first, taken);
        if (s.form == Form::Case) {
            const VirtAddr base = b.here();
            for (const VirtAddr stub : stubs)
                b.word(static_cast<Word>(stub - base));
        }
        b.movpsl(Op::reg(R10));
        if (s.form == Form::Push)
            b.movl(Op::autoInc(SP), Op::reg(R11));
        if (s.form == Form::Branch) {
            b.brb(join);
            b.bind(taken);
            b.movpsl(Op::reg(R10));
            b.movl(Op::lit(1), Op::reg(R11));
        }
        b.bind(join);
        for (int i = 0; i < 6; ++i)
            b.movl(Op::reg(static_cast<Byte>(i)), Op::autoInc(R7));
        b.movl(Op::reg(R10), Op::autoInc(R7));
        b.movl(Op::reg(R9), Op::autoInc(R7));
        b.movl(Op::reg(R11), Op::autoInc(R7));
        b.decl_(Op::reg(R8));
        b.beql(done);
        b.brw(loop);
        b.bind(done);
    }
    b.halt();
    b.align(4); // SCB entries steal the low bits for stack select
    b.bind(handler);
    b.movl(Op::autoInc(SP), Op::reg(R9)); // trap code
    b.rei();
    b.align(4);
    b.bind(table);
    for (const auto &group : groups) {
        for (const In &in : group) {
            for (const Longword v : in.r)
                b.longword(v);
            b.longword((in.c ? Psl::kC : 0) | (in.iv ? Psl::kIv : 0));
        }
    }
    return b;
}

LoopRun
runHotLoop(const Spec &s, const std::vector<In> &rows, bool virtualized,
           ExecTier tier)
{
    const auto groups = groupRows(s, rows);
    CodeBuilder b = hotLoopProgram(s, groups);
    const auto image = b.finish();
    EXPECT_LE(b.here(), kLoopOut) << "program overlaps its results";
    LoopRun run;
    for (const auto &group : groups)
        run.rows.insert(run.rows.end(), group.begin(), group.end());
    std::vector<Byte> out(run.rows.size() * kOutLongs * 4);

    MachineConfig mc;
    mc.level = MicrocodeLevel::Modified;
    mc.ramBytes = 16 * 1024 * 1024;
    RealMachine m(mc);
    m.cpu().setExecTier(tier);
    if (virtualized) {
        Hypervisor hv(m);
        VmConfig vc;
        vc.memBytes = 0x180000;
        VirtualMachine &vm = hv.createVm(vc);
        hv.loadVmImage(vm, b.origin(), image);
        hv.startVm(vm, b.origin());
        hv.run(100000000);
        EXPECT_EQ(vm.haltReason, VmHaltReason::HaltInstruction);
        m.memory().readBlock(vm.vmPhysToReal(kLoopOut), out);
    } else {
        m.loadImage(b.origin(), image);
        m.cpu().setPc(b.origin());
        m.cpu().psl().setIpl(31);
        m.run(100000000);
        EXPECT_EQ(m.cpu().haltReason(), HaltReason::HaltInstruction);
        m.memory().readBlock(kLoopOut, out);
    }
    run.stats = m.stats();

    for (std::size_t i = 0; i < run.rows.size(); ++i) {
        Longword w[kOutLongs];
        std::memcpy(w, out.data() + i * sizeof(w), sizeof(w));
        Out o;
        std::copy(w, w + 6, o.r.begin());
        const Psl p(w[6]);
        o.n = p.n();
        o.z = p.z();
        o.v = p.v();
        o.c = p.c();
        o.trap = w[7];
        if (s.form == Form::Push)
            o.pushed = w[8];
        else
            o.taken = w[8] != 0;
        if (s.form == Form::Case && o.taken)
            o.index = w[8] - 1;
        run.outs.push_back(o);
    }
    return run;
}

// ---------------------------------------------------------------------

const std::vector<Spec> &
specs()
{
    using O = Opcode;
    static const std::vector<Spec> kSpecs = {
        {"MOVB", O::MOVB, {R0, R1}},
        {"MOVW", O::MOVW, {R0, R1}},
        {"MOVL", O::MOVL, {R0, R1}, Form::Plain, 0, true},
        {"MOVL #", O::MOVL, {R0, R1}, Form::Plain, 1, true},
        {"MOVZBL", O::MOVZBL, {R0, R1}},
        {"MOVZWL", O::MOVZWL, {R0, R1}},
        {"MOVAB", O::MOVAB, {R0, R1}},
        {"MOVAL", O::MOVAL, {R0, R1}},
        {"PUSHL", O::PUSHL, {R0}, Form::Push},
        {"PUSHAL", O::PUSHAL, {R0}, Form::Push},
        {"MOVQ", O::MOVQ, {R0, R2}},
        {"CLRB", O::CLRB, {R1}},
        {"CLRW", O::CLRW, {R1}},
        {"CLRL", O::CLRL, {R1}, Form::Plain, 0, true},
        {"CLRQ", O::CLRQ, {R2}},
        {"CVTBL", O::CVTBL, {R0, R1}},
        {"CVTWL", O::CVTWL, {R0, R1}},
        {"TSTB", O::TSTB, {R0}},
        {"TSTW", O::TSTW, {R0}},
        {"TSTL", O::TSTL, {R0}, Form::Plain, 0, true},
        {"CMPB", O::CMPB, {R0, R1}},
        {"CMPW", O::CMPW, {R0, R1}},
        {"CMPL", O::CMPL, {R0, R1}, Form::Plain, 0, true},
        {"CMPL #,R", O::CMPL, {R0, R1}, Form::Plain, 1, true},
        {"CMPL R,#", O::CMPL, {R0, R1}, Form::Plain, 2, true},
        {"CMPL #,#", O::CMPL, {R0, R1}, Form::Plain, 3},
        {"MCOML", O::MCOML, {R0, R1}},
        {"BISL2", O::BISL2, {R0, R1}, Form::Plain, 0, true},
        {"BISL2 #", O::BISL2, {R0, R1}, Form::Plain, 1, true},
        {"BISL3", O::BISL3, {R0, R1, R2}},
        {"BICL2", O::BICL2, {R0, R1}, Form::Plain, 0, true},
        {"BICL2 #", O::BICL2, {R0, R1}, Form::Plain, 1, true},
        {"BICL3", O::BICL3, {R0, R1, R2}},
        {"BICL3 #", O::BICL3, {R0, R1, R2}, Form::Plain, 1, true},
        {"XORL2", O::XORL2, {R0, R1}, Form::Plain, 0, true},
        {"XORL2 #", O::XORL2, {R0, R1}, Form::Plain, 1, true},
        {"XORL3", O::XORL3, {R0, R1, R2}},
        {"ROTL", O::ROTL, {R0, R1, R2}},
        {"ADDL2", O::ADDL2, {R0, R1}, Form::Plain, 0, true},
        {"ADDL2 #", O::ADDL2, {R0, R1}, Form::Plain, 1, true},
        {"ADDL3", O::ADDL3, {R0, R1, R2}},
        {"SUBL2", O::SUBL2, {R0, R1}, Form::Plain, 0, true},
        {"SUBL2 #", O::SUBL2, {R0, R1}, Form::Plain, 1, true},
        {"SUBL3", O::SUBL3, {R0, R1, R2}},
        {"INCL", O::INCL, {R1}, Form::Plain, 0, true},
        {"DECL", O::DECL, {R1}, Form::Plain, 0, true},
        {"ADWC", O::ADWC, {R0, R1}},
        {"SBWC", O::SBWC, {R0, R1}},
        {"MNEGL", O::MNEGL, {R0, R1}},
        {"MULL2", O::MULL2, {R0, R1}, Form::Plain, 0, true},
        {"MULL2 #", O::MULL2, {R0, R1}, Form::Plain, 1, true},
        {"MULL3", O::MULL3, {R0, R1, R2}},
        {"DIVL2", O::DIVL2, {R0, R1}, Form::Plain, 0, true},
        {"DIVL2 #", O::DIVL2, {R0, R1}, Form::Plain, 1, true},
        {"DIVL3", O::DIVL3, {R0, R1, R2}},
        {"ASHL", O::ASHL, {R0, R1, R2}},
        {"ASHL #", O::ASHL, {R0, R1, R2}, Form::Plain, 1, true},
        {"EMUL", O::EMUL, {R0, R1, R2, R4}},
        {"EDIV", O::EDIV, {R0, R2, R4, R5}},
        {"AOBLSS", O::AOBLSS, {R0, R1}, Form::Branch},
        {"AOBLEQ", O::AOBLEQ, {R0, R1}, Form::Branch},
        {"SOBGEQ", O::SOBGEQ, {R1}, Form::Branch, 0, true},
        {"SOBGTR", O::SOBGTR, {R1}, Form::Branch, 0, true},
        {"CASEB", O::CASEB, {R0, R1, R2}, Form::Case},
        {"CASEW", O::CASEW, {R0, R1, R2}, Form::Case},
        {"CASEL", O::CASEL, {R0, R1, R2}, Form::Case},
    };
    return kSpecs;
}

/**
 * Check @p s against the model: @p step_rows single-stepped on the
 * reference and fast tiers, then @p loop_rows in the hot loop, bare
 * and virtualized on all three tiers.  With @p driver set, the
 * threaded run must also retire the loop through the driver, and a
 * fused shape through its own handler.
 */
void
checkSpec(const Spec &s, const std::vector<In> &step_rows,
          const std::vector<In> &loop_rows, bool driver)
{
    SCOPED_TRACE(s.name);
    for (const ExecTier tier : {ExecTier::Reference, ExecTier::Fast})
        stepSweep(s, step_rows, tier);
    for (const bool virtualized : {false, true}) {
        for (const ExecTier tier :
             {ExecTier::Reference, ExecTier::Fast, ExecTier::Threaded}) {
            const LoopRun run = runHotLoop(s, loop_rows, virtualized, tier);
            Checker checker(std::string("hot loop ") + s.name +
                            (virtualized ? " virtualized" : " bare") +
                            " on " + tierName(tier));
            ASSERT_EQ(run.outs.size(), run.rows.size());
            for (std::size_t i = 0; i < run.rows.size(); ++i)
                checker.check(s.op, run.rows[i], run.outs[i]);
            if (!driver || tier != ExecTier::Threaded)
                continue;
            EXPECT_GT(run.stats.threadedInstructions,
                      run.stats.instructions / 2)
                << s.name << ": the loop must reach the driver";
            if (s.fused) {
                // Two Generic steps per row (BICPSW, BISPSW) are the
                // loop's own; a third would be the op itself.
                EXPECT_LT(run.stats.threadedGenericSteps,
                          5 * run.rows.size() / 2)
                    << s.name << " must run through its fused handler";
            }
        }
    }
}

/** The full sweep of every spec of each opcode in @p ops. */
void
expectMatchesSrm(std::initializer_list<Opcode> ops)
{
    for (const Spec &s : specs()) {
        if (std::find(ops.begin(), ops.end(), s.op) != ops.end())
            checkSpec(s, rowsFor(s, false), rowsFor(s, true), true);
    }
}

/**
 * A recorded case: the model must give @p want, written out by hand
 * from the SRM, and the machine the same on every path.
 */
void
expectRow(const char *name, const In &in, const Out &want)
{
    const auto it = std::find_if(specs().begin(), specs().end(),
                                 [&](const Spec &s) {
                                     return std::string(s.name) == name;
                                 });
    ASSERT_NE(it, specs().end()) << name;
    EXPECT_EQ(model(it->op, in), want);
    checkSpec(*it, {in}, {in}, false);
}

} // namespace srm

TEST(AluSweep, MovesMatchSrm)
{
    using O = Opcode;
    srm::expectMatchesSrm({O::MOVB, O::MOVW, O::MOVL, O::MOVZBL, O::MOVZWL,
                           O::MOVAB, O::MOVAL, O::PUSHL, O::PUSHAL, O::MOVQ,
                           O::CLRB, O::CLRW, O::CLRL, O::CLRQ});
}

TEST(AluSweep, ConvertsMatchSrm)
{
    srm::expectMatchesSrm({Opcode::CVTBL, Opcode::CVTWL});
}

TEST(AluSweep, TestsAndComparesMatchSrm)
{
    using O = Opcode;
    srm::expectMatchesSrm(
        {O::TSTB, O::TSTW, O::TSTL, O::CMPB, O::CMPW, O::CMPL});
}

TEST(AluSweep, LogicalOpsMatchSrm)
{
    using O = Opcode;
    srm::expectMatchesSrm({O::MCOML, O::BISL2, O::BISL3, O::BICL2, O::BICL3,
                           O::XORL2, O::XORL3, O::ROTL});
}

TEST(AluSweep, AddAndSubtractMatchSrm)
{
    using O = Opcode;
    srm::expectMatchesSrm({O::ADDL2, O::ADDL3, O::SUBL2, O::SUBL3, O::INCL,
                           O::DECL, O::MNEGL});
}

TEST(AluSweep, AddAndSubtractWithCarryMatchSrm)
{
    srm::expectMatchesSrm({Opcode::ADWC, Opcode::SBWC});
}

TEST(AluSweep, MultiplyDivideAndShiftMatchSrm)
{
    using O = Opcode;
    srm::expectMatchesSrm(
        {O::MULL2, O::MULL3, O::DIVL2, O::DIVL3, O::ASHL});
}

TEST(AluSweep, ExtendedMultiplyAndDivideMatchSrm)
{
    srm::expectMatchesSrm({Opcode::EMUL, Opcode::EDIV});
}

TEST(AluSweep, LoopInstructionsMatchSrm)
{
    using O = Opcode;
    srm::expectMatchesSrm({O::AOBLSS, O::AOBLEQ, O::SOBGEQ, O::SOBGTR});
}

TEST(AluSweep, CaseMatchesSrm)
{
    srm::expectMatchesSrm({Opcode::CASEB, Opcode::CASEW, Opcode::CASEL});
}

// Recorded wrong answers, each with the SRM's outcome written out.

TEST(AluSweep, SbwcBorrowOutOfInt32MinSetsV)
{
    // 0x80000000 - 0 - C: the exact difference is INT32_MIN - 1.
    srm::In in;
    in.r[1] = 0x80000000;
    in.c = true;
    srm::Out want;
    want.r = in.r;
    want.r[1] = 0x7FFFFFFF;
    want.v = true;
    srm::expectRow("SBWC", in, want);
}

TEST(AluSweep, AdwcCarryIntoMinusOneLeavesVClear)
{
    // -1 + 0x7FFFFFFF + C = 0x7FFFFFFF fits; the unsigned sum carries.
    srm::In in;
    in.r[0] = 0x7FFFFFFF;
    in.r[1] = 0xFFFFFFFF;
    in.c = true;
    srm::Out want;
    want.r = in.r;
    want.r[1] = 0x7FFFFFFF;
    want.c = true;
    srm::expectRow("ADWC", in, want);
}

TEST(AluSweep, CvtblClearsC)
{
    // After MNEGL #1 has set C: CVTBL sets C <- 0.
    srm::In in;
    in.r[0] = 0xFFFFFFFF;
    in.c = true;
    srm::Out want;
    want.r = in.r;
    want.r[1] = 0xFFFFFFFF;
    want.n = true;
    srm::expectRow("CVTBL", in, want);
}

TEST(AluSweep, CasebSetsNFromTheSignedCompare)
{
    // Selector -1, base 0, limit 5: tmp = -1 LSS 5, but not LSSU.
    srm::In in;
    in.r[0] = 0xFF;
    in.r[2] = 5;
    srm::Out want;
    want.r = in.r;
    want.n = true;
    srm::expectRow("CASEB", in, want);
}

TEST(AluSweep, EdivOfInt64MinByMinusOneOverflows)
{
    // The one quotient a host int64 division traps on: V, the low
    // dividend as the quotient, remainder 0, and the overflow trap
    // under PSL<IV>.
    srm::In in;
    in.r[0] = 0xFFFFFFFF;
    in.r[3] = 0x80000000;
    in.iv = true;
    srm::Out want;
    want.r = in.r;
    want.r[4] = 0;
    want.r[5] = 0;
    want.z = true;
    want.v = true;
    want.trap = arithcode::kIntegerOverflow;
    srm::expectRow("EDIV", in, want);
}

} // namespace
} // namespace vvax
