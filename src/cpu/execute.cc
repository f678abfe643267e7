/**
 * @file
 * Main execute switch: data movement, integer arithmetic, logical
 * operations, branches and loop instructions.  System instructions
 * (CHM, REI, MTPR, PROBE, ...) live in exec_system.cc.
 */

#include "cpu/alu.h"
#include "cpu/cpu.h"
#include "cpu/overflow.h"

namespace vvax {

void
Cpu::execute(Decoded &d)
{
    const auto op = static_cast<Opcode>(d.opcode);

    auto commit = [&] {
        commitRegs(d);
        regs_[PC] = d.nextPc;
    };
    auto branchTo = [&](int operand_index) {
        d.nextPc = d.operands[operand_index].value;
    };
    // MUL/DIV/ASH: store the result, commit, then set the codes and
    // raise any trap (alu.h holds the semantics).
    auto arith = [&](int dst, const AluResult &r) {
        operandWrite(d, dst, r.value);
        commit();
        setCc(psl_, r.cc());
        raiseArithTraps(psl_, r);
    };

    switch (op) {
      // ----- System and control instructions (exec_system.cc) ----------
      case Opcode::HALT:
      case Opcode::LDPCTX:
      case Opcode::SVPCTX:
      case Opcode::MTPR:
      case Opcode::MFPR:
      case Opcode::WAIT:
      case Opcode::PROBEVMR:
      case Opcode::PROBEVMW:
        privilegedCheck(d);
        return;
      case Opcode::REI:
        execRei();
        return;
      case Opcode::CHMK:
        execChm(d, AccessMode::Kernel);
        return;
      case Opcode::CHME:
        execChm(d, AccessMode::Executive);
        return;
      case Opcode::CHMS:
        execChm(d, AccessMode::Supervisor);
        return;
      case Opcode::CHMU:
        execChm(d, AccessMode::User);
        return;
      case Opcode::MOVPSL:
        execMovpsl(d);
        return;
      case Opcode::PROBER:
        execProbe(d, AccessType::Read);
        return;
      case Opcode::PROBEW:
        execProbe(d, AccessType::Write);
        return;
      case Opcode::CALLS:
        execCalls(d);
        return;
      case Opcode::CALLG:
        execCallg(d);
        return;
      case Opcode::RET:
        execRet();
        return;
      case Opcode::PUSHR:
        execPushr(d);
        return;
      case Opcode::POPR:
        execPopr(d);
        return;
      case Opcode::MOVC3:
        execMovc3(d);
        return;
      case Opcode::BPT:
        commit();
        throw GuestFault::simple(ScbVector::Breakpoint, /*abort=*/false);

      case Opcode::NOP:
        commit();
        return;

      // ----- Moves -------------------------------------------------------
      case Opcode::MOVB:
      case Opcode::MOVW:
      case Opcode::MOVL: {
        const Longword v = operandRead(d, 0);
        operandWrite(d, 1, v);
        commit();
        setCcLogical(v, d.operands[0].size);
        return;
      }
      case Opcode::MOVZBL:
      case Opcode::MOVZWL: {
        const Longword v = operandRead(d, 0); // already zero-extended
        operandWrite(d, 1, v);
        commit();
        setCcLogical(v, OpSize::L);
        return;
      }
      case Opcode::CVTBL: {
        Longword v = operandRead(d, 0) & 0xFF;
        if (v & 0x80)
            v |= 0xFFFFFF00u;
        operandWrite(d, 1, v);
        commit();
        setCcLogical(v, OpSize::L);
        return;
      }
      case Opcode::CVTWL: {
        Longword v = operandRead(d, 0) & 0xFFFF;
        if (v & 0x8000)
            v |= 0xFFFF0000u;
        operandWrite(d, 1, v);
        commit();
        setCcLogical(v, OpSize::L);
        return;
      }
      case Opcode::ROTL: {
        // Left rotate by count mod 32; negative counts rotate right
        // (two's complement makes the masked count correct directly).
        const int n = static_cast<int>(operandRead(d, 0)) & 31;
        const Longword src = operandRead(d, 1);
        const Longword r =
            n == 0 ? src : ((src << n) | (src >> (32 - n)));
        operandWrite(d, 2, r);
        commit();
        setCcLogical(r, OpSize::L);
        return;
      }
      case Opcode::CLRQ: {
        operandWrite(d, 0, 0, 0);
        commit();
        psl_.setNzvc(false, true, false, psl_.c());
        return;
      }
      case Opcode::MOVQ: {
        const Longword lo = d.operands[0].value;
        const Longword hi = d.operands[0].value2;
        operandWrite(d, 1, lo, hi);
        commit();
        psl_.setNzvc((hi & 0x80000000u) != 0, lo == 0 && hi == 0,
                     false, psl_.c());
        return;
      }
      case Opcode::EMUL: {
        const auto mulr =
            static_cast<std::int64_t>(static_cast<std::int32_t>(
                operandRead(d, 0)));
        const auto muld =
            static_cast<std::int64_t>(static_cast<std::int32_t>(
                operandRead(d, 1)));
        const auto add =
            static_cast<std::int64_t>(static_cast<std::int32_t>(
                operandRead(d, 2)));
        const std::int64_t prod = mulr * muld + add;
        const auto lo = static_cast<Longword>(prod & 0xFFFFFFFF);
        const auto hi = static_cast<Longword>(
            (prod >> 32) & 0xFFFFFFFF);
        operandWrite(d, 3, lo, hi);
        commit();
        psl_.setNzvc(prod < 0, prod == 0, false, false);
        return;
      }
      case Opcode::EDIV: {
        const auto divr =
            static_cast<std::int64_t>(static_cast<std::int32_t>(
                operandRead(d, 0)));
        const std::int64_t divd = static_cast<std::int64_t>(
            (static_cast<std::uint64_t>(d.operands[1].value2) << 32) |
            d.operands[1].value);
        if (divr == 0) {
            operandWrite(d, 2, d.operands[1].value);
            operandWrite(d, 3, 0);
            commit();
            psl_.setNzvc(false, false, true, false);
            throw GuestFault::withParam(
                ScbVector::Arithmetic,
                arithcode::kIntegerDivideByZero, /*abort=*/false);
        }
        const std::int64_t q = divd / divr;
        const std::int64_t rem = divd % divr;
        const bool overflow =
            q > INT32_MAX || q < INT32_MIN;
        operandWrite(d, 2,
                     static_cast<Longword>(
                         overflow ? d.operands[1].value : q));
        operandWrite(d, 3,
                     static_cast<Longword>(overflow ? 0 : rem));
        commit();
        psl_.setNzvc(!overflow && q < 0, !overflow && q == 0,
                     overflow, false);
        raiseOverflowTrap(psl_);
        return;
      }
      case Opcode::MOVAB:
      case Opcode::MOVAL: {
        const Longword v = d.operands[0].addr;
        operandWrite(d, 1, v);
        commit();
        setCcLogical(v, OpSize::L);
        return;
      }
      case Opcode::PUSHAL: {
        const Longword v = d.operands[0].addr;
        pushLong(d, v);
        commit();
        setCcLogical(v, OpSize::L);
        return;
      }
      case Opcode::PUSHL: {
        const Longword v = operandRead(d, 0);
        pushLong(d, v);
        commit();
        setCcLogical(v, OpSize::L);
        return;
      }
      case Opcode::CLRB:
      case Opcode::CLRW:
      case Opcode::CLRL: {
        operandWrite(d, 0, 0);
        commit();
        psl_.setNzvc(false, true, false, psl_.c());
        return;
      }
      case Opcode::MNEGL: {
        const Longword s = operandRead(d, 0);
        const Longword r = 0u - s;
        operandWrite(d, 1, r);
        commit();
        psl_.setNzvc((r & 0x80000000u) != 0, r == 0, s == 0x80000000u,
                     s != 0);
        raiseOverflowTrap(psl_);
        return;
      }
      case Opcode::MCOML: {
        const Longword r = ~operandRead(d, 0);
        operandWrite(d, 1, r);
        commit();
        setCcLogical(r, OpSize::L);
        return;
      }

      // ----- Tests and compares -----------------------------------------
      case Opcode::TSTB:
      case Opcode::TSTW:
      case Opcode::TSTL: {
        const Longword v = operandRead(d, 0);
        commit();
        setCcLogical(v, d.operands[0].size);
        psl_.setFlag(Psl::kC, false);
        return;
      }
      case Opcode::CMPB:
      case Opcode::CMPW:
      case Opcode::CMPL: {
        const Longword a = operandRead(d, 0);
        const Longword b = operandRead(d, 1);
        commit();
        setCc(psl_, compareCc(a, b, d.operands[0].size));
        return;
      }

      // ----- Integer arithmetic ------------------------------------------
      case Opcode::ADDL2:
      case Opcode::ADDL3: {
        const Longword a = operandRead(d, 0);
        const Longword b = operandRead(d, 1);
        const Longword sum = a + b;
        operandWrite(d, op == Opcode::ADDL2 ? 1 : 2, sum);
        commit();
        psl_.setNzvc((sum & 0x80000000u) != 0, sum == 0,
                     addOverflows(a, b, sum), sum < a);
        raiseOverflowTrap(psl_);
        return;
      }
      case Opcode::SUBL2:
      case Opcode::SUBL3: {
        const Longword sub = operandRead(d, 0);
        const Longword min = operandRead(d, 1);
        const Longword dif = min - sub;
        operandWrite(d, op == Opcode::SUBL2 ? 1 : 2, dif);
        commit();
        psl_.setNzvc((dif & 0x80000000u) != 0, dif == 0,
                     subOverflows(min, sub, dif), min < sub);
        raiseOverflowTrap(psl_);
        return;
      }
      case Opcode::INCL:
      case Opcode::DECL: {
        const Longword a = operandRead(d, 0);
        const Longword delta = op == Opcode::INCL ? 1u : ~0u;
        const Longword r = a + delta;
        operandWrite(d, 0, r);
        commit();
        const bool v = op == Opcode::INCL ? addOverflows(a, 1, r)
                                          : subOverflows(a, 1, r);
        const bool c = op == Opcode::INCL ? r < a : a < 1;
        psl_.setNzvc((r & 0x80000000u) != 0, r == 0, v, c);
        raiseOverflowTrap(psl_);
        return;
      }
      case Opcode::ADWC:
      case Opcode::SBWC: {
        const Longword a = operandRead(d, 0);
        const Longword b = operandRead(d, 1);
        const Longword cin = psl_.c() ? 1 : 0;
        Longword r;
        bool v, c;
        if (op == Opcode::ADWC) {
            const Quadword wide = static_cast<Quadword>(a) + b + cin;
            r = static_cast<Longword>(wide);
            c = (wide >> 32) != 0;
            v = addOverflows(b, a + cin, r) || addOverflows(a, cin, a + cin);
        } else {
            const Quadword wide = static_cast<Quadword>(b) -
                                  static_cast<Quadword>(a) - cin;
            r = static_cast<Longword>(wide);
            c = static_cast<Quadword>(b) <
                static_cast<Quadword>(a) + cin;
            v = subOverflows(b, a, r) && cin == 0; // approximation
        }
        operandWrite(d, 1, r);
        commit();
        psl_.setNzvc((r & 0x80000000u) != 0, r == 0, v, c);
        raiseOverflowTrap(psl_);
        return;
      }
      case Opcode::MULL2:
      case Opcode::MULL3:
        arith(op == Opcode::MULL2 ? 1 : 2,
              mulL(operandRead(d, 0), operandRead(d, 1)));
        return;
      case Opcode::DIVL2:
      case Opcode::DIVL3:
        arith(op == Opcode::DIVL2 ? 1 : 2,
              divL(operandRead(d, 0), operandRead(d, 1)));
        return;
      case Opcode::ASHL:
        arith(2, ashL(operandRead(d, 0), operandRead(d, 1)));
        return;

      // ----- Logical -------------------------------------------------------
      case Opcode::BISL2:
      case Opcode::BISL3: {
        const Longword r = operandRead(d, 0) | operandRead(d, 1);
        operandWrite(d, op == Opcode::BISL2 ? 1 : 2, r);
        commit();
        setCcLogical(r, OpSize::L);
        return;
      }
      case Opcode::BICL2:
      case Opcode::BICL3: {
        const Longword r = ~operandRead(d, 0) & operandRead(d, 1);
        operandWrite(d, op == Opcode::BICL2 ? 1 : 2, r);
        commit();
        setCcLogical(r, OpSize::L);
        return;
      }
      case Opcode::XORL2:
      case Opcode::XORL3: {
        const Longword r = operandRead(d, 0) ^ operandRead(d, 1);
        operandWrite(d, op == Opcode::XORL2 ? 1 : 2, r);
        commit();
        setCcLogical(r, OpSize::L);
        return;
      }
      case Opcode::BISPSW: {
        const Longword mask = operandRead(d, 0);
        if (mask & ~Psl::kPswMask)
            throw GuestFault::simple(ScbVector::ReservedOperand);
        commit();
        psl_.setRaw(psl_.raw() | mask);
        return;
      }
      case Opcode::BICPSW: {
        const Longword mask = operandRead(d, 0);
        if (mask & ~Psl::kPswMask)
            throw GuestFault::simple(ScbVector::ReservedOperand);
        commit();
        psl_.setRaw(psl_.raw() & ~mask);
        return;
      }

      // ----- Branches -------------------------------------------------------
      case Opcode::BRB:
      case Opcode::BRW:
        branchTo(0);
        commit();
        return;
      case Opcode::BSBB:
      case Opcode::BSBW: {
        pushLong(d, d.nextPc);
        branchTo(0);
        commit();
        return;
      }
      case Opcode::JMP:
        d.nextPc = d.operands[0].addr;
        commit();
        return;
      case Opcode::JSB: {
        pushLong(d, d.nextPc);
        d.nextPc = d.operands[0].addr;
        commit();
        return;
      }
      case Opcode::RSB: {
        d.nextPc = popLong(d);
        commit();
        return;
      }
      case Opcode::BNEQ: case Opcode::BEQL: case Opcode::BGTR:
      case Opcode::BLEQ: case Opcode::BGEQ: case Opcode::BLSS:
      case Opcode::BGTRU: case Opcode::BLEQU: case Opcode::BVC:
      case Opcode::BVS: case Opcode::BCC: case Opcode::BCS: {
        const bool n = psl_.n(), z = psl_.z(), v = psl_.v(), c = psl_.c();
        bool taken = false;
        switch (op) {
          case Opcode::BNEQ: taken = !z; break;
          case Opcode::BEQL: taken = z; break;
          case Opcode::BGTR: taken = !(n || z); break;
          case Opcode::BLEQ: taken = n || z; break;
          case Opcode::BGEQ: taken = !n; break;
          case Opcode::BLSS: taken = n; break;
          case Opcode::BGTRU: taken = !(c || z); break;
          case Opcode::BLEQU: taken = c || z; break;
          case Opcode::BVC: taken = !v; break;
          case Opcode::BVS: taken = v; break;
          case Opcode::BCC: taken = !c; break;
          case Opcode::BCS: taken = c; break;
          default: break;
        }
        if (taken)
            branchTo(0);
        commit();
        return;
      }
      case Opcode::BLBS:
      case Opcode::BLBC: {
        const bool bit = (operandRead(d, 0) & 1) != 0;
        if (bit == (op == Opcode::BLBS))
            branchTo(1);
        commit();
        return;
      }
      case Opcode::BBS:
        execBbx(d, /*branch_on_set=*/true);
        return;
      case Opcode::BBC:
        execBbx(d, /*branch_on_set=*/false);
        return;
      case Opcode::BBSS:
        execBbx(d, true, 1);
        return;
      case Opcode::BBCS:
        execBbx(d, false, 1);
        return;
      case Opcode::BBSC:
        execBbx(d, true, 0);
        return;
      case Opcode::BBCC:
        execBbx(d, false, 0);
        return;
      case Opcode::CASEB:
        execCase(d, OpSize::B);
        return;
      case Opcode::CASEW:
        execCase(d, OpSize::W);
        return;
      case Opcode::CASEL:
        execCase(d, OpSize::L);
        return;
      case Opcode::INSQUE:
        execInsque(d);
        return;
      case Opcode::REMQUE:
        execRemque(d);
        return;

      // ----- Loop instructions -----------------------------------------------
      case Opcode::AOBLSS:
      case Opcode::AOBLEQ: {
        const Longword limit = operandRead(d, 0);
        const Longword index = operandRead(d, 1) + 1;
        operandWrite(d, 1, index);
        const auto si = static_cast<std::int32_t>(index);
        const auto sl = static_cast<std::int32_t>(limit);
        const bool taken = op == Opcode::AOBLSS ? si < sl : si <= sl;
        if (taken)
            branchTo(2);
        commit();
        psl_.setNzvc(si < 0, si == 0,
                     addOverflows(index - 1, 1, index), psl_.c());
        raiseOverflowTrap(psl_);
        return;
      }
      case Opcode::SOBGEQ:
      case Opcode::SOBGTR: {
        const Longword index = operandRead(d, 0) - 1;
        operandWrite(d, 0, index);
        const auto si = static_cast<std::int32_t>(index);
        const bool taken = op == Opcode::SOBGEQ ? si >= 0 : si > 0;
        if (taken)
            branchTo(1);
        commit();
        psl_.setNzvc(si < 0, si == 0,
                     subOverflows(index + 1, 1, index), psl_.c());
        raiseOverflowTrap(psl_);
        return;
      }

      default:
        throw GuestFault::simple(ScbVector::ReservedInstruction);
    }
}

void
Cpu::pushLong(Decoded &d, Longword value)
{
    d.regsAfter[SP] -= 4;
    mmu_.writeV32(d.regsAfter[SP], value, psl_.currentMode());
}

Longword
Cpu::popLong(Decoded &d)
{
    const Longword value =
        mmu_.readV32(d.regsAfter[SP], psl_.currentMode());
    d.regsAfter[SP] += 4;
    return value;
}

} // namespace vvax
