/**
 * @file
 * Main execute switch: data movement, integer arithmetic, logical
 * operations, branches and loop instructions.  System instructions
 * (CHM, REI, MTPR, PROBE, ...) live in exec_system.cc.
 */

#include "cpu/alu.h"
#include "cpu/cpu.h"

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
    // Every integer result: store it, commit, then set the codes and
    // raise any trap (alu.h holds the semantics).
    auto arith = [&](int dst, const AluResult &r) {
        operandWrite(d, dst, r.value);
        commit();
        setCc(psl_, r.cc());
        raiseArithTraps(psl_, r);
    };
    // Moves and clears at the operand's own size, and pushes: store,
    // commit, set the codes (none of these traps).
    auto store = [&](int dst, Longword v, Nzvc cc) {
        operandWrite(d, dst, v);
        commit();
        setCc(psl_, cc);
    };
    auto push = [&](Longword v) {
        pushLong(d, v);
        commit();
        setCc(psl_, logicalCc(v, psl_.c()));
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
        store(1, v, logicalCc(v, psl_.c(), d.operands[0].size));
        return;
      }
      case Opcode::MOVZBL:
      case Opcode::MOVZWL: // the read is already zero-extended
        arith(1, movL(operandRead(d, 0), psl_.c()));
        return;
      case Opcode::CVTBL:
        arith(1, cvtL(operandRead(d, 0), OpSize::B));
        return;
      case Opcode::CVTWL:
        arith(1, cvtL(operandRead(d, 0), OpSize::W));
        return;
      case Opcode::ROTL:
        arith(2, rotL(operandRead(d, 0), operandRead(d, 1), psl_.c()));
        return;
      case Opcode::MOVQ: {
        const Longword lo = d.operands[0].value;
        const Longword hi = d.operands[0].value2;
        operandWrite(d, 1, lo, hi);
        commit();
        setCc(psl_, quadCc(static_cast<Quadword>(hi) << 32 | lo,
                           psl_.c()));
        return;
      }
      case Opcode::EMUL: {
        const Quadword prod = emulL(operandRead(d, 0), operandRead(d, 1),
                                    operandRead(d, 2));
        operandWrite(d, 3, static_cast<Longword>(prod),
                     static_cast<Longword>(prod >> 32));
        commit();
        setCc(psl_, quadCc(prod, false));
        return;
      }
      case Opcode::EDIV: {
        const EdivResult r = edivL(
            operandRead(d, 0),
            static_cast<Quadword>(d.operands[1].value2) << 32 |
                d.operands[1].value);
        operandWrite(d, 2, r.quo.value);
        operandWrite(d, 3, r.rem);
        commit();
        setCc(psl_, r.quo.cc());
        raiseArithTraps(psl_, r.quo);
        return;
      }
      case Opcode::MOVAB:
      case Opcode::MOVAL:
        arith(1, movL(d.operands[0].addr, psl_.c()));
        return;
      case Opcode::PUSHAL:
        push(d.operands[0].addr);
        return;
      case Opcode::PUSHL:
        push(operandRead(d, 0));
        return;
      case Opcode::CLRB:
      case Opcode::CLRW:
      case Opcode::CLRL:
      case Opcode::CLRQ: // both halves: value2 defaults to 0
        store(0, 0, logicalCc(0, psl_.c()));
        return;
      case Opcode::MNEGL:
        arith(1, mnegL(operandRead(d, 0)));
        return;
      case Opcode::MCOML:
        arith(1, mcomL(operandRead(d, 0), psl_.c()));
        return;

      // ----- Tests and compares -----------------------------------------
      case Opcode::TSTB:
      case Opcode::TSTW:
      case Opcode::TSTL:
        commit();
        setCc(psl_, testCc(operandRead(d, 0), d.operands[0].size));
        return;
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
      case Opcode::ADDL3:
        arith(op == Opcode::ADDL2 ? 1 : 2,
              addL(operandRead(d, 0), operandRead(d, 1)));
        return;
      case Opcode::SUBL2:
      case Opcode::SUBL3:
        arith(op == Opcode::SUBL2 ? 1 : 2,
              subL(operandRead(d, 0), operandRead(d, 1)));
        return;
      case Opcode::INCL:
        arith(0, addL(1, operandRead(d, 0)));
        return;
      case Opcode::DECL:
        arith(0, subL(1, operandRead(d, 0)));
        return;
      case Opcode::ADWC:
        arith(1, adwcL(operandRead(d, 0), operandRead(d, 1), psl_.c()));
        return;
      case Opcode::SBWC:
        arith(1, sbwcL(operandRead(d, 0), operandRead(d, 1), psl_.c()));
        return;
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
      case Opcode::BISL3:
        arith(op == Opcode::BISL2 ? 1 : 2,
              bisL(operandRead(d, 0), operandRead(d, 1), psl_.c()));
        return;
      case Opcode::BICL2:
      case Opcode::BICL3:
        arith(op == Opcode::BICL2 ? 1 : 2,
              bicL(operandRead(d, 0), operandRead(d, 1), psl_.c()));
        return;
      case Opcode::XORL2:
      case Opcode::XORL3:
        arith(op == Opcode::XORL2 ? 1 : 2,
              xorL(operandRead(d, 0), operandRead(d, 1), psl_.c()));
        return;
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
        // The branch compares the new index with the limit, signed.
        const AluResult r = aobL(operandRead(d, 1), psl_.c());
        const Nzvc cmp = compareCc(r.value, operandRead(d, 0), OpSize::L);
        if (cmp.n || (op == Opcode::AOBLEQ && cmp.z))
            branchTo(2);
        arith(1, r);
        return;
      }
      case Opcode::SOBGEQ:
      case Opcode::SOBGTR: {
        const AluResult r = sobL(operandRead(d, 0), psl_.c());
        const Nzvc cc = r.cc();
        if (!cc.n && (op == Opcode::SOBGEQ || !cc.z))
            branchTo(1);
        arith(0, r);
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
