#include "vasm/disasm.h"

#include <cstdio>

#include "arch/opcodes.h"

namespace vvax {

namespace {

const char *const kRegNames[16] = {
    "r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7",
    "r8", "r9", "r10", "r11", "ap", "fp", "sp", "pc",
};

/** @p v in hex after @p prefix ("#0x2A"), formatted in one piece. */
std::string
hex(Longword v, const char *prefix = "")
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%s0x%X", prefix, v);
    return buf;
}

} // namespace

DisasmResult
disassemble(VirtAddr va, const std::function<Byte(VirtAddr)> &fetch)
{
    VirtAddr cursor = va;
    auto f8 = [&]() -> Byte { return fetch(cursor++); };
    auto f16 = [&]() -> Word {
        const Word lo = f8();
        return static_cast<Word>(lo | (f8() << 8));
    };
    auto f32 = [&]() -> Longword {
        const Longword lo = f16();
        return lo | (static_cast<Longword>(f16()) << 16);
    };

    Word opcode = f8();
    if (opcode == 0xFD)
        opcode = 0xFD00 | f8();
    const InstrInfo *info = instrInfo(opcode);
    if (!info) {
        return DisasmResult{".byte " + hex(opcode & 0xFF),
                            cursor - va};
    }

    std::string out(info->mnemonic);
    std::function<std::string(OpSize, bool)> specifier =
        [&](OpSize size, bool allow_index) -> std::string {
        const Byte spec = f8();
        const Byte rn = spec & 0xF;
        const Byte m = spec >> 4;
        switch (m) {
          case 0: case 1: case 2: case 3:
            return hex(spec & 0x3F, "#");
          case 4: {
            if (!allow_index)
                return "?[r" + std::to_string(rn) + "]";
            const std::string base = specifier(size, false);
            return base + "[" + kRegNames[rn] + "]";
          }
          case 5: return kRegNames[rn];
          case 6: return std::string("(") + kRegNames[rn] + ")";
          case 7: return std::string("-(") + kRegNames[rn] + ")";
          case 8:
            if (rn == PC) {
                Longword v = 0;
                switch (size) {
                  case OpSize::B: v = f8(); break;
                  case OpSize::W: v = f16(); break;
                  case OpSize::L: v = f32(); break;
                  case OpSize::Q: {
                    const Longword lo = f32();
                    const Longword hi = f32();
                    return hex(hi, "#") + ":" + hex(lo);
                  }
                }
                return hex(v, "#");
            }
            return std::string("(") + kRegNames[rn] + ")+";
          case 9:
            if (rn == PC)
                return hex(f32(), "@#");
            return std::string("@(") + kRegNames[rn] + ")+";
          case 0xA: case 0xB: {
            const auto d = static_cast<std::int8_t>(f8());
            const std::string s = (m == 0xB ? "@" : std::string()) +
                                  std::to_string(d) + "(" +
                                  kRegNames[rn] + ")";
            return s;
          }
          case 0xC: case 0xD: {
            const auto d = static_cast<std::int16_t>(f16());
            return (m == 0xD ? "@" : std::string()) + std::to_string(d) +
                   "(" + kRegNames[rn] + ")";
          }
          case 0xE: case 0xF: {
            const auto d = static_cast<std::int32_t>(f32());
            if (rn == PC) {
                // PC-relative: resolve to the absolute address.
                return (m == 0xF ? "@" : std::string()) +
                       hex(static_cast<Longword>(cursor + d));
            }
            return (m == 0xF ? "@" : std::string()) + std::to_string(d) +
                   "(" + kRegNames[rn] + ")";
          }
        }
        return "?";
    };

    for (int i = 0; i < info->nOperands; ++i) {
        out += i == 0 ? " " : ", ";
        const OperandSpec &spec = info->operands[i];
        if (spec.access == OpAccess::Branch) {
            std::int32_t disp;
            if (spec.size == OpSize::B)
                disp = static_cast<std::int8_t>(f8());
            else
                disp = static_cast<std::int16_t>(f16());
            out += hex(cursor + disp);
        } else {
            out += specifier(spec.size, true);
        }
    }
    return DisasmResult{out, cursor - va};
}

} // namespace vvax
