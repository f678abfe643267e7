#include "vmm/vm_monitor.h"

#include <cctype>
#include <cstdio>
#include <optional>
#include <sstream>
#include <vector>

namespace vvax {

namespace {

std::vector<std::string>
tokens(std::string_view line)
{
    std::vector<std::string> out;
    std::string current;
    for (char c : line) {
        if (std::isspace(static_cast<unsigned char>(c))) {
            if (!current.empty()) {
                out.push_back(current);
                current.clear();
            }
        } else {
            current.push_back(static_cast<char>(
                std::toupper(static_cast<unsigned char>(c))));
        }
    }
    if (!current.empty())
        out.push_back(current);
    return out;
}

std::optional<Longword>
hexValue(const std::string &t)
{
    Longword v = 0;
    if (t.empty())
        return std::nullopt;
    for (char c : t) {
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'A' && c <= 'F')
            digit = 10 + (c - 'A');
        else
            return std::nullopt;
        v = (v << 4) | static_cast<Longword>(digit);
    }
    return v;
}

std::string
hex(Longword v)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "%08X", v);
    return buf;
}

} // namespace

std::string
VmMonitor::command(std::string_view line)
{
    const auto t = tokens(line);
    if (t.empty())
        return "?";

    const std::string &cmd = t[0];
    PhysicalMemory &mem = hv_.machine().memory();

    if ((cmd == "EXAMINE" || cmd == "E") && t.size() == 2) {
        const auto addr = hexValue(t[1]);
        if (!addr || (*addr >> kPageShift) >= vm_.memPages)
            return "?ADDR";
        return hex(*addr) + " / " +
               hex(mem.read32(vm_.vmPhysToReal(*addr)));
    }
    if ((cmd == "DEPOSIT" || cmd == "D") && t.size() == 3) {
        const auto addr = hexValue(t[1]);
        const auto value = hexValue(t[2]);
        if (!addr || !value || (*addr >> kPageShift) >= vm_.memPages)
            return "?ADDR";
        mem.write32(vm_.vmPhysToReal(*addr), *value);
        return hex(*addr) + " <- " + hex(*value);
    }
    if ((cmd == "START" || cmd == "S") && t.size() == 2) {
        const auto addr = hexValue(t[1]);
        if (!addr)
            return "?ADDR";
        hv_.startVm(vm_, *addr);
        return "STARTED AT " + hex(*addr);
    }
    if (cmd == "HALT" || cmd == "H") {
        vm_.haltReason = VmHaltReason::VmmPolicy;
        return "HALTED";
    }
    if (cmd == "CONTINUE" || cmd == "C") {
        if (!vm_.started)
            return "?NOT STARTED";
        vm_.haltReason = VmHaltReason::None;
        return "CONTINUING AT " + hex(vm_.savedPc);
    }
    if (cmd == "BOOT" || cmd == "B") {
        Longword blocks = 64;
        if (t.size() == 2) {
            const auto n = hexValue(t[1]);
            if (!n || *n == 0)
                return "?COUNT";
            blocks = *n;
        }
        const Longword bytes = blocks * 512;
        if (bytes > vm_.disk.size() ||
            bytes > vm_.memPages * kPageSize)
            return "?COUNT";
        mem.writeBlock(vm_.vmPhysToReal(0),
                       {vm_.disk.data(), bytes});
        hv_.startVm(vm_, 0x200);
        return "BOOTED " + hex(blocks) + " BLOCKS, STARTED AT 00000200";
    }
    if (cmd == "SHOW") {
        std::ostringstream os;
        os << vm_.name() << ": "
           << (vm_.halted() ? "halted" : vm_.waiting ? "waiting"
                                                     : "runnable")
           << " pc=" << hex(vm_.savedPc)
           << " mem=" << vm_.memPages * kPageSize / 1024 << "KB"
           << " traps=" << vm_.stats.emulationTraps;
        return os.str();
    }
    return "?";
}

} // namespace vvax
