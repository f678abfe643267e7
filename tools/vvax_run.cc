/**
 * @file
 * vvax_run: assemble and execute a VAX assembly file.
 *
 *   vvax_run prog.s                 run bare (kernel mode, mapping off)
 *   vvax_run --vm prog.s            run inside a virtual machine
 *   vvax_run --origin 0x400 prog.s  load/start address
 *   vvax_run --trace prog.s         disassembled instruction trace
 *   vvax_run --max N prog.s         instruction budget (default 1e7)
 *   vvax_run --stats prog.s         dump the full cycle accounting
 *   vvax_run --vm --monitor "E 1000;SHOW" prog.s
 *                                   run console commands after the run
 *   vvax_run --forks=8 prog.s       boot once, seal a golden image,
 *                                   fork 8 CoW clones and run each
 *   vvax_run --forks=8 --golden=minivms
 *                                   same, from the built-in MiniVMS
 *                                   guest instead of an assembly file
 *   vvax_run --forks=4 --golden=minivms --supervise
 *            [--workers=N] [--plan "seed=7;disk-transient:every=3"]
 *                                   run the forks as a crash-only
 *                                   supervised HypervisorFleet: a
 *                                   crashed fork is microrebooted
 *                                   from the golden image, then
 *                                   quarantined once its restart
 *                                   budget is spent (fleet.h §6d);
 *                                   prints per-member health
 *                                   (healthy, restarting or
 *                                   quarantined) and the supervision
 *                                   counters
 *
 * Fork mode boots the guest for --max instructions (or until it
 * halts), seals it into a golden image (vmm/golden_image.h), then
 * forks and runs each clone, printing per-fork CoW accounting: pages
 * touched, private/shared bytes, and disk blocks written.
 *
 * With VVAX_DUMP_HOT_BLOCKS=N in the environment, the N hottest
 * superblocks and their trace-link graph are dumped after the run
 * (any non-numeric value defaults to 20; in fork mode the dump is
 * fork 0's, demonstrating the tiers run unchanged over CoW backing).
 *
 * The program's console output (MTPR to TXDB, or KCALL console writes
 * in a VM) is printed, followed by the final register state.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include <vector>

#include "core/machine.h"
#include "fault/fault_plan.h"
#include "guest/minivms.h"
#include "vasm/assembler.h"
#include "vasm/disasm.h"
#include "vmm/fleet.h"
#include "vmm/golden_image.h"
#include "vmm/hypervisor.h"
#include "vmm/vm_monitor.h"

using namespace vvax;

namespace {

void
printRegs(Cpu &cpu)
{
    static const char *names[16] = {"r0", "r1", "r2", "r3", "r4",
                                    "r5", "r6", "r7", "r8", "r9",
                                    "r10", "r11", "ap", "fp", "sp",
                                    "pc"};
    for (int i = 0; i < 16; ++i) {
        std::printf("%4s=%08X%s", names[i], cpu.reg(i),
                    i % 4 == 3 ? "\n" : " ");
    }
    const Psl psl = cpu.psl();
    std::printf(" psl=%08X (mode=%s ipl=%d n=%d z=%d v=%d c=%d)\n",
                psl.raw(),
                std::string(accessModeName(psl.currentMode())).c_str(),
                psl.ipl(), psl.n(), psl.z(), psl.v(), psl.c());
}

/** Boot a guest once, seal it, then fork and run @p forks CoW clones,
 *  printing per-fork CoW accounting.  @p golden selects a built-in
 *  guest ("minivms"); otherwise @p image is the assembled program. */
int
runForkStorm(int forks, const char *golden,
             const std::vector<Byte> &image, VirtAddr origin,
             std::uint64_t max_instr, bool stats)
{
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine machine(mc);
    Hypervisor hv(machine);
    VmConfig vc;
    vc.memBytes = 1024 * 1024;
    VirtAddr entry = origin;
    std::vector<Byte> guest = image;
    PhysAddr load_at = origin;
    if (golden != nullptr) {
        if (std::strcmp(golden, "minivms") != 0) {
            std::fprintf(stderr,
                         "unknown --golden guest '%s' (try minivms)\n",
                         golden);
            return 2;
        }
        MiniVmsConfig cfg;
        cfg.dataPagesPerProcess = 16;
        vc.memBytes = cfg.memBytes;
        MiniVmsImage img = buildMiniVms(cfg);
        guest = std::move(img.image);
        entry = img.entry;
        load_at = 0;
    }
    VirtualMachine &vm = hv.createVm(vc);
    hv.loadVmImage(vm, load_at, guest);
    hv.startVm(vm, entry);
    hv.run(max_instr);
    std::printf("boot: %llu instructions, halt reason %d\n",
                static_cast<unsigned long long>(
                    machine.stats().instructions),
                static_cast<int>(vm.haltReason));

    const GoldenImage gold = GoldenImage::seal(hv, vm);
    std::printf("golden image: %zu B ram + %zu B disk, %s\n",
                gold.ramBytes(), gold.diskBytes(),
                gold.kernelBacked() ? "kernel CoW" : "eager copy");

    std::vector<GoldenFork> fleet;
    fleet.reserve(forks);
    for (int i = 0; i < forks; ++i)
        fleet.push_back(gold.fork(i));
    for (int i = 0; i < forks; ++i) {
        GoldenFork &f = fleet[i];
        f.hv->run(max_instr);
        const CowStats cs = f.machine->memory().cowStats();
        std::printf(
            "fork %3d: %5u pages touched, %8llu B private, "
            "%8llu B shared (%4.1f%% shared), %zu disk blocks, "
            "halt reason %d\n",
            i, static_cast<unsigned>(cs.pagesTouched),
            static_cast<unsigned long long>(cs.privateBytes),
            static_cast<unsigned long long>(cs.sharedBytes),
            cs.privateBytes + cs.sharedBytes == 0
                ? 0.0
                : 100.0 * static_cast<double>(cs.sharedBytes) /
                      static_cast<double>(cs.privateBytes +
                                          cs.sharedBytes),
            f.vm->disk.blocksTouched(),
            static_cast<int>(f.vm->haltReason));
    }
    if (forks > 0) {
        GoldenFork &f0 = fleet[0];
        std::printf("--- fork 0 console ---\n%s\n",
                    f0.vm->console.output().c_str());
        if (stats) {
            Stats &s = f0.machine->stats();
            f0.machine->memory().publishCowStats(s);
            s.cowDiskBlocksTouched = f0.vm->disk.blocksTouched();
            std::ostringstream os;
            s.print(os);
            std::printf("--- fork 0 cycle accounting ---\n%s",
                        os.str().c_str());
        }
        if (const char *dump = std::getenv("VVAX_DUMP_HOT_BLOCKS")) {
            int top_n = std::atoi(dump);
            if (top_n <= 0)
                top_n = 20;
            std::ostringstream os;
            f0.machine->cpu().dumpHotBlocks(os, top_n);
            std::printf("--- fork 0 hot superblocks (top %d) ---\n%s",
                        top_n, os.str().c_str());
        }
    }
    return 0;
}

/** Boot + seal like runForkStorm, then run the forks as a crash-only
 *  supervised HypervisorFleet (fleet.h §6d) and print per-member
 *  health plus the supervision counters. */
int
runSupervisedFleet(int forks, const char *golden,
                   const std::vector<Byte> &image, VirtAddr origin,
                   std::uint64_t max_instr, bool stats, int workers,
                   const char *plan_spec)
{
    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine machine(mc);
    Hypervisor hv(machine);
    VmConfig vc;
    vc.memBytes = 1024 * 1024;
    VirtAddr entry = origin;
    std::vector<Byte> guest = image;
    PhysAddr load_at = origin;
    if (golden != nullptr) {
        if (std::strcmp(golden, "minivms") != 0) {
            std::fprintf(stderr,
                         "unknown --golden guest '%s' (try minivms)\n",
                         golden);
            return 2;
        }
        MiniVmsConfig cfg;
        cfg.dataPagesPerProcess = 16;
        vc.memBytes = cfg.memBytes;
        MiniVmsImage img = buildMiniVms(cfg);
        guest = std::move(img.image);
        entry = img.entry;
        load_at = 0;
    }
    VirtualMachine &vm = hv.createVm(vc);
    hv.loadVmImage(vm, load_at, guest);
    hv.startVm(vm, entry);
    hv.run(max_instr);
    std::printf("boot: %llu instructions, halt reason %d\n",
                static_cast<unsigned long long>(
                    machine.stats().instructions),
                static_cast<int>(vm.haltReason));

    const GoldenImage gold = GoldenImage::seal(hv, vm);
    std::printf("golden image: %zu B ram + %zu B disk, %s\n",
                gold.ramBytes(), gold.diskBytes(),
                gold.kernelBacked() ? "kernel CoW" : "eager copy");

    FaultPlan plan;
    bool have_plan = false;
    if (plan_spec != nullptr) {
        std::string error;
        if (!FaultPlan::parse(plan_spec, &plan, &error)) {
            std::fprintf(stderr, "bad --plan: %s\n", error.c_str());
            return 2;
        }
        have_plan = true;
    }

    FleetConfig fc;
    fc.machine = mc;
    fc.workers = workers > 0 ? workers : 1;
    fc.fleetSupervision.enabled = true;
    HypervisorFleet fleet(fc);
    fleet.addForkedMember(gold, forks);
    for (int i = 0; i < forks; ++i) {
        if (have_plan)
            fleet.setFaultPlan(i, &plan);
    }
    fleet.run(max_instr);

    for (int i = 0; i < forks; ++i) {
        std::printf("member %3d: %-11s halt reason %d\n", i,
                    memberHealthName(fleet.health(i)),
                    static_cast<int>(fleet.vm(i).haltReason));
    }
    const std::uint64_t reboots = fleet.microreboots();
    std::printf("supervision: %llu microreboots, %llu quarantines, "
                "%llu pages recopied (%.1f / reboot)\n",
                static_cast<unsigned long long>(reboots),
                static_cast<unsigned long long>(fleet.quarantines()),
                static_cast<unsigned long long>(fleet.pagesRecopied()),
                reboots == 0 ? 0.0
                             : static_cast<double>(fleet.pagesRecopied()) /
                                   static_cast<double>(reboots));
    if (stats) {
        Stats total = fleet.totalMachineStats();
        std::ostringstream os;
        total.print(os);
        std::printf("--- fleet cycle accounting ---\n%s",
                    os.str().c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool use_vm = false;
    bool trace = false;
    bool stats = false;
    const char *monitor_cmds = nullptr;
    VirtAddr origin = 0x200;
    std::uint64_t max_instr = 10000000;
    const char *path = nullptr;
    int forks = 0;
    const char *golden = nullptr;
    bool supervise = false;
    int workers = 1;
    const char *plan_spec = nullptr;

    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--vm")) {
            use_vm = true;
        } else if (!std::strcmp(argv[i], "--trace")) {
            trace = true;
        } else if (!std::strcmp(argv[i], "--stats")) {
            stats = true;
        } else if (!std::strcmp(argv[i], "--monitor") && i + 1 < argc) {
            monitor_cmds = argv[++i];
        } else if (!std::strcmp(argv[i], "--origin") && i + 1 < argc) {
            origin = static_cast<VirtAddr>(
                std::stoul(argv[++i], nullptr, 0));
        } else if (!std::strcmp(argv[i], "--max") && i + 1 < argc) {
            max_instr = std::stoull(argv[++i]);
        } else if (!std::strncmp(argv[i], "--forks=", 8)) {
            forks = std::atoi(argv[i] + 8);
        } else if (!std::strncmp(argv[i], "--golden=", 9)) {
            golden = argv[i] + 9;
        } else if (!std::strcmp(argv[i], "--supervise")) {
            supervise = true;
        } else if (!std::strncmp(argv[i], "--workers=", 10)) {
            workers = std::atoi(argv[i] + 10);
        } else if (!std::strcmp(argv[i], "--plan") && i + 1 < argc) {
            plan_spec = argv[++i];
        } else if (argv[i][0] != '-') {
            path = argv[i];
        } else {
            std::fprintf(stderr, "unknown option %s\n", argv[i]);
            return 2;
        }
    }
    if (forks > 0 && golden != nullptr) {
        // Built-in guest: no assembly file needed.
        if (supervise)
            return runSupervisedFleet(forks, golden, {}, origin,
                                      max_instr, stats, workers,
                                      plan_spec);
        return runForkStorm(forks, golden, {}, origin, max_instr,
                            stats);
    }
    if (!path) {
        std::fprintf(stderr,
                     "usage: vvax_run [--vm] [--trace] [--origin A] "
                     "[--max N] [--forks=N [--golden=minivms] "
                     "[--supervise] [--workers=N] [--plan SPEC]] "
                     "prog.s\n");
        return 2;
    }

    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path);
        return 2;
    }
    std::stringstream ss;
    ss << in.rdbuf();

    AssemblyResult prog = assemble(ss.str(), origin);
    if (!prog.ok) {
        for (const std::string &e : prog.errors)
            std::fprintf(stderr, "%s: %s\n", path, e.c_str());
        return 1;
    }
    std::printf("assembled %zu bytes at %08X\n", prog.image.size(),
                origin);

    if (forks > 0) {
        if (supervise)
            return runSupervisedFleet(forks, nullptr, prog.image,
                                      origin, max_instr, stats,
                                      workers, plan_spec);
        return runForkStorm(forks, nullptr, prog.image, origin,
                            max_instr, stats);
    }

    MachineConfig mc;
    mc.ramBytes = 16 * 1024 * 1024;
    mc.level = MicrocodeLevel::Modified;
    RealMachine machine(mc);

    if (trace) {
        machine.cpu().setTrace([&](VirtAddr pc, Word) {
            auto fetch = [&](VirtAddr va) -> Byte {
                try {
                    return machine.mmu().readV8(
                        va, machine.cpu().psl().currentMode());
                } catch (...) {
                    return 0;
                }
            };
            const DisasmResult d = disassemble(pc, fetch);
            std::printf("  %08X  %s\n", pc, d.text.c_str());
        });
    }

    if (use_vm) {
        Hypervisor hv(machine);
        VmConfig vc;
        vc.memBytes = 1024 * 1024;
        VirtualMachine &vm = hv.createVm(vc);
        hv.loadVmImage(vm, origin, prog.image);
        hv.startVm(vm, origin);
        hv.run(max_instr);
        std::printf("--- VM console ---\n%s\n",
                    vm.console.output().c_str());
        std::printf("VM halt reason: %d\n",
                    static_cast<int>(vm.haltReason));
        if (monitor_cmds) {
            hv.suspendAll();
            VmMonitor mon(hv, vm);
            std::string cmd;
            for (const char *p = monitor_cmds;; ++p) {
                if (*p == ';' || *p == 0) {
                    if (!cmd.empty()) {
                        std::printf(">>> %s\n%s\n", cmd.c_str(),
                                    mon.command(cmd).c_str());
                    }
                    cmd.clear();
                    if (*p == 0)
                        break;
                } else {
                    cmd.push_back(*p);
                }
            }
        }
    } else {
        machine.loadImage(origin, prog.image);
        machine.cpu().setPc(origin);
        machine.cpu().psl().setIpl(31);
        machine.cpu().setReg(SP, origin - 0x10);
        machine.run(max_instr);
        std::printf("--- console ---\n%s\n",
                    machine.console().output().c_str());
        std::printf("halt reason: %d\n",
                    static_cast<int>(machine.cpu().haltReason()));
    }
    printRegs(machine.cpu());
    std::printf("%llu instructions, %llu cycles\n",
                static_cast<unsigned long long>(
                    machine.stats().instructions),
                static_cast<unsigned long long>(
                    machine.stats().totalCycles()));
    if (stats) {
        std::ostringstream os;
        machine.stats().print(os);
        std::printf("--- cycle accounting ---\n%s", os.str().c_str());
    }
    if (const char *dump = std::getenv("VVAX_DUMP_HOT_BLOCKS")) {
        int top_n = std::atoi(dump);
        if (top_n <= 0)
            top_n = 20;
        std::ostringstream os;
        machine.cpu().dumpHotBlocks(os, top_n);
        std::printf("--- hot superblocks (top %d) ---\n%s", top_n,
                    os.str().c_str());
    }
    return 0;
}
