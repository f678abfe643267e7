/**
 * @file
 * Per-machine-model cycle cost tables.
 *
 * The paper implemented its microcode changes on three VAX processor
 * types (VAX-11/730, VAX-11/785, VAX 8800) and reports how model
 * differences changed the cost balance: the 730 prototype kept the
 * VM's interrupt-priority level in microcode, while the 785/8800 had
 * no microcode space for that assist, so MTPR-to-IPL in a VM trapped
 * to the VMM and cost 10-12x the heavily optimized bare-8800 path
 * (Section 7.3).
 *
 * Cost tables are the calibrated input of this reproduction (DESIGN.md
 * Section 6): instruction base costs follow published relative VAX
 * timings, and VMM emulation path costs are sized so the structural
 * results (ratios, crossovers) match the paper.  All *counts* (traps,
 * faults, fills) are produced by execution, not by the tables.
 */

#ifndef VVAX_METRICS_COST_MODEL_H
#define VVAX_METRICS_COST_MODEL_H

#include <string_view>

#include "arch/types.h"

namespace vvax {

/** The three processor models the paper's team implemented on. */
enum class MachineModel : Byte {
    Vax730,  //!< vertical microcode, spacious WCS, slow; has vIPL assist
    Vax785,  //!< faster, no microcode room for the vIPL assist
    Vax8800, //!< fastest; bare MTPR-to-IPL path heavily optimized
};

std::string_view machineModelName(MachineModel model);

/**
 * Cycle costs for one machine model.  "Cycles" are abstract machine
 * cycles; only ratios are meaningful across configurations.
 */
struct CostModel
{
    MachineModel model = MachineModel::Vax8800;

    /** Multiplier (x100) applied to per-opcode base costs. */
    Longword instructionScalePct = 100;

    // --- Microcode paths -------------------------------------------------
    Cycles exceptionDispatch = 32;  //!< trap/interrupt through the SCB
    Cycles interruptDispatch = 36;
    Cycles tlbMiss = 8;             //!< single-level PTE fetch
    Cycles tlbMissProcess = 16;     //!< nested fetch through the SPT
    Cycles mtprIplBare = 10;        //!< MTPR-to-IPL executed natively
    Cycles hardwareModifySet = 4;   //!< standard VAX sets PTE<M> itself
    Cycles movpslMerge = 2;         //!< extra MOVPSL work when PSL<VM>=1
    Cycles probeShadowValid = 2;    //!< extra PROBE work when PSL<VM>=1

    /**
     * True when this model's microcode maintains the VM's IPL in
     * VMPSL and only traps when a change could make a pending virtual
     * interrupt deliverable (the VAX-11/730 prototype; Section 7.3).
     */
    bool vmIplMicrocodeAssist = false;
    /** Cost of the microcode-assisted VM MTPR-to-IPL (no VMM trap). */
    Cycles mtprIplAssisted = 18;

    // --- VMM software paths (modelled; see DESIGN.md Section 1) ---------
    Cycles vmmDispatch = 16;        //!< VMM entry bookkeeping
    Cycles vmmResume = 24;          //!< rebuild VMPSL + REI into the VM
    Cycles vmmChmEmulate = 42;      //!< stack switch, SCB lookup, frame push
    Cycles vmmReiEmulate = 50;     //!< PSL compression, stack switch, checks
    Cycles vmmShadowFillPerPte = 85; //!< read VM PTE, translate, compress
    Cycles vmmModifyFault = 48;     //!< set M in shadow and in the VM PTE
    Cycles vmmMtprIplEmulate = 30;  //!< virtual IPL update + pending check
    Cycles vmmMtprMisc = 28;        //!< other privileged register emulation
    Cycles vmmLdpctxEmulate = 170;  //!< context switch incl. table switch
    Cycles vmmSvpctxEmulate = 120;
    Cycles vmmProbeEmulate = 50;    //!< PROBE that trapped on invalid PTE
    Cycles vmmDeliverInterrupt = 55; //!< push frame into the VM
    Cycles vmmKcallIo = 150;        //!< start-I/O hypercall service
    Cycles vmmKcallDescriptor = 20; //!< per kDiskBatch ring descriptor
    Cycles vmmMmioReference = 130;  //!< emulate one device register access
    Cycles vmmReflectException = 48; //!< forward a fault to the VM's SCB
    Cycles vmmWait = 40;
    Cycles vmmConsoleChar = 24;     //!< virtual console register access
    Cycles vmmConsoleCoalesce = 8;  //!< buffer one TXDB char (no device)
    Cycles vmmConsoleFlush = 40;    //!< drain the coalescing buffer

    // --- Fault handling and recovery paths (src/fault/) -----------------
    Cycles vmmFaultDiskService = 30; //!< fail a disk op / ring descriptor
    Cycles vmmMachineCheck = 90;     //!< compose + reflect a machine check

    /** Preset table for @p model. */
    static CostModel forModel(MachineModel model);
};

} // namespace vvax

#endif // VVAX_METRICS_COST_MODEL_H
