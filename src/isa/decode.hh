/**
 * @file
 * Decode-once helpers for the translation tier (arch/xlate) and the
 * timing core's per-pc decode table (DecodedInst), both read from
 * the opcode table (isa/instruction.hh).
 *
 * The basic-block translator pre-resolves, per instruction, the
 * facts the interpreter re-derives on every dynamic visit. The most
 * delicate of these is the dead-read probe order: the emulator's
 * firstDeadReadPc/Reg diagnostics depend on exactly which register
 * is checked first, so the list baked into a micro-op must replicate
 * the interpreter's checkRead call sequence instruction for
 * instruction. The interpreter keeps its own hand-written checkRead
 * calls, so the two are independent: tests/emulator_translate_test.cc
 * and tests/isa_test.cc pin the list, and the fuzz oracle's
 * tier-lockstep layer diffs it dynamically.
 */

#ifndef DVI_ISA_DECODE_HH
#define DVI_ISA_DECODE_HH

#include <utility>

#include "isa/instruction.hh"
#include "isa/registers.hh"

namespace dvi
{
namespace isa
{

/**
 * Integer registers the emulator's dead-read detector probes for
 * this instruction, in the exact order arch::Emulator::step() issues
 * its checkRead calls; returns the count (0-2). These are the
 * integer sources (Instruction::srcIntRegs) minus the hard-wired
 * zero (checkRead ignores it, so a translated block never probes r0
 * at run time), with three asymmetries written out:
 *
 *  - a plain store probes the data register (rs2) before the base
 *    (rs1), because step() checks the stored value ahead of the
 *    address computation;
 *  - a save (LiveStore) probes only the base: the data register of a
 *    callee save is deliberately exempt (saving a dead value is
 *    exactly what the hardware squashes — §5.1);
 *  - Ret probes ra, the register it jumps through, whatever rs1
 *    names.
 *
 * A register read twice (e.g. `add r1, r5, r5`) is probed twice,
 * matching the interpreter's dead-read count.
 */
inline unsigned
deadCheckRegs(const Instruction &inst, RegIndex out[2])
{
    RegIndex srcs[2];
    unsigned n_srcs = inst.srcIntRegs(srcs);
    if (inst.isSave())
        n_srcs = 1;
    else if (inst.info().format == OperandFormat::Store)
        std::swap(srcs[0], srcs[1]);
    else if (inst.isReturn())
        srcs[0] = regRa;
    unsigned n = 0;
    for (unsigned k = 0; k < n_srcs; ++k) {
        if (srcs[k] != regZero)
            out[n++] = srcs[k];
    }
    return n;
}

/** True when `inst` ends a translated basic block: every control
 * transfer plus Halt. Kills and LVM spills flow through — a block
 * may span them, which is what makes pre-baked kill masks pay. */
inline bool
endsBlock(const Instruction &inst)
{
    return inst.isControl() || inst.isHalt();
}

/**
 * Everything the timing core asks of one static instruction, decoded
 * once per binary (arch::TranslatedProgram owns the per-pc table) so
 * that fetch, dispatch, issue and commit read one 16-byte entry
 * instead of re-deriving classes for every dynamic instance. The
 * flags are the opcode table's class bits (OpClass); each other
 * field is the value of the named Instruction query, and fields a
 * class does not use are zero.
 */
struct DecodedInst : OpClass
{
    std::uint16_t flags = 0;     ///< OpClass bits
    FuClass fu = FuClass::None;
    std::uint8_t latency = 0;
    std::uint8_t numSrcs = 0;    ///< srcIntRegs() count
    std::uint8_t numFpSrcs = 0;  ///< srcFpRegs() count
    RegIndex srcs[2] = {0, 0};
    RegIndex fpSrcs[2] = {0, 0};
    RegIndex dest = 0;           ///< rd: the int or FP destination
    RegIndex saveRestoreReg = 0;
    /** DVI kill mask: the E-DVI mask of a kill, the I-DVI mask of a
     * call or return. */
    std::uint32_t killMask = 0;

    bool is(std::uint16_t f) const { return (flags & f) != 0; }
};
static_assert(sizeof(DecodedInst) == 16, "DecodedInst packs to 16 bytes");

inline DecodedInst
decodeInst(const Instruction &inst)
{
    const OpInfo &info = inst.info();
    DecodedInst d;
    d.flags = info.flags;
    d.fu = info.fu;
    d.latency = info.latency;
    d.numSrcs = static_cast<std::uint8_t>(inst.srcIntRegs(d.srcs));
    d.numFpSrcs = static_cast<std::uint8_t>(inst.srcFpRegs(d.fpSrcs));
    d.dest = inst.rd;
    if (inst.isSave() || inst.isRestore())
        d.saveRestoreReg = inst.saveRestoreReg();
    if (inst.isKill())
        d.killMask = static_cast<std::uint32_t>(inst.killMask().raw());
    else if (inst.isCall())
        d.killMask = static_cast<std::uint32_t>(idviCallMask().raw());
    else if (inst.isReturn())
        d.killMask = static_cast<std::uint32_t>(idviReturnMask().raw());
    return d;
}

} // namespace isa
} // namespace dvi

#endif // DVI_ISA_DECODE_HH
