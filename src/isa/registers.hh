/**
 * @file
 * Architectural register definitions and the ABI calling convention.
 *
 * The ISA is a MIPS-flavored RISC machine: 32 integer registers and 32
 * floating-point registers. The calling convention partitions the
 * integer registers into caller-saved and callee-saved sets exactly as
 * the paper assumes (§5): compilers put call-free temporaries in
 * caller-saved registers and values that live across calls in
 * callee-saved registers.
 *
 * The I-DVI mask (§2, §7 "Hardware and ABI interactions") is the
 * ABI-supplied register subset whose values are dead at every procedure
 * entry and exit. It covers the caller-saved *temporaries* only:
 * argument registers carry live values into calls and the return-value
 * registers carry live values out of them, so they are excluded.
 */

#ifndef DVI_ISA_REGISTERS_HH
#define DVI_ISA_REGISTERS_HH

#include <cstdint>
#include <string>

#include "base/reg_mask.hh"
#include "base/types.hh"

namespace dvi
{
namespace isa
{

/** Number of architectural integer registers. */
constexpr unsigned numIntRegs = 32;

/** Number of architectural floating-point registers. */
constexpr unsigned numFpRegs = 32;

/** @name Special-purpose integer registers @{ */
constexpr RegIndex regZero = 0;  ///< hard-wired zero
constexpr RegIndex regAt = 1;    ///< assembler temporary (caller-saved)
constexpr RegIndex regV0 = 2;    ///< return value 0
constexpr RegIndex regV1 = 3;    ///< return value 1
constexpr RegIndex regA0 = 4;    ///< first argument register
constexpr RegIndex regA3 = 7;    ///< last argument register
constexpr RegIndex regK0 = 26;   ///< reserved for kernel
constexpr RegIndex regK1 = 27;   ///< reserved for kernel
constexpr RegIndex regGp = 28;   ///< global pointer
constexpr RegIndex regSp = 29;   ///< stack pointer
constexpr RegIndex regFp = 30;   ///< frame pointer (callee-saved)
constexpr RegIndex regRa = 31;   ///< return address
/** @} */

/** Registers lo..hi inclusive (hi < 64), as a constant mask. */
constexpr RegMask
regRange(RegIndex lo, RegIndex hi)
{
    return RegMask((~std::uint64_t{0} >> (63 - hi)) &
                   (~std::uint64_t{0} << lo));
}

/** The one-register mask {r} (r < 64), as a constant. */
constexpr RegMask
regBit(RegIndex r)
{
    return RegMask(std::uint64_t{1} << r);
}

// The ABI masks below are constants: the emulators, the timing core
// and the context-switch scheduler read them per call, return or
// switch.

/** Callee-saved integer registers: s0–s7 (r16–r23) and fp (r30). */
constexpr RegMask
calleeSavedMask()
{
    return regRange(16, 23) | regBit(regFp);
}

/** Argument-passing registers a0–a3. */
constexpr RegMask
argMask()
{
    return regRange(regA0, regA3);
}

/** Return-value registers v0–v1. */
constexpr RegMask
returnValueMask()
{
    return regRange(regV0, regV1);
}

/**
 * Caller-saved temporaries the compiler may allocate (t0–t7, t8–t9).
 */
constexpr RegMask
allocatableCallerSaved()
{
    return regRange(8, 15) | regRange(24, 25);
}

/**
 * Callee-saved registers the compiler may allocate (s0–s7). The frame
 * pointer is reserved.
 */
constexpr RegMask
allocatableCalleeSaved()
{
    return regRange(16, 23);
}

/**
 * All caller-saved integer registers: at, v0–v1, a0–a3, t0–t7, t8–t9,
 * and ra.
 */
constexpr RegMask
callerSavedMask()
{
    return regBit(regAt) | returnValueMask() | argMask() |
           allocatableCallerSaved() | regBit(regRa);
}

/**
 * The ABI's I-DVI mask: caller-saved temporaries that are dead at
 * every procedure entry and exit (at, t0–t7, t8–t9). See file
 * comment for why argument/return registers are excluded from this
 * common subset.
 */
constexpr RegMask
idviMask()
{
    return regBit(regAt) | allocatableCallerSaved();
}

/**
 * I-DVI at a dynamic call (procedure *entry*): the temporaries plus
 * the return-value registers — v0/v1 carry nothing *into* a callee
 * (§2: caller-saved values are "dead at the entry ... points of any
 * procedure"). Argument registers are live at entry and excluded.
 */
constexpr RegMask
idviCallMask()
{
    return idviMask() | returnValueMask();
}

/**
 * I-DVI at a dynamic return (procedure *exit*): the temporaries plus
 * the argument registers — a0–a3 carry nothing *out* of a callee.
 * Return-value registers are live at exit and excluded.
 */
constexpr RegMask
idviReturnMask()
{
    return idviMask() | argMask();
}

/**
 * Integer registers a context switch must preserve in the baseline
 * (everything except the hard-wired zero and the kernel temporaries).
 */
constexpr RegMask
contextSwitchSavedMask()
{
    return regRange(0, numIntRegs - 1)
        .minus(regBit(regZero) | regBit(regK0) | regBit(regK1));
}

/**
 * Registers holding defined values at process entry, per the ABI:
 * the stack pointer, global pointer, return address (to the exit
 * stub), argument registers, and the hard-wired zero. Everything
 * else contains garbage the program must not read, so the LVM can
 * start with only these bits live.
 */
constexpr RegMask
abiEntryLiveMask()
{
    return argMask() | regBit(regZero) | regBit(regSp) |
           regBit(regGp) | regBit(regRa);
}

/** Caller-saved FP registers (f0–f19): dead across calls in the
 * FP I-DVI convention. */
constexpr RegMask
fpCallerSavedMask()
{
    return regRange(0, 19);
}

/** Callee-saved FP registers (f20–f31). */
constexpr RegMask
fpCalleeSavedMask()
{
    return regRange(20, numFpRegs - 1);
}

/** True if r is callee-saved under the ABI. */
bool isCalleeSaved(RegIndex r);

/** True if r is caller-saved under the ABI. */
bool isCallerSaved(RegIndex r);

/** ABI mnemonic for an integer register, e.g. "t0", "s3", "sp". */
std::string intRegName(RegIndex r);

/** Name for an FP register: "f7". */
std::string fpRegName(RegIndex r);

} // namespace isa
} // namespace dvi

#endif // DVI_ISA_REGISTERS_HH
