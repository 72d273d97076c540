/**
 * @file
 * Differential oracle: proves a program's execution is invisible to
 * DVI (§7 of the paper — "Errors in E-DVI should be considered
 * compiler errors"; killing dead values must never change what a
 * program computes).
 *
 * One program is run through up to six layers, cheapest first, and
 * the first disagreement is reported:
 *
 *  0. static: every kill mask in the binary names only machine-dead
 *     registers (analysis::verifyKills — the independent prover in
 *     src/analysis, not the compiler's own liveness);
 *  1. lockstep: the functional emulator with DVI ignored
 *     (honorEdvi=false, plain binary) against the emulator consuming
 *     E-DVI kills — per-instruction opcode / effective-address /
 *     branch-outcome diff, skipping the kill annotations;
 *  2. liveness: the E-DVI side must observe zero dead reads, and the
 *     plain side too (program well-formedness);
 *  3. final state: when the program halts within budget, integer and
 *     FP register files (minus ra, which holds shifted code
 *     addresses) and the global memory image must match;
 *  4. commit stream: the event-driven uarch::Core (full DVI) must
 *     commit exactly the reference program-instruction stream —
 *     equal committed counts, equal squash decisions
 *     (saves/restores eliminated exactly match the functional LVM
 *     oracle), and a final architectural state identical to the
 *     lockstep emulator's;
 *  5. tier lockstep (always runs): the tier-0 interpreter against
 *     the tier-1 basic-block translation cache over the same E-DVI
 *     binary — record-for-record pc / opcode / effective-address /
 *     branch-outcome / next-pc diff (kills included: same binary,
 *     so the streams must match one for one), dead-read counts at
 *     every batch boundary, then full EmulatorStats equality
 *     (firstDeadReadPc/Reg included) and a bitwise architectural
 *     end-state compare.
 *
 * A FaultSpec corrupts one kill mask in the compiled binary
 * (test-only fault injection) to prove the oracle actually detects
 * broken dead-value information.
 */

#ifndef DVI_FUZZ_ORACLE_HH
#define DVI_FUZZ_ORACLE_HH

#include <cstdint>
#include <string>

#include "base/cli.hh"
#include "compiler/executable.hh"
#include "program/ir.hh"

namespace dvi
{
namespace fuzz
{

/** Test-only corruption of one kill instruction's mask. */
struct FaultSpec
{
    bool enabled = false;
    /** Which static kill to corrupt, modulo the binary's kill
     * count (stays meaningful as the minimizer shrinks the
     * program). */
    unsigned killOrdinal = 0;
    /** Register bit to assert dead; r0 excluded (the emulator's
     * dead-read detector ignores the hard-wired zero). */
    RegIndex reg = 16;
};

/** Oracle knobs. */
struct OracleOptions
{
    /** Program-instruction budget for every layer; programs that do
     * not halt within it are diffed over the prefix. */
    std::uint64_t maxProgInsts = 200000;
    unsigned lvmStackDepth = 16;
    bool staticCheck = true;   ///< layer 0
    bool runDense = true;      ///< lockstep the Dense binary too
    bool runCore = true;       ///< layer 4
    FaultSpec fault;
};

/** Outcome of one oracle run. */
struct OracleReport
{
    bool ok = true;
    /** First failure, deterministic text (empty when ok). */
    std::string failure;

    bool halted = false;          ///< program completed in budget
    std::uint64_t progInsts = 0;  ///< program instructions compared
    std::uint64_t staticKills = 0;   ///< kill insts in the binary
    std::uint64_t savesEliminated = 0;
    std::uint64_t restoresEliminated = 0;
};

/**
 * Apply a fault to a compiled binary: set the spec's register bit in
 * the (killOrdinal mod kill-count)-th kill instruction. Returns
 * false (binary unchanged) when it has no kills or the bit was
 * already set — the caller should pick another spec.
 */
bool applyKillFault(comp::Executable &exe, const FaultSpec &fault);

/** The --inject-kill-bit ORDINAL:REG row of a tool's flag table:
 * where it appears, `fault` asserts REG (1..31) dead at kill
 * #ORDINAL; a malformed value is fatal. */
cli::Flag killFaultFlag(const char *help, FaultSpec &fault);

/** Run every enabled layer over one program. */
OracleReport runOracle(const prog::Module &mod,
                       const OracleOptions &opts);

} // namespace fuzz
} // namespace dvi

#endif // DVI_FUZZ_ORACLE_HH
