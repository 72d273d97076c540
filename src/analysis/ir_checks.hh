/**
 * @file
 * Static checks over the mid-level IR (prog::Module).
 *
 * The rules read the IR's own specification: def/use sets and the
 * pure flag come from the IR op table (program/ir.hh), as the machine
 * rules read the ABI masks. They check the compiler's input; kill
 * soundness is proved on the machine code (machine_checks).
 *
 * Rule catalog:
 *  - ir-structure (error): one finding per error of the module's
 *    structure walk (prog::Module::structureErrors, the one
 *    Module::validate reports from) — procedures present and
 *    mainIndex valid, blocks present, at most 4 params, terminator
 *    placement, branch/jump targets in range, callee indices, no call
 *    passing more args than its callee has params, param and operand
 *    vregs within the procedure's allocated range, blocks that fall
 *    off the end of the procedure. Dataflow rules skip a procedure
 *    whose CFG an error broke.
 *  - ir-unreachable (info, advisory): blocks no path from the entry
 *    reaches. Legal — the adversarial fuzz generator emits them on
 *    purpose and the compiler lowers them — but worth surfacing when
 *    auditing a hand-built module.
 *  - ir-def-before-use (error): a vreg read that either has no
 *    definition anywhere in the procedure (this would later panic the
 *    register allocator) or is not definitely assigned on every path
 *    from entry (definite assignment: forward/intersect dataflow
 *    seeded with the parameter set).
 *  - ir-dead-store (info, advisory): a definition by a pure op (the
 *    op table's flag: its only effect is writing dst) whose value no
 *    path ever reads — backward liveness over vregs.
 *    This is exactly the "dead value" density the paper mines, so a
 *    plain module legitimately has them; the rule feeds the
 *    ablation-edvi-density story rather than failing lint.
 */

#ifndef DVI_ANALYSIS_IR_CHECKS_HH
#define DVI_ANALYSIS_IR_CHECKS_HH

#include "analysis/findings.hh"
#include "program/ir.hh"

namespace dvi
{
namespace analysis
{

/**
 * Run the IR rule pipeline over every procedure of `mod`. Advisory
 * (Info) rules run only when `advisory` is set. Findings carry
 * `mod.name` as their unit.
 */
FindingReport checkModule(const prog::Module &mod,
                          bool advisory = false);

} // namespace analysis
} // namespace dvi

#endif // DVI_ANALYSIS_IR_CHECKS_HH
