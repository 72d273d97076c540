/**
 * @file
 * IR module <-> JSON serialization.
 *
 * Lets a whole prog::Module travel as data: the fuzz subsystem's
 * repro manifests embed the (minimized) failing program so a failure
 * replays from one self-contained file, with no dependence on the
 * generator code or seed that produced it.
 *
 * Encoding: each instruction is a compact array
 *   [op, dst, src1, src2, imm, target, callee, [args...], fd, fs1, fs2]
 * where op is the op table's token (DVI_IR_OPS), with trailing
 * default fields omitted (defaults: registers 0,
 * imm 0, target/callee -1, args empty). Emission is deterministic
 * (base/json), so load -> emit round-trips byte-identically.
 */

#ifndef DVI_PROGRAM_IR_JSON_HH
#define DVI_PROGRAM_IR_JSON_HH

#include <string>

#include "base/json.hh"
#include "program/ir.hh"

namespace dvi
{
namespace prog
{

/** Load limits, far above what the generators emit (at most 212
 * vregs and 4,096 global words over the 7 benchmarks and 6,000 fuzz
 * programs of seeds 1-3): a document past one is rejected before any
 * pass sizes memory by it. */
constexpr VReg maxLoadedNextVReg = 1u << 16;
constexpr unsigned maxLoadedGlobalWords = 1u << 20;

/** Lower-case token for an IR op, e.g. "addimm". */
std::string irOpName(IrOp op);

/** Serialize a module (deterministic). */
json::Value moduleToJson(const Module &m);

/**
 * Load a module from its JSON form. Returns "" on success or a
 * diagnostic naming the offending field or procedure/block/
 * instruction. Every integer is range-checked against its field's
 * type, and nextVReg and globalWords against the load limits. The
 * loaded module passes Module::validate, the structure walk lint's
 * ir-structure rule also reports from, so a repro never reaches the
 * compiler with a vreg beyond its procedure's nextVReg.
 */
std::string moduleFromJson(const json::Value &v, Module &out);

} // namespace prog
} // namespace dvi

#endif // DVI_PROGRAM_IR_JSON_HH
