/**
 * @file
 * Intra-procedural virtual-register liveness analysis.
 *
 * This is the standard backward dataflow the paper relies on (§2: "The
 * information encoded in E-DVI instructions is computed using static,
 * intra-procedural liveness analysis performed in standard
 * compilers"). Which vregs each op reads and writes comes from the IR
 * op table (prog::irUses / prog::irDef), the same facts the IR lint
 * rules use. The register allocator consumes the per-position sets
 * to build interference, and the E-DVI pass consumes live-out sets at
 * call sites to form kill masks. Kill soundness is proved
 * independently, on the machine code (analysis/machine_checks).
 */

#ifndef DVI_COMPILER_LIVENESS_HH
#define DVI_COMPILER_LIVENESS_HH

#include <vector>

#include "base/dyn_bitset.hh"
#include "program/ir.hh"

namespace dvi
{
namespace comp
{

/** Result of liveness analysis for one procedure. */
struct Liveness
{
    std::size_t numVRegs = 0;          ///< bitset width (nextVReg)
    std::vector<DynBitset> liveIn;     ///< per block
    std::vector<DynBitset> liveOut;    ///< per block
};

/** Run the backward dataflow to a fixed point. */
Liveness computeLiveness(const prog::Procedure &proc);

/**
 * Per-instruction live-after sets for one block: result[i] is the set
 * of virtual registers live immediately after insts[i].
 */
std::vector<DynBitset> liveAfterPerInst(const prog::Procedure &proc,
                                        const Liveness &live,
                                        int block);

} // namespace comp
} // namespace dvi

#endif // DVI_COMPILER_LIVENESS_HH
