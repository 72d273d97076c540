#include "compiler/liveness.hh"

namespace dvi
{
namespace comp
{

using prog::IrInst;
using prog::noVReg;
using prog::Procedure;
using prog::VReg;

Liveness
computeLiveness(const Procedure &proc)
{
    const std::size_t n = proc.nextVReg;
    const std::size_t nblocks = proc.blocks.size();

    Liveness result;
    result.numVRegs = n;
    result.liveIn.assign(nblocks, DynBitset(n));
    result.liveOut.assign(nblocks, DynBitset(n));

    // Per-block gen (upward-exposed uses) and kill (defs) sets.
    std::vector<DynBitset> gen(nblocks, DynBitset(n));
    std::vector<DynBitset> defs(nblocks, DynBitset(n));
    for (std::size_t b = 0; b < nblocks; ++b) {
        const auto &insts = proc.blocks[b].insts;
        // Walk backward so a use after a def within the block is not
        // upward-exposed.
        for (std::size_t i = insts.size(); i > 0; --i) {
            const IrInst &inst = insts[i - 1];
            if (VReg d = irDef(inst); d != noVReg) {
                gen[b].clear(d);
                defs[b].set(d);
            }
            for (VReg u : irUses(inst))
                gen[b].set(u);
        }
    }

    // Iterate to fixed point (reverse block order converges fast on
    // mostly-forward CFGs).
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t b = nblocks; b > 0; --b) {
            const std::size_t bi = b - 1;
            DynBitset out(n);
            for (int succ : proc.successors(static_cast<int>(bi)))
                out.orWith(
                    result.liveIn[static_cast<std::size_t>(succ)]);
            DynBitset in = out;
            in.minusWith(defs[bi]);
            in.orWith(gen[bi]);
            if (!(out == result.liveOut[bi]) ||
                !(in == result.liveIn[bi])) {
                changed = true;
                result.liveOut[bi] = std::move(out);
                result.liveIn[bi] = std::move(in);
            }
        }
    }
    return result;
}

std::vector<DynBitset>
liveAfterPerInst(const Procedure &proc, const Liveness &live, int block)
{
    const auto &insts =
        proc.blocks[static_cast<std::size_t>(block)].insts;
    std::vector<DynBitset> after(insts.size(),
                                 DynBitset(live.numVRegs));
    DynBitset cur = live.liveOut[static_cast<std::size_t>(block)];
    for (std::size_t i = insts.size(); i > 0; --i) {
        after[i - 1] = cur;
        const IrInst &inst = insts[i - 1];
        if (VReg d = irDef(inst); d != noVReg)
            cur.clear(d);
        for (VReg u : irUses(inst))
            cur.set(u);
    }
    return after;
}

} // namespace comp
} // namespace dvi
