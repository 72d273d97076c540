#include "analysis/ir_checks.hh"

#include <set>
#include <string>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/dataflow.hh"

namespace dvi
{
namespace analysis
{

namespace
{

using prog::IrInst;
using prog::IrOpClass;
using prog::noVReg;
using prog::VReg;

class IrChecker
{
  public:
    IrChecker(const prog::Module &mod, bool advisory)
        : mod_(mod), advisory_(advisory)
    {
    }

    FindingReport
    run()
    {
        checkStructure();
        for (std::size_t p = 0; p < mod_.procs.size(); ++p)
            checkProc(static_cast<int>(p));
        return std::move(report_);
    }

  private:
    Site
    site(int proc, int block = -1, int inst = -1) const
    {
        Site s;
        s.unit = mod_.name;
        s.proc = mod_.procs[static_cast<std::size_t>(proc)].name;
        s.block = block;
        s.inst = inst;
        return s;
    }

    /** ir-structure: one finding per error of the module's
     * structure walk (Module::structureErrors). */
    void
    checkStructure()
    {
        cfgUsable_.assign(mod_.procs.size(), true);
        for (const prog::IrError &e : mod_.structureErrors()) {
            Site s;
            s.unit = mod_.name;
            if (e.proc >= 0) {
                s = site(e.proc, e.block, e.inst);
                if (!e.cfgUsable)
                    cfgUsable_[static_cast<std::size_t>(e.proc)] =
                        false;
            }
            report_.add(Severity::Error, "ir-structure", std::move(s),
                        e.message);
        }
    }

    void
    checkProc(int p)
    {
        if (!cfgUsable_[static_cast<std::size_t>(p)])
            return;  // dataflow over a malformed CFG is meaningless
        const prog::Procedure &proc =
            mod_.procs[static_cast<std::size_t>(p)];
        const Cfg cfg = cfgFromProcedure(proc);
        checkDefBeforeUse(p, proc, cfg);
        if (advisory_) {
            checkUnreachable(p, proc, cfg);
            checkDeadStores(p, proc, cfg);
        }
    }

    /** ir-unreachable. */
    void
    checkUnreachable(int p, const prog::Procedure &proc,
                     const Cfg &cfg)
    {
        (void)proc;
        for (int b : cfg.unreachable()) {
            report_.add(Severity::Info, "ir-unreachable", site(p, b),
                        "no path from the entry block reaches this "
                        "block");
        }
    }

    /** ir-def-before-use: never-defined reads plus definite
     * assignment on every path. */
    void
    checkDefBeforeUse(int p, const prog::Procedure &proc,
                      const Cfg &cfg)
    {
        const std::size_t nbits = proc.nextVReg;

        // Pass A: vregs read but defined nowhere at all (the register
        // allocator would have no home for them). Covers unreachable
        // blocks too — the compiler lowers those as well.
        DynBitset defined(nbits);
        for (VReg v : proc.params)
            if (v != noVReg && v < proc.nextVReg)
                defined.set(v);
        for (const auto &bb : proc.blocks) {
            for (const IrInst &inst : bb.insts) {
                const VReg d = irDef(inst);
                if (d != noVReg && d < proc.nextVReg)
                    defined.set(d);
            }
        }
        std::set<VReg> neverDefined;
        const int nblocks = static_cast<int>(proc.blocks.size());
        for (int b = 0; b < nblocks; ++b) {
            const auto &insts =
                proc.blocks[static_cast<std::size_t>(b)].insts;
            for (int i = 0; i < static_cast<int>(insts.size()); ++i) {
                for (VReg u :
                     irUses(insts[static_cast<std::size_t>(i)])) {
                    if (u >= proc.nextVReg || defined.test(u) ||
                        !neverDefined.insert(u).second)
                        continue;
                    report_.add(Severity::Error, "ir-def-before-use",
                                site(p, b, i),
                                "reads vreg " + std::to_string(u) +
                                    " which is never defined in the "
                                    "procedure");
                }
            }
        }

        // Pass B: definite assignment. Forward must-analysis; a block
        // "generates" every vreg it defines, nothing un-assigns.
        // Unreachable blocks keep TOP and so never report here.
        std::vector<Transfer> transfers(
            static_cast<std::size_t>(nblocks));
        for (int b = 0; b < nblocks; ++b) {
            Transfer &t = transfers[static_cast<std::size_t>(b)];
            t.gen = DynBitset(nbits);
            t.kill = DynBitset(nbits);
            for (const IrInst &inst :
                 proc.blocks[static_cast<std::size_t>(b)].insts) {
                const VReg d = irDef(inst);
                if (d != noVReg && d < proc.nextVReg)
                    t.gen.set(d);
            }
        }
        DynBitset boundary(nbits);
        for (VReg v : proc.params)
            if (v != noVReg && v < proc.nextVReg)
                boundary.set(v);
        const DataflowResult df =
            solve(cfg, Direction::Forward, Meet::Intersect, nbits,
                  transfers, boundary);
        if (!df.converged) {
            report_.add(Severity::Error, "ir-def-before-use", site(p),
                        "definite-assignment analysis failed to "
                        "converge (internal error)");
            return;
        }
        for (int b = 0; b < nblocks; ++b) {
            DynBitset assigned = df.in[static_cast<std::size_t>(b)];
            const auto &insts =
                proc.blocks[static_cast<std::size_t>(b)].insts;
            for (int i = 0; i < static_cast<int>(insts.size()); ++i) {
                const IrInst &inst =
                    insts[static_cast<std::size_t>(i)];
                for (VReg u : irUses(inst)) {
                    if (u >= proc.nextVReg || assigned.test(u) ||
                        neverDefined.count(u))
                        continue;
                    report_.add(Severity::Error, "ir-def-before-use",
                                site(p, b, i),
                                "vreg " + std::to_string(u) +
                                    " may be read before it is "
                                    "assigned");
                    assigned.set(u);  // report each vreg once
                }
                const VReg d = irDef(inst);
                if (d != noVReg && d < proc.nextVReg)
                    assigned.set(d);
            }
        }
    }

    /** ir-dead-store (advisory): backward liveness over vregs. */
    void
    checkDeadStores(int p, const prog::Procedure &proc,
                    const Cfg &cfg)
    {
        const std::size_t nbits = proc.nextVReg;
        const int nblocks = static_cast<int>(proc.blocks.size());
        std::vector<Transfer> transfers(
            static_cast<std::size_t>(nblocks));
        for (int b = 0; b < nblocks; ++b) {
            Transfer &t = transfers[static_cast<std::size_t>(b)];
            t.gen = DynBitset(nbits);   // upward-exposed uses
            t.kill = DynBitset(nbits);  // defs
            const auto &insts =
                proc.blocks[static_cast<std::size_t>(b)].insts;
            for (int i = static_cast<int>(insts.size()) - 1; i >= 0;
                 --i) {
                const IrInst &inst =
                    insts[static_cast<std::size_t>(i)];
                const VReg d = irDef(inst);
                if (d != noVReg && d < proc.nextVReg) {
                    t.gen.clear(d);
                    t.kill.set(d);
                }
                for (VReg u : irUses(inst))
                    if (u < proc.nextVReg)
                        t.gen.set(u);
            }
        }
        const DataflowResult df =
            solve(cfg, Direction::Backward, Meet::Union, nbits,
                  transfers, DynBitset(nbits));
        if (!df.converged)
            return;  // def-before-use already reports this shape

        std::set<int> unreachable;
        for (int b : cfg.unreachable())
            unreachable.insert(b);
        for (int b = 0; b < nblocks; ++b) {
            if (unreachable.count(b))
                continue;  // already warned wholesale
            DynBitset live = df.out[static_cast<std::size_t>(b)];
            const auto &insts =
                proc.blocks[static_cast<std::size_t>(b)].insts;
            for (int i = static_cast<int>(insts.size()) - 1; i >= 0;
                 --i) {
                const IrInst &inst =
                    insts[static_cast<std::size_t>(i)];
                const VReg d = irDef(inst);
                if (d != noVReg && d < proc.nextVReg) {
                    if (!live.test(d) &&
                        (inst.info().flags & IrOpClass::pure)) {
                        report_.add(Severity::Info, "ir-dead-store",
                                    site(p, b, i),
                                    "value written to vreg " +
                                        std::to_string(d) +
                                        " is never read");
                    }
                    live.clear(d);
                }
                for (VReg u : irUses(inst))
                    if (u < proc.nextVReg)
                        live.set(u);
            }
        }
    }

    const prog::Module &mod_;
    const bool advisory_;
    std::vector<bool> cfgUsable_;  ///< per procedure
    FindingReport report_;
};

} // namespace

FindingReport
checkModule(const prog::Module &mod, bool advisory)
{
    return IrChecker(mod, advisory).run();
}

} // namespace analysis
} // namespace dvi
