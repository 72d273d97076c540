#include "fuzz/oracle.hh"

#include <algorithm>
#include <sstream>

#include "analysis/lint.hh"
#include "arch/emulator.hh"
#include "base/bits.hh"
#include "base/fault.hh"
#include "compiler/compile.hh"
#include "isa/registers.hh"
#include "uarch/core.hh"
#include "uarch/core_config.hh"

namespace dvi
{
namespace fuzz
{

namespace
{

arch::EmulatorOptions
emuOpts(bool honor_edvi, unsigned depth)
{
    arch::EmulatorOptions o;
    o.trackLiveness = true;
    o.honorEdvi = honor_edvi;
    o.honorIdvi = true;
    o.lvmStackDepth = depth;
    o.strictDeadReads = false;
    // Broken candidate programs (minimizer probes) must fail the
    // predicate, not abort the campaign.
    o.faultOnMisaligned = true;
    return o;
}

std::string
describeInst(const arch::TraceRecord &tr)
{
    std::ostringstream os;
    os << "pc " << tr.pc << ": " << tr.inst.toString();
    return os.str();
}

/**
 * Lockstep diff of the reference emulator (plain binary, E-DVI
 * ignored) against a candidate emulator consuming its binary's
 * kills. The caller constructs `b` (and may keep it for the core
 * layer's cross-checks). Fills the report's progInsts/halted and
 * returns "" or the first mismatch.
 */
std::string
lockstep(const comp::Executable &plain, arch::Emulator &b,
         const char *label, const OracleOptions &opts,
         OracleReport &rep)
{
    arch::Emulator a(plain, emuOpts(false, opts.lvmStackDepth));
    arch::TraceRecord ta, tb;

    std::uint64_t n = 0;
    bool halted = false;
    for (; n < opts.maxProgInsts; ++n) {
        const bool alive_a = a.step(&ta);
        bool alive_b = b.step(&tb);
        while (alive_b && tb.inst.isKill())
            alive_b = b.step(&tb);
        if (alive_a != alive_b) {
            return std::string(label) +
                   ": instruction streams end apart at #" +
                   std::to_string(n) + " (reference " +
                   (alive_a ? "running" : "halted") + ", " + label +
                   " " + (alive_b ? "running" : "halted") + ")";
        }
        if (!alive_a) {
            halted = true;
            break;
        }
        if (ta.inst.op != tb.inst.op) {
            return std::string(label) + ": opcode diverges at #" +
                   std::to_string(n) + ": reference " +
                   describeInst(ta) + " vs " + describeInst(tb);
        }
        if (ta.effAddr != tb.effAddr) {
            return std::string(label) +
                   ": effective address diverges at #" +
                   std::to_string(n) + " (" + describeInst(ta) +
                   "): " + std::to_string(ta.effAddr) + " vs " +
                   std::to_string(tb.effAddr);
        }
        if (ta.taken != tb.taken) {
            return std::string(label) +
                   ": branch outcome diverges at #" +
                   std::to_string(n) + " (" + describeInst(ta) +
                   ")";
        }
    }
    rep.progInsts = n;
    rep.halted = halted;
    rep.savesEliminated = b.stats().saveElimOracle;
    rep.restoresEliminated = b.stats().restoreElimOracle;

    // A misaligned access is a broken program, not a DVI bug (both
    // sides compute identical data addresses). Classed as
    // ill-formed so minimizer probes that mangle an address
    // computation are rejected.
    if (a.faulted() || b.faulted()) {
        return std::string(label) +
               ": misaligned memory access at pc " +
               std::to_string(a.faulted() ? a.faultPc()
                                          : b.faultPc()) +
               ": ill-formed program";
    }

    // Liveness layer: neither side may read a dead register. A dead
    // read on the candidate means its E-DVI is wrong; on the
    // reference it means the program itself is ill-formed (the
    // minimizer uses this to reject broken shrink candidates).
    if (a.stats().deadReads) {
        return std::string(label) +
               ": reference (plain) binary read a dead register at "
               "pc " +
               std::to_string(a.stats().firstDeadReadPc) + " (" +
               isa::intRegName(a.stats().firstDeadReadReg) +
               "): ill-formed program";
    }
    if (b.stats().deadReads) {
        return std::string(label) + ": dead read at pc " +
               std::to_string(b.stats().firstDeadReadPc) + " of " +
               isa::intRegName(b.stats().firstDeadReadReg) +
               " (incorrect E-DVI, " +
               std::to_string(b.stats().deadReads) +
               " total dead reads)";
    }

    // Final-state layer (only meaningful for completed runs).
    if (halted) {
        for (RegIndex r = 0; r < isa::numIntRegs; ++r) {
            if (r == isa::regRa)
                continue;  // holds shifted code addresses
            if (a.intReg(r) != b.intReg(r)) {
                return std::string(label) + ": final " +
                       isa::intRegName(r) + " diverges: " +
                       std::to_string(a.intReg(r)) + " vs " +
                       std::to_string(b.intReg(r));
            }
        }
        for (RegIndex r = 0; r < isa::numFpRegs; ++r) {
            // Bitwise: an FP register can legitimately hold a NaN
            // (integer stores reinterpreted through a stack slot),
            // and NaN != NaN would report a bit-identical file as
            // divergent.
            if (bitCast<std::int64_t>(a.fpReg(r)) !=
                bitCast<std::int64_t>(b.fpReg(r))) {
                return std::string(label) + ": final " +
                       isa::fpRegName(r) + " diverges";
            }
        }
        for (unsigned w = 0; w < plain.globalWords; ++w) {
            const Addr addr = plain.globalBase + 8ull * w;
            if (a.memory().read(addr) != b.memory().read(addr)) {
                return std::string(label) +
                       ": global word " + std::to_string(w) +
                       " diverges: " +
                       std::to_string(a.memory().read(addr)) +
                       " vs " +
                       std::to_string(b.memory().read(addr));
            }
        }
    }

    return "";
}

/**
 * Layer 5: the tier-0 interpreter against the tier-1 translation
 * cache over the same binary. Unlike the E-DVI lockstep, both sides
 * run identical code, so the record streams must match one for one
 * — kills included — and every stats counter and architectural bit
 * must agree at the end. The cached side is driven through
 * stepBatch (the path the timing core uses); the reference through
 * step(), which never translates.
 */
std::string
tierLockstep(const comp::Executable &exe, const OracleOptions &opts)
{
    arch::EmulatorOptions iopts = emuOpts(true, opts.lvmStackDepth);
    iopts.tier = arch::ExecTier::Interp;
    arch::EmulatorOptions xopts = iopts;
    xopts.tier = arch::ExecTier::Xlate;
    arch::Emulator a(exe, iopts);
    arch::Emulator b(exe, xopts);

    arch::TraceRecord ta;
    arch::TraceRecord buf[128];
    std::uint64_t n = 0;
    while (n < opts.maxProgInsts) {
        const std::size_t want =
            std::min<std::uint64_t>(128, opts.maxProgInsts - n);
        const std::size_t got = b.stepBatch(buf, want);
        if (got == 0)
            break;
        for (std::size_t i = 0; i < got; ++i, ++n) {
            const arch::TraceRecord &tb = buf[i];
            if (!a.step(&ta)) {
                return "tier: interpreter halted at record #" +
                       std::to_string(n) +
                       ", translation cache still running (" +
                       describeInst(tb) + ")";
            }
            if (ta.pc != tb.pc || ta.inst.op != tb.inst.op) {
                return "tier: stream diverges at record #" +
                       std::to_string(n) + ": interpreter " +
                       describeInst(ta) + " vs cached " +
                       describeInst(tb);
            }
            if (ta.effAddr != tb.effAddr) {
                return "tier: effective address diverges at record "
                       "#" +
                       std::to_string(n) + " (" + describeInst(ta) +
                       "): " + std::to_string(ta.effAddr) + " vs " +
                       std::to_string(tb.effAddr);
            }
            if (ta.taken != tb.taken) {
                return "tier: branch outcome diverges at record #" +
                       std::to_string(n) + " (" + describeInst(ta) +
                       ")";
            }
            if (ta.nextPc != tb.nextPc) {
                return "tier: next pc diverges at record #" +
                       std::to_string(n) + " (" + describeInst(ta) +
                       "): " + std::to_string(ta.nextPc) + " vs " +
                       std::to_string(tb.nextPc);
            }
        }
        // The dead-read detector must fire identically; checked at
        // batch (<= block-length) granularity, then exactly below.
        if (a.stats().deadReads != b.stats().deadReads) {
            return "tier: dead-read counts diverge after record #" +
                   std::to_string(n) + ": " +
                   std::to_string(a.stats().deadReads) + " vs " +
                   std::to_string(b.stats().deadReads);
        }
        if (b.halted())
            break;
    }
    if (b.halted() && a.step(nullptr))
        return "tier: translation cache halted, interpreter still "
               "running";

    if (a.faulted() != b.faulted() ||
        (a.faulted() && a.faultPc() != b.faultPc())) {
        return "tier: fault state diverges (interpreter " +
               std::string(a.faulted() ? "faulted" : "clean") +
               " at pc " + std::to_string(a.faultPc()) +
               ", cached " +
               std::string(b.faulted() ? "faulted" : "clean") +
               " at pc " + std::to_string(b.faultPc()) + ")";
    }

    const arch::EmulatorStats &sa = a.stats();
    const arch::EmulatorStats &sb = b.stats();
    std::string diverged;
    arch::EmulatorStats::forEachCounter([&](const char *name,
                                            auto field) {
        if (diverged.empty() && sa.*field != sb.*field)
            diverged = std::string("tier: stats.") + name +
                       " diverges: " + std::to_string(sa.*field) +
                       " vs " + std::to_string(sb.*field);
    });
    if (!diverged.empty())
        return diverged;

    // Bitwise architectural end state. Same binary on both sides,
    // so ra is included (unlike the cross-binary lockstep layer).
    for (RegIndex r = 0; r < isa::numIntRegs; ++r) {
        if (a.intReg(r) != b.intReg(r)) {
            return "tier: " + isa::intRegName(r) + " diverges: " +
                   std::to_string(a.intReg(r)) + " vs " +
                   std::to_string(b.intReg(r));
        }
    }
    for (RegIndex r = 0; r < isa::numFpRegs; ++r) {
        if (bitCast<std::int64_t>(a.fpReg(r)) !=
            bitCast<std::int64_t>(b.fpReg(r)))
            return "tier: " + isa::fpRegName(r) + " diverges";
    }
    if (a.lvm().mask().raw() != b.lvm().mask().raw())
        return "tier: LVM diverges";
    if (a.fpLive().raw() != b.fpLive().raw())
        return "tier: FP liveness diverges";
    for (unsigned w = 0; w < exe.globalWords; ++w) {
        const Addr addr = exe.globalBase + 8ull * w;
        if (a.memory().read(addr) != b.memory().read(addr))
            return "tier: global word " + std::to_string(w) +
                   " diverges";
    }
    if (a.resultHash() != b.resultHash())
        return "tier: result hash diverges";
    return "";
}

/** Layer 4: the timing core's commit stream against the functional
 * LVM oracle `b` (the candidate emulator from the lockstep run). */
std::string
coreLayer(const comp::Executable &edvi, const arch::Emulator &b,
          const OracleOptions &opts, const OracleReport &rep)
{
    uarch::CoreConfig cc;
    cc.dvi = uarch::DviConfig::full();
    cc.dvi.lvmStackDepth = opts.lvmStackDepth;
    cc.maxInsts = opts.maxProgInsts;
    uarch::Core core(edvi, cc);
    try {
        core.run();
    } catch (const base::Fault &f) {
        // Debug builds' dispatch hook: a read of a killed register.
        return std::string("core: ") + f.what();
    }
    const uarch::CoreStats &cs = core.stats();

    if (cs.committedProgInsts != rep.progInsts) {
        return "core: committed " +
               std::to_string(cs.committedProgInsts) +
               " program instructions, functional oracle retired " +
               std::to_string(rep.progInsts);
    }
    if (rep.halted && cs.committedKills != b.stats().kills) {
        return "core: committed " +
               std::to_string(cs.committedKills) +
               " kills, functional oracle retired " +
               std::to_string(b.stats().kills);
    }
    if (cs.savesSeen != b.stats().saves ||
        cs.restoresSeen != b.stats().restores) {
        return "core: decoded " + std::to_string(cs.savesSeen) +
               " saves / " + std::to_string(cs.restoresSeen) +
               " restores, functional oracle retired " +
               std::to_string(b.stats().saves) + " / " +
               std::to_string(b.stats().restores);
    }
    if (cs.savesEliminated != b.stats().saveElimOracle) {
        return "core: squashed " +
               std::to_string(cs.savesEliminated) +
               " saves, functional LVM oracle says " +
               std::to_string(b.stats().saveElimOracle);
    }
    if (cs.restoresEliminated != b.stats().restoreElimOracle) {
        return "core: squashed " +
               std::to_string(cs.restoresEliminated) +
               " restores, functional LVM-Stack oracle says " +
               std::to_string(b.stats().restoreElimOracle);
    }

    // The core's internal emulator consumed the same binary through
    // the batched trace path; its architectural end state must be
    // bit-identical to the lockstep emulator's (kills do not touch
    // architectural state, so trailing-kill cut points are
    // harmless).
    const arch::Emulator &ce = core.emulator();
    for (RegIndex r = 0; r < isa::numIntRegs; ++r) {
        if (ce.intReg(r) != b.intReg(r)) {
            return "core: emulator " + isa::intRegName(r) +
                   " diverges from lockstep oracle: " +
                   std::to_string(ce.intReg(r)) + " vs " +
                   std::to_string(b.intReg(r));
        }
    }
    for (unsigned w = 0; w < edvi.globalWords; ++w) {
        const Addr addr = edvi.globalBase + 8ull * w;
        if (ce.memory().read(addr) != b.memory().read(addr)) {
            return "core: global word " + std::to_string(w) +
                   " diverges from lockstep oracle";
        }
    }
    if (ce.resultHash() != b.resultHash())
        return "core: result hash diverges from lockstep oracle";
    return "";
}

} // namespace

bool
applyKillFault(comp::Executable &exe, const FaultSpec &fault)
{
    if (!fault.enabled || fault.reg == 0 ||
        fault.reg >= isa::numIntRegs)
        return false;
    std::vector<std::size_t> kills;
    for (std::size_t i = 0; i < exe.code.size(); ++i)
        if (exe.code[i].isKill())
            kills.push_back(i);
    if (kills.empty())
        return false;
    isa::Instruction &inst =
        exe.code[kills[fault.killOrdinal % kills.size()]];
    const std::int32_t bit = static_cast<std::int32_t>(
        1u << fault.reg);
    if (inst.imm & bit)
        return false;  // already asserted dead: not a corruption
    inst.imm |= bit;
    return true;
}

cli::Flag
killFaultFlag(const char *help, FaultSpec &fault)
{
    return {"--inject-kill-bit", "ORDINAL:REG", help,
            [&fault](const cli::Arg &a) {
                const std::string kv = a.text;
                const std::size_t colon = kv.find(':');
                fatal_if(colon == std::string::npos || colon == 0 ||
                             colon + 1 >= kv.size(),
                         a.flag, " wants ORDINAL:REG, got '", kv,
                         "'");
                fault.enabled = true;
                fault.killOrdinal = cli::parseUint<unsigned>(
                    a.flag, kv.substr(0, colon).c_str());
                const std::uint64_t reg = cli::parseUint(
                    a.flag, kv.substr(colon + 1).c_str());
                fatal_if(reg == 0 || reg >= isa::numIntRegs, a.flag,
                         " register must be 1..31");
                fault.reg = static_cast<RegIndex>(reg);
            }};
}

OracleReport
runOracle(const prog::Module &mod, const OracleOptions &opts)
{
    OracleReport rep;
    const auto fail = [&rep](std::string msg) {
        rep.ok = false;
        rep.failure = std::move(msg);
        return rep;
    };

    // Structural gate ahead of compilation: the IR rules, which
    // include Module::validate's structure walk and def-before-use
    // (minimizer probes that delete a value's only definition would
    // otherwise panic the register allocator).
    const std::string merr = analysis::firstModuleError(mod);
    if (!merr.empty())
        return fail("invalid module: " + merr);

    const comp::Executable plain = comp::compile(
        mod, comp::CompileOptions{comp::EdviPolicy::None});
    comp::Executable edvi = comp::compile(
        mod, comp::CompileOptions{comp::EdviPolicy::CallSites});
    if (opts.fault.enabled && !applyKillFault(edvi, opts.fault))
        return fail("fault injection not applicable (no kill "
                    "instruction / bit already set)");
    rep.staticKills = edvi.countKills();

    if (opts.staticCheck) {
        // Layer 0: the independent kill-mask prover (src/analysis —
        // deliberately not the compiler's own liveness).
        const std::string serr = analysis::verifyKills(edvi);
        if (!serr.empty())
            return fail("static: " + serr);
    }

    arch::Emulator edvi_emu(edvi, emuOpts(true, opts.lvmStackDepth));
    std::string err = lockstep(plain, edvi_emu, "edvi", opts, rep);
    if (!err.empty())
        return fail(std::move(err));

    if (opts.runDense) {
        comp::Executable dense = comp::compile(
            mod, comp::CompileOptions{comp::EdviPolicy::Dense});
        if (opts.staticCheck) {
            const std::string serr = analysis::verifyKills(dense);
            if (!serr.empty())
                return fail("static(dense): " + serr);
        }
        arch::Emulator dense_emu(dense,
                                 emuOpts(true, opts.lvmStackDepth));
        OracleReport dense_rep;
        err = lockstep(plain, dense_emu, "dense", opts, dense_rep);
        if (!err.empty())
            return fail(std::move(err));
    }

    if (opts.runCore) {
        err = coreLayer(edvi, edvi_emu, opts, rep);
        if (!err.empty())
            return fail(std::move(err));
    }

    err = tierLockstep(edvi, opts);
    if (!err.empty())
        return fail(std::move(err));

    return rep;
}

} // namespace fuzz
} // namespace dvi
