/**
 * @file
 * Out-of-order core configuration (the paper's Fig. 2 machine) and
 * the DVI feature knobs the experiments sweep.
 */

#ifndef DVI_UARCH_CORE_CONFIG_HH
#define DVI_UARCH_CORE_CONFIG_HH

#include <cstdint>

#include "arch/xlate.hh"
#include "base/fault.hh"
#include "mem/cache.hh"
#include "predictor/branch_predictor.hh"

namespace dvi
{
namespace uarch
{

struct CoreStats;

/** Which DVI sources the hardware consumes. */
struct DviConfig
{
    bool useIdvi = true;       ///< infer kills from call/return (§2)
    bool useEdvi = true;       ///< honor explicit kill instructions
    bool earlyReclaim = true;  ///< free phys regs at kill commit (§4)
    bool elimSaves = true;     ///< LVM scheme (§5.2)
    bool elimRestores = true;  ///< LVM-Stack scheme (§5.2)
    unsigned lvmStackDepth = 16;

    /** Everything off: the paper's baseline. */
    static DviConfig
    none()
    {
        return DviConfig{false, false, false, false, false, 16};
    }

    /** I-DVI only (no binary changes). */
    static DviConfig
    idviOnly()
    {
        return DviConfig{true, false, true, true, true, 16};
    }

    /** Full DVI (E-DVI + I-DVI). */
    static DviConfig
    full()
    {
        return DviConfig{true, true, true, true, true, 16};
    }

    /** LVM scheme only: saves eliminated, restores execute (§5.2). */
    static DviConfig
    lvmScheme()
    {
        DviConfig c = full();
        c.elimRestores = false;
        return c;
    }
};

/** Machine configuration; defaults reproduce the paper's Fig. 2. */
struct CoreConfig
{
    unsigned fetchWidth = 4;
    unsigned decodeWidth = 4;
    unsigned issueWidth = 4;
    unsigned commitWidth = 4;
    unsigned windowSize = 64;     ///< unified instruction window
    unsigned fetchQueueSize = 16;
    unsigned numPhysRegs = 80;    ///< integer physical register file
    unsigned cachePorts = 2;      ///< fully independent (replicated)

    unsigned intAlus = 4;
    unsigned intMulDivs = 2;      ///< subset of the int units
    unsigned fpAlus = 2;
    unsigned fpMulDivs = 1;

    DviConfig dvi;

    mem::CacheParams il1{"il1", 64 * 1024, 4, 64, 1};
    mem::CacheParams dl1{"dl1", 64 * 1024, 4, 64, 1};
    mem::CacheParams l2{"l2", 512 * 1024, 4, 64, 8};
    unsigned memLatency = 60;

    predictor::PredictorParams bp;

    /** Execution tier of the internal functional emulator feeding
     * the fetch stage (sim/scenario.hh's emu.tier; the timing
     * runner copies it here so one `--set emu.tier=...` axis A/Bs
     * both the functional and the timing paths). Either tier
     * produces bit-identical traces — this is a throughput knob,
     * never a results axis. */
    arch::ExecTier emuTier = arch::ExecTier::Xlate;

    /** Stop after this many committed program instructions (0: run
     * to completion). */
    std::uint64_t maxInsts = 0;

    /** Safety valve for simulator bugs; 0 disables. */
    std::uint64_t maxCycles = 0;

    /** @name Mid-run stats sampling
     * When sampleEveryInsts > 0, run() invokes sampleHook(stats,
     * sampleCtx) each time committedProgInsts crosses the next
     * multiple of sampleEveryInsts. Strictly observational: the hook
     * sees a const snapshot and must not touch the core. When 0 (the
     * default) the run loop's only residue is one integer compare
     * per cycle against a never-reached sentinel. @{ */
    std::uint64_t sampleEveryInsts = 0;
    void (*sampleHook)(const CoreStats &stats, void *ctx) = nullptr;
    void *sampleCtx = nullptr;
    /** @} */

    /**
     * Cooperative cancellation: when a deadline or a campaign flag
     * is present, run() polls both every 1024 loop iterations and
     * unwinds with base::CancelledError once the deadline has
     * passed or the flag (DELETE's, shutdown's or SIGINT's) reads
     * true. Not a config axis — never serialized, never affects
     * stats of runs that complete.
     */
    base::CancelFlags cancel;

    /** Scale issue width and matching resources (Fig. 11's 8-way
     * configuration doubles the functional units and widths). */
    void
    setIssueWidth(unsigned width)
    {
        fetchWidth = decodeWidth = issueWidth = commitWidth = width;
        intAlus = width;
        intMulDivs = width / 2;
        fpAlus = width / 2;
        fpMulDivs = width / 4 ? width / 4 : 1;
        if (width > 4)
            windowSize = 128;
    }
};

} // namespace uarch
} // namespace dvi

#endif // DVI_UARCH_CORE_CONFIG_HH
