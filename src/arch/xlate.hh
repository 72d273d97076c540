/**
 * @file
 * Basic-block translation tier for the functional emulator.
 *
 * Tier 0 (arch/emulator.cc) decodes every dynamic instruction from
 * the Executable's code vector. This module implements tier 1: each
 * basic block is decoded once into a flat array of MicroOps —
 * operands, effective-address recipes, E-DVI kill masks, and the
 * dead-read probe list pre-baked — plus a precomputed static stats
 * delta, and the emulator then executes from the cache with a
 * threaded-dispatch inner loop (emulator_xlate.cc). The probe list
 * and the stats delta come from the opcode table
 * (isa/instruction.hh); tier 0 derives the same facts by hand, so
 * tier lockstep checks the table.
 *
 * Each block also carries a ProbeSummary per E-DVI setting: which
 * registers its dead-read probes read at their block-entry liveness,
 * and whether a probe follows an in-block kill or LVM restore. With
 * it the liveness-on executor tests the LVM once at block entry and
 * runs the per-micro-op probes only when that test says one could
 * fail.
 *
 * A TranslatedProgram is the per-executable block index: a lazy,
 * thread-safe pc -> XBlock table over a private copy of the code,
 * plus the timing core's per-pc decode table. The process-wide
 * TranslationCache (xlate_cache.hh) shares one TranslatedProgram
 * between every emulator and timing core running the same binary,
 * mirroring the driver's compile-once ExecutableCache.
 */

#ifndef DVI_ARCH_XLATE_HH
#define DVI_ARCH_XLATE_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "base/logging.hh"
#include "base/reg_mask.hh"
#include "base/types.hh"
#include "compiler/executable.hh"
#include "isa/decode.hh"
#include "isa/instruction.hh"

namespace dvi
{
namespace arch
{

/** Which execution path run()/stepBatch() take. step() is always
 * the tier-0 interpreter — it is the reference the lockstep tests
 * diff tier 1 against. */
enum class ExecTier : std::uint8_t
{
    Interp = 0,  ///< decode-dispatch interpreter (tier 0)
    Xlate = 1,   ///< basic-block translation cache (tier 1)
};

/**
 * One pre-decoded instruction. 16 bytes, flat in the block's uop
 * array: the inner loop touches exactly one cache line per four
 * micro-ops and never re-derives operands, srcIdx recipes, or the
 * dead-read probe list.
 */
struct MicroOp
{
    isa::Opcode op = isa::Opcode::Nop;
    RegIndex rd = 0;
    RegIndex rs1 = 0;
    RegIndex rs2 = 0;
    /** ALU immediate / displacement / branch target / kill mask —
     * same overloading as Instruction::imm. */
    std::int32_t imm = 0;
    /** Source instruction index (the architectural pc). */
    std::uint32_t pc = 0;
    /** Dead-read probe list, in interpreter checkRead order
     * (isa::deadCheckRegs); r0 already excluded. */
    RegIndex chk0 = 0;
    RegIndex chk1 = 0;
    std::uint8_t nChk = 0;
    std::uint8_t pad = 0;
};
static_assert(sizeof(MicroOp) == 16, "MicroOp packs to 16 bytes");

/**
 * Per-block instruction-mix delta: every EmulatorStats counter that
 * depends only on the static opcode sequence, applied in one shot
 * per block execution instead of per retired instruction. Dynamic
 * counters (takenBranches, the save/restore elimination oracles,
 * dead reads, maxCallDepth) stay per-uop.
 */
struct BlockStats
{
    std::uint32_t insts = 0;
    std::uint32_t progInsts = 0;
    std::uint32_t kills = 0;
    std::uint32_t aluOps = 0;
    std::uint32_t memRefs = 0;
    std::uint32_t loads = 0;
    std::uint32_t stores = 0;
    std::uint32_t fpOps = 0;
    std::uint32_t saves = 0;
    std::uint32_t restores = 0;
    std::uint32_t condBranches = 0;
    std::uint32_t calls = 0;
    std::uint32_t returns = 0;
};

/**
 * What a block's dead-read probes ask of the LVM, for one
 * EmulatorOptions::honorEdvi setting. Call, Ret and Halt end blocks,
 * so inside a block only the block's own register writes, E-DVI
 * kills and LvmLoads change the LVM. A probe of a register none of
 * them touched first therefore reads the register's block-entry
 * liveness, and one test of the entry LVM covers all such probes.
 */
struct ProbeSummary
{
    /** Registers some probe reads while their liveness is still the
     * block-entry liveness: no earlier micro-op of the block wrote,
     * killed or LVM-restored them. */
    RegMask entryProbes;
    /** True when the entry LVM cannot give some probe's result: the
     * probe reads a register an earlier micro-op killed and did not
     * redefine (kills count only when honored), or it follows an
     * LvmLoad. */
    bool innerProbe = false;
};

/** One translated basic block: [entryPc, entryPc + len) decoded. */
struct XBlock
{
    std::uint32_t entryPc = 0;
    std::uint32_t len = 0;
    BlockStats stat;
    std::vector<MicroOp> uops;
    /** Indexed by EmulatorOptions::honorEdvi. */
    ProbeSummary probes[2];
};

/** Translation stops after this many micro-ops even without a
 * terminator; the successor block picks up at the fall-through pc.
 * Bounds the worst case of the budget-tail logic in stepBatch. */
constexpr std::uint32_t maxBlockLen = 64;

/**
 * Decode one block starting at `pc`: micro-ops through the first
 * control transfer or halt (inclusive), capped at maxBlockLen or the
 * end of the code image, with its BlockStats and both ProbeSummary
 * entries. Blocks may overlap — a branch into the middle of an
 * already-translated block simply starts a new block there; code is
 * immutable so both decodings agree.
 */
XBlock translateBlock(const std::vector<isa::Instruction> &code,
                      std::uint32_t pc);

/** Static stats of the first `n` micro-ops of `b` — the mid-block
 * fault path re-classifies the executed prefix with this. */
BlockStats blockPrefixStats(const XBlock &b, std::uint32_t n);

/**
 * The lazy per-executable block index. Owns a private copy of the
 * code image (translation never dangles a caller's Executable) and
 * publishes blocks through an atomic table: lookups are lock-free
 * acquire loads; a miss takes a mutex, translates, and publishes
 * with a release store, so concurrent emulators sharing one program
 * through the TranslationCache are race-free (the TSan CI leg runs
 * the lockstep suite over exactly this). The timing decode table is
 * built eagerly at construction and immutable afterwards.
 */
class TranslatedProgram
{
  public:
    explicit TranslatedProgram(const comp::Executable &exe);

    TranslatedProgram(const TranslatedProgram &) = delete;
    TranslatedProgram &operator=(const TranslatedProgram &) = delete;

    std::size_t codeSize() const { return code_.size(); }

    /** Exact content comparison against `exe` (size first, then the
     * code bytes): the cache finds and admits programs by content, so
     * two distinct programs can never share a translation. */
    bool matches(const comp::Executable &exe) const;

    /** The timing core's decode entry per pc (codeSize() entries). */
    const isa::DecodedInst *decoded() const { return decoded_.data(); }

    /** Lock-free: the block published at `pc`, or nullptr if that
     * leader has not been translated yet. */
    const XBlock *
    blockAt(std::uint32_t pc) const
    {
        return table_[pc].load(std::memory_order_acquire);
    }

    /** The block led by `pc`, translating and publishing on first
     * use. `pc` must be inside the code image. The hit path is
     * inline: executors call this once per block. */
    const XBlock &
    getOrTranslate(std::uint32_t pc)
    {
        panic_if(pc >= code_.size(),
                 "getOrTranslate: pc ", pc, " outside code image");
        if (const XBlock *b = blockAt(pc))
            return *b;
        return translate(pc);
    }

    /** Number of distinct blocks translated so far. */
    std::size_t blockCount() const;

  private:
    /** Miss path of getOrTranslate: translate and publish under the
     * mutex. */
    const XBlock &translate(std::uint32_t pc);

    const std::vector<isa::Instruction> code_;
    const int entry_;
    std::vector<isa::DecodedInst> decoded_;

    /** One slot per pc; null until that leader is translated. */
    std::vector<std::atomic<const XBlock *>> table_;

    /** Guards storage_; the deque gives published blocks stable
     * addresses across later insertions. */
    mutable std::mutex mu_;
    std::deque<XBlock> storage_;
};

} // namespace arch
} // namespace dvi

#endif // DVI_ARCH_XLATE_HH
