#include "arch/xlate.hh"

#include <cstring>
#include <type_traits>

#include "base/logging.hh"
#include "isa/decode.hh"

namespace dvi
{
namespace arch
{

using isa::Instruction;
using isa::Opcode;

namespace
{

/** Fold one opcode into a block's static stats delta: each mix
 * counter is one opcode-table class query. Emulator::step() bumps
 * the same counters by hand, so tier lockstep checks this fold. */
void
accumulate(BlockStats &s, Opcode op)
{
    const Instruction inst{op};
    const isa::FuClass fu = inst.fuClass();
    ++s.insts;
    s.progInsts += !inst.isKill();
    s.kills += inst.isKill();
    s.aluOps += fu == isa::FuClass::IntAlu || fu == isa::FuClass::IntMulDiv;
    s.memRefs += inst.isMem();
    s.loads += inst.isLoad();
    s.stores += inst.isStore();
    s.fpOps += inst.isFp();
    s.saves += inst.isSave();
    s.restores += inst.isRestore();
    s.condBranches += inst.isCondBranch();
    s.calls += inst.isCall();
    s.returns += inst.isReturn();
}

/** Builds one ProbeSummary, one micro-op at a time in block order. */
class ProbeWalk
{
  public:
    explicit ProbeWalk(bool honor_edvi) : honorEdvi(honor_edvi) {}

    /** Fold in one instruction: its probes read the liveness left by
     * the micro-ops before it, then its own write, kill or LVM
     * restore takes effect (`addi r5, r5, 1` probes r5 first). */
    void
    add(const Instruction &inst, const RegIndex *chk, unsigned n_chk)
    {
        for (unsigned k = 0; k < n_chk; ++k) {
            const std::uint64_t bit = std::uint64_t{1} << chk[k];
            if (restored || (killed & bit))
                sum.innerProbe = true;
            else if (!(written & bit))
                sum.entryProbes |= RegMask(bit);
        }
        if (inst.op == Opcode::LvmLoad) {
            restored = true;
        } else if (inst.isKill()) {
            if (honorEdvi) {
                const std::uint64_t mask = inst.killMask().raw();
                killed |= mask;
                written &= ~mask;
            }
        } else if (inst.writesIntReg() &&
                   inst.destIntReg() != isa::regZero) {
            const std::uint64_t bit = std::uint64_t{1}
                                      << inst.destIntReg();
            written |= bit;
            killed &= ~bit;
        }
    }

    const ProbeSummary &summary() const { return sum; }

  private:
    const bool honorEdvi;
    ProbeSummary sum;
    /** Defined by an earlier micro-op and not killed since: live. */
    std::uint64_t written = 0;
    /** Killed by an earlier micro-op and not redefined since. */
    std::uint64_t killed = 0;
    /** An earlier micro-op was an LvmLoad: no bit is known. */
    bool restored = false;
};

} // namespace

XBlock
translateBlock(const std::vector<Instruction> &code, std::uint32_t pc)
{
    panic_if(pc >= code.size(),
             "translateBlock: pc ", pc, " outside code image");
    XBlock b;
    b.entryPc = pc;
    b.uops.reserve(8);
    ProbeWalk walk[2] = {ProbeWalk(false), ProbeWalk(true)};
    for (std::uint32_t i = pc;
         i < code.size() && b.len < maxBlockLen; ++i) {
        const Instruction &inst = code[i];
        MicroOp u;
        u.op = inst.op;
        u.rd = inst.rd;
        u.rs1 = inst.rs1;
        u.rs2 = inst.rs2;
        u.imm = inst.imm;
        u.pc = i;
        RegIndex chk[2] = {0, 0};
        u.nChk = static_cast<std::uint8_t>(
            isa::deadCheckRegs(inst, chk));
        u.chk0 = chk[0];
        u.chk1 = chk[1];
        b.uops.push_back(u);
        ++b.len;
        accumulate(b.stat, inst.op);
        for (ProbeWalk &w : walk)
            w.add(inst, chk, u.nChk);
        if (isa::endsBlock(inst))
            break;
    }
    b.probes[0] = walk[0].summary();
    b.probes[1] = walk[1].summary();
    return b;
}

BlockStats
blockPrefixStats(const XBlock &b, std::uint32_t n)
{
    panic_if(n > b.len, "blockPrefixStats: prefix ", n,
             " longer than block (", b.len, ")");
    BlockStats s;
    for (std::uint32_t i = 0; i < n; ++i)
        accumulate(s, b.uops[i].op);
    return s;
}

TranslatedProgram::TranslatedProgram(const comp::Executable &exe)
    : code_(exe.code), entry_(exe.entry), table_(exe.code.size())
{
    decoded_.reserve(code_.size());
    for (const Instruction &inst : code_)
        decoded_.push_back(isa::decodeInst(inst));
}

bool
TranslatedProgram::matches(const comp::Executable &exe) const
{
    // Instruction has no padding, so byte equality is field equality.
    static_assert(std::has_unique_object_representations<
                      Instruction>::value,
                  "Instruction compares bytewise");
    return entry_ == exe.entry && code_.size() == exe.code.size() &&
           std::memcmp(code_.data(), exe.code.data(),
                       code_.size() * sizeof(Instruction)) == 0;
}

const XBlock &
TranslatedProgram::translate(std::uint32_t pc)
{
    std::lock_guard<std::mutex> lk(mu_);
    // Double-check under the lock: another emulator may have
    // published this leader while we waited.
    if (const XBlock *b =
            table_[pc].load(std::memory_order_relaxed))
        return *b;
    storage_.push_back(translateBlock(code_, pc));
    const XBlock *b = &storage_.back();
    table_[pc].store(b, std::memory_order_release);
    return *b;
}

std::size_t
TranslatedProgram::blockCount() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return storage_.size();
}

} // namespace arch
} // namespace dvi
