/**
 * @file
 * The linked machine-code image produced by the compiler.
 *
 * Code is a flat vector of decoded instructions addressed by index
 * (one instruction = 4 architectural bytes). Control-transfer targets
 * are absolute instruction indices. A small symbol table records
 * procedure extents for the binary rewriter, the disassembler, and
 * per-procedure statistics.
 */

#ifndef DVI_COMPILER_EXECUTABLE_HH
#define DVI_COMPILER_EXECUTABLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"
#include "isa/instruction.hh"

namespace dvi
{
namespace comp
{

/** Extent of one procedure in the code image: [entry, end). */
struct ProcInfo
{
    std::string name;
    int entry = 0;
    int end = 0;
};

/** A linked program image. */
struct Executable
{
    std::string name;
    std::vector<isa::Instruction> code;
    int entry = 0;  ///< index of the first instruction of main
    std::vector<ProcInfo> procs;

    Addr globalBase = 0;
    unsigned globalWords = 0;

    /** Initial stack pointer (stack grows down). */
    static constexpr Addr stackTop = 0x7fff0000;

    /** Static code size in architectural bytes. */
    std::size_t
    textBytes() const
    {
        return code.size() * isa::Instruction::sizeBytes;
    }

    /** Index of the procedure containing instruction idx, or -1. */
    int procOf(int idx) const;

    /** Number of static kill (E-DVI) instructions in the image. */
    std::uint64_t countKills() const;

    /** Disassemble a range (debugging aid). */
    std::string disassemble(int from, int to) const;
};

} // namespace comp
} // namespace dvi

#endif // DVI_COMPILER_EXECUTABLE_HH
