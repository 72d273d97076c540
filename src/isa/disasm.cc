/**
 * @file
 * Instruction::toString — the disassembler. The mnemonic is the
 * opcode table's; the operands print by operand format.
 */

#include <sstream>

#include "isa/instruction.hh"
#include "isa/registers.hh"

namespace dvi
{
namespace isa
{

std::string
Instruction::toString() const
{
    std::ostringstream os;
    os << info().mnemonic;
    auto r = [](RegIndex x) { return intRegName(x); };
    auto f = [](RegIndex x) { return fpRegName(x); };
    switch (info().format) {
      case OperandFormat::None:
      case OperandFormat::Ret:
        break;
      case OperandFormat::RegRegReg:
        os << " " << r(rd) << ", " << r(rs1) << ", " << r(rs2);
        break;
      case OperandFormat::RegRegImm:
        os << " " << r(rd) << ", " << r(rs1) << ", " << imm;
        break;
      case OperandFormat::RegImm:
        os << " " << r(rd) << ", " << imm;
        break;
      case OperandFormat::Load:
        os << " " << r(rd) << ", " << imm << "(" << r(rs1) << ")";
        break;
      case OperandFormat::Store:
        os << " " << r(rs2) << ", " << imm << "(" << r(rs1) << ")";
        break;
      case OperandFormat::FpRegRegReg:
        os << " " << f(rd) << ", " << f(rs1) << ", " << f(rs2);
        break;
      case OperandFormat::FpLoad:
        os << " " << f(rd) << ", " << imm << "(" << r(rs1) << ")";
        break;
      case OperandFormat::FpStore:
        os << " " << f(rs2) << ", " << imm << "(" << r(rs1) << ")";
        break;
      case OperandFormat::Branch:
        os << " " << r(rs1) << ", " << r(rs2) << ", @" << imm;
        break;
      case OperandFormat::Target:
        os << " @" << imm;
        break;
      case OperandFormat::Mask:
        os << " " << killMask().toString();
        break;
      case OperandFormat::BaseDisp:
        os << " " << imm << "(" << r(rs1) << ")";
        break;
    }
    return os.str();
}

} // namespace isa
} // namespace dvi
