#include "isa/instruction.hh"

#include <sstream>

#include "base/logging.hh"
#include "isa/registers.hh"

namespace dvi
{
namespace isa
{

Instruction
Instruction::halt()
{
    Instruction i;
    i.op = Opcode::Halt;
    return i;
}

Instruction
Instruction::alu(Opcode op, RegIndex rd, RegIndex rs1, RegIndex rs2)
{
    Instruction i;
    i.op = op;
    i.rd = rd;
    i.rs1 = rs1;
    i.rs2 = rs2;
    panic_if(i.info().format != OperandFormat::RegRegReg,
             "alu() with non reg-reg opcode");
    return i;
}

Instruction
Instruction::aluImm(Opcode op, RegIndex rd, RegIndex rs1,
                    std::int32_t imm)
{
    Instruction i;
    i.op = op;
    i.rd = rd;
    i.rs1 = rs1;
    i.imm = imm;
    panic_if(i.info().format != OperandFormat::RegRegImm,
             "aluImm() with non reg-imm opcode");
    return i;
}

Instruction
Instruction::lui(RegIndex rd, std::int32_t imm)
{
    Instruction i;
    i.op = Opcode::Lui;
    i.rd = rd;
    i.imm = imm;
    return i;
}

Instruction
Instruction::load(RegIndex rd, RegIndex base, std::int32_t disp)
{
    Instruction i;
    i.op = Opcode::Load;
    i.rd = rd;
    i.rs1 = base;
    i.imm = disp;
    return i;
}

Instruction
Instruction::store(RegIndex value, RegIndex base, std::int32_t disp)
{
    Instruction i;
    i.op = Opcode::Store;
    i.rs1 = base;
    i.rs2 = value;
    i.imm = disp;
    return i;
}

Instruction
Instruction::liveLoad(RegIndex rd, RegIndex base, std::int32_t disp)
{
    Instruction i = load(rd, base, disp);
    i.op = Opcode::LiveLoad;
    return i;
}

Instruction
Instruction::liveStore(RegIndex value, RegIndex base, std::int32_t disp)
{
    Instruction i = store(value, base, disp);
    i.op = Opcode::LiveStore;
    return i;
}

Instruction
Instruction::fadd(RegIndex fd, RegIndex fs1, RegIndex fs2)
{
    Instruction i;
    i.op = Opcode::Fadd;
    i.rd = fd;
    i.rs1 = fs1;
    i.rs2 = fs2;
    return i;
}

Instruction
Instruction::fload(RegIndex fd, RegIndex base, std::int32_t disp)
{
    Instruction i;
    i.op = Opcode::Fload;
    i.rd = fd;
    i.rs1 = base;
    i.imm = disp;
    return i;
}

Instruction
Instruction::fstore(RegIndex fvalue, RegIndex base, std::int32_t disp)
{
    Instruction i;
    i.op = Opcode::Fstore;
    i.rs1 = base;
    i.rs2 = fvalue;
    i.imm = disp;
    return i;
}

Instruction
Instruction::branch(Opcode op, RegIndex rs1, RegIndex rs2,
                    std::int32_t target)
{
    Instruction i;
    i.op = op;
    i.rs1 = rs1;
    i.rs2 = rs2;
    i.imm = target;
    panic_if(!i.isCondBranch(), "branch() with non-branch opcode");
    return i;
}

Instruction
Instruction::jump(std::int32_t target)
{
    Instruction i;
    i.op = Opcode::Jump;
    i.imm = target;
    return i;
}

Instruction
Instruction::call(std::int32_t target)
{
    Instruction i;
    i.op = Opcode::Call;
    i.rd = regRa;
    i.imm = target;
    return i;
}

Instruction
Instruction::ret()
{
    Instruction i;
    i.op = Opcode::Ret;
    i.rs1 = regRa;
    return i;
}

Instruction
Instruction::kill(RegMask mask)
{
    panic_if(mask.raw() >> numIntRegs,
             "kill mask names nonexistent registers");
    Instruction i;
    i.op = Opcode::Kill;
    i.imm = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(mask.raw()));
    return i;
}

Instruction
Instruction::lvmSave(RegIndex base, std::int32_t disp)
{
    Instruction i;
    i.op = Opcode::LvmSave;
    i.rs1 = base;
    i.imm = disp;
    return i;
}

Instruction
Instruction::lvmLoad(RegIndex base, std::int32_t disp)
{
    Instruction i;
    i.op = Opcode::LvmLoad;
    i.rs1 = base;
    i.imm = disp;
    return i;
}











} // namespace isa
} // namespace dvi
