#include "isa/registers.hh"

#include <array>

namespace dvi
{
namespace isa
{

namespace
{

const std::array<const char *, numIntRegs> intNames = {
    "zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
    "t0",   "t1", "t2", "t3", "t4", "t5", "t6", "t7",
    "s0",   "s1", "s2", "s3", "s4", "s5", "s6", "s7",
    "t8",   "t9", "k0", "k1", "gp", "sp", "fp", "ra",
};

} // namespace

bool
isCalleeSaved(RegIndex r)
{
    return calleeSavedMask().test(r);
}

bool
isCallerSaved(RegIndex r)
{
    return callerSavedMask().test(r);
}

std::string
intRegName(RegIndex r)
{
    if (r < numIntRegs)
        return intNames[r];
    return "r?" + std::to_string(int(r));
}

std::string
fpRegName(RegIndex r)
{
    return "f" + std::to_string(int(r));
}

} // namespace isa
} // namespace dvi
