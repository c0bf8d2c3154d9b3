//===- Bytecode.cpp - Operand metadata table ------------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/Bytecode.h"

namespace mvec {
namespace vm {

static const OpInfo OpTable[kNumOps] = {
    // clang-format off
    {"Halt",          OperandClass::None,   OperandClass::None,   OperandClass::None,   OperandClass::None},
    {"Step",          OperandClass::None,   OperandClass::None,   OperandClass::None,   OperandClass::None},
    {"Drop",          OperandClass::Reg,    OperandClass::None,   OperandClass::None,   OperandClass::None},
    {"LoadConst",     OperandClass::Reg,    OperandClass::Const,  OperandClass::None,   OperandClass::None},
    {"LoadEmpty",     OperandClass::Reg,    OperandClass::None,   OperandClass::None,   OperandClass::None},
    {"LoadString",    OperandClass::Reg,    OperandClass::Str,    OperandClass::None,   OperandClass::None},
    {"LoadIdent",     OperandClass::Reg,    OperandClass::Var,    OperandClass::None,   OperandClass::None},
    {"StoreVar",      OperandClass::Var,    OperandClass::Src,    OperandClass::None,   OperandClass::None},
    {"Move",          OperandClass::Reg,    OperandClass::Reg,    OperandClass::None,   OperandClass::None},
    {"Jump",          OperandClass::Target, OperandClass::None,   OperandClass::None,   OperandClass::None},
    {"JumpIfTrue",    OperandClass::Reg,    OperandClass::Target, OperandClass::None,   OperandClass::None},
    {"JumpIfFalse",   OperandClass::Reg,    OperandClass::Target, OperandClass::None,   OperandClass::None},
    {"CastBool",      OperandClass::Reg,    OperandClass::None,   OperandClass::None,   OperandClass::None},
    {"CmpJump",       OperandClass::Src,    OperandClass::Src,    OperandClass::Target, OperandClass::None},
    {"MakeRange",     OperandClass::Reg,    OperandClass::Src,    OperandClass::OptSrc, OperandClass::Src},
    {"UnaryMinus",    OperandClass::Reg,    OperandClass::Reg,    OperandClass::None,   OperandClass::None},
    {"UnaryNot",      OperandClass::Reg,    OperandClass::Reg,    OperandClass::None,   OperandClass::None},
    {"Transpose",     OperandClass::Reg,    OperandClass::Reg,    OperandClass::None,   OperandClass::None},
    {"Binary",        OperandClass::DstRS,  OperandClass::Src,    OperandClass::Src,    OperandClass::None},
    {"FusedMulAdd",   OperandClass::DstRS,  OperandClass::Src,    OperandClass::Src,    OperandClass::Src},
    {"LoadExtent",    OperandClass::Reg,    OperandClass::BaseRC, OperandClass::None,   OperandClass::None},
    {"MakeColon",     OperandClass::Reg,    OperandClass::BaseRC, OperandClass::None,   OperandClass::None},
    {"TestDefined",   OperandClass::Var,    OperandClass::Target, OperandClass::None,   OperandClass::None},
    {"CheckCallable", OperandClass::Var,    OperandClass::Str,    OperandClass::None,   OperandClass::None},
    {"CallBuiltin",   OperandClass::Reg,    OperandClass::Var,    OperandClass::Reg,    OperandClass::Count},
    {"Fail",          OperandClass::Str,    OperandClass::None,   OperandClass::None,   OperandClass::None},
    {"IndexRead0",    OperandClass::Reg,    OperandClass::Var,    OperandClass::None,   OperandClass::None},
    {"IndexReadAll",  OperandClass::Reg,    OperandClass::BaseRC, OperandClass::None,   OperandClass::None},
    {"IndexRead1",    OperandClass::Reg,    OperandClass::BaseRC, OperandClass::Src,    OperandClass::None},
    {"IndexRead2",    OperandClass::Reg,    OperandClass::BaseRC, OperandClass::Src,    OperandClass::Src},
    {"DefineRef",     OperandClass::Var,    OperandClass::None,   OperandClass::None,   OperandClass::None},
    {"IndexWriteAll", OperandClass::Var,    OperandClass::Src,    OperandClass::None,   OperandClass::None},
    {"IndexWrite1",   OperandClass::Var,    OperandClass::Src,    OperandClass::Src,    OperandClass::None},
    {"IndexWrite2",   OperandClass::Var,    OperandClass::Src,    OperandClass::Src,    OperandClass::Src},
    {"MatBegin",      OperandClass::None,   OperandClass::None,   OperandClass::None,   OperandClass::None},
    {"HorzCat",       OperandClass::Reg,    OperandClass::Reg,    OperandClass::None,   OperandClass::None},
    {"VertCat",       OperandClass::Reg,    OperandClass::Reg,    OperandClass::None,   OperandClass::None},
    {"MatEnd",        OperandClass::Reg,    OperandClass::None,   OperandClass::None,   OperandClass::None},
    {"ForPrep",       OperandClass::Reg,    OperandClass::ForIdx, OperandClass::None,   OperandClass::None},
    {"ForNext",       OperandClass::Reg,    OperandClass::ForIdx, OperandClass::Target, OperandClass::None},
    {"ForBreak",      OperandClass::Target, OperandClass::None,   OperandClass::None,   OperandClass::None},
    // clang-format on
};

const OpInfo &opInfo(Op Opcode) { return OpTable[static_cast<uint8_t>(Opcode)]; }

} // namespace vm
} // namespace mvec
