//===- Serialize.cpp - Bytecode validation and disassembly ----------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/Serialize.h"

#include "frontend/AST.h"

#include <cstdio>

using namespace mvec;
using namespace mvec::vm;

//===----------------------------------------------------------------------===//
// Validation
//===----------------------------------------------------------------------===//

namespace {

bool validOperand(const CompiledProgram &P, OperandClass Cls, int32_t V,
                  uint8_t Flags) {
  switch (Cls) {
  case OperandClass::None:
    return true; // unused fields carry whatever the compiler left (zero)
  case OperandClass::Reg:
    return V >= 0 && static_cast<uint32_t>(V) < P.NumRegs;
  case OperandClass::Var:
    return V >= 0 && static_cast<size_t>(V) < P.VarNames.size();
  case OperandClass::Const:
    return V >= 0 && static_cast<size_t>(V) < P.Constants.size();
  case OperandClass::Str:
    return V >= 0 && static_cast<size_t>(V) < P.Strings.size();
  case OperandClass::Target:
    return V >= 0 && static_cast<size_t>(V) < P.Instrs.size();
  case OperandClass::ForIdx:
    return V >= 0 && static_cast<size_t>(V) < P.ForInfos.size();
  case OperandClass::Count:
    return V >= 0;
  case OperandClass::BaseRC:
    if (Flags & flags::BaseIsSlot)
      return V >= 0 && static_cast<size_t>(V) < P.VarNames.size();
    return V >= 0 && static_cast<uint32_t>(V) < P.NumRegs;
  case OperandClass::DstRS:
    if (Flags & flags::StoreToSlot)
      return V >= 0 && static_cast<size_t>(V) < P.VarNames.size();
    return V >= 0 && static_cast<uint32_t>(V) < P.NumRegs;
  case OperandClass::Src:
    if (V >= 0)
      return static_cast<uint32_t>(V) < P.NumRegs;
    if (V == kNoOperand)
      return false;
    return foldedIsConst(V)
               ? static_cast<size_t>(foldedIndex(V)) < P.Constants.size()
               : static_cast<size_t>(foldedIndex(V)) < P.VarNames.size();
  case OperandClass::OptSrc:
    return V == kNoOperand || validOperand(P, OperandClass::Src, V, Flags);
  }
  return false;
}

bool validFlags(Op O, uint8_t F) {
  switch (O) {
  case Op::JumpIfTrue:
  case Op::JumpIfFalse:
    return F <= flags::Release;
  case Op::CmpJump: {
    BinaryOp B = static_cast<BinaryOp>(F);
    return B == BinaryOp::Lt || B == BinaryOp::Gt || B == BinaryOp::Le ||
           B == BinaryOp::Ge || B == BinaryOp::Eq || B == BinaryOp::Ne;
  }
  case Op::Binary:
    return (F & ~flags::StoreToSlot) <= static_cast<uint8_t>(BinaryOp::OrOr);
  case Op::FusedMulAdd:
    return (F & ~flags::StoreToSlot) <=
           (flags::FmaSubtract | flags::FmaProductOnLeft | flags::FmaDotMul);
  case Op::LoadExtent:
  case Op::MakeColon:
    return (F & flags::DimMask) != flags::DimMask &&
           F <= (flags::DimMask | flags::BaseIsSlot);
  case Op::IndexReadAll:
  case Op::IndexRead1:
  case Op::IndexRead2:
    return (F & ~flags::BaseIsSlot) == 0;
  case Op::CallBuiltin:
    return true; // flags carry the argument-scratch depth
  default:
    return F == 0;
  }
}

} // namespace

std::string vm::validateProgram(const CompiledProgram &P) {
  if (P.Instrs.empty())
    return "empty instruction stream";
  if (P.Instrs.back().Opcode != Op::Halt)
    return "missing trailing Halt";
  for (size_t I = 0, E = P.Instrs.size(); I != E; ++I) {
    const Instr &In = P.Instrs[I];
    const OpInfo &Info = opInfo(In.Opcode);
    std::string Where =
        "instr " + std::to_string(I) + " (" + std::string(Info.Name) + "): ";
    if (!validFlags(In.Opcode, In.Flags))
      return Where + "bad flags";
    if (!validOperand(P, Info.A, In.A, In.Flags))
      return Where + "bad operand A";
    if (!validOperand(P, Info.B, In.B, In.Flags))
      return Where + "bad operand B";
    if (!validOperand(P, Info.C, In.C, In.Flags))
      return Where + "bad operand C";
    if (!validOperand(P, Info.D, In.D, In.Flags))
      return Where + "bad operand D";
    if (In.Opcode == Op::CallBuiltin &&
        (In.D < 0 ||
         static_cast<uint64_t>(In.C) + static_cast<uint64_t>(In.D) > P.NumRegs))
      return Where + "argument window out of range";
    if (In.Opcode == Op::ForNext || In.Opcode == Op::ForPrep) {
      const ForInfo &FI = P.ForInfos[In.B];
      if (FI.IdxVar < 0 || static_cast<size_t>(FI.IdxVar) >= P.VarNames.size())
        return Where + "bad loop variable";
      for (int32_t H : FI.HintVars)
        if (H < 0 || static_cast<size_t>(H) >= P.VarNames.size())
          return Where + "bad hint variable";
    }
  }
  return std::string();
}

//===----------------------------------------------------------------------===//
// Disassembly
//===----------------------------------------------------------------------===//

namespace {

const char *binaryOpName(uint8_t F) {
  static const char *Names[] = {"Add", "Sub",    "Mul",    "Div",  "Pow",
                                "DotMul", "DotDiv", "DotPow", "Lt",   "Gt",
                                "Le",  "Ge",     "Eq",     "Ne",   "And",
                                "Or",  "AndAnd", "OrOr"};
  return F < sizeof(Names) / sizeof(Names[0]) ? Names[F] : "?";
}

const char *dimName(uint8_t F) {
  switch (F & flags::DimMask) {
  case flags::DimRows:
    return "rows";
  case flags::DimCols:
    return "cols";
  default:
    return "numel";
  }
}

void renderOperand(std::string &Out, const CompiledProgram &P,
                   OperandClass Cls, int32_t V, uint8_t Flags, bool &First) {
  if (Cls == OperandClass::None)
    return;
  Out += First ? " " : ", ";
  First = false;
  switch (Cls) {
  case OperandClass::Reg:
    Out += "r" + std::to_string(V);
    break;
  case OperandClass::Src:
  case OperandClass::OptSrc:
    if (V == kNoOperand) {
      Out += "one";
    } else if (V >= 0) {
      Out += "r" + std::to_string(V);
    } else if (foldedIsConst(V)) {
      char Buf[40];
      std::snprintf(Buf, sizeof(Buf), "%.17g", P.Constants[foldedIndex(V)]);
      Out += "c" + std::to_string(foldedIndex(V)) + "=" + Buf;
    } else {
      Out += "v" + std::to_string(foldedIndex(V)) + ":" +
             P.VarNames[foldedIndex(V)];
    }
    break;
  case OperandClass::Var:
    Out += "v" + std::to_string(V) + ":" + P.VarNames[V];
    break;
  case OperandClass::Const: {
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.17g", P.Constants[V]);
    Out += "c" + std::to_string(V) + "=" + Buf;
    break;
  }
  case OperandClass::Str:
    Out += "s" + std::to_string(V) + "=\"" + P.Strings[V] + "\"";
    break;
  case OperandClass::Target:
    Out += "->" + std::to_string(V);
    break;
  case OperandClass::ForIdx:
    Out += "f" + std::to_string(V) + ":" + P.VarNames[P.ForInfos[V].IdxVar];
    break;
  case OperandClass::Count:
    Out += "#" + std::to_string(V);
    break;
  case OperandClass::BaseRC:
    if (Flags & flags::BaseIsSlot)
      Out += "v" + std::to_string(V) + ":" + P.VarNames[V];
    else
      Out += "r" + std::to_string(V);
    break;
  case OperandClass::DstRS:
    if (Flags & flags::StoreToSlot)
      Out += "v" + std::to_string(V) + ":" + P.VarNames[V];
    else
      Out += "r" + std::to_string(V);
    break;
  case OperandClass::None:
    break;
  }
}

} // namespace

std::string vm::disassemble(const CompiledProgram &P) {
  std::string Out;
  Out += "; regs=" + std::to_string(P.NumRegs) +
         " consts=" + std::to_string(P.Constants.size()) +
         " strings=" + std::to_string(P.Strings.size()) +
         " vars=" + std::to_string(P.VarNames.size()) +
         " loops=" + std::to_string(P.ForInfos.size()) +
         " instrs=" + std::to_string(P.Instrs.size()) + "\n";
  for (size_t I = 0, E = P.Instrs.size(); I != E; ++I) {
    const Instr &In = P.Instrs[I];
    const OpInfo &Info = opInfo(In.Opcode);
    char Head[32];
    std::snprintf(Head, sizeof(Head), "%4zu  %-13s", I, Info.Name);
    Out += Head;
    bool First = true;
    renderOperand(Out, P, Info.A, In.A, In.Flags, First);
    renderOperand(Out, P, Info.B, In.B, In.Flags, First);
    renderOperand(Out, P, Info.C, In.C, In.Flags, First);
    renderOperand(Out, P, Info.D, In.D, In.Flags, First);
    switch (In.Opcode) {
    case Op::Binary:
    case Op::CmpJump:
      Out += " [";
      Out += binaryOpName(In.Flags & ~flags::StoreToSlot);
      if (In.Flags & flags::StoreToSlot)
        Out += ",store";
      Out += "]";
      break;
    case Op::FusedMulAdd:
      Out += " [";
      Out += (In.Flags & flags::FmaSubtract) ? "sub" : "add";
      Out += (In.Flags & flags::FmaProductOnLeft) ? ",prod-left" : ",prod-right";
      if (In.Flags & flags::FmaDotMul)
        Out += ",dotmul";
      if (In.Flags & flags::StoreToSlot)
        Out += ",store";
      Out += "]";
      break;
    case Op::LoadExtent:
    case Op::MakeColon:
      Out += " [";
      Out += dimName(In.Flags);
      Out += "]";
      break;
    case Op::JumpIfTrue:
    case Op::JumpIfFalse:
      if (In.Flags & flags::Release)
        Out += " [release]";
      break;
    case Op::CallBuiltin:
      if (In.Flags)
        Out += " [depth=" + std::to_string(In.Flags) + "]";
      break;
    default:
      break;
    }
    if (In.Loc.isValid())
      Out += " @" + std::to_string(In.Loc.Line) + ":" +
             std::to_string(In.Loc.Col);
    if (In.Loc2.isValid())
      Out += " /@" + std::to_string(In.Loc2.Line) + ":" +
             std::to_string(In.Loc2.Col);
    Out += "\n";
  }
  return Out;
}
