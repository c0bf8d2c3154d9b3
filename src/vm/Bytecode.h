//===- Bytecode.h - Register bytecode for the execution tier ----*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled-program representation of the mvec::vm execution tier: a
/// register-based instruction stream lowered from a prepared AST, plus the
/// pools it references (doubles, strings, variable names, for-loop
/// metadata). Programs live in memory only, for the one run they were
/// compiled for. Variables are *name* indices bound to workspace slots at
/// execution time, so one immutable program executes against any number
/// of interpreters.
///
/// Register discipline: the compiler allocates registers as an expression
/// stack (destination first, operand temporaries above it) and restores the
/// stack top per statement, so NumRegs is the high-water mark of a single
/// statement. Superinstructions (CmpJump, FusedMulAdd) mirror the
/// tree-walker's fused kernels one-for-one;
/// everything else decomposes into the same primitive steps the walker
/// takes, in the same order.
///
/// Folded operands: value-source (Src) operand fields address either a
/// register (>= 0) or, when negative, a constant or variable folded
/// directly into the consuming instruction — see packSlotOperand /
/// packConstOperand. The compiler folds a variable only where a forward
/// definedness analysis proves it assigned on every path, so a folded
/// slot read can never be the first (failing) mention of a name and the
/// un-folded LoadIdent keeps its precise error location. Constants fold
/// unconditionally. Both are side-effect-free reads, so eliding the
/// load instruction leaves evaluation order and failure behavior exactly
/// as the walker has them.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_VM_BYTECODE_H
#define MVEC_VM_BYTECODE_H

#include "support/SourceLoc.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mvec {
namespace vm {

/// One opcode per primitive step the tree-walker performs. The order is
/// that of the opInfo table (Bytecode.cpp) and the VM's dispatch table.
enum class Op : uint8_t {
  Halt,       ///< stop execution (program end / return / top-level break)
  Step,       ///< per-statement accounting: step limit, poll, fault site
  Drop,       ///< A: release register A (discarded expression statement)
  LoadConst,  ///< A=dst, B=constant-pool index
  LoadEmpty,  ///< A=dst: the empty matrix []
  LoadString, ///< A=dst, B=string index; builds the char-code row vector
  LoadIdent,  ///< A=dst, B=var; variable -> pi -> 0-arg builtin -> fail
  StoreVar,   ///< A=var, B=src (Src); moves src into the slot, then shape cap
  Move,       ///< A=dst, B=src; COW copy, src stays live
  Jump,       ///< A=target
  JumpIfTrue, ///< A=reg, B=target; flags::Release drops the condition
  JumpIfFalse,///< A=reg, B=target; flags::Release drops the condition
  CastBool,   ///< A=reg: reg = scalar(isTrue(reg)) (short-circuit result)
  CmpJump,    ///< A=lhs (Src), B=rhs (Src), C=target-if-false, Flags=compare
  MakeRange,  ///< A=dst, B=start, C=step or kNoOperand (implicit 1), D=stop
  UnaryMinus, ///< A=dst, B=src
  UnaryNot,   ///< A=dst, B=src
  Transpose,  ///< A=dst, B=src
  Binary,     ///< A=dst (DstRS), B=lhs (Src), C=rhs (Src), Flags=BinaryOp
              ///< (| flags::StoreToSlot: A is a var, result defines it)
  FusedMulAdd,///< A=dst (DstRS), B=a, C=b, D=c (all Src); (a op* b) +/- c
  LoadExtent, ///< A=dst, B=base, Flags=dim|BaseIsSlot; subscript 'end'
  MakeColon,  ///< A=dst, B=base, Flags=dim|BaseIsSlot; ':' index vector
  TestDefined,///< A=var, B=target-if-undefined (index/call dispatch)
  CheckCallable,///< A=var, B=string index of the failure message
  CallBuiltin,///< A=dst, B=var, C=first-arg reg, D=arg count
  Fail,       ///< A=string index; statically known runtime error
  IndexRead0, ///< A=dst, B=var; f() of a defined variable is its value
  IndexReadAll,///< A=dst, B=base, Flags BaseIsSlot; A(:) linearized copy
  IndexRead1, ///< A=dst, B=base, C=idx (Src), Flags BaseIsSlot
  IndexRead2, ///< A=dst, B=base, C=row idx, D=col idx (Src), Flags BaseIsSlot
  DefineRef,  ///< A=var; marks the target defined before an indexed write
  IndexWriteAll,///< A=var, B=rhs (Src); A(:) = rhs
  IndexWrite1,///< A=var, B=idx (Src), C=rhs (Src)
  IndexWrite2,///< A=var, B=row idx, C=col idx, D=rhs (all Src)
  MatBegin,   ///< push a concatenation error frame for a matrix literal
  HorzCat,    ///< A=row acc, B=element; acc = [acc, element]
  VertCat,    ///< A=result acc, B=row; acc = [acc; row]
  MatEnd,     ///< A=result reg; pop the error frame, fail if it tripped
  ForPrep,    ///< A=range reg, B=for-info; push frame, accumulator hints
  ForNext,    ///< A=range reg, B=for-info, C=body; loops are bottom-tested:
              ///< defines the loop var and jumps to C while iterations
              ///< remain, falls through to the exit when exhausted
  ForBreak,   ///< A=exit target; unwind the innermost for frame
};

constexpr uint8_t kNumOps = static_cast<uint8_t>(Op::ForBreak) + 1;

/// Bit assignments for Instr::Flags, per opcode family.
namespace flags {
/// JumpIfTrue/JumpIfFalse: release the condition register after testing
/// (loop/branch conditions; short-circuit operands keep theirs).
constexpr uint8_t Release = 1;
/// FusedMulAdd: c is subtracted / the product is the left addend / the
/// product op was .* (vs * with a scalar side).
constexpr uint8_t FmaSubtract = 1;
constexpr uint8_t FmaProductOnLeft = 2;
constexpr uint8_t FmaDotMul = 4;
/// LoadExtent/MakeColon/IndexRead*: which extent of the base (numel /
/// rows / cols), and whether B names a variable instead of a register.
constexpr uint8_t DimNumel = 0;
constexpr uint8_t DimRows = 1;
constexpr uint8_t DimCols = 2;
constexpr uint8_t DimMask = 3;
constexpr uint8_t BaseIsSlot = 4;
/// Binary/FusedMulAdd: a fused StoreVar — A names a variable (VarNames
/// index) and the result defines it directly instead of landing in a
/// register. The shape-cap check runs against the current statement
/// location (the enclosing Step's Loc), which is exactly the loc the
/// separate StoreVar carried, so failure output is byte-identical.
/// Disjoint from the BinaryOp value range and the Fma* bits.
constexpr uint8_t StoreToSlot = 64;
} // namespace flags

/// Sentinel for an absent optional operand (MakeRange's implicit step).
/// Distinct from every register index and folded-operand encoding.
constexpr int32_t kNoOperand = -2147483647 - 1;

/// Encodes VarNames index \p VarIdx as a folded Src operand.
constexpr int32_t packSlotOperand(int32_t VarIdx) { return -(VarIdx * 2) - 1; }
/// Encodes Constants index \p ConstIdx as a folded Src operand.
constexpr int32_t packConstOperand(int32_t ConstIdx) {
  return -(ConstIdx * 2) - 2;
}
/// True when Src operand \p V is a folded constant (else: folded slot).
/// Only meaningful for V < 0; V >= 0 is a register index.
constexpr bool foldedIsConst(int32_t V) {
  return (static_cast<uint32_t>(-(V + 1)) & 1) != 0;
}
/// The Constants/VarNames index carried by folded Src operand \p V.
constexpr int32_t foldedIndex(int32_t V) {
  return static_cast<int32_t>(static_cast<uint32_t>(-(V + 1)) >> 1);
}

/// One instruction. Fixed-width operands keep decode trivial; most ops use
/// a prefix of A..D (see the Op comments for the per-op meaning). Loc is
/// the source location reported if the step fails; Loc2 carries the
/// secondary location for ops that can fail at two places (FusedMulAdd's
/// inner product, indexed writes' shape-cap check at the statement).
struct Instr {
  Op Opcode = Op::Halt;
  uint8_t Flags = 0;
  int32_t A = 0;
  int32_t B = 0;
  int32_t C = 0;
  int32_t D = 0;
  SourceLoc Loc;
  SourceLoc Loc2;
};

/// Per-for-loop metadata: the loop variable and the assignment targets
/// that get accumulator reserve hints when the trip count is known large.
struct ForInfo {
  int32_t IdxVar = 0;
  std::vector<int32_t> HintVars;
};

/// A lowered program. Everything an execution needs except the workspace
/// binding (variable names resolve to slots per run).
struct CompiledProgram {
  std::vector<double> Constants;
  std::vector<std::string> Strings; ///< literals and failure messages
  std::vector<std::string> VarNames;
  std::vector<ForInfo> ForInfos;
  std::vector<Instr> Instrs;
  uint32_t NumRegs = 0;
};

/// How the disassembler/validator interpret one operand field.
enum class OperandClass : uint8_t {
  None,    ///< unused
  Reg,     ///< register index in [0, NumRegs)
  Var,     ///< VarNames index
  Const,   ///< Constants index
  Str,     ///< Strings index
  Target,  ///< instruction index in [0, Instrs.size())
  ForIdx,  ///< ForInfos index
  Count,   ///< CallBuiltin arg count; C..C+D-1 must be valid registers
  BaseRC,  ///< register, or VarNames index when flags::BaseIsSlot is set
  DstRS,   ///< dst register, or VarNames index when flags::StoreToSlot
  Src,     ///< value source: register, or folded slot/constant (< 0)
  OptSrc,  ///< Src, or kNoOperand (MakeRange's implicit step)
};

/// Static operand metadata, indexed by opcode.
struct OpInfo {
  const char *Name;
  OperandClass A, B, C, D;
};

/// Returns the metadata row for \p Opcode (Opcode must be < kNumOps).
const OpInfo &opInfo(Op Opcode);

} // namespace vm
} // namespace mvec

#endif // MVEC_VM_BYTECODE_H
