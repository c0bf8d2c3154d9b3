//===- Serialize.h - Bytecode validation and disassembly --------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural validation of a CompiledProgram and a textual disassembler
/// for tests and diagnostics. Compiled programs live only in memory, so
/// these are compiler invariants, not a load-time guard:
/// the tests demand that every program the compiler emits validates, and
/// pin the listing of representative lowerings as goldens.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_VM_SERIALIZE_H
#define MVEC_VM_SERIALIZE_H

#include "vm/Bytecode.h"

#include <string>

namespace mvec {
namespace vm {

/// Structural validation: every operand index in range for its class,
/// jump targets inside the instruction stream, flags meaningful for
/// their opcode. Returns an empty string when valid, else a diagnostic.
std::string validateProgram(const CompiledProgram &P);

/// Human-readable listing, one instruction per line — stable output,
/// pinned by golden tests.
std::string disassemble(const CompiledProgram &P);

} // namespace vm
} // namespace mvec

#endif // MVEC_VM_SERIALIZE_H
