//===- Compiler.h - AST -> bytecode lowering --------------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a parsed program to vm bytecode. The lowering is total: every
/// program that parses compiles, with statically detectable runtime errors
/// (':' outside a subscript, N-d indexing, ...) lowered to Fail
/// instructions carrying the exact message and location the tree-walker
/// would produce. Compilation is deterministic — same source, same
/// program — and cheap, so every run compiles its program afresh.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_VM_COMPILER_H
#define MVEC_VM_COMPILER_H

#include "frontend/AST.h"
#include "vm/Bytecode.h"

#include <string>

namespace mvec {
namespace vm {

/// Lowers \p P to bytecode. The second argument, the text \p P was
/// parsed from, is not read: the lowering depends on the AST alone.
CompiledProgram compileProgram(const Program &P, const std::string &Source);

} // namespace vm
} // namespace mvec

#endif // MVEC_VM_COMPILER_H
