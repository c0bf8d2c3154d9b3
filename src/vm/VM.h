//===- VM.h - Bytecode dispatch loop ----------------------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes compiled programs against a host Interpreter. The VM owns no
/// state of its own: workspace, output, RNG, step/deadline accounting,
/// fault sites and the kernel context all live in the host, so a
/// program observes exactly what it would under the tree-walker — the VM
/// only replaces the AST traversal with a register dispatch loop.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_VM_VM_H
#define MVEC_VM_VM_H

#include "vm/Bytecode.h"

namespace mvec {

class Interpreter;

namespace vm {

/// Runs \p P to completion against \p Host. Variable names bind to
/// workspace slots at entry, so the same CompiledProgram may execute
/// against any number of interpreters (including concurrently — the
/// program itself is read-only here). Returns false iff the host entered
/// the failed state; error message, location, interrupt kind and all
/// output live on the host, exactly as after Interpreter::run.
bool execute(const CompiledProgram &P, Interpreter &Host);

} // namespace vm
} // namespace mvec

#endif // MVEC_VM_VM_H
