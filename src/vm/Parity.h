//===- Parity.h - Walker/VM parity check ------------------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode VM's correctness gate. The tree-walker defines what a
/// program means and is the only engine that validates jobs; the VM
/// executes through a host Interpreter (same workspace, kernels, RNG,
/// error and interrupt machinery), so it must behave byte-identically.
/// engineDiffRun() runs a program under both and reports any difference.
/// Its users are VMTest, ResilienceTest's depth guard and the fuzzer's
/// `--engine both` differential.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_VM_PARITY_H
#define MVEC_VM_PARITY_H

#include "driver/Pipeline.h"

namespace mvec {

/// Engine-differential validation: runs \p Source once under the
/// tree-walker and once under the bytecode VM (fresh interpreters, same
/// seed and limits) and demands *byte-identical* behaviour: same
/// failed/error message/error location, same interrupt kind, same step
/// count, exactly equal workspaces (tolerance 0; NaNs compare equal) and
/// printed output. The only tolerated asymmetry is wall-clock interrupts:
/// when either run is cut off by the deadline or the cancel flag, the
/// comparison is inconclusive (returns TimedOut/Cancelled with an empty
/// message) because where the clock fires is not deterministic. Step-limit
/// interrupts ARE deterministic and must match exactly.
/// Limits.CheckAnnotations is not read.
DiffOutcome engineDiffRun(const std::string &Source,
                          const RunLimits &Limits = {},
                          uint64_t Seed = 12345);
/// engineDiffRun on an already parsed (or programmatically built)
/// program.
DiffOutcome engineDiffRun(const Program &Prog, const RunLimits &Limits = {},
                          uint64_t Seed = 12345);

} // namespace mvec

#endif // MVEC_VM_PARITY_H
