//===- Quarantine.h - Crash-input quarantine --------------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// When an input kills a sandboxed worker, the supervisor writes it to
/// the quarantine directory so every crash becomes a fuzz-triage item
/// automatically. One file per content key:
///
///   <dir>/<content-hex-key>.m
///
/// The file is the request body verbatim, prefixed with a reproducer
/// header of MATLAB comment lines (so the file is still a loadable
/// script — `mvec_fuzz --replay` and `mvec` can consume it directly):
///
///   % mvec-quarantine v1
///   % key: 00c0ffee00c0ffee
///   % cause: crash
///   % signal: 11
///   % exit: -1
///   % engine: ast
///   % cost_model: off
///   % cost_profile: -
///   % isa: avx2
///   % name: request
///   % validate: 1
///   <original body bytes>
///
/// `name` is the name the job ran under: the daemon names a request that
/// brings none `request`.
///
/// Writes are tmp+rename like the DiskStore, and a key that is already
/// quarantined is not rewritten — the first reproducer wins, and the
/// quarantined counter matches the number of files.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_SANDBOX_QUARANTINE_H
#define MVEC_SANDBOX_QUARANTINE_H

#include "sandbox/Sandbox.h"

#include <string>

namespace mvec {
struct ServiceConfig;
namespace sandbox {

/// What the header records about one worker death.
struct QuarantineRecord {
  WorkerFailure Cause = WorkerFailure::Crash;
  int Signal = 0;   ///< Terminating signal, 0 if none.
  int ExitCode = -1; ///< Exit status, -1 if killed by a signal.
  std::string Name;  ///< JobSpec name from the request.
  bool Validate = true;
};

/// Writes \p Body under Config.QuarantineDir (created on demand) keyed
/// by \p Key; the header names the engine and cost model of \p Service,
/// the configuration the worker ran. Returns true when a NEW quarantine
/// file was published; false when the directory is unset, the key was
/// already quarantined, or any I/O failed. Thread-safe across threads
/// and processes (tmp+rename).
bool quarantineInput(uint64_t Key, const std::string &Body,
                     const QuarantineRecord &Rec, const SandboxConfig &Config,
                     const ServiceConfig &Service);

/// The quarantine path \p Key would be written to.
std::string quarantinePath(const std::string &Dir, uint64_t Key);

} // namespace sandbox
} // namespace mvec

#endif // MVEC_SANDBOX_QUARANTINE_H
