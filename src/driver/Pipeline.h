//===- Pipeline.h - End-to-end vectorization pipeline -----------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-call public API (paper Fig. 1): MATLAB source in, vectorized
/// MATLAB source out — parse, collect `%!` shape annotations, run the
/// light intra-script shape inference, vectorize, print. Also provides the
/// differential runner that validates a transformation by executing the
/// original and vectorized programs and comparing final workspaces.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_DRIVER_PIPELINE_H
#define MVEC_DRIVER_PIPELINE_H

#include "patterns/PatternDatabase.h"
#include "support/Diagnostics.h"
#include "vectorizer/Options.h"
#include "vectorizer/Vectorizer.h"

#include <atomic>
#include <chrono>
#include <optional>
#include <string>

namespace mvec {

struct PipelineResult {
  /// The vectorized program, re-rendered as MATLAB source.
  std::string VectorizedSource;
  VectorizeStats Stats;
  /// Parse/analysis diagnostics (includes remarks when enabled).
  DiagnosticEngine Diags;

  bool succeeded() const { return !Diags.hasErrors(); }
};

/// The shared builtin pattern database vectorizeSource falls back to when
/// no caller database is given: built once on first use, frozen, and read
/// concurrently ever after. Callers that want plugins or extra patterns
/// still build their own.
const PatternDatabase &defaultPatternDatabase();

namespace detail {
/// Whitespace-tokenized transcript comparison with numeric tolerance;
/// exposed for unit tests (see Pipeline.cpp for the semantics).
bool outputsMatch(const std::string &OutA, const std::string &OutB,
                  double Tol);
} // namespace detail

/// Runs the full pipeline on \p Source. \p DB defaults to the builtin
/// pattern database when null.
///
/// Thread-safety: re-entrant. All state (parse tree, shape environment,
/// diagnostics, the fallback pattern database) is local to the call; a
/// caller-supplied \p DB is only read through its const interface, so one
/// frozen database may be shared by any number of concurrent calls (see
/// PatternDatabase::freeze()). The service layer (src/service) relies on
/// this to fan the pipeline out over a worker pool.
PipelineResult vectorizeSource(const std::string &Source,
                               const VectorizerOptions &Opts = {},
                               const PatternDatabase *DB = nullptr);

/// Execution bounds for differential validation. Interpreted MATLAB can
/// loop forever (or merely far too long); services must be able to cut a
/// runaway run off without wedging a worker thread.
struct RunLimits {
  /// Abort after this many interpreted statements (0 = unlimited).
  uint64_t MaxSteps = 0;
  /// Abort once the steady clock passes this point.
  std::optional<std::chrono::steady_clock::time_point> Deadline;
  /// Abort soon after the flag becomes true (caller-owned; may be shared
  /// across a batch for bulk cancellation). Must outlive the call.
  const std::atomic<bool> *Cancel = nullptr;
  /// After the original program runs, check that its workspace honors the
  /// %! shape annotations (a declared 1 axis is exactly one, a declared *
  /// axis exceeds one). A violation is reported as an "original program"
  /// error: the input lied to the vectorizer, so a divergence is the
  /// input's fault, not the transformation's. Used by the fuzzer, where
  /// mutation can desynchronize annotations from code.
  bool CheckAnnotations = false;
};

enum class DiffStatus {
  Match,     ///< programs agree
  Mismatch,  ///< both ran; final states diverge
  Error,     ///< a program failed to parse or raised a runtime error
  TimedOut,  ///< a run hit MaxSteps or the deadline
  Cancelled, ///< the cancel flag fired mid-run
};

struct DiffOutcome {
  DiffStatus Status = DiffStatus::Match;
  /// Empty on Match, else a description of the divergence / failure.
  std::string Message;
  bool agreed() const { return Status == DiffStatus::Match; }
};

/// diffRun with execution bounds; see diffRun below for the comparison
/// semantics. Also re-entrant (fresh interpreters per call).
DiffOutcome diffRunLimited(const std::string &OriginalSource,
                           const std::string &TransformedSource,
                           const RunLimits &Limits, double Tol = 1e-9,
                           uint64_t Seed = 12345);

/// Differential validation: executes \p OriginalSource and
/// \p TransformedSource in fresh interpreters (same RNG seed) and compares
/// the final workspaces, ignoring for-loop index variables of the original
/// program (vectorized code no longer materializes them). Returns an empty
/// string when the states agree, else a description of the divergence.
/// Unbounded; prefer diffRunLimited when the input is untrusted.
std::string diffRun(const std::string &OriginalSource,
                    const std::string &TransformedSource,
                    double Tol = 1e-9, uint64_t Seed = 12345);

/// Convenience for tests and benchmarks: vectorizes \p Source and checks
/// semantic equivalence via diffRun. Returns the vectorized source, or
/// nullopt with \p Error filled.
std::optional<std::string> vectorizeAndValidate(const std::string &Source,
                                                std::string &Error,
                                                const VectorizerOptions &Opts = {});

} // namespace mvec

#endif // MVEC_DRIVER_PIPELINE_H
