//===- Vectorizer.h - Top-level vectorization driver ------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point of the library: source-to-source vectorization of
/// a parsed MATLAB program. Walks every for-loop nest (outermost first),
/// normalizes index variables, builds the dependence graph and runs the
/// dimension-checking code generator; nests that fail the eligibility
/// checks are kept and their inner loops tried independently.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_VECTORIZER_VECTORIZER_H
#define MVEC_VECTORIZER_VECTORIZER_H

#include "frontend/AST.h"
#include "patterns/PatternDatabase.h"
#include "shape/ShapeEnv.h"
#include "support/Diagnostics.h"
#include "vectorizer/Options.h"

namespace mvec {

struct VectorizeStats {
  unsigned LoopNestsConsidered = 0;
  /// Nests where at least one statement was emitted in vector form.
  unsigned LoopNestsImproved = 0;
  unsigned StmtsVectorized = 0;
  unsigned StmtsSequential = 0;
  /// Sequential loops materialized in vectorized output (partial
  /// vectorization indicator).
  unsigned SequentialLoopsEmitted = 0;
  unsigned IneligibleNests = 0;
  /// Statements a legal vectorization existed for but the cost model kept
  /// in loop form (0 unless VectorizerOptions::Cost is set).
  unsigned StmtsCostKept = 0;
  /// Nests where the cost model kept at least one such statement.
  unsigned NestsKeptLoop = 0;
  /// Mul-chain associations where the cost model overrode the default
  /// most-reductions-folded grouping in emitted code.
  unsigned VariantOverrides = 0;
};

/// Vectorizes \p P under shape environment \p Env using pattern database
/// \p DB, returning the transformed program. Remarks (when enabled) and
/// warnings go to \p Diags; the input program is never modified. Nothing
/// is memoized across calls: each nest is analysed afresh, which costs
/// less than keying and cloning a cached outcome would.
Program vectorizeProgram(const Program &P, const ShapeEnv &Env,
                         const PatternDatabase &DB,
                         const VectorizerOptions &Opts,
                         DiagnosticEngine &Diags,
                         VectorizeStats *Stats = nullptr);

} // namespace mvec

#endif // MVEC_VECTORIZER_VECTORIZER_H
