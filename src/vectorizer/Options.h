//===- Options.h - Vectorizer configuration ---------------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Feature toggles for the vectorizer. Every paper mechanism can be
/// disabled independently, which the ablation benchmarks use to quantify
/// each mechanism's contribution.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_VECTORIZER_OPTIONS_H
#define MVEC_VECTORIZER_OPTIONS_H

#include <vector>

namespace mvec {

namespace cost {
class CostModel;
struct CostDecision;
} // namespace cost

struct VectorizerOptions {
  /// Insert transposes to reconcile row/column mismatches (Sec. 2.2).
  bool EnableTransposes = true;
  /// Use the extensible pattern database (Sec. 3).
  bool EnablePatterns = true;
  /// Vectorize additive-reduction statements via Gamma and native matrix
  /// multiplication (Sec. 3.1).
  bool EnableReductions = true;
  /// Re-associate multiplication chains until dimension checking succeeds
  /// (Sec. 3.1, footnote 2).
  bool EnableReassociation = true;
  /// Normalize loop index variables before analysis (Sec. 4).
  bool NormalizeLoops = true;
  /// Distribute transposes inward in generated code ((A+B')' -> A'+B) —
  /// the follow-up optimization the paper mentions but does not
  /// investigate. Off by default to match the paper's generated forms.
  bool DistributeTransposes = false;
  /// Emit optimization remarks explaining decisions.
  bool EmitRemarks = false;
  /// Profitability model (null = vectorize whenever legal, the paper's
  /// behavior). When set, codegen estimates vectorized-vs-loop cost per
  /// nest statement and keeps the loop when the loop is cheaper; the
  /// mul-chain reassociation DP additionally ranks variants by modeled
  /// kernel cost. The pointee must outlive every vectorization run using
  /// these options; its fingerprint is mixed into optionsFingerprint
  /// (service/VectorizationService.h) so cached results stay
  /// calibration-consistent.
  const cost::CostModel *Cost = nullptr;
  /// When non-null, codegen appends one CostDecision per nest statement
  /// (mvec_tool --explain-cost).
  std::vector<cost::CostDecision> *CostLog = nullptr;
};

} // namespace mvec

#endif // MVEC_VECTORIZER_OPTIONS_H
