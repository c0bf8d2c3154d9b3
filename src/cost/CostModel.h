//===- CostModel.h - Profitability cost model -------------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profitability model behind vectorize-vs-keep-loop decisions
/// (ROADMAP open item 2). The paper vectorizes every legal nest; at
/// production scale that is sometimes a pessimization — tiny trip counts,
/// repmat materialization blowups, transpose churn — so the code generator
/// compares an estimate of the vectorized form's kernel cost against the
/// interpreted loop's cost and keeps the loop when the loop is cheaper.
///
/// The estimate is driven by a CostProfile: per-kernel-class nanosecond
/// coefficients measured by tools/calibrate_costs against the *active*
/// SIMD dispatch level (an AVX2 matmul and a scalar one differ ~3x, so a
/// static table cannot work), persisted as a checksummed costs.mvec.json.
/// A conservative built-in profile keeps the model usable uncalibrated;
/// any corrupt, truncated or version-skewed profile file falls back to it
/// with a diagnostic, never a crash.
///
/// Every decision is surfaced: a CostDecision record per statement (the
/// `--explain-cost` output), VectorizeStats counters, ServiceMetrics and
/// daemon STATS. Cache keys at both tiers (the result cache, DiskStore) mix
/// in fingerprint() so results produced under a differently calibrated
/// profile are never served stale.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_COST_COSTMODEL_H
#define MVEC_COST_COSTMODEL_H

#include <cstdint>
#include <string>

namespace mvec {
namespace cost {

/// Calibrated per-kernel-class coefficients, all in nanoseconds. The
/// interpreter-side numbers (LoopIterNs, ScalarOpNs) price what a kept
/// loop costs per iteration; the kernel-side numbers price what the
/// vectorized statement's runtime kernels cost per element.
struct CostProfile {
  /// Schema version of the serialized form; bumped on layout changes.
  static constexpr int CurrentVersion = 1;

  int Version = CurrentVersion;
  /// SIMD dispatch level the calibration ran at (simd::levelName:
  /// "scalar", "sse2", "avx2" — or "default" for the built-in profile).
  std::string SimdLevel = "default";
  /// False for the built-in conservative profile, true once measured.
  bool Calibrated = false;

  /// Interpreter overhead per loop iteration (header dispatch, index
  /// variable update).
  double LoopIterNs = 150.0;
  /// Interpreter cost per scalar operation inside a loop body (tree-walk
  /// dispatch, value boxing, subscript checks).
  double ScalarOpNs = 60.0;
  /// Fixed cost of dispatching one vectorized statement (range
  /// materialization, slice extraction, result store) independent of the
  /// element count. This is what makes tiny trip counts unprofitable.
  double VectorStmtNs = 2500.0;
  /// Per-element cost of elementwise kernels (+, -, .*, ./, compares).
  double ElementwiseNs = 4.0;
  /// Per-element cost of the fused multiply-add kernel (a .* b + c).
  double FusedMulAddNs = 3.0;
  /// Per-multiply-add cost of native matrix multiplication.
  double MatMulNs = 2.0;
  /// Per-element cost of reductions (sum).
  double ReduceNs = 3.0;
  /// Per-element materialization cost of repmat temporaries.
  double RepmatNs = 6.0;
  /// Per-element materialization cost of transposes.
  double TransposeNs = 6.0;
  /// Trip count assumed for loops whose bounds resist static evaluation:
  /// the "assume large" symbolic fallback. Large enough that unknown
  /// bounds vectorize (the paper's default behavior), small enough that
  /// the estimate stays honest about moderate nests.
  double AssumedTripCount = 64.0;

  /// FNV-1a over the canonical serialized payload (everything except the
  /// checksum field itself). Persisted inside costs.mvec.json so a torn
  /// or hand-edited profile is detected on load.
  uint64_t checksum() const;

  /// Cache-key salt: fnv1aMix of the checksum and the (hashed) SIMD
  /// level. Mixed into every options fingerprint when a model is active,
  /// so result-cache/DiskStore entries from a differently calibrated run
  /// are never served.
  uint64_t fingerprint() const;
};

/// The built-in conservative profile (Calibrated = false).
CostProfile defaultCostProfile();

/// Renders \p P as the costs.mvec.json document (pretty-printed, with the
/// checksum field filled in).
std::string serializeCostProfile(const CostProfile &P);

/// Parses a document produced by serializeCostProfile. Returns false with
/// \p Error set on any defect: malformed JSON, missing keys, version skew,
/// non-finite or non-positive coefficients, checksum mismatch. \p Out is
/// untouched on failure.
bool parseCostProfile(const std::string &Json, CostProfile &Out,
                      std::string &Error);

/// Loads \p Path, falling back to defaultCostProfile() on any failure
/// (unreadable file, parse error, checksum mismatch) with \p Diag set to
/// a one-line description; \p Diag stays empty on success. An empty
/// \p Path returns the default profile silently (the "On" mode without a
/// profile). Never throws.
CostProfile loadCostProfileOrDefault(const std::string &Path,
                                     std::string &Diag);

/// Operation-class counts of one vectorized statement, gathered by a walk
/// over the transformed AST (vectorizer/Codegen.cpp owns the walk; the
/// pricing lives here so the benchmarks and tests can price the same
/// counts).
struct KernelCounts {
  unsigned Elementwise = 0; ///< pointwise binary/unary ops, slices, stores
  unsigned FusedMulAdd = 0; ///< a .* b + c shapes (fused kernel)
  unsigned MatMul = 0;      ///< native '*' products
  unsigned Reduce = 0;      ///< sum() reductions
  unsigned Repmat = 0;      ///< repmat materializations
  unsigned Transpose = 0;   ///< transpose materializations

  unsigned total() const {
    return Elementwise + FusedMulAdd + MatMul + Reduce + Repmat + Transpose;
  }
};

/// An immutable profile plus the estimation primitives codegen consults.
/// Thread-safe (const after construction); one instance is shared by
/// every worker of a service.
class CostModel {
public:
  explicit CostModel(CostProfile Profile = defaultCostProfile());

  const CostProfile &profile() const { return Profile; }
  uint64_t fingerprint() const { return Fingerprint; }
  /// The symbolic-trip-count fallback ("assume large").
  double assumedTrip() const { return Profile.AssumedTripCount; }

  /// Estimated cost (ns) of running the interpreted loop form:
  /// \p TotalIters loop iterations of a body with \p OpCount scalar
  /// operations.
  double loopCost(double TotalIters, unsigned OpCount) const {
    return TotalIters * (Profile.LoopIterNs +
                         Profile.ScalarOpNs * static_cast<double>(OpCount));
  }

  /// Estimated cost (ns) of the vectorized form: \p OuterIters sequential
  /// executions of one vector statement whose kernels touch \p VecElems
  /// elements each, plus the per-iteration overhead of the sequential
  /// shell loops themselves.
  double vectorCost(const KernelCounts &K, double VecElems,
                    double OuterIters) const {
    double PerExec = Profile.VectorStmtNs + kernelCost(K, VecElems);
    return OuterIters * (PerExec + Profile.LoopIterNs);
  }

  /// The kernel portion alone: per-element coefficients times \p Elems.
  double kernelCost(const KernelCounts &K, double Elems) const {
    return Elems * (Profile.ElementwiseNs * K.Elementwise +
                    Profile.FusedMulAddNs * K.FusedMulAdd +
                    Profile.MatMulNs * K.MatMul + Profile.ReduceNs * K.Reduce +
                    Profile.RepmatNs * K.Repmat +
                    Profile.TransposeNs * K.Transpose);
  }

private:
  CostProfile Profile;
  uint64_t Fingerprint;
};

/// The process-wide model over the built-in default profile, for callers
/// that enable the cost model without supplying a calibration (built once,
/// read-only ever after).
const CostModel &builtinCostModel();

/// One vectorize-vs-keep-loop verdict, recorded per nest statement when a
/// decision log is attached (mvec_tool --explain-cost).
struct CostDecision {
  /// Source line of the statement inside its nest.
  unsigned Line = 0;
  /// The original statement, printed.
  std::string Stmt;
  /// True when the statement was emitted in vector form.
  bool Vectorized = false;
  /// Chosen vectorization level (1-based; 0 when the loop was kept).
  unsigned ChosenLevel = 0;
  /// Estimated cost of the best vectorized candidate (ns; 0 when no level
  /// was legal).
  double VectorNs = 0;
  /// Estimated cost of the interpreted loop form (ns).
  double LoopNs = 0;
  /// True when the multiplication-chain variant chosen by cost differs
  /// from the default most-reductions-folded preference.
  bool VariantOverride = false;
  /// Per-level candidate summary ("L1: 3120ns, L2: 870ns"), or why no
  /// decision was possible.
  std::string Detail;
};

} // namespace cost
} // namespace mvec

#endif // MVEC_COST_COSTMODEL_H
