//===- Oracle.h - Differential fuzzing oracle -------------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verdict machinery of the fuzzing subsystem. A candidate program is
/// pushed through vectorizeSource + diffRunLimited and classified:
///
///   Ok        the transformation preserved semantics (or left the
///             program alone) — the paper's Sec. 4 property held;
///   Rejected  the *input* was at fault (parse/annotation error, the
///             original program itself crashed or overran its budget) —
///             expected for mutated candidates, never a finding;
///   Finding   the *pipeline* is at fault: it crashed, produced a
///             program that fails to parse or run, diverged from the
///             original, or ran away (hang).
///
/// Findings carry a bucket signature — a short, stable string derived
/// from the failure point (crash text / first divergent variable /
/// normalized runtime error) — used to deduplicate the stream and to key
/// the corpus. check() is the one way a candidate is judged: campaigns
/// (checkBatch maps it over a worker pool), corpus replay and the reducer
/// all call it, under the same deadline, step and memory budgets, so a
/// hang becomes a finding instead of a stall and every bucket a campaign
/// files can be reproduced.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_FUZZ_ORACLE_H
#define MVEC_FUZZ_ORACLE_H

#include "driver/Pipeline.h"
#include "fuzz/Generator.h"
#include "service/ThreadPool.h"
#include "support/LruCache.h"
#include "vectorizer/Options.h"

#include <chrono>
#include <memory>
#include <string>
#include <vector>

namespace mvec {
namespace fuzz {

enum class FindingKind {
  Crash,              ///< the pipeline threw while vectorizing
  TransformedRunError,///< vectorized program fails to parse or to run
  Mismatch,           ///< both ran; final workspaces or output diverge
  Hang,               ///< transformed run (or the vectorizer) overran
  EngineDivergence,   ///< tree-walker and bytecode VM disagree on a program
  CostDivergence,     ///< cost-model-on output diverges from cost-model-off
};

/// Display name for \p Kind ("crash", "mismatch", ...).
const char *findingKindName(FindingKind Kind);

/// One defect the oracle observed.
struct Finding {
  FindingKind Kind = FindingKind::Mismatch;
  /// Dedup signature: "mismatch:var:s", "trun:<normalized error>", ...
  std::string Bucket;
  /// Full failure description (divergent values, diagnostics, ...).
  std::string Message;
  /// The offending program.
  std::string Source;
  /// Provenance: generator family or mutation trace.
  std::string Family;
};

/// Classification of one candidate.
struct Verdict {
  enum class State { Ok, Rejected, Finding };
  State S = State::Ok;
  /// Valid only when S == Finding.
  Finding F;

  bool ok() const { return S == State::Ok; }
  bool rejected() const { return S == State::Rejected; }
  bool isFinding() const { return S == State::Finding; }
};

/// Whether the profitability cost model participates. Off reproduces the
/// paper's vectorize-whenever-legal behaviour; On attaches a model to
/// every candidate; Both runs each candidate through *both*
/// configurations and demands that the two transformed programs behave
/// identically — keeping a loop (or choosing another mul-chain variant)
/// must never change semantics. A divergence is a
/// FindingKind::CostDivergence.
enum class CostMode { Off, On, Both };

struct OracleConfig {
  /// Worker threads for checkBatch.
  unsigned Jobs = 4;
  /// Wall-clock budget per differential check, covering vectorization
  /// and both runs; hangs become findings.
  std::chrono::milliseconds Deadline{2000};
  /// Deterministic per-run statement budget for the differential runs.
  uint64_t MaxSteps = 2000000;
  /// Workspace comparison tolerance (reductions reorder FP sums).
  double Tol = 1e-7;
  /// The differential (original vs transformed) runs use the tree-walker.
  /// When set, every program (the original, and the vectorized output
  /// when one was produced) is also run under the bytecode VM, which must
  /// behave byte-identically — see engineDiffRun(). A divergence is a
  /// FindingKind::EngineDivergence.
  bool EngineDiff = false;
  /// Cost-model participation; see CostMode.
  CostMode Cost = CostMode::Off;
  /// Model used under CostMode::On/Both (null = the built-in conservative
  /// profile). Must outlive the oracle.
  const cost::CostModel *Model = nullptr;
  VectorizerOptions Opts;
};

class Oracle {
public:
  explicit Oracle(OracleConfig Config = {});
  ~Oracle();

  Oracle(const Oracle &) = delete;
  Oracle &operator=(const Oracle &) = delete;

  /// Classifies one candidate synchronously in the calling thread. Every
  /// differential pair runs under its own ResourceGovernor at the
  /// service's default budget (ResilienceConfig::MaxJobBytes); a program
  /// over it is Rejected.
  Verdict check(const std::string &Source,
                const std::string &Family = std::string()) const;

  /// Cross-checks the tree-walker and bytecode VM on \p Source under the
  /// oracle's budgets (see engineDiffRun): Ok when behaviour is
  /// byte-identical (or the comparison is inconclusive because a
  /// wall-clock interrupt fired), Rejected when the program does not
  /// parse, an EngineDivergence finding otherwise. check() runs this
  /// automatically under EngineDiff.
  Verdict engineCheck(const std::string &Source,
                      const std::string &Family = std::string()) const;

  /// check() over many candidates in parallel on Config.Jobs workers.
  /// Results are in candidate order. Mutants repeat: a source already
  /// judged ok by a recent batch counts as ok without running again.
  std::vector<Verdict> checkBatch(const std::vector<GenProgram> &Candidates);

  /// Maps a differential-run outcome (diffRunLimited's status and
  /// failure description) onto a verdict and its bucket. Exposed for
  /// unit tests.
  static Verdict classifyDiff(DiffStatus Status, const std::string &Msg);

  /// Bucket-normalizes \p Message: digit runs become '#', whitespace is
  /// collapsed, the result is truncated. Keeps buckets stable across
  /// varying sizes, values and locations.
  static std::string normalizeForBucket(const std::string &Message);

  const OracleConfig &config() const { return Config; }

private:
  /// The differential (original vs transformed) classification under one
  /// specific options configuration; fills \p TransformedOut with the
  /// vectorized source when the pipeline produced one.
  Verdict checkImpl(const std::string &Source, const std::string &Family,
                    const VectorizerOptions &Opts,
                    std::string *TransformedOut) const;
  /// The model consulted under CostMode::On/Both.
  const cost::CostModel *costModel() const;
  /// The execution bounds of one check whose clock started at \p Start.
  RunLimits limits(std::chrono::steady_clock::time_point Start) const;
  /// Compares the model-off and model-on transformed programs; returns a
  /// CostDivergence finding when their behaviour differs.
  Verdict crossCheckCost(const std::string &Source, const std::string &Family,
                         const std::string &OffOut,
                         const std::string &OnOut) const;

  /// Entries of the ok-source cache checkBatch consults.
  static constexpr size_t OkCacheCapacity = 256;

  OracleConfig Config;
  /// FNV-1a hashes of sources checkBatch judged ok (the value is unused).
  LruCache<uint64_t, bool> OkSources{OkCacheCapacity};
  /// Constructed last and destroyed first, so no worker outlives the
  /// state it reads.
  std::unique_ptr<ThreadPool> Pool;
};

} // namespace fuzz
} // namespace mvec

#endif // MVEC_FUZZ_ORACLE_H
