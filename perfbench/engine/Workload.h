//===- Workload.h - One benchmark workload inside the engine -------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every workload answers the same commands (see Main.cpp): `setup`
/// builds its inputs from the seed and whatever state the timed phase
/// needs, and `run SECONDS TRACE` measures. The traced run's daemon phase
/// answers `traffic`, `stats`, `verify` and `isolation` instead. Samples
/// go back raw; run.py computes every statistic.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include "Common.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Step budget per validation run: generous for every benchmark program
/// (the largest paper kernel runs ~2.6M statements), but a runaway still
/// ends as a counted failure.
constexpr uint64_t ValidateMaxSteps = 20'000'000;
/// The RNG seed diffRunLimited uses by default.
constexpr uint64_t ValidateRunSeed = 12345;

/// Raw measurements of one command, serialized as the reply.
struct Samples {
  std::map<std::string, std::vector<double>> Series;
  Counters Counts;
  std::vector<std::string> Violations;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Rejected = 0;

  void add(const std::string &Name, double V) { Series[Name].push_back(V); }
  void violation(std::string What) { Violations.push_back(std::move(What)); }
  /// Writes every field, and the process peak RSS, into the open object
  /// of \p J.
  void writeTo(Json &J) const;
};

class Workload {
public:
  virtual ~Workload() = default;
  /// (Re)builds all state from \p Seed. Returns false with \p Error set
  /// when the inputs cannot be prepared.
  virtual bool setup(uint64_t Seed, std::string &Error) = 0;
  /// Handles one command after setup; returns false for an unknown one.
  virtual bool command(const std::vector<std::string> &Args, Json &Out) = 0;
};

std::unique_ptr<Workload> makeCompileStream();
std::unique_ptr<Workload> makePaperKernels();
std::unique_ptr<Workload> makeDaemonTraffic(const std::string &WorkDir);

/// Lowers \p P to bytecode again ("vm.compile.<program>"), then times the
/// four run-time forms (loop/vectorized x ast/vm) of \p P,
/// adding one "run.<form>.<program>" sample each (mean ms per call over
/// \p LoopReps or \p VecReps calls), paired with a
/// "calib.run.<form>.<program>" sample: \p CalibMs when positive (the
/// caller's calibration, for programs too small to calibrate each form),
/// else a calibrationMs() taken just before the form ran (also added to
/// "calib_ms"). When \p Check is set, every form's workspace is compared
/// against the loop-form run under the tree-walker (the reference) and
/// divergences are recorded as violations.
void timeRunForms(const PreparedProgram &P, unsigned LoopReps,
                  unsigned VecReps, bool Check, double CalibMs, Samples &S);

/// The traced run's layer-by-layer replay of the pipeline on \p Source:
/// a span around each public call (parseMatlab, the shape calls,
/// buildLoopNest + buildDepGraph on a clone of the parse,
/// vectorizeProgram, printProgram, and with \p RunInterp both validation
/// runs). The replay must print \p Vectorized, the output of
/// vectorizeSource, or a violation is recorded. With \p CountDeps the
/// dependence edges are added to the "deps.edges" count.
void traceLayers(const std::string &Source, const std::string &Vectorized,
                 bool CostOn, bool RunInterp, bool CountDeps, Samples &S);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
