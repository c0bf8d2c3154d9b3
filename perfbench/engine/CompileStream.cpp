//===- CompileStream.cpp - The compile-stream workload --------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded stream of distinct programs from fuzz::Generator (all eight
/// families, round robin) plus the eleven paper programs, each pushed
/// through vectorizeSource and then diffRunLimited on one thread with no
/// caches. Half the stream, chosen by seed, runs with the built-in cost
/// profile. Compile time dominates and execution is tiny, so this
/// workload isolates frontend, shape, deps, vectorizer, cost and driver.
///
/// The stream has a fixed length per seed and is replayed pass after
/// pass until the time is up; the exact counts come from the first pass
/// only, so they repeat exactly for a seed.
///
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "Calibration.h"
#include "cost/CostModel.h"
#include "fuzz/Generator.h"
#include "fuzz/Rng.h"

#include <algorithm>
#include <set>

using namespace mvec;

namespace perfbench {
namespace {

/// Generated programs per stream (plus the paper corpus).
constexpr unsigned StreamLength = 1500;
/// Calls per run-time measurement of a small corpus program.
constexpr unsigned CorpusReps = 20;

struct Item {
  std::string Name;
  std::string Source;
  bool CostOn = false;
  bool Rejected = false;
};

class CompileStream : public Workload {
public:
  bool setup(uint64_t Seed, std::string &Error) override;
  bool command(const std::vector<std::string> &Args, Json &Out) override;

private:
  void runPass(bool Traced, Clock::time_point Deadline, Samples &S);

  std::vector<Item> Items;
  bool prepareCorpus(std::string &Error);

  std::vector<PreparedProgram> Corpus;
  uint64_t Seed = 0;
  bool Classified = false;
};

bool CompileStream::prepareCorpus(std::string &Error) {
  Corpus.clear();
  for (const NamedSource &P : paperCorpus()) {
    Corpus.emplace_back();
    if (!Corpus.back().prepare(P.Name, "", P.Source, Seed, Error))
      return false;
  }
  return true;
}

bool CompileStream::setup(uint64_t NewSeed, std::string &Error) {
  Seed = NewSeed;
  Items.clear();
  Classified = false;
  for (const NamedSource &P : paperCorpus())
    Items.push_back({P.Name, P.Source});
  std::set<std::string> Seen;
  for (uint64_t K = 0; Items.size() < paperCorpus().size() + StreamLength;
       ++K) {
    fuzz::Generator G(fuzz::Rng::deriveSeed(Seed, K));
    fuzz::GenProgram P = G.generate(K % fuzz::Generator::NumFamilies);
    if (Seen.insert(P.Source).second)
      Items.push_back({P.Family + "-" + std::to_string(K), P.Source});
  }
  // Exactly half of the stream, picked by seed, runs with the cost model.
  std::vector<size_t> Order(Items.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  SeededRng R(Seed ^ 0x636f73745f6f6eull);
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[R.next() % I]);
  for (size_t I = 0; I != Order.size() / 2; ++I)
    Items[Order[I]].CostOn = true;

  return prepareCorpus(Error);
}

void CompileStream::runPass(bool Traced, Clock::time_point Deadline,
                            Samples &S) {
  bool Classify = !Classified;
  bool CountDeps = Traced && !S.Counts.count("deps.edges");
  RunLimits Limits;
  Limits.MaxSteps = ValidateMaxSteps;
  for (Item &It : Items) {
    if (It.Rejected)
      continue;
    // The first pass (which classifies and counts) and the first traced
    // pass (which counts dependence edges) always finish, so the exact
    // counts cover the whole stream.
    if (!Classify && !CountDeps && Clock::now() >= Deadline)
      return;
    VectorizerOptions Opts;
    if (It.CostOn)
      Opts.Cost = &cost::builtinCostModel();
    auto T0 = Clock::now();
    PipelineResult R;
    {
      Tracer::Scope Span(tracer(), "driver.vectorizeSource");
      R = vectorizeSource(It.Source, Opts);
    }
    auto T1 = Clock::now();
    DiffOutcome D;
    if (R.succeeded()) {
      Tracer::Scope Span(tracer(), "driver.diffRunLimited");
      D = diffRunLimited(It.Source, R.VectorizedSource, Limits);
    }
    auto T2 = Clock::now();

    if (Classify) {
      DiagnosticEngine ParseDiags;
      parseMatlab(It.Source, ParseDiags);
      bool OriginalBad =
          ParseDiags.hasErrors() ||
          (D.Status == DiffStatus::Error &&
           D.Message.rfind("original program", 0) == 0);
      if (OriginalBad) {
        It.Rejected = true;
        ++S.Rejected;
        continue;
      }
      ++S.Attempted;
      if (!R.succeeded() || !D.agreed()) {
        ++S.Failed;
        S.violation(It.Name + ": " +
                    (R.succeeded() ? D.Message : R.Diags.str()));
      }
      const VectorizeStats &St = R.Stats;
      S.Counts["vectorizer.stmts_vectorized"] += St.StmtsVectorized;
      S.Counts["vectorizer.stmts_sequential"] += St.StmtsSequential;
      S.Counts["vectorizer.nests_ineligible"] += St.IneligibleNests;
      S.Counts["cost.stmts_kept"] += St.StmtsCostKept;
      S.Counts["cost.nests_kept_loop"] += St.NestsKeptLoop;
      S.Counts["cost.variant_overrides"] += St.VariantOverrides;
      S.Counts["scripts.cost_on"] += It.CostOn;
    }
    S.add(Traced ? "e2e_traced_ms" : "e2e_ms", msSince(T0, T2));
    if (!Traced) {
      S.add("compile_ms", msSince(T0, T1));
      S.add("validate_ms", msSince(T1, T2));
    }
    if (Traced && R.succeeded())
      traceLayers(It.Source, R.VectorizedSource, It.CostOn, true, CountDeps,
                  S);
  }
  Classified = true;
}

bool CompileStream::command(const std::vector<std::string> &Args, Json &Out) {
  if (Args.size() != 3 || Args[0] != "run")
    return false;
  double Seconds = std::stod(Args[1]);
  bool Trace = Args[2] == "1";
  Samples S;
  auto Start = Clock::now();
  auto Deadline = Start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(Seconds));
  unsigned Pass = 0;
  do {
    // In the traced run, passes alternate untraced and traced so the
    // tracing overhead is measured on the same items in one process.
    bool Traced = Trace && Pass % 2 == 1;
    tracer().setEnabled(Traced);
    runPass(Traced, Deadline, S);
    // Each pass times freshly prepared copies of the corpus programs, so
    // their medians average over heap layouts rather than keep the one
    // this seed's stream happened to leave behind.
    std::string Error;
    if (Pass > 0 && !prepareCorpus(Error))
      S.violation(Error);
    double Calib = calibrationMs();
    S.add("calib_ms", Calib);
    for (const PreparedProgram &P : Corpus)
      timeRunForms(P, CorpusReps, CorpusReps, Pass == 0, Calib, S);
    tracer().setEnabled(false);
    ++Pass;
  } while (Clock::now() < Deadline || (Trace && Pass < 2));
  S.Counts["passes"] = Pass;
  Out.field("wall_s", std::chrono::duration<double>(Clock::now() - Start)
                          .count());
  S.writeTo(Out);
  Out.key("spans");
  tracer().drainTo(Out);
  return true;
}

} // namespace

std::unique_ptr<Workload> makeCompileStream() {
  return std::make_unique<CompileStream>();
}

} // namespace perfbench
