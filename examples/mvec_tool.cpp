//===- mvec_tool.cpp - The mvec command-line vectorizer ---------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A source-to-source command line tool around the library — the shape a
/// user of the paper's prototype would actually invoke:
///
///   mvec_tool [options] input.m           vectorize a file (or - = stdin)
///   mvec_tool --batch DIR [options]       vectorize every *.m file in DIR
///                                         concurrently via the service
///
/// Options:
///   -o FILE            write transformed source to FILE (default stdout)
///   --remarks          print optimization remarks to stderr
///   --validate         run both versions in the interpreter and verify
///                      identical final workspaces
///   --run              execute the transformed program and print output
///   --engine E         execution tier for --validate/--run and batch
///                      validation: ast (default, tree-walker), vm
///                      (register bytecode), or both (cross-check the two
///                      tiers for byte-identical behaviour; single-file
///                      mode only)
///   --plugin PATH      dlopen a pattern plugin (repeatable)
///   --cost-model M     profitability model: off (default, vectorize
///                      whenever legal) or on (keep loops the model
///                      prices cheaper than their vector form)
///   --cost-profile P   calibrated costs.mvec.json (default: built-in
///                      conservative profile; a rejected file falls back
///                      with a diagnostic)
///   --explain-cost     implies --cost-model on; prints one line per
///                      nest statement with the estimated vector/loop
///                      costs and the decision (single-file mode only)
///   --no-transposes / --no-patterns / --no-reductions /
///   --no-reassociation / --no-normalize
///                      disable individual mechanisms
///
/// Batch-mode options:
///   --batch DIR        process every *.m file under DIR (sorted order)
///   --jobs N           worker threads (default 4)
///   --cache N          result-cache entries (default 256; 0 disables)
///   --deadline-ms N    per-job deadline (default 10000; 0 = none)
///   --no-validate      skip differential validation of batch jobs
///   --stats            print the service metrics dump after the batch
///   --stats-json FILE  write the metrics as JSON to FILE
///
//===----------------------------------------------------------------------===//

#include "cost/CostModel.h"
#include "driver/Pipeline.h"
#include "driver/ToolFlags.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "patterns/PluginAPI.h"
#include "service/VectorizationService.h"
#include "vm/Compiler.h"
#include "vm/VM.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

using namespace mvec;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [options] input.m\n"
               "       %s --batch DIR [--jobs N] [--cache N] "
               "[--deadline-ms N] [--no-validate] [--engine ast|vm] "
               "[--stats] [--stats-json FILE]\n"
               "  -o FILE, --remarks, --validate, --run, "
               "--engine ast|vm|both, --plugin PATH,\n"
               "  --cost-model off|on, --cost-profile FILE, --explain-cost,\n"
               "  --no-transposes, --no-patterns, --no-reductions,\n"
               "  --no-reassociation, --no-normalize\n",
               Argv0, Argv0);
  return 2;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

/// Vectorizes every *.m file under \p Dir through the service; returns the
/// process exit code (0 only when every job succeeded).
int runBatch(const std::string &Dir, const VectorizerOptions &Opts,
             const PatternDatabase &DB, unsigned Jobs, size_t CacheEntries,
             unsigned DeadlineMs, bool Validate, ExecEngine Engine,
             bool Stats, const std::string &StatsJsonPath) {
  namespace fs = std::filesystem;
  std::error_code EC;
  std::vector<std::string> Paths;
  for (const fs::directory_entry &Entry : fs::directory_iterator(Dir, EC))
    if (Entry.is_regular_file() && Entry.path().extension() == ".m")
      Paths.push_back(Entry.path().string());
  if (EC) {
    std::fprintf(stderr, "error: cannot read directory '%s': %s\n",
                 Dir.c_str(), EC.message().c_str());
    return 1;
  }
  if (Paths.empty()) {
    std::fprintf(stderr, "error: no .m files under '%s'\n", Dir.c_str());
    return 1;
  }
  std::sort(Paths.begin(), Paths.end());

  std::vector<JobSpec> Specs;
  for (const std::string &Path : Paths) {
    JobSpec Spec;
    Spec.Name = Path;
    if (!readFile(Path, Spec.Source)) {
      std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
      return 1;
    }
    Spec.Opts = Opts;
    Spec.Validate = Validate;
    Specs.push_back(std::move(Spec));
  }

  ServiceConfig Config;
  Config.Workers = Jobs;
  Config.CacheCapacity = CacheEntries;
  Config.DefaultDeadline = std::chrono::milliseconds(DeadlineMs);
  Config.DB = &DB;
  Config.Engine = Engine;
  VectorizationService Service(Config);
  std::vector<JobResult> Results = Service.runBatch(std::move(Specs));

  size_t Succeeded = 0, Degraded = 0;
  for (const JobResult &R : Results) {
    if (R.succeeded())
      ++Succeeded;
    else if (R.Status == JobStatus::Degraded)
      ++Degraded;
    std::fprintf(stderr, "%-40s %-9s %s%6.1f ms  %u stmt(s) vectorized%s%s\n",
                 R.Name.c_str(), jobStatusName(R.Status),
                 R.CacheHit ? "[cache] " : "", R.TotalSeconds * 1e3,
                 R.Stats.StmtsVectorized, R.Message.empty() ? "" : "\n    ",
                 R.Message.c_str());
  }
  if (Degraded != 0)
    std::fprintf(stderr,
                 "batch: %zu/%zu job(s) succeeded, %zu degraded "
                 "(original source passed through)\n",
                 Succeeded, Results.size(), Degraded);
  else
    std::fprintf(stderr, "batch: %zu/%zu job(s) succeeded\n", Succeeded,
                 Results.size());
  if (Stats)
    std::fprintf(stderr, "%s", Service.metrics().text().c_str());
  if (!StatsJsonPath.empty()) {
    std::ofstream Out(StatsJsonPath);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   StatsJsonPath.c_str());
      return 1;
    }
    Out << Service.metrics().json() << "\n";
  }
  return Succeeded == Results.size() ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  VectorizerOptions Opts;
  std::string InputPath;
  std::string OutputPath;
  std::vector<std::string> Plugins;
  bool Validate = false, Run = false;
  std::string BatchDir;
  unsigned Jobs = 4;
  size_t CacheEntries = 256;
  unsigned DeadlineMs = 10000;
  bool NoValidate = false, Stats = false;
  std::string StatsJsonPath;
  ToolFlags Flags;
  bool ExplainCost = false;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "-o" && I + 1 < argc)
      OutputPath = argv[++I];
    else if (Arg == "--remarks")
      Opts.EmitRemarks = true;
    else if (Arg == "--validate")
      Validate = true;
    else if (Arg == "--run")
      Run = true;
    else if (Arg == "--plugin" && I + 1 < argc)
      Plugins.push_back(argv[++I]);
    else if (Arg == "--batch" && I + 1 < argc)
      BatchDir = argv[++I];
    else if (Arg == "--jobs" && I + 1 < argc)
      Jobs = static_cast<unsigned>(std::atoi(argv[++I]));
    else if (Arg == "--cache" && I + 1 < argc)
      CacheEntries = static_cast<size_t>(std::atoll(argv[++I]));
    else if (Arg == "--deadline-ms" && I + 1 < argc)
      DeadlineMs = static_cast<unsigned>(std::atoi(argv[++I]));
    else if (Arg == "--no-validate")
      NoValidate = true;
    else if (FlagParse F = parseToolFlag(argc, argv, I, {/*EngineBoth=*/true},
                                         Flags);
             F != FlagParse::NotMine) {
      if (F == FlagParse::Invalid)
        return usage(argv[0]);
    } else if (Arg == "--explain-cost")
      ExplainCost = true;
    else if (Arg == "--stats")
      Stats = true;
    else if (Arg == "--stats-json" && I + 1 < argc)
      StatsJsonPath = argv[++I];
    else if (Arg == "--no-transposes")
      Opts.EnableTransposes = false;
    else if (Arg == "--no-patterns")
      Opts.EnablePatterns = false;
    else if (Arg == "--no-reductions")
      Opts.EnableReductions = false;
    else if (Arg == "--no-reassociation")
      Opts.EnableReassociation = false;
    else if (Arg == "--no-normalize")
      Opts.NormalizeLoops = false;
    else if (Arg == "--distribute-transposes")
      Opts.DistributeTransposes = true;
    else if (Arg == "-h" || Arg == "--help")
      return usage(argv[0]);
    else if (!Arg.empty() && Arg[0] == '-' && Arg != "-")
      return usage(argv[0]);
    else if (InputPath.empty())
      InputPath = Arg;
    else
      return usage(argv[0]);
  }
  if (BatchDir.empty() == InputPath.empty())
    return usage(argv[0]);
  // "both" fans one validation out into three runs; the batch path keeps
  // one engine per service instead.
  if (Flags.Engine == "both" && !BatchDir.empty())
    return usage(argv[0]);
  // The decision log is a single-translation artifact; batch jobs go
  // through the (cost-fingerprinted) caches instead.
  if (ExplainCost && !BatchDir.empty())
    return usage(argv[0]);
  ExecEngine Engine = Flags.engine();

  std::unique_ptr<cost::CostModel> Model;
  if (Flags.CostModel == "on" || ExplainCost) {
    Model = loadToolCostModel(Flags.CostProfile, "warning");
    Opts.Cost = Model.get();
  }
  std::vector<cost::CostDecision> Decisions;
  if (ExplainCost)
    Opts.CostLog = &Decisions;

  if (!BatchDir.empty()) {
    PatternDatabase DB = makeDefaultPatternDatabase();
    for (const std::string &Plugin : Plugins) {
      std::string Error;
      if (!loadPatternPlugin(Plugin, DB, Error)) {
        std::fprintf(stderr, "error: plugin '%s': %s\n", Plugin.c_str(),
                     Error.c_str());
        return 1;
      }
    }
    DB.freeze();
    return runBatch(BatchDir, Opts, DB, Jobs, CacheEntries, DeadlineMs,
                    !NoValidate, Engine, Stats, StatsJsonPath);
  }

  // Read the input.
  std::string Source;
  if (InputPath == "-") {
    std::ostringstream Buf;
    Buf << std::cin.rdbuf();
    Source = Buf.str();
  } else {
    std::ifstream In(InputPath);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", InputPath.c_str());
      return 1;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Source = Buf.str();
  }

  // Assemble the pattern database.
  PatternDatabase DB = makeDefaultPatternDatabase();
  for (const std::string &Plugin : Plugins) {
    std::string Error;
    if (!loadPatternPlugin(Plugin, DB, Error)) {
      std::fprintf(stderr, "error: plugin '%s': %s\n", Plugin.c_str(),
                   Error.c_str());
      return 1;
    }
  }

  PipelineResult Result = vectorizeSource(Source, Opts, &DB);
  const std::string DisplayName = InputPath == "-" ? "<stdin>" : InputPath;
  if (Opts.EmitRemarks || !Result.succeeded())
    std::fprintf(stderr, "%s", Result.Diags.str(DisplayName).c_str());
  if (!Result.succeeded())
    return 1;

  std::fprintf(stderr,
               "%s: %u loop nest(s) seen, %u improved; %u statement(s) "
               "vectorized, %u left sequential\n",
               DisplayName.c_str(), Result.Stats.LoopNestsConsidered,
               Result.Stats.LoopNestsImproved, Result.Stats.StmtsVectorized,
               Result.Stats.StmtsSequential);
  if (ExplainCost) {
    if (Opts.Cost->profile().Calibrated)
      std::fprintf(stderr, "cost model: calibrated profile (simd %s)\n",
                   Opts.Cost->profile().SimdLevel.c_str());
    else
      std::fprintf(stderr, "cost model: built-in conservative profile\n");
    for (const cost::CostDecision &D : Decisions) {
      std::fprintf(stderr, "  line %u: %s\n", D.Line, D.Stmt.c_str());
      if (D.Vectorized)
        std::fprintf(stderr,
                     "    vectorized at level %u: vector ~%.0f ns vs loop "
                     "~%.0f ns%s (%s)\n",
                     D.ChosenLevel, D.VectorNs, D.LoopNs,
                     D.VariantOverride ? ", variant override" : "",
                     D.Detail.c_str());
      else
        std::fprintf(stderr,
                     "    kept loop form: vector ~%.0f ns vs loop ~%.0f ns "
                     "(%s)\n",
                     D.VectorNs, D.LoopNs, D.Detail.c_str());
    }
  }

  if (Validate) {
    RunLimits Limits;
    Limits.Engine = Engine;
    std::string Diff =
        diffRunLimited(Source, Result.VectorizedSource, Limits).Message;
    if (!Diff.empty()) {
      std::fprintf(stderr, "validation FAILED: %s\n", Diff.c_str());
      return 1;
    }
    std::fprintf(stderr, "validation: transformed program is semantically "
                         "equivalent\n");
  }
  if (Flags.Engine == "both") {
    // Cross-check the execution tiers on both programs: the tree-walker
    // and the bytecode VM must behave byte-identically.
    for (const auto &[What, Src] :
         {std::pair<const char *, const std::string &>{"original", Source},
          {"transformed", Result.VectorizedSource}}) {
      DiffOutcome Out = engineDiffRun(Src);
      if (Out.Status == DiffStatus::Mismatch) {
        std::fprintf(stderr, "engine cross-check FAILED on %s program: %s\n",
                     What, Out.Message.c_str());
        return 1;
      }
    }
    std::fprintf(stderr,
                 "engine cross-check: ast and vm tiers agree byte-for-byte\n");
  }

  if (OutputPath.empty()) {
    std::fputs(Result.VectorizedSource.c_str(), stdout);
  } else {
    std::ofstream Out(OutputPath);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", OutputPath.c_str());
      return 1;
    }
    Out << Result.VectorizedSource;
  }

  if (Run) {
    DiagnosticEngine Diags;
    ParseResult Parsed = parseMatlab(Result.VectorizedSource, Diags);
    Interpreter I;
    bool Ok;
    if (Engine == ExecEngine::Vm) {
      vm::CompiledProgram CP =
          vm::compileProgram(Parsed.Prog, Result.VectorizedSource);
      Ok = vm::execute(CP, I);
    } else {
      Ok = I.run(Parsed.Prog);
    }
    if (!Ok) {
      std::fprintf(stderr, "runtime error: %s\n", I.errorMessage().c_str());
      return 1;
    }
    std::fputs(I.output().c_str(), stdout);
  }
  return 0;
}
