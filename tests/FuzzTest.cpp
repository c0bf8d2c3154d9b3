//===- FuzzTest.cpp - Fuzzing subsystem unit tests -------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Units for the pieces of mvec::fuzz that the end-to-end fuzzer and the
/// PropertyTest sweeps build on: bit-stable generation and mutation,
/// verdict classification, bucket normalization, corpus persistence and
/// replay, and reducer convergence.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "fuzz/Corpus.h"
#include "fuzz/Generator.h"
#include "fuzz/Mutator.h"
#include "fuzz/Reducer.h"
#include "resilience/FaultInjection.h"

#include "gtest/gtest.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>

using namespace mvec;
using namespace mvec::fuzz;

namespace {

//===----------------------------------------------------------------------===//
// Generator
//===----------------------------------------------------------------------===//

TEST(FuzzGenerator, IdenticalSeedsProduceIdenticalPrograms) {
  for (uint64_t Seed = 0; Seed != 64; ++Seed) {
    GenProgram A = Generator(Seed).next();
    GenProgram B = Generator(Seed).next();
    EXPECT_EQ(A.Source, B.Source) << "seed " << Seed;
    EXPECT_EQ(A.Family, B.Family) << "seed " << Seed;
    EXPECT_EQ(A.ExpectVectorized, B.ExpectVectorized) << "seed " << Seed;
  }
}

TEST(FuzzGenerator, EveryFamilyParsesAndVectorizes) {
  for (unsigned Family = 0; Family != Generator::NumFamilies; ++Family) {
    for (uint64_t Seed = 0; Seed != 8; ++Seed) {
      GenProgram P = Generator(Seed).generate(Family);
      EXPECT_FALSE(P.Family.empty());
      PipelineResult R = vectorizeSource(P.Source);
      EXPECT_TRUE(R.succeeded())
          << "family " << P.Family << " seed " << Seed << "\n"
          << R.Diags.str() << "\n--- source ---\n"
          << P.Source;
    }
  }
}

TEST(FuzzGenerator, DistinctSeedsVaryThePrograms) {
  // Not a hard guarantee per pair, but across a window the generator
  // must not collapse to one program.
  std::set<std::string> Sources;
  for (uint64_t Seed = 0; Seed != 32; ++Seed)
    Sources.insert(Generator(Seed).next().Source);
  EXPECT_GT(Sources.size(), 16u);
}

//===----------------------------------------------------------------------===//
// Mutator
//===----------------------------------------------------------------------===//

TEST(FuzzMutator, IdenticalSeedsProduceIdenticalMutants) {
  std::string Base = Generator(11).next().Source;
  std::string Donor = Generator(12).next().Source;
  for (uint64_t Seed = 0; Seed != 32; ++Seed) {
    Mutant A = Mutator(Seed).mutate(Base, &Donor);
    Mutant B = Mutator(Seed).mutate(Base, &Donor);
    EXPECT_EQ(A.Source, B.Source) << "seed " << Seed;
    EXPECT_EQ(A.Trace, B.Trace) << "seed " << Seed;
  }
}

TEST(FuzzMutator, MutantsCarryATrace) {
  std::string Base = Generator(3).next().Source;
  unsigned Changed = 0;
  for (uint64_t Seed = 0; Seed != 16; ++Seed) {
    Mutant M = Mutator(Seed).mutate(Base);
    if (M.Source != Base) {
      ++Changed;
      EXPECT_FALSE(M.Trace.empty());
    }
  }
  // A generated loop nest offers plenty of mutation points.
  EXPECT_GT(Changed, 8u);
}

//===----------------------------------------------------------------------===//
// Verdict classification
//===----------------------------------------------------------------------===//

// The ClassifyJob cases feed classifyDiff the outcome of one candidate's
// differential run, as check() does.

TEST(FuzzOracle, ClassifyJobSuccessIsOk) {
  EXPECT_TRUE(Oracle::classifyDiff(DiffStatus::Match, "").ok());
}

TEST(FuzzOracle, ClassifyJobBlamesTheInputWhenTheOriginalFails) {
  Verdict V = Oracle::classifyDiff(
      DiffStatus::Error, "original program failed: subscript out of range");
  EXPECT_TRUE(V.rejected());
  // So is a slow original.
  EXPECT_TRUE(Oracle::classifyDiff(DiffStatus::TimedOut,
                                   "original program exceeded the deadline")
                  .rejected());
}

TEST(FuzzOracle, ClassifyJobMismatchBucketsOnTheDivergentVariable) {
  Verdict V = Oracle::classifyDiff(DiffStatus::Mismatch,
                                   "variable 's' differs: 1.5 vs 2.5");
  ASSERT_TRUE(V.isFinding());
  EXPECT_EQ(V.F.Kind, FindingKind::Mismatch);
  EXPECT_EQ(V.F.Bucket, "mismatch:var:s");

  Verdict Missing = Oracle::classifyDiff(
      DiffStatus::Mismatch, "variable 't' missing after transformation");
  ASSERT_TRUE(Missing.isFinding());
  EXPECT_EQ(Missing.F.Bucket, "mismatch:missing:t");
}

TEST(FuzzOracle, ClassifyJobTransformedFailuresAreFindings) {
  Verdict V = Oracle::classifyDiff(
      DiffStatus::Error,
      "transformed program failed: index 7 out of bounds");
  ASSERT_TRUE(V.isFinding());
  EXPECT_EQ(V.F.Kind, FindingKind::TransformedRunError);
  EXPECT_EQ(V.F.Bucket, "trun:index # out of bounds");
}

TEST(FuzzOracle, ClassifyJobHangs) {
  Verdict V = Oracle::classifyDiff(DiffStatus::TimedOut,
                                   "transformed program exceeded the deadline");
  ASSERT_TRUE(V.isFinding());
  EXPECT_EQ(V.F.Kind, FindingKind::Hang);
  EXPECT_EQ(V.F.Bucket, "hang:transformed");
}

/// Arms \p Kind at the entry of vectorizeSource on the calling thread
/// for as long as the returned guard lives.
struct ArmedVectorizeEntry {
  explicit ArmedVectorizeEntry(FaultKind Kind, unsigned LatencyMicros = 0)
      : Plan{/*Seed=*/1,
             {{FaultSite::VectorizeEntry, Kind, /*Period=*/1,
               /*MaxFires=*/0, LatencyMicros}}},
        Ctx(&Plan, /*Salt=*/0), Scope(&Ctx) {}
  FaultPlan Plan;
  FaultContext Ctx;
  FaultScope Scope;
};

const char *const AnnotatedLoop = "n = 8; x = rand(1,n); y = zeros(1,n);\n"
                                  "%! x(1,*) y(1,*) n(1)\n"
                                  "for i=1:n\n  y(i) = 2*x(i);\nend\n";

TEST(FuzzOracle, PipelineExceptionIsACrash) {
  OracleConfig Config;
  Config.Jobs = 1;
  Oracle O(Config);
  ArmedVectorizeEntry Armed(FaultKind::Exception);
  Verdict V = O.check(AnnotatedLoop, "unit");
  ASSERT_TRUE(V.isFinding());
  EXPECT_EQ(V.F.Kind, FindingKind::Crash);
  EXPECT_EQ(V.F.Bucket.rfind("crash:", 0), 0u) << V.F.Bucket;
  EXPECT_EQ(V.F.Message.rfind("internal error: ", 0), 0u) << V.F.Message;
  EXPECT_EQ(V.F.Source, AnnotatedLoop);
}

TEST(FuzzOracle, VectorizationPastTheDeadlineIsAHang) {
  // One clock bounds vectorization and validation; a vectorizer that
  // alone outlasts it is the hang:vectorize finding.
  OracleConfig Config;
  Config.Jobs = 1;
  Config.Deadline = std::chrono::milliseconds(5);
  Oracle O(Config);
  ArmedVectorizeEntry Armed(FaultKind::Latency, /*LatencyMicros=*/50000);
  Verdict V = O.check(AnnotatedLoop, "unit");
  ASSERT_TRUE(V.isFinding());
  EXPECT_EQ(V.F.Kind, FindingKind::Hang);
  EXPECT_EQ(V.F.Bucket, "hang:vectorize");
}

TEST(FuzzOracle, BatchAgreesWithCheck) {
  // Every candidate judged by checkBatch gets exactly check()'s verdict,
  // repeats (served by the ok-source cache) included. The cumulative
  // allocation program allocates 600 MiB in 1 MiB steps: over the
  // per-pair memory budget, so Rejected on both paths.
  std::vector<GenProgram> Candidates = {
      {AnnotatedLoop, "loop"},
      {"for k=1:600\n  x = zeros(1,131072);\nend\n", "cumulative-alloc"},
      {"for i=1:3\n  y(i) = i;\n", "parse-error"},
      {"x = [1 2 3];\ny = x(7);\n", "original-fails"},
      {AnnotatedLoop, "loop-repeat"},
  };
  for (uint64_t Seed = 1; Seed != 9; ++Seed)
    Candidates.push_back(Generator(Seed).next());
  Candidates.push_back(Candidates[1]);

  OracleConfig Config;
  Config.Jobs = 2;
  Oracle O(Config);
  std::vector<Verdict> Batch = O.checkBatch(Candidates);
  // A second batch is served from the ok-source cache where it can be.
  std::vector<Verdict> Again = O.checkBatch(Candidates);
  ASSERT_EQ(Batch.size(), Candidates.size());
  ASSERT_EQ(Again.size(), Candidates.size());
  for (size_t I = 0; I != Candidates.size(); ++I) {
    Verdict Want = O.check(Candidates[I].Source, Candidates[I].Family);
    for (const Verdict *Got : {&Batch[I], &Again[I]}) {
      EXPECT_EQ(int(Got->S), int(Want.S)) << Candidates[I].Family;
      EXPECT_EQ(Got->F.Bucket, Want.F.Bucket) << Candidates[I].Family;
    }
  }
  EXPECT_TRUE(Batch[0].ok());
  EXPECT_TRUE(Batch[1].rejected()) << "over the memory budget";
  EXPECT_TRUE(Batch[2].rejected());
  EXPECT_TRUE(Batch[3].rejected());
}

TEST(FuzzOracle, NormalizeForBucketStabilizesDigitsAndSpace) {
  EXPECT_EQ(Oracle::normalizeForBucket("index 123 of 456\n  out of range"),
            "index # of # out of range");
  EXPECT_EQ(Oracle::normalizeForBucket("  spaced   "), "spaced");
  // Long messages are capped so buckets stay short and stable.
  EXPECT_LE(Oracle::normalizeForBucket(std::string(400, 'x')).size(), 96u);
}

//===----------------------------------------------------------------------===//
// Corpus
//===----------------------------------------------------------------------===//

TEST(FuzzCorpus, RoundTripsEntriesThroughDisk) {
  std::filesystem::path Dir =
      std::filesystem::path(::testing::TempDir()) / "mvec-fuzz-corpus";
  std::filesystem::remove_all(Dir);

  Corpus C(Dir.string());
  EXPECT_EQ(C.load(), 0u); // missing directory = empty corpus

  Finding F;
  F.Kind = FindingKind::Mismatch;
  F.Bucket = "mismatch:var:s";
  F.Family = "reduction";
  std::string Path = C.add(F, "s = 1;\n");
  ASSERT_FALSE(Path.empty());
  // Same bucket again is a duplicate: nothing written.
  EXPECT_EQ(C.add(F, "s = 2;\n"), "");

  Corpus Reloaded(Dir.string());
  ASSERT_EQ(Reloaded.load(), 1u);
  const CorpusEntry &E = Reloaded.entries()[0];
  EXPECT_EQ(E.Bucket, "mismatch:var:s");
  EXPECT_EQ(E.Kind, FindingKind::Mismatch);
  EXPECT_FALSE(E.Fixed); // add() writes open entries
  EXPECT_TRUE(Reloaded.containsBucket("mismatch:var:s"));
  EXPECT_FALSE(Reloaded.containsBucket("mismatch:var:t"));

  std::filesystem::remove_all(Dir);
}

TEST(FuzzCorpus, SlugifyIsFilesystemSafe) {
  EXPECT_EQ(Corpus::slugify("mismatch:var:s"), "mismatch-var-s");
  EXPECT_EQ(Corpus::slugify("trun:index # out of bounds"),
            "trun-index-out-of-bounds");
  EXPECT_EQ(Corpus::slugify(""), "finding");
}

TEST(FuzzCorpus, ReplayFlagsRegressedFixedEntries) {
  std::filesystem::path Dir =
      std::filesystem::path(::testing::TempDir()) / "mvec-fuzz-replay";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);

  auto WriteEntry = [&](const std::string &Name, const std::string &Status,
                        const std::string &Body) {
    std::ofstream Out(Dir / (Name + ".m"));
    Out << "% fuzz-finding: kind=mismatch status=" << Status << "\n"
        << "% bucket: " << Name << "\n"
        << Body;
  };
  // A healthy fixed entry: runs and matches.
  WriteEntry("fixed-good", "fixed",
             "n = 3;\nx = rand(1,n);\nz = zeros(1,n);\n"
             "%! x(1,*) z(1,*) n(1)\nfor i=1:n\n  z(i) = x(i);\nend\n");
  // A rotten fixed entry: no longer a valid program.
  WriteEntry("fixed-rotten", "fixed", "for i=1:\n");
  // An open entry may keep failing without regressing.
  WriteEntry("open-known", "open", "for i=1:\n");

  Corpus C(Dir.string());
  ASSERT_EQ(C.load(), 3u);
  OracleConfig Config;
  Config.Jobs = 1;
  Oracle O(Config);
  std::vector<ReplayResult> Results = C.replay(O);
  ASSERT_EQ(Results.size(), 3u);
  for (const ReplayResult &R : Results) {
    if (R.Entry->Name == "fixed-good")
      EXPECT_FALSE(R.Regressed) << R.V.F.Message;
    else if (R.Entry->Name == "fixed-rotten")
      EXPECT_TRUE(R.Regressed);
    else
      EXPECT_FALSE(R.Regressed); // open entries never regress
  }

  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Reducer
//===----------------------------------------------------------------------===//

TEST(FuzzReducer, CountTokensIsStableUnderWhitespace) {
  EXPECT_EQ(countTokens("a = b + 1;"), countTokens("a=b+1;"));
  EXPECT_GT(countTokens("a = b + 1;"), countTokens("a = 1;"));
  EXPECT_EQ(countTokens(""), 0u);
}

TEST(FuzzReducer, ReturnsInputWhenPredicateDoesNotHold) {
  ReduceResult R = reduceProgram("a = 1;\n",
                                 [](const std::string &) { return false; });
  // One check establishes the input itself does not fail; nothing shrinks.
  EXPECT_EQ(R.Reduced, "a = 1;\n");
  EXPECT_EQ(R.ReducedTokens, R.OriginalTokens);
  EXPECT_LE(R.Checks, 1u);
}

TEST(FuzzReducer, ConvergesToAFractionOfTheInput) {
  // A bloated program whose "defect" is the lone statement mentioning
  // qq. The reducer must strip everything else (statements, loop
  // wrappers, annotations) while the predicate keeps holding.
  std::string Source = "%! aa(1,*) bb(1,*) cc(*,*) dd(1) qq(1)\n";
  Source += "aa = rand(1,9);\nbb = zeros(1,9);\ncc = rand(9,9);\n";
  for (int I = 1; I <= 6; ++I) {
    std::string N = std::to_string(I);
    Source += "dd = " + N + "*2+1;\n";
    Source += "bb(" + N + ") = aa(" + N + ")*dd;\n";
  }
  Source += "for i=1:9\n  bb(i) = aa(i)+cc(i,i);\nend\n";
  Source += "qq = 41+1;\n";
  Source += "for i=1:9\n  for j=1:9\n    cc(i,j) = aa(j)*bb(i);\n  end\n"
            "end\n";

  auto StillFails = [](const std::string &S) {
    return S.find("qq") != std::string::npos;
  };
  ASSERT_TRUE(StillFails(Source));

  ReduceResult R = reduceProgram(Source, StillFails);
  EXPECT_TRUE(StillFails(R.Reduced)) << R.Reduced;
  EXPECT_GT(R.Checks, 0u);
  // Convergence bar: at most 20% of the original tokens survive.
  EXPECT_LE(R.ReducedTokens * 5, R.OriginalTokens)
      << "reduced from " << R.OriginalTokens << " to " << R.ReducedTokens
      << " tokens:\n"
      << R.Reduced;
  // The reduced program is still a valid program (reduction candidates
  // are printed ASTs, so anything accepted parses).
  EXPECT_TRUE(vectorizeSource(R.Reduced).succeeded()) << R.Reduced;

  // And reduction is converged: a second pass finds nothing to shrink.
  ReduceResult Again = reduceProgram(R.Reduced, StillFails);
  EXPECT_EQ(Again.ReducedTokens, R.ReducedTokens) << Again.Reduced;
}

} // namespace
