//===- ResilienceTest.cpp - Fault injection + resource governance tests ----===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for mvec::resilience and its integration through the stack:
/// deterministic fault schedules, backoff/breaker/governor units, the
/// parser/checker/evaluator depth guards, kernel deadline polling, the
/// thread-pool shutdown and exception-containment fixes, and the service's
/// retry/degradation behavior — including a randomized soak run that
/// holds every chaos result to its clean twin.
///
//===----------------------------------------------------------------------===//

#include "resilience/Backoff.h"
#include "resilience/CircuitBreaker.h"
#include "resilience/FaultInjection.h"
#include "resilience/ResourceGovernor.h"

#include "deps/LoopNest.h"
#include "driver/Pipeline.h"
#include "frontend/ASTPrinter.h"
#include "frontend/Parser.h"
#include "fuzz/Generator.h"
#include "interp/Interpreter.h"
#include "service/VectorizationService.h"
#include "shape/AnnotationParser.h"
#include "vectorizer/DimChecker.h"
#include "vm/Compiler.h"
#include "vm/Parity.h"
#include "vm/VM.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace mvec;

namespace {

//===----------------------------------------------------------------------===//
// Backoff
//===----------------------------------------------------------------------===//

TEST(BackoffTest, DeterministicInSeedAndRetry) {
  RetryPolicy P;
  EXPECT_EQ(backoffDelay(P, 1, 42).count(), backoffDelay(P, 1, 42).count());
  EXPECT_EQ(backoffDelay(P, 2, 42).count(), backoffDelay(P, 2, 42).count());
  // Different seeds should (for these particular values) jitter apart.
  EXPECT_NE(backoffDelay(P, 1, 42).count(), backoffDelay(P, 1, 43).count());
}

TEST(BackoffTest, GrowsAndStaysWithinBounds) {
  RetryPolicy P;
  auto CapUs = std::chrono::duration_cast<std::chrono::microseconds>(
                   P.MaxBackoff)
                   .count();
  for (unsigned Retry = 1; Retry <= 12; ++Retry) {
    auto D = backoffDelay(P, Retry, 7);
    EXPECT_GE(D.count(), 0);
    EXPECT_LE(D.count(), CapUs) << "retry " << Retry;
  }
  // Base 5ms doubling: retry 3's jitter band [10ms, 30ms] sits strictly
  // above retry 1's [2.5ms, 7.5ms].
  EXPECT_GT(backoffDelay(P, 3, 7).count(), backoffDelay(P, 1, 7).count());
}

//===----------------------------------------------------------------------===//
// CircuitBreaker
//===----------------------------------------------------------------------===//

TEST(CircuitBreakerTest, OpensShedsAndRecovers) {
  BreakerConfig Config;
  Config.FailureThreshold = 2;
  Config.Cooldown = std::chrono::milliseconds(50);
  CircuitBreaker B(Config);

  EXPECT_TRUE(B.allow());
  B.recordFailure();
  EXPECT_TRUE(B.allow());
  B.recordFailure();
  EXPECT_EQ(B.state(), CircuitBreaker::State::Open);
  EXPECT_FALSE(B.allow());
  EXPECT_FALSE(B.allow());
  EXPECT_EQ(B.shedCount(), 2u);

  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_TRUE(B.allow()); // the HalfOpen probe
  B.recordSuccess();
  EXPECT_EQ(B.state(), CircuitBreaker::State::Closed);
  EXPECT_TRUE(B.allow());
}

TEST(CircuitBreakerTest, FailedProbeReopens) {
  BreakerConfig Config;
  Config.FailureThreshold = 1;
  Config.Cooldown = std::chrono::milliseconds(30);
  CircuitBreaker B(Config);
  B.recordFailure();
  EXPECT_EQ(B.state(), CircuitBreaker::State::Open);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(B.allow());
  B.recordFailure();
  EXPECT_EQ(B.state(), CircuitBreaker::State::Open);
  EXPECT_FALSE(B.allow());
}

//===----------------------------------------------------------------------===//
// ResourceGovernor
//===----------------------------------------------------------------------===//

TEST(ResourceGovernorTest, ThrowsPastCapAndAccountsCumulatively) {
  ResourceGovernor G(1000);
  G.charge(400);
  G.charge(400);
  EXPECT_EQ(G.usedBytes(), 800u);
  EXPECT_THROW(G.charge(400), ResourceExhausted);
}

TEST(ResourceGovernorTest, ZeroCapOnlyAccounts) {
  ResourceGovernor G(0);
  G.charge(size_t(1) << 40);
  G.charge(12);
  EXPECT_EQ(G.usedBytes(), (size_t(1) << 40) + 12);
}

TEST(ResourceGovernorTest, ScopeArmsAndRestoresThreadLocal) {
  chargeMemory(1 << 30); // disarmed: a no-op
  ResourceGovernor G(100);
  {
    GovernorScope Scope(&G);
    chargeMemory(60);
    EXPECT_EQ(G.usedBytes(), 60u);
    EXPECT_THROW(chargeMemory(60), ResourceExhausted);
  }
  chargeMemory(1 << 30); // disarmed again
  EXPECT_EQ(G.usedBytes(), 120u);
}

//===----------------------------------------------------------------------===//
// FaultContext
//===----------------------------------------------------------------------===//

/// Fire pattern of \p Site over \p Crossings crossings under (plan, salt).
std::vector<bool> firePattern(const FaultPlan &Plan, uint64_t Salt,
                              FaultSite Site, unsigned Crossings) {
  FaultContext Ctx(&Plan, Salt);
  std::vector<bool> Fired;
  for (unsigned I = 0; I != Crossings; ++I) {
    try {
      Ctx.inject(Site);
      Fired.push_back(false);
    } catch (const InjectedFault &) {
      Fired.push_back(true);
    }
  }
  return Fired;
}

TEST(FaultContextTest, ScheduleIsDeterministicInPlanAndSalt) {
  FaultPlan Plan;
  Plan.Seed = 99;
  Plan.Rules.push_back({FaultSite::InterpStmt, FaultKind::Exception,
                        /*Period=*/3, /*MaxFires=*/0, /*LatencyMicros=*/0});
  auto A = firePattern(Plan, 7, FaultSite::InterpStmt, 200);
  auto B = firePattern(Plan, 7, FaultSite::InterpStmt, 200);
  EXPECT_EQ(A, B);
  unsigned Fires = 0;
  for (bool F : A)
    Fires += F;
  // Period 3 fires a hash-chosen ~third of crossings — never none, never
  // all, for any sane hash.
  EXPECT_GT(Fires, 0u);
  EXPECT_LT(Fires, 200u);
  // A different salt must not replay the same schedule.
  EXPECT_NE(A, firePattern(Plan, 8, FaultSite::InterpStmt, 200));
}

TEST(FaultContextTest, MaxFiresCapsAndAccounts) {
  FaultPlan Plan;
  Plan.Seed = 1;
  Plan.Rules.push_back({FaultSite::WorkerPickup, FaultKind::Exception,
                        /*Period=*/1, /*MaxFires=*/2, /*LatencyMicros=*/0});
  FaultContext Ctx(&Plan, 5);
  unsigned Fires = 0;
  for (unsigned I = 0; I != 50; ++I) {
    try {
      Ctx.inject(FaultSite::WorkerPickup);
    } catch (const InjectedFault &) {
      ++Fires;
    }
  }
  EXPECT_EQ(Fires, 2u);
  EXPECT_EQ(Ctx.totalFires(), 2u);
  EXPECT_EQ(Ctx.firesAt(FaultSite::WorkerPickup), 2u);
  EXPECT_EQ(Ctx.firesAt(FaultSite::ParseEntry), 0u);
}

TEST(FaultContextTest, DeadlineExpireSetsFlagWithoutThrowing) {
  FaultPlan Plan;
  Plan.Rules.push_back({FaultSite::ParseEntry, FaultKind::DeadlineExpire,
                        /*Period=*/1, /*MaxFires=*/0, /*LatencyMicros=*/0});
  FaultContext Ctx(&Plan, 0);
  EXPECT_FALSE(Ctx.deadlineForced());
  Ctx.inject(FaultSite::ParseEntry);
  EXPECT_TRUE(Ctx.deadlineForced());
  FaultScope Scope(&Ctx);
  EXPECT_TRUE(faultDeadlineForced());
}

TEST(FaultContextTest, SiteAndKindNamesRoundTrip) {
  for (unsigned S = 0; S != NumFaultSites; ++S) {
    FaultSite Site = static_cast<FaultSite>(S), Parsed;
    ASSERT_TRUE(faultSiteFromName(faultSiteName(Site), Parsed));
    EXPECT_EQ(Parsed, Site);
  }
  for (unsigned K = 0; K != NumFaultKinds; ++K) {
    FaultKind Kind = static_cast<FaultKind>(K), Parsed;
    ASSERT_TRUE(faultKindFromName(faultKindName(Kind), Parsed));
    EXPECT_EQ(Parsed, Kind);
  }
  FaultSite S;
  EXPECT_FALSE(faultSiteFromName("no-such-site", S));
}

//===----------------------------------------------------------------------===//
// Depth guards: parser, printer, dim checker, evaluator
//===----------------------------------------------------------------------===//

std::string parseError(const std::string &Source) {
  DiagnosticEngine Diags;
  ParseResult R = parseMatlab(Source, Diags);
  EXPECT_TRUE(Diags.hasErrors());
  return Diags.str();
}

TEST(DepthGuardTest, ParserSurvivesHundredThousandParens) {
  std::string Source =
      "x = " + std::string(100000, '(') + "1" + std::string(100000, ')') + ";";
  EXPECT_NE(parseError(Source).find("nesting exceeds"), std::string::npos);
}

TEST(DepthGuardTest, ParserSurvivesDeepUnaryChain) {
  std::string Source = "x = " + std::string(100000, '-') + "1;";
  EXPECT_NE(parseError(Source).find("nesting exceeds"), std::string::npos);
}

TEST(DepthGuardTest, ParserSurvivesHundredThousandTermChain) {
  // Left-leaning: without the per-iteration charge the parser would build
  // a 100k-deep BinaryExpr spine whose destructor alone overflows the
  // stack.
  std::string Source = "x = 1";
  for (int I = 0; I != 100000; ++I)
    Source += "+1";
  Source += ";";
  EXPECT_NE(parseError(Source).find("nesting exceeds"), std::string::npos);
}

TEST(DepthGuardTest, ParserSurvivesDeepStatementNesting) {
  std::string Source;
  for (int I = 0; I != 3000; ++I)
    Source += "if 1\n";
  Source += "x = 1;\n";
  for (int I = 0; I != 3000; ++I)
    Source += "end\n";
  EXPECT_NE(parseError(Source).find("nesting exceeds"), std::string::npos);
}

TEST(DepthGuardTest, ShallowNestingStillParses) {
  std::string Source = "x = " + std::string(200, '(') + "1" +
                       std::string(200, ')') + ";";
  DiagnosticEngine Diags;
  ParseResult R = parseMatlab(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  ASSERT_EQ(R.Prog.Stmts.size(), 1u);
}

/// A Depth-deep chain of unary minuses over variable \p Name, built
/// programmatically (the parser's own guard stops source-level inputs
/// before they get anywhere near this deep).
ExprPtr deepUnaryChain(const std::string &Name, unsigned Depth) {
  ExprPtr E = std::make_unique<IdentExpr>(Name);
  for (unsigned I = 0; I != Depth; ++I)
    E = std::make_unique<UnaryExpr>(UnaryOp::Minus, std::move(E));
  return E;
}

TEST(DepthGuardTest, PrinterTruncatesPathologicalDepth) {
  ExprPtr E = deepUnaryChain("t", 5000);
  std::string Out = printExpr(*E);
  EXPECT_FALSE(Out.empty()); // returned instead of overflowing the stack
}

TEST(DepthGuardTest, DimCheckerRefusesPathologicalDepth) {
  DiagnosticEngine Diags;
  ParseResult Parsed = parseMatlab("%! m(1) n(1)\n"
                                   "for i=1:m\n for j=1:n\n  t=0;\n end\nend\n",
                                   Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  ShapeEnv Env = parseShapeAnnotations(Parsed.Annotations, Diags);
  Env.setShape("t", Dimensionality::scalar());
  auto *Root = cast<ForStmt>(Parsed.Prog.Stmts[0].get());
  std::string Reason;
  std::optional<LoopNest> Nest = buildLoopNest(*Root, Reason);
  ASSERT_TRUE(Nest.has_value()) << Reason;
  PatternDatabase DB;
  registerBuiltinPatterns(DB);
  VectorizerOptions Opts;

  ExprPtr E = deepUnaryChain("t", 3000);
  DimChecker Checker(*Nest, 1, 2, Env, DB, Opts);
  EXPECT_FALSE(Checker.checkExpr(*E).has_value());
  EXPECT_NE(Checker.failureReason().find("depth"), std::string::npos);
}

TEST(DepthGuardTest, EvaluatorRefusesPathologicalDepth) {
  Program P;
  P.Stmts.push_back(std::make_unique<AssignStmt>(
      std::make_unique<IdentExpr>("x"), deepUnaryChain("y", 2500)));
  Interpreter Interp;
  Interp.setVariable("y", Value(1, 1, 1.0));
  EXPECT_FALSE(Interp.run(P));
  EXPECT_NE(Interp.errorMessage().find("depth"), std::string::npos);
}

/// y = 1; x = <Expr>, as built by a program generator (the parser caps
/// nesting far below the evaluator limit).
Program deepAssignment(ExprPtr Expr, bool DefineY = true) {
  Program P;
  if (DefineY)
    P.Stmts.push_back(std::make_unique<AssignStmt>(
        std::make_unique<IdentExpr>("y"), std::make_unique<NumberExpr>(1.0)));
  P.Stmts.push_back(std::make_unique<AssignStmt>(
      std::make_unique<IdentExpr>("x"), std::move(Expr)));
  return P;
}

TEST(DepthGuardTest, EnginesAgreeAtPathologicalDepth) {
  // The VM compiler counts nesting in the walker's eval() frames: past
  // the limit both engines fail at the same node with the same message,
  // and the compiler's recursion stops there instead of overflowing.
  for (unsigned Depth : {2500u, 20000u}) {
    Program P = deepAssignment(deepUnaryChain("y", Depth));
    DiffOutcome Out = engineDiffRun(P);
    EXPECT_TRUE(Out.agreed()) << Depth << ": " << Out.Message;
    Interpreter Vm;
    vm::CompiledProgram CP = vm::compileProgram(P, "deep");
    EXPECT_FALSE(vm::execute(CP, Vm)) << Depth;
    EXPECT_EQ(Vm.errorMessage(), Interpreter::EvalDepthMessage) << Depth;
    EXPECT_EQ(Vm.getVariable("x"), nullptr) << Depth;
  }
  // Exactly at the limit the innermost operand is read without a frame
  // when it is a defined variable, and fails the depth check when not.
  for (bool DefineY : {true, false}) {
    Program P = deepAssignment(
        deepUnaryChain("y", Interpreter::MaxEvalDepth), DefineY);
    DiffOutcome Out = engineDiffRun(P);
    EXPECT_TRUE(Out.agreed()) << DefineY << ": " << Out.Message;
    Interpreter Ast;
    EXPECT_EQ(Ast.run(P), DefineY) << Ast.errorMessage();
    if (!DefineY)
      EXPECT_EQ(Ast.errorMessage(), Interpreter::EvalDepthMessage);
  }
  // A left-nested binary chain: its right operands are variable reads.
  ExprPtr Chain = std::make_unique<IdentExpr>("y");
  for (unsigned I = 1; I != 2500; ++I)
    Chain = std::make_unique<BinaryExpr>(BinaryOp::Add, std::move(Chain),
                                         std::make_unique<IdentExpr>("y"));
  Program P = deepAssignment(std::move(Chain));
  DiffOutcome Out = engineDiffRun(P);
  EXPECT_TRUE(Out.agreed()) << Out.Message;
}

//===----------------------------------------------------------------------===//
// Kernel deadline polling
//===----------------------------------------------------------------------===//

TEST(KernelPollTest, ForcedDeadlineInterruptsLongMatmul) {
  // 200x200 matmul accumulates ~40k multiply-adds per result column —
  // past the poll grain — so an armed KernelPoll/DeadlineExpire rule
  // fires inside the kernel, deterministically, on the first chunk.
  DiagnosticEngine Diags;
  ParseResult R = parseMatlab("a = rand(200,200);\nb = a*a;\n", Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();

  FaultPlan Plan;
  Plan.Rules.push_back({FaultSite::KernelPoll, FaultKind::DeadlineExpire,
                        /*Period=*/1, /*MaxFires=*/0, /*LatencyMicros=*/0});
  FaultContext Ctx(&Plan, 0);
  FaultScope Scope(&Ctx);
  Interpreter Interp;
  EXPECT_FALSE(Interp.run(R.Prog));
  EXPECT_EQ(Interp.interruptKind(), Interpreter::InterruptKind::Deadline);
}

TEST(KernelPollTest, DisarmedRunStillSucceeds) {
  DiagnosticEngine Diags;
  ParseResult R = parseMatlab("a = rand(200,200);\nb = a*a;\n", Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  Interpreter Interp;
  EXPECT_TRUE(Interp.run(R.Prog)) << Interp.errorMessage();
}

//===----------------------------------------------------------------------===//
// ThreadPool: shutdown race + exception containment
//===----------------------------------------------------------------------===//

TEST(ThreadPoolResilienceTest, ConcurrentShutdownIsSafeAndRunsEverything) {
  for (int Round = 0; Round != 20; ++Round) {
    ThreadPool Pool(4, 128);
    std::atomic<int> Ran{0};
    for (int I = 0; I != 100; ++I)
      ASSERT_TRUE(Pool.submit([&Ran] { ++Ran; }));
    std::thread A([&Pool] { Pool.shutdown(); });
    std::thread B([&Pool] { Pool.shutdown(); });
    A.join();
    B.join();
    // Queued work drains before the workers exit: every task ran exactly
    // once even with two racing shutdowns.
    EXPECT_EQ(Ran.load(), 100);
  }
}

TEST(ThreadPoolResilienceTest, ThrowingTaskDoesNotKillWorker) {
  ThreadPool Pool(1, 8);
  ASSERT_TRUE(Pool.submit([] { throw std::runtime_error("boom"); }));
  std::atomic<bool> Ran{false};
  ASSERT_TRUE(Pool.submit([&Ran] { Ran = true; }));
  Pool.drain();
  EXPECT_TRUE(Ran.load());
  EXPECT_EQ(Pool.taskFaults(), 1u);
}

//===----------------------------------------------------------------------===//
// Service: degradation, retry, governor
//===----------------------------------------------------------------------===//

std::string validScript() {
  return "n = 8; x = rand(1,n); y = zeros(1,n);\n"
         "%! x(1,*) y(1,*) n(1)\n"
         "for i=1:n\n  y(i) = 2*x(i);\nend\n";
}

JobSpec makeSpec(std::string Name, std::string Source) {
  JobSpec Spec;
  Spec.Name = std::move(Name);
  Spec.Source = std::move(Source);
  return Spec;
}

TEST(ServiceResilienceTest, PersistentFaultDegradesToVerbatimPassthrough) {
  FaultPlan Plan;
  Plan.Rules.push_back({FaultSite::WorkerPickup, FaultKind::Exception,
                        /*Period=*/1, /*MaxFires=*/0, /*LatencyMicros=*/0});
  ServiceConfig Config;
  Config.Workers = 2;
  Config.Faults = &Plan;
  Config.Resilience.Retry.InitialBackoff = std::chrono::milliseconds(1);
  VectorizationService Service(Config);

  std::string Source = validScript();
  JobResult R = Service.submit(makeSpec("degrade", Source)).get();
  EXPECT_EQ(R.Status, JobStatus::Degraded);
  EXPECT_EQ(R.VectorizedSource, Source); // byte-exact passthrough
  EXPECT_EQ(R.Class, ErrorClass::Internal);
  EXPECT_EQ(R.Attempts, Config.Resilience.Retry.MaxAttempts);
  EXPECT_EQ(R.Message.rfind("degraded: ", 0), 0u) << R.Message;
  EXPECT_EQ(Service.metrics().JobsDegraded.load(), 1u);
  EXPECT_EQ(Service.metrics().Retries.load(), 2u);
}

TEST(ServiceResilienceTest, TransientFaultIsRetriedToSuccess) {
  // Find a plan seed whose schedule fires the WorkerPickup rule on the
  // job's first attempt but not its second (the schedule is a pure
  // function of (seed, salt), so we can probe it up front with the same
  // salts the service derives: cache key + attempt number).
  JobSpec Probe = makeSpec("retry", validScript());
  uint64_t Key = cacheKeyFor(Probe);
  FaultPlan Plan;
  Plan.Rules.push_back({FaultSite::WorkerPickup, FaultKind::Exception,
                        /*Period=*/2, /*MaxFires=*/0, /*LatencyMicros=*/0});
  auto attemptFires = [&](uint64_t Seed, unsigned Attempt) -> bool {
    Plan.Seed = Seed;
    // Deduced return must be bool, not vector<bool>'s proxy reference
    // into the destroyed temporary.
    std::vector<bool> Fired =
        firePattern(Plan, Key + Attempt, FaultSite::WorkerPickup, 1);
    return Fired[0];
  };
  uint64_t Seed = 0;
  for (uint64_t S = 1; S != 256; ++S) {
    if (attemptFires(S, 1) && !attemptFires(S, 2)) {
      Seed = S;
      break;
    }
  }
  ASSERT_NE(Seed, 0u) << "no seed fires attempt 1 only; hash is degenerate";
  Plan.Seed = Seed;

  ServiceConfig Config;
  Config.Workers = 1;
  Config.Faults = &Plan;
  Config.Resilience.Retry.InitialBackoff = std::chrono::milliseconds(1);
  VectorizationService Service(Config);
  JobResult R = Service.submit(std::move(Probe)).get();
  EXPECT_TRUE(R.succeeded()) << R.Message;
  EXPECT_EQ(R.Attempts, 2u);
  EXPECT_EQ(Service.metrics().Retries.load(), 1u);
}

TEST(ServiceResilienceTest, MemoryBudgetClassifiesAsResource) {
  ServiceConfig Config;
  Config.Workers = 1;
  Config.Resilience.MaxJobBytes = 1 << 20; // 1 MiB
  VectorizationService Service(Config);
  // 600x600 doubles = ~2.9 MiB allocated during validation.
  JobResult R =
      Service.submit(makeSpec("hog", "a = zeros(600,600);\n")).get();
  EXPECT_EQ(R.Status, JobStatus::Degraded);
  EXPECT_EQ(R.Class, ErrorClass::Resource);
  EXPECT_EQ(R.Attempts, 1u); // Resource failures are deterministic: no retry
  EXPECT_NE(R.Message.find("memory budget exceeded"), std::string::npos);
  EXPECT_EQ(R.VectorizedSource, "a = zeros(600,600);\n");
}

TEST(ServiceResilienceTest, SharedFullExtentReadStillChargesItsCopy) {
  // B = A(1:n,:) shares A's payload instead of copying it, but charges the
  // bytes the copy would have allocated, so the budget verdict is the
  // copy's. Validation runs each program twice: the control job (a plain
  // assignment, which never charged) allocates ~1.4 MB, the shared read
  // ~2.9 MB, against a 2 MiB cap.
  ServiceConfig Config;
  Config.Workers = 1;
  Config.CacheCapacity = 0;
  Config.Resilience.MaxJobBytes = 2 << 20;
  VectorizationService Service(Config);
  JobResult Control =
      Service.submit(makeSpec("alias", "n = 300;\nA = zeros(n,n);\nB = A;\n"))
          .get();
  EXPECT_TRUE(Control.succeeded()) << Control.Message;
  const std::string Source = "n = 300;\nA = zeros(n,n);\nB = A(1:n,:);\n";
  JobResult R = Service.submit(makeSpec("share", Source)).get();
  EXPECT_EQ(R.Status, JobStatus::Degraded);
  EXPECT_EQ(R.Class, ErrorClass::Resource);
  EXPECT_NE(R.Message.find("memory budget exceeded"), std::string::npos);
  EXPECT_EQ(R.VectorizedSource, Source);
}

TEST(ServiceResilienceTest, SteppedTransposedViewStillChargesItsCopies) {
  // B = A(1:2:end,:)' is two O(1) views of A, but each charges the copy it
  // stands for (the subscript when made, the transpose when the store
  // materializes it), so the budget verdict is the copies': ~2.9 MB over
  // the two validation runs against a 2 MiB cap, where the views alone
  // would fit.
  ServiceConfig Config;
  Config.Workers = 1;
  Config.CacheCapacity = 0;
  Config.Resilience.MaxJobBytes = 2 << 20;
  VectorizationService Service(Config);
  const std::string Source = "n = 300;\nA = zeros(n,n);\nB = A(1:2:end,:)';\n";
  JobResult R = Service.submit(makeSpec("view", Source)).get();
  EXPECT_EQ(R.Status, JobStatus::Degraded);
  EXPECT_EQ(R.Class, ErrorClass::Resource);
  EXPECT_NE(R.Message.find("memory budget exceeded"), std::string::npos);
  EXPECT_EQ(R.VectorizedSource, Source);
}

TEST(ServiceResilienceTest, ForcedDeadlineBecomesTimedOut) {
  FaultPlan Plan;
  Plan.Rules.push_back({FaultSite::WorkerPickup, FaultKind::DeadlineExpire,
                        /*Period=*/1, /*MaxFires=*/0, /*LatencyMicros=*/0});
  ServiceConfig Config;
  Config.Workers = 1;
  Config.Faults = &Plan;
  VectorizationService Service(Config);
  JobResult R = Service.submit(makeSpec("late", validScript())).get();
  EXPECT_EQ(R.Status, JobStatus::TimedOut);
  EXPECT_EQ(R.Class, ErrorClass::Deadline);
  EXPECT_EQ(R.Attempts, 1u); // deadlines are not retried
}

TEST(ServiceResilienceTest, CacheInsertFaultDoesNotFailTheJob) {
  FaultPlan Plan;
  Plan.Rules.push_back({FaultSite::CacheInsert, FaultKind::Exception,
                        /*Period=*/1, /*MaxFires=*/0, /*LatencyMicros=*/0});
  ServiceConfig Config;
  Config.Workers = 1;
  Config.Faults = &Plan;
  VectorizationService Service(Config);
  JobResult R = Service.submit(makeSpec("c", validScript())).get();
  EXPECT_TRUE(R.succeeded()) << R.Message;
  // The insert was suppressed, so a resubmission is a cache miss.
  JobResult R2 = Service.submit(makeSpec("c", validScript())).get();
  EXPECT_TRUE(R2.succeeded());
  EXPECT_FALSE(R2.CacheHit);
}

TEST(ServiceResilienceTest, DestructionResolvesEveryFuture) {
  std::vector<std::future<JobResult>> Futures;
  {
    ServiceConfig Config;
    Config.Workers = 2;
    VectorizationService Service(Config);
    for (int I = 0; I != 20; ++I)
      Futures.push_back(
          Service.submit(makeSpec("f" + std::to_string(I), validScript())));
  }
  for (std::future<JobResult> &F : Futures) {
    // get() must not throw broken_promise or hang: destruction drains the
    // queue, so every job reached a terminal status.
    JobResult R = F.get();
    EXPECT_STRNE(jobStatusName(R.Status), "unknown");
  }
}

//===----------------------------------------------------------------------===//
// Soak: generated programs under a chaos plan, clean twins as judge
//===----------------------------------------------------------------------===//

TEST(ResilienceSoakTest, ChaosPlanNeverCorruptsResults) {
  // Arm every site with every kind except DeadlineExpire (which makes
  // TimedOut an expected outcome). The invariant under chaos: injection
  // may slow a job or degrade it to passthrough, but any result it does
  // not degrade is the clean run's result, byte for byte.
  FaultPlan Plan;
  Plan.Seed = 2026;
  for (unsigned S = 0; S != NumFaultSites; ++S)
    for (FaultKind Kind :
         {FaultKind::BadAlloc, FaultKind::Exception, FaultKind::Latency})
      Plan.Rules.push_back({static_cast<FaultSite>(S), Kind, /*Period=*/3,
                            /*MaxFires=*/2, /*LatencyMicros=*/100});

  std::vector<JobSpec> Specs;
  for (uint64_t I = 0; I != 120; ++I) {
    fuzz::GenProgram P = fuzz::Generator(1000 + I).next();
    Specs.push_back(
        makeSpec("soak" + std::to_string(I), std::move(P.Source)));
  }

  auto runAll = [&](const FaultPlan *Faults) {
    ServiceConfig Config;
    Config.Workers = 4;
    Config.Faults = Faults;
    Config.Resilience.Retry.InitialBackoff = std::chrono::milliseconds(1);
    VectorizationService Service(Config);
    return Service.runBatch(Specs);
  };
  std::vector<JobResult> Clean = runAll(nullptr);
  std::vector<JobResult> Chaos = runAll(&Plan);
  ASSERT_EQ(Clean.size(), Chaos.size());

  for (size_t I = 0; I != Chaos.size(); ++I) {
    const JobResult &R = Chaos[I];
    if (R.Status == JobStatus::Degraded) {
      EXPECT_EQ(R.VectorizedSource, Specs[I].Source) << R.Name;
      EXPECT_NE(R.Class, ErrorClass::None) << R.Name;
      EXPECT_FALSE(R.Message.empty()) << R.Name;
      continue;
    }
    const JobResult &Twin = Clean[I];
    EXPECT_EQ(R.Status, Twin.Status) << R.Name << ": " << R.Message;
    EXPECT_EQ(R.Class, Twin.Class) << R.Name << ": " << R.Message;
    EXPECT_EQ(R.VectorizedSource, Twin.VectorizedSource) << R.Name;
  }
}

} // namespace
