//===- ServiceTest.cpp - Vectorization service tests ------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/VectorizationService.h"

#include "service/ThreadPool.h"
#include "support/LruCache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace mvec;

namespace {

/// A small annotated loop program the vectorizer fully handles.
std::string validScript(const std::string &Tag = "") {
  return "n = 8; x = rand(1,n); y = zeros(1,n);\n"
         "%! x(1,*) y(1,*) n(1)\n"
         "for i=1:n\n  y(i) = 2*x(i);\nend\n" +
         (Tag.empty() ? "" : "% " + Tag + "\n");
}

JobSpec makeSpec(std::string Name, std::string Source,
                 std::chrono::milliseconds Deadline = {}) {
  JobSpec Spec;
  Spec.Name = std::move(Name);
  Spec.Source = std::move(Source);
  Spec.Deadline = Deadline;
  return Spec;
}

TEST(ContentCacheTest, HashIsContentSensitive) {
  VectorizerOptions Opts;
  uint64_t Base = cacheKeyFor("a = 1;\n", Opts, true);
  EXPECT_NE(Base, cacheKeyFor("a = 2;\n", Opts, true));
  EXPECT_NE(Base, cacheKeyFor("a = 1;\n", Opts, false));
  VectorizerOptions NoPatterns = Opts;
  NoPatterns.EnablePatterns = false;
  EXPECT_NE(Base, cacheKeyFor("a = 1;\n", NoPatterns, true));
  EXPECT_EQ(Base, cacheKeyFor("a = 1;\n", Opts, true));
}

TEST(ContentCacheTest, SpecKeyFoldsExecutionBounds) {
  JobSpec Spec = makeSpec("k", "a = 1;\n");
  uint64_t Base = cacheKeyFor(Spec);
  // The fixed validation bounds are mixed in on top of the content key.
  EXPECT_NE(Base, cacheKeyFor(Spec.Source, Spec.Opts, Spec.Validate));
  // Deadlines only decide whether a result is produced; they must not
  // split the cache.
  JobSpec Hurried = Spec;
  Hurried.Deadline = std::chrono::milliseconds(5);
  EXPECT_EQ(Base, cacheKeyFor(Hurried));
  EXPECT_EQ(Base, cacheKeyFor(Spec));
}

TEST(ContentCacheTest, SpecKeyFormatIsPinned) {
  // The key picks a request's shard and names its DiskStore file, so a
  // change here orphans every stored result and reshuffles the shards.
  JobSpec Spec = makeSpec("k", "a = 1;\n");
  EXPECT_EQ(cacheKeyFor(Spec), 0xe885008a72703314ull);
  Spec.Validate = false;
  EXPECT_EQ(cacheKeyFor(Spec), 0x94194a769dd3efcdull);
}

// The service's result cache is an LruCache<uint64_t, JobResult>; these
// cases pin its eviction order, its disabled state and its locking.
TEST(ContentCacheTest, LRUEvictionAndRecency) {
  LruCache<uint64_t, JobResult> Cache(2);
  JobResult R;
  R.Status = JobStatus::Succeeded;
  R.VectorizedSource = "one";
  Cache.put(1, R);
  R.VectorizedSource = "two";
  Cache.put(2, R);
  // Touch key 1 so key 2 is the eviction victim.
  ASSERT_TRUE(Cache.get(1).has_value());
  R.VectorizedSource = "three";
  Cache.put(3, R);
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_TRUE(Cache.get(1).has_value());
  EXPECT_FALSE(Cache.get(2).has_value());
  EXPECT_TRUE(Cache.get(3).has_value());
  // Overwriting refreshes: key 1 becomes the most recent, so the next
  // insert evicts key 3 and the overwrite is what a lookup sees.
  R.VectorizedSource = "uno";
  Cache.put(1, R);
  R.VectorizedSource = "four";
  Cache.put(4, R);
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_FALSE(Cache.get(3).has_value());
  ASSERT_TRUE(Cache.get(1).has_value());
  EXPECT_EQ(Cache.get(1)->VectorizedSource, "uno");
}

TEST(ContentCacheTest, ZeroCapacityDisables) {
  LruCache<uint64_t, JobResult> Cache(0);
  JobResult R;
  R.Status = JobStatus::Succeeded;
  Cache.put(1, R);
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_FALSE(Cache.get(1).has_value());
}

// Concurrent get/put churn over a deliberately tiny cache, so lookups,
// inserts, refreshes and evictions interleave constantly. Run under TSan
// (the CI thread-sanitizer job builds this binary) this is the data-race
// check for the LRU list + index; in any build it verifies the bound holds
// and values never tear.
TEST(ContentCacheTest, ConcurrentChurnKeepsInvariants) {
  constexpr size_t Capacity = 8;
  constexpr int Threads = 8, Ops = 1998, KeySpace = 32;
  LruCache<uint64_t, JobResult> Cache(Capacity);
  std::vector<std::thread> Pool;
  for (int T = 0; T != Threads; ++T) {
    Pool.emplace_back([&Cache, T] {
      for (int I = 0; I != Ops; ++I) {
        uint64_t Key = static_cast<uint64_t>((T * 7 + I * 13) % KeySpace);
        if ((T + I) % 3 == 0) {
          JobResult R;
          R.Status = JobStatus::Succeeded;
          R.VectorizedSource = "v" + std::to_string(Key);
          Cache.put(Key, std::move(R));
        } else if (auto Hit = Cache.get(Key)) {
          // A hit must be a complete, untorn value for that key.
          EXPECT_EQ(Hit->VectorizedSource, "v" + std::to_string(Key));
          EXPECT_EQ(Hit->Status, JobStatus::Succeeded);
        }
      }
    });
  }
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(Cache.size(), Capacity) << "churn over 32 keys fills the cache";
}

TEST(ThreadPoolTest, RunsEverythingAndTracksHighWater) {
  ThreadPool Pool(2, 4);
  std::atomic<int> Ran{0};
  for (int I = 0; I != 32; ++I)
    ASSERT_TRUE(Pool.submit([&Ran] { Ran.fetch_add(1); }));
  Pool.drain();
  EXPECT_EQ(Ran.load(), 32);
  EXPECT_GE(Pool.queueHighWater(), 1u);
  EXPECT_LE(Pool.queueHighWater(), 4u);
  Pool.shutdown();
  EXPECT_FALSE(Pool.submit([] {}));
}

TEST(ServiceTest, SingleJobSucceeds) {
  VectorizationService Service;
  JobResult R = Service.submit(makeSpec("ok", validScript())).get();
  EXPECT_EQ(R.Status, JobStatus::Succeeded);
  EXPECT_TRUE(R.Message.empty()) << R.Message;
  EXPECT_NE(R.VectorizedSource.find("2*x"), std::string::npos)
      << R.VectorizedSource;
  EXPECT_GT(R.Stats.StmtsVectorized, 0u);
  EXPECT_FALSE(R.CacheHit);
}

// The acceptance scenario: a batch with a malformed script and a
// deadline-exceeding script still completes, those two report failed /
// timed_out, and every other job succeeds.
TEST(ServiceTest, MixedBatchIsolatesBadJobs) {
  ServiceConfig Config;
  Config.Workers = 4;
  VectorizationService Service(Config);

  std::vector<JobSpec> Specs;
  Specs.push_back(makeSpec("good1", validScript("one")));
  Specs.push_back(makeSpec("malformed", "for i=1:n\n  y(i) = x(i);\n"));
  // CPU-bound runaway: an unbounded loop the deadline must cut off.
  Specs.push_back(makeSpec("runaway",
                           "x = 0;\nwhile 1\n  x = x + 1;\nend\n",
                           std::chrono::milliseconds(200)));
  // Latency-bound runaway: a sleep the deadline must interrupt mid-wait.
  Specs.push_back(makeSpec("sleeper", "pause(30);\n",
                           std::chrono::milliseconds(100)));
  Specs.push_back(makeSpec("good2", validScript("two")));
  Specs.push_back(makeSpec("good3", validScript("three")));

  auto Start = std::chrono::steady_clock::now();
  std::vector<JobResult> Results = Service.runBatch(std::move(Specs));
  double Elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();

  ASSERT_EQ(Results.size(), 6u);
  EXPECT_EQ(Results[0].Status, JobStatus::Succeeded);
  EXPECT_EQ(Results[1].Status, JobStatus::Failed);
  EXPECT_NE(Results[1].Message.find("error"), std::string::npos)
      << Results[1].Message;
  EXPECT_EQ(Results[2].Status, JobStatus::TimedOut);
  EXPECT_EQ(Results[3].Status, JobStatus::TimedOut);
  EXPECT_EQ(Results[4].Status, JobStatus::Succeeded);
  EXPECT_EQ(Results[5].Status, JobStatus::Succeeded);
  // The runaways were cut off near their deadlines, not after 30 s.
  EXPECT_LT(Elapsed, 10.0);

  const ServiceMetrics &M = Service.metrics();
  EXPECT_EQ(M.JobsSubmitted.load(), 6u);
  EXPECT_EQ(M.JobsSucceeded.load(), 3u);
  EXPECT_EQ(M.JobsFailed.load(), 1u);
  EXPECT_EQ(M.JobsTimedOut.load(), 2u);
  EXPECT_EQ(M.jobsCompleted(), 6u);
}

TEST(ServiceTest, CacheServesResubmission) {
  ServiceConfig Config;
  Config.Workers = 1;
  VectorizationService Service(Config);

  JobResult First = Service.submit(makeSpec("a", validScript())).get();
  JobResult Second = Service.submit(makeSpec("a", validScript())).get();
  ASSERT_EQ(First.Status, JobStatus::Succeeded);
  ASSERT_EQ(Second.Status, JobStatus::Succeeded);
  EXPECT_FALSE(First.CacheHit);
  EXPECT_TRUE(Second.CacheHit);
  EXPECT_EQ(First.VectorizedSource, Second.VectorizedSource);
  EXPECT_EQ(Service.metrics().CacheHits.load(), 1u);
  EXPECT_EQ(Service.metrics().CacheMisses.load(), 1u);

  // Different options must not share the entry.
  JobSpec Other = makeSpec("a", validScript());
  Other.Opts.EnablePatterns = false;
  EXPECT_FALSE(Service.submit(std::move(Other)).get().CacheHit);
}

TEST(ServiceTest, FailuresAreNotCached) {
  ServiceConfig Config;
  Config.Workers = 1;
  VectorizationService Service(Config);
  std::string Bad = "for i=1:n\n";
  EXPECT_EQ(Service.submit(makeSpec("bad", Bad)).get().Status,
            JobStatus::Failed);
  JobResult Again = Service.submit(makeSpec("bad", Bad)).get();
  EXPECT_EQ(Again.Status, JobStatus::Failed);
  EXPECT_FALSE(Again.CacheHit);
  EXPECT_EQ(Service.metrics().CacheHits.load(), 0u);
}

TEST(ServiceTest, CancelAllStopsTheBatch) {
  ServiceConfig Config;
  Config.Workers = 2;
  VectorizationService Service(Config);

  std::vector<std::future<JobResult>> Futures;
  for (int I = 0; I != 4; ++I)
    Futures.push_back(
        Service.submit(makeSpec("sleep" + std::to_string(I), "pause(30);\n")));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Service.cancelAll();

  for (std::future<JobResult> &F : Futures)
    EXPECT_EQ(F.get().Status, JobStatus::Cancelled);
  EXPECT_EQ(Service.metrics().JobsCancelled.load(), 4u);
  Service.resetCancellation();
  EXPECT_EQ(Service.submit(makeSpec("after", validScript())).get().Status,
            JobStatus::Succeeded);
}

// N submitter threads x M scripts against a small worker pool and a small
// queue (forcing back-pressure). Run under -fsanitize=thread in CI.
TEST(ServiceTest, ConcurrentSubmissionStress) {
  ServiceConfig Config;
  Config.Workers = 4;
  Config.QueueCapacity = 8;
  Config.CacheCapacity = 16;
  VectorizationService Service(Config);

  constexpr int Submitters = 4;
  constexpr int PerThread = 25;
  std::atomic<int> Succeeded{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T != Submitters; ++T)
    Threads.emplace_back([&Service, &Succeeded, T] {
      for (int I = 0; I != PerThread; ++I) {
        // A mix of unique sources (cache misses) and repeats (hits).
        std::string Tag = I % 5 == 0 ? "shared" : std::to_string(T * 100 + I);
        JobResult R =
            Service.submit(makeSpec("job", validScript(Tag))).get();
        if (R.Status == JobStatus::Succeeded)
          Succeeded.fetch_add(1);
      }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Succeeded.load(), Submitters * PerThread);
  const ServiceMetrics &M = Service.metrics();
  EXPECT_EQ(M.JobsSubmitted.load(), uint64_t(Submitters * PerThread));
  EXPECT_EQ(M.jobsCompleted(), uint64_t(Submitters * PerThread));
  EXPECT_GT(M.CacheHits.load(), 0u);
}

TEST(ServiceTest, SharedNestsMatchSingleThreadedOutputConcurrently) {
  ServiceConfig Config;
  Config.Workers = 4;
  Config.QueueCapacity = 8;
  // Disable the whole-script cache so every job runs the pipeline, four
  // workers at a time (this test is the TSan coverage for concurrent
  // pipeline runs sharing the frozen pattern database).
  Config.CacheCapacity = 0;
  VectorizationService Service(Config);

  // Distinct source texts (no script-level dedup possible) that share one
  // loop nest, in two shape contexts: row vectors, and column vectors
  // whose vectorized form differs.
  auto ScriptFor = [](int T, int I) {
    std::string Tag = std::to_string(T * 100 + I);
    if (I % 2 == 0)
      return validScript(Tag);
    return "n = 8; x = rand(n,1); y = zeros(n,1);\n"
           "%! x(*,1) y(*,1) n(1)\n"
           "for i=1:n\n  y(i) = 2*x(i);\nend\n% " +
           Tag + "\n";
  };

  constexpr int Submitters = 4;
  constexpr int PerThread = 10;
  std::vector<std::vector<std::string>> Expected(Submitters);
  for (int T = 0; T != Submitters; ++T)
    for (int I = 0; I != PerThread; ++I) {
      PipelineResult P = vectorizeSource(ScriptFor(T, I));
      ASSERT_TRUE(P.succeeded()) << P.Diags.str();
      Expected[T].push_back(P.VectorizedSource);
    }
  ASSERT_NE(Expected[0][0], Expected[0][1]) << "the contexts must differ";

  std::atomic<int> Matched{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T != Submitters; ++T)
    Threads.emplace_back([&, T] {
      for (int I = 0; I != PerThread; ++I) {
        // Validation runs on every job, so a divergent rewrite would
        // surface as a failed job as well as a text mismatch.
        JobResult R =
            Service.submit(makeSpec("job", ScriptFor(T, I))).get();
        if (R.Status == JobStatus::Succeeded &&
            R.VectorizedSource == Expected[T][I])
          Matched.fetch_add(1);
      }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Matched.load(), Submitters * PerThread);
  EXPECT_EQ(Service.metrics().CacheHits.load(), 0u);
}

// Validation on the bytecode VM, four workers at a time, over scripts
// whose vectorized forms are the Table 2 sum-of-products and repmat
// patterns. Run under -fsanitize=thread in CI: this is the concurrency the
// VM sees in a vm-engine service.
TEST(ServiceTest, VmEngineJobsRunConcurrently) {
  ServiceConfig Config;
  Config.Workers = 4;
  Config.QueueCapacity = 8;
  Config.CacheCapacity = 0; // every job runs the pipeline and validation
  Config.Engine = ExecEngine::Vm;
  VectorizationService Service(Config);

  auto ScriptFor = [](int T, int I) {
    std::string Tag = "% " + std::to_string(T * 100 + I) + "\n";
    switch (I % 3) {
    case 0:
      return "n = 8; X = rand(n,n); Y = rand(n,n); a = zeros(1,n);\n"
             "%! X(*,*) Y(*,*) a(1,*) n(1)\n"
             "for i=1:n\n  a(i) = X(i,:)*Y(:,i);\nend\n" +
             Tag;
    case 1:
      return "m = 6; n = 5; B = rand(m,n); C = rand(m,1); A = zeros(m,n);\n"
             "%! A(*,*) B(*,*) C(*,1) m(1) n(1)\n"
             "for i=1:m\n for j=1:n\n  A(i,j) = B(i,j)+C(i);\n end\nend\n" +
             Tag;
    default:
      return validScript(Tag);
    }
  };

  constexpr int Submitters = 4;
  constexpr int PerThread = 9;
  std::vector<std::vector<std::string>> Expected(Submitters);
  for (int T = 0; T != Submitters; ++T)
    for (int I = 0; I != PerThread; ++I) {
      PipelineResult P = vectorizeSource(ScriptFor(T, I));
      ASSERT_TRUE(P.succeeded()) << P.Diags.str();
      Expected[T].push_back(P.VectorizedSource);
    }
  ASSERT_NE(Expected[0][0].find("sum("), std::string::npos) << Expected[0][0];
  ASSERT_NE(Expected[0][1].find("repmat("), std::string::npos)
      << Expected[0][1];

  std::atomic<int> Matched{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T != Submitters; ++T)
    Threads.emplace_back([&, T] {
      for (int I = 0; I != PerThread; ++I) {
        JobResult R = Service.submit(makeSpec("job", ScriptFor(T, I))).get();
        if (R.Status == JobStatus::Succeeded &&
            R.VectorizedSource == Expected[T][I])
          Matched.fetch_add(1);
      }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Matched.load(), Submitters * PerThread);
  EXPECT_EQ(Service.metrics().CacheHits.load(), 0u);
}

TEST(ServiceTest, MetricsDumpsAreWellFormed) {
  VectorizationService Service;
  Service.submit(makeSpec("ok", validScript())).get();
  Service.submit(makeSpec("bad", "for i=1:n\n")).get();

  std::string Text = Service.metrics().text();
  EXPECT_NE(Text.find("submitted=2"), std::string::npos) << Text;
  EXPECT_NE(Text.find("vectorize"), std::string::npos);

  std::string Json = Service.metrics().json();
  for (const char *Key :
       {"\"jobs\"", "\"submitted\"", "\"succeeded\"", "\"failed\"",
        "\"timed_out\"", "\"cancelled\"", "\"cache\"", "\"hits\"",
        "\"misses\"", "\"queue\"", "\"depth_high_water\"", "\"latency\"",
        "\"buckets_us\""})
    EXPECT_NE(Json.find(Key), std::string::npos) << Key << " missing in "
                                                 << Json;
}

TEST(LatencyHistogramTest, BucketsAndQuantiles) {
  LatencyHistogram H;
  H.record(0.000001); // ~1 us
  H.record(0.001);    // ~1 ms
  H.record(0.1);      // ~100 ms
  EXPECT_EQ(H.count(), 3u);
  EXPECT_GT(H.meanSeconds(), 0.0);
  EXPECT_LE(H.quantileSeconds(0.0), H.quantileSeconds(1.0));
  // p100 upper bound must cover the slowest sample.
  EXPECT_GE(H.quantileSeconds(1.0), 0.1);
}

} // namespace
