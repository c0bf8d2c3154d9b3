//===- VectorizationService.h - Concurrent batch vectorization --*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service layer over the one-shot pipeline: many scripts in, many
/// results out, concurrently. A fixed worker pool fans vectorizeSource
/// (+ optional differential validation) out over submitted jobs; a
/// content-addressed LRU cache serves repeated submissions without
/// re-parsing; per-job deadlines and batch cancellation keep a runaway
/// interpreter run from wedging a worker; and a metrics registry counts
/// everything a dashboard would want.
///
/// Threading model: one shared frozen PatternDatabase (read-only during
/// serving), per-job DiagnosticEngine and interpreters (the pipeline is
/// re-entrant, see Pipeline.h), shared cache/metrics behind their own
/// synchronization. submit() may be called from any thread.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_SERVICE_VECTORIZATIONSERVICE_H
#define MVEC_SERVICE_VECTORIZATIONSERVICE_H

#include "driver/Pipeline.h"
#include "patterns/PatternDatabase.h"
#include "resilience/FaultInjection.h"
#include "resilience/Resilience.h"
#include "service/Job.h"
#include "service/ResultStore.h"
#include "service/ServiceMetrics.h"
#include "service/ThreadPool.h"
#include "support/LruCache.h"
#include "vectorizer/Options.h"

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <vector>

namespace mvec {

/// Packs every output-affecting VectorizerOptions toggle into a bitmask,
/// mixed with the cost model's calibration fingerprint when one is set.
/// New options must be added here, or distinct configurations would share
/// result-cache and DiskStore entries.
uint64_t optionsFingerprint(const VectorizerOptions &Opts);

/// The result-cache key for one job: an FNV-1a hash of the exact source
/// text combined with the options fingerprint and the validate flag, so
/// two submissions collide only when the pipeline would provably do
/// identical work.
uint64_t cacheKeyFor(const std::string &Source, const VectorizerOptions &Opts,
                     bool Validate);

/// The cache key for a full job spec: cacheKeyFor(Source, Opts, Validate)
/// with the validation bounds every job runs under (tolerance 1e-9, no
/// step budget, no annotation check) mixed in. The key picks the daemon
/// shard and names the DiskStore file, so the mixed-in words are part of
/// the on-disk format. Deadlines are deliberately excluded: they only
/// decide *whether* a result is produced, and failed results are never
/// cached.
uint64_t cacheKeyFor(const JobSpec &Spec);

struct ServiceConfig {
  /// Worker threads (clamped to >= 1).
  unsigned Workers = 4;
  /// Bounded submission queue; submit() blocks when full (back-pressure).
  size_t QueueCapacity = 64;
  /// Result-cache entries; 0 disables caching.
  size_t CacheCapacity = 256;
  /// Default per-job deadline (zero = no deadline). Individual jobs may
  /// override via JobSpec::Deadline.
  std::chrono::milliseconds DefaultDeadline{0};
  /// Pattern database to serve with; null uses the builtins (which the
  /// service builds and freezes itself). A caller-supplied database must
  /// outlive the service and must be fully registered — ideally frozen —
  /// before the first job is submitted (see PatternDatabase::freeze()).
  const PatternDatabase *DB = nullptr;
  /// Persistent second cache tier consulted on a memory-cache miss and
  /// written through on success (null = memory tier only). Must outlive
  /// the service and be callable from every worker concurrently; the
  /// daemon wires its on-disk DiskStore in here so warm results survive
  /// restarts.
  ResultStore *Store = nullptr;
  /// Retry policy and per-job memory budget.
  ResilienceConfig Resilience;
  /// Fault-injection plan armed for every job (null = disarmed). Must
  /// outlive the service. Testing/chaos-campaign hook; never set in
  /// production configurations.
  const FaultPlan *Faults = nullptr;
  /// Execution tier for the differential-validation runs: the classic
  /// tree-walker, or the register-bytecode VM (src/vm). Result-cache keys
  /// are salted with the engine so a verdict produced by one tier is
  /// never served as the other's.
  ExecEngine Engine = ExecEngine::Ast;
  /// Profitability cost model applied to every job that did not bring its
  /// own (null = vectorize whenever legal). Must outlive the service; its
  /// fingerprint salts every cache key through optionsFingerprint, so
  /// results computed under one calibration are never served under
  /// another.
  const cost::CostModel *Cost = nullptr;
  /// Where a cache miss runs. Empty (the default): here, on this
  /// service's threads, with retries and degradation. Set:
  /// each miss is handed to it instead, and what it returns is counted,
  /// cached and stored like a local result. The daemon's
  /// isolation=process shards point it at a sandbox::SandboxPool, which
  /// runs the same pipeline in a forked worker. Only what a MVEC/1
  /// request carries crosses (name, source, validate flag, deadline), so
  /// the jobs' other JobSpec fields must keep their defaults.
  std::function<JobResult(const JobSpec &)> ColdPath;
};

/// The cacheKeyFor key of \p Spec as its caller built it, given the spec
/// a service configured by \p Config runs: submit() folds Config.Cost
/// into a spec that brings no cost model, and this takes it back out.
/// The daemon routes on that key, and quarantine files are named by it.
uint64_t submittedKey(const JobSpec &Spec, const ServiceConfig &Config);

class VectorizationService {
public:
  explicit VectorizationService(ServiceConfig Config = {});
  /// Waits for in-flight jobs (drains the queue) before tearing down.
  ~VectorizationService();

  VectorizationService(const VectorizationService &) = delete;
  VectorizationService &operator=(const VectorizationService &) = delete;

  /// Enqueues one job; blocks while the submission queue is full. The
  /// future is fulfilled when the job reaches a terminal status (it never
  /// throws — all failures are folded into JobResult).
  std::future<JobResult> submit(JobSpec Spec);

  /// Convenience: submits every spec, waits for all of them, and returns
  /// results in submission order.
  std::vector<JobResult> runBatch(std::vector<JobSpec> Specs);

  /// Blocks until every job submitted so far has completed.
  void drain();

  /// Requests cancellation of everything in flight and everything queued.
  /// Running interpreter work stops at the next interrupt poll; queued
  /// jobs complete immediately as Cancelled. Cancellation is sticky until
  /// resetCancellation() — new submissions complete as Cancelled too.
  void cancelAll();
  void resetCancellation();

  const ServiceConfig &config() const { return Config; }
  ServiceMetrics &metrics() { return Metrics; }
  const ServiceMetrics &metrics() const { return Metrics; }

private:
  JobResult processJob(const JobSpec &Spec,
                       std::chrono::steady_clock::time_point SubmitTime);
  /// Per-attempt fault/governor scopes + retry with jittered backoff +
  /// graceful degradation, around executeUncached.
  JobResult
  executeWithResilience(const JobSpec &Spec,
                        std::chrono::steady_clock::time_point Start,
                        uint64_t JobSalt);
  JobResult executeUncached(const JobSpec &Spec,
                            std::chrono::steady_clock::time_point Start);

  ServiceConfig Config;
  /// Owns the database when the config did not supply one.
  PatternDatabase OwnedDB;
  const PatternDatabase *DB;
  /// Successful results by cacheKeyFor key. Failed results are never
  /// cached: a failure may be transient (deadline, cancellation), and
  /// re-attempting is cheap next to serving a wrong verdict forever.
  LruCache<uint64_t, JobResult> Cache;
  ServiceMetrics Metrics;
  std::atomic<bool> CancelRequested{false};
  /// Constructed last so workers never see a half-built service; the
  /// unique_ptr keeps teardown order explicit (reset first in ~).
  std::unique_ptr<ThreadPool> Pool;
};

} // namespace mvec

#endif // MVEC_SERVICE_VECTORIZATIONSERVICE_H
