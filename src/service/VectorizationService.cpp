//===- VectorizationService.cpp - Concurrent batch vectorization ------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/VectorizationService.h"

#include "cost/CostModel.h"
#include "driver/Pipeline.h"
#include "resilience/ResourceGovernor.h"
#include "support/ContentHash.h"

#include <bit>
#include <optional>
#include <thread>

using namespace mvec;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start, Clock::time_point End) {
  return std::chrono::duration<double>(End - Start).count();
}

} // namespace

uint64_t mvec::optionsFingerprint(const VectorizerOptions &Opts) {
  uint64_t Bits = 0;
  auto Pack = [&Bits](bool Flag) { Bits = (Bits << 1) | (Flag ? 1 : 0); };
  Pack(Opts.EnableTransposes);
  Pack(Opts.EnablePatterns);
  Pack(Opts.EnableReductions);
  Pack(Opts.EnableReassociation);
  Pack(Opts.NormalizeLoops);
  Pack(Opts.DistributeTransposes);
  Pack(Opts.EmitRemarks);
  // An active cost model changes which form a nest compiles to, so its
  // calibration fingerprint (profile checksum + SIMD level) becomes part
  // of the options identity: the result cache and the daemon DiskStore
  // must never serve a result produced under a different calibration.
  Pack(Opts.Cost != nullptr);
  if (Opts.Cost)
    Bits = fnv1aMix(Opts.Cost->fingerprint(), Bits);
  return Bits;
}

uint64_t mvec::cacheKeyFor(const std::string &Source,
                           const VectorizerOptions &Opts, bool Validate) {
  uint64_t Key = fnv1aHash(Source);
  // Fold the configuration in through one more FNV round per byte so a
  // toggle flip never cancels against a source edit.
  uint64_t Config = (optionsFingerprint(Opts) << 1) | (Validate ? 1 : 0);
  return fnv1aMix(Config, Key);
}

uint64_t mvec::cacheKeyFor(const JobSpec &Spec) {
  uint64_t Key = cacheKeyFor(Spec.Source, Spec.Opts, Spec.Validate);
  // The validation bounds every job runs under: tolerance 1e-9, no step
  // budget, no annotation check.
  constexpr double ValidateTol = 1e-9;
  for (uint64_t Word : {std::bit_cast<uint64_t>(ValidateTol), uint64_t(0),
                        uint64_t(0)})
    Key = fnv1aMix(Word, Key);
  return Key;
}

uint64_t mvec::submittedKey(const JobSpec &Spec, const ServiceConfig &Config) {
  if (!Config.Cost || Spec.Opts.Cost != Config.Cost)
    return cacheKeyFor(Spec);
  JobSpec Submitted = Spec;
  Submitted.Opts.Cost = nullptr;
  return cacheKeyFor(Submitted);
}

const char *mvec::jobStatusName(JobStatus Status) {
  switch (Status) {
  case JobStatus::Succeeded:
    return "succeeded";
  case JobStatus::Failed:
    return "failed";
  case JobStatus::TimedOut:
    return "timed_out";
  case JobStatus::Cancelled:
    return "cancelled";
  case JobStatus::Degraded:
    return "degraded";
  }
  return "unknown";
}

bool mvec::parseJobStatus(const std::string &Name, JobStatus &Status) {
  for (JobStatus S : {JobStatus::Succeeded, JobStatus::Failed,
                      JobStatus::TimedOut, JobStatus::Cancelled,
                      JobStatus::Degraded}) {
    if (Name == jobStatusName(S)) {
      Status = S;
      return true;
    }
  }
  return false;
}

VectorizationService::VectorizationService(ServiceConfig Config)
    : Config(Config), Cache(Config.CacheCapacity) {
  if (Config.DB) {
    DB = Config.DB;
  } else {
    registerBuiltinPatterns(OwnedDB);
    OwnedDB.freeze();
    DB = &OwnedDB;
  }
  Pool = std::make_unique<ThreadPool>(Config.Workers, Config.QueueCapacity);
}

VectorizationService::~VectorizationService() {
  // Runs everything already queued (fulfilling every future), then joins.
  Pool.reset();
}

std::future<JobResult> VectorizationService::submit(JobSpec Spec) {
  // Service-wide cost model, unless the job brought its own. Applied
  // before anything hashes the spec: the model's fingerprint is part of
  // the options fingerprint and therefore of every cache key.
  // submittedKey() undoes this fold.
  if (!Spec.Opts.Cost && Config.Cost)
    Spec.Opts.Cost = Config.Cost;
  Metrics.JobsSubmitted.fetch_add(1, std::memory_order_relaxed);
  Clock::time_point SubmitTime = Clock::now();
  auto Promise = std::make_shared<std::promise<JobResult>>();
  std::future<JobResult> Future = Promise->get_future();
  std::string Name = Spec.Name;
  bool Accepted = Pool->submit(
      [this, Promise, Spec = std::move(Spec), SubmitTime]() mutable {
        // The promise MUST resolve no matter what processJob does: a
        // dropped promise turns the caller's future.get() into a hang (or
        // broken_promise), and an escaping exception would previously have
        // killed the worker via std::terminate.
        JobResult R;
        try {
          R = processJob(Spec, SubmitTime);
        } catch (const std::exception &E) {
          R.Name = Spec.Name;
          R.Status = JobStatus::Failed;
          R.Class = ErrorClass::Internal;
          R.Message = std::string("internal error: ") + E.what();
          Metrics.JobsFailed.fetch_add(1, std::memory_order_relaxed);
        } catch (...) {
          R.Name = Spec.Name;
          R.Status = JobStatus::Failed;
          R.Class = ErrorClass::Internal;
          R.Message = "internal error: unknown exception";
          Metrics.JobsFailed.fetch_add(1, std::memory_order_relaxed);
        }
        Promise->set_value(std::move(R));
      });
  Metrics.noteQueueDepth(Pool->queueHighWater());
  if (!Accepted) {
    JobResult R;
    R.Name = std::move(Name);
    R.Status = JobStatus::Cancelled;
    R.Message = "service is shutting down";
    Metrics.JobsCancelled.fetch_add(1, std::memory_order_relaxed);
    Promise->set_value(std::move(R));
  }
  return Future;
}

std::vector<JobResult> VectorizationService::runBatch(
    std::vector<JobSpec> Specs) {
  std::vector<std::future<JobResult>> Futures;
  Futures.reserve(Specs.size());
  for (JobSpec &Spec : Specs)
    Futures.push_back(submit(std::move(Spec)));
  std::vector<JobResult> Results;
  Results.reserve(Futures.size());
  for (std::future<JobResult> &F : Futures)
    Results.push_back(F.get());
  return Results;
}

void VectorizationService::drain() { Pool->drain(); }

void VectorizationService::cancelAll() {
  CancelRequested.store(true, std::memory_order_relaxed);
}

void VectorizationService::resetCancellation() {
  CancelRequested.store(false, std::memory_order_relaxed);
}

JobResult VectorizationService::processJob(const JobSpec &Spec,
                                           Clock::time_point SubmitTime) {
  Clock::time_point Start = Clock::now();
  double QueueSeconds = secondsSince(SubmitTime, Start);
  Metrics.QueueLatency.record(QueueSeconds);

  JobResult R;
  // Job salt: same spec -> same salt -> the same fault plan replays the
  // same schedule for the same job, which is what makes campaign failures
  // reproducible in isolation.
  const uint64_t Key = cacheKeyFor(Spec);
  auto RunMiss = [&] {
    return Config.ColdPath ? Config.ColdPath(Spec)
                           : executeWithResilience(Spec, Start, Key);
  };
  if (CancelRequested.load(std::memory_order_relaxed)) {
    R.Name = Spec.Name;
    R.Status = JobStatus::Cancelled;
    R.Message = "batch cancelled before execution";
  } else if (Config.CacheCapacity > 0) {
    if (std::optional<JobResult> Hit = Cache.get(Key)) {
      Metrics.CacheHits.fetch_add(1, std::memory_order_relaxed);
      R = std::move(*Hit);
      R.Name = Spec.Name;
      R.CacheHit = true;
      // Stage timings describe *this* serving, not the original run.
      R.VectorizeSeconds = 0;
      R.ValidateSeconds = 0;
    } else {
      Metrics.CacheMisses.fetch_add(1, std::memory_order_relaxed);
      // Second tier: the persistent result store (when wired in). A disk
      // hit promotes the entry back into the memory tier so the next
      // request is a plain memory hit.
      std::optional<JobResult> FromStore;
      if (Config.Store) {
        // Store lookups are best-effort: a torn/corrupt entry or an I/O
        // error is a miss, never a job failure.
        try {
          FromStore = Config.Store->load(Key);
        } catch (...) {
        }
        if (FromStore)
          Metrics.DiskHits.fetch_add(1, std::memory_order_relaxed);
        else
          Metrics.DiskMisses.fetch_add(1, std::memory_order_relaxed);
      }
      if (FromStore) {
        R = std::move(*FromStore);
        R.Name = Spec.Name;
        try {
          Cache.put(Key, R);
        } catch (...) {
        }
        R.CacheHit = true;
        R.DiskHit = true;
        R.VectorizeSeconds = 0;
        R.ValidateSeconds = 0;
      } else {
        R = RunMiss();
        if (R.succeeded()) {
          // Cache insertion is best-effort: an injected (or real) failure
          // here must not undo an otherwise-successful job.
          try {
            if (Config.Faults) {
              FaultContext Ctx(Config.Faults, Key ^ 0x9E3779B97F4A7C15ull);
              FaultScope Scope(&Ctx);
              maybeInject(FaultSite::CacheInsert);
            }
            Cache.put(Key, R);
            if (Config.Store)
              Config.Store->store(Key, R);
          } catch (...) {
          }
        }
      }
    }
  } else {
    R = RunMiss();
  }

  R.QueueSeconds = QueueSeconds;
  R.TotalSeconds = secondsSince(SubmitTime, Clock::now());
  Metrics.TotalLatency.record(R.TotalSeconds);
  switch (R.Status) {
  case JobStatus::Succeeded:
    Metrics.JobsSucceeded.fetch_add(1, std::memory_order_relaxed);
    // Cost-model decision counters ride on the replayed VectorizeStats,
    // so cache hits count the same decisions the original run made.
    Metrics.NestsVectorized.fetch_add(R.Stats.LoopNestsImproved,
                                      std::memory_order_relaxed);
    Metrics.NestsKeptLoop.fetch_add(R.Stats.NestsKeptLoop,
                                    std::memory_order_relaxed);
    Metrics.VariantOverrides.fetch_add(R.Stats.VariantOverrides,
                                       std::memory_order_relaxed);
    break;
  case JobStatus::Failed:
    Metrics.JobsFailed.fetch_add(1, std::memory_order_relaxed);
    break;
  case JobStatus::TimedOut:
    Metrics.JobsTimedOut.fetch_add(1, std::memory_order_relaxed);
    break;
  case JobStatus::Cancelled:
    Metrics.JobsCancelled.fetch_add(1, std::memory_order_relaxed);
    break;
  case JobStatus::Degraded:
    Metrics.JobsDegraded.fetch_add(1, std::memory_order_relaxed);
    break;
  }
  return R;
}

JobResult VectorizationService::executeWithResilience(const JobSpec &Spec,
                                                      Clock::time_point Start,
                                                      uint64_t JobSalt) {
  const ResilienceConfig &RC = Config.Resilience;

  std::chrono::milliseconds DeadlineMs =
      Spec.Deadline.count() > 0 ? Spec.Deadline : Config.DefaultDeadline;
  std::optional<Clock::time_point> Deadline;
  if (DeadlineMs.count() > 0)
    Deadline = Start + DeadlineMs;

  unsigned MaxAttempts = std::max(RC.Retry.MaxAttempts, 1u);
  JobResult R;
  for (unsigned Attempt = 1;; ++Attempt) {
    {
      // Fresh fault schedule and memory budget per attempt. The salt
      // folds in the attempt number so a rule with Period > 1 doesn't
      // replay the identical decision sequence on every retry.
      std::optional<FaultContext> Faults;
      if (Config.Faults)
        Faults.emplace(Config.Faults, JobSalt + Attempt);
      FaultScope FS(Faults ? &*Faults : nullptr);
      ResourceGovernor Governor(RC.MaxJobBytes);
      GovernorScope GS(RC.MaxJobBytes != 0 ? &Governor : nullptr);
      R = executeUncached(Spec, Start);
    }
    R.Attempts = Attempt;

    // Only presumed-transient internal faults are worth retrying: bad
    // input stays bad, a blown budget blows again, an expired deadline
    // only gets more expired.
    if (R.succeeded() || R.Class != ErrorClass::Internal ||
        Attempt >= MaxAttempts)
      break;
    if (CancelRequested.load(std::memory_order_relaxed))
      break;

    std::chrono::microseconds Delay = backoffDelay(RC.Retry, Attempt, JobSalt);
    if (Deadline) {
      auto Remaining = std::chrono::duration_cast<std::chrono::microseconds>(
          *Deadline - Clock::now());
      if (Remaining <= std::chrono::microseconds::zero())
        break; // No budget left to retry in.
      Delay = std::min(Delay, Remaining);
    }
    Metrics.Retries.fetch_add(1, std::memory_order_relaxed);
    if (Delay.count() > 0)
      std::this_thread::sleep_for(Delay);
  }

  // Graceful degradation: infrastructure trouble (not bad input, not a
  // missed deadline) falls back to shipping the original source verbatim
  // with a structured diagnostic, so the batch as a whole still lands.
  if (!R.succeeded() &&
      (R.Class == ErrorClass::Internal || R.Class == ErrorClass::Resource)) {
    R.Status = JobStatus::Degraded;
    R.VectorizedSource = Spec.Source;
    R.Message = "degraded: " + R.Message;
  }
  return R;
}

JobResult VectorizationService::executeUncached(const JobSpec &Spec,
                                                Clock::time_point Start) {
  JobResult R;
  R.Name = Spec.Name;

  std::chrono::milliseconds DeadlineMs =
      Spec.Deadline.count() > 0 ? Spec.Deadline : Config.DefaultDeadline;
  RunLimits Limits;
  if (DeadlineMs.count() > 0)
    Limits.Deadline = Start + DeadlineMs;
  Limits.Cancel = &CancelRequested;

  // One malformed (or downright hostile) script must never take the
  // worker — or the batch — down with it: every failure mode folds into
  // the job's result, tagged with the ErrorClass the retry/degradation
  // machinery keys off.
  try {
    maybeInject(FaultSite::WorkerPickup);
    Clock::time_point T0 = Clock::now();
    PipelineResult P = vectorizeSource(Spec.Source, Spec.Opts, DB);
    R.VectorizeSeconds = secondsSince(T0, Clock::now());
    Metrics.VectorizeLatency.record(R.VectorizeSeconds);
    if (!P.succeeded()) {
      R.Status = JobStatus::Failed;
      R.Class = ErrorClass::Input;
      R.Message = P.Diags.str(Spec.Name.empty() ? "<input>" : Spec.Name);
      return R;
    }
    R.Stats = P.Stats;

    if ((Limits.Deadline && Clock::now() >= *Limits.Deadline) ||
        faultDeadlineForced()) {
      R.Status = JobStatus::TimedOut;
      R.Class = ErrorClass::Deadline;
      R.Message = "deadline exceeded during vectorization";
      return R;
    }
    if (CancelRequested.load(std::memory_order_relaxed)) {
      R.Status = JobStatus::Cancelled;
      R.Message = "batch cancelled";
      return R;
    }

    if (Spec.Validate) {
      Clock::time_point T1 = Clock::now();
      DiffOutcome Diff =
          diffRunLimited(Spec.Source, P.VectorizedSource, Limits);
      R.ValidateSeconds = secondsSince(T1, Clock::now());
      Metrics.ValidateLatency.record(R.ValidateSeconds);
      switch (Diff.Status) {
      case DiffStatus::Match:
        break;
      case DiffStatus::TimedOut:
        R.Status = JobStatus::TimedOut;
        R.Class = ErrorClass::Deadline;
        R.Message = "validation timed out: " + Diff.Message;
        return R;
      case DiffStatus::Cancelled:
        R.Status = JobStatus::Cancelled;
        R.Message = "validation cancelled: " + Diff.Message;
        return R;
      case DiffStatus::Mismatch:
      case DiffStatus::Error:
        R.Status = JobStatus::Failed;
        R.Class = ErrorClass::Input;
        R.Message = "validation failed: " + Diff.Message;
        return R;
      }
    }

    R.Status = JobStatus::Succeeded;
    R.VectorizedSource = std::move(P.VectorizedSource);
  } catch (const ResourceExhausted &E) {
    R.Status = JobStatus::Failed;
    R.Class = ErrorClass::Resource;
    R.Message = E.what();
  } catch (const std::exception &E) {
    R.Status = JobStatus::Failed;
    R.Class = ErrorClass::Internal;
    R.Message = std::string("internal error: ") + E.what();
  } catch (...) {
    R.Status = JobStatus::Failed;
    R.Class = ErrorClass::Internal;
    R.Message = "internal error: unknown exception";
  }
  return R;
}
