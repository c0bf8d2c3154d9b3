//===- Job.h - Service job specification and result -------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unit of work of the vectorization service: one MATLAB script to
/// vectorize (and optionally validate by differential execution), plus the
/// per-job knobs a batch submitter may override, and the structured result
/// the service hands back.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_SERVICE_JOB_H
#define MVEC_SERVICE_JOB_H

#include "resilience/Resilience.h"
#include "vectorizer/Options.h"
#include "vectorizer/Vectorizer.h"

#include <chrono>
#include <string>

namespace mvec {

/// Terminal state of a service job.
enum class JobStatus {
  Succeeded, ///< vectorized (and validated, when requested)
  Failed,    ///< parse/vectorize error, runtime error, or divergence
  TimedOut,  ///< the per-job deadline fired before the job finished
  Cancelled, ///< the batch was cancelled before/while the job ran
  Degraded,  ///< retries/budgets exhausted; original source passed through
};

/// Display name for \p Status ("succeeded", "failed", ...).
const char *jobStatusName(JobStatus Status);
/// The status whose jobStatusName is \p Name; false for any other text.
bool parseJobStatus(const std::string &Name, JobStatus &Status);

/// One script submitted to the service.
struct JobSpec {
  /// Display name (typically the file name); shows up in reports only.
  std::string Name;
  /// The annotated MATLAB source to vectorize.
  std::string Source;
  VectorizerOptions Opts;
  /// Run differential validation (original vs. vectorized under the
  /// interpreter) before declaring success.
  bool Validate = true;
  /// Per-job deadline override; zero uses the service default. The clock
  /// starts when a worker picks the job up, and bounds the whole job
  /// (vectorization plus validation runs).
  std::chrono::milliseconds Deadline{0};
};

/// What the service produced for one job.
struct JobResult {
  JobStatus Status = JobStatus::Failed;
  /// Coarse failure taxonomy driving retry/degradation decisions
  /// (None on success). Input errors are the script's fault, Resource
  /// means a budget was exhausted, Deadline the clock ran out, Internal
  /// an unexpected exception escaped the pipeline.
  ErrorClass Class = ErrorClass::None;
  /// Pipeline attempts this result took (retries = Attempts - 1).
  unsigned Attempts = 1;
  /// Echo of JobSpec::Name.
  std::string Name;
  /// The vectorized program (empty unless Status == Succeeded). For
  /// Degraded results this is the *original* source, byte for byte: the
  /// caller can always run whatever comes back here.
  std::string VectorizedSource;
  /// Diagnostics / failure description (empty on success).
  std::string Message;
  VectorizeStats Stats;
  /// True when the result was served from the content-addressed cache
  /// without re-running the pipeline.
  bool CacheHit = false;
  /// True when the serving cache tier was the persistent result store
  /// (implies CacheHit; the in-memory tier missed, e.g. after a restart).
  bool DiskHit = false;
  /// Wall time spent queued before a worker picked the job up.
  double QueueSeconds = 0;
  /// Wall time of the parse+infer+vectorize stage (0 on cache hits).
  double VectorizeSeconds = 0;
  /// Wall time of the differential-validation stage (0 when skipped).
  double ValidateSeconds = 0;
  /// Submission-to-completion wall time.
  double TotalSeconds = 0;

  bool succeeded() const { return Status == JobStatus::Succeeded; }
};

} // namespace mvec

#endif // MVEC_SERVICE_JOB_H
