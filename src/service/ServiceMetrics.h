//===- ServiceMetrics.h - Service observability -----------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters and latency histograms for the vectorization service. All
/// recording paths are lock-free (relaxed atomics): workers bump them on
/// the hot path, and dump() readers tolerate a momentarily torn view
/// (counts may be one apart across counters — fine for monitoring).
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_SERVICE_SERVICEMETRICS_H
#define MVEC_SERVICE_SERVICEMETRICS_H

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace mvec {

/// A fixed-bucket log-2 latency histogram (microsecond resolution).
/// Bucket B counts samples in [2^B, 2^(B+1)) microseconds; the last
/// bucket absorbs everything slower (~34 s and beyond).
class LatencyHistogram {
public:
  static constexpr size_t NumBuckets = 26;

  void record(double Seconds) {
    double Micros = std::max(Seconds, 0.0) * 1e6;
    auto Us = static_cast<uint64_t>(Micros);
    size_t B = 0;
    while (B + 1 < NumBuckets && (uint64_t(1) << (B + 1)) <= (Us | 1))
      ++B;
    Buckets[B].fetch_add(1, std::memory_order_relaxed);
    Count.fetch_add(1, std::memory_order_relaxed);
    SumUs.fetch_add(Us, std::memory_order_relaxed);
  }

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  /// Total observed time in microseconds.
  uint64_t sumMicros() const { return SumUs.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t B) const {
    return Buckets[B].load(std::memory_order_relaxed);
  }
  double meanSeconds() const;
  /// Upper edge (seconds) of the bucket containing quantile \p Q — a
  /// conservative approximation good enough for dashboards.
  double quantileSeconds(double Q) const;

private:
  std::array<std::atomic<uint64_t>, NumBuckets> Buckets{};
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> SumUs{0};
};

/// The service-wide counter registry.
struct ServiceMetrics {
  std::atomic<uint64_t> JobsSubmitted{0};
  std::atomic<uint64_t> JobsSucceeded{0};
  std::atomic<uint64_t> JobsFailed{0};
  std::atomic<uint64_t> JobsTimedOut{0};
  std::atomic<uint64_t> JobsCancelled{0};
  /// Jobs that exhausted retries/budgets and fell back to passing the
  /// original source through.
  std::atomic<uint64_t> JobsDegraded{0};
  /// Pipeline re-attempts after a retryable (internal) failure.
  std::atomic<uint64_t> Retries{0};
  std::atomic<uint64_t> CacheHits{0};
  std::atomic<uint64_t> CacheMisses{0};
  /// Persistent-store (second tier) hits/misses; only move when a
  /// ResultStore is configured, and only on memory-tier misses.
  std::atomic<uint64_t> DiskHits{0};
  std::atomic<uint64_t> DiskMisses{0};
  /// Deepest the submission queue has ever been.
  std::atomic<uint64_t> QueueDepthHighWater{0};
  /// Cost-model decisions (only move when ServiceConfig::Cost is set):
  /// nests with at least one vector-form statement, nests where the model
  /// kept at least one legal vectorization in loop form, and mul-chain
  /// variant overrides. Replayed on cache hits like the VectorizeStats
  /// they derive from.
  std::atomic<uint64_t> NestsVectorized{0};
  std::atomic<uint64_t> NestsKeptLoop{0};
  std::atomic<uint64_t> VariantOverrides{0};
  /// Sandbox supervisor counters (only move for process-isolated shards,
  /// whose sandbox::SandboxPool records into its service's registry):
  /// worker processes that died unexpectedly (signal, OOM kill, nonzero
  /// exit), workers respawned after a death, workers SIGKILLed by the
  /// watchdog (stuck past their deadline or missed heartbeats),
  /// crash-inducing inputs written to the quarantine directory, and
  /// misses shed because the crash-loop breaker was open.
  std::atomic<uint64_t> SandboxCrashes{0};
  std::atomic<uint64_t> SandboxRespawns{0};
  std::atomic<uint64_t> SandboxWatchdogKills{0};
  std::atomic<uint64_t> SandboxQuarantined{0};
  std::atomic<uint64_t> SandboxBreakerShed{0};

  LatencyHistogram QueueLatency;     ///< submission -> worker pickup
  LatencyHistogram VectorizeLatency; ///< parse+infer+vectorize stage
  LatencyHistogram ValidateLatency;  ///< differential validation stage
  LatencyHistogram TotalLatency;     ///< submission -> completion

  uint64_t jobsCompleted() const {
    return JobsSucceeded.load(std::memory_order_relaxed) +
           JobsFailed.load(std::memory_order_relaxed) +
           JobsTimedOut.load(std::memory_order_relaxed) +
           JobsCancelled.load(std::memory_order_relaxed) +
           JobsDegraded.load(std::memory_order_relaxed);
  }

  /// Raises QueueDepthHighWater to at least \p Depth.
  void noteQueueDepth(uint64_t Depth);

  /// Human-readable multi-line dump.
  std::string text() const;
  /// Machine-readable dump (one JSON object; stable key names).
  std::string json() const;
};

} // namespace mvec

#endif // MVEC_SERVICE_SERVICEMETRICS_H
