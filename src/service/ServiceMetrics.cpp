//===- ServiceMetrics.cpp - Service observability ---------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/ServiceMetrics.h"

#include "interp/simd/SimdDispatch.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

using namespace mvec;

double LatencyHistogram::meanSeconds() const {
  uint64_t N = count();
  return N == 0 ? 0.0 : double(sumMicros()) / double(N) * 1e-6;
}

double LatencyHistogram::quantileSeconds(double Q) const {
  uint64_t N = count();
  if (N == 0)
    return 0.0;
  Q = std::clamp(Q, 0.0, 1.0);
  auto Rank = static_cast<uint64_t>(std::ceil(Q * double(N)));
  Rank = std::max<uint64_t>(Rank, 1);
  uint64_t Seen = 0;
  for (size_t B = 0; B != NumBuckets; ++B) {
    Seen += bucket(B);
    if (Seen >= Rank)
      return double(uint64_t(1) << (B + 1)) * 1e-6;
  }
  return double(uint64_t(1) << NumBuckets) * 1e-6;
}

void ServiceMetrics::noteQueueDepth(uint64_t Depth) {
  uint64_t Cur = QueueDepthHighWater.load(std::memory_order_relaxed);
  while (Depth > Cur && !QueueDepthHighWater.compare_exchange_weak(
                            Cur, Depth, std::memory_order_relaxed))
    ;
}

namespace {

void appendHistText(std::ostringstream &Out, const char *Name,
                    const LatencyHistogram &H) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "  %-10s count=%llu mean=%.6fs p50<=%.6fs p99<=%.6fs "
                "p999<=%.6fs\n",
                Name, static_cast<unsigned long long>(H.count()),
                H.meanSeconds(), H.quantileSeconds(0.5),
                H.quantileSeconds(0.99), H.quantileSeconds(0.999));
  Out << Buf;
}

void appendHistJson(std::ostringstream &Out, const char *Name,
                    const LatencyHistogram &H) {
  Out << "\"" << Name << "\":{\"count\":" << H.count()
      << ",\"sum_us\":" << H.sumMicros() << ",\"mean_s\":" << H.meanSeconds()
      << ",\"p50_le_s\":" << H.quantileSeconds(0.5)
      << ",\"p99_le_s\":" << H.quantileSeconds(0.99)
      << ",\"p999_le_s\":" << H.quantileSeconds(0.999) << ",\"buckets_us\":[";
  for (size_t B = 0; B != LatencyHistogram::NumBuckets; ++B)
    Out << (B ? "," : "") << H.bucket(B);
  Out << "]}";
}

} // namespace

std::string ServiceMetrics::text() const {
  std::ostringstream Out;
  Out << "service metrics:\n"
      << "  jobs: submitted=" << JobsSubmitted.load()
      << " succeeded=" << JobsSucceeded.load()
      << " failed=" << JobsFailed.load()
      << " timed_out=" << JobsTimedOut.load()
      << " cancelled=" << JobsCancelled.load()
      << " degraded=" << JobsDegraded.load() << "\n"
      << "  resilience: retries=" << Retries.load() << "\n"
      << "  cache: hits=" << CacheHits.load()
      << " misses=" << CacheMisses.load()
      << " disk_hits=" << DiskHits.load()
      << " disk_misses=" << DiskMisses.load() << "\n"
      << "  queue: depth_high_water=" << QueueDepthHighWater.load() << "\n"
      << "  cost: nests_vectorized=" << NestsVectorized.load()
      << " nests_kept_loop=" << NestsKeptLoop.load()
      << " variant_overrides=" << VariantOverrides.load() << "\n"
      << "  sandbox: crashes=" << SandboxCrashes.load()
      << " respawns=" << SandboxRespawns.load()
      << " watchdog_kills=" << SandboxWatchdogKills.load()
      << " quarantined=" << SandboxQuarantined.load()
      << " breaker_shed=" << SandboxBreakerShed.load() << "\n";
  // Dispatch state is process-global (one kernel table per process), so
  // every service in the process reports the same tier and shares one set
  // of counters; it still answers "which ISA actually served my traffic".
  const simd::DispatchCounters &D = simd::dispatchCounters();
  Out << "  simd: isa=" << simd::levelName(simd::activeLevel())
      << " elementwise=" << D.Elementwise.load()
      << " compare=" << D.Compare.load()
      << " fused_mul_add=" << D.FusedMulAdd.load()
      << " matmul=" << D.MatMul.load() << " reduce=" << D.Reduce.load()
      << " cumsum=" << D.Cumsum.load() << " unary=" << D.Unary.load() << "\n";
  appendHistText(Out, "queue", QueueLatency);
  appendHistText(Out, "vectorize", VectorizeLatency);
  appendHistText(Out, "validate", ValidateLatency);
  appendHistText(Out, "total", TotalLatency);
  return Out.str();
}

std::string ServiceMetrics::json() const {
  std::ostringstream Out;
  Out << "{\"jobs\":{\"submitted\":" << JobsSubmitted.load()
      << ",\"succeeded\":" << JobsSucceeded.load()
      << ",\"failed\":" << JobsFailed.load()
      << ",\"timed_out\":" << JobsTimedOut.load()
      << ",\"cancelled\":" << JobsCancelled.load()
      << ",\"degraded\":" << JobsDegraded.load() << "},"
      << "\"resilience\":{\"retries\":" << Retries.load() << "},"
      << "\"cache\":{\"hits\":" << CacheHits.load()
      << ",\"misses\":" << CacheMisses.load()
      << ",\"disk_hits\":" << DiskHits.load()
      << ",\"disk_misses\":" << DiskMisses.load() << "},"
      << "\"queue\":{\"depth_high_water\":" << QueueDepthHighWater.load()
      << "},\"cost\":{\"nests_vectorized\":" << NestsVectorized.load()
      << ",\"nests_kept_loop\":" << NestsKeptLoop.load()
      << ",\"variant_overrides\":" << VariantOverrides.load()
      << "},\"sandbox\":{\"crashes\":" << SandboxCrashes.load()
      << ",\"respawns\":" << SandboxRespawns.load()
      << ",\"watchdog_kills\":" << SandboxWatchdogKills.load()
      << ",\"quarantined\":" << SandboxQuarantined.load()
      << ",\"breaker_shed\":" << SandboxBreakerShed.load() << "},";
  const simd::DispatchCounters &D = simd::dispatchCounters();
  Out << "\"simd\":{\"isa\":\"" << simd::levelName(simd::activeLevel())
      << "\",\"dispatch\":{\"elementwise\":" << D.Elementwise.load()
      << ",\"compare\":" << D.Compare.load()
      << ",\"fused_mul_add\":" << D.FusedMulAdd.load()
      << ",\"matmul\":" << D.MatMul.load() << ",\"reduce\":" << D.Reduce.load()
      << ",\"cumsum\":" << D.Cumsum.load() << ",\"unary\":" << D.Unary.load()
      << "}},\"latency\":{";
  appendHistJson(Out, "queue", QueueLatency);
  Out << ",";
  appendHistJson(Out, "vectorize", VectorizeLatency);
  Out << ",";
  appendHistJson(Out, "validate", ValidateLatency);
  Out << ",";
  appendHistJson(Out, "total", TotalLatency);
  Out << "}}";
  return Out.str();
}
